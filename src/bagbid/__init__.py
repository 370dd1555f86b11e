"""bagbid: constrained auction simulation, hindsight expert bidding, and
an expert-token bag-reward decision transformer for offline auto-bidding.
"""

# the scan kernels have one (pure-Python) implementation; benchmark reports
# still record which one ran
KERNEL_BACKEND = "python"

__all__ = ["KERNEL_BACKEND"]
__version__ = "0.1.0"
