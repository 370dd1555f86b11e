"""Auction-scan kernels: the sequential budget-forfeit scans that the
expert's replay and every market step run, in plain Python over IEEE
doubles (see :mod:`bagbid._kernels.pyscan`)."""

from bagbid._kernels import pyscan
from bagbid._kernels.pyscan import replay_scan, step_scan

__all__ = ["get_backend", "replay_scan", "step_scan"]


def get_backend(name="python"):
    """The kernel module for ``name``.  Only "python" exists; callers that
    probe for the removed compiled backend get RuntimeError."""
    if name != "python":
        raise RuntimeError(f"kernel backend {name!r} is not available")
    return pyscan
