"""Auction-scan kernels with backend selection at import time.

The compiled Cython extension is used when available; otherwise the
pure-Python mirror in :mod:`bagbid._kernels.pyscan` takes over.  Both
produce bit-identical results.  Set ``BAGBID_PURE_PYTHON=1`` to force the
fallback.
"""

import os

from bagbid._kernels import pyscan

if os.environ.get("BAGBID_PURE_PYTHON"):
    _scan = None
else:
    try:
        from bagbid._kernels import _scan
    except ImportError:
        _scan = None

if _scan is not None:
    BACKEND = "cython"
    replay_scan = _scan.replay_scan
    step_scan = _scan.step_scan
else:
    BACKEND = "python"
    replay_scan = pyscan.replay_scan
    step_scan = pyscan.step_scan


def get_backend(name="auto"):
    """Return the kernel module for ``name`` ("auto", "cython", "python").

    Raises RuntimeError when the compiled backend is requested but absent.
    """
    if name == "auto":
        return _scan if _scan is not None else pyscan
    if name == "python":
        return pyscan
    if name == "cython":
        if _scan is None:
            raise RuntimeError("compiled kernel backend is not available")
        return _scan
    raise ValueError(f"unknown kernel backend {name!r}")
