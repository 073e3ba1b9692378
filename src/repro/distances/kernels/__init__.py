"""Vectorized batch distance kernels over numpy arrays.

A distance without a kernel implementation raises
:class:`KernelUnavailable` from ``make_kernel``, letting callers keep
the scalar per-pair path.
"""

from .base import DistanceKernel, KernelUnavailable
from .columnar import ColumnarVectors

__all__ = [
    "DistanceKernel",
    "ColumnarVectors",
    "KernelUnavailable",
]
