"""Exact-arithmetic toolkit for point configurations on rational normal curves.

Determinantal and bracket equations for six-point conic membership and its
higher-dimensional analogues, Gale-transform machinery with minor duality
certificates, hypergraph transversality analysis, exact Jacobian dimension
estimates, and seeded samplers — all over Q or F_p with zero-tolerance
arithmetic.
"""

from .fields import DEFAULT_PRIME, Field, QQ
from .linalg import IndexSet, Matrix, det, kernel_basis, minor, rank, s_index

__all__ = [
    "DEFAULT_PRIME",
    "Field",
    "QQ",
    "IndexSet",
    "Matrix",
    "det",
    "kernel_basis",
    "minor",
    "rank",
    "s_index",
]

__version__ = "0.1.0"
