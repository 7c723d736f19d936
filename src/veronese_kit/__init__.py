"""Exact-arithmetic toolkit for point configurations on rational normal curves.

Determinantal and bracket equations for six-point conic membership and its
higher-dimensional analogues, Gale-transform machinery with minor duality
certificates, hypergraph transversality analysis, exact Jacobian dimension
estimates, and seeded samplers — all over Q or F_p with zero-tolerance
arithmetic.
"""

from importlib import import_module

#: Each export by the module that defines it. It is imported on first use
#: (PEP 562), so a command that runs neither `fields` nor `linalg`, such as
#: `eqs` as text, loads neither.
_EXPORTS = {
    "DEFAULT_PRIME": "fields",
    "Field": "fields",
    "QQ": "fields",
    "IndexSet": "linalg",
    "Matrix": "linalg",
    "det": "linalg",
    "kernel_basis": "linalg",
    "minor": "linalg",
    "rank": "linalg",
    "s_index": "linalg",
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    return value
