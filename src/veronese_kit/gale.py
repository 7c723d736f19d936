"""Gale transforms of point configurations and minor-duality certificates.

The Gale transforms of a full-rank (d+1) x n matrix A (n >= d + 2) are the
full-rank (n-d-1) x n matrices B with A B^t = 0. Complementary maximal
minors of A and B agree up to one global scalar and a per-set sign:

    m_I(A) = (-1)^(S_I + n - d - 1) * lambda * m_{I^c}(B)

with lambda independent of I, and lambda = 1 for the standard pair
A = [I | A'], B = [A'^t | -I]. `duality_certificate` determines lambda
empirically and then checks the identity for every I, so it certifies any
representative, not just a normalized one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .configurations import PointConfiguration, strong_nondegeneracy_witness
from .errors import DegenerateInputError, NotAGalePairError, RankDeficiencyError, ShapeError
from .fields import Scalar, require_same_field
from .linalg import (
    IndexSet,
    MaximalMinors,
    Matrix,
    inverse,
    kernel_basis,
    rank,
)


def affine_gale(A: Matrix) -> Matrix:
    """The canonical Gale transform: the reduced-echelon kernel basis of A.

    A must be full row rank with n >= (rows) + 1 columns. The result is a
    full-rank (n - rows) x n matrix with A B^t = 0; any other Gale transform
    of A has the same row space.
    """
    if A.cols < A.rows + 1:
        raise ShapeError(f"need at least {A.rows + 1} columns, got {A.cols}")
    return kernel_basis(A)  # raises RankDeficiencyError if rows are dependent


def standard_gale_pair(A: Matrix) -> tuple[Matrix, Matrix]:
    """Column-normalize A to [I | A'] and pair it with [A'^t | -I].

    Requires the first d+1 columns of A to be linearly independent; the error
    message names a lexicographically-first independent column set to use
    instead when they are not.
    """
    k, n = A.rows, A.cols
    if n < k + 1:
        raise ShapeError(f"need at least {k + 1} columns, got {n}")
    lead = A.select_columns(range(1, k + 1))
    if rank(lead) < k:
        witness = None
        for J in combinations(range(1, n + 1), k):
            if rank(A.select_columns(J)) == k:
                witness = J
                break
        if witness is None:
            raise RankDeficiencyError("matrix has no independent column set of full height")
        raise RankDeficiencyError(
            f"first {k} columns are dependent; columns {witness} are independent"
        )
    f = A.field
    a_std = inverse(lead).matmul(A)
    tail = a_std.select_columns(range(k + 1, n + 1))  # the A' block
    rows = []
    for j in range(n - k):
        row = [tail.entries[i][j] for i in range(k)]
        row += [f.neg(f.one) if c == j else f.zero for c in range(n - k)]
        rows.append(row)
    return a_std, Matrix(f, rows)


@dataclass(frozen=True)
class GaleDualityCertificate:
    """Exhaustive check of the complementary-minor identity for a pair (A, B).

    `lambda_` is the global scalar fixed by the first nonvanishing minor of
    A; `failures` lists every I whose identity check failed (empty iff `ok`).
    """

    n: int
    height_a: int
    height_b: int
    lambda_: Scalar
    checked: int
    failures: tuple[IndexSet, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def duality_certificate(A: Matrix, B: Matrix) -> GaleDualityCertificate:
    """Verify m_I(A) = (-1)^(S_I + height_B) lambda m_{I^c}(B) for every I."""
    require_same_field(A.field, B.field, "Gale pair")
    n = A.cols
    if B.cols != n:
        raise ShapeError(f"column counts differ: {A.cols} vs {B.cols}")
    if A.rows + B.rows != n:
        raise ShapeError(f"heights {A.rows} + {B.rows} must sum to {n}")
    if not A.matmul(B.transpose()).is_zero():
        raise NotAGalePairError("A B^t != 0")
    if rank(A) < A.rows or rank(B) < B.rows:
        raise RankDeficiencyError("both matrices must have full row rank")

    f = A.field
    k = A.rows
    ma, mb = MaximalMinors(A), MaximalMinors(B)
    subsets = list(combinations(range(1, n + 1), k))
    # the sign exponent S_I + height_B, with S_I = sum(I) - k(k+1)/2
    shift = B.rows - k * (k + 1) // 2
    signs = (f.one, f.neg(f.one))
    pairs = [
        (I, tuple(i for i in range(1, n + 1) if i not in I), signs[(sum(I) + shift) % 2])
        for I in subsets
    ]
    lam = None
    for I, Ic, sign in pairs:
        va = ma.get(I)
        if va != 0:
            vb = mb.get(Ic)
            if vb == 0:
                # genuine Gale pairs cannot do this; flag everything
                return GaleDualityCertificate(n, k, B.rows, f.zero, len(subsets), tuple(subsets))
            lam = f.div(va, f.mul(sign, vb))
            break
    assert lam is not None  # full row rank guarantees a nonzero minor

    failures = tuple(
        I for I, Ic, sign in pairs if ma.get(I) != f.mul(sign, f.mul(lam, mb.get(Ic)))
    )
    return GaleDualityCertificate(n, k, B.rows, lam, len(subsets), failures)


def gale_of_config(p: PointConfiguration) -> PointConfiguration:
    """The Gale transform as a configuration of n points in P^(n-d-2).

    Defined when n >= d + 3 and the input is strongly nondegenerate (any n-1
    points span); that is exactly what keeps every transform column nonzero.
    """
    if p.n < p.d + 3:
        raise ShapeError(f"need n >= d + 3 for a projective Gale transform, got n={p.n}")
    w = strong_nondegeneracy_witness(p)
    if w is not None:
        raise DegenerateInputError(
            f"dropping point {w} kills the span; Gale transform would have a zero column"
        )
    B = affine_gale(p.coords)
    return PointConfiguration(p.field, p.n - p.d - 2, p.n, B)


def double_gale_minor_check(p: PointConfiguration) -> bool:
    """Maximal minors of Gale(Gale(p)) are proportional to those of p."""
    q = gale_of_config(gale_of_config(p))
    va = MaximalMinors(p.coords).vector()
    vb = MaximalMinors(q.coords).vector()
    return _proportional(p.field, va, vb)


def _proportional(field, v, w) -> bool:
    if len(v) != len(w):
        return False
    pivot = next((i for i, x in enumerate(v) if x != 0 or w[i] != 0), None)
    if pivot is None:
        return True
    if v[pivot] == 0 or w[pivot] == 0:
        return False
    c = field.div(v[pivot], w[pivot])
    return all(x == field.mul(c, y) for x, y in zip(v, w))
