"""Gale transforms of point configurations and minor-duality certificates.

The Gale transforms of a full-rank (d+1) x n matrix A (n >= d + 2) are the
full-rank (n-d-1) x n matrices B with A B^t = 0. Complementary maximal
minors of A and B agree up to one global scalar and a per-set sign:

    m_I(A) = (-1)^(S_I + n - d - 1) * lambda * m_{I^c}(B)

with lambda independent of I, and lambda = 1 for the standard pair
A = [I | A'], B = [A'^t | -I]. `duality_certificate` determines lambda
empirically and then checks the identity for every I, so it certifies any
representative, not just a normalized one. It reads both sides' minors as
core ints (`MaximalMinors._int_vector`) from each matrix's one echelon form
(`Matrix.minors()`), which `gale_of_config` also reads, and compares them by
cross-multiplication over Q and mod p over F_p, so no field scalar is built
per I.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, repeat
from math import comb
from operator import xor

from .configurations import PointConfiguration, strong_nondegeneracy_witness
from .errors import (
    DegenerateInputError,
    NotAGalePairError,
    RankDeficiencyError,
    ShapeError,
    check_budget,
)
from .fields import Scalar, require_same_field
from .linalg import IndexSet, Matrix, _lex_subset_folds, _orthogonal, kernel_basis, rref

#: `duality_certificate` pairs at most this many complementary minors
#: (C(n, d+1)); larger pairings exit 3 before any elimination.
DUALITY_PAIR_BUDGET = 100_000


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
    instead when they are not: the pivot columns of the echelon form, since
    greedy choice from the left gives the lex-first basis of a column matroid.
    """
    k, n = A.rows, A.cols
    if n < k + 1:
        raise ShapeError(f"need at least {k + 1} columns, got {n}")
    a_std, pivots, r = rref(A)
    if r < k:
        raise RankDeficiencyError("matrix has no independent column set of full height")
    if pivots != tuple(range(k)):
        witness = tuple(c + 1 for c in pivots)
        raise RankDeficiencyError(
            f"first {k} columns are dependent; columns {witness} are independent"
        )
    # with pivots 1..k the reduced echelon form is [I | A'] = A_lead^-1 A
    f = A.field
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
    """Verify m_I(A) = (-1)^(S_I + height_B) lambda m_{I^c}(B) for every I.

    Each side's minors come from its matrix's one echelon form
    (`Matrix.minors()`, not redone for a side already eliminated) as core
    ints (`MaximalMinors._int_vector`), which also gives its rank. lambda is
    fixed once, from the first I with a nonzero A-minor; every I is then
    checked by `_off_line` on ints, and lambda is the one field scalar built.
    A B^t = 0 is checked on both sides' `MaximalMinors._int_rows`, mod p.
    Pairings of more than `DUALITY_PAIR_BUDGET` index sets raise
    BudgetExceededError before any elimination.
    """
    require_same_field(A.field, B.field, "Gale pair")
    n = A.cols
    if B.cols != n:
        raise ShapeError(f"column counts differ: {A.cols} vs {B.cols}")
    if A.rows + B.rows != n:
        raise ShapeError(f"heights {A.rows} + {B.rows} must sum to {n}")
    k = A.rows
    count = comb(n, k)
    check_budget(count, DUALITY_PAIR_BUDGET, f"the certificate of a {k} x {n} matrix pairs {count} minors")
    # scaling a matrix by a nonzero constant keeps A B^t = 0 or not
    p = A.field.p
    ma, mb = A.minors(), B.minors()
    if not _orthogonal(ma._int_rows(), mb._int_rows(), p):
        raise NotAGalePairError("A B^t != 0")
    if ma.rank() < A.rows or mb.rank() < B.rows:
        raise RankDeficiencyError("both matrices must have full row rank")

    va = ma._int_vector()
    # the complements of lex-ordered k-sets run in reverse lex order
    ys, sy = mb._int_vector()
    vb = (ys[::-1], sy[::-1] if sy else None)
    # the parity of the sign exponent S_I + height_B, S_I = sum(I) - k(k+1)/2:
    # that of height_B - k(k+1)/2, flipped by each odd label in I
    odd = _lex_subset_folds(n, k, (B.rows - k * (k + 1) // 2) % 2, xor, lambda j, t: (j + 1) % 2)
    first = next(i for i, x in enumerate(va[0]) if x)  # full row rank has one
    if vb[0][first]:
        lam = _ratio(va, vb, first, p)
        if odd[first]:
            lam = A.field.neg(lam)
        bad = _off_line(va, vb, lam, p, odd)
    else:
        # genuine Gale pairs cannot do this; flag everything
        lam, bad = A.field.zero, range(count)
    subsets = list(combinations(range(1, n + 1), k)) if bad else []
    return GaleDualityCertificate(n, k, B.rows, lam, count, tuple(subsets[i] for i in bad))


def _ratio(v, w, i: int, p: int | None) -> Scalar:
    """The field scalar v_i / w_i of two `MaximalMinors._int_vector` results
    v and w, w_i nonzero: a `Fraction` over Q (p None), a residue mod p."""
    (x, sx), (y, sy) = v, w
    if p:
        return x[i] * pow(y[i], -1, p) % p
    return Fraction(x[i] * sy[i], sx[i] * y[i])


def _off_line(v, w, lam: Scalar, p: int | None, flips) -> list[int]:
    """The positions i at which v_i != (-1)^flips[i] lam w_i, for two
    `MaximalMinors._int_vector` results v and w of equal length.

    Over Q the minors are x_i / s_x and y_i / s_y, and lam = num / den, so the
    test is the cross-multiplied x_i s_y den == +-num y_i s_x, on ints. Over
    F_p it is x_i == +-lam y_i mod p.
    """
    (x, sx), (y, sy) = v, w
    if p:
        signed = (lam, -lam)
        return [i for i, (a, b, e) in enumerate(zip(x, y, flips)) if a != signed[e] * b % p]
    num, den = lam.numerator, lam.denominator
    signed = (num, -num)
    return [
        i for i, (a, s, b, t, e) in enumerate(zip(x, sx, y, sy, flips)) if a * t * den != signed[e] * b * s
    ]


def gale_of_config(p: PointConfiguration) -> PointConfiguration:
    """The Gale transform as a configuration of n points in P^(n-d-2).

    Defined when n >= d + 3 and the input is strongly nondegenerate (any n-1
    points span); that is exactly what keeps every transform column nonzero.
    The coloop test and the kernel basis read the one echelon form of p's
    coordinates (`Matrix.minors()`), which a certificate of the pair reads
    again without eliminating.
    """
    if p.n < p.d + 3:
        raise ShapeError(f"need n >= d + 3 for a projective Gale transform, got n={p.n}")
    w = strong_nondegeneracy_witness(p)
    if w is not None:
        raise DegenerateInputError(
            f"dropping point {w} kills the span; Gale transform would have a zero column"
        )
    return PointConfiguration(p.field, p.n - p.d - 2, p.n, kernel_basis(p.coords))


def double_gale_minor_check(p: PointConfiguration) -> bool:
    """Maximal minors of Gale(Gale(p)) are proportional to those of p."""
    q = gale_of_config(gale_of_config(p))
    return _proportional(p.coords.minors()._int_vector(), q.coords.minors()._int_vector(), p.field.p)


def _proportional(v, w, p: int | None) -> bool:
    """Whether the minors of two `MaximalMinors._int_vector` results are
    proportional: both zero, or v = c w for one nonzero c."""
    x, y = v[0], w[0]
    if len(x) != len(y):
        return False
    pivot = next((i for i, (a, b) in enumerate(zip(x, y)) if a or b), None)
    if pivot is None:
        return True
    if not x[pivot] or not y[pivot]:
        return False
    return not _off_line(v, w, _ratio(v, w, pivot, p), p, repeat(0))
