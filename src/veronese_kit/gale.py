"""Gale transforms of point configurations and minor-duality certificates.

The Gale transforms of a full-rank (d+1) x n matrix A (n >= d + 2) are the
full-rank (n-d-1) x n matrices B with A B^t = 0. Complementary maximal
minors of A and B agree up to one global scalar and a per-set sign:

    m_I(A) = (-1)^(S_I + n - d - 1) * lambda * m_{I^c}(B)

with lambda independent of I, and lambda = 1 for the standard pair
A = [I | A'], B = [A'^t | -I]. `duality_certificate` refuses every input
that is not a Gale pair and reads lambda from one complementary pair; its
docstring proves that every other pair then holds, so it certifies any
representative, not just a normalized one.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, prod

from .configurations import PointConfiguration, strong_nondegeneracy_witness
from .errors import DegenerateInputError, NotAGalePairError, RankDeficiencyError, ShapeError
from .fields import Scalar, require_same_field
from .linalg import Matrix, _orthogonal, complement, kernel_basis, rref, s_index


def affine_gale(A: Matrix) -> Matrix:
    """The canonical Gale transform: the reduced-echelon kernel basis of A.

    A must be full row rank with n >= (rows) + 1 columns. The result is a
    full-rank (n - rows) x n matrix with A B^t = 0; any other Gale transform
    of A has the same row space.
    """
    return kernel_basis(A)  # ShapeError below rows + 1 columns, RankDeficiencyError on dependent rows


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
    # with pivots 1..k the reduced echelon form is [I | A'] = A_lead^-1 A, and
    # the kernel basis of A, read from the same echelon form, is [-A'^t | I]
    K, p = kernel_basis(A), A.field.p
    minus = [[-x % p for x in c] if p else [-x for x in c] for c in K.int_columns]
    return a_std, Matrix._from_int_columns(A.field, minus, K._factors)


@dataclass(frozen=True)
class GaleDualityCertificate:
    """The complementary-minor identity of a Gale pair (A, B), certified for
    all `checked` = C(n, height_a) index sets.

    `lambda_` is the global scalar, fixed by the lex-first I with a nonzero
    A-minor. `duality_certificate` issues a certificate only for a Gale pair,
    and on a Gale pair every complementary pair holds (the proof is in its
    docstring), so `ok` is always true.
    """

    n: int
    height_a: int
    height_b: int
    lambda_: Scalar
    checked: int

    @property
    def ok(self) -> bool:
        return True


def duality_certificate(A: Matrix, B: Matrix) -> GaleDualityCertificate:
    """Certify m_I(A) = (-1)^(S_I + height_B) lambda m_{I^c}(B) for every I.

    Raises NotAGalePairError unless A B^t = 0, checked on both sides'
    `Matrix._int_rows`, mod p over F_p, and RankDeficiencyError unless
    both matrices have full row rank. lambda is then read from one pair: P,
    the pivot columns of A's cached echelon form (`Matrix._echelon`, not
    redone when A is already eliminated), is the lex-first I with
    m_I(A) != 0, the elimination gives det(A_P), and m_{P^c}(B) is one
    determinant. B is never eliminated.

    Every other pair holds by Jacobi's complementary-minor theorem, over any
    field. Proof: A B^t = 0 and rank A + rank B = n make the rows of B a basis
    of the annihilator of the rows of A. Complete A to an invertible n x n
    matrix N; the last n - k columns of N^-1 (k = height_A), transposed, are
    another such basis B0, so B = G B0 with G invertible. Jacobi's theorem
    gives det N^-1[I^c, K^c] = (-1)^(sum I^c + sum K^c) det N[K, I] / det N
    with K = (1..k), that is m_{I^c}(B0) = +-(-1)^(S_I) m_I(A) / det N with
    one sign for all I, and m_{I^c}(B) = det G m_{I^c}(B0). So m_I(A) and
    (-1)^(S_I + height_B) m_{I^c}(B) are proportional by one nonzero scalar,
    and m_P(A) != 0 forces m_{P^c}(B) != 0. Given A B^t = 0 and rank A = k,
    B thus has full row rank exactly when m_{P^c}(B) != 0. `checked` counts
    the C(n, k) pairs this certifies.
    """
    require_same_field(A.field, B.field, "Gale pair")
    n = A.cols
    if B.cols != n:
        raise ShapeError(f"column counts differ: {A.cols} vs {B.cols}")
    if A.rows + B.rows != n:
        raise ShapeError(f"heights {A.rows} + {B.rows} must sum to {n}")
    k = A.rows
    f = A.field
    # scaling a matrix by a nonzero constant keeps A B^t = 0 or not
    if not _orthogonal(A._int_rows(), B._int_rows(), f.p):
        raise NotAGalePairError("A B^t != 0")
    pivots = A._echelon()[1]
    if len(pivots) < k:
        raise RankDeficiencyError("both matrices must have full row rank")
    P = tuple(c + 1 for c in pivots)
    b = B.maximal_minor(complement(P, n))
    if b == 0:
        raise RankDeficiencyError("both matrices must have full row rank")
    # det(A_P) of the cleared columns, over the product of their clearing factors
    lam = f.mul(f.from_core(A._det, prod(A._factors[c] for c in pivots)), f.inv(b))
    if (s_index(P) + B.rows) % 2:
        lam = f.neg(lam)
    return GaleDualityCertificate(n, k, B.rows, lam, comb(n, k))


def gale_of_config(p: PointConfiguration) -> PointConfiguration:
    """The Gale transform as a configuration of n points in P^(n-d-2).

    Defined when n >= d + 3 and the input is strongly nondegenerate (any n-1
    points span); that is exactly what keeps every transform column nonzero.
    The coloop test and the kernel basis read the one echelon form of p's
    coordinates (`Matrix._echelon`), which a certificate of the pair reads
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
    """Maximal minors of Gale(Gale(p)) are proportional to those of p: equal
    up to one nonzero scalar, read at the first nonzero minor of p (p has
    full rank, or `gale_of_config` refuses it)."""
    f = p.field
    v = p.coords.maximal_minors()
    w = gale_of_config(gale_of_config(p)).coords.maximal_minors()
    i = next(i for i, x in enumerate(v) if x)
    if not w[i]:
        return False
    c = f.mul(v[i], f.inv(w[i]))
    return all(x == f.mul(c, y) for x, y in zip(v, w))
