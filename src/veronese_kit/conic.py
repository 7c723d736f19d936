"""Six points on a conic: determinantal and bracket forms, membership reports.

Six points of P^2 lie on a conic exactly when the 6 x 6 determinant of their
quadratic monomial lifts vanishes. For n > 6 points, pulling the determinant
back along every six-point subset cuts out the closure of the configurations
on conics (including every degenerate conic).

Every reader here (`phi_det`, `w2n_membership`, `v2n_subset_membership`)
takes its minors from the one 6 x n lift of `lift_matrix`, whose entries are
products of the points' core int coordinates, each computed once, kept
with their clearing factors. The membership reports read the lift's int
columns, so they build no `Fraction` row.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from operator import mul
from typing import Iterable, Optional, Sequence

from .brackets import eval_bracket_poly, phi_as_bracket_poly
from .configurations import PointConfiguration
from .errors import ShapeError, check_budget
from .fields import Scalar
from .linalg import IndexSet, Matrix, as_index_set, det, int_rank

#: phi_det == BRACKET_TO_DET_SIGN * (the displayed bracket polynomial).
#: The classical display |123||145||246||356| - |124||135||236||456| carries
#: the opposite overall sign from the determinant of the monomial matrix in
#: the row order fixed by `lift_matrix`; both cut out the same hypersurface.
BRACKET_TO_DET_SIGN = -1

#: `w2n_membership` scans at most this many six-point subsets;
#: C(21, 6) = 54,264 is the largest admitted scan, about 0.4 s over Q and
#: 0.2 s over F_65521 in-process on a 2-core host with Python 3.11.
SUBSET_SCAN_BUDGET = 60_000


def lift_matrix(p: PointConfiguration) -> Matrix:
    """6 x n matrix whose columns are the quadratic lifts of the points:
    rows (x^2, y^2, z^2, xy, xz, yz) for the point rows (x, y, z).

    The monomials are products of the core int columns of the coordinates
    (`Matrix.int_columns`), one C-level pass per monomial row, reduced mod p
    over F_p, and the lift keeps them as its int columns
    (`Matrix._from_int_columns`). A Q column cleared by a factor m lifts to
    its products divided by m^2, so its clearing factor is m^2; over F_p and
    for an integer Q document every factor is 1.
    """
    if p.d != 2:
        raise ShapeError(f"lift is defined for plane configurations, got d={p.d}")
    x, y, z = zip(*p.coords.int_columns)
    rows = [map(mul, u, v) for u, v in ((x, x), (y, y), (z, z), (x, y), (x, z), (y, z))]
    prime = p.field.p
    if prime:
        rows = [map(prime.__rmod__, r) for r in rows]
    return Matrix._from_int_columns(p.field, zip(*rows), [m * m for m in p.coords._factors])


def phi_det(p: PointConfiguration) -> Scalar:
    """The 6 x 6 lifted determinant; zero iff the six points lie on a conic."""
    if p.d != 2 or p.n != 6:
        raise ShapeError(f"phi_det needs exactly 6 points of P^2, got d={p.d}, n={p.n}")
    return det(lift_matrix(p))


def phi_bracket(p: PointConfiguration) -> Scalar:
    """Bracket-form evaluation of the conic condition; equals `phi_det` exactly.

    Evaluates the displayed polynomial |123||145||246||356| - |124||135||236||456|
    on the coordinate brackets and applies BRACKET_TO_DET_SIGN.
    """
    if p.d != 2 or p.n != 6:
        raise ShapeError(f"phi_bracket needs exactly 6 points of P^2, got d={p.d}, n={p.n}")
    val = eval_bracket_poly(phi_as_bracket_poly(), p)
    return p.field.mul(p.field.normalize(BRACKET_TO_DET_SIGN), val)


@dataclass(frozen=True)
class ConicEquationReport:
    """Which six-point subsets violate the conic equations.

    `all_vanish` is True exactly when `nonvanishing` is empty; `values` is
    populated (per checked subset) only when requested.
    """

    n: int
    checked: int
    all_vanish: bool
    nonvanishing: tuple[IndexSet, ...]
    values: Optional[dict[IndexSet, Scalar]]


def _check_plane(p: PointConfiguration) -> None:
    if p.d != 2:
        raise ShapeError(f"conic membership needs d=2, got d={p.d}")


def _report(
    p: PointConfiguration, subsets: list[IndexSet], values: Sequence[Scalar], collect_values: bool
) -> ConicEquationReport:
    bad = tuple(I for I, val in zip(subsets, values) if val != 0)
    return ConicEquationReport(
        n=p.n,
        checked=len(subsets),
        all_vanish=not bad,
        nonvanishing=bad,
        values=dict(zip(subsets, values)) if collect_values else None,
    )


def w2n_membership(p: PointConfiguration, collect_values: bool = False) -> ConicEquationReport:
    """Evaluate the conic condition on every six-point subset (lex order).

    With fewer than six points there is nothing to check and the report is
    trivially all-vanishing. Every subset's value is a 6 x 6 minor of the
    lift (`lift_matrix`, products of the core int coordinates), so all of
    them vanish exactly when its rank is at most 5: then the report follows
    from that one rank, by forward elimination only (`int_rank`), unless the
    values are asked for. Otherwise every value is read from the echelon
    form of the lift's int columns (`Matrix.maximal_minors`), whose column
    sets run in the lex order of the subsets. A scan of more than
    SUBSET_SCAN_BUDGET subsets raises BudgetExceededError before its first
    minor.
    """
    _check_plane(p)
    count = comb(p.n, 6)
    if not count:
        return _report(p, [], [], collect_values)
    lifted = lift_matrix(p)
    # its int columns are its columns times nonzero factors, of the same rank
    if not collect_values and int_rank(list(zip(*lifted.int_columns)), p.field.p) <= 5:
        return ConicEquationReport(n=p.n, checked=count, all_vanish=True, nonvanishing=(), values=None)
    check_budget(count, SUBSET_SCAN_BUDGET, f"n = {p.n} has {count} six-point subsets to scan")
    return _report(p, list(combinations(range(1, p.n + 1), 6)), lifted.maximal_minors(), collect_values)


def v2n_subset_membership(
    p: PointConfiguration, subsets: Iterable[Iterable[int]], collect_values: bool = False
) -> ConicEquationReport:
    """Evaluate the conic condition only on the given six-point subsets."""
    sets = [as_index_set(I, ground=p.n, size=6) for I in subsets]
    _check_plane(p)
    lifted = lift_matrix(p)
    return _report(p, sets, [lifted.maximal_minor(I) for I in sets], collect_values)
