"""Six points on a conic: determinantal and bracket forms, membership reports.

Six points of P^2 lie on a conic exactly when the 6 x 6 determinant of their
quadratic monomial lifts vanishes. For n > 6 points, pulling the determinant
back along every six-point subset cuts out the closure of the configurations
on conics (including every degenerate conic).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, Optional, Sequence

from .brackets import eval_bracket_poly, phi_as_bracket_poly
from .configurations import PointConfiguration
from .errors import ShapeError, check_budget
from .fields import Field, Scalar
from .linalg import IndexSet, Matrix, as_index_set, det

#: phi_det == BRACKET_TO_DET_SIGN * (the displayed bracket polynomial).
#: The classical display |123||145||246||356| - |124||135||236||456| carries
#: the opposite overall sign from the determinant of the monomial matrix in
#: the row order fixed by `veronese_lift`; both cut out the same hypersurface.
BRACKET_TO_DET_SIGN = -1

#: `w2n_membership` scans at most this many six-point subsets;
#: C(21, 6) = 54,264 is the largest admitted scan, about 0.3 s.
SUBSET_SCAN_BUDGET = 60_000


def veronese_lift(field: Field, point: Iterable) -> tuple[Scalar, ...]:
    """Quadratic monomials (z0^2, z1^2, z2^2, z0 z1, z0 z2, z1 z2) of a P^2 point."""
    z = [field.normalize(x) for x in point]
    if len(z) != 3:
        raise ShapeError(f"expected 3 coordinates, got {len(z)}")
    m = field.mul
    return (m(z[0], z[0]), m(z[1], z[1]), m(z[2], z[2]), m(z[0], z[1]), m(z[0], z[2]), m(z[1], z[2]))


def lift_matrix(p: PointConfiguration) -> Matrix:
    """6 x n matrix whose columns are the quadratic lifts of the points."""
    if p.d != 2:
        raise ShapeError(f"lift is defined for plane configurations, got d={p.d}")
    return Matrix.from_columns(p.field, [veronese_lift(p.field, c) for c in p.points()])


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
    lift matrix, so all of them vanish exactly when its rank is at most 5:
    then the report follows from that one rank, unless the values are asked
    for. Otherwise every value is read from the same echelon form
    (`MaximalMinors.vector`), whose column sets run in the lex order of the
    subsets. A scan of more than SUBSET_SCAN_BUDGET subsets raises
    BudgetExceededError before its first minor.
    """
    _check_plane(p)
    count = comb(p.n, 6)
    if not count:
        return _report(p, [], [], collect_values)
    lifted = lift_matrix(p).minors()
    if not collect_values and lifted.rank() <= 5:
        return ConicEquationReport(n=p.n, checked=count, all_vanish=True, nonvanishing=(), values=None)
    check_budget(count, SUBSET_SCAN_BUDGET, f"n = {p.n} has {count} six-point subsets to scan")
    return _report(p, list(combinations(range(1, p.n + 1), 6)), lifted.vector(), collect_values)


def v2n_subset_membership(
    p: PointConfiguration, subsets: Iterable[Iterable[int]], collect_values: bool = False
) -> ConicEquationReport:
    """Evaluate the conic condition only on the given six-point subsets."""
    sets = [as_index_set(I, ground=p.n, size=6) for I in subsets]
    _check_plane(p)
    # fewer than six points admit no subset, and their lift is not wide
    lifted = lift_matrix(p).minors() if sets else None
    return _report(p, sets, [lifted.get(I) for I in sets], collect_values)
