"""Bracket polynomials and the higher-dimensional membership equations.

A bracket polynomial is an integer combination of products of brackets
|i_1 ... i_w| — maximal minors of a point configuration's coordinate matrix,
indexed by 1-based column sets of a ground set [m]. The six-point conic
equation is one such polynomial (four brackets of width 3 per term); its
higher-dimensional relatives are produced from it by relabeling into a
(d+4)-point ground set and *dualizing*: each bracket is traded for its
complementary bracket with the sign (-1)^(S_J + (m - w)), the sign law
relating the maximal minors of a configuration to those of its Gale
transform. Pulled back along every (d+4)-point subset, the dualized
polynomials cut out the closure of the configurations lying on a degree-d
rational normal curve (together with the non-spanning locus).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb, prod
from operator import itemgetter, mul
from typing import Iterable, Mapping, Optional, Sequence, Union

from .configurations import PointConfiguration
from .errors import ShapeError, check_budget
from .fields import Scalar
from .linalg import IndexSet, Matrix, _scalar, as_index_set, complement, int_rref, s_index


def _sort_with_sign(factor: Sequence[int]) -> tuple[int, IndexSet]:
    """Sort bracket indices, tracking the permutation sign; 0 on repeats."""
    idx = [int(i) for i in factor]
    sign = 1
    # insertion sort; brackets have at most ~8 entries
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return 0, tuple(idx)
    return sign, tuple(idx)


@dataclass(frozen=True)
class BracketPolynomial:
    """Canonical-form bracket polynomial on ground set [ground], width-w brackets.

    Construction normalizes every term: factor indices sorted (brackets are
    alternating, so sorting multiplies by the permutation sign and a repeated
    index kills the factor), factors sorted within a term, like terms merged,
    zero terms dropped, terms in lexicographic factor order.
    """

    ground: int
    width: int
    terms: tuple[tuple[int, tuple[IndexSet, ...]], ...]

    def __init__(self, ground: int, width: int, terms: Iterable[tuple[int, Iterable]]):
        if ground < 1 or not 1 <= width <= ground:
            raise ShapeError(f"bad bracket shape: ground={ground}, width={width}")
        merged: dict[tuple[IndexSet, ...], int] = {}
        for coef, factors in terms:
            coef = int(coef)
            fs = []
            for factor in factors:
                sign, f = _sort_with_sign(factor)
                if len(f) != width:
                    raise ShapeError(f"factor {f} has width {len(f)}, expected {width}")
                if f[0] < 1 or f[-1] > ground:
                    raise ShapeError(f"factor {f} outside ground set [{ground}]")
                coef *= sign
                fs.append(f)
            if coef == 0:
                continue
            key = tuple(sorted(fs))
            merged[key] = merged.get(key, 0) + coef
        canon = tuple(
            (c, fs) for fs, c in sorted(merged.items(), key=lambda kv: kv[0]) if c != 0
        )
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "terms", canon)

    def __repr__(self):
        return f"BracketPolynomial(ground={self.ground}, width={self.width}, {format_bracket_poly(self)!r})"


def bracket_template(P: BracketPolynomial, slots: Optional[Mapping[IndexSet, int]] = None) -> str:
    """The text form of P as a `str.format` template; the one renderer of its
    signs, coefficients and bars.

    Each index i is the field {i-1}: `bracket_template(P).format(*J)` is the
    text of P pulled back along a strictly increasing window J (index i reads
    J[i-1]). Such a map keeps every bracket sorted and the order of factors
    and terms, so P's canonical form maps to the canonical form of the
    pullback. A bracket F in `slots` is instead the one field {slots[F]},
    filled with the space-joined labels of F's pullback: templates that share
    `slots` then share the text of each such bracket, built once per window.
    """
    if not P.terms:
        return "0"
    slots = slots or {}
    inner = lambda f: f"{{{slots[f]}}}" if f in slots else " ".join(f"{{{i - 1}}}" for i in f)
    parts = []
    for coef, factors in P.terms:
        sign = "+" if coef > 0 else "-"
        mag = abs(coef)
        body = "".join("|" + inner(f) + "|" for f in factors)
        parts.append(f"{sign} {mag} {body}" if mag != 1 else f"{sign} {body}")
    return " ".join(parts)


def format_bracket_poly(P: BracketPolynomial) -> str:
    """Render in the sign/coefficient/bracket text form, e.g. "+ |1 2 3||4 5 6| - ..."."""
    return bracket_template(P).format(*range(1, P.ground + 1))


# ---------------------------------------------------------------------------
# the six-point conic polynomial and its relatives
# ---------------------------------------------------------------------------


def phi_as_bracket_poly() -> BracketPolynomial:
    """The six-point conic equation in bracket form (ground [6], width 3):

        |123||145||246||356| - |124||135||236||456|

    This is the classically displayed normalization; the determinantal
    evaluator `conic.phi_det` equals -1 times it (see conic.BRACKET_TO_DET_SIGN).
    """
    return BracketPolynomial(
        6,
        3,
        [
            (1, [(1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6)]),
            (-1, [(1, 2, 4), (1, 3, 5), (2, 3, 6), (4, 5, 6)]),
        ],
    )


def dualize(P: BracketPolynomial) -> BracketPolynomial:
    """Trade every bracket for its complement: m_J -> (-1)^(S_J + m - w) m_{J^c}.

    This is the sign law relating maximal minors of a configuration to those
    of its Gale transform, so the dual polynomial evaluates on a Gale
    transform exactly as the original does on the source (up to one global
    scalar). Applying it twice returns the input up to the documented global
    sign (-1)^(k (w (m-w) + m)) for k-factor terms.
    """
    m, w = P.ground, P.width
    fixed = m - w
    out = []
    for coef, factors in P.terms:
        sign = 1
        new_factors = []
        for f in factors:
            if (s_index(f) + fixed) % 2:
                sign = -sign
            new_factors.append(complement(f, m))
        out.append((coef * sign, new_factors))
    return BracketPolynomial(m, m - w, out)


@lru_cache(maxsize=None)
def psi_pattern(d: int, I: IndexSet) -> BracketPolynomial:
    """The width-(d+1) polynomial on [d+4] obtained from the conic equation
    by relabeling onto the six-element pattern I and dualizing."""
    if d < 2:
        raise ShapeError(f"patterns need d >= 2, got {d}")
    I = as_index_set(I, ground=d + 4, size=6)
    phi = phi_as_bracket_poly()
    pulled = [(c, [[I[i - 1] for i in f] for f in fs]) for c, fs in phi.terms]
    return dualize(BracketPolynomial(d + 4, 3, pulled))


@lru_cache(maxsize=None)
def psi_generators(d: int) -> tuple[tuple[IndexSet, BracketPolynomial], ...]:
    """All generators on d+4 points: one per six-element pattern, lex order."""
    return tuple(
        (I, psi_pattern(d, I)) for I in combinations(range(1, d + 5), 6)
    )


def eval_bracket_poly(
    P: BracketPolynomial,
    source: Union[PointConfiguration, Matrix],
    J: Optional[Iterable[int]] = None,
) -> Scalar:
    """Evaluate with brackets as maximal minors of the source's coordinate matrix.

    With a window J (strictly increasing, P.ground indices) bracket index i
    reads column J[i-1]: the value is that of P pulled back along J.
    """
    M = source.coords if isinstance(source, PointConfiguration) else source
    if M.rows != P.width:
        raise ShapeError(f"bracket width {P.width} != matrix height {M.rows}")
    if J is not None:
        J = as_index_set(J, ground=M.cols, size=P.ground)
    elif M.cols < P.ground:
        raise ShapeError(f"ground set [{P.ground}] exceeds {M.cols} columns")
    f = M.field
    total = f.zero
    for coef, factors in P.terms:
        term = f.normalize(coef)
        for F in factors:
            if term == 0:
                break
            term = f.mul(term, M.maximal_minor(F if J is None else [J[i - 1] for i in F]))
        total = f.add(total, term)
    return total


@lru_cache(maxsize=None)
def _degrees(P: BracketPolynomial) -> tuple[int, ...]:
    """How often each index 1..P.ground occurs in a term of P. Every term
    must give the same counts (P is multihomogeneous, as every generator is);
    otherwise this raises ShapeError."""
    counts = {
        tuple(sum(i in F for F in factors) for i in range(1, P.ground + 1)) for _, factors in P.terms
    }
    if len(counts) > 1:
        raise ShapeError(f"{format_bracket_poly(P)} is not multihomogeneous")
    return counts.pop() if counts else (0,) * P.ground


def _eval_on_echelon(
    P: BracketPolynomial, M: Matrix, window: Sequence[int], minors: dict[IndexSet, int]
) -> Scalar:
    """`eval_bracket_poly(P, M, J)` for the 0-based window J - 1, on core ints.

    Each bracket F is `M._echelon_minor` of the window columns it names,
    kept in `minors` (keyed by F, so one dict serves one window). The sum of
    coef * prod m_F is mapped back once by `_scalar`: over Q every term
    carries the clearing factor of each window column to the power of that
    column's degree in P (`_degrees`), so the sum is divided by that product.
    """
    total = 0
    echelon_minor = M._echelon_minor
    for coef, factors in P.terms:
        term = coef
        for F in factors:
            m = minors.get(F)
            if m is None:
                m = minors[F] = echelon_minor([window[i - 1] for i in F])
            term *= m
            if not term:
                break
        total += term
    scale = prod([M._factors[c] ** e for c, e in zip(window, _degrees(P))])
    return _scalar(M.field, total, scale)


# ---------------------------------------------------------------------------
# membership reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HigherEquationReport:
    """Outcome of evaluating the full generator family on one configuration.

    `witness` is (I, J, value): the pattern I (inside [d+4]), the 1-based
    point subset J of size d+4, and the nonzero value of the corresponding
    pullback — present exactly when `all_vanish` is False. `classification`
    is "NotInW" (a generator separates the configuration), "InY" (all vanish
    and the points do not span), or "InW" (all vanish, points span). `in_v`
    is True / False when membership in the curve-closure is decided,
    otherwise a short string saying why it is open.
    """

    d: int
    n: int
    degenerate: bool
    all_vanish: bool
    checked: int
    witness: Optional[tuple[IndexSet, IndexSet, Scalar]]
    classification: str
    in_v: Union[bool, str]
    note: str


#: (d, n) pairs where the non-spanning locus lies inside the curve-closure
#: (decided by the dimension comparison below).
Y_INSIDE_V_PAIRS = ((3, 7), (3, 8), (4, 8))


def y_in_v_dimension_test(d: int, n: int) -> tuple[int, int, bool]:
    """(dim of non-spanning locus, dim of curve-closure, strict inequality).

    The non-spanning locus is irreducible of dimension nd - n + d; the
    curve-closure has dimension d^2 + 2d + n - 3 (for n >= d + 3). The locus
    can only lie inside the closure when its dimension is strictly smaller,
    and in the proven range that necessary condition is also sufficient.
    """
    if d < 3 or n < d + 4:
        raise ShapeError(f"test applies for d >= 3, n >= d + 4; got ({d}, {n})")
    dim_y = n * d - n + d
    dim_v = d * d + 2 * d + n - 3
    return dim_y, dim_v, dim_y < dim_v


def _unknown_threshold(d: int) -> int:
    """Smallest n >= d + 4 whose non-spanning locus escapes the curve-closure."""
    n = d + 4
    while y_in_v_dimension_test(d, n)[2]:
        n += 1
    return n


def _in_v_annotation(d: int, n: int, degenerate: bool, all_vanish: bool) -> tuple[Union[bool, str], str]:
    if not all_vanish:
        return False, "a nonvanishing generator excludes the configuration"
    if n <= d + 3:
        return True, "with n <= d + 3 every configuration is a curve limit"
    if degenerate:
        if (d, n) in Y_INSIDE_V_PAIRS:
            return True, "non-spanning locus lies inside the curve-closure for this (d, n)"
        return (
            f"unknown (n>={_unknown_threshold(d)})",
            "equations vanish on the whole non-spanning locus, which is not "
            "inside the curve-closure in this range",
        )
    if d == 3 or n == d + 4:
        return True, "equations cut out the curve-closure plus the non-spanning locus"
    return (
        "conjectural",
        "decomposition of the equations' zero locus is conjectural in this range",
    )


def _echelon_window_vanishes(
    a: Sequence[Sequence[int]], pivot_row: Sequence[int], window: Sequence[int], p: Optional[int]
) -> bool:
    """True when every generator vanishes on the 0-based column set `window`.

    `a` is the reduced echelon form of the whole coordinate matrix
    (`Matrix._echelon()`: pivot entries D over Q, 1 over F_p; p is None
    over Q) and `pivot_row[c]` the row of pivot column c, -1 for a free column.
    If the window has rank < d+1 every width-(d+1) bracket is 0. Otherwise let
    B (3 x (d+4)) be a basis of the window's right kernel, a Gale transform of
    the window: by the sign law each generator equals +-lambda^4 times the
    conic polynomial on B restricted to its pattern, and that is -det of the
    6 x 6 minor of the quadratic lifts of B's columns. So all generators
    vanish exactly when one conic passes through the d+4 Gale points, for any
    kernel basis and any scaling of the points.

    Let S be the rows whose pivot lies in the window and F the other window
    columns. The other rows are zero on the window's pivots, so the window
    has rank |S| + rank T, T = a[rows not in S][F]. With t the echelon form
    of T (last pivot D_T), T's three free columns f_k are the coordinate
    points, T's i-th pivot column c_i is (t[i][f_k])_k and the pivot column
    of a row r in S is (a[r][f_k] D_T - sum_i a[r][c_i] t[i][f_k])_k, up to
    sign and 1/D. If S holds every row, T is empty and F the three free
    columns. A conic through the coordinate points has no square terms, so
    the test is whether the (d+1) x 3 rows (xy, xz, yz) of the other points
    have rank <= 2: with u the first nonzero row and v the first with
    u x v != 0, whether each later row w has w . (u x v) = 0. Over F_p the
    products, the cross product and the dot products are reduced mod p
    before their zero tests.
    """
    S = [pivot_row[c] for c in window if pivot_row[c] >= 0]
    # F holds at least three columns, so F(row) is a tuple
    F = itemgetter(*[c for c in window if pivot_row[c] < 0])
    points = [F(a[r]) for r in S]
    if len(S) < len(a):
        inside = set(S)
        t, tp, _ = int_rref([F(row) for r, row in enumerate(a) if r not in inside], p)
        if len(tp) < len(t):
            return True
        D = t[-1][tp[-1]]
        f0, f1, f2 = [f for f in range(len(t[0])) if f not in tp]
        l0, l1, l2 = lead = [[row[f] for row in t] for f in (f0, f1, f2)]
        points = [
            (x[f0] * D - sum(map(mul, xs, l0)), x[f1] * D - sum(map(mul, xs, l1)), x[f2] * D - sum(map(mul, xs, l2)))
            for x, xs in zip(points, [list(map(x.__getitem__, tp)) for x in points])
        ] + list(zip(*lead))
    if p:
        rows = iter([(x * y % p, x * z % p, y * z % p) for x, y, z in points])
    else:
        rows = iter([(x * y, x * z, y * z) for x, y, z in points])
    for u0, u1, u2 in rows:
        if u0 or u1 or u2:
            break
    else:
        return True
    for w0, w1, w2 in rows:
        c0, c1, c2 = u1 * w2 - u2 * w1, u2 * w0 - u0 * w2, u0 * w1 - u1 * w0
        if p:
            c0, c1, c2 = c0 % p, c1 % p, c2 % p
        if c0 or c1 or c2:
            dots = [x * c0 + y * c1 + z * c2 for x, y, z in rows]
            return not any(map(p.__rmod__, dots) if p else dots)
    return True


#: `eval` at d >= 3 falls back to the full window scan only when the head
#: windows vanish but points 1..d+3 are not in general position; a fallback
#: with more than this many windows left exits 3 before it starts. The
#: largest admitted scans of seed-1 chain samples (degrees (2, 1), (3, 2),
#: (3, 3), (4, 4)) take 0.5 s at (3, 17), 0.6 s at (5, 16), 1.2 s at (6, 17)
#: and 2.4 s at (8, 18) over Q, in-process on a 2-core host with Python
#: 3.11; the split (5, 3) at (8, 18) takes 3.6 s.
WINDOW_SCAN_BUDGET = 20_000


def _head_points_in_general_position(M: Matrix, prime: Optional[int]) -> bool:
    """True when points 1..d+3 are in general position: every d+1 of them
    are independent.

    The test reads the cached echelon form of the whole matrix. Its pivots
    must be the first d+1 columns; then the rows are D [I | N], and the
    maximal minor of d+1 of the points is nonzero exactly when the square
    minor of N it corresponds to is (rows: the pivots it leaves out;
    columns: the free points it takes). So the test is that every entry and
    every 2 x 2 minor of N's columns d+2 and d+3 is nonzero, mod p over F_p.

    Then, when every head window W = {1..d+3, q} vanishes, each point q lies
    on the one rational normal curve C through points 1..d+3 (Castelnuovo),
    so every window vanishes. Work over the algebraic closure. W vanishes when
    its d+4 Gale points lie on one conic (`_echelon_window_vanishes`), and a
    set T of Gale points is independent exactly when W minus T spans P^d.
    - W minus one or two points still holds d+1 of the points 1..d+3, so it
      spans: no Gale point is 0 and no two are parallel.
    - A 3-set of Gale points that holds q is independent, since its
      complement is d+1 of the points 1..d+3.
    - If the conic is smooth, no three of its distinct points are collinear,
      so W is in general position and lies on a rational normal curve
      (Goppa; Eisenbud-Popescu, J. Algebra 230, 2000). That curve passes
      through points 1..d+3, so it is C, and q lies on C.
    - A double line puts q in a collinear 3-set, so it cannot occur.
    - For a line pair L1 and L2 with q on L1, L1 holds at most one other
      point a, since a third one would make a collinear 3-set with q. Nor is
      q on L2, since then each line would hold at most one of the d+3 other
      points. If L1 holds no other point, all of points 1..d+3 lie on L2, so
      W minus any 3 of them does not span: q lies in the span of every d of
      those points, and these hyperplanes meet only in 0. So L1 holds a, and
      the other d+2 of points 1..d+3 lie on L2. W minus any 3 of those does
      not span, so q lies in the hyperplane span(a, R) for every d-1 of them
      R. These hyperplanes meet in span(a), so q is point a, which is on C.
    So every point lies on C, repeats included, and the configuration is in
    the closure of the configurations on C, where every generator vanishes.
    """
    a, pivots = M._echelon()
    k = M.rows
    if pivots != list(range(k)):
        return False
    nonzero = (lambda x: x % prime != 0) if prime else bool
    u = [r[k] for r in a]
    v = [r[k + 1] for r in a]
    uv = [u[i] * v[j] - u[j] * v[i] for i, j in combinations(range(k), 2)]
    return all(map(nonzero, u + v + uv))


def wdn_membership(p: PointConfiguration) -> HigherEquationReport:
    """Decide whether every pullback of every generator pattern vanishes on p (d >= 3).

    Pullbacks are ordered lexicographically by (J, I) — J the point subset of
    size d + 4, I the six-element pattern — and the first nonzero value
    becomes the witness; `checked` counts the pullbacks up to and including
    it. Each window J is decided from the cached echelon form of the whole
    matrix (`_echelon_window_vanishes`): one small elimination of the rows
    whose pivots lie outside J, or none, and a cross-product test of the
    conic through J's Gale points. Generators are evaluated only on the
    first window that fails it.

    The first n - d - 3 windows are the head windows {1..d+3, q}. When they
    all vanish and points 1..d+3 are in general position, every point lies
    on the one rational normal curve through points 1..d+3, so every window
    vanishes and the scan stops there (`_head_points_in_general_position`
    gives the proof). Otherwise the scan goes on, if at most
    `WINDOW_SCAN_BUDGET` windows remain.
    """
    d, n = p.d, p.n
    if d < 3:
        raise ShapeError(f"use the conic module for d = {d}")
    witness = None
    checked = 0
    # n <= d points cannot span P^d: the rank of their tall matrix is below d + 1
    degenerate = p.coords.echelon_rank() < d + 1
    if n >= d + 4:
        gens = psi_generators(d)
        prime = p.field.p
        a, pivots = p.coords._echelon()
        pivot_row = [pivots.index(c) if c in pivots else -1 for c in range(n)]
        windows = comb(n, d + 4)
        # points that do not span leave every window rank-deficient, so
        # every pullback vanishes and no window needs a test
        for j, J0 in enumerate(() if degenerate else combinations(range(n), d + 4)):
            if _echelon_window_vanishes(a, pivot_row, J0, prime):
                if j == n - d - 4:
                    if _head_points_in_general_position(p.coords, prime):
                        break
                    rest = windows - j - 1
                    check_budget(rest, WINDOW_SCAN_BUDGET, f"(d, n) = ({d}, {n}) leaves {rest} windows to scan")
                continue
            minors: dict[IndexSet, int] = {}
            for i, (I, poly) in enumerate(gens):
                val = _eval_on_echelon(poly, p.coords, J0, minors)
                if val != 0:
                    witness = (I, tuple(i + 1 for i in J0), val)
                    checked = j * len(gens) + i + 1
                    break
            if witness is not None:
                break
        if witness is None:
            checked = windows * len(gens)
    all_vanish = witness is None
    in_v, note = _in_v_annotation(d, n, degenerate, all_vanish)
    if not all_vanish:
        classification = "NotInW"
    elif degenerate:
        classification = "InY"
    else:
        classification = "InW"
    return HigherEquationReport(
        d=d,
        n=n,
        degenerate=degenerate,
        all_vanish=all_vanish,
        checked=checked,
        witness=witness,
        classification=classification,
        in_v=in_v,
        note=note if n >= d + 4 else "no generators below d + 4 points; " + note,
    )
