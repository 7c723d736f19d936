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

`psi_generators` writes the dualized polynomials down in closed form, each
bracket the complement of one of the conic equation's triples, and builds
them without re-canonicalizing: its docstring proves that the closed form is
canonical. The general relabel-and-dualize construction is kept in the test
suite as the reference it is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, repeat
from math import comb, prod
from operator import itemgetter, lt
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence, Union

from .errors import IndexSetError, ShapeError, check_budget

if TYPE_CHECKING:
    # only annotations name them: `eqs` and the generator tables load no
    # sampler, field or matrix code
    from .configurations import PointConfiguration
    from .fields import Scalar
    from .linalg import IndexSet, Matrix


def _sort_with_sign(factor: Sequence[int]) -> tuple[int, IndexSet]:
    """Sort bracket indices, tracking the permutation sign; 0 on repeats.
    An index that is not an int (a bool, a float) is an IndexSetError."""
    t = tuple(factor)
    for i in t:
        if type(i) is not int:
            raise IndexSetError(f"bracket index {i!r} in {t!r} is not an int")
    if all(map(lt, t, t[1:])):
        return 1, t
    idx = list(t)
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
    zero terms dropped, terms in lexicographic factor order. Coefficients
    and indices must be ints (not bools): anything else is refused, never
    truncated.
    """

    ground: int
    width: int
    terms: tuple[tuple[int, tuple[IndexSet, ...]], ...]

    def __init__(self, ground: int, width: int, terms: Iterable[tuple[int, Iterable]]):
        if ground < 1 or not 1 <= width <= ground:
            raise ShapeError(f"bad bracket shape: ground={ground}, width={width}")
        merged: dict[tuple[IndexSet, ...], int] = {}
        for coef, factors in terms:
            if type(coef) is not int:
                raise TypeError(f"bracket coefficient {coef!r} is not an int")
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

    @classmethod
    def _canonical(cls, ground: int, width: int, terms: tuple) -> BracketPolynomial:
        """The polynomial whose `terms` are already in canonical form, kept as
        given: nothing is checked, sorted or merged."""
        P = object.__new__(cls)
        object.__setattr__(P, "ground", ground)
        object.__setattr__(P, "width", width)
        object.__setattr__(P, "terms", terms)
        return P

    def __repr__(self):
        return f"BracketPolynomial(ground={self.ground}, width={self.width}, {format_bracket_poly(self)!r})"


def bracket_template(P: BracketPolynomial) -> list[Union[str, IndexSet]]:
    """The text form of P as pieces; the one renderer of its signs,
    coefficients and bars.

    The pieces alternate between literal text and P's brackets, starting and
    ending with text: a bracket F stands for its labels joined by spaces.
    Writing F's indices gives P's text; writing the labels J[i-1] of a
    strictly increasing window J gives the text of P pulled back along J.
    Such a map keeps every bracket sorted and the order of factors and
    terms, so P's canonical form maps to the canonical form of the pullback.
    """
    if not P.terms:
        return ["0"]
    pieces: list[Union[str, IndexSet]] = [""]
    for k, (coef, factors) in enumerate(P.terms):
        mag = abs(coef)
        pieces[-1] += (" " if k else "") + ("+ " if coef > 0 else "- ") + (f"{mag} " if mag != 1 else "")
        for F in factors:
            pieces[-1] += "|"
            pieces += [F, "|"]
    return pieces


def format_bracket_poly(P: BracketPolynomial) -> str:
    """Render in the sign/coefficient/bracket text form, e.g. "+ |1 2 3||4 5 6| - ..."."""
    return "".join(p if type(p) is str else " ".join(map(str, p)) for p in bracket_template(P))


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


@lru_cache(maxsize=None)
def psi_generators(d: int) -> tuple[tuple[IndexSet, BracketPolynomial], ...]:
    """All generators on d+4 points: one per six-element pattern I, lex order.

    The generator of I is the conic equation pulled back along I (index j
    goes to I_j) and dualized on [d+4]: each bracket |F| traded for
    (-1)^(S_F + m - w) |F^c|, F^c the complement in [m], m = d + 4, w = 3.
    In closed form, with T^c the complement of the labels I_a I_b I_c,

        psi_I = - |(I4 I5 I6)^c||(I2 I3 I6)^c||(I1 I3 I5)^c||(I1 I2 I4)^c|
                + |(I3 I5 I6)^c||(I2 I4 I6)^c||(I1 I4 I5)^c||(I1 I2 I3)^c|

    and this is already the canonical form, so it is built as given:
    - Signs: S_F = sum(F) - 6, and every label occurs in exactly two
      brackets of each term of the conic equation, so the exponents of a
      term sum to 2 sum(I) - 24 + 4 (m - 3), which is even: each term keeps
      its coefficient.
    - Brackets: a complement is sorted, has m - 3 = d + 1 elements, and the
      four complements of a term are distinct since their triples are.
    - Factor order: the pullback keeps the lex order of a term's triples,
      since I is increasing, and complements reverse the lex order of sets of
      one size (the least label in just one of two sets lies in the first of
      them exactly when it lies in the complement of the other). So each
      term lists the complements of the conic equation's triples reversed.
    - Term order: the two first factors are (I4 I5 I6)^c and (I3 I5 I6)^c,
      and I3 I5 I6 precedes I4 I5 I6, so the second term of the conic
      equation comes first. The terms are distinct, so nothing merges.
    Each triple's complement is computed once and shared by every pattern.
    """
    m = d + 4
    labels = range(1, m + 1)
    c = {T: tuple(i for i in labels if i not in T) for T in combinations(labels, 3)}
    gens = []
    for I in combinations(labels, 6):
        i1, i2, i3, i4, i5, i6 = I
        terms = (
            (-1, (c[i4, i5, i6], c[i2, i3, i6], c[i1, i3, i5], c[i1, i2, i4])),
            (1, (c[i3, i5, i6], c[i2, i4, i6], c[i1, i4, i5], c[i1, i2, i3])),
        )
        gens.append((I, BracketPolynomial._canonical(m, d + 1, terms)))
    return tuple(gens)


def eval_bracket_poly(
    P: BracketPolynomial,
    source: Union[PointConfiguration, Matrix],
    J: Optional[Iterable[int]] = None,
) -> Scalar:
    """Evaluate with brackets as maximal minors of the source's coordinate matrix.

    With a window J (strictly increasing, P.ground indices) bracket index i
    reads column J[i-1]: the value is that of P pulled back along J.
    """
    M = getattr(source, "coords", source)  # a configuration's matrix, or the matrix itself
    if M.rows != P.width:
        raise ShapeError(f"bracket width {P.width} != matrix height {M.rows}")
    if J is not None:
        from .linalg import as_index_set

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

    Each bracket F is `M._echelon_minor` of the window columns it names, a
    closed-form minor of the echelon rows when the window holds every pivot
    of M, kept in `minors` (keyed by F, so one dict serves one window). The
    sum of coef * prod m_F is mapped back once by `Field.from_core`: over Q every
    term carries the clearing factor of each window column to the power of
    that column's degree in P (`_degrees`), so the sum is divided by that
    product.
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
    return M.field.from_core(total, scale)


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


def _on_one_conic(points: Iterable[tuple[int, int, int]], p: Optional[int]) -> bool:
    """True when one conic passes through the coordinate points e_0, e_1,
    e_2 of P^2 and `points` (core ints, reduced mod p over F_p or not).

    A conic through the coordinate points has no square terms, so the test
    is whether the rows (xy, xz, yz) of `points` have rank <= 2
    (`_rank_at_most_two`). Scaling a point scales its row, so the answer
    ignores point scalings.
    """
    if p:
        return _rank_at_most_two([(x * y % p, x * z % p, y * z % p) for x, y, z in points], p)
    return _rank_at_most_two([(x * y, x * z, y * z) for x, y, z in points], p)


def _rank_at_most_two(rows: Iterable[tuple[int, int, int]], p: Optional[int]) -> bool:
    """True when the 3-entry `rows` (reduced mod p over F_p) have rank <= 2:
    with u the first nonzero row and v the first with u x v != 0, whether
    each later row w has w . (u x v) = 0. Over F_p the cross product and the
    dot products are reduced mod p before their zero tests."""
    rows = iter(rows)
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


#: For the four free columns of a last-level node: the products (xy, xz,
#: yz) of the three kept when column i is dropped, read from the row's six
#: pairwise products (x0x1, x0x2, x0x3, x1x2, x1x3, x2x3); and the three
#: entries off column i.
_DROP_PRODUCTS = (itemgetter(3, 4, 5), itemgetter(1, 2, 5), itemgetter(0, 2, 4), itemgetter(0, 1, 3))
_OFF = (itemgetter(1, 2, 3), itemgetter(0, 2, 3), itemgetter(0, 1, 3), itemgetter(0, 1, 2))


def _window_flags(M: Matrix, left: int, p: Optional[int]) -> Iterator[bool]:
    """One flag per window of M's columns, in lex order: True when every
    generator vanishes on it. M is the (d + 1) x n coordinate matrix, of
    full rank k = d + 1, a window is d + 4 of its n columns, and `left` =
    n - d - 4 columns are left out of each.

    The walk is a depth-first search over the left-out sets, kept on an
    explicit stack, so its depth costs no recursion. A node's frame holds
    `rows`, `basis` (basis[r] the pivot of row r), `free`, D, the number
    `left` of columns still to leave out and an iterator over the next
    column m to leave out, from top = n - left down to the column after the
    one its parent left out. `free` holds the free columns up to top, in
    increasing order, so at most d + 5 of them however large n is; every
    column above top is still active, and free unless it is in `basis`. The
    root is `Matrix._echelon()` of M: its rows, its pivots, D the last pivot
    (1 over F_p) and every column active. Throughout, `rows` span the row
    space of M restricted to the active columns, and row r is 0 on every
    basis column but basis[r]. A last-level node, with one column left to
    leave out, has d + 5 active columns, so exactly four free ones: it keeps
    each row only at those four, as a 4-tuple in the order of `free`.

    Why the window is decided from these rows: if the window has rank < k
    every width-k bracket is 0. Otherwise its Gale transform is the kernel
    of its rows: by the sign law each generator equals +-lambda^4 times the
    conic polynomial on the Gale points restricted to its pattern, and that
    is -det of the 6 x 6 minor of their quadratic lifts. So all generators
    vanish exactly when one conic passes through the d + 4 Gale points, for
    any kernel basis and any scaling of the points. With three free
    columns, the kernel vector of free column f is 1 at f, 0 at the other
    free columns and -x_f / x_b at the basis column b of each row x, so the
    Gale points of the free columns are the coordinate points and that of
    row x's basis column is (x_f0, x_f1, x_f2) up to scaling: the window
    vanishes when `_on_one_conic` holds for the rows read at the three free
    columns.

    Leaving out column m at a node with two or more columns left:
    - a free column drops out of `free`; the rows stay as they are. When m
      is top, the one window below leaves out every column from m on; if
      they are all free, its free columns are the first three of `free`;
    - a basis column of row g is exchanged for the first free column c with
      g_c != 0: every other row x becomes (x g_c - x_c g) / D over Q and
      x g_c - x_c g mod p over F_p (a row with x_c = 0 stays as it is over
      F_p, which only scales rows), g becomes the row of c, and g_c the new
      D. A last-level child gets only its four free columns of each row,
      by the same step;
    - if g is 0 on every free column, the restricted rows have rank < k, so
      every window below the node is rank-deficient and vanishes.

    One loop decides the leaves below a last-level node, the root at
    n = d + 5 included. Leaving out column m there:
    - a free column leaves the other three free: the products (xy, xz, yz)
      of each row at them are three of its six pairwise products, from one
      table per node, and the window vanishes when they have rank <= 2
      (`_rank_at_most_two`);
    - a basis column of row g, with g 0 on all four free columns, leaves
      rank < k: the window vanishes, whatever a conic test on the rows
      would say, so this is asked first;
    - otherwise g is exchanged for the first free column c with g_c != 0:
      each other row x with x_c != 0 becomes x g_c - x_c g at the three free
      columns off c, and g's three entries off c are the row of c. The
      exact rows are these divided by D, but scaling a row scales its Gale
      point, which moves no conic test, and a leaf has no children to
      reuse them: so there is no division by D, nor a reduction mod p
      before `_on_one_conic` reduces the products. Likewise a row with
      x_c = 0 stays as it is in both fields.

    Order: the windows are the complements of the left-out sets, and
    complements reverse the lex order of sets of one size. For sets J != J'
    let i be the least element in just one of them: J comes first exactly
    when i lies in J, that is when i lies in the complement of J' and not
    in that of J. The walk lists the left-out sets in reverse lex order,
    since the sets whose least element is m all come before those whose
    least element is below m, and within them the rest of the set follows
    by the same rule. So the flags come in the lex order of the windows.

    Exactness over Q: the echelon rows are D A_B^-1 A (A the int columns of
    M, A_B its basis columns in row order) with D = +-det A_B, so by
    Cramer's rule the entry of row r at column f is +-det A_B with column
    basis[r] replaced by column f: a maximal minor of the int columns. The
    exchange turns D A_B^-1 A into g_c A_B'^-1 A, B' = B with m replaced by
    c, and g_c = +-det A_B', so its entries are again maximal minors, and
    every division by D is exact: x_f g_c - x_c g_f = D [S c f] for the row
    x of basis column b, S = B minus b and m, is the three-term
    Grassmann-Pluecker relation among brackets [.] of maximal minors.
    """
    rows, pivots = M._echelon()
    n = M.cols
    basis = tuple(pivots)
    free = tuple(c for c in range(min(n - left + 1, n)) if c not in basis)
    if not left:
        yield _on_one_conic(map(itemgetter(*free), rows), p)
        return
    D = rows[-1][basis[-1]]
    if left == 1:
        rows = list(map(itemgetter(*free), rows))
    whole = itemgetter(*range(n))
    stack = [(rows, basis, free, D, left, iter(range(n - left, -1, -1)))]
    while stack:
        rows, basis, free, D, left, ms = stack[-1]
        if left == 1:
            # the last level: rows are 4-tuples at the four free columns
            stack.pop()
            table = None
            for m in ms:
                if m in free:
                    if table is None:
                        if p:
                            table = [
                                (a * b % p, a * c % p, a * e % p, b * c % p, b * e % p, c * e % p) for a, b, c, e in rows
                            ]
                        else:
                            table = [(a * b, a * c, a * e, b * c, b * e, c * e) for a, b, c, e in rows]
                    yield _rank_at_most_two(map(_DROP_PRODUCTS[free.index(m)], table), p)
                    continue
                g = rows[basis.index(m)]
                for j, gj in enumerate(g):
                    if gj:
                        break
                else:
                    yield True
                    continue
                off = _OFF[j]
                g0, g1, g2 = off(g)
                points = []
                for x in rows:
                    xj = x[j]
                    if x is g or not xj:
                        points.append(off(x))
                    else:
                        a, b, e = off(x)
                        points.append((a * gj - xj * g0, b * gj - xj * g1, e * gj - xj * g2))
                yield _on_one_conic(points, p)
            continue
        top = n - left
        for m in ms:
            if m in free:
                if m == top and max(basis) < m:
                    yield _on_one_conic(map(itemgetter(*free[:3]), rows), p)
                    continue
                i, g = free.index(m), None
                new_basis, gc = basis, D
            else:
                r = basis.index(m)
                g = rows[r]
                for c in chain(free, range(top + 1, n)):
                    if g[c]:
                        break
                else:
                    yield from repeat(True, comb(n - m - 1, left - 1))
                    continue
                i = free.index(c) if c <= top else len(free)
                new_basis = basis[:r] + (c,) + basis[r + 1 :]
                gc = g[c]
            kept = free[:i] + free[i + 1 :]
            if top + 1 not in new_basis:
                kept += (top + 1,)  # the child's top
            # a last-level child keeps each row only at its four free columns
            get = itemgetter(*kept) if left == 2 else whole
            if g is None:
                new = list(map(get, rows)) if left == 2 else rows
            else:
                gs = get(g)
                new = []
                for x in rows:
                    xc = x[c]
                    if x is g or p and not xc:
                        new.append(get(x))
                    elif p:
                        new.append([(v * gc - xc * w) % p for v, w in zip(get(x), gs)])
                    else:
                        new.append([(v * gc - xc * w) // D for v, w in zip(get(x), gs)])
            stack.append((new, new_basis, kept, gc, left - 1, iter(range(top + 1, m, -1))))
            break
        else:
            stack.pop()


#: `eval` at d >= 3 falls back to the full window scan only when the head
#: windows vanish but points 1..d+3 are not in general position; a fallback
#: with more than this many windows left exits 3 before it starts. The
#: largest admitted scans of seed-1 chain samples (degrees (2, 1), (3, 2),
#: (3, 3), (4, 4)) take 0.10 s at (3, 17), 0.09 s at (5, 16), 0.26 s at
#: (6, 17) and 0.34 s at (8, 18) over Q, and 0.10, 0.08, 0.19 and 0.20 s
#: over F_65521, in-process on a 2-core host with Python 3.11; the split
#: (5, 3) at (8, 18) takes 0.30 s over Q and 0.16 s over F_65521.
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
    its d+4 Gale points lie on one conic (`_window_flags`), and a
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
    it. The windows J are decided in lex order by one walk over the points
    left out of them (`_window_flags`), which starts from the cached echelon
    form of the whole matrix and leaves out one point per node: a drop or
    one basis exchange, shared by every window below the node, and at each
    leaf a cross-product test of the conic through J's Gale points.
    Generators are evaluated only on the first window that fails it.

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
        windows = comb(n, d + 4)
        # points that do not span leave every window rank-deficient, so
        # every pullback vanishes and no window needs a test
        flags = () if degenerate else _window_flags(p.coords, n - d - 4, prime)
        for j, (J0, vanishes) in enumerate(zip(combinations(range(n), d + 4), flags)):
            if vanishes:
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
