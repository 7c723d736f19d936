"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive (permutation sums, recursive cofactor
expansion, brute-force enumeration) so it shares no code path with the
implementations under test. The one exception is `wdn_scan_oracle`: it
evaluates every generator pullback with the package's bracket evaluator, which
is the definition the window rank test of `wdn_membership` must reproduce.
`relabel` builds each pullback as a new canonical polynomial; it is the
reference for the index-map pullbacks of `eqs` and `eval_bracket_poly`.
`dualize` and `psi_pattern` build one generator by relabeling the conic
equation onto a pattern and dualizing it, and `psi_generators_oracle` does
so for every pattern by `relabel` and the validating `dualize_oracle`; they
are the reference for the closed form of `brackets.psi_generators`.
`head_general_position_oracle` ranks every (d+1)-subset of points 1..d+3;
it is the reference for the echelon-form test of `wdn_membership`'s early exit.
`window_vanishes_oracle` eliminates each window's own coordinate block twice;
it is the reference for the window flags of the walk `brackets._window_flags`.
`count_walk_windows` is a test helper that counts the flags `wdn_membership`
reads from that walk.
`subconfig` restricts a configuration to a point subset, the reference for
every pullback along a window.
`strong_nondegeneracy_oracle` drops each point in turn and re-runs the rank
elimination; it is the reference for the one-elimination coloop test of
`configurations.strong_nondegeneracy_witness`.
`pairwise_duality_certificate` reads every minor pair through
`Matrix.maximal_minor`, one Bareiss determinant each, and compares field
scalars; it is the reference for `gale.duality_certificate`, which reads
lambda from one pair and certifies the rest by the theorem its docstring
proves.
`MemoMinors` stands in for a `Matrix` in `eval_bracket_poly` with a memo on
`maximal_minor`, for oracles that read the same bracket on many windows; the
package's `maximal_minor` keeps no memo, since none of its callers reads a
minor twice.
`rows_rref_oracle`, `rows_kernel_basis_oracle`, `rows_matmul_oracle` and
`rows_standard_gale_pair_oracle` build their results as rows of field
scalars: `rref` by clearing each row of `entries` and eliminating it, the
rest by field operations entry by entry. They are the reference for
`rref`, `kernel_basis`, `Matrix.matmul` and `gale.standard_gale_pair`, which
read the cached echelon form and the int columns.
`veronese_lift` lifts one point through `Field.normalize` and `Field.mul`;
it is the reference for `conic.lift_matrix`, which multiplies the core int
coordinates of all points a monomial row at a time.
`transpose` is a test helper: the package itself never transposes a `Matrix`.
`field_sub`, `field_div`, `matrix_is_zero` and `poly_is_zero` are test
helpers too: the package computes none of them. So is `ZeroAfterRng`, a
stub rng that drives a rejection loop to its budget.
`set_partitions` yields restricted growth strings one label at a time, and
`partition_edge_masks_oracle` tests every edge against every string; they are
the reference for the minima search of `transversal.failing_partition` and
the block-product walk behind `min_transversal`.
`greedy_cover_oracle` recounts every edge's hits on each pick; it is the
reference for the running hit counts of `min_transversal(n, k, "greedy")`.
`min_transversal_oracle` tries every edge subset in size order; it is the
reference for the branch and bound of `min_transversal(n, k, "exact")`.
`chart_jacobian` writes every row of the chart Jacobian in field scalars,
and `jacobian_rank_oracle` draws it as `dimension_estimate` does and takes
its rank by full Gauss-Jordan (`int_rref`); they are the reference for the
block rank of `dimension_estimate` (a banded left kernel of the Vandermonde
block, then the certified rank of the Schur complement).
`left_kernel_band_oracle` takes each band entry's Vandermonde product over
its own pairs; it is the reference for `_left_kernel_band`, which divides one
product per band.
`columns_entry_by_entry` reads every coordinate of a configuration
document through `Field.scalar_from_json`; it is the reference for the
one-pass decode of `serialize.config_from_json`. `edges_edge_by_edge`
checks every edge on its own, by type and then by `as_index_set`; it is the
reference for the one-pass checks of `transversal.Hypergraph` and the
errors of `cli._hypergraph_from_json`.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from math import prod

import veronese_kit.brackets as brackets
from veronese_kit.brackets import (
    BracketPolynomial,
    HigherEquationReport,
    _in_v_annotation,
    eval_bracket_poly,
    phi_as_bracket_poly,
    psi_generators,
)
from veronese_kit.configurations import (
    RETRY_BUDGET,
    PointConfiguration,
    _distinct_affine_params,
    is_degenerate,
    make_config,
)
from veronese_kit.errors import BudgetExceededError, NotAGalePairError, RankDeficiencyError, ShapeError
from veronese_kit.fields import Field, require_same_field
from veronese_kit.linalg import Matrix, _clear, as_index_set, complement, int_rref, rank, s_index


def veronese_lift(field, point):
    """Quadratic monomials (z0^2, z1^2, z2^2, z0 z1, z0 z2, z1 z2) of a P^2 point."""
    z = [field.normalize(x) for x in point]
    if len(z) != 3:
        raise ShapeError(f"expected 3 coordinates, got {len(z)}")
    m = field.mul
    return (m(z[0], z[0]), m(z[1], z[1]), m(z[2], z[2]), m(z[0], z[1]), m(z[0], z[2]), m(z[1], z[2]))


def transpose(M):
    """The transpose of a `Matrix`."""
    return Matrix(M.field, list(zip(*M.entries)))


def field_sub(f, x, y):
    """x - y in the field f."""
    return f.add(x, f.neg(y))


def field_div(f, x, y):
    """x / y in the field f; y must be nonzero."""
    return f.mul(x, f.inv(y))


def matrix_is_zero(M):
    """Every entry of the `Matrix` M is zero."""
    return all(x == 0 for row in M.entries for x in row)


def poly_is_zero(P):
    """The `BracketPolynomial` P has no term left."""
    return not P.terms


def perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def leibniz_det(rows):
    """Permutation-sum determinant over exact Python numbers."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        term = perm_sign(perm)
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def cofactor_det(rows):
    """Recursive first-row cofactor expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        sub = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(sub)
    return total


def naive_fraction_rank(rows):
    """Row reduction over Fraction with no pivots shared with the package code."""
    a = [[Fraction(x) for x in row] for row in rows]
    nr = len(a)
    nc = len(a[0])
    r = 0
    for c in range(nc):
        piv = None
        for i in range(r, nr):
            if a[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(nr):
            if i != r and a[i][c] != 0:
                f = a[i][c] / a[r][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def fraction_rref_oracle(rows):
    """Gauss-Jordan over Fraction: (reduced rows, 0-based pivot columns, rank)."""
    a = [[Fraction(x) for x in row] for row in rows]
    height, width = len(a), len(a[0])
    pivots = []
    r = 0
    for c in range(width):
        if r == height:
            break
        piv = next((i for i in range(r, height) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(height):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots, r


def rows_rref_oracle(M):
    """The reduced row echelon form of the rows of `M.entries`: each row
    cleared by its own denominators, fraction-free Gauss-Jordan (`int_rref`),
    and the result over its last pivot D as field scalars: (rows, 0-based
    pivots, rank)."""
    p = M.field.p
    a, pivots, _ = int_rref([_clear(row, p)[0] for row in M.entries], p)
    D = a[len(pivots) - 1][pivots[-1]] if pivots else 1
    return [tuple(Fraction(x, D) if p is None else x % p for x in row) for row in a], tuple(pivots), len(pivots)


def rows_kernel_basis_oracle(M):
    """The reduced-echelon kernel basis as rows of field scalars: the row of
    free column f is 1 at f and -R[i][f] at the i-th pivot, R from
    `rows_rref_oracle`."""
    f = M.field
    R, pivots, _ = rows_rref_oracle(M)
    basis = []
    for fc in range(M.cols):
        if fc not in pivots:
            v = [f.one if c == fc else f.zero for c in range(M.cols)]
            for row, c in zip(R, pivots):
                v[c] = f.neg(row[fc])
            basis.append(tuple(v))
    return basis


def rows_matmul_oracle(A, B):
    """The rows of A B, each entry a sum of `Field.mul` products by `Field.add`."""
    f = A.field
    products = []
    for row in A.entries:
        out = []
        for col in zip(*B.entries):
            total = f.zero
            for x, y in zip(row, col):
                total = f.add(total, f.mul(x, y))
            out.append(total)
        products.append(tuple(out))
    return products


def rows_standard_gale_pair_oracle(A):
    """The standard pair of A, whose first k columns are independent, as rows:
    [I | A'] from `rows_rref_oracle` and [A'^t | -I] entry by entry."""
    f, k, n = A.field, A.rows, A.cols
    R, pivots, _ = rows_rref_oracle(A)
    assert pivots == tuple(range(k))
    B = [
        tuple([R[i][k + j] for i in range(k)] + [f.neg(f.one) if c == j else f.zero for c in range(n - k)])
        for j in range(n - k)
    ]
    return R, B


def fp_minor_rank(rows, p):
    """Rank over F_p as the largest k with a k x k minor nonzero mod p (Leibniz)."""
    height, width = len(rows), len(rows[0])
    for k in range(min(height, width), 0, -1):
        for ri in combinations(range(height), k):
            for ci in combinations(range(width), k):
                if leibniz_det([[rows[i][j] for j in ci] for i in ri]) % p:
                    return k
    return 0


def stirling2(n, k):
    """Partition counts by the standard recurrence S(n, k) = k S(n-1, k) + S(n-1, k-1)."""
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def set_partitions(n, k):
    """Restricted growth strings of all partitions of [n] into exactly k blocks.

    Entry i - 1 of a string is the 0-based block of element i, blocks numbered
    by their smallest element. Lexicographic, so the first string yielded
    packs {1, ..., n-k+1} into the first block.
    """
    if not 1 <= k <= n:
        return
    a = [0] * n

    def rec(i, used):
        if i == n:
            if used == k:
                yield tuple(a)
            return
        # can't finish with k blocks if too few slots remain
        if used + (n - i) < k:
            return
        for b in range(min(used + 1, k)):
            a[i] = b
            yield from rec(i + 1, max(used, b + 1))

    yield from rec(0, 0)


def partition_edge_masks_oracle(n, k):
    """All k-subsets of [n] in lex order, and per growth string the bitmask of
    the subsets that carry k distinct labels."""
    edges = list(combinations(range(1, n + 1), k))
    masks = []
    for labels in set_partitions(n, k):
        m = 0
        for bit, e in enumerate(edges):
            if len({labels[x - 1] for x in e}) == k:
                m |= 1 << bit
        masks.append(m)
    return edges, masks


def greedy_cover_oracle(masks, m):
    """Greedy hitting set of the partition masks over m edge bits, sorted.

    Each pick recounts, for every edge not yet chosen, the uncovered masks it
    hits, and takes the first edge of most hits.
    """
    uncovered = list(masks)
    chosen = []
    picked_mask = 0
    while uncovered:
        best, best_hits = None, -1
        for bit in range(m):
            if picked_mask >> bit & 1:
                continue
            hits = sum(1 for mm in uncovered if mm >> bit & 1)
            if hits > best_hits:
                best, best_hits = bit, hits
        if best_hits <= 0:
            raise BudgetExceededError("greedy cover stalled (unhittable partition)")
        picked_mask |= 1 << best
        chosen.append(best)
        uncovered = [mm for mm in uncovered if not mm >> best & 1]
    return sorted(chosen)


def min_transversal_oracle(n, k):
    """The least size of a partition-transversal k-uniform family on [n], and
    the first such family in `combinations` order of the lex-ordered edges:
    every edge subset is tried, size by size, against every partition mask."""
    edges, masks = partition_edge_masks_oracle(n, k)
    for size in range(1, len(edges) + 1):
        for combo in combinations(range(len(edges)), size):
            sel = sum(1 << b for b in combo)
            if all(mask & sel for mask in masks):
                return size, tuple(edges[b] for b in combo)


def ordered_partition_oracle(H):
    """Partition-transversality over all surjections [n] -> [k] instead of partitions.

    A labelling is covered when some edge carries k distinct labels, i.e.
    meets every block exactly once (edges have exactly k points).
    """
    for labels in product(range(H.k), repeat=H.n):
        if len(set(labels)) != H.k:
            continue
        if not any(len({labels[x - 1] for x in e}) == H.k for e in H.edges):
            return False
    return True


def poly_eval(poly, point):
    """poly: dict mapping exponent tuples to integer coefficients."""
    total = Fraction(0)
    for expo, coef in poly.items():
        term = Fraction(coef)
        for x, e in zip(point, expo):
            term *= Fraction(x) ** e
        total += term
    return total


def poly_partial(poly, var):
    """Formal partial derivative of an exponent-dict polynomial."""
    out = {}
    for expo, coef in poly.items():
        if expo[var] == 0:
            continue
        new = list(expo)
        new[var] -= 1
        key = tuple(new)
        out[key] = out.get(key, 0) + coef * expo[var]
    return out


def chart_jacobian(field, d, g_vals, t_vals):
    """Jacobian rows of (g, t) -> (y_r / y_0 for r = 1..d, for each point),
    as field scalars.

    Point i is y = g . (1, t_i, ..., t_i^d), with g given row-major in
    `g_vals`; the columns are the entries g_rk in that order, then t_1..t_n.
    With y' = g . (0, 1, 2 t_i, ..., d t_i^(d-1)), the row of y_r / y_0 holds
    t_i^k / y_0 at g_rk, -y_r t_i^k / y_0^2 at g_0k and
    (y_r' y_0 - y_r y_0') / y_0^2 at t_i; every other entry is 0.
    Returns None when some y_0 is 0, i.e. a point lies off the affine chart.
    """
    f = field
    w = d + 1
    ng = w * w
    g = [g_vals[r * w : (r + 1) * w] for r in range(w)]
    rows = []
    for i, t in enumerate(t_vals):
        mom = [f.pow(t, k) for k in range(w)]
        dmom = [f.zero] + [f.mul(k, mom[k - 1]) for k in range(1, w)]
        y = [f.normalize(sum(a * b for a, b in zip(gr, mom))) for gr in g]
        dy = [f.normalize(sum(a * b for a, b in zip(gr, dmom))) for gr in g]
        if y[0] == 0:
            return None
        inv = f.inv(y[0])
        inv2 = f.mul(inv, inv)
        for r in range(1, w):
            row = [f.zero] * (ng + len(t_vals))
            c = f.neg(f.mul(y[r], inv2))
            for k in range(w):
                row[k] = f.mul(c, mom[k])
                row[r * w + k] = f.mul(mom[k], inv)
            row[ng + i] = f.mul(field_sub(f, f.mul(dy[r], y[0]), f.mul(y[r], dy[0])), inv2)
            rows.append(row)
    return rows


def jacobian_rank_oracle(d, n, seed=None, field=None, height=100):
    """`dimension_estimate` by full Gauss-Jordan: the same draws and chart
    retries, then the pivot count of `int_rref` on the cleared rows."""
    if field is None:
        field = Field.prime()
    rng = random.Random(seed)
    for _ in range(RETRY_BUDGET):
        g_vals = [field.random_scalar(rng, height) for _ in range((d + 1) * (d + 1))]
        t_vals = [a for (_, a) in _distinct_affine_params(field, n, rng, height)]
        rows = chart_jacobian(field, d, g_vals, t_vals)
        if rows is not None:
            return len(int_rref([_clear(row, field.p)[0] for row in rows], field.p)[1])
    raise BudgetExceededError("all chart retries hit a zero leading coordinate")


def left_kernel_band_oracle(d, t, y0, p):
    """`configurations._left_kernel_band` entry by entry: band j's entry at
    i in W = (j, ..., j + d + 1) is (-1)^(i - j) vdm(t_{W-i}) prod_{l in W-i}
    y0(l), each Vandermonde product taken over its own pairs, reduced mod p
    once at the end when p is given."""
    bands = []
    for j in range(len(t) - d - 1):
        W = range(j, j + d + 2)
        band = []
        for i in W:
            rest = [l for l in W if l != i]
            u = prod([t[b] - t[a] for a, b in combinations(rest, 2)]) * prod([y0[l] for l in rest])
            u = -u if (i - j) % 2 else u
            band.append(u % p if p else u)
        bands.append(band)
    return bands


def columns_entry_by_entry(field, d, columns):
    """The coordinate matrix of a document's columns, every coordinate read by
    `Field.scalar_from_json` and the matrix built by `Matrix.from_columns`;
    a bad column or coordinate raises the ValueError `config_from_json`
    words for it."""
    for j, col in enumerate(columns, start=1):
        if not isinstance(col, list) or len(col) != d + 1:
            raise ValueError(f"column {j} must be a list of {d + 1} coordinates, got {col!r}")
    parsed = []
    for j, col in enumerate(columns, start=1):
        parsed.append([])
        for i, x in enumerate(col, start=1):
            try:
                parsed[-1].append(field.scalar_from_json(x))
            except ZeroDivisionError:
                raise ValueError(f"column {j}, coordinate {i}: {x!r} has a zero denominator") from None
            except (TypeError, ValueError) as e:
                raise ValueError(f"column {j}, coordinate {i}: {e}") from None
    return Matrix.from_columns(field, parsed)


def edges_edge_by_edge(n, k, doc):
    """The sorted distinct edges of a JSON edge list on [n], each checked on
    its own: a list of exact ints (the ValueError of `cli._hypergraph_from_json`
    otherwise), then a k-subset of [n] by `as_index_set`."""
    if not isinstance(doc, list):
        raise ValueError(f"edges must be a JSON list of edges, got {doc!r}")
    for e in doc:
        if not isinstance(e, list) or not all(type(i) is int for i in e):
            raise ValueError(f"edge {e!r} must be a list of integers")
    return sorted({as_index_set(e, ground=n, size=k) for e in doc})


def relabel(P, I, ground=None):
    """Push the polynomial along the order embedding [P.ground] -> I subset of [ground].

    Position j of I replaces index j in every bracket, and the result is
    rebuilt in canonical form. The new ground set defaults to max(I).
    """
    I = as_index_set(I, size=P.ground)
    m = ground if ground is not None else I[-1]
    if I[-1] > m:
        raise ShapeError(f"target ground [{m}] does not contain {I}")
    return BracketPolynomial(m, P.width, [(c, [tuple(I[i - 1] for i in f) for f in fs]) for c, fs in P.terms])


def dualize(P):
    """Trade every bracket for its complement: m_J -> (-1)^(S_J + m - w) m_{J^c}.

    This is the sign law relating maximal minors of a configuration to those
    of its Gale transform, so the dual polynomial evaluates on a Gale
    transform exactly as the original does on the source (up to one global
    scalar). Applying it twice returns the input up to the documented global
    sign (-1)^(k (w (m-w) + m)) for k-factor terms.
    """
    m, w = P.ground, P.width
    # P's factors are canonical, so S_J = sum(J) - w (w+1) / 2 and J^c are
    # read off directly, with no validation
    shift = m - w - w * (w + 1) // 2
    ground = range(1, m + 1)
    out = []
    for coef, factors in P.terms:
        odd = sum(sum(f) + shift for f in factors) % 2
        out.append((-coef if odd else coef, [tuple(i for i in ground if i not in f) for f in factors]))
    return BracketPolynomial(m, m - w, out)


def psi_pattern(d, I):
    """The width-(d+1) polynomial on [d+4] obtained from the conic equation
    by relabeling onto the six-element pattern I and dualizing: the
    construction `brackets.psi_generators` writes down in closed form."""
    if d < 2:
        raise ShapeError(f"patterns need d >= 2, got {d}")
    I = as_index_set(I, ground=d + 4, size=6)
    phi = phi_as_bracket_poly()
    pulled = [(c, [[I[i - 1] for i in f] for f in fs]) for c, fs in phi.terms]
    return dualize(BracketPolynomial(d + 4, 3, pulled))


def dualize_oracle(P):
    """`dualize` by the general construction: each factor's sign
    (-1)^(S_J + m - w) from `s_index` and its complement from `complement`,
    both of which validate the factor."""
    m, w = P.ground, P.width
    out = []
    for coef, factors in P.terms:
        sign = (-1) ** sum(s_index(f) + m - w for f in factors)
        out.append((coef * sign, [complement(f, m) for f in factors]))
    return BracketPolynomial(m, m - w, out)


def psi_generators_oracle(d):
    """`brackets.psi_generators(d)` built from the conic equation by `relabel`
    and `dualize_oracle`, each pattern's polynomial canonicalized anew."""
    phi = phi_as_bracket_poly()
    return tuple((I, dualize_oracle(relabel(phi, I, ground=d + 4))) for I in combinations(range(1, d + 5), 6))


def multidegree(P):
    """Occurrences of each ground index per term (must be uniform across terms)."""
    if not P.terms:
        return (0,) * P.ground
    profiles = set()
    for _, factors in P.terms:
        counts = [0] * P.ground
        for f in factors:
            for i in f:
                counts[i - 1] += 1
        profiles.add(tuple(counts))
    if len(profiles) > 1:
        raise ValueError("terms are not multihomogeneous of a common degree")
    return profiles.pop()


def subconfig(p, I):
    """Restrict p to the 1-based point subset I (order preserved)."""
    I = as_index_set(I, ground=p.n)
    return PointConfiguration(p.field, p.d, len(I), p.coords.select_columns(I))


def strong_nondegeneracy_oracle(p):
    """1-based index of the first point whose removal kills the span, or None,
    by one rank elimination per dropped point."""
    if p.n < p.d + 2:
        return 1 if p.n >= 1 else None
    if is_degenerate(p):
        return 1
    for i in range(1, p.n + 1):
        if rank(p.coords.select_columns([j for j in range(1, p.n + 1) if j != i])) < p.d + 1:
            return i
    return None


def edge_is_transversal_to(edge, part):
    """The edge meets every block of the partition in exactly one point."""
    return all(len(set(edge) & set(block)) == 1 for block in part.blocks)


class MemoMinors:
    """The matrix M, as `eval_bracket_poly` reads it, with a
    `maximal_minor` that computes each minor once."""

    def __init__(self, M):
        self.matrix, self.field, self.rows, self.cols = M, M.field, M.rows, M.cols
        self._memo = {}

    def maximal_minor(self, J):
        J = tuple(J)
        value = self._memo.get(J)
        if value is None:
            value = self._memo[J] = self.matrix.maximal_minor(J)
        return value


def wdn_scan_oracle(p, collect_values=False):
    """Brute-force higher membership: evaluate every pullback in (J, I) lex order.

    Returns the report `wdn_membership` must give. Without `collect_values`
    the scan stops at the first nonzero value, so `checked` counts pullbacks up
    to the witness; with it every pullback is evaluated (and counted) and the
    {(I, J): value} dict is returned beside the report.
    """
    d, n = p.d, p.n
    degenerate = is_degenerate(p)
    values = {}
    witness = None
    checked = 0
    if n >= d + 4:
        gens = psi_generators(d)
        mm = MemoMinors(p.coords)
        for J in combinations(range(1, n + 1), d + 4):
            for I, poly in gens:
                val = eval_bracket_poly(relabel(poly, J, ground=n), mm)
                checked += 1
                if collect_values:
                    values[(I, J)] = val
                if val != 0 and witness is None:
                    witness = (I, J, val)
                    if not collect_values:
                        break
            if witness is not None and not collect_values:
                break
    all_vanish = witness is None
    in_v, note = _in_v_annotation(d, n, degenerate, all_vanish)
    if not all_vanish:
        classification = "NotInW"
    elif degenerate:
        classification = "InY"
    else:
        classification = "InW"
    report = HigherEquationReport(
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
    if collect_values:
        return report, values
    return report


def in_general_position(p, points):
    """Every d+1 of the 1-based `points` of p are independent, by one rank
    elimination per (d+1)-subset."""
    return all(rank(p.coords.select_columns(S)) == p.d + 1 for S in combinations(points, p.d + 1))


def head_general_position_oracle(p):
    """Points 1..d+3 of p are in general position."""
    return in_general_position(p, range(1, p.d + 4))


def window_vanishes_oracle(rows, p):
    """True when every generator vanishes on the window with coordinate rows `rows`.

    `rows` is the (d+1) x (d+4) coordinate matrix A of the window as ints
    (denominator-cleared over Q, residues over F_p; p is None over Q). The
    window vanishes when A has rank < d+1, or when the Gale points read off
    A's own reduced echelon form lie on one conic: the free columns are the
    coordinate points and the pivot column of row i is -(a_i0, a_i1, a_i2),
    so the test is whether the (d+1) x 3 matrix of the products
    (a_i0 a_i1, a_i0 a_i2, a_i1 a_i2) has rank <= 2. Two Gauss-Jordan
    eliminations of the window's own block; the reference for the
    echelon-form window test of `wdn_membership`.
    """
    a, pivots, _ = int_rref(rows, p)
    if len(pivots) < len(rows):
        return True
    f0, f1, f2 = (f for f in range(len(rows[0])) if f not in pivots)
    products = [[r[f0] * r[f1], r[f0] * r[f2], r[f1] * r[f2]] for r in a]
    return len(int_rref(products, p)[1]) <= 2


@dataclass(frozen=True)
class PairwiseCertificate:
    """What `pairwise_duality_certificate` found: the fields of
    `gale.GaleDualityCertificate` and every I whose identity check failed."""

    n: int
    height_a: int
    height_b: int
    lambda_: object
    checked: int
    failures: tuple


def pairwise_duality_certificate(A, B):
    """The complementary-minor certificate, one minor pair at a time.

    Checks m_I(A) = (-1)^(S_I + height_B) lambda m_{I^c}(B) for every I, with
    lambda fixed by the first I whose A-minor is nonzero.
    """
    require_same_field(A.field, B.field, "Gale pair")
    n = A.cols
    if B.cols != n:
        raise ShapeError(f"column counts differ: {A.cols} vs {B.cols}")
    if A.rows + B.rows != n:
        raise ShapeError(f"heights {A.rows} + {B.rows} must sum to {n}")
    if not matrix_is_zero(A.matmul(transpose(B))):
        raise NotAGalePairError("A B^t != 0")
    if rank(A) < A.rows or rank(B) < B.rows:
        raise RankDeficiencyError("both matrices must have full row rank")

    f = A.field
    k = A.rows
    subsets = list(combinations(range(1, n + 1), k))
    shift = B.rows - k * (k + 1) // 2
    signs = (f.one, f.neg(f.one))
    pairs = [
        (I, tuple(i for i in range(1, n + 1) if i not in I), signs[(sum(I) + shift) % 2])
        for I in subsets
    ]
    lam = None
    for I, Ic, sign in pairs:
        va = A.maximal_minor(I)
        if va != 0:
            vb = B.maximal_minor(Ic)
            if vb == 0:
                return PairwiseCertificate(n, k, B.rows, f.zero, len(subsets), tuple(subsets))
            lam = field_div(f, va, f.mul(sign, vb))
            break
    assert lam is not None

    failures = tuple(
        I for I, Ic, sign in pairs if A.maximal_minor(I) != f.mul(sign, f.mul(lam, B.maximal_minor(Ic)))
    )
    return PairwiseCertificate(n, k, B.rows, lam, len(subsets), failures)


def sign_cloud(field, d, n, seed):
    """n seeded points of P^d with coordinates in {-1, 0, 1}.

    Coincident points, points on coordinate subspaces and other special
    positions are common, so fast paths meet their corner cases.
    """
    rng = random.Random(seed)
    cols = []
    while len(cols) < n:
        col = [rng.choice((-1, 0, 1)) for _ in range(d + 1)]
        if any(col):
            cols.append(col)
    return make_config(field, d, n, cols)


def count_walk_windows(monkeypatch):
    """A list that gets one item per window flag `wdn_membership` reads from
    the walk `brackets._window_flags`."""
    calls = []
    walk = brackets._window_flags

    def spy(*args):
        return (calls.append(1) or flag for flag in walk(*args))

    monkeypatch.setattr(brackets, "_window_flags", spy)
    return calls


class ZeroAfterRng:
    """An rng whose first `real` draws are those of random.Random(seed) and
    whose later draws are all 0, the scalar 0 over Q and over F_p
    (`Field.random_scalar`); `calls` counts its draws."""

    def __init__(self, seed, real=0):
        self._rng, self._real, self.calls = random.Random(seed), real, 0

    def _draw(self, name, args):
        self.calls += 1
        return getattr(self._rng, name)(*args) if self.calls <= self._real else 0

    def randint(self, *args):
        return self._draw("randint", args)

    def randrange(self, *args):
        return self._draw("randrange", args)
