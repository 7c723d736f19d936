"""Point configurations in projective space and the seeded samplers.

A configuration is an ordered list of n points in P^d, stored as the columns
of a (d+1) x n matrix over an exact field. Samplers cover the families the
equation modules are tested against: points on a rational normal curve,
points on degenerations of such curves (chains of lower-degree curves glued
at points), nodal-conic splits, generic clouds, and degenerate clouds inside
a hyperplane. All sampling is deterministic given (field, seed, height).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import prod
from operator import mul
from typing import Optional, Sequence

from .errors import RETRY_BUDGET, BudgetExceededError, DegenerateInputError, ShapeError, check_budget
from .fields import Field, Scalar, require_same_field
from .linalg import Matrix, certified_rank, det, rank

class PointConfiguration:
    """n points of P^d as the columns of a (d+1) x n coordinate matrix."""

    __slots__ = ("field", "d", "n", "coords")

    def __init__(self, field: Field, d: int, n: int, coords: Matrix):
        if d < 1:
            raise ShapeError(f"d must be >= 1, got {d}")
        if coords.shape != (d + 1, n):
            raise ShapeError(f"coords must be {(d + 1, n)}, got {coords.shape}")
        require_same_field(field, coords.field, "configuration coordinates")
        for j, col in enumerate(coords.int_columns, start=1):
            if not any(col):
                raise DegenerateInputError(f"point {j} has all-zero coordinates")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("PointConfiguration is immutable")

    def point(self, i: int) -> tuple[Scalar, ...]:
        """1-based point access."""
        if not 1 <= i <= self.n:
            raise IndexError(f"point index {i} outside [1, {self.n}]")
        return self.coords.column(i - 1)

    def points(self) -> list[tuple[Scalar, ...]]:
        return self.coords.columns()

    def apply(self, g: Matrix) -> "PointConfiguration":
        """Act by a projectivity: columns become g . column."""
        if g.shape != (self.d + 1, self.d + 1):
            raise ShapeError(f"projectivity must be {(self.d + 1, self.d + 1)}")
        return PointConfiguration(self.field, self.d, self.n, g.matmul(self.coords))

    def __repr__(self):
        return f"PointConfiguration({self.field}, d={self.d}, n={self.n})"


def make_config(field: Field, d: int, n: int, columns: Sequence[Sequence]) -> PointConfiguration:
    """Build a configuration from n coordinate columns of length d+1."""
    if len(columns) != n:
        raise ShapeError(f"expected {n} columns, got {len(columns)}")
    return PointConfiguration(field, d, n, Matrix.from_columns(field, columns))


def is_degenerate(p: PointConfiguration) -> bool:
    """True when the points fail to span P^d."""
    return rank(p.coords) < p.d + 1


def strong_nondegeneracy_witness(p: PointConfiguration) -> Optional[int]:
    """1-based index i such that dropping point i kills the span, or None.

    Such a point is a coloop. In the reduced echelon form of the coordinates
    (`Matrix._echelon`, shared with every other reader of it) its column is
    a pivot whose row is zero in every non-pivot column; the smallest one is
    returned.
    """
    if p.n < p.d + 2:
        # dropping any point leaves too few to span
        return 1 if p.n >= 1 else None
    rows, pivots = p.coords._echelon()
    if len(pivots) < p.d + 1:
        return 1
    free = [c for c in range(p.n) if c not in pivots]
    for row, c in zip(rows, pivots):
        if not any(row[f] for f in free):
            return c + 1
    return None


def is_strongly_nondegenerate(p: PointConfiguration) -> bool:
    """Every n-1 of the n points still span P^d."""
    return strong_nondegeneracy_witness(p) is None


# ---------------------------------------------------------------------------
# rational normal curves
# ---------------------------------------------------------------------------


def rnc_point(field: Field, d: int, t: Sequence) -> tuple[Scalar, ...]:
    """Degree-d moment curve point (t0^d, t0^(d-1) t1, ..., t1^d) for t = (t0, t1)."""
    t0 = field.normalize(t[0])
    t1 = field.normalize(t[1])
    if t0 == 0 and t1 == 0:
        raise DegenerateInputError("(0, 0) is not a point of P^1")
    return tuple(
        field.mul(field.pow(t0, d - k), field.pow(t1, k)) for k in range(d + 1)
    )


def random_matrix(field: Field, rows: int, cols: int, rng, height: int = 100) -> Matrix:
    return Matrix(
        field, [[field.random_scalar(rng, height) for _ in range(cols)] for _ in range(rows)]
    )


def random_invertible(field: Field, size: int, rng, height: int = 100) -> Matrix:
    for _ in range(RETRY_BUDGET):
        m = random_matrix(field, size, size, rng, height)
        if det(m) != 0:
            return m
    raise BudgetExceededError(f"no invertible {size}x{size} draw in {RETRY_BUDGET} tries")


def random_config(field: Field, d: int, n: int, rng, height: int = 100) -> PointConfiguration:
    """n random points of P^d; a column that comes out all zero is drawn
    again, at most RETRY_BUDGET times (height 0 over Q draws only zeros)."""
    cols = []
    for _ in range(n):
        for _ in range(RETRY_BUDGET):
            col = [field.random_scalar(rng, height) for _ in range(d + 1)]
            if any(col):
                break
        else:
            raise BudgetExceededError(f"no nonzero point in {RETRY_BUDGET} draws at height {height}")
        cols.append(col)
    return make_config(field, d, n, cols)


def _distinct_affine_params(field: Field, count: int, rng, height: int) -> list[tuple[Scalar, Scalar]]:
    """`count` parameters (1, a) with distinct seeded a. `random_scalar`
    draws from p values over F_p and 2 height + 1 over Q; a larger `count`
    is a ShapeError, raised before anything is drawn."""
    values = field.p or max(2 * height + 1, 0)
    if count > values:
        source = field if field.p else f"height {height}"
        raise ShapeError(f"cannot draw {count} distinct affine parameters: {source} gives only {values}")
    seen: set = set()
    out: list[tuple[Scalar, Scalar]] = []
    budget = RETRY_BUDGET * count + RETRY_BUDGET
    while len(out) < count:
        if budget == 0:
            raise BudgetExceededError(f"could not draw {count} distinct parameters")
        budget -= 1
        a = field.random_scalar(rng, height)
        if a in seen:
            continue
        seen.add(a)
        out.append((field.one, a))
    return out


def sample_on_rnc(
    field: Field, d: int, n: int, seed: int | None = None, rng=None, height: int = 100
) -> PointConfiguration:
    """n points on a rational normal curve of degree d.

    The curve is g . (moment curve), g a seeded random invertible matrix, so
    distinct seeds give distinct curves. The n parameters are distinct seeded
    values, drawn before g.
    """
    if rng is None:
        rng = random.Random(seed)
    params = _distinct_affine_params(field, n, rng, height)
    g = random_invertible(field, d + 1, rng, height)
    cols = [rnc_point(field, d, t) for t in params]
    return make_config(field, d, n, cols).apply(g)


def sample_generic(
    field: Field, d: int, n: int, seed: int | None = None, rng=None, height: int = 100
) -> PointConfiguration:
    """Random configuration, resampled until strongly nondegenerate."""
    if n < d + 2:
        raise ShapeError(f"need n >= d + 2 for strong nondegeneracy, got n={n}, d={d}")
    if rng is None:
        rng = random.Random(seed)
    for _ in range(RETRY_BUDGET):
        p = random_config(field, d, n, rng, height)
        if is_strongly_nondegenerate(p):
            return p
    raise BudgetExceededError("no strongly nondegenerate draw within budget")


def sample_degenerate(
    field: Field, d: int, n: int, seed: int | None = None, rng=None, height: int = 100
) -> PointConfiguration:
    """n points inside a hyperplane of P^d (so the configuration never spans)."""
    if d < 2:
        raise ShapeError("degenerate sampling needs d >= 2")
    if rng is None:
        rng = random.Random(seed)
    for _ in range(RETRY_BUDGET):
        frame = random_matrix(field, d + 1, d, rng, height)
        if rank(frame) < d:
            continue
        coeffs = random_matrix(field, d, n, rng, height)
        cols = frame.matmul(coeffs)
        if not all(map(any, cols.int_columns)):
            continue
        return PointConfiguration(field, d, n, cols)
    raise BudgetExceededError("no hyperplane sample within budget")


def sample_nodal_conic(
    field: Field,
    n: int,
    seed: int | None = None,
    rng=None,
    split: tuple[int, int] | None = None,
    height: int = 100,
) -> PointConfiguration:
    """n points of P^2 on a union of two distinct lines (a degenerate conic).

    `split` fixes how many points land on each line; default is balanced.
    A zero point is drawn again, at most RETRY_BUDGET times.
    """
    if rng is None:
        rng = random.Random(seed)
    if split is None:
        split = (n - n // 2, n // 2)
    if sum(split) != n or min(split) < 0:
        raise ShapeError(f"split {split} does not partition {n} points")
    g = random_invertible(field, 3, rng, height)
    node, u1, u2 = (g.column(0), g.column(1), g.column(2))
    cols = []
    for count, direction in zip(split, (u1, u2)):
        for _ in range(count):
            for _ in range(RETRY_BUDGET):
                a = field.random_scalar(rng, height)
                b = field.random_scalar(rng, height)
                col = [
                    field.add(field.mul(a, x), field.mul(b, y))
                    for x, y in zip(node, direction)
                ]
                if any(x != 0 for x in col):
                    break
            else:
                raise BudgetExceededError(f"no nonzero point on a line in {RETRY_BUDGET} draws at height {height}")
            cols.append(col)
    return make_config(field, 2, n, cols)


# ---------------------------------------------------------------------------
# quasi-Veronese chains: unions of lower-degree curves glued at points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainComponent:
    """One irreducible piece of a degenerated curve.

    The piece is the degree-`degree` moment curve pushed through `frame`
    (a (d+1) x (degree+1) matrix of full column rank): t maps to
    frame . moment(t). `fresh_axes` are the 1-based coordinate axes owned
    exclusively by this component; `parent` (0-based component index) and
    `gluing_param` record where the piece is attached — the frame's first
    column is the gluing point, reached at t = (1, 0). The root has
    parent None.
    """

    degree: int
    frame: Matrix
    fresh_axes: tuple[int, ...]
    parent: Optional[int]
    gluing_param: Optional[tuple[Scalar, Scalar]]


@dataclass(frozen=True)
class QuasiVeroneseDescriptor:
    """A connected union of rational curves of total degree d spanning P^d."""

    field: Field
    d: int
    components: tuple[ChainComponent, ...]

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(c.degree for c in self.components)

    def point_on(self, comp: int, t: Sequence) -> tuple[Scalar, ...]:
        """Coordinates of the component's parameterization at t."""
        c = self.components[comp]
        mom = rnc_point(self.field, c.degree, t)
        col = Matrix.from_columns(self.field, [mom])
        return c.frame.matmul(col).column(0)


def quasi_veronese_descriptor(
    field: Field,
    d: int,
    degrees: Sequence[int],
    seed: int | None = None,
    rng=None,
    attachments: Sequence[tuple[int, Sequence]] | None = None,
    height: int = 100,
) -> QuasiVeroneseDescriptor:
    """Build a degree-d chain of rational normal curves glued at points.

    `degrees` lists the component degrees (must sum to d, each >= 1). The
    first component is the moment curve on the leading coordinates; each
    later component is glued to a point of an earlier one and bends into
    `degree` fresh coordinate directions, so the union always spans P^d.
    `attachments[j-1] = (parent, t)` places component j (0-based `parent` <
    j); default attaches to the previous component at a seeded parameter.

    Every frame has full column rank, and the frames span P^d together. The
    root frame is unit vectors. A later frame is the gluing point, its
    parent's frame times the nonzero moment vector of t (`rnc_point` refuses
    (0, 0)), and unit vectors on its fresh axes. By induction the gluing
    point is nonzero and lies on earlier axes, so it is independent of
    those unit vectors. Between them the frames hold all d+1 unit vectors.
    """
    degrees = tuple(degrees)
    if not degrees or any(type(x) is not int or x < 1 for x in degrees):
        raise ShapeError(f"component degrees must be positive ints, got {degrees}")
    if sum(degrees) != d:
        raise ShapeError(f"component degrees {degrees} must sum to d = {d}")
    if rng is None:
        rng = random.Random(seed)
    if attachments is not None and len(attachments) != len(degrees) - 1:
        raise ShapeError("need one attachment per non-root component")

    comps: list[ChainComponent] = []
    next_axis = degrees[0] + 1
    for j, deg in enumerate(degrees):
        if j == 0:
            frame = Matrix(
                field,
                [
                    [field.one if r == c else field.zero for c in range(deg + 1)]
                    for r in range(d + 1)
                ],
            )
            comps.append(ChainComponent(deg, frame, tuple(range(1, deg + 2)), None, None))
            continue
        if attachments is None:
            parent = j - 1
            t = (field.one, field.random_nonzero(rng, height))
        else:
            parent, t_raw = attachments[j - 1]
            if type(parent) is not int or not 0 <= parent < j:
                raise ShapeError(f"component {j} cannot attach to component {parent!r}")
            t = (field.normalize(t_raw[0]), field.normalize(t_raw[1]))
        glue = QuasiVeroneseDescriptor(field, d, tuple(comps)).point_on(parent, t)
        axes = tuple(range(next_axis + 1, next_axis + deg + 1))
        next_axis += deg
        frame_cols = [glue] + [
            [field.one if r == ax - 1 else field.zero for r in range(d + 1)] for ax in axes
        ]
        comps.append(ChainComponent(deg, Matrix.from_columns(field, frame_cols), axes, parent, t))
    return QuasiVeroneseDescriptor(field, d, tuple(comps))


def sample_quasi_veronese_chain(
    field: Field,
    d: int,
    n: int,
    degrees: Sequence[int],
    seed: int | None = None,
    rng=None,
    counts: Sequence[int] | None = None,
    attachments: Sequence[tuple[int, Sequence]] | None = None,
    height: int = 100,
) -> tuple[QuasiVeroneseDescriptor, PointConfiguration]:
    """Sample n points on a seeded quasi-Veronese chain.

    `counts` fixes how many points land on each component (default: as even
    as possible, front-loaded). Points use distinct nonzero parameters per
    component, so they avoid the gluing points generically. No point is zero:
    it is a frame of full column rank times the moment vector of (1, a),
    whose first entry is 1.
    """
    if rng is None:
        rng = random.Random(seed)
    desc = quasi_veronese_descriptor(field, d, degrees, rng=rng, attachments=attachments, height=height)
    m = len(desc.components)
    if counts is None:
        base, extra = divmod(n, m)
        counts = tuple(base + (1 if j < extra else 0) for j in range(m))
    else:
        counts = tuple(counts)
        if len(counts) != m or any(type(c) is not int or c < 0 for c in counts) or sum(counts) != n:
            raise ShapeError(f"counts {counts} must be ints that partition {n} over {m} components")
    cols = []
    for j, count in enumerate(counts):
        if count == 0:
            continue
        params = _distinct_affine_params(field, count, rng, height)
        cols += [desc.point_on(j, t) for t in params]
    return desc, make_config(field, d, n, cols)


# ---------------------------------------------------------------------------
# dimension of the closure of rational-normal-curve configurations
# ---------------------------------------------------------------------------


def _left_kernel_band(d: int, t: Sequence[int], y0: Sequence[int], p: int | None) -> list[list[int]]:
    """The banded left kernel of D_0 V, D_0 = diag(y0) and V the n x (d+1)
    Vandermonde matrix of the points t, as n - d - 1 bands of d + 2 ints.

    Band j holds row j of U in the window W = (j, ..., j + d + 1): the entry at
    i in W is (-1)^pos(i) vdm(t_{W-i}) prod_{l in W-i} y0(l), pos(i) = i - j and
    vdm the Vandermonde determinant prod_{a<b} (t_b - t_a). Then
    u_i y0(i) t_i^k summed over W is prod_W y0 times the expansion of a
    determinant whose first column repeats column k of the Vandermonde
    matrix of t_W, so it is 0. The last entry of band j is nonzero for
    distinct t and nonzero y0, so the rows are independent.

    The pairs of W that hold i contribute t_i - t_l (l < i) and t_l - t_i
    (l > i) to vdm(t_W), and (-1)^(number of l > i) (-1)^pos(i) =
    (-1)^(d+1), so each entry is the band's one product
    (-1)^(d+1) vdm(t_W) prod_W y0 divided by y0(i) prod_{l != i} (t_i - t_l):
    an exact integer division over Q, a product with the inverse mod p over
    F_p, where the entries are residues. The divisor is nonzero (mod p) by
    the precondition that `dimension_estimate` meets: the t are distinct
    and every y0 is nonzero (mod p).
    """
    sign = 1 if d % 2 else -1  # (-1)^(d+1)
    bands = []
    for j in range(len(t) - d - 1):
        W, ys = t[j : j + d + 2], y0[j : j + d + 2]
        whole = sign * prod([tb - ta for ta, tb in combinations(W, 2)]) * prod(ys)
        whole = whole % p if p else whole
        band = []
        for i, ti in enumerate(W):
            den = ys[i] * prod([ti - tl for l, tl in enumerate(W) if l != i])
            band.append(whole * pow(den, -1, p) % p if p else whole // den)
        bands.append(band)
    return bands


def _schur_complement(d: int, g: Sequence[int], t: Sequence[int], p: int | None) -> Optional[list[list[int]]]:
    """The d (n-d-1) rows of S in `dimension_estimate`, over the columns
    t_1..t_n, g_0.0..g_0.d: U X_r for r = 1..d, U from `_left_kernel_band`.
    Row j of each block is zero at the t columns outside t_{j+1}..t_{j+d+2},
    so with these banded columns first, a forward elimination step rewrites
    only the rows whose band holds its pivot column.

    g holds the (d+1) x (d+1) matrix row-major and t the n distinct
    parameters, as ints (reduced mod p when p is given). Over F_p the
    moments, y, y' and c_r are reduced mod p as they are formed, and S once
    more when it is complete, so the kernel check and the ranks of
    `certified_rank` read residues. S is empty when n <= d + 1.
    Returns None when some y_0 is 0 (mod p), i.e. a point lies off the
    affine chart.
    """
    w = d + 1
    rows_g = [g[r * w : (r + 1) * w] for r in range(w)]
    moms, ys, cs = [], [], []
    for x in t:
        mom = [x**k % p if p else x**k for k in range(w)]
        dmom = [0] + [k * mom[k - 1] for k in range(1, w)]
        y = [sum(map(mul, gr, mom)) % p if p else sum(map(mul, gr, mom)) for gr in rows_g]
        if y[0] == 0:
            return None
        dy = [sum(map(mul, gr, dmom)) % p if p else sum(map(mul, gr, dmom)) for gr in rows_g]
        c = [dy[r] * y[0] - y[r] * dy[0] for r in range(w)]
        moms.append(mom)
        ys.append(y)
        cs.append([v % p for v in c] if p else c)
    n = len(t)
    bands = _left_kernel_band(d, t, [y[0] for y in ys], p)
    # the columns of V on the window of each band
    windows = [list(zip(*moms[j : j + w + 1])) for j in range(len(bands))]
    S = []
    for r in range(1, w):
        for j, (band, cols) in enumerate(zip(bands, windows)):
            uy = [u * y[r] for u, y in zip(band, ys[j:])]
            row = [0] * j + [u * c[r] for u, c in zip(band, cs[j:])] + [0] * (n - j - w - 1)
            S.append(row + [-sum(map(mul, uy, col)) for col in cols])
    return [[x % p for x in row] for row in S] if p else S


def _gl2_kernel(d: int, g_vals: Sequence, t_vals: Sequence) -> list[list]:
    """The four gl_2 kernel vectors of the chart Jacobian at (g, t), as
    listed in `dimension_estimate`, over the columns g_rk row-major, then t.

    A direction (dg, dt) moves point i by dg . m(t_i) + dt_i g . m'(t_i),
    m(t) = (1, t, ..., t^d). Translation and dilation do not move the points,
    inversion moves point i by d t_i times itself and scaling by itself, so
    no chart coordinate y_r / y_0 moves. Entries are plain products of the
    scalars, ints for int (g, t).
    """
    w = d + 1
    g = list(g_vals)
    return [
        [-(j % w + 1) * g[j + 1] if j % w < d else 0 for j in range(w * w)] + [1] * len(t_vals),
        [-(j % w) * g[j] for j in range(w * w)] + list(t_vals),
        [(w - j % w) * g[j - 1] if j % w else 0 for j in range(w * w)] + [t * t for t in t_vals],
        g + [0] * len(t_vals),
    ]


#: `dimension_estimate` refuses, before it draws, a shape whose work
#: d (n-d-1) (n+d+1) (n+d-3) (the rows, columns and rank bound of S) is above
#: this. The largest admitted shapes take 0.013 s at (2, 91) and 0.13 s at
#: (71, 73) over F_65521; over Q the entries of S grow with d, and they take
#: 0.013 s and 6.8 s ((20, 40): 0.26 s). In-process, best of 7 (of 2 at
#: (71, 73) over Q, of 3 at (20, 40) over Q), 2-core host, Python 3.11.
DIM_WORK_BUDGET = 1_500_000


def dimension_estimate(
    d: int,
    n: int,
    seed: int | None = None,
    field: Field | None = None,
    height: int = 100,
) -> int:
    """Rank of the exact Jacobian J of (g, t) -> curve configuration at a random point.

    The map sends a (d+1) x (d+1) matrix g and parameters t_1..t_n to the
    affine-chart coordinates y_r / y_0 (r = 1..d) of the n points
    y = g . m(t_i), m(t) = (1, t, ..., t^d). For generic inputs the rank
    equals the dimension of the closure of its image. Its fibre is the
    4-dimensional gl_2 action, so J has these four kernel vectors, in the
    columns g_rk row-major, then t_1..t_n (`_gl2_kernel`):
    - translation (-g A1, 1, ..., 1), (g A1)[r][k] = (k+1) g[r][k+1];
    - dilation (-g A2, t_1, ..., t_n), (g A2)[r][k] = k g[r][k];
    - inversion (-g A3, t_1^2, ..., t_n^2), (g A3)[r][k] = (k-1-d) g[r][k-1];
    - scaling (g, 0, ..., 0).
    With d n rows, the generic rank is min(d n, d^2 + 2d + n - 3). The two
    agree at n = d + 3, since d n - (d^2 + 2d + n - 3) = (d-1)(n-d-3); the
    formula holds from there on.

    The rank is read from the blocks of J. Scale the row of y_r / y_0 at
    point i by y_0(i)^2, which is nonzero. With y' = g . m'(t_i), the row
    then holds -y_r m(t_i) at the columns g_0., y_0 m(t_i) at g_r. and
    c_r(i) = y_r' y_0 - y_r y_0' at t_i. So the rows of block r (one per
    point) are [D_0 V at the columns g_r. | X_r at the columns (g_0., t)],
    D_0 = diag(y_0(i)), V the Vandermonde matrix of the t_i,
    X_r = [-Y_r V | diag(c_r)] and Y_r = diag(y_r(i)), and the columns g_r.
    (r >= 1) are zero outside block r. Since the t_i are distinct, D_0 V has
    rank min(n, d+1):
    - n <= d + 1: each block has rank n in its own columns g_r., so
      rank J = d n;
    - n > d + 1: the n - d - 1 rows of U (`_left_kernel_band`) span the left
      kernel of D_0 V. Left-multiply each block by an invertible matrix whose
      last rows are U: its first d + 1 rows map D_0 V to an invertible
      block, U maps it to 0 and X_r to U X_r. Column operations with the
      invertible blocks, whose columns g_r. meet no other rows, clear the
      rest of their rows, so rank J = d (d+1) + rank S, S the stack of the
      U X_r (`_schur_complement`).
    No entry needs an inverse: g and t are integer draws over Q and residues
    over F_p. The restricted gl_2 vectors (their t and g_0. entries)
    annihilate S, because they annihilate J and U D_0 V = 0, so rank S is at
    most (n + d + 1) - 4 = n + d - 3 of its d (n-d-1) rows. Over both fields
    `certified_rank` checks that bound and reads rank S from the modular rank
    of the first n + d - 3 rows when they reach it; the rest of S is
    eliminated only when the two miss. A draw that puts a point
    outside the affine chart (leading coordinate zero) is redrawn with fresh
    randomness, up to a budget. A shape of more than DIM_WORK_BUDGET work
    raises BudgetExceededError before anything is drawn.
    """
    if d < 1 or n < 1:
        raise ShapeError(f"need d >= 1 and n >= 1, got ({d}, {n})")
    work = d * (n - d - 1) * (n + d + 1) * (n + d - 3)
    check_budget(work, DIM_WORK_BUDGET, f"(d, n) = ({d}, {n}) has {work} units of elimination work")
    if field is None:
        field = Field.prime()
    rng = random.Random(seed)
    w = d + 1
    for _ in range(RETRY_BUDGET):
        g_vals = [field.random_scalar(rng, height) for _ in range(w * w)]
        t_vals = [a for (_, a) in _distinct_affine_params(field, n, rng, height)]
        # integer draws over Q, residues over F_p
        g = [x.numerator for x in g_vals]
        t = [x.numerator for x in t_vals]
        S = _schur_complement(d, g, t, field.p)
        if S is None:
            continue
        if not S:
            return d * n
        kernel = [v[w * w :] + v[:w] for v in _gl2_kernel(d, g, t)]
        return d * w + certified_rank(S, kernel, field.p)
    raise BudgetExceededError("all chart retries hit a zero leading coordinate")
