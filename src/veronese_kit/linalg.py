"""Field-generic exact matrices and the linear algebra the rest of the package uses.

Every determinant, rank, echelon form and minor runs on one exact core of
plain Python ints: Bareiss elimination (`_bareiss_det_int`) for determinants,
forward-only Bareiss echelon (`int_rank`) for ranks and fraction-free
Gauss-Jordan (`int_rref`) for echelon forms, which also gives the
determinant of the pivot columns. `certified_rank` reads the rank of int
rows, over Q or mod p, from the modular rank of their first rows when
verified kernel vectors cap it there.

A `Matrix` stores only `int_columns`, its columns as core ints, and
`_factors`, their clearing factors. `_clear(xs, p)` turns a column of
scalars into core ints and a clearing factor m, keyed on the field's
modulus p = `Field.p` that every caller holds: over Q (p None) the
`Fraction` entries times the lcm m of their denominators (their numerators,
read in one C-level pass, when m = 1), over F_p the residues in [0, p) as
they are, with m = 1 and no work. `Field.from_core` turns a core int back
into a field scalar; a factor need not be the least one, since every value
is read back through `Fraction` or `Field.from_core`. `Matrix(...)`
normalizes its entries and clears its columns; `Matrix._from_int_columns`
takes core int columns with their factors (decoded documents, plane lifts,
and the results of `submatrix`, `matmul`, `rref` and `kernel_basis`). Rows
are built only when a caller reads `entries`.

Each matrix is eliminated at most once: `Matrix._echelon` keeps the
`int_rref` form of its int columns, with the pivot map and pivot scale its
minors need, and every reader of its minors, rank or kernel reads that
form. `Matrix.maximal_minor` reads one maximal minor as one determinant;
`Matrix._echelon_minor` reads one from the echelon form by a small minor of
its rows, in closed form up to 3 x 3, and `Matrix.maximal_minors`, the one
all-minors reader, reads all of them from it as field scalars. Both scale
by the pivot determinant the elimination gave, so no determinant is taken
twice. `rref` and `kernel_basis` read the reduced echelon form and its
kernel basis from the same form.

Conventions: matrix element access is 0-based; *index sets* (rows/columns of
minors, bracket factors, hypergraph edges) are 1-based strictly increasing
tuples, matching the combinatorial notation used throughout.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, repeat
from math import comb, lcm, prod
from operator import attrgetter, mul, xor
from typing import Iterable, Sequence

from .errors import IndexSetError, RankDeficiencyError, ShapeError
from .fields import Field, Scalar, require_same_field

IndexSet = tuple[int, ...]


def as_index_set(I: Iterable[int], ground: int | None = None, size: int | None = None) -> IndexSet:
    """Validate a 1-based strictly increasing tuple of ints (bools are rejected)."""
    t = tuple(I)
    for i in t:
        if type(i) is not int:
            raise IndexSetError(f"index {i!r} in {t!r} is not an int")
    if not t:
        raise IndexSetError("index set must be nonempty")
    if any(b <= a for a, b in zip(t, t[1:])):
        raise IndexSetError(f"index set must be strictly increasing, got {t}")
    if t[0] < 1:
        raise IndexSetError(f"index sets are 1-based, got {t}")
    if ground is not None and t[-1] > ground:
        raise IndexSetError(f"index {t[-1]} outside ground set [{ground}]")
    if size is not None and len(t) != size:
        raise IndexSetError(f"expected {size} indices, got {len(t)}")
    return t


def complement(I: IndexSet, ground: int) -> IndexSet:
    inside = set(as_index_set(I, ground=ground))
    return tuple(i for i in range(1, ground + 1) if i not in inside)


def s_index(I: Iterable[int]) -> int:
    """Sum of (i_j - j) over the sorted entries i_1 < ... < i_k of I.

    Equals the number of inversions needed to sort I followed by its
    complement, mod 2 — the sign bookkeeping for complementary minors.
    """
    t = as_index_set(I)
    return sum(v - j for j, v in enumerate(t, start=1))


class Matrix:
    """Immutable dense matrix over a `Field`, with its integer view and its
    one elimination.

    `int_columns` holds the columns as core ints and `_factors` their
    clearing factors (`_clear`): column j is int_columns[j] / _factors[j],
    and every factor is 1 over F_p. That is the one stored form; `entries`,
    the rows as tuples of normalized scalars, is built from it on first
    read, and `column` reads one int column. `_echelon` eliminates the int
    columns once; the maximal minors m_J (J a 1-based column set of size =
    the row count), the echelon rank and `kernel_basis` read that form.
    """

    __slots__ = ("field", "rows", "cols", "_entries", "int_columns", "_factors", "_rref", "_det", "_pivot_map")

    def __init__(self, field: Field, entries: Sequence[Sequence]):
        rows = [[field.normalize(x) for x in row] for row in entries]
        if not rows or not rows[0]:
            raise ShapeError("matrix must have at least one row and one column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ShapeError("ragged rows")
        self._init(field, *zip(*map(_clear, zip(*rows), repeat(field.p))))

    def _init(self, field: Field, columns: Sequence[Sequence[int]], factors: Sequence[int]) -> None:
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", len(columns[0]))
        object.__setattr__(self, "cols", len(columns))
        object.__setattr__(self, "_entries", None)
        object.__setattr__(self, "int_columns", columns)
        object.__setattr__(self, "_factors", factors)
        object.__setattr__(self, "_rref", None)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @property
    def entries(self) -> tuple[tuple[Scalar, ...], ...]:
        """The rows as tuples of normalized scalars, built by `_build_entries`
        on first read."""
        rows = self._entries
        return self._build_entries() if rows is None else rows

    def _build_entries(self) -> tuple[tuple[Scalar, ...], ...]:
        """The rows of the `column`s, kept as `_entries`."""
        rows = tuple(zip(*map(self.column, range(self.cols))))
        object.__setattr__(self, "_entries", rows)
        return rows

    # -- constructors --------------------------------------------------------

    @classmethod
    def _from_int_columns(
        cls, field: Field, columns: Iterable[Sequence[int]], factors: Sequence[int] | None = None
    ) -> "Matrix":
        """The matrix whose column j is columns[j] / factors[j], for columns
        of core ints (integers over Q, residues in [0, p) over F_p) and
        positive clearing factors (all 1 when None, and always over F_p),
        kept as `int_columns` and `_factors`; the shape is checked as
        `from_columns` checks it."""
        cols = tuple(_check_columns(columns))
        m = object.__new__(cls)
        m._init(field, cols, (1,) * len(cols) if factors is None else tuple(factors))
        return m

    @classmethod
    def from_columns(cls, field: Field, columns: Sequence[Sequence]) -> "Matrix":
        return cls(field, list(zip(*_check_columns(columns))))

    # -- access ---------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def column(self, j: int) -> tuple[Scalar, ...]:
        """Column j as field scalars: its ints over its clearing factor."""
        c = self.int_columns[j]
        return tuple(c if self.field.p else map(Fraction, c, repeat(self._factors[j])))

    def columns(self) -> list[tuple[Scalar, ...]]:
        return [self.column(j) for j in range(self.cols)]

    def _raw_columns(self) -> list[Sequence]:
        """The columns `config_to_json` renders: a column of clearing factor 1
        as its ints, since an int renders by `str` and `int` exactly as its
        scalar does, any other as its `column`."""
        return [c if m == 1 else self.column(j) for j, (c, m) in enumerate(zip(self.int_columns, self._factors))]

    def __eq__(self, other):
        # equal scalars: each int column cross-multiplied by the other's clearing factor
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.shape == other.shape
            and all(
                x * n == y * m
                for c, m, d, n in zip(self.int_columns, self._factors, other.int_columns, other._factors)
                for x, y in zip(c, d)
            )
        )

    def __hash__(self):
        return hash((self.field, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Matrix({self.field}, {self.rows}x{self.cols}: [{body}])"

    # -- structural ops --------------------------------------------------------

    def submatrix(self, row_set: Iterable[int], col_set: Iterable[int]) -> "Matrix":
        """Select rows and columns by 1-based index sets; each column keeps its
        clearing factor."""
        ri = as_index_set(row_set, ground=self.rows)
        ci = as_index_set(col_set, ground=self.cols)
        cols = [[self.int_columns[j - 1][i - 1] for i in ri] for j in ci]
        return Matrix._from_int_columns(self.field, cols, [self._factors[j - 1] for j in ci])

    def select_columns(self, col_set: Iterable[int]) -> "Matrix":
        return self.submatrix(range(1, self.rows + 1), col_set)

    def matmul(self, other: "Matrix") -> "Matrix":
        """`_int_rows` (L times the rows) by `other`'s int columns, over L m_j."""
        require_same_field(self.field, other.field, "matmul operands")
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        rows, p, L = self._int_rows(), self.field.p, lcm(*self._factors)
        cols = [[sum(map(mul, r, c)) for r in rows] for c in other.int_columns]
        if p:
            cols = [[x % p for x in c] for c in cols]
        return Matrix._from_int_columns(self.field, cols, [L * m for m in other._factors])

    # -- the one elimination and the maximal minors -------------------------------

    def _echelon(self) -> tuple[list[list[int]], list[int]]:
        """`int_rref` of the rows of `int_columns`, computed once: (rows,
        0-based pivots). Its det(A_P), A_P the int columns at the pivots, is
        kept as `_det`, for `gale.duality_certificate`, and what every minor
        read from the form needs is kept as `_pivot_map` = (pivot_row, D, g):
        pivot_row[c] the row whose pivot is column c (-1 off the pivots), D
        the last pivot (1 over F_p) and the pivot scale g = det(A_P) / D.
        `int_rref` gave det(A_P), so no determinant is taken: over Q
        det(A_P) = +-D and g is the sign of the elimination's row swaps; over
        F_p g is det(A_P) mod p. Every minor read from the form is g times a
        minor of the echelon rows. A rank-deficient form, whose minors are
        all 0, keeps g = 0. Scaling a column by a nonzero constant changes no
        rank and no pivot, so they are those of the matrix."""
        rref = self._rref
        if rref is None:
            a, pivots, det_p = int_rref(list(zip(*self.int_columns)), self.field.p)
            rref = a, pivots
            pivot_row = [-1] * self.cols
            for r, c in enumerate(pivots):
                pivot_row[c] = r
            D = a[-1][pivots[-1]] if det_p else 0
            g = det_p // D if det_p and not self.field.p else det_p
            object.__setattr__(self, "_rref", rref)
            object.__setattr__(self, "_det", det_p)
            object.__setattr__(self, "_pivot_map", (pivot_row, D, g))
        return rref

    def echelon_rank(self) -> int:
        """Rank of the matrix, from the cached `_echelon` form."""
        return len(self._echelon()[1])

    def _int_rows(self) -> list[tuple[int, ...]]:
        """The rows as core ints, all scaled by the lcm L of the clearing
        factors: when L = 1 (always over F_p) the rows of `int_columns`."""
        L, cols = lcm(*self._factors), self.int_columns
        return list(zip(*(cols if L == 1 else [[x * (L // m) for x in c] for c, m in zip(cols, self._factors)])))

    def _echelon_minor(self, cols: Sequence[int]) -> int:
        """The maximal minor of the int columns `cols` (0-based, increasing),
        read from `_echelon` by the formula of `maximal_minors`: (-1)^e g
        minor_{R,C}(a) / D^(|C|-1), g and D from `_pivot_map`, with the one
        small minor of the echelon rows a on C, the columns of `cols` off the
        pivots, and R, the rows whose pivot is not in `cols`. Equals the
        determinant of those int columns over Q and is reduced mod p over
        F_p; 0 when the matrix is rank-deficient.

        e sums, over the pivots u in `cols`, the position of u in `cols` and
        the row of u. Positions and rows each run over 0..k-1 in all, so e
        has the parity of the positions of C plus the rows R.

        Up to |C| = 3 the minor is its cofactor expansion, divided by D once
        at |C| = 2 and by D^2 at |C| = 3; beyond, Bareiss on the block, over
        D^(|C|-1). Every division is exact: an s x s minor of the echelon
        rows is divisible by D^(s-1) (Sylvester).
        """
        a, pivots = self._rref or self._echelon()
        pivot_row, D, g = self._pivot_map
        if not g:
            return 0
        e = 0
        free = []
        for t, c in enumerate(cols):
            if pivot_row[c] < 0:
                free.append(c)
                e += t
        s = len(free)
        if not s:
            v = D
        else:
            R = [r for r, c in enumerate(pivots) if c not in cols]
            e += sum(R)
            if s == 1:
                v = a[R[0]][free[0]]
            elif s == 2:
                x, y = a[R[0]], a[R[1]]
                c0, c1 = free
                v = (x[c0] * y[c1] - x[c1] * y[c0]) // D
            elif s == 3:
                x, y, z = a[R[0]], a[R[1]], a[R[2]]
                c0, c1, c2 = free
                y0, y1, y2, z0, z1, z2 = y[c0], y[c1], y[c2], z[c0], z[c1], z[c2]
                v = (x[c0] * (y1 * z2 - y2 * z1) - x[c1] * (y0 * z2 - y2 * z0) + x[c2] * (y0 * z1 - y1 * z0)) // (D * D)
            else:
                v = _bareiss_det_int([[a[r][c] for c in free] for r in R]) // D ** (s - 1)
        v *= -g if e & 1 else g
        prime = self.field.p
        return v % prime if prime else v

    def maximal_minor(self, J: Iterable[int]) -> Scalar:
        """The maximal minor m_J as one determinant: Bareiss on the int
        columns of J, over the product of their clearing factors, so it
        equals `minor` exactly."""
        cols = [j - 1 for j in as_index_set(J, ground=self.cols, size=self.rows)]
        # the determinant of the transpose: the selected int columns as rows
        v = _bareiss_det_int([self.int_columns[j] for j in cols])
        return self.field.from_core(v, prod([self._factors[j] for j in cols]))

    def maximal_minors(self) -> tuple[Scalar, ...]:
        """All maximal minors as field scalars, in lexicographic order of the
        column sets. They equal `maximal_minor` at every column set.

        The values come from the one echelon form. In the pivot columns P the
        echelon rows are D times the identity (D the last pivot, D = 1 over
        F_p); call their free-column block N. For a column set J, let
        C = J minus P and let R hold the rows whose pivot is not in J. Then

            m_J = (-1)^e det(A_P) minor_{R,C}(N) / D^|C|,

        where e sums, over the pivots u in J, the position of u in J and the
        row of u. The minors of N are built size by size, each expanded along
        its last column and divided by D (Sylvester), so every m_J is an
        exact int minor of the cleared `int_columns`: over Q the minor of the
        matrix is that int over the product of the columns' clearing
        factors, over F_p its residue. A rank-deficient matrix has only zero
        minors.
        """
        k, n = self.rows, self.cols
        prime = self.field.p
        a, pivots = self._echelon()
        pivot_row, D, g = self._pivot_map
        if not g:
            return (self.field.zero,) * comb(n, k)
        free = [c for c in range(n) if pivot_row[c] < 0]
        # a column's bits in the key rows_mask | cols_mask << k of `minors`
        key_bit = [0] * n
        for r, c in enumerate(pivots):
            key_bit[c] = 1 << r
        for i, c in enumerate(free):
            key_bit[c] = 1 << (k + i)
        # minors[key] = minor_{R,C}(N) / D^(|C|-1); the empty minor is D
        minors = {0: D}
        for s in range(1, min(k, len(free)) + 1):
            row_sets = [(R, sum(1 << r for r in R)) for R in combinations(range(k), s)]
            for C in combinations(range(len(free)), s):
                col = [a[r][free[C[-1]]] for r in range(k)]
                cbits = sum(1 << (k + c) for c in C)
                rest = cbits ^ (1 << (k + C[-1]))
                for R, rbits in row_sets:
                    total = 0
                    neg = s % 2 == 0  # cofactor sign (-1)^(i + s - 1) at i = 0
                    for r in R:
                        x = col[r]
                        if x:
                            v = x * minors[rest | rbits ^ (1 << r)]
                            total += -v if neg else v
                        neg = not neg
                    minors[cbits | rbits] = total % prime if prime else total // D
        # the key of each J, with bit n set when e is odd
        odd = 1 << n
        keys = _lex_subset_folds(
            n, k, (1 << k) - 1, xor,
            lambda j, t: key_bit[j] | (odd if pivot_row[j] >= 0 and (t + pivot_row[j]) % 2 else 0),
        )
        values = [minors[x] * g if x < odd else minors[x ^ odd] * -g for x in keys]
        if prime:
            return tuple(v % prime for v in values)
        scales = _lex_subset_folds(n, k, 1, mul, lambda j, t: self._factors[j])
        return tuple(map(Fraction, values, scales))


def _check_columns(columns: Iterable[Sequence]) -> list[tuple]:
    """The columns as tuples; raises ShapeError when there is no nonempty
    column or the columns are ragged."""
    cols = [tuple(c) for c in columns]
    if not cols or not cols[0]:
        raise ShapeError("need at least one nonempty column")
    if any(len(c) != len(cols[0]) for c in cols):
        raise ShapeError("ragged columns")
    return cols


# ---------------------------------------------------------------------------
# the integer view
# ---------------------------------------------------------------------------


_numerator, _denominator = attrgetter("numerator"), attrgetter("denominator")


def _clear(xs: Sequence[Scalar], p: int | None) -> tuple[Sequence[int], int]:
    """The scalars xs of the field of modulus p (`Field.p`) as core ints:
    over Q (p None) (xs times m, m), m the lcm of their denominators; over
    F_p the residues xs themselves, as they are, with m = 1."""
    if p is not None:
        return xs, 1
    m = lcm(*map(_denominator, xs))
    if m == 1:
        return list(map(_numerator, xs)), 1
    return [x.numerator * (m // x.denominator) for x in xs], m


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------


def _bareiss_det_int(rows: list[list[int]]) -> int:
    """Fraction-free (Bareiss) determinant of an integer matrix."""
    n = len(rows)
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            ri, rk = a[i], a[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * pk - aik * rk[j]) // prev
            ri[k] = 0
        prev = pk
    return sign * a[-1][-1]


def det(M: Matrix) -> Scalar:
    """Exact determinant of a square matrix: that of its transpose, the
    `int_columns` taken as rows, over their clearing factors."""
    if M.rows != M.cols:
        raise ShapeError(f"determinant of non-square {M.shape}")
    return M.field.from_core(_bareiss_det_int(M.int_columns), prod(M._factors))


def minor(M: Matrix, row_set: Iterable[int], col_set: Iterable[int]) -> Scalar:
    """Determinant of the (1-based) row/column selection, which must be square."""
    ri = as_index_set(row_set, ground=M.rows)
    ci = as_index_set(col_set, ground=M.cols)
    if len(ri) != len(ci):
        raise ShapeError(f"minor needs equal row/col counts, got {len(ri)} vs {len(ci)}")
    return det(M.submatrix(ri, ci))


# ---------------------------------------------------------------------------
# echelon forms, rank, kernels
# ---------------------------------------------------------------------------


def int_rref(rows: Sequence[Sequence[int]], p: int | None = None) -> tuple[list[list[int]], list[int], int]:
    """Reduced echelon form of an integer matrix given as plain rows:
    (rows, pivots, det).

    Over Q (p None) this is fraction-free Gauss-Jordan elimination: each step
    divides exactly by the previous pivot, entries stay minors of the input,
    and every pivot entry of the result equals the last pivot D. Over F_p the
    entries are reduced mod p and every pivot is scaled to 1, so D = 1. In
    both cases, with `a` the returned rows, the right kernel has one basis
    vector per free column f: v_f = D, v_c = -a[i][f] for the i-th pivot
    column c, zero elsewhere. Pivots are 0-based columns; the input is not
    modified.

    `det` is det(A_P), the determinant of the input's pivot columns, when the
    rank equals the row count, and 0 when it is lower. Over Q it is the sign
    of the row swaps times D: each pivot is the minor of the swapped rows so
    far on the pivot columns so far (Bareiss, 1968). Over F_p it is that sign
    times the product of the pivots before scaling, mod p, since the rest of
    the elimination keeps determinants.
    """
    if p is None:
        a = [list(r) for r in rows]
    else:
        a = [[x % p for x in r] for r in rows]
    height = len(a)
    pivots: list[int] = []
    prev = 1  # the last pivot over Q; the product of the raw pivots mod p
    sign = 1
    for c in range(len(a[0])):
        r = len(pivots)
        if r == height:
            break
        piv = next((i for i in range(r, height) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        pr = a[r]
        if p is None:
            pk = pr[c]
            for i in range(height):
                if i != r:
                    f = a[i][c]
                    a[i] = [(pk * x - f * y) // prev for x, y in zip(a[i], pr)]
            prev = pk
        else:
            prev = prev * pr[c] % p
            inv = pow(pr[c], -1, p)
            pr = a[r] = [x * inv % p for x in pr]
            for i in range(height):
                f = a[i][c]
                if i != r and f:
                    a[i] = [(x - f * y) % p for x, y in zip(a[i], pr)]
        pivots.append(c)
    if len(pivots) < height:
        return a, pivots, 0
    return a, pivots, sign * prev if p is None else sign * prev % p


def rref(M: Matrix) -> tuple[Matrix, tuple[int, ...], int]:
    """Reduced row echelon form: (matrix, 0-based pivot columns, rank).

    Read from the cached `_echelon` form a of the columns scaled by their
    clearing factors m: R[i][j] = a[i][j] m_c / (m_j D), c the pivot of row
    i and D the last pivot (1 over F_p, where m = 1), kept as the ints
    sign(D) a[i][j] m_c over |D| m_j. Rows past the rank are zero.
    """
    a, pivots = M._echelon()
    r = len(pivots)
    D = a[r - 1][pivots[-1]] if pivots else 1
    m = M._factors
    scale = [m[c] if D > 0 else -m[c] for c in pivots] + [0] * (M.rows - r)
    cols = [list(map(mul, col, scale)) for col in zip(*a)]
    return Matrix._from_int_columns(M.field, cols, [abs(D) * x for x in m]), tuple(pivots), r


def int_rank(rows: Sequence[Sequence[int]], p: int | None = None) -> int:
    """Rank of an integer matrix given as plain rows, over Q (p None) or mod p.

    Forward elimination only: no back-substitution, no pivot inverses. Over Q
    it is Bareiss echelon, each step dividing exactly by the previous pivot;
    mod p each row below the pivot becomes pivot * row - factor * pivot row.
    Each step drops the pivot row and the pivot column, so the rows shrink as
    the rank grows. The input is not modified.
    """
    if p is None:
        a = [list(r) for r in rows]
    else:
        a = [[x % p for x in r] for r in rows]
    r = 0
    prev = 1
    while a and a[0]:
        piv = next((i for i, row in enumerate(a) if row[0]), None)
        if piv is None:
            a = [row[1:] for row in a]
            continue
        pr = a.pop(piv)
        pk, tail = pr[0], pr[1:]
        r += 1
        if p is None:
            a = [[(pk * x - row[0] * y) // prev for x, y in zip(row[1:], tail)] for row in a]
            prev = pk
        else:
            a = [[(pk * x - row[0] * y) % p for x, y in zip(row[1:], tail)] if row[0] else row[1:] for row in a]
    return r


def rank(M: Matrix) -> int:
    """Rank of M over its field, by `int_rank` on its `int_columns` taken
    as rows: scaling columns by nonzero constants and transposing both keep
    the rank."""
    return int_rank(M.int_columns, M.field.p)


def _orthogonal(rows: Iterable[Sequence[int]], others: Sequence[Sequence[int]], p: int | None) -> bool:
    """True when every int row is orthogonal to every row of `others`,
    exactly over Q (p None) and mod p over F_p."""
    dots = (sum(map(mul, a, b)) for a in rows for b in others)
    return not any(x % p for x in dots) if p else not any(dots)


#: The prime 2^30 - 35, modulus of the bounds in `certified_rank` over Q. Its
#: residues fit one 30-bit CPython int digit, so their products take the
#: single-digit multiply, about twice as fast as products of 31-bit residues.
CERT_PRIME = (1 << 30) - 35


def certified_rank(rows: list[list[int]], kernel: list[list[int]], p: int | None) -> int:
    """Rank of nonempty int rows over Q (p None) or mod p, read from two
    bounds that meet when the int rows `kernel` span their right kernel and
    the first rows reach the rank.

    Let q be p, or `CERT_PRIME` over Q, and K the matrix of `kernel`:
    - upper bound: once every row annihilates every row of K (exactly over
      Q, mod p over F_p), the rank is at most cap = min(rows, cols - rank K).
      Over F_p that is rank-nullity mod p. Over Q it uses rank_Q K, and
      rank_Q K >= rank_q K, since a minor that is nonzero mod q is nonzero
      over Z, so cols - rank_q K bounds the rank too;
    - lower bound: the rank mod q of any subset of the rows is at most the
      rank of all of them (over Q, by the same minor argument).
    So when the first cap rows have rank cap mod q, the rank is cap, and no
    other row is eliminated. Otherwise the rank comes from the full stack:
    mod p its rank; over Q its rank mod q when that meets cap, else exact
    elimination. When cap is the row count the prefix is the full stack, so
    its rank mod q is that of the full stack and is not taken again. A wrong
    `kernel` or a short prefix costs that fallback, never a wrong rank.
    """
    q = p or CERT_PRIME
    cap = min(len(rows), len(rows[0]) - int_rank(kernel, q)) if _orthogonal(rows, kernel, p) else None
    if cap is not None:
        r = int_rank(rows[:cap], q)
        if r == cap:
            return cap
        if cap == len(rows):
            # r is the full stack's rank mod q, and it is below cap
            return r if p is not None else int_rank(rows)
    if p is not None:
        return int_rank(rows, p)
    if cap is not None and int_rank(rows, q) == cap:
        return cap
    return int_rank(rows)


def kernel_basis(M: Matrix) -> Matrix:
    """Canonical basis of the right kernel of a full-row-rank a x b matrix (a < b).

    Rows of the result are the reduced-echelon kernel basis: one row per free
    column, with an identity block in the free columns. For M = [I | A] the
    result is [-A^t | I]. Raises RankDeficiencyError if rows are dependent,
    ShapeError if a >= b.

    The basis is read from the matrix's cached `_echelon` form: the vector
    of free column f is 1 at f and -R[i][f] at the i-th pivot c_i, R the
    reduced echelon form, so a free column is a unit column. The echelon
    rows a are those of the columns scaled by their clearing factors m, so
    over Q R[i][f] = a[i][f] m_{c_i} / (m_f D), D the last pivot, kept over
    one factor L |D| per pivot column (L the lcm of the free m_f); over F_p
    R = a.
    """
    if M.rows >= M.cols:
        raise ShapeError(f"kernel_basis expects a wide matrix, got {M.shape}")
    a, pivots = M._echelon()
    if len(pivots) < M.rows:
        raise RankDeficiencyError(f"matrix has rank {len(pivots)} < {M.rows} rows")
    p, m = M.field.p, M._factors
    free = [c for c in range(M.cols) if c not in pivots]
    D = a[-1][pivots[-1]]
    L = lcm(*[m[fc] for fc in free])
    # -1 / (m_f D) is the int -(L / m_f) sign(D) over L |D|
    w = [L // m[fc] if D < 0 else -(L // m[fc]) for fc in free]
    cols = [[0] * len(free) for _ in range(M.cols)]
    for i, fc in enumerate(free):
        cols[fc][i] = 1
    for row, c in zip(a, pivots):
        cols[c] = [-row[fc] % p for fc in free] if p else [row[fc] * x * m[c] for fc, x in zip(free, w)]
    return Matrix._from_int_columns(M.field, cols, [1 if c in free else L * abs(D) for c in range(M.cols)])


def _lex_subset_folds(n: int, k: int, start: int, op, weight) -> list[int]:
    """For every k-subset J of range(n), in lexicographic order: `start`
    folded by `op` with weight(j, t) for each j in J, t its position in J.

    Built from the right: the s-sets of columns i.. are i joined to each
    (s-1)-set of columns i+1.., followed by the s-sets of columns i+1..
    """
    acc = [[start]] + [[] for _ in range(k)]
    for i in range(n - 1, -1, -1):
        for s in range(min(k, n - i), max(0, k - i - 1), -1):
            acc[s] = list(map(op, repeat(weight(i, k - s)), acc[s - 1])) + acc[s]
    return acc[k]
