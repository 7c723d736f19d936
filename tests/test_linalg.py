import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veronese_kit.configurations import make_config
from veronese_kit.errors import IndexSetError, RankDeficiencyError, ShapeError
from veronese_kit.fields import Field, QQ
from veronese_kit.linalg import (
    Matrix,
    _clear,
    as_index_set,
    complement,
    det,
    int_rref,
    kernel_basis,
    minor,
    rank,
    rref,
    s_index,
)
from veronese_kit.transversal import Hypergraph
from oracles import (
    fp_minor_rank,
    fraction_rref_oracle,
    leibniz_det,
    matrix_is_zero,
    naive_fraction_rank,
    rows_kernel_basis_oracle,
    rows_matmul_oracle,
    rows_rref_oracle,
    subconfig,
    transpose,
)
import veronese_kit.linalg as linalg

FP = Field.prime()
PRIMES = (101, 65521)


def rand_matrix(field, rng, rows, cols, height=30):
    return Matrix(field, [[field.random_scalar(rng, height) for _ in range(cols)] for _ in range(rows)])


def random_ints(rng, rows, cols, lo=-50, hi=50):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


# -- index sets ---------------------------------------------------------------


def test_index_set_validation():
    assert as_index_set([2, 5, 9]) == (2, 5, 9)
    with pytest.raises(IndexSetError):
        as_index_set([2, 2, 3])
    with pytest.raises(IndexSetError):
        as_index_set([0, 1])
    with pytest.raises(IndexSetError):
        as_index_set([])
    with pytest.raises(IndexSetError):
        as_index_set([1, 7], ground=6)
    with pytest.raises(IndexSetError):
        as_index_set([1, 2], size=3)


@pytest.mark.parametrize(
    "build, bad",
    [
        (lambda: Hypergraph(5, 3, [[1.5, 2, 3]]), "1.5"),
        (lambda: Hypergraph(5, 3, [["1", 2, 3]]), "'1'"),
        (lambda: Hypergraph(5, 3, [[True, 2, 3]]), "True"),
        (lambda: subconfig(make_config(QQ, 2, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]), [1.9, 2, 3]), "1.9"),
    ],
    ids=["float-edge", "str-edge", "bool-edge", "float-subconfig"],
)
def test_index_set_rejects_non_int_entries(build, bad):
    with pytest.raises(IndexSetError, match=f"index {bad} in"):
        build()


def test_complement():
    assert complement((1, 3), 5) == (2, 4, 5)


def test_s_index_hand_values():
    # worked examples: {1,4,5} in any ground set, {4,5,6}, initial segments
    assert s_index((1, 4, 5)) == 4
    assert s_index((4, 5, 6)) == 9
    assert s_index((1, 2, 3)) == 0
    assert s_index((2,)) == 1


@given(st.sets(st.integers(1, 12), min_size=1, max_size=11))
def test_s_index_complement_identity(I):
    # S_I + S_{I^c} = w(n-w) on ground [12]
    I = tuple(sorted(I))
    w = len(I)
    assert s_index(I) + s_index(complement(I, 12)) == w * (12 - w)


# -- determinants -------------------------------------------------------------


def test_det_q_matches_leibniz():
    rng = random.Random(2)
    for _ in range(30):
        n = rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)] for _ in range(n)]
        assert det(Matrix(QQ, rows)) == leibniz_det(rows)


def test_det_fp_matches_leibniz():
    for p in PRIMES:
        F = Field.prime(p)
        rng = random.Random(3)
        for _ in range(60):
            n = rng.randint(1, 5)
            rows = random_ints(rng, n, n)
            assert det(Matrix(F, rows)) == leibniz_det(rows) % p
        assert det(Matrix(F, [[1, 2, 3], [2, 4, 6], [0, 1, 5]])) == 0


@settings(max_examples=40)
@given(st.integers(2, 4), st.integers(0, 10**6))
def test_det_multiplicative(n, seed):
    rng = random.Random(seed)
    a = rand_matrix(QQ, rng, n, n, 8)
    b = rand_matrix(QQ, rng, n, n, 8)
    assert det(a.matmul(b)) == det(a) * det(b)


@pytest.mark.parametrize("field", (QQ, Field.prime(101)), ids=str)
def test_matmul_matches_triple_loop(field):
    rng = random.Random(29)
    for _ in range(30):
        a, b, c = (rng.randint(1, 5) for _ in range(3))
        A = [[_random_entry(field, rng) for _ in range(b)] for _ in range(a)]
        B = [[_random_entry(field, rng) for _ in range(c)] for _ in range(b)]
        expected = []
        for i in range(a):
            row = []
            for j in range(c):
                acc = field.zero
                for t in range(b):
                    acc = field.add(acc, field.mul(A[i][t], B[t][j]))
                row.append(acc)
            expected.append(tuple(row))
        product = Matrix(field, A).matmul(Matrix(field, B))
        assert product.entries == tuple(expected)
        # canonical scalars: Fractions over Q, residues in [0, p) over F_p
        assert all(type(x) is type(field.zero) for row in product.entries for x in row)
        assert field.p is None or all(0 <= x < field.p for row in product.entries for x in row)


def test_det_transpose_invariant():
    rng = random.Random(17)
    m = rand_matrix(FP, rng, 5, 5)
    assert det(m) == det(transpose(m))


def test_det_rejects_nonsquare():
    with pytest.raises(ShapeError):
        det(Matrix(QQ, [[1, 2, 3], [4, 5, 6]]))


def test_minor_is_submatrix_det():
    rng = random.Random(4)
    m = rand_matrix(QQ, rng, 4, 6, 9)
    assert minor(m, (1, 3, 4), (2, 5, 6)) == det(m.submatrix((1, 3, 4), (2, 5, 6)))
    with pytest.raises(ShapeError):
        minor(m, (1, 2), (1, 2, 3))


# -- rank / rref / kernel ------------------------------------------------------


def test_rank_matches_oracle_both_fields():
    rng = random.Random(6)
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        ints = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        expected = naive_fraction_rank(ints)
        assert rank(Matrix(QQ, ints)) == expected
        assert rank(Matrix(FP, ints)) == expected
        # rows scaled by nonzero fractions keep the rank over Q
        scaled = [[Fraction(x, i + 2) for x in row] for i, row in enumerate(ints)]
        assert rank(Matrix(QQ, scaled)) == expected
        if rows <= cols:
            assert Matrix(QQ, scaled).echelon_rank() == expected
            assert Matrix(FP, ints).echelon_rank() == expected
    for p in PRIMES:
        F = Field.prime(p)
        for _ in range(40):
            m = random_ints(rng, rng.randint(1, 6), rng.randint(1, 6), -6, 6)
            # reduction mod p can only lower the rational rank
            assert rank(Matrix(F, m)) == fp_minor_rank(m, p) <= naive_fraction_rank(m)
        # an outer product of residues nonzero mod p has rank one
        u = [rng.randint(1, 100) for _ in range(5)]
        v = [rng.randint(1, 100) for _ in range(7)]
        assert rank(Matrix(F, [[a * b for b in v] for a in u])) == 1


@pytest.mark.parametrize("field", [QQ] + [Field.prime(p) for p in PRIMES], ids=repr)
def test_input_not_mutated(field):
    rows = [[3, 1], [4, 1]]
    m = Matrix(field, rows)
    det(m), rref(m), rank(m), m.maximal_minors()
    assert m == Matrix(field, rows)
    int_rref(rows, field.p)
    assert rows == [[3, 1], [4, 1]]


def test_q_rref_and_kernel_match_fraction_oracle():
    rng = random.Random(14)
    for t in range(200):
        height, width = rng.randint(1, 6), rng.randint(1, 9)
        k = rng.randint(0, min(height, width))
        # rational low-rank products; some rows zeroed, so deficient ranks are common
        u = [[Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(k)] for _ in range(height)]
        v = [[Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(width)] for _ in range(k)]
        rows = [[sum((u[i][s] * v[s][j] for s in range(k)), Fraction(0)) for j in range(width)] for i in range(height)]
        if t % 4 == 0:
            rows[rng.randrange(height)] = [0] * width
        m = Matrix(QQ, rows)
        a, pivots, r = fraction_rref_oracle(rows)
        assert rref(m) == (Matrix(QQ, a), tuple(pivots), r)
        if height >= width:
            continue
        if r < height:
            with pytest.raises(RankDeficiencyError):
                kernel_basis(m)
            continue
        free = [c for c in range(width) if c not in pivots]
        expected = [[1 if c == f else 0 for c in range(width)] for f in free]
        for vec, f in zip(expected, free):
            for i, c in enumerate(pivots):
                vec[c] = -a[i][f]
        assert kernel_basis(m) == Matrix(QQ, expected)


def test_int_rref_rank_pivots_and_kernel():
    rng = random.Random(12)
    for _ in range(300):
        rows, cols = rng.randint(1, 6), rng.randint(1, 9)
        k = rng.randint(0, min(rows, cols))
        # low-rank products, so rank-deficient inputs and skipped columns are common
        u = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(rows)]
        v = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(k)]
        ints = [[sum(u[i][t] * v[t][j] for t in range(k)) for j in range(cols)] for i in range(rows)]
        for p in (None, 101, 7):
            a, pivots, _ = int_rref(ints, p)
            D = a[len(pivots) - 1][pivots[-1]] if pivots else 1
            assert all(a[i][c] == D for i, c in enumerate(pivots))
            if p is None:
                assert len(pivots) == naive_fraction_rank(ints)
                assert tuple(pivots) == rref(Matrix(QQ, ints))[1]
            else:
                assert D == 1 and len(pivots) == rank(Matrix(Field.prime(p), ints))
            # the documented kernel vectors annihilate the input
            for f in set(range(cols)) - set(pivots):
                vec = [0] * cols
                vec[f] = D
                for i, c in enumerate(pivots):
                    vec[c] = -a[i][f]
                for row in ints:
                    total = sum(x * y for x, y in zip(row, vec))
                    assert (total if p is None else total % p) == 0


def test_rref_reproduces_row_space():
    rng = random.Random(8)
    m = rand_matrix(QQ, rng, 3, 5, 7)
    R, piv, r = rref(m)
    stacked = Matrix(QQ, list(m.entries) + list(R.entries))
    assert rank(stacked) == r == rank(m)
    assert len(piv) == r
    rng = random.Random(23)
    for p in PRIMES:
        F = Field.prime(p)
        for _ in range(30):
            m = Matrix(F, random_ints(rng, rng.randint(2, 6), rng.randint(2, 7)))
            R, piv, r = rref(m)
            assert list(piv) == sorted(piv) and len(piv) == r == rank(m)
            # pivot columns are unit vectors; rows past the rank are zero
            for i, c in enumerate(piv):
                assert R.column(c) == tuple(1 if k == i else 0 for k in range(R.rows))
            assert all(not any(row) for row in R.entries[r:])
            assert rank(Matrix(F, list(m.entries) + list(R.entries))) == r


def test_kernel_basis_annihilates():
    rng = random.Random(9)
    for field in (QQ, FP):
        for _ in range(10):
            a = rng.randint(1, 4)
            b = a + rng.randint(1, 4)
            m = rand_matrix(field, rng, a, b, 10)
            if rank(m) < a:
                continue
            B = kernel_basis(m)
            assert B.shape == (b - a, b)
            assert rank(B) == b - a
            assert matrix_is_zero(m.matmul(transpose(B)))


def test_kernel_basis_echelon_block_form():
    # [I | A] must produce [-A^t | I]
    a_block = [[1, 2], [3, 4], [5, 6]]
    m = Matrix(QQ, [[1, 0, 0, 1, 2], [0, 1, 0, 3, 4], [0, 0, 1, 5, 6]])
    B = kernel_basis(m)
    expected = Matrix(QQ, [[-1, -3, -5, 1, 0], [-2, -4, -6, 0, 1]])
    assert B == expected
    assert [row[:3] for row in B.entries] == [
        tuple(-Fraction(a_block[i][j]) for i in range(3)) for j in range(2)
    ]


def test_kernel_basis_rank_deficient_raises():
    with pytest.raises(RankDeficiencyError):
        kernel_basis(Matrix(QQ, [[1, 2, 3], [2, 4, 6]]))
    with pytest.raises(ShapeError):
        kernel_basis(Matrix(QQ, [[1, 2], [3, 4]]))


# -- int-column ops against row-built references ---------------------------------


def _fraction_column_rows(field, rng, height, width):
    """A seeded height x width matrix of low rank: a product of small random
    ints, some rows zeroed, and over Q column j divided by a random
    denominator, so clearing factors above 1 are common."""
    k = rng.randint(0, min(height, width))
    u = random_ints(rng, height, k, -4, 4)
    v = random_ints(rng, k, width, -4, 4)
    rows = [[sum(u[i][t] * v[t][j] for t in range(k)) for j in range(width)] for i in range(height)]
    if rng.random() < 0.2:
        rows[rng.randrange(height)] = [0] * width
    if field.p is None:
        dens = [rng.choice((1, 1, 2, 3, 4, 6, 35)) for _ in range(width)]
        rows = [[Fraction(x, den) for x, den in zip(row, dens)] for row in rows]
    return rows


def _assert_same_scalars(got, want):
    """Equal rows of scalars, each entry of the same type: `Fraction` over Q,
    int over F_p."""
    got, want = tuple(map(tuple, got)), tuple(map(tuple, want))
    assert got == want
    assert [type(x) for row in got for x in row] == [type(x) for row in want for x in row]


@pytest.mark.parametrize("field", [QQ, Field.prime(101), Field.prime(65521)], ids=repr)
def test_int_column_ops_match_row_built_references(field):
    rng = random.Random(36)
    negative_pivot = fraction_factor = kernels = 0
    shapes = [(rng.randint(1, 5), rng.randint(1, 8)) for _ in range(150)] + [(3, 4), (1, 1), (4, 2)]
    for t, (height, width) in enumerate(shapes):
        # the last three are all zero
        rows = _fraction_column_rows(field, rng, height, width) if t < 150 else [[0] * width] * height
        want = [tuple(map(field.normalize, row)) for row in rows]
        M = Matrix(field, rows)
        fraction_factor += max(M._factors) > 1
        _assert_same_scalars(M.entries, want)
        j = rng.randrange(width)
        _assert_same_scalars([M.column(j)], [tuple(row[j] for row in want)])
        ri = sorted(rng.sample(range(1, height + 1), rng.randint(1, height)))
        ci = sorted(rng.sample(range(1, width + 1), rng.randint(1, width)))
        _assert_same_scalars(M.submatrix(ri, ci).entries, [[want[i - 1][j - 1] for j in ci] for i in ri])
        N = Matrix(field, _fraction_column_rows(field, rng, width, rng.randint(1, 5)))
        _assert_same_scalars(M.matmul(N).entries, rows_matmul_oracle(M, N))
        R, pivots, r = rref(Matrix(field, rows))
        want_R, want_pivots, want_r = rows_rref_oracle(M)
        _assert_same_scalars(R.entries, want_R)
        assert (pivots, r) == (want_pivots, want_r)
        if field.p is None:
            a, oracle_pivots, _ = fraction_rref_oracle(rows)
            assert R.entries == tuple(map(tuple, a)) and list(pivots) == oracle_pivots
            echelon, echelon_pivots = M._echelon()
            negative_pivot += bool(echelon_pivots) and echelon[len(echelon_pivots) - 1][echelon_pivots[-1]] < 0
        if height < width and r == height:
            kernels += 1
            B = kernel_basis(M)
            _assert_same_scalars(B.entries, rows_kernel_basis_oracle(M))
            assert matrix_is_zero(M.matmul(transpose(B)))
    assert kernels >= 20
    if field.p is None:
        assert negative_pivot >= 10 and fraction_factor >= 50


def test_rref_of_an_eliminated_matrix_runs_no_elimination(monkeypatch):
    calls = []
    real = linalg.int_rref
    monkeypatch.setattr(linalg, "int_rref", lambda rows, p=None: calls.append(p) or real(rows, p))
    for field in (QQ, FP):
        M = Matrix(field, [[Fraction(1, 2), 3, 5, 7], [2, Fraction(-4, 3), 1, 0], [0, 1, 1, 1]])
        kernel_basis(M)
        assert calls == [field.p]
        R, pivots, r = rref(M)
        rref(M)
        assert calls == [field.p] and (pivots, r) == ((0, 1, 2), 3)
        calls.clear()


# -- cached maximal minors -----------------------------------------------------


def test_maximal_minors_match_minor():
    rng = random.Random(12)
    for field in (QQ, FP):
        m = rand_matrix(field, rng, 3, 6, 9)
        assert m.maximal_minor((1, 4, 6)) == minor(m, (1, 2, 3), (1, 4, 6))
        assert m.maximal_minor((2, 3, 5)) == minor(m, (1, 2, 3), (2, 3, 5))
    # single F_p minors, read from fresh matrices and in shuffled order from one
    # matrix, match the Leibniz oracle and maximal_minors(); residues near p included
    subsets = list(combinations(range(1, 9), 4))
    for p in PRIMES:
        m = Matrix(Field.prime(p), [[p - rng.randint(1, 50) for _ in range(8)] for _ in range(4)])
        expected = [leibniz_det([[row[j - 1] for j in J] for row in m.entries]) % p for J in subsets]
        assert [Matrix(m.field, m.entries).maximal_minor(J) for J in subsets] == expected
        order = rng.sample(range(len(subsets)), len(subsets))
        assert all(m.maximal_minor(subsets[t]) == expected[t] for t in order)
        assert m.maximal_minors() == tuple(expected)


def test_maximal_minors_vector_cross_field():
    # integer matrix: Q minors reduced mod p equal the F_p minors
    rng = random.Random(13)
    ints = [[rng.randint(-20, 20) for _ in range(7)] for _ in range(3)]
    vq = Matrix(QQ, ints).maximal_minors()
    vp = Matrix(FP, ints).maximal_minors()
    assert [int(x) % FP.p for x in vq] == list(vp)


def test_maximal_minors_q_with_denominators():
    m = Matrix(QQ, [[Fraction(1, 2), Fraction(1, 3), 1, 2], [0, Fraction(2, 5), 1, 1]])
    for J in ((1, 2), (1, 3), (2, 4), (3, 4)):
        assert m.maximal_minor(J) == minor(m, (1, 2), J)


def _clear_by_formula(xs):
    """Q clearing by the general formula, with no integer fast path."""
    m = lcm(*(x.denominator for x in xs))
    return [x.numerator * (m // x.denominator) for x in xs], m


@pytest.mark.parametrize(
    "column",
    [
        [],
        [0],
        [3, -4, 0, 7, 10**30],
        [Fraction(1, 2), Fraction(-5, 7), Fraction(3, 14)],
        [1, Fraction(2, 3), -7, 0, Fraction(-1, 6)],
        [Fraction(4, 2), Fraction(-9, 3), 5],
        [Fraction(1, 2**80), 3],
    ],
    ids=repr,
)
def test_clear_matches_the_formula(column):
    xs = [QQ.normalize(x) for x in column]
    ints, m = _clear(xs, None)
    assert (ints, m) == _clear_by_formula(xs)
    assert all(type(v) is int for v in ints)
    assert [Fraction(v, m) for v in ints] == xs
    for p in PRIMES:
        residues = [Field.prime(p).normalize(x) for x in column if not isinstance(x, Fraction)]
        out, one = _clear(residues, p)
        assert out is residues and one == 1


# -- all maximal minors from one echelon form ------------------------------------

ALL_FIELDS = (QQ, Field.prime(7), Field.prime(101), Field.prime(65521))


def _random_entry(field, rng):
    # small integers over F_p meet accidental zeros at p = 7; Q entries carry denominators
    if field.kind == "Q":
        return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 5)))
    return rng.randrange(field.p) if rng.random() < 0.7 else rng.randint(0, 3)


def _vector_cases(field, rng):
    """Named matrices: full rank at k = 1, n - 1 and n, rank-deficient, zero and
    repeated columns, and dependent leading columns (pivots other than 1..k)."""
    def rand(k, n):
        return [[_random_entry(field, rng) for _ in range(n)] for _ in range(k)]

    shapes = ((1, 1), (1, 5), (2, 6), (3, 7), (4, 8), (5, 8), (2, 3), (4, 5), (3, 3), (4, 4))
    cases = {f"random {k}x{n}": rand(k, n) for k, n in shapes}
    m = rand(3, 6)
    cases["dependent row"] = m[:2] + [[2 * x - y for x, y in zip(m[0], m[1])]]
    cases["zero row"] = rand(2, 5) + [[0] * 5]
    m = rand(2, 3)
    cases["rank-deficient square"] = m + [[x + y for x, y in zip(m[0], m[1])]]
    m = rand(3, 7)
    cases["zero column"] = [row[:2] + [0] + row[3:] for row in m]
    cases["repeated columns"] = [row[:4] + [row[1], row[4]] + row[5:6] for row in m]
    m = rand(3, 7)
    # column 2 is 3 times column 1, column 3 their sum: pivots skip 2 and 3
    cases["dependent leading columns"] = [[r[0], 3 * r[0], 4 * r[0]] + r[3:] for r in m]
    m = rand(4, 6)
    cases["only trailing columns independent"] = [[0, 0] + r[2:] for r in m]
    return cases


@pytest.mark.parametrize("field", ALL_FIELDS, ids=str)
def test_vector_matches_get_and_leibniz(field):
    rng = random.Random(71 + (field.p or 0))
    for name, entries in _vector_cases(field, rng).items():
        M = Matrix(field, entries)
        k, n = M.shape
        subsets = list(combinations(range(1, n + 1), k))
        expected = []
        for J in subsets:
            v = leibniz_det([[row[j - 1] for j in J] for row in M.entries])
            expected.append(field.normalize(v))
        assert M.maximal_minors() == tuple(expected), name
        # `Fraction`s over Q, residues in [0, p) over F_p, as `maximal_minor` gives them
        assert all(type(v) is type(field.zero) for v in M.maximal_minors()), name
        assert [Matrix(field, entries).maximal_minor(J) for J in subsets] == expected, name
        assert M.echelon_rank() == rank(M), name


@pytest.mark.parametrize("field", ALL_FIELDS, ids=str)
def test_vector_matches_get_on_sampled_configurations(field):
    from veronese_kit.configurations import sample_degenerate, sample_generic, sample_on_rnc

    for sampler in (sample_on_rnc, sample_generic, sample_degenerate):
        # the curve over F_7 has only 8 points, so its shapes stay small
        for d, n in ((2, 6), (3, 7)) if field.p == 7 else ((2, 7), (3, 8), (4, 9)):
            p = sampler(field, d, n, seed=d + n, height=9)
            M = p.coords
            subsets = combinations(range(1, n + 1), d + 1)
            assert M.maximal_minors() == tuple(M.maximal_minor(J) for J in subsets)



# -- matrices kept as int columns -----------------------------------------------


def _int_column_cases(field, rng):
    """(int columns, clearing factors) pairs: integers of up to 10^6 over Q,
    residues over F_p, zero columns and zero rows included, all of factor 1;
    over Q also the same shapes over prime factors above 1 (1 for a zero
    column), each column holding an entry the factor does not divide, so
    `_clear` of its fractions gives them back."""
    for k, n in ((1, 1), (1, 4), (2, 5), (3, 7), (4, 8), (4, 4), (3, 6)):
        entry = (lambda: rng.randint(-(10**6), 10**6)) if field.p is None else (lambda: rng.randrange(field.p))
        cols = [[entry() for _ in range(k)] for _ in range(n)]
        if n > 2:
            cols[1] = [0] * k
        if k > 2:
            for col in cols:
                col[-1] = 0
        yield cols, (1,) * n
        if field.p is None:
            factors = tuple(rng.choice((2, 3, 5, 7, 11)) if any(c) else 1 for c in cols)
            for c, m in zip(cols, factors):
                if not any(x % m for x in c):
                    c[0] += 1
            yield cols, factors


@pytest.mark.parametrize("field", ALL_FIELDS, ids=str)
def test_int_column_matrix_matches_the_normalized_one(field):
    rng = random.Random(79 + (field.p or 0))
    seen = set()
    for cols, factors in _int_column_cases(field, rng):
        k, n = len(cols[0]), len(cols)
        old = Matrix.from_columns(field, [[field.normalize(Fraction(x, m)) for x in c] for c, m in zip(cols, factors)])
        new = Matrix._from_int_columns(field, cols, factors)
        assert new.shape == old.shape
        # the minors first: they read the int columns, not the entries
        assert list(map(tuple, new.int_columns)) == list(map(tuple, old.int_columns))
        assert tuple(new._factors) == tuple(old._factors) == factors
        assert new.maximal_minors() == old.maximal_minors()
        for J in combinations(range(1, n + 1), k):
            got, want = new.maximal_minor(J), old.maximal_minor(J)
            assert got == want and type(got) is type(want)
        assert [[(type(x), x) for x in row] for row in new.entries] == [
            [(type(x), x) for x in row] for row in old.entries
        ]
        assert new == old and hash(new) == hash(old)
        seen.add(max(factors) > 1)
    assert seen == ({False, True} if field.p is None else {False})


def test_int_column_matrix_checks_its_shape():
    for cols, message in (([], "nonempty"), ([[]], "nonempty"), ([[1, 2], [3]], "ragged")):
        with pytest.raises(ShapeError, match=message):
            Matrix._from_int_columns(QQ, cols)
