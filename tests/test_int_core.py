"""Exact F_p kernels (det, rank, rref, batched maximal minors) at p = 65521,
checked against the naive oracles through the public `linalg` API, the
forward-only `int_rank` checked against `int_rref` over Q, F_101 and F_65521,
and the pivot-column determinant of `int_rref` checked against Bareiss
determinants over Q, F_7, F_101 and F_65521."""

import random
from itertools import combinations

import pytest

import veronese_kit.linalg as linalg
from veronese_kit.fields import QQ, Field
from veronese_kit.linalg import Matrix, _bareiss_det_int, det, int_rank, int_rref, rank, rref
from oracles import leibniz_det, naive_fraction_rank

P = 65521
FP = Field.prime(P)


def random_mat(rng, rows, cols, lo=-50, hi=50):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def fp_matrix(rows):
    return Matrix(FP, [[x % P for x in row] for row in rows])


def test_det_matches_leibniz_oracle():
    rng = random.Random(101)
    for _ in range(60):
        n = rng.randint(1, 5)
        rows = random_mat(rng, n, n)
        assert det(fp_matrix(rows)) == leibniz_det(rows) % P


def test_det_singular():
    assert det(fp_matrix([[1, 2, 3], [2, 4, 6], [0, 1, 5]])) == 0


def test_batch_det_matches_scalar_det():
    # every maximal minor of a wide matrix is the det of its column window
    rng = random.Random(7)
    for _ in range(5):
        M = fp_matrix(random_mat(rng, 4, 7))
        windows = list(combinations(range(1, 8), 4))
        assert len(M.maximal_minors()) == len(windows)
        for J, val in zip(windows, M.maximal_minors()):
            assert val == det(M.select_columns(J))


def test_rank_matches_fraction_oracle():
    rng = random.Random(5)
    for _ in range(40):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = random_mat(rng, rows, cols, -6, 6)
        # small entries keep the mod-p rank equal to the true rank
        expected = naive_fraction_rank(m)
        assert rank(fp_matrix(m)) == expected
        assert len(int_rref([[x % P for x in row] for row in m], P)[1]) == expected


def test_rank_of_outer_product_is_one():
    rng = random.Random(11)
    u = [rng.randint(1, 100) for _ in range(5)]
    v = [rng.randint(1, 100) for _ in range(7)]
    assert rank(fp_matrix([[a * b for b in v] for a in u])) == 1


def test_rref_structure():
    rng = random.Random(23)
    for _ in range(30):
        M = fp_matrix(random_mat(rng, rng.randint(2, 6), rng.randint(2, 7)))
        R, piv, rk = rref(M)
        assert rk == len(piv)
        assert sorted(piv) == list(piv)
        for i, c in enumerate(piv):
            assert R.entries[i][c] == 1
            assert all(R.entries[k][c] == 0 for k in range(R.rows) if k != i)
        assert all(x == 0 for row in R.entries[rk:] for x in row)


def deficient_mat(rng, rows, cols):
    """A rows x cols matrix built to lose rank: combinations of a few base
    rows, a repeated row and a zeroed column."""
    base = random_mat(rng, rng.randint(1, max(1, rows - 1)), cols, -9, 9)
    m = [[sum(c * b[j] for c, b in zip(coeffs, base)) for j in range(cols)]
         for coeffs in (random_mat(rng, 1, len(base), -3, 3)[0] for _ in range(rows))]
    if rows > 1:
        m[rng.randrange(rows)] = list(m[rng.randrange(rows)])
    zero = rng.randrange(cols)
    for row in m:
        row[zero] = 0
    return m


@pytest.mark.parametrize("p", [None, 101, 65521], ids=["Q", "F_101", "F_65521"])
def test_int_rank_matches_int_rref(p):
    # F_101 with entries up to 10^4 hits accidental zeros mod p
    rng = random.Random(31 if p is None else p)
    cases = []
    for _ in range(60):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        cases.append(random_mat(rng, rows, cols, -10**4, 10**4))
        cases.append(random_mat(rng, rows, cols, -2, 2))
        cases.append(deficient_mat(rng, rows, cols))
    for k in range(1, 7):
        cases += [random_mat(rng, 1, k), random_mat(rng, k, 1), [[0] * k], [[0]] * k]
    cases += [[[0, 0], [0, 0]], [[3, 5], [6, 10]], [[0, 1], [0, 2]], [[101, 202], [1, 3]]]
    for m in cases:
        copy = [list(row) for row in m]
        assert int_rank(m, p) == len(int_rref(m, p)[1]), m
        assert m == copy


def _swap_heavy(rng, rows, cols, height):
    """Random int rows with zero columns, leading zeros and dependent rows, so
    skipped columns, row swaps and deficient ranks are all common."""
    m = [[rng.randint(-height, height) for _ in range(cols)] for _ in range(rows)]
    for r in rng.sample(range(rows), rng.randint(0, rows)):
        lead = rng.randint(0, cols)
        m[r][:lead] = [0] * lead
    if rng.random() < 0.3:
        c = rng.randrange(cols)
        for row in m:
            row[c] = 0
    if rows > 1 and rng.random() < 0.2:
        m[-1] = [x - 2 * y for x, y in zip(m[0], m[1 % rows])]
    return m


@pytest.mark.parametrize("p", [None, 7, 101, 65521], ids=str)
def test_int_rref_det_is_the_determinant_of_the_pivot_columns(p):
    rng = random.Random(29 + (p or 0))
    signs, full, deficient = set(), 0, 0
    for _ in range(1000):
        rows, cols = rng.randint(1, 6), rng.randint(1, 8)
        m = _swap_heavy(rng, rows, cols, rng.choice((3, 100, 10**6)))
        a, pivots, g = int_rref(m, p)
        if len(pivots) < rows:
            # the contract on deficient ranks: no determinant, 0
            assert g == 0, m
            deficient += 1
            continue
        full += 1
        expected = _bareiss_det_int([[row[c] for c in pivots] for row in m])
        if p is None:
            assert g == expected, m
            D = a[-1][pivots[-1]]
            assert g in (D, -D), m
            signs.add(g // D)
        else:
            assert g == expected % p and g != 0, m
    assert full > 300 and deficient > 300
    if p is None:
        # both parities of row swaps were met
        assert signs == {1, -1}


@pytest.mark.parametrize("field", [QQ, Field.prime(7), Field.prime(101), FP], ids=str)
def test_pivot_scale_reads_the_elimination(monkeypatch, field):
    rng = random.Random(37 + (field.p or 0))
    bareiss = linalg._bareiss_det_int
    calls = []
    monkeypatch.setattr(linalg, "_bareiss_det_int", lambda rows: calls.append(rows) or bareiss(rows))
    checked = 0
    for _ in range(200):
        k = rng.randint(1, 5)
        m = _swap_heavy(rng, k, k + rng.randint(0, 4), 10**6)
        mm = Matrix(field, m)
        a, pivots = mm._echelon()
        if len(pivots) < k:
            continue
        calls.clear()
        g = mm._pivot_map[2]
        assert calls == []
        A_P = [[row[c] for c in pivots] for row in zip(*mm.int_columns)]
        if field.p:
            assert g == bareiss(A_P) % field.p
        else:
            assert g in (1, -1) and g * a[-1][pivots[-1]] == bareiss(A_P)
        checked += 1
    assert checked > 50
