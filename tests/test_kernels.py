"""Exact F_p kernels (det, rank, rref, batched maximal minors) at p = 65521,
checked against the naive oracles through the public `linalg` API."""

import random
from itertools import combinations

from veronese_kit.fields import Field
from veronese_kit.linalg import Matrix, MaximalMinors, det, int_rref, rank, rref
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
        mm = MaximalMinors(M)
        windows = list(combinations(range(1, 8), 4))
        assert len(mm.vector()) == len(windows)
        for J, val in zip(windows, mm.vector()):
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
            assert R.entry(i, c) == 1
            assert all(R.entry(k, c) == 0 for k in range(R.rows) if k != i)
        assert all(x == 0 for row in R.entries[rk:] for x in row)
