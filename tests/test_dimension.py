"""The chart Jacobian behind `dimension_estimate`, its blocks and their certified rank.

Each row of the Jacobian holds the first-order partials (the 1-jet) of one
affine coordinate y_r / y_0 of a curve point y = g . (1, t, ..., t^d). The
oracle `chart_jacobian` writes them in closed form; the tests here build the
same rational function as exponent-dict polynomials and differentiate it
formally with `poly_partial` and the quotient rule. `dimension_estimate`
never builds the whole Jacobian: it ranks the Schur complement S of the
shared Vandermonde block (`_schur_complement`), whose banded left kernel
(`_left_kernel_band`) and restricted gl_2 kernel vectors are checked here.
Its rank is checked against `jacobian_rank_oracle`, the full Gauss-Jordan
elimination of the Jacobian, and `certified_rank`, which ranks only the first
n + d - 3 rows of S, against the forward rank of all of S.
"""

import random
from fractions import Fraction

import pytest
from cli_runner import invoke
from oracles import (
    chart_jacobian,
    jacobian_rank_oracle,
    left_kernel_band_oracle,
    matrix_is_zero,
    poly_eval,
    poly_partial,
    transpose,
)

from veronese_kit import configurations, linalg
from veronese_kit.configurations import (
    _distinct_affine_params,
    _gl2_kernel,
    _left_kernel_band,
    _schur_complement,
    dimension_estimate,
)
from veronese_kit.fields import Field, QQ
from veronese_kit.linalg import Matrix, _clear, certified_rank, int_rank, int_rref

FIELDS = (QQ, Field.prime(101), Field.prime(65521))
BLOCK_FIELDS = (QQ, Field.prime(7), Field.prime(101), Field.prime(65521))


def core_ints(field, xs):
    """Integer scalars over Q and residues over F_p as the ints the block builder takes."""
    return [field.normalize(x).numerator for x in xs]


def draw(field, d, n, rng):
    """g and distinct t as in `dimension_estimate`, as field scalars."""
    g = [field.random_scalar(rng, 30) for _ in range((d + 1) ** 2)]
    return g, [a for _, a in _distinct_affine_params(field, n, rng, 30)]


def band_rows(d, n, bands):
    """The full n-wide rows of U from the bands of `_left_kernel_band`."""
    return [[0] * j + band + [0] * (n - j - d - 2) for j, band in enumerate(bands)]


def coordinate_polys(d, n, i):
    """y_0..y_d of point i as polynomials in (g_00, ..., g_dd, t_1, ..., t_n)."""
    w = d + 1
    polys = []
    for r in range(w):
        poly = {}
        for k in range(w):
            expo = [0] * (w * w + n)
            expo[r * w + k] = 1
            expo[w * w + i] = k
            poly[tuple(expo)] = 1
        polys.append(poly)
    return polys


def quotient_rule_rows(field, d, g_vals, t_vals):
    """Oracle rows: partials of y_r / y_0 over Q by the quotient rule, read in `field`."""
    point = list(g_vals) + list(t_vals)
    rows = []
    for i in range(len(t_vals)):
        den_poly, *num_polys = coordinate_polys(d, len(t_vals), i)
        den = poly_eval(den_poly, point)
        if field.normalize(den) == 0:
            return None
        for num_poly in num_polys:
            num = poly_eval(num_poly, point)
            row = []
            for v in range(len(point)):
                dnum = poly_eval(poly_partial(num_poly, v), point)
                dden = poly_eval(poly_partial(den_poly, v), point)
                row.append(field.normalize((dnum * den - num * dden) / den**2))
            rows.append(row)
    return rows


def test_polynomial_partials_match_formal_derivative():
    rng = random.Random(42)
    for field in FIELDS:
        for d in range(1, 5):
            for n in (1, d + 3):
                for _ in range(3):
                    g = [field.random_scalar(rng, 20) for _ in range((d + 1) ** 2)]
                    t = [field.random_scalar(rng, 20) for _ in range(n)]
                    assert chart_jacobian(field, d, g, t) == quotient_rule_rows(field, d, g, t)


def test_quotient_rule():
    # d = 1, g = [[1, 2], [3, 4]]: y_0 = 1 + 2t, y_1 = 3 + 4t.
    # At t = 5: y = (11, 23), y' = (2, 4); at t = 0: y = (1, 3), y' = (2, 4).
    g = [QQ.normalize(x) for x in (1, 2, 3, 4)]
    rows = chart_jacobian(QQ, 1, g, [QQ.normalize(5), QQ.zero])
    F = Fraction
    assert rows == [
        [F(-23, 121), F(-115, 121), F(1, 11), F(5, 11), F(4 * 11 - 23 * 2, 121), 0],
        [-3, 0, 1, 0, 0, 4 * 1 - 3 * 2],
    ]


def test_variable_and_constant():
    d = 3
    ng = (d + 1) ** 2
    for field in FIELDS:
        ts = [field.normalize(2), field.normalize(7)]
        # g = I: the coordinates are the powers t^r, whose derivative is r t^(r-1)
        ident = [field.one if r == k else field.zero for r in range(d + 1) for k in range(d + 1)]
        rows = chart_jacobian(field, d, ident, ts)
        for i, t in enumerate((2, 7)):
            for r in range(1, d + 1):
                row = rows[i * d + r - 1]
                assert row[ng + i] == field.normalize(r * t ** (r - 1))
                assert row[ng + 1 - i] == 0
        # rows of g proportional to row 0: every coordinate is a constant
        g = [field.normalize(c * x) for c in (1, 2, 5, 9) for x in (3, 1, 4, 1)]
        rows = chart_jacobian(field, d, g, ts)
        assert all(row[ng] == row[ng + 1] == 0 for row in rows)


def test_division_by_zero_value(monkeypatch):
    # y_0 = 2 + t vanishes at t = -2, so that point lies off the chart
    for field in FIELDS:
        g = [field.normalize(x) for x in (2, 1, 0, 1)]
        t_on, t_off = field.normalize(3), field.normalize(-2)
        assert chart_jacobian(field, 1, g, [t_on]) is not None
        assert chart_jacobian(field, 1, g, [t_off]) is None
        assert chart_jacobian(field, 1, g, [t_on, t_off]) is None
        gi = core_ints(field, g)
        assert _schur_complement(1, gi, core_ints(field, [t_on]), field.p) == []
        assert _schur_complement(1, gi, core_ints(field, [t_off]), field.p) is None
        assert _schur_complement(1, gi, core_ints(field, [t_on, t_off]), field.p) is None

    # dimension_estimate redraws off-chart draws; these seeds each redraw
    on_chart = []

    def spy(*args):
        rows = _schur_complement(*args)
        on_chart.append(rows is not None)
        return rows

    monkeypatch.setattr(configurations, "_schur_complement", spy)
    for d, n, seed, p, expected in ((2, 6, 5, 101, 11), (3, 7, 0, 7, 18)):
        on_chart.clear()
        assert dimension_estimate(d, n, seed=seed, field=Field.prime(p)) == expected
        assert on_chart[-1] and not all(on_chart)


def test_fp_lane_matches_q_lane():
    rng = random.Random(9)
    for p in (101, 65521):
        fp = Field.prime(p)
        for d in range(1, 5):
            for _ in range(5):
                g = [rng.randint(-30, 30) for _ in range((d + 1) ** 2)]
                # distinct ints in [-30, 30] stay distinct mod 101 and mod 65521
                t = rng.sample(range(-30, 31), d + 2)
                rows_q = chart_jacobian(QQ, d, [QQ.normalize(x) for x in g], [QQ.normalize(x) for x in t])
                rows_p = chart_jacobian(fp, d, [fp.normalize(x) for x in g], [fp.normalize(x) for x in t])
                S_p = _schur_complement(d, core_ints(fp, g), core_ints(fp, t), p)
                assert (rows_p is None) == (S_p is None)
                if rows_p is None:
                    continue  # some y_0 is divisible by p
                assert rows_p == [[fp.normalize(x) for x in row] for row in rows_q]
                S_q = _schur_complement(d, g, t, None)
                assert [[x % p for x in row] for row in S_p] == [[x % p for x in row] for row in S_q]


def record_eliminations(monkeypatch):
    """Patch linalg's eliminations to log each call: (modulus, row count) for
    every `int_rank` (modulus None over Q) and "rref" for every `int_rref`."""
    calls = []
    int_rank, int_rref = linalg.int_rank, linalg.int_rref

    def rank_spy(rows, p=None):
        calls.append((p, len(rows)))
        return int_rank(rows, p)

    def rref_spy(rows, p=None):
        calls.append("rref")
        return int_rref(rows, p)

    monkeypatch.setattr(linalg, "int_rank", rank_spy)
    monkeypatch.setattr(linalg, "int_rref", rref_spy)
    return calls


def test_gl2_vectors_annihilate_the_jacobian():
    rng = random.Random(3)
    for field in FIELDS:
        for d in range(1, 5):
            for n in (1, 2, d + 3):
                g = [field.random_scalar(rng, 20) for _ in range((d + 1) ** 2)]
                t = [field.random_scalar(rng, 20) for _ in range(n)]
                rows = chart_jacobian(field, d, g, t)
                if rows is None:
                    continue
                K = Matrix(field, _gl2_kernel(d, g, t))
                J = Matrix(field, rows)
                assert matrix_is_zero(J.matmul(transpose(K)))


def test_banded_left_kernel_annihilates_the_vandermonde_block():
    rng = random.Random(4)
    for field in BLOCK_FIELDS:
        p = field.p
        for d in range(1, 6):
            for n in range(d + 2, min(d + 7, p or d + 7) + 1):
                g, t = draw(field, d, n, rng)
                g, t = core_ints(field, g), core_ints(field, t)
                y0 = [sum(g[k] * x**k for k in range(d + 1)) for x in t]
                if any((v % p if p else v) == 0 for v in y0):
                    continue
                U = band_rows(d, n, _left_kernel_band(d, t, y0, p))
                D0V = [[v * x**k for k in range(d + 1)] for v, x in zip(y0, t)]
                for u in U:
                    for col in zip(*D0V):
                        dot = sum(a * b for a, b in zip(u, col))
                        assert (dot % p if p else dot) == 0
                assert len(U) == len(int_rref(U, p)[1]) == n - d - 1


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_band_and_schur_complement_match_the_pairwise_band(field, monkeypatch):
    # each band divided from one product per band is the entry-by-entry
    # Vandermonde product, and so S is the same, with y and c_r reduced as
    # they are formed over F_p
    rng = random.Random(5)
    p = field.p
    checked = 0
    for d in range(1, 6):
        for n in range(d + 2, d + 8):
            g, t = draw(field, d, n, rng)
            g, t = core_ints(field, g), core_ints(field, t)
            y0 = [sum(g[k] * x**k for k in range(d + 1)) for x in t]
            if any((v % p if p else v) == 0 for v in y0):
                continue
            assert _left_kernel_band(d, t, y0, p) == left_kernel_band_oracle(d, t, y0, p), (d, n)
            S = _schur_complement(d, g, t, p)
            with monkeypatch.context() as m:
                m.setattr(configurations, "_left_kernel_band", left_kernel_band_oracle)
                assert S == _schur_complement(d, g, t, p), (d, n)
            checked += 1
    assert checked > 20


def test_restricted_gl2_vectors_annihilate_the_schur_complement():
    rng = random.Random(6)
    for field in BLOCK_FIELDS:
        p = field.p
        for d in range(1, 6):
            for n in range(d + 2, min(d + 7, p or d + 7) + 1):
                g, t = draw(field, d, n, rng)
                g, t = core_ints(field, g), core_ints(field, t)
                S = _schur_complement(d, g, t, p)
                if S is None:
                    continue
                assert len(S) == d * (n - d - 1) and len(S[0]) == n + d + 1
                w = d + 1
                for v in _gl2_kernel(d, g, t):
                    kv = v[w * w :] + v[:w]
                    for row in S:
                        dot = sum(a * b for a, b in zip(row, kv))
                        assert (dot % p if p else dot) == 0


@pytest.mark.parametrize("field", BLOCK_FIELDS, ids=str)
def test_block_rank_matches_full_jacobian(field):
    rng = random.Random(8)
    p = field.p
    for d in range(1, 6):
        for n in range(1, min(d + 6, p or d + 6) + 1):
            g, t = draw(field, d, n, rng)
            rows = chart_jacobian(field, d, g, t)
            S = _schur_complement(d, core_ints(field, g), core_ints(field, t), p)
            assert (rows is None) == (S is None)
            if rows is None:
                continue
            full = len(int_rref([_clear(row, p)[0] for row in rows], p)[1])
            assert full == d * min(n, d + 1) + (len(int_rref(S, p)[1]) if S else 0), (d, n)


def schur_and_kernel(field, d, n, rng):
    """S and its restricted gl_2 kernel rows at one draw, as `dimension_estimate`
    builds them, or None off the chart."""
    g, t = draw(field, d, n, rng)
    g, t = core_ints(field, g), core_ints(field, t)
    S = _schur_complement(d, g, t, field.p)
    if S is None:
        return None
    w = d + 1
    return S, [v[w * w :] + v[:w] for v in _gl2_kernel(d, g, t)]


def full_stack_rank(S, p):
    """The oracle: forward elimination of every row of S, mod p or exactly over Q."""
    return int_rank(S, p) if p else int_rank(S)


@pytest.mark.parametrize("field", BLOCK_FIELDS, ids=str)
def test_certified_rank_matches_full_stack_rank(field):
    rng = random.Random(10)
    for d in range(1, 6):
        for n in range(d + 2, min(d + 6, field.p or d + 6) + 1):
            for _ in range(3):
                drawn = schur_and_kernel(field, d, n, rng)
                if drawn is not None:
                    S, K = drawn
                    assert certified_rank(S, K, field.p) == full_stack_rank(S, field.p), (d, n)


@pytest.mark.parametrize("field", BLOCK_FIELDS, ids=str)
def test_short_prefix_falls_back_to_full_stack_rank(field, monkeypatch):
    # a copy of row 1 moved into the prefix keeps the rank of S but not of its
    # first rows; a stack of two alternating rows has rank at most 2 < cap
    rng = random.Random(11)
    calls = record_eliminations(monkeypatch)
    p, q = field.p, field.p or linalg.CERT_PRIME
    for d, n in ((2, 6), (3, 8), (4, 10), (5, 11)):
        if p and n > p:
            continue
        drawn = None
        while drawn is None:
            drawn = schur_and_kernel(field, d, n, rng)
        S, K = drawn
        cap = n + d - 3
        two = [S[i % 2] for i in range(len(S))]
        assert full_stack_rank(two, p) < cap
        for rows in (S[:1] + S, two):
            calls.clear()
            assert certified_rank(rows, K, p) == full_stack_rank(rows, p)
            # the prefix missed the cap, so the whole stack was ranked mod q
            assert calls[:3] == [(q, 4), (q, cap), (q, len(rows))]


@pytest.mark.parametrize("field", [QQ, Field.prime(101)], ids=str)
def test_whole_stack_prefix_is_ranked_once(field, monkeypatch):
    # at d = 1 the cap n + d - 3 is the row count n - 2 of S, so the prefix is
    # the whole stack; a copy of row 1 in place of the last keeps S in the
    # kernel but drops its rank below the cap
    rng = random.Random(12)
    calls = record_eliminations(monkeypatch)
    p, q = field.p, field.p or linalg.CERT_PRIME
    for n in (4, 6, 9):
        drawn = None
        while drawn is None:
            drawn = schur_and_kernel(field, 1, n, rng)
        S, K = drawn
        rows = S[:-1] + S[:1]
        assert len(rows) == n - 2 and full_stack_rank(rows, p) < n - 2
        calls.clear()
        assert certified_rank(rows, K, p) == full_stack_rank(rows, p)
        # the miss on the prefix is the rank mod q of the whole stack: mod p it
        # is the answer, over Q only the exact rank follows
        assert calls == [(q, 4), (q, n - 2)] + ([] if p else [(None, n - 2)])


def test_q_draw_does_no_exact_elimination(monkeypatch):
    calls = record_eliminations(monkeypatch)
    for seed in range(3):
        calls.clear()
        assert dimension_estimate(4, 10, seed=seed, field=QQ) == 4 * 4 + 2 * 4 + 10 - 3
        # the 4 kernel rows, then the first n + d - 3 = 11 of the 20 rows of S
        assert calls == [(linalg.CERT_PRIME, 4), (linalg.CERT_PRIME, 11)]


def test_fp_draw_runs_one_forward_rank(monkeypatch):
    # one forward rank on S, of its first n + d - 3 rows, after the kernel's
    calls = record_eliminations(monkeypatch)
    for p in (101, 65521):
        for d, n in ((2, 6), (4, 10), (3, 2)):
            calls.clear()
            assert dimension_estimate(d, n, seed=1, field=Field.prime(p)) == jacobian_rank_oracle(d, n, 1, Field.prime(p))
            # n <= d + 1 needs no elimination
            assert calls == ([(p, 4), (p, n + d - 3)] if n > d + 1 else [])


SHAPES = ((1, 1), (2, 2), (2, 6), (3, 4), (3, 8), (4, 10))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_corrupt_kernel_vector_falls_back_to_exact_rank(field, monkeypatch):
    # one entry off and a fifth vector: unchecked, the cap would be one short
    def corrupt(d, g_vals, t_vals):
        K = _gl2_kernel(d, g_vals, t_vals)
        K[1][0] += 1
        return K + [[1] + [0] * (len(K[0]) - 1)]

    monkeypatch.setattr(configurations, "_gl2_kernel", corrupt)
    calls = record_eliminations(monkeypatch)
    for d, n in SHAPES:
        calls.clear()
        assert dimension_estimate(d, n, seed=2, field=field) == jacobian_rank_oracle(d, n, 2, field)
        # no kernel or prefix rank: straight to the full stack, exactly over Q
        assert calls == ([(field.p, d * (n - d - 1))] if n > d + 1 else [])


def test_short_modular_rank_falls_back_to_exact_rank(monkeypatch):
    int_rank = linalg.int_rank
    for d, n in SHAPES:
        cap, schur_rows = n + d - 3, d * (n - d - 1)

        # one rank short mod P on the prefix and on the whole of S, not on the 4 kernel rows
        def short(rows, p=None, short_rows=(cap, schur_rows)):
            return int_rank(rows, p) - (p == linalg.CERT_PRIME and len(rows) in short_rows)

        monkeypatch.setattr(linalg, "int_rank", short)
        calls = record_eliminations(monkeypatch)
        assert dimension_estimate(d, n, seed=2, field=QQ) == jacobian_rank_oracle(d, n, 2, QQ)
        P = linalg.CERT_PRIME
        assert calls == ([(P, 4), (P, cap), (P, schur_rows), (None, schur_rows)] if n > d + 1 else [])
        monkeypatch.undo()


@pytest.mark.parametrize("spec", ["Q", "Fp:7", "Fp:101", "Fp:65521"])
def test_dim_envelopes_match_gauss_jordan(spec, monkeypatch):
    grid = [(d, n, seed) for d in range(1, 6) for n in range(1, d + 6) for seed in range(3)]
    args = [["dim", "--d", str(d), "--n", str(n), "--seed", str(seed), "--field", spec] for d, n, seed in grid]
    outputs = [invoke(a, catch_exceptions=False).output for a in args]
    # `dim` imports the function from its module on each call
    monkeypatch.setattr(configurations, "dimension_estimate", jacobian_rank_oracle)
    for a, out in zip(args, outputs):
        assert out == invoke(a, catch_exceptions=False).output, a
