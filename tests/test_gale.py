import random
import re
from fractions import Fraction
from itertools import combinations
from math import comb, prod

import pytest

from veronese_kit.configurations import (
    make_config,
    random_invertible,
    sample_generic,
    sample_nodal_conic,
    sample_on_rnc,
    sample_quasi_veronese_chain,
)
from veronese_kit.errors import (
    DegenerateInputError,
    NotAGalePairError,
    RankDeficiencyError,
    ShapeError,
    VeroneseKitError,
)
from veronese_kit.fields import Field, QQ
from veronese_kit.gale import (
    affine_gale,
    double_gale_minor_check,
    duality_certificate,
    gale_of_config,
    standard_gale_pair,
)
import veronese_kit.gale as gale
import veronese_kit.linalg as linalg
from veronese_kit.linalg import Matrix, det, kernel_basis, rank, rref

import oracles
from oracles import field_div, matrix_is_zero, pairwise_duality_certificate, transpose

FP = Field.prime()


def test_affine_gale_annihilates():
    for field in (QQ, FP):
        rng = random.Random(5)
        for rows, cols in ((2, 5), (4, 7), (3, 8)):
            A = Matrix(field, [[field.random_scalar(rng, 9) for _ in range(cols)] for _ in range(rows)])
            if rank(A) < rows:
                continue
            B = affine_gale(A)
            assert B.shape == (cols - rows, cols)
            assert matrix_is_zero(A.matmul(transpose(B)))
            assert rank(B) == cols - rows


def test_affine_gale_errors():
    with pytest.raises(ShapeError):
        affine_gale(Matrix(QQ, [[1, 0], [0, 1]]))
    with pytest.raises(RankDeficiencyError):
        affine_gale(Matrix(QQ, [[1, 2, 3, 4], [2, 4, 6, 8]]))


def test_standard_pair_block_structure():
    A = Matrix(QQ, [[2, 0, 1, 3], [0, 1, 4, 5]])
    a_std, b = standard_gale_pair(A)
    assert a_std.entries[0][:2] == (1, 0) and a_std.entries[1][:2] == (0, 1)
    # b = [A'^t | -I]
    tail = a_std.select_columns((3, 4))
    assert b.entries[0][:2] == (tail.entries[0][0], tail.entries[1][0])
    assert b.entries[0][2:] == (-1, 0) and b.entries[1][2:] == (0, -1)
    cert = duality_certificate(a_std, b)
    assert cert.ok and cert.lambda_ == 1


@pytest.mark.parametrize("field", [QQ, Field.prime(101), Field.prime(65521)], ids=str)
def test_standard_pair_matches_row_built_reference(field):
    # B = -kernel_basis(A) on int columns; the reference builds [A'^t | -I] entry
    # by entry from the row-built echelon form. Over Q the columns carry fractions
    rng = random.Random(36)
    fraction_factor = pairs = 0
    while pairs < 40:
        k = rng.randint(1, 4)
        n = k + rng.randint(1, 4)
        rows = [[field.random_scalar(rng, 9) for _ in range(n)] for _ in range(k)]
        if field.p is None:
            rows = [[x / rng.choice((1, 2, 3, 35)) for x in row] for row in rows]
        A = Matrix(field, rows)
        if rank(A.select_columns(range(1, k + 1))) < k:
            continue
        pairs += 1
        a_std, b = standard_gale_pair(A)
        want_a, want_b = oracles.rows_standard_gale_pair_oracle(A)
        for got, want in ((a_std.entries, want_a), (b.entries, want_b)):
            assert got == tuple(want)
            assert [type(x) for row in got for x in row] == [type(x) for row in want for x in row]
        fraction_factor += max(b._factors) > 1
        cert = duality_certificate(a_std, b)
        assert cert.ok and cert.lambda_ == field.one and type(cert.lambda_) is type(field.one)
    assert field.p or fraction_factor >= 10


def test_standard_pair_names_independent_columns():
    A = Matrix(QQ, [[1, 2, 0, 1], [2, 4, 1, 0]])  # first two columns parallel
    with pytest.raises(RankDeficiencyError, match=r"columns \(1, 3\)"):
        standard_gale_pair(A)


def test_minor_duality_hand_values():
    # A = [I | (2, 3)^t]: minors 1, 3, -2 match the sign law with lambda = 1
    A = Matrix(QQ, [[1, 0, 2], [0, 1, 3]])
    a_std, b = standard_gale_pair(A)
    assert a_std == A
    cert = duality_certificate(A, b)
    assert cert.ok and cert.lambda_ == 1 and cert.checked == 3


def test_affine_gale_lambda_sign():
    # affine_gale returns [-A'^t | I] = -(standard B), so every maximal minor
    # flips by (-1)^(n - d - 1) and lambda follows
    rng = random.Random(8)
    for field in (QQ, FP):
        for rows, cols in ((2, 5), (3, 7), (3, 8)):
            tail = [[field.random_scalar(rng, 9) for _ in range(cols - rows)] for _ in range(rows)]
            eye = [[field.one if i == j else field.zero for j in range(rows)] for i in range(rows)]
            A = Matrix(field, [eye[i] + tail[i] for i in range(rows)])
            cert = duality_certificate(A, affine_gale(A))
            assert cert.ok
            assert cert.lambda_ == field.normalize((-1) ** (cols - rows))


def test_certificate_absorbs_row_scaling():
    A = Matrix(QQ, [[1, 0, 2, 7], [0, 1, 3, 1]])
    B = affine_gale(A)
    cert = duality_certificate(A, B)
    scaled = Matrix(QQ, [[5 * x for x in B.entries[0]], list(B.entries[1])])
    cert2 = duality_certificate(A, scaled)
    assert cert2.ok
    assert cert2.lambda_ == cert.lambda_ / 5


def test_certificate_rejects_non_pairs():
    A = Matrix(QQ, [[1, 0, 2, 7], [0, 1, 3, 1]])
    B = affine_gale(A)
    bad = Matrix(QQ, [[4 * x if c == 0 else x for c, x in enumerate(row)] for row in B.entries])
    with pytest.raises(NotAGalePairError):
        duality_certificate(A, bad)
    with pytest.raises(ShapeError):
        duality_certificate(A, Matrix(QQ, [[0, 0, 0, 0, 1]]))
    kv = B.entries[0]
    degenerate = Matrix(QQ, [list(kv), [2 * x for x in kv]])
    with pytest.raises(RankDeficiencyError):
        duality_certificate(A, degenerate)


@pytest.mark.parametrize("field", [QQ, Field.prime(101)], ids=str)
def test_pair_check_reads_cleared_rows(field):
    # non-integer Q entries on both sides: each row is cleared on its own
    F = Fraction
    A = Matrix(field, [[F(1, 2), 0, F(2, 3), 7, 1], [0, F(5, 4), 3, F(1, 6), 2]])
    B = affine_gale(A)
    assert any(x.denominator > 1 for row in B.entries for x in row) or field.p
    assert duality_certificate(A, B).ok
    bad = Matrix(field, [list(B.entries[0]), list(B.entries[1]), [x + (c == 3) for c, x in enumerate(B.entries[2])]])
    with pytest.raises(NotAGalePairError, match=re.escape("A B^t != 0")):
        duality_certificate(A, bad)
    # the integer dot products are 101 and 0: a pair mod 101, not over Q
    A, B = Matrix(field, [[1, 2, 0], [0, 0, 1]]), Matrix(field, [[99, 1, 0]])
    if field.p:
        assert duality_certificate(A, B).ok
    else:
        with pytest.raises(NotAGalePairError, match=re.escape("A B^t != 0")):
            duality_certificate(A, B)


def test_gale_of_config_requirements():
    small = sample_generic(QQ, 3, 5, seed=0)
    with pytest.raises(ShapeError):
        gale_of_config(small)
    cols = [[1, a, 0, 0] for a in range(5)] + [[0, 0, 1, a] for a in range(2)]
    lopsided = make_config(QQ, 3, 7, cols)
    with pytest.raises(DegenerateInputError, match="dropping point 6"):
        gale_of_config(lopsided)


def test_gale_of_config_eliminates_once(monkeypatch):
    # the coloop test, the kernel basis and the certificate all read the one
    # echelon form of p's coordinates; the certificate never eliminates q's
    calls = []
    int_rref = linalg.int_rref
    monkeypatch.setattr(linalg, "int_rref", lambda rows, p=None: calls.append(len(rows)) or int_rref(rows, p))
    for field in (QQ, FP):
        sampled = sample_generic(field, 5, 12, seed=1)
        # the sampler's own strong-nondegeneracy test eliminated its matrix: start afresh
        p = make_config(field, sampled.d, sampled.n, sampled.points())
        calls.clear()
        q = gale_of_config(p)
        assert calls == [p.d + 1]
        assert gale_of_config(p).coords == q.coords
        assert calls == [p.d + 1]
        assert duality_certificate(p.coords, q.coords).ok
        assert calls == [p.d + 1]
        assert q.coords == affine_gale(p.coords)


def test_certificate_of_the_affine_gale_eliminates_a_once(monkeypatch):
    calls = []
    int_rref = linalg.int_rref
    monkeypatch.setattr(linalg, "int_rref", lambda rows, p=None: calls.append(len(rows)) or int_rref(rows, p))
    for field in (QQ, FP):
        rng = random.Random(11)
        A = Matrix(field, [[field.random_scalar(rng, 9) for _ in range(9)] for _ in range(4)])
        calls.clear()
        B = affine_gale(A)
        assert duality_certificate(A, B).ok
        # A once, for its kernel and its pivot columns; B never
        assert calls == [4]


def test_gale_of_curve_lands_on_conic_equations():
    from veronese_kit.conic import w2n_membership

    for field in (QQ, FP):
        for seed in (1, 2):
            p = sample_on_rnc(field, 3, 7, seed=seed, height=9)
            q = gale_of_config(p)
            assert (q.d, q.n) == (2, 7)
            assert w2n_membership(q).all_vanish


def test_double_gale_is_minor_proportional():
    for field in (QQ, FP):
        for d, n, seed in ((2, 6, 3), (3, 7, 4), (2, 7, 5)):
            p = sample_generic(field, d, n, seed=seed, height=9)
            assert double_gale_minor_check(p)


@pytest.mark.parametrize("field", [QQ, FP, Field.prime(101)], ids=str)
def test_double_gale_check_fails_when_one_column_is_scaled(monkeypatch, field):
    # scaling one column of Gale(Gale(p)) scales only the minors through it
    transform = gale.gale_of_config
    calls = []

    def scale_the_second(q):
        g = transform(q)
        calls.append(g)
        if len(calls) % 2:
            return g
        cols = g.points()
        cols[0] = [field.mul(field.normalize(2), x) for x in cols[0]]
        return make_config(field, g.d, g.n, cols)

    samples = [sample_generic(field, d, n, seed=seed, height=9) for d, n, seed in ((2, 6, 3), (3, 7, 4), (2, 7, 5))]
    assert all(map(double_gale_minor_check, samples))
    monkeypatch.setattr(gale, "gale_of_config", scale_the_second)
    assert not any(map(double_gale_minor_check, samples))


CERT_FIELDS = (QQ, Field.prime(7), Field.prime(101), Field.prime(65521))


def _cert_shapes(field, shapes):
    # the curve sampler draws distinct affine parameters, and F_7 has only 7
    return [(d, n) for d, n in shapes if n <= 7] if field.p == 7 else shapes


def _factor(field, rng):
    # over Q a factor that is rarely an integer, so the clearing scales are not all 1
    if field.p is None:
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(2, 9))
    return field.random_nonzero(rng, 9)


def _scale_columns(M, factors, op):
    return Matrix(M.field, [[op(x, c) for x, c in zip(row, factors)] for row in M.entries])


def _same_certificate(A, B):
    got, want = duality_certificate(A, B), pairwise_duality_certificate(A, B)
    assert got.ok and want.failures == ()
    assert (got.lambda_, got.checked) == (want.lambda_, want.checked)
    assert (got.n, got.height_a, got.height_b) == (want.n, want.height_a, want.height_b)
    assert type(got.lambda_) is type(A.field.zero)
    return got


CHAIN_DEGREES = {3: (2, 1), 4: (2, 2), 5: (3, 2)}


def _cert_inputs(field, rng):
    """Full-rank coordinate matrices: curve and generic samples, {-1, 0, 1}
    clouds (whose lex-first basis is often not the leading columns), chains
    and nodal conics."""
    for d, n in _cert_shapes(field, ((1, 4), (2, 6), (3, 7), (3, 9), (4, 8), (2, 9))):
        for sampler in (sample_on_rnc, sample_generic):
            yield sampler(field, d, n, seed=rng.randrange(1000), height=9).coords
        for _ in range(3):
            A = oracles.sign_cloud(field, d, n, rng.randrange(1000)).coords
            if rank(A) == d + 1:
                yield A
    for d, n in _cert_shapes(field, ((3, 7), (4, 9), (5, 10))):
        yield sample_quasi_veronese_chain(field, d, n, CHAIN_DEGREES[d], seed=rng.randrange(1000), height=9)[1].coords
    for n in (6, 7, 9) if field.p != 7 else (6, 7):
        yield sample_nodal_conic(field, n, seed=rng.randrange(1000), height=9).coords


@pytest.mark.parametrize("field", CERT_FIELDS, ids=str)
def test_certificate_matches_pairwise_oracle(field):
    rng = random.Random(29)
    shifted = 0
    for A in _cert_inputs(field, rng):
        k, n = A.shape
        shifted += rref(A)[1] != tuple(range(k))
        B = affine_gale(A)
        lam = _same_certificate(A, B).lambda_
        if rank(A.select_columns(range(1, k + 1))) == k:
            a_std, b_std = standard_gale_pair(A)
            assert _same_certificate(a_std, b_std).lambda_ == field.one
        c = field.random_nonzero(rng, 9)
        scaled = Matrix(field, [[field.mul(c, x) for x in B.entries[0]]] + list(B.entries[1:]))
        assert _same_certificate(A, scaled).ok
        # every row of B scaled: lambda is divided by the product of the factors
        factors = [_factor(field, rng) for _ in range(B.rows)]
        scaled = Matrix(field, [[field.mul(c, x) for x in row] for c, row in zip(factors, B.entries)])
        cert = _same_certificate(A, scaled)
        assert field.mul(cert.lambda_, prod(factors)) == lam
        # B replaced by G B, G invertible: lambda is divided by det G
        G = random_invertible(field, B.rows, rng, 9)
        cert = _same_certificate(A, G.matmul(B))
        assert field.mul(cert.lambda_, det(G)) == lam
        # column j of A times c_j and of B divided by c_j: A D (B D^-1)^t = A B^t,
        # and lambda is multiplied by the product of the c_j
        factors = [_factor(field, rng) for _ in range(n)]
        cert = _same_certificate(_scale_columns(A, factors, field.mul), _scale_columns(B, factors, lambda x, c: field_div(field, x, c)))
        assert cert.lambda_ == field.mul(lam, prod(factors))
    assert shifted


def _same_refusal(A, B):
    with pytest.raises(VeroneseKitError) as got:
        duality_certificate(A, B)
    with pytest.raises(VeroneseKitError) as want:
        pairwise_duality_certificate(A, B)
    assert type(got.value) is type(want.value)
    return type(got.value)


@pytest.mark.parametrize("field", CERT_FIELDS, ids=str)
def test_certificate_refuses_what_the_pairwise_oracle_refuses(field):
    rng = random.Random(31)
    for d, n in _cert_shapes(field, ((2, 6), (3, 7), (3, 8), (4, 9))):
        A = sample_generic(field, d, n, seed=rng.randrange(1000), height=9).coords
        B = affine_gale(A)
        rows = [list(r) for r in B.entries]
        # a rank-deficient B with A B^t = 0: a row replaced by a combination of the others
        c = field.random_nonzero(rng, 9)
        short = Matrix(field, rows[:-1] + [[field.mul(c, x) for x in rows[0]]])
        assert matrix_is_zero(A.matmul(transpose(short)))
        assert _same_refusal(A, short) is RankDeficiencyError
        # A B^t != 0: one entry of B moved
        j = rng.randrange(n)
        moved = Matrix(field, [[field.add(x, field.one) if i == j else x for i, x in enumerate(rows[0])]] + rows[1:])
        assert _same_refusal(A, moved) is NotAGalePairError
        # a rank-deficient A with A B^t = 0: d independent rows, one combination of
        # them, and n - d - 1 vectors of their kernel
        A0 = sample_generic(field, d - 1, n, seed=rng.randrange(1000), height=9).coords
        top = [list(r) for r in A0.entries]
        combo = [field.add(x, field.mul(c, y)) for x, y in zip(top[0], top[-1])]
        flat = Matrix(field, top + [combo])
        B0 = Matrix(field, kernel_basis(A0).entries[: n - d - 1])
        assert matrix_is_zero(flat.matmul(transpose(B0)))
        assert _same_refusal(flat, B0) is RankDeficiencyError
        # both at once: A B^t != 0 is reported first
        assert _same_refusal(flat, moved) is NotAGalePairError
    # {-1, 0, 1} clouds that do not span, with n - k vectors of their kernel
    for seed in range(40):
        A = oracles.sign_cloud(field, 3, 6, seed).coords
        r = rank(A)
        if r < A.rows:
            basis = rref(A)[0].entries[:r]
            kernel = kernel_basis(Matrix(field, basis)).entries[: A.cols - A.rows]
            assert _same_refusal(A, Matrix(field, kernel)) is RankDeficiencyError


def test_standard_pair_names_lex_first_basis():
    rng = random.Random(37)
    for field in (Field.prime(7), QQ):
        for _ in range(20):
            k, n = rng.choice(((2, 5), (3, 6), (3, 7)))
            rows = [[rng.randint(0, 2) for _ in range(n)] for _ in range(k)]
            A = Matrix(field, rows)
            first = next(
                (J for J in combinations(range(1, n + 1), k) if rank(A.select_columns(J)) == k), None
            )
            if first == tuple(range(1, k + 1)):
                a_std, _ = standard_gale_pair(A)
                assert a_std.select_columns(first) == Matrix(field, [[int(i == j) for j in range(k)] for i in range(k)])
                assert A.select_columns(first).matmul(a_std) == A  # a_std = A_lead^-1 A
            elif first is None:
                with pytest.raises(RankDeficiencyError, match="no independent column set"):
                    standard_gale_pair(A)
            else:
                with pytest.raises(RankDeficiencyError, match=re.escape(f"columns {first} are independent")):
                    standard_gale_pair(A)


@pytest.mark.parametrize("field", [QQ, Field.prime(65521)], ids=str)
def test_certificate_answers_for_thirty_million_pairs(field):
    # C(30, 10) = 30,045,015 complementary pairs, certified from one of them
    p = sample_on_rnc(field, 9, 30, seed=1)
    cert = duality_certificate(p.coords, gale_of_config(p).coords)
    assert cert.ok and cert.checked == comb(30, 10)
    assert duality_certificate(Matrix(QQ, [[1, 0, 2], [0, 1, 3]]), Matrix(QQ, [[2, 3, -1]])).checked == 3
