import random
from itertools import combinations
from math import comb, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import veronese_kit.brackets as brackets
import veronese_kit.linalg as linalg
from veronese_kit.brackets import (
    BracketPolynomial,
    HigherEquationReport,
    Y_INSIDE_V_PAIRS,
    eval_bracket_poly,
    format_bracket_poly,
    phi_as_bracket_poly,
    psi_generators,
    wdn_membership,
    y_in_v_dimension_test,
)
from veronese_kit.configurations import (
    make_config,
    random_config,
    random_invertible,
    rnc_point,
    sample_degenerate,
    sample_generic,
    sample_on_rnc,
    sample_quasi_veronese_chain,
)
from veronese_kit.errors import BudgetExceededError, IndexSetError, ShapeError
from veronese_kit.fields import Field, QQ
from veronese_kit.linalg import Matrix, minor

from oracles import (
    MemoMinors,
    count_walk_windows,
    dualize,
    dualize_oracle,
    head_general_position_oracle,
    in_general_position,
    multidegree,
    poly_is_zero,
    psi_generators_oracle,
    psi_pattern,
    relabel,
    sign_cloud,
    subconfig,
    wdn_scan_oracle,
    window_vanishes_oracle,
)

FP = Field.prime()


# --- canonical form -----------------------------------------------------------


def test_factor_sorting_tracks_sign():
    p = BracketPolynomial(6, 3, [(1, [(2, 1, 3), (4, 5, 6)])])
    q = BracketPolynomial(6, 3, [(-1, [(1, 2, 3), (4, 5, 6)])])
    assert p == q


def test_repeated_index_kills_factor():
    assert poly_is_zero(BracketPolynomial(6, 3, [(5, [(1, 1, 2), (4, 5, 6)])]))


def test_like_terms_merge_and_cancel():
    p = BracketPolynomial(
        4, 2, [(2, [(1, 2), (3, 4)]), (3, [(3, 4), (1, 2)]), (-5, [(1, 2), (3, 4)])]
    )
    assert poly_is_zero(p)
    q = BracketPolynomial(4, 2, [(2, [(1, 2), (3, 4)]), (1, [(2, 1), (3, 4)])])
    assert q.terms == ((1, ((1, 2), (3, 4))),)


def test_terms_sorted_lexicographically():
    p = BracketPolynomial(5, 2, [(1, [(3, 4), (4, 5)]), (1, [(1, 2), (2, 3)])])
    assert p.terms[0][1] == ((1, 2), (2, 3))


def test_shape_validation():
    with pytest.raises(ShapeError):
        BracketPolynomial(3, 4, [])
    with pytest.raises(ShapeError):
        BracketPolynomial(6, 3, [(1, [(1, 2)])])
    with pytest.raises(ShapeError):
        BracketPolynomial(6, 3, [(1, [(5, 6, 7)])])


def test_non_int_coefficients_and_indices_are_refused():
    # each would be truncated by int(): 1.7 to 1, (1.5, 2, 3) to (1, 2, 3), True to 1
    ok = [(1, 2, 3), (4, 5, 6)]
    with pytest.raises(TypeError, match="1.7"):
        BracketPolynomial(6, 3, [(1.7, [(1.5, 2, 3), (4, 5, 6.9)])])
    with pytest.raises(TypeError, match="True"):
        BracketPolynomial(6, 3, [(True, ok)])
    for bad, shown in (((1.5, 2, 3), "1.5"), ((4, 5, 6.9), "6.9"), ((3, 2.0, 1), "2.0"), ((True, 2, 3), "True")):
        with pytest.raises(IndexSetError, match=shown):
            BracketPolynomial(6, 3, [(1, [ok[0], bad])])
    assert BracketPolynomial(6, 3, [(2, [(3, 2, 1), (4, 5, 6)])]).terms == ((-2, ((1, 2, 3), (4, 5, 6))),)


# --- text form ------------------------------------------------------------------


def test_format_phi():
    text = format_bracket_poly(phi_as_bracket_poly())
    assert text == "+ |1 2 3||1 4 5||2 4 6||3 5 6| - |1 2 4||1 3 5||2 3 6||4 5 6|"


def test_format_coefficients_and_two_digit_indices():
    p = BracketPolynomial(
        12, 2, [(7, [(1, 12), (10, 11)]), (-1, [(2, 3), (4, 5)]), (-3, [(1, 2), (3, 4)])]
    )
    assert format_bracket_poly(p) == "- 3 |1 2||3 4| + 7 |1 12||10 11| - |2 3||4 5|"
    assert format_bracket_poly(BracketPolynomial(6, 3, [])) == "0"


# --- structure of phi and psi ---------------------------------------------------


def test_phi_multidegree_quadratic():
    assert multidegree(phi_as_bracket_poly()) == (2,) * 6


def test_multidegree_rejects_mixed_terms():
    p = BracketPolynomial(4, 2, [(1, [(1, 2), (1, 2)]), (1, [(1, 2), (3, 4)])])
    with pytest.raises(ValueError):
        multidegree(p)
    with pytest.raises(ShapeError, match="not multihomogeneous"):
        brackets._degrees(p)


def test_relabel_moves_indices():
    phi = phi_as_bracket_poly()
    r = relabel(phi, (1, 2, 3, 4, 5, 7), ground=7)
    assert r.ground == 7
    seen = {i for _, fs in r.terms for f in fs for i in f}
    assert seen == {1, 2, 3, 4, 5, 7}
    with pytest.raises(ShapeError):
        relabel(phi, (1, 2, 3, 4, 5, 8), ground=7)


def _negated(P):
    return BracketPolynomial(P.ground, P.width, [(-c, fs) for c, fs in P.terms])


def test_dualize_single_bracket():
    p = BracketPolynomial(3, 1, [(1, [(1,)])])
    # S = 0, m - w = 2, so the sign is +1 and the complement is {2, 3}
    assert dualize(p) == BracketPolynomial(3, 2, [(1, [(2, 3)])])


def test_dualize_involution_signs():
    phi = phi_as_bracket_poly()
    # four factors, width 3, ground 6: global sign (+1); phi is also self-dual
    # up to sign, which is what makes the d = 2 generators self-consistent
    assert dualize(dualize(phi)) == phi
    assert dualize(phi) == _negated(phi)
    single = BracketPolynomial(4, 1, [(1, [(2,)])])
    assert dualize(dualize(single)) == _negated(single)


def test_psi_tables_match_general_construction():
    # the closed form equals relabel-and-dualize on every pattern
    for d in range(2, 10):
        assert psi_generators(d) == psi_generators_oracle(d)
        assert psi_generators(d) == tuple((I, psi_pattern(d, I)) for I, _ in psi_generators(d))
    # dualize reads the signs and complements of canonical factors directly
    rng = random.Random(5)
    for m, w in ((4, 1), (5, 2), (7, 3), (8, 5)):
        for _ in range(20):
            terms = [(rng.randint(-3, 3), [rng.sample(range(1, m + 1), w) for _ in range(rng.randint(1, 3))]) for _ in range(3)]
            P = BracketPolynomial(m, w, terms)
            assert dualize(P) == dualize_oracle(P)


def test_psi_tables_are_built_in_canonical_form():
    # the closed form skips canonicalization: building its terms anew must change nothing
    for d in range(2, 10):
        for _, P in psi_generators(d):
            assert BracketPolynomial(P.ground, P.width, P.terms).terms == P.terms


def test_psi_pattern_full_window_d3():
    shown = (
        "- |1 2 3 7||1 4 5 7||2 4 6 7||3 5 6 7| "
        "+ |1 2 4 7||1 3 5 7||2 3 6 7||4 5 6 7|"
    )
    assert format_bracket_poly(psi_pattern(3, (1, 2, 3, 4, 5, 6))) == shown
    assert format_bracket_poly(dict(psi_generators(3))[1, 2, 3, 4, 5, 6]) == shown


def test_psi_pattern_multidegree():
    deg = multidegree(psi_pattern(3, (1, 2, 3, 4, 5, 6)))
    assert deg == (2, 2, 2, 2, 2, 2, 4)
    deg2 = multidegree(psi_pattern(4, (1, 2, 4, 5, 7, 8)))
    assert deg2 == tuple(2 if i in (1, 2, 4, 5, 7, 8) else 4 for i in range(1, 9))
    for d in range(2, 7):
        for _, P in psi_generators(d):
            assert brackets._degrees(P) == multidegree(P)


def test_psi_generators_enumeration():
    gens = psi_generators(3)
    assert len(gens) == 7
    assert [I for I, _ in gens] == sorted(combinations(range(1, 8), 6))
    assert all(poly.width == 4 and poly.ground == 7 for _, poly in gens)
    assert len(psi_generators(4)) == 28
    assert psi_generators(1) == ()
    with pytest.raises(ShapeError):
        psi_pattern(1, (1, 2, 3, 4, 5, 6))


# --- evaluation ------------------------------------------------------------------


def test_eval_matches_minor_products():
    rng = random.Random(13)
    for field in (QQ, FP):
        p = sample_generic(field, 3, 7, seed=21)
        poly = psi_pattern(3, (1, 2, 3, 4, 5, 6))
        total = field.zero
        for coef, factors in poly.terms:
            term = field.normalize(coef)
            for J in factors:
                term = field.mul(term, minor(p.coords, range(1, 5), J))
            total = field.add(total, term)
        assert eval_bracket_poly(poly, p) == total


def test_eval_shape_errors():
    p = sample_generic(QQ, 3, 7, seed=2)
    with pytest.raises(ShapeError):
        eval_bracket_poly(phi_as_bracket_poly(), p)  # width 3 vs height 4
    with pytest.raises(ShapeError):
        eval_bracket_poly(BracketPolynomial(9, 4, [(1, [(1, 2, 3, 9)])]), p)
    poly = psi_pattern(3, (1, 2, 3, 4, 5, 6))
    for J in ((1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6, 8), (2, 1, 3, 4, 5, 6, 7)):
        with pytest.raises(IndexSetError):
            eval_bracket_poly(poly, p, J)  # wrong size, outside [7], not increasing


def test_pullback_commutes_with_subconfig():
    for field in (QQ, Field.prime(101), FP):
        p = sample_generic(field, 3, 9, seed=6)
        mm = MemoMinors(p.coords)
        for J in combinations(range(1, 10), 7):
            for _, poly in psi_generators(3):
                pulled = eval_bracket_poly(relabel(poly, J, ground=9), mm)
                assert eval_bracket_poly(poly, mm, J) == pulled
                if J in ((1, 2, 3, 4, 5, 6, 7), (2, 3, 5, 6, 7, 8, 9)):
                    assert pulled == eval_bracket_poly(poly, subconfig(p, J))


# --- membership reports -----------------------------------------------------------


def test_wdn_on_curve_vanishes():
    for field in (QQ, FP):
        rep = wdn_membership(sample_on_rnc(field, 3, 7, seed=3, height=9))
        assert isinstance(rep, HigherEquationReport)
        assert rep.all_vanish and rep.witness is None
        assert rep.classification == "InW" and rep.in_v is True
        assert rep.checked == 7


def test_wdn_generic_witness_is_scan_first():
    p = sample_generic(FP, 3, 8, seed=9)
    rep = wdn_membership(p)
    full, values = wdn_scan_oracle(p, collect_values=True)
    assert rep.classification == "NotInW" and rep.in_v is False
    assert not rep.all_vanish and full.checked == len(values) == 8 * 7
    first = next(((I, J, v) for (I, J), v in values.items() if v != 0), None)
    assert rep.witness == first


CHAIN_DEGREES = {3: (2, 1), 4: (2, 2), 5: (3, 2)}


def _moved_point(field, d, n, seed, i):
    """A curve sample with point i (0-based) drawn again off the curve."""
    rng = random.Random(seed)
    cols = sample_on_rnc(field, d, n, seed=seed, height=9).points()
    cols[i] = [field.random_nonzero(rng, 9) for _ in range(d + 1)]
    return make_config(field, d, n, cols)


def _repeated_point(p, i, j):
    """p with point j (0-based) replaced by a copy of point i."""
    cols = p.points()
    cols[j] = cols[i]
    return make_config(p.field, p.d, p.n, cols)


def _higher_samples(field, d, n, seed):
    """Every sampler family and sign clouds, plus curve samples with one point
    moved (inside and after the first d+3 points), curve samples with a
    repeated point, and a generic sample whose point 2 is point 1."""
    yield "rnc", sample_on_rnc(field, d, n, seed=seed, height=9)
    yield "generic", sample_generic(field, d, n, seed=seed, height=3)
    yield "degenerate", sample_degenerate(field, d, n, seed=seed, height=5)
    yield "chain", sample_quasi_veronese_chain(field, d, n, CHAIN_DEGREES[d], seed=seed, height=9)[1]
    yield "cloud", sign_cloud(field, d, n, seed)
    yield "moved-head", _moved_point(field, d, n, seed, seed % (d + 3))
    yield "moved-tail", _moved_point(field, d, n, seed, d + 3 + seed % (n - d - 3))
    curve = sample_on_rnc(field, d, n, seed=seed, height=9)
    yield "repeated-head", _repeated_point(curve, 0, 1 + seed % (d + 2))
    yield "repeated-tail", _repeated_point(curve, seed % (d + 3), n - 1)
    yield "generic-1=2", _repeated_point(sample_generic(field, d, n, seed=seed, height=3), 0, 1)


@pytest.mark.parametrize("field", [QQ, Field.prime(101)], ids=str)
def test_wdn_witness_past_first_window(field):
    rng = random.Random(5)
    for d in (3, 4, 5):
        n = d + 5
        cols = sample_on_rnc(field, d, n, seed=d, height=9).points()
        cols[-1] = [field.random_nonzero(rng, 9) for _ in range(d + 1)]
        p = make_config(field, d, n, cols)
        rep = wdn_membership(p)
        assert rep == wdn_scan_oracle(p)
        # the first window misses point n, so the witness lies in a later one
        assert rep.witness is not None and n in rep.witness[1]
        assert rep.checked > comb(d + 4, 6)


@pytest.mark.parametrize("field", [QQ, Field.prime(7), Field.prime(101), FP], ids=str)
def test_wdn_witness_past_the_head_windows_of_a_chain(field):
    # points 1..d+3 on the first component of a chain, which spans less
    # than P^d, leave every head window rank-deficient or with a coloop, so
    # each vanishes; one later point moved off the chain puts the witness
    # past the head windows. F_7 has too few parameters for d + 3 = 8.
    shapes = ((3, 9), (3, 10), (4, 10)) if field.p == 7 else ((3, 9), (3, 10), (4, 10), (5, 11))
    separated = 0
    for d, n in shapes:
        head = list(combinations(range(1, n + 1), d + 4))[: n - d - 3]
        for seed in range(3):
            counts = (d + 3, n - d - 3)
            chain = sample_quasi_veronese_chain(field, d, n, CHAIN_DEGREES[d], seed=seed, height=9, counts=counts)[1]
            cols = chain.points()
            rng = random.Random(seed)
            q = d + 3 + seed % (n - d - 3)
            cols[q] = [field.random_nonzero(rng, 9) for _ in range(d + 1)]
            p = make_config(field, d, n, cols)
            rep = wdn_membership(p)
            assert rep == wdn_scan_oracle(p), (d, n, seed)
            if rep.witness is not None:
                assert q + 1 in rep.witness[1] and rep.witness[1] not in head, (d, n, seed)
                separated += 1
    assert separated >= 2 * len(shapes)


@pytest.mark.parametrize("field", [QQ, Field.prime(7), Field.prime(101), FP], ids=str)
def test_wdn_matches_brute_scan(field):
    # F_7 has too few parameters for more than 7 curve points
    shapes = ((3, 7),) if field.p == 7 else ((3, 7), (3, 8), (3, 9), (4, 8), (4, 9), (4, 10), (5, 9), (5, 10))
    seen = set()
    for d, n in shapes:
        for seed in range(6 if field.p == 7 else 2):
            for family, p in _higher_samples(field, d, n, seed):
                rep = wdn_membership(p)
                assert rep == wdn_scan_oracle(p), (family, d, n, seed)
                seen.add(rep.classification)
    assert seen == {"InW", "InY", "NotInW"}


@pytest.mark.parametrize("field", [QQ, Field.prime(7), Field.prime(101), FP], ids=str)
def test_head_general_position_matches_rank_oracle(field):
    shapes = ((3, 7),) if field.p == 7 else ((3, 8), (4, 9), (5, 10))
    prime = field.p if field.kind == "Fp" else None
    seen = set()
    for d, n in shapes:
        for seed in range(4):
            samples = [p for _, p in _higher_samples(field, d, n, seed)]
            samples += [
                _repeated_point(sample_generic(field, d, n, seed=seed, height=9), i, j)
                for i, j in ((0, d + 1), (d + 1, d + 2), (d + 1, n - 1), (0, n - 1))
            ]
            for p in samples:
                fast = brackets._head_points_in_general_position(p.coords, prime)
                assert fast == head_general_position_oracle(p), (d, n, seed)
                seen.add(fast)
    assert seen == {True, False}


def _walk_flags_and_kinds(p):
    """The window flags of `brackets._window_flags` on p, as `wdn_membership`
    reads them, and the kinds of the nodes the walk passes through. The
    kinds are read from the walk's suspended frame at each flag: its `stack`
    of node frames (rows, basis, free, D, left, columns to leave out) with
    two or more columns left, the current node's `basis`, `free` and
    `left`, the column `m` it leaves out, the row `g` of a left-out basis
    column, and whether it is yielding the flags of a skipped subtree. A
    last-level node (left == 1) is off the stack while it decides its
    leaves, so the top of the stack is its parent."""
    walk = brackets._window_flags(p.coords, p.n - p.d - 4, p.field.p)
    flags, kinds = [], set()
    for flag in walk:
        flags.append(flag)
        state = walk.gi_frame.f_locals
        if "stack" not in state:
            kinds.add("nothing left out")
            continue
        stack = state["stack"]
        if any(a[1] != b[1] for a, b in zip(stack, stack[1:])):
            kinds.add("inner exchange")
        if state["left"] > 1:
            kinds.add("zero row over a subtree" if walk.gi_yieldfrom is not None else "all-free tail")
            continue
        if not stack:
            kinds.add("last level at the root")
        else:
            kinds.add("last level by an exchange" if stack[-1][1] != state["basis"] else "last level by a drop")
        if state["m"] in state["free"]:
            kinds.add("leaf drop")
        else:
            kinds.add("leaf exchange" if any(state["g"]) else "zero row at a leaf")
    return flags, kinds


def _assert_flags_match_the_window_oracle(p):
    """Every window flag of p against `window_vanishes_oracle`; returns the
    flags and node kinds of `_walk_flags_and_kinds`."""
    flags, kinds = _walk_flags_and_kinds(p)
    windows = list(combinations(range(p.n), p.d + 4))
    assert len(flags) == len(windows), (p.field, p.d, p.n)
    for J, vanishes in zip(windows, flags):
        rows = list(zip(*(p.coords.int_columns[j] for j in J)))
        assert vanishes == window_vanishes_oracle(rows, p.field.p), (p.field, p.d, p.n, J)
    return flags, kinds


def test_echelon_window_test_matches_the_window_oracle():
    # every window of curve, chain, generic and height-1/2 random samples,
    # in lex order; a chain with d+4 points on its first component, which
    # spans less than P^d, has rank-deficient windows, and at n = d + 4 the
    # walk leaves nothing out. Over F_3, F_5 and F_7 there are too few
    # parameters for the curve and the crowded chain, and over F_3 for any
    # chain.
    seen = set()
    for field in (QQ, Field.prime(3), Field.prime(5), Field.prime(7), Field.prime(101), FP):
        prime = field.p
        for d, n in ((3, 7), (4, 8), (3, 8), (3, 9), (4, 10), (5, 11), (3, 11)):
            degrees = CHAIN_DEGREES[d]
            samples = [sample_generic(field, d, n, seed=d, height=3)]
            samples += [random_config(field, d, n, random.Random(seed), height=1 + seed % 2) for seed in range(3)]
            if _chain_fits(field, n):
                samples.append(sample_quasi_veronese_chain(field, d, n, degrees, seed=d, height=9)[1])
            if prime is None or prime > n:
                samples.append(sample_on_rnc(field, d, n, seed=d, height=9))
                counts = (d + 4, n - d - 4)
                samples.append(sample_quasi_veronese_chain(field, d, n, degrees, seed=d, counts=counts)[1])
            for p in samples:
                if p.coords.echelon_rank() <= d:
                    continue  # wdn_membership tests no window of a degenerate sample
                flags, kinds = _assert_flags_match_the_window_oracle(p)
                seen |= set(flags) | kinds
    assert seen == {
        True,
        False,
        "nothing left out",
        "leaf drop",
        "leaf exchange",
        "inner exchange",
        "all-free tail",
        "zero row over a subtree",
        "zero row at a leaf",
        "last level at the root",
        "last level by a drop",
        "last level by an exchange",
    }


def _chain_fits(field, n):
    """A default two-component chain of n points draws (n + 1) // 2 distinct
    parameters on its first component, at most p of them over F_p."""
    return field.p is None or (n + 1) // 2 <= field.p


def _zero_row_config(field, d, n, seed, q):
    """n random points (0, 1, x_2, ..., x_d) of height 2, but point q
    (0-based) is e_0: the echelon row of q's pivot is 0 on every other
    column, so a window that leaves out q has rank < d + 1, whichever
    columns are free."""
    rng = random.Random(seed)
    cols = [[field.zero, field.one] + [field.random_scalar(rng, 2) for _ in range(d - 1)] for _ in range(n)]
    cols[q] = [field.one] + [field.zero] * d
    return make_config(field, d, n, cols)


@pytest.mark.parametrize(
    "field", [QQ, Field.prime(3), Field.prime(5), Field.prime(7), Field.prime(101), FP], ids=str
)
def test_last_level_decision_matches_the_window_oracle(field):
    # every window of chain, curve, generic and height-1/2 random samples at
    # n = d + 5, d + 6 and d + 7, where every leaf is decided on the four
    # free columns of a last-level node: at the root (n = d + 5), or below
    # one or two drops or exchanges. Each field must show every leaf kind,
    # and a basis row that is 0 on all four free columns: its window is
    # rank-deficient, so it vanishes before any product test is asked. The
    # curve and chains need enough parameters (`_chain_fits`).
    seen = set()
    for d in (3, 4, 5, 6):
        degrees = {**CHAIN_DEGREES, 6: (3, 3)}[d]
        for n in (d + 5, d + 6, d + 7):
            samples = [sample_generic(field, d, n, seed=n, height=3)]
            samples += [random_config(field, d, n, random.Random(seed), height=1 + seed % 2) for seed in range(2)]
            if _chain_fits(field, n):
                samples.append(sample_quasi_veronese_chain(field, d, n, degrees, seed=n, height=9)[1])
            if field.p is None or field.p > n:
                samples.append(sample_on_rnc(field, d, n, seed=n, height=9))
            # e_0 as the root's first pivot, or as a later pivot, which a
            # last-level node below the root's exchange leaves out
            samples += [_zero_row_config(field, d, n, seed, q) for seed, q in ((d, 0), (n, 1))]
            for p in samples:
                if p.coords.echelon_rank() <= d:
                    continue
                flags, kinds = _assert_flags_match_the_window_oracle(p)
                seen |= set(flags) | kinds
    assert {
        True,
        False,
        "leaf drop",
        "leaf exchange",
        "zero row at a leaf",
        "last level at the root",
        "last level by a drop",
        "last level by an exchange",
    } <= seen


def test_echelon_brackets_match_eval_bracket_poly():
    # every maximal minor through `_echelon_minor` against `Matrix.maximal_minor`,
    # and every generator on every window through `_eval_on_echelon` against
    # `eval_bracket_poly`, on curve, chain, generic, degenerate and height-2
    # random samples; over F_7 there are too few parameters for the curve.
    # Brackets holding no pivot (|C| = d + 1) occur at d = 3 and 4, where
    # there are d + 1 free columns.
    sizes = set()
    no_pivot = set()
    for field in (QQ, Field.prime(7), Field.prime(101), FP):
        for d, n in ((3, 8), (4, 10), (5, 11)):
            samples = [
                sample_quasi_veronese_chain(field, d, n, CHAIN_DEGREES[d], seed=d, height=9)[1],
                sample_generic(field, d, n, seed=d, height=3),
                sample_degenerate(field, d, n, seed=d, height=5),
            ]
            samples += [random_config(field, d, n, random.Random(seed), height=2) for seed in range(2)]
            if field.p is None or field.p > n:
                samples.append(sample_on_rnc(field, d, n, seed=d, height=9))
            if field.p is None:
                # columns with denominators, so every clearing factor is > 1
                cols = samples[1].points()
                samples.append(make_config(field, d, n, [[x / (j + 2) for x in c] for j, c in enumerate(cols)]))
            gens = psi_generators(d)
            for p in samples:
                mm = p.coords
                ref = MemoMinors(p.coords)
                pivots = mm._echelon()[1] if mm.echelon_rank() > d else []
                for F in combinations(range(n), d + 1):
                    value = field.from_core(mm._echelon_minor(F), prod(mm._factors[c] for c in F))
                    assert value == ref.maximal_minor([c + 1 for c in F]), (field, d, n, F)
                    C = set(F) - set(pivots)
                    sizes.add(len(C) if pivots else "rank-deficient")
                    if pivots and len(C) == d + 1:
                        no_pivot.add(d)
                for J in combinations(range(n), d + 4):
                    minors = {}
                    J1 = [c + 1 for c in J]
                    for I, poly in gens:
                        value = brackets._eval_on_echelon(poly, mm, J, minors)
                        assert value == eval_bracket_poly(poly, ref, J1), (field, d, n, J, I)
    assert sizes == set(range(6)) | {"rank-deficient"} and no_pivot == {3, 4}


def _pivot_off_witness_config(field, d):
    """d + 5 points whose first separating window leaves out a pivot.

    Points 1..d+2 lie on the moment curve C of the hyperplane H: x_d = 0;
    point d+3 is A = e_d, off H, and points d+4 and d+5 are A + m1 and
    A + m2, m1 and m2 two more points of C. A window of the d + 2 points of
    H and two points a, b off it vanishes exactly when the line ab meets H
    on C: up to one double Gale point for a and b, its Gale points are those
    of the d + 2 points and that meeting point, d + 3 points of H, which lie
    on a conic when the meeting point lies on C, the one rational normal
    curve of H through the d + 2. So the windows that leave out point d+5
    or d+4 vanish, while the one that leaves out point d+3 separates.
    The pivots are points 1..d and d+3, so the witness window holds d
    pivots and four free points, and brackets on all four occur.
    """
    def on_c(t):
        return [t**i for i in range(d)] + [0]

    A = [0] * d + [1]
    cols = [on_c(t) for t in range(1, d + 3)] + [A]
    cols += [[x + y for x, y in zip(A, on_c(t))] for t in (d + 3, d + 4)]
    return make_config(field, d, d + 5, cols)


@pytest.mark.parametrize("field", [QQ, Field.prime(101), FP], ids=str)
def test_wdn_witness_matches_the_memo_minor_scan(field, monkeypatch):
    # generic samples, whose witness is the first pullback, and a head of
    # points in a hyperplane, whose witness window leaves out a pivot: the
    # minors `_echelon_minor` reads in closed form up to |C| = 3 and by
    # Bareiss beyond, against `eval_bracket_poly` on memoized determinants
    bareiss = linalg._bareiss_det_int
    blocks = []
    monkeypatch.setattr(linalg, "_bareiss_det_int", lambda rows: blocks.append(len(rows)) or bareiss(rows))
    for d in (3, 4, 5, 6):
        for n in (d + 4, d + 5):
            for seed in range(2):
                p = sample_generic(field, d, n, seed=seed, height=9)
                rep = wdn_membership(p)
                assert rep == wdn_scan_oracle(p), (d, n, seed)
                assert rep.checked == 1
        blocks.clear()
        p = _pivot_off_witness_config(field, d)
        rep = wdn_membership(p)
        # the only determinants taken are of the blocks on all four free points
        assert set(blocks) == {4}, d
        assert rep == wdn_scan_oracle(p), d
        pivots = [c + 1 for c in p.coords._echelon()[1]]
        assert pivots == list(range(1, d + 1)) + [d + 3]
        assert rep.witness[1] == tuple(range(1, d + 3)) + (d + 4, d + 5)
        assert rep.checked == 2 * comb(d + 4, 6) + 1


@pytest.mark.parametrize("field", [QQ, Field.prime(101), FP], ids=str)
def test_head_windows_that_vanish_out_of_general_position_fall_back(field):
    # a generic sample with point j a copy of point i, both among the first
    # d+3: each head window holds both, so each vanishes, but a later window
    # that drops one of them separates. The pairs put the repeat among the
    # pivots, on the first free column, and on the two free columns.
    for d in (3, 4, 5):
        n = d + 5
        head = list(combinations(range(1, n + 1), d + 4))[: n - d - 3]
        for i, j in ((1, 2), (1, d + 2), (d + 2, d + 3)):
            p = _repeated_point(sample_generic(field, d, n, seed=d, height=9), i - 1, j - 1)
            values = wdn_scan_oracle(p, collect_values=True)[1]
            assert all(values[I, J] == 0 for J in head for I, _ in psi_generators(d))
            rep = wdn_membership(p)
            assert rep == wdn_scan_oracle(p)
            assert not {i, j} <= set(rep.witness[1])
            if (i, j) == (1, 2):
                assert rep.witness[1] == (1,) + tuple(range(3, d + 6))


def test_curve_is_decided_from_the_head_windows(monkeypatch):
    calls = count_walk_windows(monkeypatch)
    for field in (QQ, FP):
        for d, n in ((3, 14), (5, 14), (3, 40)):
            calls.clear()
            rep = wdn_membership(sample_on_rnc(field, d, n, seed=1))
            assert rep.all_vanish and rep.classification == "InW"
            assert rep.checked == comb(n, d + 4) * comb(d + 4, 6)
            assert 0 < len(calls) <= n - d - 3


@pytest.mark.parametrize("field", [QQ, FP], ids=str)
def test_the_walk_computes_only_the_flags_it_is_asked_for(monkeypatch, field):
    # the walk is a lazy generator: a curve sample is decided from its
    # n - d - 3 head windows, and not one flag past them is computed, and a
    # generic sample at n = d + 5 from its first window, the first of the
    # root's n leaves. Every flag here costs one rank test, so a walk that
    # decided more windows than it is asked for runs more of them.
    calls = count_walk_windows(monkeypatch)
    tests = []
    rank_test = brackets._rank_at_most_two
    monkeypatch.setattr(brackets, "_rank_at_most_two", lambda rows, p: tests.append(1) or rank_test(rows, p))
    for d in (3, 5):
        curve, generic = sample_on_rnc(field, d, 200, seed=1), sample_generic(field, d, d + 5, seed=1)
        for p, pulled in ((curve, 200 - d - 3), (generic, 1)):
            calls.clear()
            tests.clear()
            rep = wdn_membership(p)
            assert rep.classification == ("InW" if pulled > 1 else "NotInW"), (d, p.n)
            assert len(calls) == len(tests) == pulled, (d, p.n)


def _adversarial_config(field, d, n, rng, height=3):
    """n points of P^d whose points 1..d+3 lie on a seeded curve (when the
    field has d+3 parameters) or are random; each later point is a copy of
    an earlier one, a multiple of one, a point on the line through two, a
    random point or a point of the curve, which may repeat a head point."""
    line = range(field.p) if field.p else range(-height, height + 1)
    params = [(0, 1)] + [(1, a) for a in line]
    g = random_invertible(field, d + 1, rng, height)

    def on_curve(t):
        return g.matmul(make_config(field, d, 1, [rnc_point(field, d, t)]).coords).column(0)

    def anywhere():
        col = [field.random_scalar(rng, height) for _ in range(d + 1)]
        return col if any(col) else anywhere()

    if len(params) >= d + 3 and rng.random() < 0.75:
        cols = [on_curve(t) for t in rng.sample(params, d + 3)]
    else:
        cols = [anywhere() for _ in range(d + 3)]
    while len(cols) < n:
        kind = rng.randrange(5)
        if kind == 0:
            col = rng.choice(cols)
        elif kind == 1:
            c = field.random_nonzero(rng, height)
            col = [field.mul(c, x) for x in rng.choice(cols)]
        elif kind == 2:
            a, b = field.random_nonzero(rng, height), field.random_nonzero(rng, height)
            col = [field.add(field.mul(a, x), field.mul(b, y)) for x, y in zip(*rng.sample(cols, 2))]
        elif kind == 3:
            col = anywhere()
        else:
            col = on_curve(rng.choice(params))
        if any(col):
            cols.append(col)
    return make_config(field, d, n, cols)


def test_head_points_decide_adversarial_configurations(monkeypatch):
    # repeated, scaled, collinear, random and curve points after a curve or
    # random head, against the full scan. Each field must show an all-vanish
    # case decided from the head windows although some head window is not
    # in general position.
    calls = count_walk_windows(monkeypatch)
    rng = random.Random(0)
    for field in (Field.prime(5), Field.prime(7), Field.prime(11), Field.prime(13), Field.prime(101), QQ):
        early = 0
        for i in range(84):
            d = 3 + i % 3
            n = d + 5 + (d == 3 and i % 2)
            p = _adversarial_config(field, d, n, rng)
            calls.clear()
            rep = wdn_membership(p)
            assert rep == wdn_scan_oracle(p), (field, d, n, i)
            head = tuple(range(1, d + 4))
            if rep.classification == "InW" and len(calls) <= n - d - 3:
                early += not all(in_general_position(p, head + (q,)) for q in range(d + 4, n + 1))
        assert early, field


@pytest.mark.parametrize("field", [QQ, FP], ids=str)
def test_too_few_points_to_span_are_in_y(field):
    # n <= d points give a tall coordinate matrix, of rank at most n < d + 1
    for d in (3, 5):
        for n in range(1, d + 1):
            rep = wdn_membership(random_config(field, d, n, random.Random(n)))
            assert rep.degenerate and rep.classification == "InY", (d, n)
            assert rep.all_vanish and rep.checked == 0 and rep.witness is None, (d, n)


def test_fallback_scan_budget(monkeypatch):
    # a chain is not in general position, so its head windows do not decide
    p = sample_quasi_veronese_chain(FP, 3, 11, (2, 1), seed=1)[1]
    left = comb(11, 7) - (11 - 3 - 3)
    monkeypatch.setattr(brackets, "WINDOW_SCAN_BUDGET", left)
    assert wdn_membership(p).all_vanish
    monkeypatch.setattr(brackets, "WINDOW_SCAN_BUDGET", left - 1)
    with pytest.raises(BudgetExceededError, match=f"leaves {left} windows to scan"):
        wdn_membership(p)
    # the budget is not read when the head windows decide
    monkeypatch.setattr(brackets, "WINDOW_SCAN_BUDGET", 0)
    assert wdn_membership(sample_on_rnc(FP, 3, 11, seed=1)).all_vanish


@st.composite
def integer_configurations(draw):
    """(d, columns): integer points g . (1, t, ..., t^d) of a moment curve,
    with repeated parameters, a g that may be singular and up to three points
    replaced by arbitrary integer vectors."""
    d = draw(st.integers(3, 4))
    n = draw(st.integers(d + 4, d + 5))
    # a nonzero diagonal keeps most draws of g invertible
    g = [[draw(st.integers(1, 2) if r == c else st.integers(-2, 2)) for c in range(d + 1)] for r in range(d + 1)]
    ts = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    cols = [[sum(c * t**k for k, c in enumerate(row)) for row in g] for t in ts]
    vector = st.lists(st.integers(-3, 3), min_size=d + 1, max_size=d + 1)
    for i in draw(st.sets(st.integers(0, n - 1), max_size=3)):
        cols[i] = draw(vector)
    return d, cols


@settings(max_examples=80, deadline=None)
@given(integer_configurations(), st.sampled_from([7, 101, 65521]))
def test_rational_verdict_reduces_mod_p(config, prime):
    # the generators have integer coefficients, so on integer points each
    # value over F_p is the rational value mod p; the verdicts may still
    # differ where a rational value is a nonzero multiple of p
    d, cols = config
    fp = Field.prime(prime)
    assume(all(any(x % prime for x in col) for col in cols))
    q = make_config(QQ, d, len(cols), cols)
    rep_q = wdn_membership(q)
    rep_p = wdn_membership(make_config(fp, d, len(cols), cols))
    if rep_q.all_vanish:
        assert rep_p.all_vanish
    if rep_p.witness is not None:
        I, J, value = rep_p.witness
        exact = eval_bracket_poly(psi_pattern(d, I), q, J)
        assert exact != 0 and exact.denominator == 1
        assert exact.numerator % prime == value


def test_wdn_skips_generators_on_vanishing_windows(monkeypatch):
    # every way to a generator value or a single bracket records a call
    calls = []
    monkeypatch.setattr(brackets, "_eval_on_echelon", lambda *a, **k: calls.append("eval"))
    monkeypatch.setattr(brackets, "eval_bracket_poly", lambda *a, **k: calls.append("eval"))
    monkeypatch.setattr(Matrix, "_echelon_minor", lambda self, cols: calls.append(("minor", cols)))
    monkeypatch.setattr(Matrix, "maximal_minor", lambda self, J: calls.append(("get", J)))
    for field in (QQ, FP):
        rep = wdn_membership(sample_on_rnc(field, 4, 10, seed=2))
        assert rep.all_vanish and rep.checked == comb(10, 8) * comb(8, 6)
    assert calls == []


def test_wdn_degenerate_annotations():
    rep = wdn_membership(sample_degenerate(FP, 3, 8, seed=1))
    assert rep.classification == "InY" and rep.in_v is True
    rep9 = wdn_membership(sample_degenerate(FP, 3, 9, seed=1))
    assert rep9.classification == "InY"
    assert rep9.in_v == "unknown (n>=9)"


def test_wdn_conjectural_window():
    rep = wdn_membership(sample_on_rnc(FP, 4, 9, seed=4))
    assert rep.all_vanish and rep.classification == "InW"
    assert rep.in_v == "conjectural"


def test_wdn_below_window_trivial():
    rep = wdn_membership(sample_generic(FP, 3, 6, seed=0))
    assert rep.checked == 0 and rep.all_vanish
    assert rep.in_v is True and rep.note.startswith("no generators")
    with pytest.raises(ShapeError):
        wdn_membership(sample_generic(FP, 2, 7, seed=0))


def test_y_in_v_dimension_scan():
    hits = [
        (d, n)
        for d in range(3, 7)
        for n in range(d + 4, d + 7)
        if y_in_v_dimension_test(d, n)[2]
    ]
    assert tuple(hits) == Y_INSIDE_V_PAIRS
    assert y_in_v_dimension_test(3, 7) == (17, 19, True)
    assert y_in_v_dimension_test(3, 9) == (21, 21, False)
    with pytest.raises(ShapeError):
        y_in_v_dimension_test(2, 6)
    with pytest.raises(ShapeError):
        y_in_v_dimension_test(3, 6)
