import random
from itertools import combinations
from math import comb

import pytest

from veronese_kit.brackets import (
    BracketPolynomial,
    HigherEquationReport,
    Y_INSIDE_V_PAIRS,
    dualize,
    eval_bracket_poly,
    format_bracket_poly,
    phi_as_bracket_poly,
    psi_generators,
    psi_pattern,
    wdn_membership,
    y_in_v_dimension_test,
)
from veronese_kit.configurations import (
    make_config,
    sample_degenerate,
    sample_generic,
    sample_on_rnc,
    sample_quasi_veronese_chain,
)
from veronese_kit.errors import IndexSetError, ShapeError
from veronese_kit.fields import Field, QQ
from veronese_kit.linalg import MaximalMinors, minor

from oracles import multidegree, relabel, sign_cloud, wdn_scan_oracle

FP = Field.prime()


# --- canonical form -----------------------------------------------------------


def test_factor_sorting_tracks_sign():
    p = BracketPolynomial(6, 3, [(1, [(2, 1, 3), (4, 5, 6)])])
    q = BracketPolynomial(6, 3, [(-1, [(1, 2, 3), (4, 5, 6)])])
    assert p == q


def test_repeated_index_kills_factor():
    assert BracketPolynomial(6, 3, [(5, [(1, 1, 2), (4, 5, 6)])]).is_zero()


def test_like_terms_merge_and_cancel():
    p = BracketPolynomial(
        4, 2, [(2, [(1, 2), (3, 4)]), (3, [(3, 4), (1, 2)]), (-5, [(1, 2), (3, 4)])]
    )
    assert p.is_zero()
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


def test_psi_pattern_full_window_d3():
    shown = (
        "- |1 2 3 7||1 4 5 7||2 4 6 7||3 5 6 7| "
        "+ |1 2 4 7||1 3 5 7||2 3 6 7||4 5 6 7|"
    )
    assert format_bracket_poly(psi_pattern(3, (1, 2, 3, 4, 5, 6))) == shown


def test_psi_pattern_multidegree():
    deg = multidegree(psi_pattern(3, (1, 2, 3, 4, 5, 6)))
    assert deg == (2, 2, 2, 2, 2, 2, 4)
    deg2 = multidegree(psi_pattern(4, (1, 2, 4, 5, 7, 8)))
    assert deg2 == tuple(2 if i in (1, 2, 4, 5, 7, 8) else 4 for i in range(1, 9))


def test_psi_generators_enumeration():
    gens = psi_generators(3)
    assert len(gens) == 7
    assert [I for I, _ in gens] == sorted(combinations(range(1, 8), 6))
    assert all(poly.width == 4 and poly.ground == 7 for _, poly in gens)
    assert len(psi_generators(4)) == 28
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
        mm = MaximalMinors(p.coords)
        for J in combinations(range(1, 10), 7):
            for _, poly in psi_generators(3):
                pulled = eval_bracket_poly(relabel(poly, J, ground=9), mm)
                assert eval_bracket_poly(poly, mm, J) == pulled
                if J in ((1, 2, 3, 4, 5, 6, 7), (2, 3, 5, 6, 7, 8, 9)):
                    assert pulled == eval_bracket_poly(poly, p.subconfig(J))


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


def _higher_samples(field, d, n, seed):
    yield "rnc", sample_on_rnc(field, d, n, seed=seed, height=9)
    yield "generic", sample_generic(field, d, n, seed=seed, height=3)
    yield "degenerate", sample_degenerate(field, d, n, seed=seed, height=5)
    yield "chain", sample_quasi_veronese_chain(field, d, n, CHAIN_DEGREES[d], seed=seed, height=9)[1]
    yield "cloud", sign_cloud(field, d, n, seed)


@pytest.mark.parametrize("field", [QQ, Field.prime(101), FP], ids=str)
def test_wdn_matches_brute_scan(field):
    seen = set()
    for d, n in ((3, 7), (3, 8), (4, 9), (5, 9)):
        for seed in range(2):
            for family, p in _higher_samples(field, d, n, seed):
                rep = wdn_membership(p)
                assert rep == wdn_scan_oracle(p), (family, d, n, seed)
                seen.add(rep.classification)
    assert seen == {"InW", "InY", "NotInW"}


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


def test_wdn_skips_generators_on_vanishing_windows(monkeypatch):
    import veronese_kit.brackets as brackets

    calls = []
    monkeypatch.setattr(brackets, "eval_bracket_poly", lambda *a, **k: calls.append("eval"))
    monkeypatch.setattr(MaximalMinors, "get", lambda self, J: calls.append(("get", J)))
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
