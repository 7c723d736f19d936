import random
from fractions import Fraction
from itertools import combinations

import pytest

from veronese_kit.conic import (
    BRACKET_TO_DET_SIGN,
    lift_matrix,
    phi_bracket,
    phi_det,
    v2n_subset_membership,
    w2n_membership,
)
from veronese_kit.configurations import (
    make_config,
    random_config,
    sample_degenerate,
    sample_generic,
    sample_nodal_conic,
    sample_on_rnc,
    sample_quasi_veronese_chain,
)
from veronese_kit.errors import IndexSetError, ShapeError
from veronese_kit.fields import Field, QQ
from veronese_kit.linalg import Matrix, minor
from veronese_kit.serialize import config_from_json, config_to_json

from oracles import cofactor_det, sign_cloud, subconfig, veronese_lift

FP = Field.prime()

OFF_CONIC = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 4), (1, 3, 9))


def test_veronese_lift_monomials():
    assert veronese_lift(QQ, (1, 2, 3)) == (1, 4, 9, 2, 3, 6)
    with pytest.raises(ShapeError):
        veronese_lift(QQ, (1, 2))


def test_frozen_regression_value():
    p = make_config(QQ, 2, 6, OFF_CONIC)
    assert phi_det(p) == 12


def test_phi_det_matches_cofactor_oracle():
    rng = random.Random(7)
    for _ in range(20):
        cols = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(6)]
        if any(all(x == 0 for x in c) for c in cols):
            continue
        p = make_config(QQ, 2, 6, cols)
        lift = [list(veronese_lift(QQ, c)) for c in cols]
        rows = [[lift[j][r] for j in range(6)] for r in range(6)]
        assert phi_det(p) == cofactor_det(rows)


def test_phi_bracket_equals_det():
    for field in (QQ, FP):
        rng = random.Random(11)
        for _ in range(30):
            cols = [[field.random_scalar(rng, 9) for _ in range(3)] for _ in range(6)]
            if any(all(x == 0 for x in c) for c in cols):
                continue
            p = make_config(field, 2, 6, cols)
            assert phi_bracket(p) == phi_det(p)
    assert BRACKET_TO_DET_SIGN == -1


def test_phi_vanishes_on_conics():
    for field in (QQ, FP):
        for seed in range(5):
            assert phi_det(sample_on_rnc(field, 2, 6, seed=seed)) == 0


def test_phi_vanishes_on_repeated_point():
    cols = list(OFF_CONIC[:5]) + [OFF_CONIC[0]]
    assert phi_det(make_config(QQ, 2, 6, cols)) == 0


def test_lift_matrix_minor_is_pullback():
    p = sample_generic(FP, 2, 8, seed=3)
    lifted = lift_matrix(p)
    assert lifted.shape == (6, 8)
    for I in ((1, 2, 3, 4, 5, 6), (2, 3, 4, 6, 7, 8)):
        assert minor(lifted, range(1, 7), I) == phi_det(subconfig(p, I))


def _lift_inputs(field, seed):
    """Plane configurations of every family, each as sampled and as decoded
    from its document; over Q also with fraction coordinates."""
    rng = random.Random(seed)
    for n in (4, 6, 7) if field.p == 7 else (4, 6, 9, 12):
        for family, p in (
            ("rnc", sample_on_rnc(field, 2, n, seed=seed, height=9)),
            ("nodal", sample_nodal_conic(field, n, seed=seed, height=9)),
            ("generic", sample_generic(field, 2, n, seed=seed, height=9)),
            ("random_config", random_config(field, 2, n, rng, height=9)),
        ):
            yield family, p
            doc = config_to_json(p)
            yield family + " decoded", config_from_json(doc)
            if field.p is None:
                # the same points, each column scaled by 1/(j+2) in its document
                cols = [[str(Fraction(x) / (j + 2)) for x in c] for j, c in enumerate(doc["columns"])]
                yield family + " fractions", config_from_json({**doc, "columns": cols})


@pytest.mark.parametrize("field", [QQ, Field.prime(7), Field.prime(101), FP], ids=str)
def test_lift_matrix_matches_the_pointwise_lift(field):
    seen = set()
    for seed in range(3):
        for family, p in _lift_inputs(field, seed):
            lifted = lift_matrix(p)
            oracle = Matrix.from_columns(field, [veronese_lift(field, c) for c in p.points()])
            assert lifted.entries == oracle.entries, (family, p.n, seed)
            rep = w2n_membership(p, collect_values=True)
            if p.n < 6:
                assert rep.checked == 0 and rep.values == {}
                continue
            values = oracle.maximal_minors()
            assert lifted.maximal_minors() == values, (family, p.n, seed)
            subsets = list(combinations(range(1, p.n + 1), 6))
            assert list(rep.values.items()) == list(zip(subsets, values)), (family, p.n, seed)
            assert rep.nonvanishing == tuple(I for I, v in zip(subsets, values) if v != 0)
            seen.add((family.split()[0], rep.all_vanish))
    assert {("rnc", True), ("nodal", True), ("generic", False), ("random_config", False)} <= seen


def test_lift_matrix_of_a_fraction_document():
    # (6/4, -5/7, 1) lifts to (9/4, 25/49, 1, -15/14, 3/2, -5/7)
    doc = {"field": "Q", "d": 2, "n": 6, "columns": [["6/4", "-5/7", "1"]] + [list(map(str, c)) for c in OFF_CONIC[1:]]}
    p = config_from_json(doc)
    F = Fraction
    assert lift_matrix(p).columns()[0] == (F(9, 4), F(25, 49), 1, F(-15, 14), F(3, 2), F(-5, 7))
    oracle = Matrix.from_columns(QQ, [veronese_lift(QQ, c) for c in p.points()])
    assert phi_det(p) == cofactor_det(oracle.entries) != 0


def test_w2n_on_nodal_conic_vanishes():
    p = sample_nodal_conic(QQ, 7, seed=2, split=(4, 3))
    rep = w2n_membership(p)
    assert rep.all_vanish and rep.nonvanishing == ()
    assert rep.checked == 7


def test_w2n_generic_report_is_lex_ordered_and_consistent():
    p = sample_generic(FP, 2, 8, seed=5)
    rep = w2n_membership(p, collect_values=True)
    assert not rep.all_vanish
    expected = [I for I in combinations(range(1, 9), 6) if phi_det(subconfig(p, I)) != 0]
    assert list(rep.nonvanishing) == expected
    assert len(rep.values) == rep.checked
    assert all(rep.values[I] == 0 for I in rep.values if I not in rep.nonvanishing)


def _plane_samples(field, n, seed):
    yield "rnc", sample_on_rnc(field, 2, n, seed=seed, height=9)
    yield "generic", sample_generic(field, 2, n, seed=seed, height=3)
    yield "degenerate", sample_degenerate(field, 2, n, seed=seed, height=5)
    yield "chain", sample_quasi_veronese_chain(field, 2, n, (1, 1), seed=seed, height=9)[1]
    yield "nodal-conic", sample_nodal_conic(field, n, seed=seed, height=9)
    yield "cloud", sign_cloud(field, 2, n, seed)


@pytest.mark.parametrize("field", [QQ, Field.prime(101), FP], ids=str)
def test_w2n_matches_subset_scan(field):
    seen = set()
    for n in (5, 6, 7, 9):
        for seed in range(3):
            for family, p in _plane_samples(field, n, seed):
                rep = w2n_membership(p)
                scan = v2n_subset_membership(p, combinations(range(1, n + 1), 6))
                assert rep == scan, (family, n, seed)
                seen.add(rep.all_vanish)
                rep = w2n_membership(p, collect_values=True)
                scan = v2n_subset_membership(p, combinations(range(1, n + 1), 6), collect_values=True)
                assert rep == scan, (family, n, seed)
                assert list(rep.values.items()) == list(scan.values.items()), (family, n, seed)
    assert seen == {True, False}


def _conic_points(field, n, seed):
    """n points of x z = y^2, repeats allowed: the rnc sampler needs n distinct
    parameters, which F_3 does not have."""
    rng = random.Random(seed)
    ts = [rng.randrange(field.p) for _ in range(n - 1)]
    return make_config(field, 2, n, [(1, t, t * t % field.p) for t in ts] + [(0, 0, 1)])


@pytest.mark.parametrize("field", [QQ, Field.prime(101), Field.prime(3)], ids=str)
def test_w2n_all_vanish_rank_matches_the_echelon_rank(field, monkeypatch):
    # the all-vanish test reads only the lift's rank, by forward elimination;
    # it must agree with the rank of the cached Gauss-Jordan form
    families = [("nodal", lambda n, s: sample_nodal_conic(field, n, seed=s, height=9))]
    families.append(("generic", lambda n, s: sample_generic(field, 2, n, seed=s, height=5)))
    families.append(("degenerate", lambda n, s: sample_degenerate(field, 2, n, seed=s, height=5)))
    if field is QQ or field.p > 3:
        families.append(("rnc", lambda n, s: sample_on_rnc(field, 2, n, seed=s, height=9)))
    else:
        families.append(("rnc", lambda n, s: _conic_points(field, n, s)))
    seen = set()
    for n in (6, 7, 9, 12):
        for seed in range(3):
            for family, draw in families:
                p = draw(n, seed)
                rank = lift_matrix(p).echelon_rank()
                with monkeypatch.context() as m:
                    m.setattr(Matrix, "_echelon", lambda self: pytest.fail("Gauss-Jordan run for a rank"))
                    if rank <= 5:
                        assert w2n_membership(p).all_vanish, (family, n, seed)
                if rank > 5:
                    rep = w2n_membership(p)
                    assert not rep.all_vanish and rep == v2n_subset_membership(p, combinations(range(1, n + 1), 6))
                seen.add((family, rank <= 5))
    assert {f for f, _ in seen} == {"nodal", "generic", "degenerate", "rnc"}
    assert {v for _, v in seen} == {True, False}


@pytest.mark.parametrize("field", [QQ, FP], ids=str)
def test_w2n_first_subset_on_conic_other_off(field):
    # the first six points lie on a conic, so the first minor is 0 while the
    # lift still has rank 6: the report must come from the full scan
    rng = random.Random(3)
    cols = sample_on_rnc(field, 2, 8, seed=4, height=9).points()
    cols[-1] = [field.random_nonzero(rng, 9) for _ in range(3)]
    p = make_config(field, 2, 8, cols)
    rep = w2n_membership(p)
    assert rep == v2n_subset_membership(p, combinations(range(1, 9), 6))
    assert not rep.all_vanish and (1, 2, 3, 4, 5, 6) not in rep.nonvanishing


def test_w2n_small_n_trivial():
    p = sample_generic(QQ, 2, 5, seed=1)
    rep = w2n_membership(p)
    assert rep.all_vanish and rep.checked == 0


def test_v2n_subset_membership_selected():
    p = sample_generic(FP, 2, 9, seed=8)
    subsets = [(1, 2, 3, 4, 5, 6), (1, 3, 5, 7, 8, 9)]
    rep = v2n_subset_membership(p, subsets)
    assert rep.checked == 2
    with pytest.raises(IndexSetError):
        v2n_subset_membership(p, [(1, 2, 3)])
    with pytest.raises(IndexSetError):
        v2n_subset_membership(p, [(1, 2, 3, 4, 5, 10)])


def test_phi_rejects_wrong_shape():
    p = sample_on_rnc(QQ, 3, 6, seed=0)
    with pytest.raises(ShapeError):
        phi_det(p)
    q = sample_on_rnc(QQ, 2, 7, seed=0)
    with pytest.raises(ShapeError):
        phi_det(q)


def test_fraction_coordinate_lift_keeps_int_columns():
    # columns with denominators: the lift is int products over the squared
    # clearing factors m^2, and its Fraction rows are built only when read
    doc = {"field": "Q", "d": 2, "n": 7, "columns": [["1", "0", "0"], ["0", "0", "1"], ["1", "1", "1"],
           ["1", "-1", "1"], ["1", "1/2", "1/4"], ["1", "-5/7", "25/49"], ["6/4", "9/4", "1"]]}
    p = config_from_json(doc)
    m = p.coords._factors
    assert m == (1, 1, 1, 1, 4, 49, 4)
    lifted = lift_matrix(p)
    assert lifted._factors == tuple(x * x for x in m)
    oracle = Matrix.from_columns(QQ, [veronese_lift(QQ, c) for c in p.points()])
    # the same ints and factors as clearing the lift's Fraction columns
    assert list(map(tuple, lifted.int_columns)) == list(map(tuple, oracle.int_columns))
    assert lifted._factors == oracle._factors
    assert lifted.maximal_minors() == oracle.maximal_minors()
    assert lifted._entries is None  # the rows are not built yet
    assert lifted.entries == oracle.entries
    assert lifted._entries is lifted.entries
    rep = w2n_membership(p, collect_values=True)
    assert list(rep.values.values()) == list(oracle.maximal_minors())
    assert rep.nonvanishing == tuple(I for I in combinations(range(1, 8), 6) if 7 in I)
