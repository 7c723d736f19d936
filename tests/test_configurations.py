import random
from itertools import product

import pytest

from veronese_kit.configurations import (
    DIM_WORK_BUDGET,
    RETRY_BUDGET,
    dimension_estimate,
    is_degenerate,
    is_strongly_nondegenerate,
    make_config,
    quasi_veronese_descriptor,
    random_invertible,
    rnc_point,
    sample_degenerate,
    sample_generic,
    sample_nodal_conic,
    sample_on_rnc,
    sample_quasi_veronese_chain,
    strong_nondegeneracy_witness,
)
from veronese_kit.errors import BudgetExceededError, DegenerateInputError, ShapeError
from veronese_kit.fields import Field, QQ
from veronese_kit.linalg import Matrix, rank

from oracles import ZeroAfterRng, sign_cloud, strong_nondegeneracy_oracle, subconfig

FP = Field.prime()


def skew_lines_config(n1, n2):
    # n1 points on span(e1, e2), n2 on span(e3, e4) in P^3
    cols = [[1, a, 0, 0] for a in range(n1)] + [[0, 0, 1, a] for a in range(n2)]
    return make_config(QQ, 3, n1 + n2, cols)


def test_make_config_validation():
    with pytest.raises(ShapeError):
        make_config(QQ, 2, 3, [[1, 0, 0], [0, 1, 0]])
    with pytest.raises(DegenerateInputError):
        make_config(QQ, 2, 2, [[1, 0, 0], [0, 0, 0]])
    with pytest.raises(ShapeError):
        make_config(QQ, 2, 2, [[1, 0], [0, 1]])


def test_point_access_and_subconfig():
    p = make_config(QQ, 1, 3, [[1, 0], [0, 1], [1, 1]])
    assert p.point(3) == (1, 1)
    q = subconfig(p, (1, 3))
    assert q.n == 2 and q.point(2) == (1, 1)
    with pytest.raises(IndexError):
        p.point(4)


def test_degeneracy_predicates():
    flat = make_config(QQ, 2, 4, [[1, 0, 0], [0, 1, 0], [1, 1, 0], [1, 2, 0]])
    assert is_degenerate(flat)
    spanning = make_config(QQ, 2, 4, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
    assert not is_degenerate(spanning)


def test_strong_nondegeneracy_skew_lines():
    # balanced split survives dropping any point; a 2-point line does not
    assert is_strongly_nondegenerate(skew_lines_config(4, 3))
    lopsided = skew_lines_config(5, 2)
    w = strong_nondegeneracy_witness(lopsided)
    assert w in (6, 7)  # dropping either point of the short line kills the span
    assert not is_strongly_nondegenerate(lopsided)


def _coloop_samples(field, seed):
    """Every sampler family, sign clouds (coincident and coordinate points
    are common), skew lines and configurations too small to span."""
    rng = random.Random(seed)
    for d, n in ((2, 5), (3, 7), (4, 7)):
        yield sample_on_rnc(field, d, n, seed=seed, height=9)
        yield sample_generic(field, d, n, seed=seed, height=3)
        yield sample_degenerate(field, d, n, seed=seed, height=3)
        yield sample_quasi_veronese_chain(field, d, n, (d - 1, 1), seed=seed, height=9)[1]
        yield sign_cloud(field, d, n, seed)
        yield sign_cloud(field, d, rng.randint(1, d + 1), seed)
    yield sample_nodal_conic(field, 6, seed=seed, split=(4, 2))
    yield sample_nodal_conic(field, 5, seed=seed, split=(4, 1))
    for n1, n2 in ((4, 3), (5, 2), (2, 5), (6, 1)):
        yield make_config(field, 3, n1 + n2, skew_lines_config(n1, n2).points())


@pytest.mark.parametrize("field", [QQ, Field.prime(7), Field.prime(101), FP], ids=str)
def test_strong_nondegeneracy_matches_drop_each_point(field):
    found = set()
    for seed in range(12):
        for p in _coloop_samples(field, seed):
            w = strong_nondegeneracy_witness(p)
            assert w == strong_nondegeneracy_oracle(p), (p, seed)
            found.add(w is None)
    assert found == {True, False}


def test_rnc_point_values():
    assert rnc_point(QQ, 3, (1, 2)) == (1, 2, 4, 8)
    assert rnc_point(QQ, 2, (0, 1)) == (0, 0, 1)
    with pytest.raises(DegenerateInputError):
        rnc_point(QQ, 2, (0, 0))


def test_rnc_samples_in_general_position():
    # any d+1 distinct points of a rational normal curve are independent
    rng = random.Random(3)
    for d in (2, 3, 4):
        p = sample_on_rnc(QQ, d, d + 4, seed=17 + d, height=12)
        for _ in range(10):
            cols = sorted(rng.sample(range(1, d + 5), d + 1))
            assert rank(p.coords.select_columns(cols)) == d + 1


def test_sampler_determinism():
    a = sample_on_rnc(FP, 3, 7, seed=5)
    b = sample_on_rnc(FP, 3, 7, seed=5)
    assert a.coords == b.coords
    c = sample_on_rnc(FP, 3, 7, seed=6)
    assert a.coords != c.coords


def test_sample_generic_strongly_nondegenerate():
    for seed in range(5):
        assert is_strongly_nondegenerate(sample_generic(FP, 3, 8, seed=seed))


def test_sample_degenerate_never_spans():
    for seed in range(5):
        for field in (QQ, FP):
            assert is_degenerate(sample_degenerate(field, 3, 8, seed=seed, height=20))


def test_nodal_conic_points_on_two_lines():
    rng = random.Random(11)
    p = sample_nodal_conic(QQ, 7, rng=rng, split=(4, 3), height=9)
    # recover the two lines from the construction: each point must be rank-2
    # against one of the line spans; cheaper: the whole config is degenerate
    # iff the lines coincide, so just check every 6-subset conic det vanishes
    from veronese_kit.conic import w2n_membership

    assert w2n_membership(p).all_vanish
    with pytest.raises(ShapeError):
        sample_nodal_conic(QQ, 5, rng=rng, split=(4, 3))


def test_chain_descriptor_structure():
    desc = quasi_veronese_descriptor(QQ, 3, (2, 1), seed=1)
    assert desc.degrees == (2, 1)
    c0, c1 = desc.components
    assert c0.parent is None and c1.parent == 0
    assert c0.fresh_axes == (1, 2, 3) and c1.fresh_axes == (4,)
    assert rank(c0.frame) == 3 and rank(c1.frame) == 2
    # gluing point is on the parent curve: frame column 0 at t=(1,0)
    assert desc.point_on(1, (1, 0)) == c1.frame.column(0)


def test_chain_descriptor_validation():
    with pytest.raises(ShapeError):
        quasi_veronese_descriptor(QQ, 3, (2, 2), seed=0)
    with pytest.raises(ShapeError):
        quasi_veronese_descriptor(QQ, 3, (), seed=0)
    with pytest.raises(ShapeError):
        quasi_veronese_descriptor(QQ, 3, (1, 1, 1), seed=0, attachments=[(0, (1, 1))])
    with pytest.raises(ShapeError):
        quasi_veronese_descriptor(QQ, 3, (1, 1, 1), seed=0, attachments=[(1, (1, 1)), (2, (1, 1))])


def test_chain_sampler_refuses_non_int_shape_data():
    # each of these was once truncated by int() into an accepted shape:
    # degrees (2, 1) and (1, 2), parent 0, counts (4, 3) and (1, 6)
    for degrees in ([2.7, 1.2], [True, 2], (2, 1.0)):
        with pytest.raises(ShapeError, match="positive ints"):
            quasi_veronese_descriptor(QQ, 3, degrees, seed=0)
    for parent in (0.9, True, "0"):
        with pytest.raises(ShapeError, match="cannot attach"):
            quasi_veronese_descriptor(QQ, 3, (2, 1), seed=0, attachments=[(parent, (1, 1))])
    for counts in ((4.9, 3.2), (True, 6), (4, 3.0)):
        with pytest.raises(ShapeError, match="must be ints"):
            sample_quasi_veronese_chain(QQ, 3, 7, (2, 1), seed=4, counts=counts, height=9)
    # the same shapes as ints are accepted
    assert quasi_veronese_descriptor(QQ, 3, (1, 2), seed=0, attachments=[(0, (1, 1))]).degrees == (1, 2)
    assert sample_quasi_veronese_chain(QQ, 3, 7, (2, 1), seed=4, counts=(1, 6), height=9)[1].n == 7


def test_chain_samples_span_and_count():
    for degrees in ((3,), (2, 1), (1, 1, 1)):
        desc, cfg = sample_quasi_veronese_chain(QQ, 3, 8, degrees, seed=4, height=9)
        assert cfg.n == 8 and cfg.d == 3
        assert not is_degenerate(cfg)
    _, cfg = sample_quasi_veronese_chain(QQ, 3, 7, (2, 1), seed=4, counts=(4, 3), height=9)
    assert cfg.n == 7
    with pytest.raises(ShapeError):
        sample_quasi_veronese_chain(QQ, 3, 7, (2, 1), seed=4, counts=(4, 4))


def _degree_splits(d):
    """Every ordered list of positive degrees summing to d."""
    for cuts in product((False, True), repeat=d - 1):
        degrees = [1]
        for cut in cuts:
            if cut:
                degrees.append(1)
            else:
                degrees[-1] += 1
        yield tuple(degrees)


def test_chain_frames_have_full_rank_and_span():
    # the sampler has no rank or zero-point guard: these invariants hold by
    # construction, for default and explicit attachments, gluing at the
    # parent's t = (1, 0) and t = (0, 1) included
    rng = random.Random(0)
    params = [(1, 0), (0, 1), (1, 1), (3, -2)]
    for field in (QQ, Field.prime(7), Field.prime(101)):
        for d in range(3, 7):
            for degrees in _degree_splits(d):
                m = len(degrees)
                explicit = [(rng.randrange(j), params[j % len(params)]) for j in range(1, m)]
                for attachments in (None, explicit):
                    desc, cfg = sample_quasi_veronese_chain(
                        field, d, d + 1, degrees, rng=rng, attachments=attachments, height=9
                    )
                    frames = [c.frame for c in desc.components]
                    assert all(rank(f) == f.cols for f in frames), (field, degrees, attachments)
                    columns = [col for f in frames for col in f.columns()]
                    assert rank(Matrix.from_columns(field, columns)) == d + 1, (field, degrees, attachments)
                    assert all(map(any, cfg.points())), (field, degrees, attachments)


def test_star_attachment_concurrent_lines():
    att = [(0, (1, 2)), (0, (1, 2))]
    desc, cfg = sample_quasi_veronese_chain(QQ, 3, 9, (1, 1, 1), seed=2, attachments=att, height=9)
    glue = desc.components[1].frame.column(0)
    assert desc.components[2].frame.column(0) == glue
    assert not is_degenerate(cfg)


def test_random_invertible_is_invertible():
    from veronese_kit.linalg import det

    rng = random.Random(0)
    for field in (QQ, FP):
        m = random_invertible(field, 4, rng)
        assert det(m) != 0


def test_dimension_estimate_small_cases():
    # (1, 5): full product of lines, dimension 5, both lanes agree
    assert dimension_estimate(1, 5, seed=0, field=QQ, height=7) == 5
    assert dimension_estimate(1, 5, seed=0) == 5
    assert dimension_estimate(2, 6, seed=1) == 11


@pytest.mark.parametrize("field", [QQ, FP], ids=str)
def test_nodal_conic_point_redraw_is_bounded(field):
    # the nine draws of the frame are real; every later (a, b) is (0, 0), a zero point
    rng = ZeroAfterRng(5, real=9)
    with pytest.raises(BudgetExceededError, match=f"no nonzero point on a line in {RETRY_BUDGET} draws"):
        sample_nodal_conic(field, 7, rng=rng)
    assert rng.calls == 9 + 2 * RETRY_BUDGET


def test_dimension_estimate_refuses_over_budget_before_drawing(monkeypatch):
    # CI's shapes, the benchmark's `dim` shapes and those of verify check 10 answer
    shapes = [(20, 40), (8, 18), (2, 8), (3, 10), (4, 10), (5, 12), (3, 8)]
    shapes += [(2, 6), (2, 7), (3, 7), (4, 8), (2, 91)]
    for d, n in shapes:
        assert dimension_estimate(d, n, seed=1) == d * d + 2 * d + n - 3, (d, n)
    draws = []
    monkeypatch.setattr(Field, "random_scalar", lambda self, rng, height=100: draws.append(1))
    # (2, 91) has 1,488,960 units of work, (2, 92) 1,538,810
    for d, n in ((2, 92), (72, 74), (2, 5000), (8, 65521)):
        for field in (QQ, FP):
            with pytest.raises(BudgetExceededError, match=f"over the budget of {DIM_WORK_BUDGET}"):
                dimension_estimate(d, n, seed=1, field=field)
    assert draws == []
