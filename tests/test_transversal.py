import random
from functools import lru_cache
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    edge_is_transversal_to,
    edges_edge_by_edge,
    greedy_cover_oracle,
    min_transversal_oracle,
    ordered_partition_oracle,
    partition_edge_masks_oracle,
    set_partitions,
    stirling2,
    subconfig,
)

from veronese_kit.configurations import make_config
from veronese_kit.errors import BudgetExceededError, ShapeError
from veronese_kit.fields import Field, QQ
from veronese_kit import cli
from veronese_kit.linalg import Matrix, as_index_set, minor
import veronese_kit.transversal as tv
from veronese_kit.transversal import (
    BlockPartition,
    Hypergraph,
    bounds,
    failing_partition,
    is_transversal,
    min_transversal,
    pentagon_hypergraph,
    v2n_witness,
    ydn_witness,
)

FP = Field.prime()


def test_hypergraph_canonicalization():
    H = Hypergraph(5, 3, [(1, 4, 5), (1, 2, 3), (1, 2, 3)])
    assert H.edges == ((1, 2, 3), (1, 4, 5))
    assert len(H) == 2
    from veronese_kit.errors import IndexSetError

    with pytest.raises(IndexSetError):
        Hypergraph(5, 3, [(3, 2, 1)])
    with pytest.raises(IndexSetError):
        Hypergraph(5, 3, [(1, 2)])
    with pytest.raises(ShapeError):
        Hypergraph(5, 6, [])


def _random_edges(rng, n, k):
    """A JSON-like edge list on [n]: k-subsets, sometimes with a bool, 0 or n + 1 in an edge, an edge
    unsorted, with a repeated index or of the wrong size, or an edge that is no list of ints."""
    edges = [sorted(rng.sample(range(1, n + 1), k)) for _ in range(rng.randint(0, 6))]
    for _ in range(rng.choice([0, 0, 1, 2]) if edges else 0):
        j = rng.randrange(len(edges))
        e = edges[j]
        if not isinstance(e, list) or len(e) != k:
            continue
        what = rng.randrange(8)
        if what == 0:
            e[rng.randrange(k)] = rng.choice([True, False])
        elif what == 1:
            e[0] = 0
        elif what == 2:
            e[-1] = n + 1
        elif what == 3:
            rng.shuffle(e)
        elif what == 4:
            e[-1] = e[0]
        elif what == 5:
            edges[j] = e[:-1] if rng.random() < 0.5 else e + [rng.randint(1, n)]
        elif what == 6:
            e[rng.randrange(k)] = rng.choice([1.0, "1", None, -1])
        else:
            edges[j] = rng.choice([5, "123", {"1": 1}, None])
    return edges


def _edges_or_error(make, *args):
    try:
        return list(make(*args))
    except Exception as e:
        return type(e), str(e)


def test_one_pass_edge_checks_match_edge_by_edge():
    rng = random.Random("edges")
    errors = 0
    for _ in range(600):
        n = rng.randint(1, 7)
        k = rng.randint(1, n)
        doc = _random_edges(rng, n, k)
        oracle = _edges_or_error(edges_edge_by_edge, n, k, doc)
        assert _edges_or_error(lambda: Hypergraph(n, k, cli._edges_from_json(doc)).edges) == oracle, (n, k, doc)
        # the constructor alone, on lists and on tuples, against `as_index_set` per edge
        for edges in (doc, [tuple(e) if isinstance(e, list) else e for e in doc]):
            each = _edges_or_error(lambda: sorted({as_index_set(e, ground=n, size=k) for e in edges}))
            assert _edges_or_error(lambda: Hypergraph(n, k, edges).edges) == each, (n, k, edges)
        errors += isinstance(oracle, tuple)
    # both accepted and refused edge lists are reached
    assert 0 < errors < 600


def test_block_partition_canonicalization():
    p = BlockPartition(5, [(4, 5), (2,), (1, 3)])
    assert p.blocks == ((1, 3), (2,), (4, 5))
    assert p.labels == (0, 1, 0, 2, 2)
    with pytest.raises(ShapeError):
        BlockPartition(5, [(1, 2), (3, 4)])  # misses 5
    with pytest.raises(ShapeError):
        BlockPartition(4, [(1, 2), (2, 3, 4)])  # overlap


def bit_blocks_to_labels(n, blocks):
    """The growth string of blocks of point bits 1 << (i - 1), in the order given."""
    labels = [0] * n
    for j, block in enumerate(blocks):
        for bit in block:
            labels[bit.bit_length() - 1] = j
    return tuple(labels)


def walked_growth_strings(n, k):
    """The growth strings of the partitions `_walk_partitions` visits, in its order."""
    strings = []
    tv._walk_partitions(n, k, lambda blocks: strings.append(bit_blocks_to_labels(n, blocks)))
    return strings


def test_set_partition_counts_match_stirling():
    for n in range(1, 8):
        for k in range(1, n + 1):
            strings = list(set_partitions(n, k))
            assert len(strings) == stirling2(n, k)
            assert walked_growth_strings(n, k) == strings


def test_set_partitions_first_packs_front_block():
    first = next(set_partitions(6, 3))
    assert first == (0, 0, 0, 0, 1, 2)
    assert walked_growth_strings(6, 3)[0] == first
    # the walk shows each block as the bits 1 << (i - 1) of its elements i
    seen = []
    tv._walk_partitions(6, 3, lambda blocks: seen.append([list(b) for b in blocks]))
    assert seen[0] == [[1, 2, 4, 8], [16], [32]]


def test_agrees_with_ordered_partition_oracle():
    rng = random.Random(17)
    for n, k in ((5, 3), (6, 3), (6, 2)):
        all_edges = list(combinations(range(1, n + 1), k))
        for _ in range(12):
            size = rng.randint(1, len(all_edges))
            H = Hypergraph(n, k, rng.sample(all_edges, size))
            assert is_transversal(H) == ordered_partition_oracle(H)


@lru_cache(maxsize=None)
def growth_strings(n, k):
    """Restricted growth strings with k blocks, filtered from all labellings in lex order."""

    def is_growth_string(labels):
        top = -1
        for b in labels:
            if b > top + 1:
                return False
            top = max(top, b)
        return top == k - 1

    return [s for s in product(range(k), repeat=n) if is_growth_string(s)]


@st.composite
def hypergraphs(draw):
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, n))
    all_edges = list(combinations(range(1, n + 1), k))
    return Hypergraph(n, k, draw(st.lists(st.sampled_from(all_edges), max_size=len(all_edges))))


@settings(max_examples=60, deadline=None)
@given(hypergraphs())
def test_failing_partition_is_lex_first_failing_growth_string(H):
    assert is_transversal(H) == ordered_partition_oracle(H)
    expected = next(
        (s for s in growth_strings(H.n, H.k) if not any(len({s[x - 1] for x in e}) == H.k for e in H.edges)),
        None,
    )
    part = failing_partition(H)
    assert (None if part is None else part.labels) == expected


def first_failing_string(H):
    """The lex-first growth string with no edge carrying k distinct labels."""
    return next(
        (s for s in set_partitions(H.n, H.k) if not any(len({s[x - 1] for x in e}) == H.k for e in H.edges)),
        None,
    )


def random_growth_string(rng, n, k):
    while True:
        labels = [rng.randrange(k) for _ in range(n)]
        if len(set(labels)) == k:
            block_of = {}
            return tuple(block_of.setdefault(b, len(block_of)) for b in labels)


def transversal_sets(labels, k):
    return [e for e in combinations(range(1, len(labels) + 1), k) if len({labels[x - 1] for x in e}) == k]


@pytest.mark.parametrize("n, k", [(8, 4), (9, 5)])
@pytest.mark.parametrize("seed", range(4))
def test_failing_partition_matches_oracle_on_planted_families(n, k, seed):
    # drop every edge transversal to a random partition, then a few more edges
    rng = random.Random(f"planted:{n}:{k}:{seed}")
    planted = random_growth_string(rng, n, k)
    hit = set(transversal_sets(planted, k))
    edges = [e for e in combinations(range(1, n + 1), k) if e not in hit]
    for _ in range(seed):
        edges.pop(rng.randrange(len(edges)))
    H = Hypergraph(n, k, edges)
    part = failing_partition(H)
    assert part is not None
    assert part.labels == first_failing_string(H)
    assert part.labels <= planted


def minima_search_families(n, k, rng):
    """Families for the minima search: random, planted, near-complete, empty, greedy covers."""
    all_sets = list(combinations(range(1, n + 1), k))
    families = [rng.sample(all_sets, rng.randint(0, len(all_sets))) for _ in range(3)]
    for _ in range(2):
        hit = set(transversal_sets(random_growth_string(rng, n, k), k))
        planted = [e for e in all_sets if e not in hit]
        families.append(planted)
        families.append(rng.sample(planted, rng.randint(0, len(planted))))
    if len(all_sets) >= n - k + 1:
        families.append(rng.sample(all_sets, len(all_sets) - (n - k + 1)))
    families.append([])
    cover = min_transversal(n, k, "greedy")[1].edges
    families.append(cover)
    families.extend([f for f in cover if f != e] for e in cover)
    return families


@pytest.mark.parametrize(
    "n, k", [(n, k) for n in range(1, 9) for k in range(1, n + 1)] + [(9, 4), (9, 5)]
)
def test_minima_search_matches_oracle(n, k):
    rng = random.Random(f"minima:{n}:{k}")
    for edges in minima_search_families(n, k, rng):
        part = failing_partition(Hypergraph(n, k, edges))
        assert (None if part is None else part.labels) == first_failing_string(Hypergraph(n, k, edges)), edges


def minima_and_swaps(labels, k):
    """A partition's block minima, and those minima with one swapped for another point of its block."""
    n = len(labels)
    minima = tuple(labels.index(j) + 1 for j in range(k))
    swaps = [tuple(sorted(set(minima) - {minima[labels[y - 1]]} | {y})) for y in range(1, n + 1) if y not in minima]
    return minima, swaps


@pytest.mark.parametrize("n, k", [(5, 3), (6, 3), (7, 3), (7, 4), (8, 4)])
def test_minima_search_tests_only_the_partitions_it_must(n, k, monkeypatch):
    leaf = tv._meets_no_edge
    tested = []

    def spy(blocks, masks, missing):
        tested.append(bit_blocks_to_labels(n, blocks))
        return leaf(blocks, masks, missing)

    monkeypatch.setattr(tv, "_meets_no_edge", spy)
    rng = random.Random(f"minima-work:{n}:{k}")
    for edges in minima_search_families(n, k, rng):
        H = Hypergraph(n, k, edges)
        if comb(n, k) - len(H.edges) <= n - k:
            continue  # decided by counting
        edge_set = set(H.edges)
        # a partition can fail only if its minima and every single swap are missing
        candidates = set()
        for labels in set_partitions(n, k):
            minima, swaps = minima_and_swaps(labels, k)
            if minima not in edge_set and not edge_set.intersection(swaps):
                candidates.add(labels)
        tested.clear()
        part = failing_partition(H)
        assert len(set(tested)) == len(tested)
        assert candidates.issuperset(tested)
        if part is None:
            assert set(tested) == candidates
            continue
        by_minima = {}
        for labels in tested:
            by_minima.setdefault(minima_and_swaps(labels, k)[0], []).append(labels)
        for minima, strings in by_minima.items():
            floor = tuple(minima.index(x) if x in minima else 0 for x in range(1, n + 1))
            # no minima set past the answer's is searched ...
            assert floor <= part.labels
            # ... and each searched one stops at its first failing partition
            assert strings == sorted(strings)
            assert all(any(len({s[x - 1] for x in e}) == k for e in H.edges) for s in strings[:-1])
    # the empty family fails at its first partition, and no other is tested
    tested.clear()
    assert failing_partition(Hypergraph(n, k, [])).labels == tested[0]
    assert len(tested) == 1


@pytest.mark.parametrize("n, k", [(5, 2), (6, 3), (8, 4), (7, 6)])
def test_block_count_shortcut_boundary(n, k):
    # with exactly the prod(|block|) transversal sets of P missing, P is the one
    # failing partition; one of them back leaves fewer missing sets than P has
    rng = random.Random(f"boundary:{n}:{k}")
    all_sets = list(combinations(range(1, n + 1), k))
    for _ in range(6):
        P = random_growth_string(rng, n, k)
        hit = transversal_sets(P, k)
        edges = [e for e in all_sets if e not in hit]
        H = Hypergraph(n, k, edges)
        part = failing_partition(H)
        assert part is not None and part.labels == P == first_failing_string(H)
        H = Hypergraph(n, k, edges + [rng.choice(hit)])
        assert failing_partition(H) is None and first_failing_string(H) is None


def test_counting_rule_matches_partition_masks(monkeypatch):
    # a family missing at most n - k of the k-sets is transversal: every
    # k-block partition has at least n - k + 1 transversal k-sets
    rng = random.Random(43)
    search = tv._search_by_minima
    searches = []
    monkeypatch.setattr(
        tv, "_search_by_minima", lambda n, k, *args: searches.append((n, k)) or search(n, k, *args)
    )
    for n in range(1, 9):
        for k in range(1, n + 1):
            all_sets, masks = partition_edge_masks_oracle(n, k)
            # one block of n - k + 1 points and k - 1 singletons: exactly
            # n - k + 1 transversal k-sets, so the bound is tight
            tight = tuple([0] * (n - k + 1) + list(range(1, k)))
            sizes = {n - k, n - k + 1, rng.randint(0, len(all_sets))}
            families = [rng.sample(all_sets, len(all_sets) - m) for m in sizes if m <= len(all_sets) for _ in range(3)]
            hit = set(transversal_sets(tight, k))
            families.append([e for e in all_sets if e not in hit])
            for edges in families:
                H = Hypergraph(n, k, edges)
                chosen = sum(1 << b for b, e in enumerate(all_sets) if e in H.edges)
                searches.clear()
                part = failing_partition(H)
                assert (part is None) == all(m & chosen for m in masks)
                assert (part is None and not searches) == (len(all_sets) - len(H.edges) <= n - k)
                if part is not None:
                    assert part.labels == first_failing_string(H)
            assert failing_partition(Hypergraph(n, k, families[-1])).labels == tight


def test_counting_rule_comes_after_the_budget():
    # the complete family needs no search, yet S(14, 7) * C(14, 7) is over the budget
    with pytest.raises(BudgetExceededError):
        failing_partition(Hypergraph(14, 7, combinations(range(1, 15), 7)))


def test_partition_edge_masks_match_per_edge_reference():
    for n in range(1, 8):
        for k in range(1, n + 1):
            assert tv._partition_edge_masks(n, k) == partition_edge_masks_oracle(n, k)


def test_partition_walk_is_budgeted():
    # S(14, 7) = 49,329,280 partitions for even a single edge
    with pytest.raises(BudgetExceededError):
        failing_partition(Hypergraph(14, 7, [range(1, 8)]))
    # the largest walk the package runs elsewhere stays admitted: S(9, 5) * C(9, 5) = 875,826
    assert failing_partition(Hypergraph(9, 5, combinations(range(1, 10), 5))) is None


def test_exact_minimum_budget_is_checked_before_any_partition(monkeypatch):
    def walked(n, k, visit):
        raise AssertionError("_walk_partitions was called")

    monkeypatch.setattr(tv, "_walk_partitions", walked)
    with pytest.raises(BudgetExceededError):
        min_transversal(9, 5)


@pytest.mark.parametrize("mode", ["exact", "greedy"])
def test_min_transversal_rejects_bad_shapes(mode, monkeypatch):
    def walked(n, k, visit):
        raise AssertionError("_walk_partitions was called")

    monkeypatch.setattr(tv, "_walk_partitions", walked)
    for n, k in ((3, 5), (4, 0), (4, -1)):
        with pytest.raises(ShapeError):
            min_transversal(n, k, mode)


def test_pentagon_is_transversal_and_tight():
    H = pentagon_hypergraph()
    assert is_transversal(H)
    for e in H.edges:
        smaller = Hypergraph(5, 3, [f for f in H.edges if f != e])
        part = failing_partition(smaller)
        assert part is not None
        assert not any(edge_is_transversal_to(f, part) for f in smaller.edges)


def test_failing_partition_is_scan_first():
    H = Hypergraph(5, 3, [(1, 2, 3)])
    part = failing_partition(H)
    assert part.blocks == ((1, 2, 3), (4,), (5,))


def test_ydn_witness_brackets():
    part = BlockPartition(7, [(1, 4), (2, 5), (3, 6), (7,)])
    basis = Matrix(QQ, [[1, 0, 0, 1], [0, 1, 0, 2], [0, 0, 1, 3], [0, 0, 0, 1]])
    p = ydn_witness(part, basis)
    assert (p.d, p.n) == (3, 7)
    for e in combinations(range(1, 8), 4):
        val = minor(p.coords, range(1, 5), e)
        assert (val != 0) == edge_is_transversal_to(e, part)
    with pytest.raises(ShapeError):
        ydn_witness(part, Matrix(QQ, [[1, 0], [0, 1]]))
    with pytest.raises(ShapeError):
        ydn_witness(part, Matrix(QQ, [[1, 2, 0, 0], [2, 4, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))


def test_v2n_witness_conic_values():
    from veronese_kit.conic import phi_det

    part = BlockPartition(8, [(1, 7), (2, 8), (3,), (4,), (5,), (6,)])
    six = make_config(QQ, 2, 6, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 4), (1, 3, 9)])
    assert phi_det(six) != 0
    p = v2n_witness(part, six)
    for S in combinations(range(1, 9), 6):
        val = phi_det(subconfig(p, S))
        assert (val != 0) == edge_is_transversal_to(S, part)
    with pytest.raises(ShapeError):
        v2n_witness(BlockPartition(8, [(1, 2, 3), (4, 5, 6), (7,), (8,)]), six)


def test_min_transversal_pentagon_shape():
    size, H = min_transversal(5, 3)
    assert size == 5 and is_transversal(H)
    gsize, GH = min_transversal(5, 3, mode="greedy")
    assert gsize >= size and is_transversal(GH)


def test_greedy_cover_matches_recounting_oracle():
    # every admitted shape with n <= 9, and (11, 8), the largest admitted one
    shapes = [(n, k) for n in range(1, 10) for k in range(1, n + 1)] + [(11, 8)]
    for n, k in shapes:
        assert tv._stirling2(n, k) * comb(n, k) <= tv.PARTITION_WORK_BUDGET, (n, k)
        edges, masks = tv._partition_edge_masks(n, k)
        chosen = greedy_cover_oracle(masks, len(edges))
        size, H = min_transversal(n, k, "greedy")
        assert size == len(chosen) and H.edges == tuple(edges[b] for b in chosen), (n, k)


def test_min_transversal_star_cover_shape():
    # (6, 5): an edge omits one vertex and covers the partitions whose
    # doubleton meets it, so the minimum is a vertex cover of K6, namely 5
    size, H = min_transversal(6, 5)
    assert size == 5 and is_transversal(H)


def test_min_transversal_budget_and_mode(monkeypatch):
    def walked(n, k, visit):
        raise AssertionError("_walk_partitions was called")

    # C(7, 3) = 35 candidate edges, over the budget: refused before any partition is walked
    monkeypatch.setattr(tv, "_walk_partitions", walked)
    with pytest.raises(BudgetExceededError):
        min_transversal(7, 3)
    with pytest.raises(ValueError):
        min_transversal(5, 3, mode="best")


#: every shape `min_transversal(n, k, "exact")` admits; n <= 28 holds them all
ADMITTED = [(n, k) for n in range(1, 29) for k in range(1, n + 1) if comb(n, k) <= tv.MIN_SEARCH_EDGE_BUDGET]
#: the shapes the subset-scan oracle checks: C(n, k) <= 14, and five it still scans in about a second
ORACLE_SHAPES = [(n, k) for n, k in ADMITTED if comb(n, k) <= 14] + [(6, 2), (6, 3), (6, 4), (7, 2), (8, 2)]
#: minima of the admitted shapes outside ORACLE_SHAPES that have no closed form below
PINNED_MINIMA = {(7, 5): 13, (8, 6): 18}

exact_minimum = lru_cache(maxsize=None)(min_transversal)


@pytest.mark.parametrize("n, k", ORACLE_SHAPES)
def test_exact_minimum_matches_the_subset_scan(n, k):
    size, H = exact_minimum(n, k)
    assert (size, H.edges) == min_transversal_oracle(n, k)


def _closed_form_minimum(n, k):
    """1 at k in {1, n}; n - 1 at k = 2 (a spanning tree: the 2-block
    partitions are the cuts of K_n) and at k = n - 1 (a vertex cover of K_n:
    an edge leaves out one point and is transversal to the partitions whose
    one doubleton holds that point); None otherwise."""
    if k in (1, n):
        return 1
    if k in (2, n - 1):
        return n - 1
    return None


@pytest.mark.parametrize("n, k", [s for s in ADMITTED if s not in ORACLE_SHAPES])
def test_exact_minimum_closed_forms_and_pins(n, k):
    expected = _closed_form_minimum(n, k)
    if expected is None:
        expected = PINNED_MINIMA[(n, k)]
    assert exact_minimum(n, k)[0] == expected


@pytest.mark.parametrize("n, k", ADMITTED)
def test_exact_minimum_family_is_transversal(n, k):
    size, H = exact_minimum(n, k)
    assert len(H.edges) == size and H.edges[0] == tuple(range(1, k + 1))
    assert failing_partition(H) is None


@pytest.mark.parametrize("n, k", ADMITTED + [(40, 40)])
def test_bounds_do_not_exceed_the_exact_minimum(n, k):
    # every admitted shape, (n, n - 1) up to n = 28 among them
    size, _ = exact_minimum(n, k)
    assert max(bounds(n, k)) <= size


def test_bounds_hand_values():
    assert bounds(5, 3) == (4, 5)
    assert bounds(7, 6) == (4, 5)
    assert bounds(6, 5) == (3, 4)
    with pytest.raises(ShapeError):
        bounds(3, 4)
