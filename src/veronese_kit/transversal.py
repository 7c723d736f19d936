"""Hypergraph transversality for partitions, and the witness configurations.

A k-uniform hypergraph H on [n] is *partition-transversal* when every
partition of [n] into k nonempty blocks admits an edge meeting each block
exactly once. This combinatorial property is what decides whether a family
of equation pullbacks indexed by the edges already detects membership: a
failing partition converts directly into a configuration on which every
edge-indexed equation vanishes while some other pullback does not.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations, product
from math import ceil, comb, prod
from operator import lt
from typing import Callable, Iterable, Optional

from .configurations import PointConfiguration, make_config
from .errors import BudgetExceededError, ShapeError, check_budget
from .linalg import IndexSet, Matrix, as_index_set, rank

#: The exact minimum search is limited to this many candidate edges, C(n, k).
#: The slowest admitted shape, (8, 6), takes about 0.3 s in-process; the
#: next edge count, 35, holds (7, 3) and (7, 4), which take 2.2-2.8 and
#: 1.5-1.9 s (2-core host, Python 3.11).
MIN_SEARCH_EDGE_BUDGET = 28
#: A partition search or walk is limited to S(n, k) * (edges tested) edge
#: tests, S(n, k) bounding the partitions either can reach. At the budget the
#: `--min` walk takes about 0.06 s; the `--edges` search, which reaches only
#: partitions whose minima are a missing k-set, takes under 10 ms on the
#: slowest families measured (README: Command line).
PARTITION_WORK_BUDGET = 2_000_000


@dataclass(frozen=True)
class Hypergraph:
    """k-uniform hypergraph on ground set [n]; edges stored sorted, 1-based."""

    n: int
    k: int
    edges: tuple[IndexSet, ...]

    def __init__(self, n: int, k: int, edges: Iterable[Iterable[int]]):
        if not 1 <= k <= n:
            raise ShapeError(f"need 1 <= k <= n, got k={k}, n={n}")
        edges = list(edges)
        # one type pass over every entry, then one size, order and bounds check per edge;
        # input either refuses goes through `as_index_set`, edge by edge, for the error
        if (
            set(map(type, edges)) <= {tuple, list}
            and set(map(type, chain.from_iterable(edges))) <= {int}
            and all(len(e) == k and 0 < e[0] and e[-1] <= n and all(map(lt, e, e[1:])) for e in edges)
        ):
            canon = sorted(set(map(tuple, edges)))
        else:
            canon = sorted({as_index_set(e, ground=n, size=k) for e in edges})
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "edges", tuple(canon))

    def __len__(self):
        return len(self.edges)


@dataclass(frozen=True)
class BlockPartition:
    """Partition of [n] into nonempty blocks, ordered by smallest element.

    `labels` is its restricted growth string: `labels[i - 1]` is the 0-based
    block of element i.
    """

    n: int
    blocks: tuple[IndexSet, ...]
    labels: tuple[int, ...]

    def __init__(self, n: int, blocks: Iterable[Iterable[int]]):
        bs = sorted((as_index_set(b, ground=n) for b in blocks), key=lambda b: b[0])
        labels = [-1] * n
        for b_idx, b in enumerate(bs):
            for x in b:
                labels[x - 1] = b_idx
        # n entries that label all n elements cannot put one element in two blocks
        if -1 in labels or sum(len(b) for b in bs) != n:
            raise ShapeError("blocks must partition [n] exactly")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", tuple(bs))
        object.__setattr__(self, "labels", tuple(labels))


def _walk_partitions(n: int, k: int, visit: Callable[[list[list[int]]], None]) -> None:
    """Visit every k-block partition of [n], 1 <= k <= n, in growth-string (lex) order.

    Block j is the list of bits 1 << (i - 1) of its elements i, blocks numbered
    by their smallest element, so the first partition packs {1, ..., n-k+1}
    into the first block. `visit` sees the live block lists.

    The walk is iterative, so n is not bounded by the recursion limit. It
    steps through the placements of elements 1..n-1 in the same order: each
    is completed by the least choices (element i + 1 joins the first block
    while the rest can still open the others, and opens the next block
    otherwise), and the next one moves the last element that has a next
    choice (the next open block, or a new one). Element n then joins every
    block when all k are open, and opens the last one otherwise.
    """
    blocks: list[list[int]] = [[] for _ in range(k)]
    label = [0] * n  # the block of each element
    opened = [0] * n  # the blocks opened before each element
    last = 1 << (n - 1)
    i = used = 0
    while True:
        for j in range(i, n - 1):
            b = 0 if used + n - j > k else used
            opened[j], label[j] = used, b
            blocks[b].append(1 << j)
            used += b == used
        for block in blocks if used == k else blocks[used:used + 1]:
            block.append(last)
            visit(blocks)
            block.pop()
        for i in range(n - 2, -1, -1):
            blocks[label[i]].pop()
            used, b = opened[i], label[i] + 1
            if b < used or b == used < k:
                label[i] = b
                blocks[b].append(1 << i)
                used += b == used
                i += 1
                break
        else:
            return


def _stirling2(n: int, k: int) -> int:
    """S(n, k), the number of partitions of [n] into k blocks."""
    row = [1] + [0] * k  # row[j] = S(i, j), here for i = 0
    for i in range(1, n + 1):
        for j in range(min(i, k), 0, -1):
            row[j] = j * row[j] + row[j - 1]
        row[0] = 0
    return row[k]


def _check_partition_work(n: int, k: int, edges_tested: int) -> None:
    """Refuse a search over the k-block partitions of [n] above the work budget."""
    count = _stirling2(n, k)
    work = count * edges_tested
    what = f"(n, k) = ({n}, {k}) has {count} partitions x {edges_tested} edges = {work} edge tests"
    check_budget(work, PARTITION_WORK_BUDGET, what)


def _edge_mask(edge: IndexSet) -> int:
    return sum(1 << (x - 1) for x in edge)


def _growth_string(n: int, blocks: Iterable[Iterable[int]]) -> tuple[int, ...]:
    """The growth string of blocks of point bits, numbered by their smallest element."""
    labels = [0] * n
    for j, block in enumerate(blocks):
        for bit in block:
            labels[bit.bit_length() - 1] = j
    return tuple(labels)


def _meets_no_edge(blocks: list[list[int]], masks: set[int], missing: int) -> bool:
    """Whether no k-set transversal to the blocks of point bits is in `masks`.

    `missing` counts the k-sets outside `masks`: a partition with more
    transversal k-sets than that meets an edge, with no lookup made.
    """
    return prod(map(len, blocks)) <= missing and masks.isdisjoint(map(sum, product(*blocks)))


def _search_by_minima(n: int, k: int, masks: set[int], missing: int) -> Optional[list[list[int]]]:
    """Blocks (point bits) of the lex-first k-block partition with no k-set of `masks` transversal.

    Searches the partitions by their minima sets t, each a k-set missing
    from `masks`; `failing_partition` has the proof. `missing` counts the
    k-sets outside `masks`; the result is None when every partition meets one.
    """
    full = (1 << n) - 1
    best: Optional[tuple[int, ...]] = None
    found: Optional[list[list[int]]] = None
    # the points outside t are the ones floor(t) labels 0, so their sets in
    # lex order give the minima sets t (all holding point 1) in floor order
    for rest in combinations([1 << x for x in range(1, n)], n - k):
        t = full - sum(rest)
        if t in masks:
            continue
        minima = [bit for bit in (1 << x for x in range(n)) if t & bit]
        if best is not None and _growth_string(n, ([m] for m in minima)) >= best:
            break
        # the blocks point y may join: t with that block's minimum swapped for y is missing
        options = []
        for y in rest:
            allowed = [i for i, m in enumerate(minima) if m < y and t - m + y not in masks]
            if not allowed:
                break
            options.append(allowed)
        else:
            for choice in product(*options):
                blocks = [[m] for m in minima]
                for y, i in zip(rest, choice):
                    blocks[i].append(y)
                if _meets_no_edge(blocks, masks, missing):
                    labels = _growth_string(n, blocks)
                    if best is None or labels < best:
                        best, found = labels, blocks
                    break
    return found


def failing_partition(H: Hypergraph) -> Optional[BlockPartition]:
    """First k-block partition (growth-string order) with no transversal edge.

    The k-sets transversal to a partition are the products of its blocks,
    prod(|block|) of them, all distinct. When that count exceeds the
    C(n, k) - |E| k-sets missing from H, one of them is an edge, so the
    partition is passed without looking any up.

    Every k-block partition has prod(|block|) >= n - k + 1, so H is
    transversal, with no search, when at most n - k k-sets are missing. For
    ints a, b >= 1, ab >= a + b - 1 since (a - 1)(b - 1) >= 0; folding the
    blocks one at a time gives prod(|block|) >= 1 + sum(|block| - 1) =
    n - k + 1. The budget check comes first, so an input over it exits 3
    whether or not the count decides it.

    Otherwise the search starts from the missing k-sets, the family M. Let P
    fail, with block minima t = {1 = t_1 < ... < t_k}. Then t meets every
    block once, so t is in M; and for y in block i, t - t_i + y also meets
    every block once, so it is in M too. Hence, for each t in M holding 1:
      - point y outside t may join only the blocks i with t_i < y (block i
        is numbered by its minimum) and t - t_i + y in M, one set lookup
        each; when no block is left for some y, no partition with minima t
        fails and t is dropped;
      - the partitions with minima t are the choices of one such block per
        y, and taking y ascending and blocks ascending (a depth-first search,
        `product` of the allowed blocks) visits them in growth-string order,
        so the first that fails (prod(|block|) <= |M| and every product of
        its blocks in M) is the lex-first failing partition with minima t.
    The least growth string with minima t, floor(t), labels every other
    point 0. Two floors first differ at a point one labels 0 and the other
    opens a block at, so the sorted 0-labelled points, taken in lex order
    (`combinations`), give the t's in floor order. Every string with minima
    t' is at least floor(t'), so once floor(t) reaches the best string found,
    no later t' can beat it and the search stops.
    A partition has one minima set and one block per point, so none is
    reached twice, and the search tests at most the S(n, k) partitions the
    budget counts.
    """
    _check_partition_work(H.n, H.k, len(H.edges))
    masks = {_edge_mask(e) for e in H.edges}
    missing = comb(H.n, H.k) - len(masks)
    if missing <= H.n - H.k:
        return None
    blocks = _search_by_minima(H.n, H.k, masks, missing)
    if blocks is None:
        return None
    return BlockPartition(H.n, [[bit.bit_length() for bit in block] for block in blocks])


def is_transversal(H: Hypergraph) -> bool:
    return failing_partition(H) is None


# ---------------------------------------------------------------------------
# witness configurations
# ---------------------------------------------------------------------------


def ydn_witness(part: BlockPartition, basis: Matrix) -> PointConfiguration:
    """Blow the partition up into a point configuration: point i = basis column b(i).

    `basis` must be a square invertible matrix of size k = number of blocks
    (columns = the chosen spanning points). Every edge transversal to the
    partition has nonzero bracket on the result; every other edge repeats a
    column and its bracket vanishes.
    """
    k = len(part.blocks)
    if basis.shape != (k, k):
        raise ShapeError(f"basis must be {k} x {k}, got {basis.shape}")
    if rank(basis) < k:
        raise ShapeError("basis columns must be linearly independent")
    cols = [basis.column(b) for b in part.labels]
    return make_config(basis.field, k - 1, part.n, cols)


def v2n_witness(part: BlockPartition, six: PointConfiguration) -> PointConfiguration:
    """Blow a 6-block partition up along six given points of P^2.

    Point i of the result is the six-configuration's point for the block of
    i. Each six-point subset transversal to the partition evaluates the conic
    determinant at exactly the six given points; any other subset repeats a
    point and the determinant vanishes.
    """
    if len(part.blocks) != 6:
        raise ShapeError(f"need a 6-block partition, got {len(part.blocks)} blocks")
    if six.d != 2 or six.n != 6:
        raise ShapeError("need six points of P^2")
    cols = [six.point(b + 1) for b in part.labels]
    return make_config(six.field, 2, part.n, cols)


# ---------------------------------------------------------------------------
# minimum transversal families
# ---------------------------------------------------------------------------


def _partition_edge_masks(n: int, k: int) -> tuple[list[IndexSet], list[int]]:
    """All k-subsets of [n] as edges, and per partition the bitmask of its transversal edges."""
    edges = list(combinations(range(1, n + 1), k))
    _check_partition_work(n, k, len(edges))
    bit_of = {_edge_mask(e): 1 << j for j, e in enumerate(edges)}
    masks: list[int] = []

    def record(blocks: list[list[int]]) -> None:
        masks.append(sum(map(bit_of.__getitem__, map(sum, product(*blocks)))))

    _walk_partitions(n, k, record)
    return edges, masks


def _bits(mask: int) -> list[int]:
    """The indices of the set bits of `mask`, ascending."""
    return [b for b, c in enumerate(bin(mask)[:1:-1]) if c == "1"]


def min_transversal(n: int, k: int, mode: str = "exact") -> tuple[int, Hypergraph]:
    """Smallest (or greedily small) edge count of a transversal hypergraph.

    A hypergraph is transversal iff its edge set hits, for every k-block
    partition, the set of edges transversal to that partition — a hitting-set
    problem over the C(n, k) candidate edges, numbered in lex order.
    `greedy` returns an upper bound. `exact` (budgeted at C(n, k) <=
    `MIN_SEARCH_EDGE_BUDGET` edges) returns the lexicographically first
    minimum family: the first family `combinations(range(C(n, k)), size)`
    yields at the least transversal size. `_exact_minimum` finds it by
    iterative deepening on the size, each size a depth-first search that
    adds edges in ascending order, so the first family found is the
    lex-first one as long as no cut discards it. The start and the cuts:
      - *Sizes start at the incidence bound ceil(C(n, k-1) / k).* For k < n,
        the C(n, k-1) partitions into k - 1 singletons and one block of the
        other n - k + 1 >= 2 points are distinct, and an edge is transversal
        to such a partition iff it holds its k - 1 singletons, so to exactly
        k of them (leave out one of its points). At k = n the bound is 1.
      - *The first edge is edge 0, {1..k}.* A permutation of [n] maps
        transversal families to transversal families of the same size, and
        some permutation maps a given edge of a family to {1..k}. So if any
        family of a size is transversal, one holding edge 0 is, and every
        family holding edge 0 comes before every family without it.
      - *The second edge is the least of its orbit* under S_k x S_{n-k}, the
        permutations that fix {1..k}. The orbit of an edge e is the set of
        edges meeting {1..k} in as many points as e, say j, and its least
        edge is {1..j} + {k+1..2k-j}: an edge's points in {1..k} are its
        first ones, so its i-th point is at least i for i <= j and k + i - j
        after. If the lex-first family F = {0 < b < ...} had sigma(b) < b for
        such a sigma, then sigma(F) would be transversal, of the same size,
        hold sigma(0) = 0 and a second edge at most sigma(b) < b, and so
        come before F.
      - *At each node* (the edges chosen so far, r more to come from the
        allowed edges, those after the last one chosen):
          - an uncovered partition (no chosen edge is transversal to it)
            that no allowed edge hits can never be covered: one test against
            the union of the partitions the allowed edges hit;
          - uncovered partitions no two of which one allowed edge hits need
            an edge each, so a greedy packing of more than r of them cuts.
            It takes the uncovered partition with the fewest transversal
            edges first, and drops each partition one of its allowed edges
            hits, itself included by the test above;
          - an allowed edge that hits no uncovered partition is skipped: a
            family holding it would stay transversal without it, and no
            family below the least size is transversal.
    The degree-averaging bound of `bounds` is not proved, so no cut uses it.
    Returns (size, example).
    """
    if mode not in ("exact", "greedy"):
        raise ValueError(f"mode must be 'exact' or 'greedy', got {mode!r}")
    if not 1 <= k <= n:
        raise ShapeError(f"need 1 <= k <= n, got k={k}, n={n}")
    if mode == "exact" and comb(n, k) > MIN_SEARCH_EDGE_BUDGET:
        raise BudgetExceededError(
            f"exact search needs C(n, k) <= {MIN_SEARCH_EDGE_BUDGET} edges, got {comb(n, k)}"
        )
    edges, masks = _partition_edge_masks(n, k)
    m = len(edges)
    if mode == "greedy":
        # each partition as the set of its transversal edges; hits[b] counts
        # the uncovered partitions that edge b is transversal to
        uncovered = [set(_bits(mask)) for mask in masks]
        hits = Counter(chain.from_iterable(uncovered))
        chosen: list[int] = []
        while uncovered:
            # the first edge of most hits; a chosen edge has none left
            best = max(range(m), key=hits.__getitem__)
            if hits[best] <= 0:
                raise BudgetExceededError("greedy cover stalled (unhittable partition)")
            chosen.append(best)
            hits.subtract(chain.from_iterable(bits for bits in uncovered if best in bits))
            uncovered = [bits for bits in uncovered if best not in bits]
        chosen.sort()
        return len(chosen), Hypergraph(n, k, [edges[b] for b in chosen])

    chosen = _exact_minimum(n, k, edges, masks)
    return len(chosen), Hypergraph(n, k, [edges[b] for b in chosen])


def _exact_minimum(n: int, k: int, edges: list[IndexSet], masks: list[int]) -> list[int]:
    """The lex-first minimum transversal family, as ascending edge indices.

    A branch and bound over the partition masks of `_partition_edge_masks`;
    `min_transversal` proves its start size and its cuts. The partitions are
    renumbered by their count of transversal edges, fewest first, and
    `hit[j]` is the bitmask of the partitions edge j is transversal to.
    """
    m = len(edges)
    parts = sorted(map(_bits, masks), key=len)
    hit = [0] * m
    for i, js in enumerate(parts):
        for j in js:
            hit[j] |= 1 << i
    # reach[b]: the partitions edges b.. hit; unions[a] of a partition with
    # edges js: the partitions edges js[a:] hit
    reach = [0] * (m + 1)
    for b in range(m - 1, -1, -1):
        reach[b] = reach[b + 1] | hit[b]
    packs = []
    for js in parts:
        unions = [0] * (len(js) + 1)
        for a in range(len(js) - 1, -1, -1):
            unions[a] = unions[a + 1] | hit[js[a]]
        packs.append((js, unions))
    # the least edge of each orbit but edge 0's: {1..j} + {k+1..2k-j}, j < k
    seconds = [
        edges.index((*range(1, j + 1), *range(k + 1, 2 * k - j + 1))) for j in range(k - 1, max(2 * k - n, 0) - 1, -1)
    ]
    chosen = [0]

    def extend(start: int, left: int, uncovered: int, candidates: Iterable[int]) -> bool:
        """Whether `left` more edges, the next one from `candidates` and each
        later one after the one before, can cover `uncovered`; when they can,
        `chosen` ends with the lex-first such edges."""
        if not uncovered:
            return True
        if not left or uncovered & ~reach[start]:
            return False
        rest = uncovered
        for _ in range(left):
            js, unions = packs[(rest & -rest).bit_length() - 1]
            rest &= ~unions[bisect_left(js, start)]
            if not rest:
                break
        else:
            return False
        for b in candidates:
            h = hit[b]
            if h & uncovered:
                chosen.append(b)
                if extend(b + 1, left - 1, uncovered & ~h, range(b + 1, m - left + 2)):
                    return True
                chosen.pop()
        return False

    for size in range(bounds(n, k)[0], m + 1):
        if extend(1, size - 1, ((1 << len(parts)) - 1) & ~hit[0], seconds):
            return chosen
    raise RuntimeError("no transversal family found, yet the complete family is transversal")


def bounds(n: int, k: int) -> tuple[int, int]:
    """Two lower bounds for the minimum transversal edge count.

    Returns (incidence bound, degree-averaging bound):
      incidence:  ceil(C(n, k-1) / k)
      averaging:  ceil(2 C(n, k) / (n - k + 2)) for k >= 2, and 1 at k = 1
    The incidence bound is proved in `min_transversal`, whose exact search
    starts from it. At k = 1 the averaging formula reads ceil(2n / (n + 1))
    = 2 for n >= 2, while any one edge is transversal to the one partition,
    so the minimum is 1. For k >= 2 the averaging bound is not proved here,
    and the exact search does not prune with it. It is checked against the
    exact minimum of every shape `min_transversal` admits (C(n, k) <= 28):
    (n, 1) and (n, n - 1) for n <= 28, (n, 2) and (n, n - 2) for n <= 8,
    (6, 3), and (n, n) at n <= 28 and n = 40.
    A variant reading replaces the numerator by 2 C(n, k-1), which exceeds
    the minimum 6 at (7, 6).
    """
    if not 1 <= k <= n:
        raise ShapeError(f"need 1 <= k <= n, got k={k}, n={n}")
    incidence = ceil(comb(n, k - 1) / k)
    averaging = 1 if k == 1 else ceil(2 * comb(n, k) / (n - k + 2))
    return incidence, averaging


def pentagon_hypergraph() -> Hypergraph:
    """The five-edge wrap-around family on [5]: {123, 234, 345, 451, 512}.

    Transversal for (n, k) = (5, 3), and of minimum size for that shape.
    """
    return Hypergraph(5, 3, [(1, 2, 3), (2, 3, 4), (3, 4, 5), (1, 4, 5), (1, 2, 5)])
