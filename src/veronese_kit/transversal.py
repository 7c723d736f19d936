"""Hypergraph transversality for partitions, and the witness configurations.

A k-uniform hypergraph H on [n] is *partition-transversal* when every
partition of [n] into k nonempty blocks admits an edge meeting each block
exactly once. This combinatorial property is what decides whether a family
of equation pullbacks indexed by the edges already detects membership: a
failing partition converts directly into a configuration on which every
edge-indexed equation vanishes while some other pullback does not.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations, product
from math import ceil, comb, prod
from operator import lt
from typing import Callable, Iterable, Optional

from .configurations import PointConfiguration, make_config
from .errors import BudgetExceededError, ShapeError, check_budget
from .linalg import IndexSet, Matrix, as_index_set, rank

#: Exhaustive minimum search is limited to this many candidate edges (2^14 masks).
MIN_SEARCH_EDGE_BUDGET = 14
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


def min_transversal(n: int, k: int, mode: str = "exact") -> tuple[int, Hypergraph]:
    """Smallest (or greedily small) edge count of a transversal hypergraph.

    A hypergraph is transversal iff its edge set hits, for every k-block
    partition, the set of edges transversal to that partition — a hitting-set
    problem over C(n, k) candidate edges. `exact` scans subsets by size
    (budgeted at C(n, k) <= 14 edges); `greedy` returns an upper bound.
    Returns (size, example); the exact example is the lexicographically
    first minimum one.
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
        uncovered = [{b for b, c in enumerate(bin(mask)[:1:-1]) if c == "1"} for mask in masks]
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

    for size in range(1, m + 1):
        for combo in combinations(range(m), size):
            sel = 0
            for bit in combo:
                sel |= 1 << bit
            if all(mask & sel for mask in masks):
                return size, Hypergraph(n, k, [edges[b] for b in combo])
    raise BudgetExceededError("no transversal subset found (unreachable for complete edge sets)")


def bounds(n: int, k: int) -> tuple[int, int]:
    """Two lower bounds for the minimum transversal edge count.

    Returns (incidence bound, degree-averaging bound):
      incidence:  ceil(C(n, k-1) / k)
      averaging:  ceil(2 C(n, k) / (n - k + 2)) for k >= 2, and 1 at k = 1
    At k = 1 the formula reads ceil(2n / (n + 1)) = 2 for n >= 2, while any
    one edge is transversal to the one partition, so the minimum is 1. For
    k >= 2 the averaging bound is not proved here; it is checked against the
    exact minimum of every shape with n <= 14 that `min_transversal` admits.
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
