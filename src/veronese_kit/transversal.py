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
from typing import Callable, Iterable, Optional

from .configurations import PointConfiguration, make_config
from .errors import BudgetExceededError, ShapeError
from .linalg import IndexSet, Matrix, as_index_set, rank

#: Exhaustive minimum search is limited to this many candidate edges (2^14 masks).
MIN_SEARCH_EDGE_BUDGET = 14
#: A partition walk is limited to S(n, k) * (edges tested) edge tests; at the
#: budget the walk itself takes under 0.1 s (README: Command line).
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


def _walk_partitions(n: int, k: int, visit: Callable[[list[list[int]]], bool]) -> Optional[list[list[int]]]:
    """Visit the k-block partitions of [n], 1 <= k <= n, in growth-string (lex) order.

    Block j is the list of bits 1 << (i - 1) of its elements i, blocks numbered
    by their smallest element, so the first partition packs {1, ..., n-k+1}
    into the first block. `visit` sees the live block lists; the walk stops at
    the first partition for which it returns True and returns that
    partition's blocks, or None when it returns True for none.
    """
    blocks: list[list[int]] = [[] for _ in range(k)]

    def rec(i: int, used: int) -> bool:
        if i == n:
            return visit(blocks)
        bit = 1 << i
        # element i + 1 joins an open block only if the rest can still open the others
        if used + n - i > k:
            for block in blocks[:used]:
                block.append(bit)
                if rec(i + 1, used):
                    return True
                block.pop()
        if used < k:
            blocks[used].append(bit)
            if rec(i + 1, used + 1):
                return True
            blocks[used].pop()
        return False

    return blocks if rec(0, 0) else None


def _stirling2(n: int, k: int) -> int:
    """S(n, k), the number of partitions of [n] into k blocks."""
    row = [1] + [0] * k  # row[j] = S(i, j), here for i = 0
    for i in range(1, n + 1):
        for j in range(min(i, k), 0, -1):
            row[j] = j * row[j] + row[j - 1]
        row[0] = 0
    return row[k]


def _check_partition_work(n: int, k: int, edges_tested: int) -> None:
    """Refuse a walk over the k-block partitions of [n] above the work budget."""
    count = _stirling2(n, k)
    if count * edges_tested > PARTITION_WORK_BUDGET:
        raise BudgetExceededError(
            f"(n, k) = ({n}, {k}) has {count} partitions x {edges_tested} edges = "
            f"{count * edges_tested} edge tests, over the budget of {PARTITION_WORK_BUDGET}"
        )


def _edge_mask(edge: IndexSet) -> int:
    return sum(1 << (x - 1) for x in edge)


def failing_partition(H: Hypergraph) -> Optional[BlockPartition]:
    """First k-block partition (growth-string order) with no transversal edge.

    The k-sets transversal to a partition are the products of its blocks,
    prod(|block|) of them, all distinct. When that count exceeds the
    C(n, k) - |E| k-sets missing from H, one of them is an edge, so the
    partition is passed without looking any up.

    Every k-block partition has prod(|block|) >= n - k + 1, so H is
    transversal, with no walk, when at most n - k k-sets are missing. For
    ints a, b >= 1, ab >= a + b - 1 since (a - 1)(b - 1) >= 0; folding the
    blocks one at a time gives prod(|block|) >= 1 + sum(|block| - 1) =
    n - k + 1. The budget check comes first, so an input over it exits 3
    whether or not the count decides it.
    """
    _check_partition_work(H.n, H.k, len(H.edges))
    masks = {_edge_mask(e) for e in H.edges}
    missing = comb(H.n, H.k) - len(masks)
    if missing <= H.n - H.k:
        return None

    def fails(blocks: list[list[int]]) -> bool:
        return prod(map(len, blocks)) <= missing and masks.isdisjoint(map(sum, product(*blocks)))

    blocks = _walk_partitions(H.n, H.k, fails)
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

    def record(blocks: list[list[int]]) -> bool:
        masks.append(sum(map(bit_of.__getitem__, map(sum, product(*blocks)))))
        return False

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
      averaging:  ceil(2 C(n, k) / (n - k + 2))
    The averaging bound is implemented in the form consistent with arbitrary
    (n, k); a variant reading replaces the numerator by 2 C(n, k-1). Both
    are lower bounds for the pairs this package verifies exactly.
    """
    if not 1 <= k <= n:
        raise ShapeError(f"need 1 <= k <= n, got k={k}, n={n}")
    incidence = ceil(comb(n, k - 1) / k)
    averaging = ceil(2 * comb(n, k) / (n - k + 2))
    return incidence, averaging


def pentagon_hypergraph() -> Hypergraph:
    """The five-edge wrap-around family on [5]: {123, 234, 345, 451, 512}.

    Transversal for (n, k) = (5, 3), and of minimum size for that shape.
    """
    return Hypergraph(5, 3, [(1, 2, 3), (2, 3, 4), (3, 4, 5), (1, 4, 5), (1, 2, 5)])
