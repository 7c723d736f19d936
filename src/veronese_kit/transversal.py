"""Hypergraph transversality for partitions, and the witness configurations.

A k-uniform hypergraph H on [n] is *partition-transversal* when every
partition of [n] into k nonempty blocks admits an edge meeting each block
exactly once. This combinatorial property is what decides whether a family
of equation pullbacks indexed by the edges already detects membership: a
failing partition converts directly into a configuration on which every
edge-indexed equation vanishes while some other pullback does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import ceil, comb
from typing import Iterable, Iterator, Optional

from .configurations import PointConfiguration, make_config
from .errors import BudgetExceededError, ShapeError
from .linalg import IndexSet, Matrix, as_index_set, rank

#: Exhaustive minimum search is limited to this many candidate edges (2^14 masks).
MIN_SEARCH_EDGE_BUDGET = 14


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
    """Partition of [n] into nonempty blocks, ordered by smallest element."""

    n: int
    blocks: tuple[IndexSet, ...]

    def __init__(self, n: int, blocks: Iterable[Iterable[int]]):
        bs = sorted((as_index_set(b, ground=n) for b in blocks), key=lambda b: b[0])
        seen: set[int] = set()
        for b in bs:
            seen.update(b)
        if len(seen) != sum(len(b) for b in bs) or seen != set(range(1, n + 1)):
            raise ShapeError("blocks must partition [n] exactly")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", tuple(bs))

    def block_of(self) -> dict[int, int]:
        """Element -> 0-based block index."""
        out = {}
        for b_idx, b in enumerate(self.blocks):
            for x in b:
                out[x] = b_idx
        return out


def set_partitions(n: int, k: int) -> Iterator[BlockPartition]:
    """All partitions of [n] into exactly k blocks, by restricted growth string.

    Lexicographic in the growth string, so the first yielded partition is the
    one packing {1, ..., n-k+1} into the first block.
    """
    if not 1 <= k <= n:
        return
    a = [0] * n  # growth string; a[i] = block of element i+1

    def rec(i: int, used: int):
        if i == n:
            if used == k:
                blocks: list[list[int]] = [[] for _ in range(k)]
                for idx, b in enumerate(a):
                    blocks[b].append(idx + 1)
                yield BlockPartition(n, blocks)
            return
        # can't finish with k blocks if too few slots remain
        if used + (n - i) < k:
            return
        for b in range(min(used + 1, k)):
            a[i] = b
            yield from rec(i + 1, max(used, b + 1))

    yield from rec(0, 0)


def edge_is_transversal_to(edge: IndexSet, part: BlockPartition) -> bool:
    """Edge meets every block exactly once (edge size must equal block count)."""
    ids = {part.block_of()[x] for x in edge}
    return len(ids) == len(edge) == len(part.blocks)


def _transversal_edge_exists(H: Hypergraph, block_of: dict[int, int], k: int) -> bool:
    for e in H.edges:
        ids = set()
        ok = True
        for x in e:
            b = block_of[x]
            if b in ids:
                ok = False
                break
            ids.add(b)
        if ok:
            return True
    return False


def failing_partition(H: Hypergraph) -> Optional[BlockPartition]:
    """First k-block partition (growth-string order) with no transversal edge."""
    for part in set_partitions(H.n, H.k):
        if not _transversal_edge_exists(H, part.block_of(), H.k):
            return part
    return None


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
    block_of = part.block_of()
    cols = [basis.column(block_of[i]) for i in range(1, part.n + 1)]
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
    block_of = part.block_of()
    cols = [six.point(block_of[i] + 1) for i in range(1, part.n + 1)]
    return make_config(six.field, 2, part.n, cols)


# ---------------------------------------------------------------------------
# minimum transversal families
# ---------------------------------------------------------------------------


def _partition_edge_masks(n: int, k: int) -> tuple[list[IndexSet], list[int]]:
    edges = list(combinations(range(1, n + 1), k))
    masks = []
    for part in set_partitions(n, k):
        block_of = part.block_of()
        m = 0
        for bit, e in enumerate(edges):
            ids = {block_of[x] for x in e}
            if len(ids) == k:
                m |= 1 << bit
        masks.append(m)
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
    edges, masks = _partition_edge_masks(n, k)
    m = len(edges)
    if mode == "exact" and m > MIN_SEARCH_EDGE_BUDGET:
        raise BudgetExceededError(
            f"exact search needs C(n, k) <= {MIN_SEARCH_EDGE_BUDGET} edges, got {m}"
        )
    if mode == "greedy":
        uncovered = list(masks)
        chosen: list[int] = []
        picked_mask = 0
        while uncovered:
            best, best_hits = None, -1
            for bit in range(m):
                if picked_mask >> bit & 1:
                    continue
                hits = sum(1 for mm in uncovered if mm >> bit & 1)
                if hits > best_hits:
                    best, best_hits = bit, hits
            if best_hits <= 0:
                raise BudgetExceededError("greedy cover stalled (unhittable partition)")
            picked_mask |= 1 << best
            chosen.append(best)
            uncovered = [mm for mm in uncovered if not mm >> best & 1]
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
