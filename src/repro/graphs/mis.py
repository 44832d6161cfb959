"""Maximal-independent-set definitions, validators and sequential baselines.

These are the ground-truth oracles every simulated distributed run is
checked against.  A set ``I ⊆ V`` is an MIS of ``G`` iff

* *independence*: no edge has both endpoints in ``I``, and
* *maximality*: every vertex outside ``I`` has a neighbor in ``I``
  (equivalently, ``I`` is dominating).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional, Sequence, Set, Tuple

import numpy as np
import numpy.typing as npt

from ..devtools.seeding import SeedLike, resolve_rng
from .graph import Graph

__all__ = [
    "is_independent_set",
    "is_dominating_set",
    "is_maximal_independent_set",
    "MISViolation",
    "check_mis",
    "greedy_mis",
    "random_priority_mis",
    "maximum_independent_set_size",
    "mis_size_bounds",
]


def _membership(graph: Graph, candidate: Iterable[int]) -> npt.NDArray[np.bool_]:
    """Boolean indicator of ``candidate`` over the vertices.

    Ids outside ``0 .. n-1`` are ignored: they can neither conflict nor
    dominate anything.
    """
    ids = np.fromiter(candidate, dtype=np.int64)
    n = graph.num_vertices
    inside = np.zeros(n, dtype=bool)
    inside[ids[(ids >= 0) & (ids < n)]] = True
    return inside


def _first_conflict(
    graph: Graph, inside: npt.NDArray[np.bool_]
) -> Optional[Tuple[int, int]]:
    """The first edge, in canonical order, with both endpoints inside."""
    edges = graph.edge_array
    both = inside[edges[:, 0]] & inside[edges[:, 1]]
    if not both.any():
        return None
    u, v = edges[int(np.argmax(both))].tolist()
    return (u, v)


def _first_undominated(graph: Graph, inside: npt.NDArray[np.bool_]) -> Optional[int]:
    """The smallest vertex outside the set with no neighbor inside it."""
    edges = graph.edge_array
    covered = inside.copy()
    covered[edges[inside[edges[:, 1]], 0]] = True
    covered[edges[inside[edges[:, 0]], 1]] = True
    if covered.all():
        return None
    return int(np.argmin(covered))


def is_independent_set(graph: Graph, candidate: Iterable[int]) -> bool:
    """True iff no two vertices of ``candidate`` are adjacent."""
    return _first_conflict(graph, _membership(graph, candidate)) is None


def is_dominating_set(graph: Graph, candidate: Iterable[int]) -> bool:
    """True iff every vertex is in ``candidate`` or adjacent to it."""
    return _first_undominated(graph, _membership(graph, candidate)) is None


def is_maximal_independent_set(graph: Graph, candidate: Iterable[int]) -> bool:
    """True iff ``candidate`` is an independent dominating set (an MIS)."""
    return check_mis(graph, candidate) is None


@dataclass(frozen=True)
class MISViolation:
    """A concrete witness of why a candidate set is not an MIS.

    Exactly one of the two fields is set:

    * ``conflicting_edge`` — an edge with both endpoints in the candidate
      (independence violated), or
    * ``undominated_vertex`` — a vertex outside the candidate with no
      neighbor inside it (maximality violated).
    """

    conflicting_edge: Optional[Tuple[int, int]] = None
    undominated_vertex: Optional[int] = None

    def describe(self) -> str:
        if self.conflicting_edge is not None:
            u, v = self.conflicting_edge
            return f"independence violated: edge ({u}, {v}) inside the set"
        return f"maximality violated: vertex {self.undominated_vertex} undominated"


def check_mis(graph: Graph, candidate: Iterable[int]) -> Optional[MISViolation]:
    """Return ``None`` if ``candidate`` is an MIS, else a witness violation.

    The first independence violation (in canonical edge order) is
    preferred over maximality witnesses, because an overfull set fails
    both checks and the edge is the more actionable diagnosis; the
    maximality witness is the smallest undominated vertex.  Both checks
    are single vectorized passes over the graph's edge array.
    """
    inside = _membership(graph, candidate)
    edge = _first_conflict(graph, inside)
    if edge is not None:
        return MISViolation(conflicting_edge=edge)
    vertex = _first_undominated(graph, inside)
    if vertex is not None:
        return MISViolation(undominated_vertex=vertex)
    return None


def greedy_mis(graph: Graph, order: Optional[Sequence[int]] = None) -> FrozenSet[int]:
    """Sequential greedy MIS in the given vertex order (default: id order).

    The classical centralized baseline: scan vertices, add each one whose
    neighbors are all still un-added.
    """
    if order is None:
        order = range(graph.num_vertices)
    chosen: Set[int] = set()
    blocked = [False] * graph.num_vertices
    for v in order:
        if blocked[v]:
            continue
        chosen.add(v)
        blocked[v] = True
        for u in graph.neighbors(v):
            blocked[u] = True
    return frozenset(chosen)


def random_priority_mis(graph: Graph, seed: SeedLike = None) -> FrozenSet[int]:
    """Greedy MIS under a uniformly random vertex permutation.

    This is the sequential equivalent of Luby-style random priorities and
    gives an unbiased sample of "typical" MIS sizes.
    """
    rng = resolve_rng(seed)
    order = rng.permutation(graph.num_vertices)
    return greedy_mis(graph, [int(v) for v in order])


def maximum_independent_set_size(graph: Graph, max_vertices: int = 40) -> int:
    """The independence number α(G), by branch and bound (small graphs).

    Exact oracle for tests and quality studies: every MIS has size
    between ``n/(Δ+1)`` and α(G), and any maximal matching has at least
    ``α-complement``-style guarantees.  Branching: pick a maximum-degree
    vertex v in the residual graph; either exclude v (recurse on G−v) or
    include v (recurse on G−N⁺(v)).  Pruned with the trivial
    remaining-vertices bound.  Exponential in the worst case — guarded
    by ``max_vertices``.
    """
    n = graph.num_vertices
    if n > max_vertices:
        raise ValueError(
            f"exact independence number limited to {max_vertices} vertices "
            f"(got {n}); raise max_vertices explicitly if you mean it"
        )
    neighbor_masks = [0] * n
    for u, v in graph.edges:
        neighbor_masks[u] |= 1 << v
        neighbor_masks[v] |= 1 << u
    full = (1 << n) - 1

    best = 0

    def popcount(x: int) -> int:
        return bin(x).count("1")

    def branch(available: int, size: int) -> None:
        nonlocal best
        if size + popcount(available) <= best:
            return  # cannot beat the incumbent
        if available == 0:
            best = max(best, size)
            return
        # Pick the available vertex with most available neighbors.
        pick, pick_degree = -1, -1
        x = available
        while x:
            v = (x & -x).bit_length() - 1
            x &= x - 1
            d = popcount(neighbor_masks[v] & available)
            if d > pick_degree:
                pick, pick_degree = v, d
        # Exclude pick.
        branch(available & ~(1 << pick), size)
        # Include pick.
        branch(available & ~((1 << pick) | neighbor_masks[pick]), size + 1)

    branch(full, 0)
    return best


def mis_size_bounds(graph: Graph) -> Tuple[int, int]:
    """Simple (lower, upper) bounds on the size of *any* MIS.

    * lower: ``n / (Δ + 1)`` rounded up — every MIS is dominating, and a
      vertex dominates at most ``Δ + 1`` vertices including itself.
    * upper: ``n`` minus a matching-based lower bound on covered vertices
      is loose, so we use the trivial n bound tightened by one greedy run
      (any MIS on a graph with at least one edge excludes at least one
      endpoint per chosen edge).  Kept deliberately simple: benchmarks
      only use it as a sanity envelope.
    """
    n = graph.num_vertices
    if n == 0:
        return (0, 0)
    delta = graph.max_degree()
    lower = -(-n // (delta + 1))  # ceil division
    upper = n if graph.num_edges == 0 else n - 1
    return (lower, upper)
