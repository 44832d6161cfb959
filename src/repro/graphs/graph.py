"""Immutable undirected graph used as the network topology substrate.

The beeping model runs on an anonymous, undirected, simple graph.  This
module provides the single :class:`Graph` type that every other subsystem
(the round engine, the vectorized engine, the MIS validators, the workload
generators) consumes.

Design notes
------------
* Vertices are the integers ``0 .. n-1``.  Vertex ids are *simulator
  handles* only: the algorithms in :mod:`repro.core` never observe them,
  which preserves the anonymity assumption of the beeping model.
* The topology is frozen at construction and stored as read-only numpy
  arrays, each built once by vectorized code: the canonical sorted
  ``(m, 2)`` int64 edge array, the int32 CSR ``indptr``/``indices`` of
  the symmetric adjacency (every row sorted), and the degree vector.  A
  content digest is computed on first use and memoized; it drives
  ``hash`` and the cross-process structure manifests.  Every exposed
  array has ``writeable=False`` (the RPR621 read-only contract).
* The tuple views (:attr:`Graph.edges`, :meth:`Graph.neighbors`,
  :meth:`Graph.degrees`) are materialized lazily, once, on first use, so
  object-per-node callers (the reference engine, the service, the I/O
  helpers) keep O(1) tuple indexing while the vectorized default path
  never pays for them.  Neighbor tuples are sorted, so iteration order is
  deterministic, which makes every seeded simulation reproducible
  bit-for-bit.
* Construction validates the edge list: endpoints in range, no self
  loops.  Parallel edges are collapsed (the beeping model cannot observe
  multiplicity: a vertex only hears "at least one neighbor beeped").
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Iterable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np
import numpy.typing as npt

__all__ = ["Graph", "csr_arrays", "edge_digest"]

#: Anything :class:`Graph` accepts as an edge list.
EdgesLike = Union[npt.NDArray[np.integer[Any]], Iterable[Tuple[int, int]]]


def _normalize_edge(u: int, v: int) -> Tuple[int, int]:
    """Return the canonical (min, max) form of an undirected edge."""
    return (u, v) if u <= v else (v, u)


def _as_pairs(edges: EdgesLike) -> npt.NDArray[np.int64]:
    """The input edge list as a ``(k, 2)`` int64 array, in input order."""
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
        if not edges:
            return np.empty((0, 2), dtype=np.int64)
    pairs = np.asarray(edges, dtype=np.int64)
    if pairs.size == 0:
        return pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"edges must be (u, v) pairs, got shape {pairs.shape}")
    return pairs


def _validate(n: int, pairs: npt.NDArray[np.int64]) -> None:
    """Reject the first bad edge in input order: range before self loop."""
    u, v = pairs[:, 0], pairs[:, 1]
    out_of_range = (u < 0) | (u >= n) | (v < 0) | (v >= n)
    bad = out_of_range | (u == v)
    if bad.any():
        first = int(np.argmax(bad))
        a, b = int(u[first]), int(v[first])
        if out_of_range[first]:
            raise ValueError(f"edge ({a}, {b}) out of range for {n} vertices")
        raise ValueError(f"self loop at vertex {a} is not allowed")


def _canonical_edges(n: int, pairs: npt.NDArray[np.int64]) -> npt.NDArray[np.int64]:
    """Sorted, deduplicated ``(min, max)`` edges as a fresh ``(m, 2)`` array.

    Canonical edges sort by the scalar key ``u·n + v`` exactly as they
    sort lexicographically; already-canonical input (every generator
    that emits sorted pairs, pickles, patched structures) skips the sort.
    """
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    keys = lo * n + hi
    if keys.size > 1 and not (keys[1:] > keys[:-1]).all():
        keys = np.sort(keys)
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        lo, hi = np.divmod(keys, n)
    return np.stack((lo, hi), axis=1)


def csr_arrays(
    n: int, edges: npt.NDArray[np.int64]
) -> Tuple[npt.NDArray[np.int32], npt.NDArray[np.int32]]:
    """int32 CSR ``(indptr, indices)`` of the symmetric adjacency.

    ``edges`` must be canonical (sorted, ``u < v``, no duplicates).  The
    directed entries are keyed ``row·n + col`` and sorted once, so every
    row comes out sorted — entry-identical to scipy's canonical COO→CSR
    conversion of the same edge list.
    """
    lo, hi = edges[:, 0], edges[:, 1]
    keys = np.concatenate((lo * n + hi, hi * n + lo))
    keys.sort()
    indices = (keys % max(n, 1)).astype(np.int32)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(edges.ravel(), minlength=n), out=indptr[1:])
    return indptr, indices


def edge_digest(n: int, edges: npt.NDArray[np.int64]) -> str:
    """blake2b content digest of a canonical edge array on ``n`` vertices."""
    h = hashlib.blake2b(digest_size=16)
    h.update(np.int64(n).tobytes())
    h.update(np.int64(len(edges)).tobytes())
    h.update(np.ascontiguousarray(edges).tobytes())
    return h.hexdigest()


class Graph:
    """An immutable, simple, undirected graph on vertices ``0 .. n-1``.

    Parameters
    ----------
    num_vertices:
        Number of vertices ``n``; must be >= 0.
    edges:
        ``(u, v)`` pairs with ``0 <= u, v < n`` and ``u != v``: an
        iterable of pairs or a ``(k, 2)`` integer array.  Duplicates (in
        either orientation) are collapsed.

    Examples
    --------
    >>> g = Graph(3, [(0, 1), (1, 2)])
    >>> g.num_vertices
    3
    >>> g.degree(1)
    2
    >>> g.neighbors(1)
    (0, 2)
    """

    __slots__ = (
        "_n",
        "_edge_pairs",
        "_indptr",
        "_indices",
        "_degree_array",
        "_digest",
        "_edges",
        "_adjacency",
        "_degrees",
    )

    def __init__(self, num_vertices: int, edges: EdgesLike = ()):
        if num_vertices < 0:
            raise ValueError(f"num_vertices must be >= 0, got {num_vertices}")
        self._n = int(num_vertices)
        pairs = _as_pairs(edges)
        _validate(self._n, pairs)
        self._edge_pairs = _canonical_edges(self._n, pairs)
        self._indptr, self._indices = csr_arrays(self._n, self._edge_pairs)
        self._degree_array = np.diff(self._indptr).astype(np.int64)
        for array in (self._edge_pairs, self._indptr, self._indices, self._degree_array):
            array.flags.writeable = False
        self._digest: Optional[str] = None
        self._edges: Optional[Tuple[Tuple[int, int], ...]] = None
        self._adjacency: Optional[Tuple[Tuple[int, ...], ...]] = None
        self._degrees: Optional[Tuple[int, ...]] = None

    # ------------------------------------------------------------------
    # Array form (read-only, built at construction)
    # ------------------------------------------------------------------
    @property
    def edge_array(self) -> npt.NDArray[np.int64]:
        """Canonical ``(m, 2)`` int64 edges, sorted, ``u < v``."""
        return self._edge_pairs

    @property
    def indptr(self) -> npt.NDArray[np.int32]:
        """CSR row pointers: ``N(v) = indices[indptr[v]:indptr[v + 1]]``."""
        return self._indptr

    @property
    def indices(self) -> npt.NDArray[np.int32]:
        """CSR column indices; each row's slice is sorted."""
        return self._indices

    @property
    def degree_array(self) -> npt.NDArray[np.int64]:
        """int64 degree of every vertex, indexed by vertex id."""
        return self._degree_array

    @property
    def digest(self) -> str:
        """Content digest of ``(n, edges)``, computed once."""
        if self._digest is None:
            self._digest = edge_digest(self._n, self._edge_pairs)
        return self._digest

    # ------------------------------------------------------------------
    # Basic accessors (tuple views are built on first use)
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of (undirected, deduplicated) edges."""
        return len(self._edge_pairs)

    @property
    def edges(self) -> Tuple[Tuple[int, int], ...]:
        """All edges as sorted canonical ``(u, v)`` pairs with ``u < v``."""
        if self._edges is None:
            self._edges = tuple(map(tuple, self._edge_pairs.tolist()))
        return self._edges

    def vertices(self) -> range:
        """Iterate over all vertex ids in increasing order."""
        return range(self._n)

    def _neighbor_tuples(self) -> Tuple[Tuple[int, ...], ...]:
        if self._adjacency is None:
            flat = self._indices.tolist()
            bounds = self._indptr.tolist()
            self._adjacency = tuple(
                tuple(flat[start:stop]) for start, stop in zip(bounds, bounds[1:])
            )
        return self._adjacency

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """The sorted tuple of neighbors of ``v``."""
        return self._neighbor_tuples()[v]

    def closed_neighborhood(self, v: int) -> Tuple[int, ...]:
        """``N+(v) = N(v) ∪ {v}`` as a sorted tuple (paper notation)."""
        return tuple(sorted(self.neighbors(v) + (v,)))

    def degree(self, v: int) -> int:
        """``deg(v) = |N(v)|``."""
        return self.degrees()[v]

    def degrees(self) -> Tuple[int, ...]:
        """Tuple of all vertex degrees, indexed by vertex id."""
        if self._degrees is None:
            self._degrees = tuple(self._degree_array.tolist())
        return self._degrees

    def max_degree(self) -> int:
        """The maximum degree Δ of the graph (0 for an empty graph)."""
        return int(self._degree_array.max()) if self._n else 0

    def has_edge(self, u: int, v: int) -> bool:
        """True iff ``{u, v}`` is an edge."""
        if u == v:
            return False
        # Neighbor tuples are sorted; binary search would be possible, but
        # degree-bounded linear membership is simpler and fast enough.
        degrees = self.degrees()
        a, b = (u, v) if degrees[u] <= degrees[v] else (v, u)
        return b in self.neighbors(a)

    # ------------------------------------------------------------------
    # Python protocol support
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._n))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if self is other:
            return True
        return (
            self._n == other._n
            and self.digest == other.digest
            and bool(np.array_equal(self._edge_pairs, other._edge_pairs))
        )

    def __hash__(self) -> int:
        # An int built from the digest hashes identically under every
        # PYTHONHASHSEED (a str hash would not).
        return int(self.digest[:16], 16)

    def __reduce__(self) -> Tuple[type, Tuple[int, npt.NDArray[np.int64]]]:
        return (Graph, (self._n, self._edge_pairs))

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self.num_edges})"

    # ------------------------------------------------------------------
    # Derived constructions
    # ------------------------------------------------------------------
    @classmethod
    def from_adjacency(cls, adjacency: Dict[int, Sequence[int]]) -> "Graph":
        """Build a graph from a ``{vertex: neighbors}`` mapping.

        The vertex set is ``0 .. max_key`` (missing keys become isolated
        vertices).  Both orientations of each edge may be present; they
        are collapsed.
        """
        if not adjacency:
            return cls(0)
        n = max(adjacency) + 1
        edges = [
            (u, v)
            for u, neighbors in adjacency.items()
            for v in neighbors
        ]
        return cls(n, edges)

    def subgraph(self, keep: Iterable[int]) -> "Graph":
        """The induced subgraph on ``keep``, relabeled to ``0..k-1``.

        Vertices in ``keep`` are relabeled in increasing original-id
        order.  Useful for analyzing residual graphs of undecided
        vertices.
        """
        kept = sorted(set(keep))
        relabel = {old: new for new, old in enumerate(kept)}
        kept_set = set(kept)
        edges = [
            (relabel[u], relabel[v])
            for u, v in self.edges
            if u in kept_set and v in kept_set
        ]
        return Graph(len(kept), edges)

    def complement(self) -> "Graph":
        """The complement graph (no self loops)."""
        edges = [
            (u, v)
            for u in range(self._n)
            for v in range(u + 1, self._n)
            if not self.has_edge(u, v)
        ]
        return Graph(self._n, edges)

    def union_disjoint(self, other: "Graph") -> "Graph":
        """Disjoint union; ``other``'s vertices are shifted by ``self.n``."""
        edges = np.concatenate((self._edge_pairs, other._edge_pairs + self._n))
        return Graph(self._n + other._n, edges)
