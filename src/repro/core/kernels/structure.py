"""Per-graph derived structure, built once and shared everywhere.

Every engine round reduces to the boolean question "which vertices heard
at least one beep" — a neighborhood aggregation against a *fixed*
adjacency.  :class:`GraphStructure` bundles every derived form of that
adjacency the hear kernels consume:

* ``edge_array`` / ``csr`` / ``digest`` — adopted from the
  :class:`~repro.graphs.graph.Graph`, which builds its canonical edge
  array and int32 CSR arrays once at construction; the CSR matrix wraps
  them without a copy (the symmetric matrix doubles as its own
  transpose, so ``csr_t is csr``).
* ``dense`` — the boolean dense matrix (small/dense graphs).
* ``packed`` — rows packed into uint64 words (64 adjacency bits per
  word) for the bitset kernel.

All forms are built lazily and exactly once per structure; the
module-level **structure cache** (:func:`structure_for`) is keyed by the
:class:`~repro.graphs.graph.Graph` itself — Graphs hash and compare by
content, so two engines on equal topologies share one structure (and
therefore one CSR, one bitset, …) even when the Graph objects differ.
The cache is a bounded LRU guarded by a lock, safe to touch from
collector threads; worker processes are seeded through
:func:`seed_structure` by the shared-memory sweep path
(:mod:`repro.core.kernels.shm`).

Shared structures are *read-only by contract*: engines and collectors
only ever multiply against them (the RPR621 dataflow rule flags in-place
writes through shared references, and the shared-memory path additionally
drops the ``writeable`` flag on attached arrays).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, Optional, Union

import numpy as np
import numpy.typing as npt
import scipy.sparse as sp

from ...graphs.graph import Graph, csr_arrays, edge_digest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...graphs.mutable import TopologyDelta

__all__ = [
    "GraphStructure",
    "structure_for",
    "seed_structure",
    "clear_structure_cache",
    "structure_cache_info",
    "update_structure",
    "should_rebuild",
]


class GraphStructure:
    """Lazily-built derived adjacency forms of one graph.

    Parameters
    ----------
    graph:
        The topology.  ``None`` only for :meth:`from_csr` wrappers around
        a foreign adjacency matrix (e.g. an engine the cache has never
        seen); such structures are not cacheable.
    """

    def __init__(self, graph: Optional[Graph]):
        self.graph = graph
        self._edge_array: Optional[npt.NDArray[np.int64]] = None
        if graph is not None:
            self.n = graph.num_vertices
            self.num_edges = graph.num_edges
            self._edge_array = graph.edge_array
        self._csr: Optional[sp.csr_matrix] = None
        self._dense: Optional[npt.NDArray[np.bool_]] = None
        self._packed: Optional[npt.NDArray[np.uint64]] = None
        self._digest: Optional[str] = None
        #: SharedMemory segments backing the arrays (attach path only) —
        #: held so the buffers outlive every view taken on them.
        self._segments: tuple = ()

    # ------------------------------------------------------------------
    @classmethod
    def from_csr(cls, csr: sp.csr_matrix) -> "GraphStructure":
        """Wrap a foreign, already-built adjacency matrix (uncacheable)."""
        structure = cls(None)
        structure.n = int(csr.shape[0])
        structure.num_edges = int(csr.nnz) // 2
        structure._csr = csr
        return structure

    # ------------------------------------------------------------------
    # Derived forms (each built at most once)
    # ------------------------------------------------------------------
    @property
    def edge_array(self) -> npt.NDArray[np.int64]:
        """Canonical ``(m, 2)`` int64 edge array (sorted, u < v).

        Present for graph-keyed structures (the Graph's own read-only
        array) and for incrementally patched structures
        (:func:`update_structure` splices the array directly, so the
        patched structure needs no Graph object at all).
        """
        if self._edge_array is None:
            raise ValueError("structure wraps a bare CSR; no edge list")
        return self._edge_array

    @property
    def csr(self) -> sp.csr_matrix:
        """The symmetric int32 CSR adjacency (canonical form).

        Graph-keyed structures wrap the Graph's read-only
        ``indptr``/``indices`` without a copy; patched structures build
        the same arrays from their spliced edge array.  Entry-identical
        to :func:`repro.graphs.io.to_sparse_adjacency` either way.
        """
        if self._csr is None:
            if self.graph is not None:
                indptr, indices = self.graph.indptr, self.graph.indices
            else:
                indptr, indices = csr_arrays(self.n, self.edge_array)
            data = np.ones(indices.size, dtype=np.int32)
            self._csr = sp.csr_matrix(
                (data, indices, indptr), shape=(self.n, self.n)
            )
        return self._csr

    @property
    def csr_t(self) -> sp.csr_matrix:
        """The transpose — the same object, by symmetry.

        ``A == A.T`` for an undirected adjacency, and the CSR form is
        canonical, so the pre-PR ``adjacency.transpose().tocsr()`` copy
        held byte-identical arrays; sharing the object halves the memory
        and keeps every downstream product bit-identical.
        """
        return self.csr

    @property
    def dense(self) -> npt.NDArray[np.bool_]:
        """The boolean dense adjacency (built on first use)."""
        if self._dense is None:
            self._dense = self._build_dense()
        return self._dense

    def _build_dense(self) -> npt.NDArray[np.bool_]:
        dense = np.zeros((self.n, self.n), dtype=bool)
        if self._edge_array is not None:
            edges = self._edge_array
            dense[edges[:, 0], edges[:, 1]] = True
            dense[edges[:, 1], edges[:, 0]] = True
        else:
            dense[self.csr.nonzero()] = True
        return dense

    @property
    def words(self) -> int:
        """uint64 words per packed adjacency row."""
        return max(1, (self.n + 63) // 64)

    @property
    def packed(self) -> npt.NDArray[np.uint64]:
        """Adjacency rows packed into ``(n, words)`` uint64 words.

        Bit ``v`` of row ``u`` (little-endian within each word) is the
        edge indicator ``{u, v} ∈ E`` — the layout
        ``np.packbits(..., bitorder="little")`` produces, so
        ``np.unpackbits(..., bitorder="little")`` is the exact inverse.
        """
        if self._packed is None:
            # Use the cached dense form when present, else a transient one
            # (packing should not pin n² bytes for bitset-only users).
            dense = self._dense if self._dense is not None else self._build_dense()
            padded_bits = self.words * 64
            if padded_bits == self.n:
                padded = dense
            else:
                padded = np.zeros((self.n, padded_bits), dtype=bool)
                padded[:, : self.n] = dense
            packed_bytes = np.packbits(padded, axis=1, bitorder="little")
            self._packed = packed_bytes.view(np.uint64)
        return self._packed

    @property
    def density(self) -> float:
        """Edge density ``2m / (n(n-1))`` (0.0 for n < 2)."""
        if self.n < 2:
            return 0.0
        return 2.0 * self.num_edges / (self.n * (self.n - 1))

    @property
    def digest(self) -> str:
        """Content digest keying shared-memory manifests across processes.

        The Graph's own memoized digest for graph-keyed structures.
        """
        if self._digest is None:
            self._digest = (
                self.graph.digest
                if self.graph is not None
                else edge_digest(self.n, self.edge_array)
            )
        return self._digest

    def __repr__(self) -> str:
        return f"GraphStructure(n={self.n}, m={self.num_edges})"


# ----------------------------------------------------------------------
# The content-keyed structure cache
# ----------------------------------------------------------------------
#: Bounded LRU: a sweep touches a handful of distinct graphs; 64 covers
#: every harness in the repo with room to spare.
_CACHE_CAPACITY = 64

_cache: "OrderedDict[Graph, GraphStructure]" = OrderedDict()
_cache_lock = threading.Lock()
_hits = 0
_misses = 0


def structure_for(graph: Graph) -> GraphStructure:
    """The shared :class:`GraphStructure` of ``graph`` (content-keyed).

    Graphs hash/compare by content digest (confirmed by comparing edge
    arrays), so equal topologies map to one structure regardless of
    object identity — CSR/bitset/dense forms are built once per graph
    and shared across engine instances, replicas, and observability
    views.
    """
    global _hits, _misses
    with _cache_lock:
        cached = _cache.get(graph)
        if cached is not None:
            _cache.move_to_end(graph)
            _hits += 1
            return cached
        _misses += 1
        structure = GraphStructure(graph)
        _cache[graph] = structure
        while len(_cache) > _CACHE_CAPACITY:
            _cache.popitem(last=False)
        return structure


def seed_structure(structure: GraphStructure) -> None:
    """Install a pre-built structure (the shared-memory attach path)."""
    if structure.graph is None:
        raise ValueError("only graph-keyed structures can seed the cache")
    with _cache_lock:
        _cache[structure.graph] = structure
        _cache.move_to_end(structure.graph)
        while len(_cache) > _CACHE_CAPACITY:
            _cache.popitem(last=False)


def clear_structure_cache() -> None:
    """Drop every cached structure (tests / benchmark cold-start runs)."""
    global _hits, _misses
    with _cache_lock:
        _cache.clear()
        _hits = 0
        _misses = 0


def structure_cache_info() -> Dict[str, Union[int, float]]:
    """``{size, capacity, hits, misses}`` — cache effectiveness counters."""
    with _cache_lock:
        return {
            "size": len(_cache),
            "capacity": _CACHE_CAPACITY,
            "hits": _hits,
            "misses": _misses,
        }


# ----------------------------------------------------------------------
# Incremental structure updates (the serving hot path)
# ----------------------------------------------------------------------
# Cost model: patching splices only the dirty CSR rows (one contiguous
# copy per clean gap) and flips only the touched dense cells / bitset
# words, so its cost is O(m_copy + Σ deg(dirty)).  The per-dirty-row
# Python bookkeeping stops paying once the delta touches a sizable slice
# of the graph, at which point the from-scratch build — whose arrays are
# written once, in order, by vectorized constructors — is cheaper.  The
# two thresholds mark that crossover with a wide margin (patching a
# quarter of all rows costs about as much as rebuilding them all); a
# vertex-id-space *growth* always rebuilds, since every derived form
# changes shape.
_REBUILD_DIRTY_FRACTION = 0.25
_REBUILD_EDGE_FRACTION = 0.25


def should_rebuild(structure: GraphStructure, delta: "TopologyDelta") -> bool:
    """True when the cost model prefers a from-scratch rebuild.

    Exposed so tests and benchmarks can assert which path a delta takes;
    :func:`update_structure` produces byte-identical output either way.
    """
    if delta.grows:
        return True
    n = max(structure.n, 1)
    m = max(structure.num_edges - len(delta.removed) + len(delta.added), 1)
    if len(delta.dirty) > _REBUILD_DIRTY_FRACTION * n:
        return True
    return delta.churned_edges > _REBUILD_EDGE_FRACTION * m


def _edge_pairs(edges: tuple) -> npt.NDArray[np.int64]:
    """Canonical edge tuples as an ``(k, 2)`` int64 array."""
    return np.asarray(edges, dtype=np.int64).reshape(-1, 2)


def _patch_edge_array(
    edges: npt.NDArray[np.int64],
    n: int,
    removed: npt.NDArray[np.int64],
    added: npt.NDArray[np.int64],
) -> npt.NDArray[np.int64]:
    """Splice removed/added canonical edges into the sorted edge array.

    Works on scalar edge keys ``u·n + v`` (canonical edges sort by key
    exactly as they sort lexicographically), so membership and re-sort
    are single vectorized passes.
    """
    keys = edges[:, 0] * n + edges[:, 1]
    if removed.size:
        rem_keys = removed[:, 0] * n + removed[:, 1]
        keys = keys[np.isin(keys, rem_keys, assume_unique=True, invert=True)]
    if added.size:
        add_keys = added[:, 0] * n + added[:, 1]
        keys = np.sort(np.concatenate([keys, add_keys]))
    out = np.empty((keys.size, 2), dtype=np.int64)
    np.floor_divide(keys, n, out=out[:, 0])
    np.mod(keys, n, out=out[:, 1])
    return out


def _patch_csr(
    csr: sp.csr_matrix, n: int, delta: "TopologyDelta"
) -> sp.csr_matrix:
    """Rebuild only the dirty CSR rows; clean row runs are copied whole.

    The output is entry- and dtype-identical to a fresh canonical build:
    per-row neighbor lists arrive sorted from the delta, the data vector
    is all int32 ones, and the index arrays inherit the source dtypes.
    """
    indptr, indices = csr.indptr, csr.indices
    new_counts = np.diff(indptr)
    for v in delta.dirty:
        new_counts[v] = len(delta.neighbors[v])
    new_indptr = np.empty(n + 1, dtype=indptr.dtype)
    new_indptr[0] = 0
    np.cumsum(new_counts, out=new_indptr[1:])
    total = int(new_indptr[n])
    new_indices = np.empty(total, dtype=indices.dtype)
    prev = 0  # first row whose indices have not been copied yet
    for v in delta.dirty:
        if prev < v:
            new_indices[new_indptr[prev] : new_indptr[v]] = (
                indices[indptr[prev] : indptr[v]]
            )
        row = delta.neighbors[v]
        if row:
            new_indices[new_indptr[v] : new_indptr[v + 1]] = row
        prev = v + 1
    if prev < n:
        new_indices[new_indptr[prev] : new_indptr[n]] = (
            indices[indptr[prev] : indptr[n]]
        )
    data = np.ones(total, dtype=csr.data.dtype)
    return sp.csr_matrix((data, new_indices, new_indptr), shape=(n, n))


def _patch_dense(
    dense: npt.NDArray[np.bool_],
    removed: npt.NDArray[np.int64],
    added: npt.NDArray[np.int64],
) -> npt.NDArray[np.bool_]:
    """Flip only the churned cells (both triangles) of a dense copy."""
    out = dense.copy()
    if removed.size:
        out[removed[:, 0], removed[:, 1]] = False
        out[removed[:, 1], removed[:, 0]] = False
    if added.size:
        out[added[:, 0], added[:, 1]] = True
        out[added[:, 1], added[:, 0]] = True
    return out


def _packed_flip(
    words: npt.NDArray[np.uint64],
    pairs: npt.NDArray[np.int64],
    set_bits: bool,
) -> None:
    """Set/clear adjacency bits (both orientations) in a packed copy.

    Bit ``v`` of row ``u`` lives in word ``v >> 6`` at in-word position
    ``v & 63`` (the little-endian layout :attr:`GraphStructure.packed`
    documents).  ``.at`` ufuncs apply unbuffered, so several flips
    landing in the same word all take effect.
    """
    both = np.concatenate([pairs, pairs[:, ::-1]])
    rows = both[:, 0]
    cols = both[:, 1]
    # ``cols & 63`` is a fresh contiguous int64 array of values in
    # [0, 63]; the same-width ``.view`` reinterprets it as uint64 for
    # free (bit patterns of small non-negatives coincide) instead of
    # materializing an ``.astype`` copy.
    masks = np.left_shift(np.uint64(1), (cols & 63).view(np.uint64))
    if set_bits:
        np.bitwise_or.at(words, (rows, cols >> 6), masks)
    else:
        np.bitwise_and.at(words, (rows, cols >> 6), np.invert(masks))


def _patch_packed(
    packed: npt.NDArray[np.uint64],
    removed: npt.NDArray[np.int64],
    added: npt.NDArray[np.int64],
) -> npt.NDArray[np.uint64]:
    out = packed.copy()
    if removed.size:
        _packed_flip(out, removed, set_bits=False)
    if added.size:
        _packed_flip(out, added, set_bits=True)
    return out


def _rebuilt(structure: GraphStructure, delta: "TopologyDelta") -> GraphStructure:  # repro: cold
    """The from-scratch path: the cached structure of the post-delta Graph.

    Builds a whole new topology by design, so it is not round-frequency
    code: :func:`should_rebuild` routes here only past the patching
    crossover or on id-space growth.
    """
    edges = _patch_edge_array(
        # Grown id spaces only ever *add* vertices, so old keys decode
        # identically under the new modulus.
        structure.edge_array,
        max(delta.new_n, 1),
        _edge_pairs(delta.removed),
        _edge_pairs(delta.added),
    )
    return structure_for(Graph(delta.new_n, edges))


def update_structure(
    structure: GraphStructure,
    delta: "TopologyDelta",
    graph: Optional[Graph] = None,
) -> GraphStructure:
    """A new :class:`GraphStructure` with ``delta`` applied to ``structure``.

    The input structure is never mutated (shared structures are
    read-only by contract); the returned structure holds fresh arrays
    that are **byte-identical** to a from-scratch ``structure_for`` on
    the post-delta graph — asserted across every derived form and delta
    shape by ``tests/test_incremental_structure.py``.

    Only the forms the source structure had already materialized are
    patched; the rest stay lazy and build from the (always-patched)
    edge array on first use, exactly as a fresh structure would.  When
    :func:`should_rebuild` prefers a from-scratch build (large delta,
    or a vertex-id-space growth that changes every array shape), the
    patch is skipped and the result comes from the shared cache.

    Parameters
    ----------
    structure:
        The pre-delta structure (graph-keyed or previously patched;
        bare-CSR wrappers are rejected).
    delta:
        A :class:`repro.graphs.mutable.TopologyDelta` — produced by a
        :class:`~repro.graphs.mutable.MutableTopology` op or by
        :func:`~repro.graphs.mutable.diff_graphs`.
    graph:
        Optional post-delta :class:`Graph`.  When given, the result is
        graph-keyed (and therefore cacheable); the serving hot path
        omits it to skip the O(n + m) Graph construction entirely.
    """
    if structure.graph is None and structure._edge_array is None:
        raise ValueError("cannot patch a structure wrapping a bare CSR")
    if graph is not None and graph.num_vertices != delta.new_n:
        raise ValueError(
            f"graph has {graph.num_vertices} vertices, delta says {delta.new_n}"
        )

    if should_rebuild(structure, delta):
        if graph is None:
            return _rebuilt(structure, delta)
        return structure_for(graph)

    removed = _edge_pairs(delta.removed)
    added = _edge_pairs(delta.added)
    n = delta.new_n
    patched = GraphStructure(graph)
    patched.n = n
    patched.num_edges = structure.num_edges - len(delta.removed) + len(delta.added)
    patched._edge_array = _patch_edge_array(
        structure.edge_array, max(n, 1), removed, added
    )
    if structure._csr is not None:
        patched._csr = _patch_csr(structure._csr, n, delta)
    if structure._dense is not None:
        patched._dense = _patch_dense(structure._dense, removed, added)
    if structure._packed is not None:
        patched._packed = _patch_packed(structure._packed, removed, added)
    return patched
