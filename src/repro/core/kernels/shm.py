"""Shared-memory transport for graph structures across sweep workers.

The sweep executors regenerate each configuration's graph inside every
worker process and then (pre-kernel) rebuilt its CSR per engine
instance.  This module ships each *distinct* graph's edge list once
instead: the parent exports it into one ``multiprocessing.shared_memory``
segment per graph (``16·m`` bytes), workers attach at pool-initializer
time and seed their local structure cache with zero-copy views onto the
segment.  The CSR is not shipped: the worker's :class:`Graph` builds its
own from the shared edge list.

Lifecycle contract — statically enforced by the RPR701–RPR705 rules of
``repro check`` (see the "concurrency & lifecycle contract" section of
``docs/performance.md`` and the catalogue in ``docs/linting.md``):

* the parent owns the segments — :class:`SharedStructureSet` creates
  them and must be closed (``close()``/context manager) *after* the pool
  shuts down, which both closes and unlinks every segment (RPR701);
  ``close()`` is idempotent, and a ``weakref.finalize`` guard unlinks
  the segments at garbage-collection/interpreter-exit time even when a
  sweep raises between export and ``close()``;
* workers only ever attach; attached views are marked read-only so a
  stray in-place write (RPR702, RPR621's failure class across the
  process boundary) raises instead of corrupting every sibling worker;
* on Python < 3.13 the attach side immediately unregisters the segment
  from the ``resource_tracker`` — the parent is the single owner, and
  per-worker tracking would unlink segments early and spam warnings at
  interpreter exit.

The module also keeps a process-local audit of exported-but-not-yet-
unlinked segment names (:func:`leaked_segments`); the runtime leak
audit in ``repro check --sanitize`` / ``REPRO_SANITIZE=1`` asserts it
is empty at end of run.

Everything in the manifest is tiny and picklable; the arrays themselves
never cross the pickle boundary.
"""

from __future__ import annotations

import sys
import weakref
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import List, Sequence, Set, Tuple

import numpy as np

from ...graphs.graph import Graph
from .structure import GraphStructure, seed_structure, structure_for

__all__ = [
    "SharedStructureManifest",
    "SharedStructureSet",
    "export_structures",
    "attach_structure",
    "seed_worker_structures",
    "leaked_segments",
    "reset_segment_audit",
]

#: Names of segments this process exported and has not yet unlinked.
#: The ``--sanitize`` leak audit asserts this is empty at end of run.
_LIVE_EXPORTS: Set[str] = set()


def leaked_segments() -> List[str]:
    """Exported segment names not yet unlinked (sorted, for audits)."""
    return sorted(_LIVE_EXPORTS)


def reset_segment_audit() -> None:
    """Forget all audited exports (test isolation only)."""
    _LIVE_EXPORTS.clear()


def _release_segments(segments: List[shared_memory.SharedMemory]) -> None:
    """Close+unlink each segment exactly once.

    Shared by :meth:`SharedStructureSet.close` and the ``weakref.
    finalize`` guard; draining the list in place is what makes the
    combination idempotent.
    """
    while segments:
        segment = segments.pop()
        try:
            segment.close()
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        _LIVE_EXPORTS.discard(segment.name)


@dataclass(frozen=True)
class SharedStructureManifest:
    """Everything a worker needs to attach one graph's structure.

    The segment holds the ``(m, 2)`` int64 canonical edge array from
    byte 0, so the manifest stays a few hundred bytes regardless of
    graph size.
    """

    segment: str
    digest: str
    n: int
    m: int
    total_bytes: int


class SharedStructureSet:
    """Parent-side owner of the exported segments (one per graph)."""

    def __init__(self, graphs: Sequence[Graph]):
        self.manifests: List[SharedStructureManifest] = []
        self._segments: List[shared_memory.SharedMemory] = []
        seen: set = set()
        for graph in graphs:
            structure = structure_for(graph)
            if structure.digest in seen:
                continue
            seen.add(structure.digest)
            manifest, segment = _export_one(structure)
            self.manifests.append(manifest)
            self._segments.append(segment)
            _LIVE_EXPORTS.add(segment.name)
        # Unlinks the segments when this set is garbage-collected or the
        # interpreter exits (finalize hooks atexit), so an exception
        # between export and close() cannot strand /dev/shm bytes.
        self._finalizer = weakref.finalize(
            self, _release_segments, self._segments
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close and unlink every segment (call after pool shutdown).

        Idempotent: the first call (or the finalize guard, whichever
        runs first) releases the segments; later calls are no-ops.
        """
        self._finalizer()
        self.manifests = []

    def __enter__(self) -> "SharedStructureSet":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def export_structures(graphs: Sequence[Graph]) -> SharedStructureSet:
    """Export the distinct graphs' structures into shared memory."""
    return SharedStructureSet(graphs)


def _export_one(
    structure: GraphStructure,
) -> Tuple[SharedStructureManifest, shared_memory.SharedMemory]:
    n, m = structure.n, structure.num_edges
    total = max(16 * m, 1)  # zero-byte segments are not allowed
    segment = shared_memory.SharedMemory(create=True, size=total)
    view = np.ndarray((m, 2), dtype=np.int64, buffer=segment.buf)
    view[...] = structure.edge_array
    manifest = SharedStructureManifest(
        segment=segment.name,
        digest=structure.digest,
        n=n,
        m=m,
        total_bytes=total,
    )
    return manifest, segment


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _attach_segment(name: str, untrack: bool) -> shared_memory.SharedMemory:
    if sys.version_info >= (3, 13) and untrack:
        return shared_memory.SharedMemory(name=name, track=False)
    segment = shared_memory.SharedMemory(name=name)
    if untrack and _private_tracker():
        try:
            # The worker runs its own resource tracker (spawn): drop the
            # attach registration so that tracker does not unlink the
            # parent-owned segment when the worker exits.
            resource_tracker.unregister(segment._name, "shared_memory")  # type: ignore[attr-defined]
        except Exception:  # pragma: no cover - tracker internals vary
            pass
    # fork/forkserver workers share the parent's tracker process; the
    # attach registration is a set no-op there, and unregistering would
    # erase the *owner's* entry (KeyError at unlink time).
    return segment


def _private_tracker() -> bool:
    """Whether this process runs its own resource-tracker process."""
    try:
        import multiprocessing

        return multiprocessing.get_start_method(allow_none=True) == "spawn"
    except Exception:  # pragma: no cover - defensive
        return False


def attach_structure(
    manifest: SharedStructureManifest, untrack: bool = False
) -> GraphStructure:
    """Rebuild one graph's structure from its shared segment (zero-copy).

    The reconstructed :class:`Graph` is content-equal to the parent's, so
    it keys the same cache slot.  The Graph builds its own read-only edge
    and CSR arrays from the read-only shared edge list in one vectorized
    pass.  ``untrack=True`` (worker processes only — never in the
    segment-owning parent) drops the attachment from this
    process's ``resource_tracker`` so only the owner unlinks.
    """
    segment = _attach_segment(manifest.segment, untrack)
    edges = np.ndarray((manifest.m, 2), dtype=np.int64, buffer=segment.buf)
    edges.flags.writeable = False
    structure = GraphStructure(Graph(manifest.n, edges))
    structure._segments = (segment,)
    return structure


def seed_worker_structures(
    manifests: Sequence[SharedStructureManifest],
) -> None:
    """Process-pool initializer: attach and cache every shared structure."""
    for manifest in manifests:
        seed_structure(attach_structure(manifest, untrack=True))
