"""Zero-perturbation per-round collectors for the Section-3 observables.

A collector watches an execution and records, for every executed round,
the structural quantities the paper's analysis is phrased over:

========================  =============================================
record field              paper quantity
========================  =============================================
``i_size``                ``|I_t|`` — the MIS-so-far (Section 3)
``s_size``                ``|S_t| = |I_t ∪ N(I_t)|`` — the stable set
``prominent``             ``|PM_t| = |{v : ℓ_t(v) ≤ 0}|`` (Def. 3.3)
``legal``                 legality of the start-of-round configuration
``beeps``                 transmissions per channel this round
``level_hist``            level histogram (optional, ``level_hist=True``)
========================  =============================================

Everything is computed from *reads* of the level array plus the fixed
adjacency — a collector never draws randomness and never mutates engine
state, so enabling one cannot change an execution (the zero-perturbation
contract, enforced by ``tests/test_observability.py``).

The collectors deliberately recompute the legality predicate with the
exact formula of :meth:`repro.core.engines.base.EngineBase.is_legal`:
the run loops then *reuse* the collector's verdict instead of evaluating
legality twice, which is what keeps metrics-on overhead small (the two
sparse matvecs per round are shared, not duplicated).

Record convention (matches ``drive()`` / :class:`TraceRecorder`): a
record describes a round that was actually *executed* — structure at the
start of the round plus the beeps sent during it.  The final legal
configuration terminates the run before stepping and is therefore not a
record, so a run that stabilizes after ``r`` rounds yields records
``0 … r−1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union
from weakref import WeakKeyDictionary

import numpy as np
import numpy.typing as npt

from ..core.kernels import GraphStructure, HearKernel, structure_for
from ..graphs.graph import Graph
from .registry import MetricsRegistry
from .sinks import MetricSink

__all__ = ["StructureView", "RunCollector", "BatchedCollector"]

#: What ``observe_beeps`` accepts: a channel mask, a tuple of channel
#: masks, or a tuple of pre-counted per-channel totals (reference path).
BeepObservation = Union[
    npt.NDArray[np.bool_],
    Tuple[npt.NDArray[np.bool_], ...],
    Tuple[int, ...],
]


@dataclass
class StructureView:
    """The fixed structure a collector measures levels against.

    Holds the sparse adjacency, the per-vertex ``ℓmax`` and level floor
    (``−ℓmax`` for Algorithm 1, ``0`` for Algorithm 2), and the channel
    count.  Built once per run; engines and policies both know how to
    produce one.
    """

    adjacency: Any  # scipy.sparse.csr_matrix (None until first use)
    ell_max: npt.NDArray[np.int64]
    floor: npt.NDArray[np.int64]
    channels: int = 1
    _adj_t: Any = None  # transpose, materialized lazily for row blocks
    graph: Optional[Graph] = None  # lazy-build source when adjacency is None
    kernel: Any = None  # HearKernel, adopted from the engine or lazy-built
    #: BoundChannel of the observed solo engine — adopted only when the
    #: channel is non-perfect, so perfect-channel records stay exactly
    #: the historical shape (no ``dropped``/``spurious`` fields).
    channel_state: Any = None
    #: Per-replica BoundChannel list of the observed batched engine.
    channels_state: Any = None

    # ------------------------------------------------------------------
    @classmethod
    def from_engine(cls, engine: Any) -> "StructureView":
        """View onto a solo :class:`EngineBase`-style engine."""
        floor = (
            -engine.ell_max
            if getattr(engine, "uses_negative_levels", True)
            else np.zeros_like(engine.ell_max)
        )
        channels = 1 if getattr(engine, "uses_negative_levels", True) else 2
        return cls(
            adjacency=engine.adjacency,
            ell_max=engine.ell_max,
            floor=floor,
            channels=channels,
            kernel=getattr(engine, "kernel", None),
        )

    @classmethod
    def from_batched_engine(cls, engine: Any) -> "StructureView":
        """View onto a :class:`BatchedEngine` (reuses its transpose)."""
        single = engine.algorithm == "single"
        view = cls(
            adjacency=engine.adjacency,
            ell_max=engine.ell_max,
            floor=-engine.ell_max if single else np.zeros_like(engine.ell_max),
            channels=1 if single else 2,
            kernel=getattr(engine, "kernel", None),
        )
        view._adj_t = getattr(engine, "_adj_t", None)
        return view

    @classmethod
    def from_policy(
        cls, graph: Graph, policy: Any, two_channel: bool = False
    ) -> "StructureView":
        """View from a topology + ℓmax policy (no engine required)."""
        ell_max = np.asarray(policy.ell_max, dtype=np.int64)
        floor = np.zeros_like(ell_max) if two_channel else -ell_max
        # Adjacency stays unbuilt: the run loops share the engine's
        # already-constructed matrix via :meth:`adopt_engine`, so a
        # policy-built view costs nothing the engine hasn't already paid.
        return cls(
            adjacency=None,
            ell_max=ell_max,
            floor=floor,
            channels=2 if two_channel else 1,
            graph=graph,
        )

    # ------------------------------------------------------------------
    def adopt_engine(self, engine: Any) -> None:
        """Share an engine's already-built structures and hear kernel.

        Both sides resolve their structure through the shared
        :func:`~repro.core.kernels.structure_for` cache on the same
        graph, so the shared forms are identical by construction —
        collectors only ever *read* them, making this a pure setup-cost
        optimization (adopting the engine's kernel also reuses its
        scratch buffers).  Engines without these attributes (the reference
        network) are a no-op; the view then lazy-builds from
        :attr:`graph`.
        """
        if self.adjacency is None:
            adjacency = getattr(engine, "adjacency", None)
            if adjacency is not None:
                self.adjacency = adjacency
        if self._adj_t is None:
            adj_t = getattr(engine, "_adj_t", None)
            if adj_t is not None:
                self._adj_t = adj_t
        if self.kernel is None:
            kernel = getattr(engine, "kernel", None)
            if kernel is not None:
                self.kernel = kernel
        # Channel counters are *read-only* adoptions: the collector only
        # ever inspects the engine-owned counters after a step, so the
        # zero-perturbation contract is untouched.  Perfect channels are
        # deliberately not adopted — records keep the historical shape.
        if self.channel_state is None:
            bound = getattr(engine, "channel", None)
            if bound is not None and not bound.is_perfect:
                self.channel_state = bound
        if self.channels_state is None:
            bound_list = getattr(engine, "channels", None)
            if bound_list and not bound_list[0].is_perfect:
                self.channels_state = bound_list

    def _built_kernel(self) -> Any:
        """The hear kernel, lazy-built when no engine was adopted."""
        if self.kernel is None:
            if self.graph is not None:
                structure = structure_for(self.graph)
            elif self.adjacency is not None:
                structure = GraphStructure.from_csr(self.adjacency)
            else:
                raise ValueError("StructureView has neither adjacency nor graph")
            self.kernel = HearKernel(structure)
        return self.kernel

    def _built_adjacency(self) -> Any:
        if self.adjacency is None:
            if self.graph is None:
                raise ValueError("StructureView has neither adjacency nor graph")
            self.adjacency = structure_for(self.graph).csr
        return self.adjacency

    def hear(self, active: npt.NDArray[np.bool_]) -> npt.NDArray[np.bool_]:
        """Vertices with ≥ 1 active neighbor (bool, kernel-delegated)."""
        return self._built_kernel().hear(active)

    def hear_rows(self, rows: npt.NDArray[np.bool_]) -> npt.NDArray[np.bool_]:
        """Row-wise :meth:`hear` over an ``(R', n)`` block."""
        return self._built_kernel().hear_rows(rows)

    def received(self, vec: npt.NDArray[np.int32]) -> npt.NDArray[np.int32]:
        """Neighbor-count transport (back-compat; prefer :meth:`hear`)."""
        return self._built_adjacency().dot(vec)

    def received_rows(self, rows: npt.NDArray[np.int32]) -> npt.NDArray[np.int32]:
        """Row-block counts (back-compat; prefer :meth:`hear_rows`)."""
        if self._adj_t is None:
            self._adj_t = self._built_adjacency().transpose().tocsr()
        cols = np.ascontiguousarray(rows.T)
        return np.ascontiguousarray(self._adj_t.dot(cols).T)


#: Run-level instrument handles per registry — finalize runs once per
#: replica, and the get-or-create label lookups are measurable at
#: batched speed, so each handle is resolved once.
_INSTRUMENT_CACHE: "WeakKeyDictionary[MetricsRegistry, Tuple[Any, ...]]" = (
    WeakKeyDictionary()
)


def _instruments(registry: MetricsRegistry, channels: int) -> Tuple[Any, ...]:
    cached = _INSTRUMENT_CACHE.get(registry)
    if cached is None or len(cached[3]) < channels:
        cached = (
            registry.counter("runs_total"),
            registry.counter("runs_stabilized_total"),
            registry.counter("rounds_total"),
            [
                registry.counter("beeps_total", channel=c + 1)
                for c in range(channels)
            ],
            registry.histogram("stabilization_rounds"),
            registry.gauge("peak_level_bytes"),
        )
        _INSTRUMENT_CACHE[registry] = cached
    return cached


def _mis_disjoint_from_dominated(view: StructureView) -> bool:
    """Whether ``|S_t|`` may be counted as ``|I_t| + |N(I_t)|``.

    A vertex in both ``I_t`` and ``N(I_t)`` would need an MIS neighbor
    that is simultaneously at its level floor (MIS membership) and at
    its ``ℓmax`` (the blocked-by-no-one condition) — impossible unless
    that neighbor has ``ℓmax = 0``.  Every real policy has ``ℓmax ≥ 1``,
    so the split saves the union pass; the degenerate case falls back.
    """
    return bool(view.ell_max.min() > 0)


def _row_counts(mask: npt.NDArray[np.bool_]) -> npt.NDArray[np.int32]:
    """Per-row popcount of a boolean matrix.

    ``einsum`` over the int8 view with an int32 accumulator beats
    ``mask.sum(axis=1)`` by ~2x at batched-row sizes, and this runs
    several times per observed round.
    """
    if mask.flags.c_contiguous:
        return np.einsum("ij->i", mask.view(np.int8), dtype=np.int32)
    return mask.sum(axis=1, dtype=np.int32)


def _beep_counts(out: BeepObservation) -> List[int]:
    """Per-channel transmission totals from any step-output shape."""
    channels: Sequence[Any] = out if isinstance(out, tuple) else (out,)
    counts: List[int] = []
    for channel in channels:
        if isinstance(channel, (int, np.integer)):
            counts.append(int(channel))
        else:
            counts.append(int(np.asarray(channel).sum()))
    return counts


def _level_histogram(
    levels: npt.NDArray[np.int64], floor_min: int, span: int
) -> List[List[int]]:
    counts = np.bincount(levels - floor_min, minlength=span)
    return [
        [int(level + floor_min), int(count)]
        for level, count in enumerate(counts)
        if count
    ]


class RunCollector:
    """Per-round Section-3 observables of one solo run.

    Drive one of two ways:

    * pass it as ``collector=`` to :func:`simulate_single` /
      :func:`simulate_two_channel` / :func:`run_until_stable`, or
    * call :meth:`observe_structure` (start of round) and
      :meth:`observe_beeps` (after stepping) by hand around any loop.

    Parameters
    ----------
    view:
        The fixed :class:`StructureView` of the run.
    labels:
        Identity attached to every record (config keys, rep index, …).
    registry:
        Optional :class:`MetricsRegistry` receiving run-level aggregates
        on :meth:`finalize`.
    sink:
        Optional :class:`MetricSink` receiving each record as it is
        completed (records are also kept in :attr:`records`).
    every:
        Emit only rounds ``0, every, 2·every, …`` (structure is still
        evaluated every round — the run loop reuses its legality).
    level_hist:
        Attach the per-round level histogram to each record.
    records:
        Optional caller-owned list to append records to *instead of* a
        fresh private one.  A harness running many collectors back to
        back (one per run) shares a single buffer this way — cheaper
        than funnelling every record through a sink call.
    """

    def __init__(
        self,
        view: StructureView,
        labels: Optional[Mapping[str, Any]] = None,
        registry: Optional[MetricsRegistry] = None,
        sink: Optional[MetricSink] = None,
        every: int = 1,
        level_hist: bool = False,
        records: Optional[List[Dict[str, Any]]] = None,
    ) -> None:
        if every < 1:
            raise ValueError("every must be >= 1")
        self.view = view
        self.labels = dict(labels or {})
        self.registry = registry
        self.sink = sink
        self.every = every
        self.level_hist = level_hist
        self.records: List[Dict[str, Any]] = (
            records if records is not None else []
        )
        self.beep_totals = [0] * view.channels
        self.peak_level_bytes = 0
        self._round = -1
        self._pending: Optional[Dict[str, Any]] = None
        self._observed = False
        self._s_disjoint = _mis_disjoint_from_dominated(view)
        self._hist_offset = int(view.floor.min())
        self._hist_span = int(view.ell_max.max()) - self._hist_offset + 1
        # Reusable legality masks (hot-path allocation contract): two
        # (n,)-bool slots bound to the first observed shape, refilled in
        # place each round with out= ufuncs — value-identical to the
        # historical temporary chain.
        self._mask_a: Optional[npt.NDArray[np.bool_]] = None
        self._mask_b: Optional[npt.NDArray[np.bool_]] = None

    # ------------------------------------------------------------------
    def observe_structure(self, levels: npt.ArrayLike) -> bool:
        """Record the start-of-round structure; returns its legality.

        The returned flag is computed with the engines' exact legality
        formula, so callers may use it *instead of* ``is_legal()``.
        """
        levels = np.asarray(levels, dtype=np.int64)
        view = self.view
        self._round += 1
        self.peak_level_bytes = max(self.peak_level_bytes, int(levels.nbytes))

        in_mis = self._mask_a
        scratch = self._mask_b
        if in_mis is None or in_mis.shape != levels.shape or scratch is None:
            in_mis = self._mask_a = np.empty(levels.shape, dtype=np.bool_)
            scratch = self._mask_b = np.empty(levels.shape, dtype=np.bool_)
        np.not_equal(levels, view.ell_max, out=scratch)
        blocked = view.hear(scratch)
        np.equal(levels, view.floor, out=in_mis)
        np.logical_not(blocked, out=scratch)
        in_mis &= scratch  # in_mis = (levels == floor) & ~blocked
        dominated = view.hear(in_mis)
        np.equal(levels, view.ell_max, out=scratch)
        scratch &= dominated  # others_ok = (levels == ℓmax) & dominated
        scratch |= in_mis
        legal = bool(np.all(scratch))

        if self._round % self.every == 0:
            record: Optional[Dict[str, Any]] = self.labels.copy()
            record["round"] = self._round
            i_size = int(in_mis.sum())
            record["i_size"] = i_size
            record["s_size"] = (
                i_size + int(dominated.sum())
                if self._s_disjoint
                else int((in_mis | dominated).sum())
            )
            record["prominent"] = int((levels <= 0).sum())
            record["legal"] = legal
            if self.level_hist:
                record["level_hist"] = _level_histogram(
                    levels, self._hist_offset, self._hist_span
                )
        else:
            record = None  # beep totals still accumulate for this round
        self._pending = record
        self._observed = True
        return legal

    def observe_beeps(self, out: BeepObservation) -> None:
        """Complete the pending record with this round's transmissions."""
        if not self._observed:
            raise RuntimeError("observe_beeps() without observe_structure()")
        counts = _beep_counts(out)
        for channel, count in enumerate(counts[: len(self.beep_totals)]):
            self.beep_totals[channel] += count
        record, self._pending = self._pending, None
        self._observed = False
        if record is None:  # not an emitted round (``every`` cadence)
            return
        record["beeps"] = counts
        channel_state = self.view.channel_state
        if channel_state is not None:  # non-perfect channel adopted
            record["dropped"] = channel_state.last_drops
            record["spurious"] = channel_state.last_spurious
        self.records.append(record)
        if self.sink is not None:
            self.sink.emit(record)

    def finalize(self, stabilized: bool, rounds: int) -> None:
        """Fold run-level aggregates into the registry; drop pendings."""
        self._pending = None
        self._observed = False
        if self.registry is None:
            return
        runs, stab, rounds_c, beeps_c, hist, peak = _instruments(
            self.registry, self.view.channels
        )
        runs.inc()
        if stabilized:
            stab.inc()
        rounds_c.inc(rounds)
        for channel_counter, total in zip(beeps_c, self.beep_totals):
            channel_counter.inc(total)
        hist.observe(float(rounds))
        peak.set_max(self.peak_level_bytes)
        channel_state = self.view.channel_state
        if channel_state is not None:  # non-perfect channel adopted
            self.registry.counter("channel_dropped_beeps_total").inc(
                channel_state.drops_total
            )
            self.registry.counter("channel_spurious_beeps_total").inc(
                channel_state.spurious_total
            )

    # ------------------------------------------------------------------
    def series(self, field: str) -> List[Any]:
        """One column of the recorded series, in round order."""
        return [record[field] for record in self.records]


class BatchedCollector:
    """Per-replica Section-3 series from one matmul pass per round.

    The structural masks of *all* active replicas are computed together
    on the ``(R', n)`` level block — the same two sparse products the
    batched legality check already needs, shared with it — and fan out
    into one record per (replica, round).  Replica ``k``'s series is
    bit-identical to a solo :class:`RunCollector` on the solo run seeded
    with child ``k`` (asserted by ``tests/test_observability.py``).
    """

    def __init__(
        self,
        view: StructureView,
        replicas: int,
        labels: Optional[Mapping[str, Any]] = None,
        rep_key: str = "rep",
        registry: Optional[MetricsRegistry] = None,
        sink: Optional[MetricSink] = None,
        every: int = 1,
        level_hist: bool = False,
        records: Optional[List[Dict[str, Any]]] = None,
    ) -> None:
        if every < 1:
            raise ValueError("every must be >= 1")
        self.view = view
        self.replicas = replicas
        self.labels = dict(labels or {})
        self.rep_key = rep_key
        self.registry = registry
        self.sink = sink
        self.every = every
        self.level_hist = level_hist
        self.records: List[Dict[str, Any]] = (
            records if records is not None else []
        )
        self.peak_level_bytes = 0
        self._round = -1
        self._beep_total_arr = np.zeros((replicas, view.channels), dtype=np.int64)
        # Column stash of the current round's structure observation,
        # aligned to the observed (sorted) replica list.  Records are
        # materialized in one pass in :meth:`observe_beeps`, which also
        # drops the columns of replicas that retired before stepping.
        self._active: Optional[List[int]] = None
        self._active_arr: Optional[npt.NDArray[np.int64]] = None
        self._emit = False
        self._col_i: Optional[npt.NDArray[np.int32]] = None
        self._col_s: Optional[npt.NDArray[np.int32]] = None
        self._col_p: Optional[npt.NDArray[np.int32]] = None
        self._col_legal: Optional[npt.NDArray[np.bool_]] = None
        self._col_hists: Optional[List[List[List[int]]]] = None
        self._col_beeps2: Optional[npt.NDArray[np.int32]] = None
        self._s_disjoint = _mis_disjoint_from_dominated(view)
        self._hist_offset = int(view.floor.min())
        self._hist_span = int(view.ell_max.max()) - self._hist_offset + 1

    @property
    def beep_totals(self) -> List[List[int]]:
        """Per-replica per-channel transmission totals so far."""
        return self._beep_total_arr.tolist()

    # ------------------------------------------------------------------
    def observe_structure(
        self,
        levels: npt.NDArray[np.int64],
        active_idx: npt.NDArray[np.int64],
    ) -> npt.NDArray[np.bool_]:
        """Observe the active replicas' rows; returns their legality.

        ``levels`` is the engine's full ``(R, n)`` matrix; ``active_idx``
        selects the still-running replicas.  The returned boolean vector
        (one entry per active replica, in ``active_idx`` order) equals
        ``BatchedEngine._legal_rows`` on the same rows — the run loop
        uses it for retirement so legality is evaluated exactly once.
        """
        view = self.view
        self._round += 1
        round_index = self._round
        self.peak_level_bytes = max(self.peak_level_bytes, int(levels.nbytes))
        active_arr = np.asarray(active_idx)
        # Skip the fancy-index copy while every replica is still running
        # (the common early rounds) — all downstream uses only read.
        rows = levels if active_arr.size == levels.shape[0] else levels[active_arr]
        blocked = view.hear_rows(rows != view.ell_max)
        in_mis = (rows == view.floor) & ~blocked
        dominated = view.hear_rows(in_mis)
        others_ok = (rows == view.ell_max) & dominated
        legal_rows = np.all(in_mis | others_ok, axis=1)

        self._active = active_arr.tolist()
        self._active_arr = active_arr
        self._emit = round_index % self.every == 0
        if self._emit:
            # Stash columns; records are materialized in observe_beeps()
            # once the stepped replicas (observed minus retired) are
            # known.  Everything is evaluated eagerly — ``rows`` may
            # alias the engine's level matrix, which mutates on step.
            self._col_i = _row_counts(in_mis)
            self._col_s = (
                self._col_i + _row_counts(dominated)
                if self._s_disjoint
                else _row_counts(in_mis | dominated)
            )
            self._col_p = _row_counts(rows <= 0)
            self._col_legal = legal_rows
            if self.level_hist:
                self._col_hists = [
                    _level_histogram(row, self._hist_offset, self._hist_span)
                    for row in rows
                ]
        if view.channels == 2:
            self._col_beeps2 = _row_counts(rows == 0)
        return legal_rows

    def observe_beeps(
        self,
        beep1_rows: npt.NDArray[np.bool_],
        stepped_idx: npt.NDArray[np.int64],
    ) -> None:
        """Complete records for the replicas that were actually stepped.

        Channel-2 transmissions are deterministic given the start-of-round
        levels (``beep2 = (ℓ == 0)``) and were counted during
        :meth:`observe_structure`; only channel 1 needs the step output.
        """
        active, active_arr = self._active, self._active_arr
        if active is None or active_arr is None:
            raise RuntimeError("observe_beeps() without observe_structure()")
        stepped_arr = np.asarray(stepped_idx)
        stepped = stepped_arr.tolist()
        if stepped == active:
            pos: Optional[npt.NDArray[np.int64]] = None
        else:
            # Replicas that retired this round were observed but not
            # stepped; map the stepped subset back to column positions
            # (both index lists are sorted — nonzero() output).
            if active_arr.size == 0:
                raise RuntimeError("observe_beeps() for an unobserved replica")
            pos = np.searchsorted(active_arr, stepped_arr)
            clipped = np.minimum(pos, active_arr.size - 1)
            if not bool(np.array_equal(active_arr[clipped], stepped_arr)):
                raise RuntimeError("observe_beeps() for an unobserved replica")

        counts1 = _row_counts(beep1_rows)
        totals = self._beep_total_arr
        totals[stepped_arr, 0] += counts1
        two_channel = self.view.channels == 2
        if two_channel:
            beeps2 = self._col_beeps2
            counts2 = beeps2 if pos is None else beeps2[pos]
            totals[stepped_arr, 1] += counts2

        if self._emit:
            pick = (lambda col: col) if pos is None else (lambda col: col[pos])
            i_list = pick(self._col_i).tolist()
            s_list = pick(self._col_s).tolist()
            p_list = pick(self._col_p).tolist()
            legal_list = pick(self._col_legal).tolist()
            c1 = counts1.tolist()
            c2 = counts2.tolist() if two_channel else None
            hists = self._col_hists
            if hists is not None and pos is not None:
                hists = [hists[j] for j in pos.tolist()]
            labels = self.labels
            rep_key = self.rep_key
            round_index = self._round
            records = self.records
            sink = self.sink
            channels_state = self.view.channels_state
            for k, replica in enumerate(stepped):
                record: Dict[str, Any] = labels.copy()
                record[rep_key] = replica
                record["round"] = round_index
                record["i_size"] = i_list[k]
                record["s_size"] = s_list[k]
                record["prominent"] = p_list[k]
                record["legal"] = legal_list[k]
                if hists is not None:
                    record["level_hist"] = hists[k]
                record["beeps"] = [c1[k], c2[k]] if two_channel else [c1[k]]
                if channels_state is not None:  # non-perfect channel
                    bound = channels_state[replica]
                    record["dropped"] = bound.last_drops
                    record["spurious"] = bound.last_spurious
                records.append(record)
                if sink is not None:
                    sink.emit(record)
        self._active = None
        self._active_arr = None
        self._emit = False
        self._col_hists = None

    def finalize_replica(self, replica: int, stabilized: bool, rounds: int) -> None:
        """Registry aggregates for one retired replica."""
        if self.registry is None:
            return
        runs, stab, rounds_c, beeps_c, hist, peak = _instruments(
            self.registry, self.view.channels
        )
        runs.inc()
        if stabilized:
            stab.inc()
        rounds_c.inc(rounds)
        for channel_counter, total in zip(
            beeps_c, self._beep_total_arr[replica].tolist()
        ):
            channel_counter.inc(total)
        hist.observe(float(rounds))
        peak.set_max(self.peak_level_bytes)
        channels_state = self.view.channels_state
        if channels_state is not None:  # non-perfect channel adopted
            bound = channels_state[replica]
            self.registry.counter("channel_dropped_beeps_total").inc(
                bound.drops_total
            )
            self.registry.counter("channel_spurious_beeps_total").inc(
                bound.spurious_total
            )

    # ------------------------------------------------------------------
    def series(self, field: str, replica: int) -> List[Any]:
        """One replica's column of the recorded series, in round order."""
        return [
            record[field]
            for record in self.records
            if record[self.rep_key] == replica
        ]
