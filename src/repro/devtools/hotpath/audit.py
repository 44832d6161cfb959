"""Steady-state allocation auditor — the runtime twin of RPR8xx.

The static analyzer proves the hot region *looks* allocation-free;
this module measures that it *is*.  Each engine combo is
driven past its warmup (lazy scratch binding, carrier creation, block
pre-draws) and then stepped for a fixed window between two
``tracemalloc`` snapshots, with a ``gc.collect()`` fence on each side
so only genuinely *retained* memory counts.  The metric is **net
retained bytes per round**: temporaries that die inside the round are
invisible (they are cheap-ish and the static rules police them);
what the audit catches is the class of regressions where per-round
state quietly accumulates — a scratch buffer rebound per call, a
growing stash, a cache keyed by round index.

At a true steady state the net is ~0: every buffer the round writes
already exists.  The documented thresholds
(:data:`DEFAULT_THRESHOLD_BYTES`, per-combo overrides in
:data:`THRESHOLD_OVERRIDES`; see ``docs/performance.md``) leave room
for allocator jitter — Python object churn, the batched engine's
retirement bookkeeping — while sitting orders of magnitude below one
fresh ``(n,)`` float64 vector per round, the smallest regression the
rules guard against.

Consumed by ``repro check --sanitize``
(:func:`repro.devtools.sanitize.check_hotpath_allocation_audit`), the
``REPRO_SANITIZE=1`` pytest gate, and ``benchmarks/_harness.py``
(every ``BENCH_*.json`` embeds the measured bytes/round).
"""

from __future__ import annotations

import gc
import tracemalloc
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

__all__ = [
    "ComboAudit",
    "DEFAULT_THRESHOLD_BYTES",
    "THRESHOLD_OVERRIDES",
    "run_allocation_audit",
    "allocation_summary",
]

#: Seed for every audited engine: the audit is deterministic.
_AUDIT_SEED = 20240807

#: Rounds stepped before the first snapshot — enough for every lazy
#: scratch path (CSR block buffers, channel masks, carriers, pre-drawn
#: uniform blocks) to have been bound at least once.
_WARMUP_ROUNDS = 12

#: Rounds measured between the snapshots.
_MEASURE_ROUNDS = 40

#: Net retained bytes/round allowed at steady state.  One fresh
#: ``(n,)`` float64 per round on the audit graph would be ~384 B/round
#: *retained only if leaked*; ordinary per-round temporaries net to ~0.
#: 2 KiB absorbs interpreter-level churn (ints, tuples, list resizes)
#: without masking a leaked vector.
DEFAULT_THRESHOLD_BYTES = 2048.0

#: Per-combo threshold overrides (combo label → bytes/round).  The
#: batched engine's retirement bookkeeping (per-check candidate stash)
#: gets the same budget; nothing currently needs more headroom — the
#: table exists so a future combo can document *why* it does.
THRESHOLD_OVERRIDES: Dict[str, float] = {}

#: The hear kernel every engine runs, named in the combo labels.
_KERNEL = "sparse_int32"


@dataclass(frozen=True)
class ComboAudit:
    """One combo's measured steady-state allocation rate."""

    combo: str
    bytes_per_round: float
    threshold: float
    rounds: int

    @property
    def ok(self) -> bool:
        return self.bytes_per_round <= self.threshold

    def format(self) -> str:
        status = "ok" if self.ok else "FAIL"
        return (
            f"[{status}] {self.combo}: {self.bytes_per_round:+.1f} B/round "
            f"(threshold {self.threshold:.0f})"
        )


def _audit_graph() -> Any:
    """The fixed audit topology: a 6×8 torus (n=48, 4-regular).

    Deterministic without a seed, large enough that a leaked per-vertex
    vector (≥ 48 B/round) clears the jitter floor, small enough that
    the full grid audits in well under a second.
    """
    from ...graphs.generators import torus_2d

    return torus_2d(6, 8)


def _snapshot() -> tracemalloc.Snapshot:
    snapshot = tracemalloc.take_snapshot()
    return snapshot.filter_traces(
        (
            tracemalloc.Filter(False, tracemalloc.__file__),
            tracemalloc.Filter(False, "<frozen importlib._bootstrap>"),
            tracemalloc.Filter(False, "<frozen importlib._bootstrap_external>"),
        )
    )


def _measure_retained(
    step: Callable[[], object],
    warmup: int,
    rounds: int,
) -> float:
    """Net retained bytes/round across ``rounds`` steady-state rounds."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        for _ in range(warmup):
            step()
        gc.collect()
        before = _snapshot()
        for _ in range(rounds):
            step()
        gc.collect()
        after = _snapshot()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    net = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
    return net / rounds


def _solo_combos(graph: Any) -> Iterator[Tuple[str, Callable[[], object]]]:
    from ...core.engines.single import SingleChannelEngine
    from ...core.engines.two_channel import TwoChannelEngine
    from ...core.knowledge import uniform_policy

    policy = uniform_policy(graph, ell_max=6)
    for name, cls in (
        ("single", SingleChannelEngine),
        ("two_channel", TwoChannelEngine),
    ):
        engine = cls(graph, policy, seed=_AUDIT_SEED)

        def step(engine: Any = engine) -> object:
            engine.step()
            return engine.is_legal()

        yield f"{name}×{_KERNEL}", step


def _constant_state_combos(
    graph: Any,
) -> Iterator[Tuple[str, Callable[[], object]]]:
    from ...core.engines.constant_state import ConstantStateEngine

    engine = ConstantStateEngine(graph, seed=_AUDIT_SEED)

    def step() -> object:
        engine.step()
        return engine.is_legal()

    yield f"constant_state×{_KERNEL}", step


def _batched_combos(graph: Any) -> Iterator[Tuple[str, Callable[[], object]]]:
    from ...core.engines.batched import BatchedEngine
    from ...core.knowledge import uniform_policy

    policy = uniform_policy(graph, ell_max=6)
    engine = BatchedEngine(graph, policy, replicas=4, seed=_AUDIT_SEED)
    active = np.ones(engine.replicas, dtype=bool)
    active_idx = np.arange(engine.replicas, dtype=np.intp)

    def step() -> object:
        # Mirror one run-loop iteration: legality check + step, every
        # replica held active (retired replicas step no more, so the
        # always-active grid is the steady-state upper bound).
        engine._legal_rows(engine.levels)
        return engine.step(active, active_idx=active_idx)

    yield f"batched×{_KERNEL}", step


def _stressed_combo(graph: Any) -> Iterator[Tuple[str, Callable[[], object]]]:
    """One non-ideal combo so the channel/scheduler scratch is audited."""
    from ...core.engines.single import SingleChannelEngine
    from ...core.knowledge import uniform_policy

    policy = uniform_policy(graph, ell_max=6)
    engine = SingleChannelEngine(
        graph,
        policy,
        seed=_AUDIT_SEED,
        channel="unreliable:0.05,0.01",
        scheduler="drift:0.1,3",
    )

    def step(engine: Any = engine) -> object:
        engine.step()
        return engine.is_legal()

    yield f"single×{_KERNEL}×unreliable+drift", step


def run_allocation_audit(
    warmup: int = _WARMUP_ROUNDS,
    rounds: int = _MEASURE_ROUNDS,
    combos: Optional[List[str]] = None,
) -> List[ComboAudit]:
    """Audit every engine combo; returns one result per combo.

    ``combos`` (label substrings) restricts the grid — the tiny unit
    test audits one combo, the sanitizer pass audits all of them.
    """
    graph = _audit_graph()
    results: List[ComboAudit] = []
    for label, step in _all_combos(graph):
        if combos is not None and not any(c in label for c in combos):
            continue
        measured = _measure_retained(step, warmup, rounds)
        threshold = THRESHOLD_OVERRIDES.get(label, DEFAULT_THRESHOLD_BYTES)
        results.append(
            ComboAudit(
                combo=label,
                bytes_per_round=measured,
                threshold=threshold,
                rounds=rounds,
            )
        )
    return results


def _fused_combos(graph: Any) -> Iterator[Tuple[str, Callable[[], object]]]:
    """Fused-round-tier combos: each audit step is one short run_block.

    The fused tier owns the whole loop, so the per-round unit the other
    combos audit does not exist here; instead each step resets the state
    block in place and runs an 8-round fused run.  Everything a run
    creates (outcome records, the draw adapter, final-level copies) must
    die with it — the net-retained metric then polices the same class of
    regressions as the per-step combos, at run granularity.
    """
    from ...core.kernels import PerRoundDraws, get_round_kernel, structure_for
    from ...core.knowledge import uniform_policy

    policy = uniform_policy(graph, ell_max=6)
    structure = structure_for(graph)
    n = graph.num_vertices
    replicas = 4
    for backend in ("fused_numpy", "fused_packed"):
        for algo in ("single", "two_channel", "constant_state"):
            constant = algo == "constant_state"
            kern = get_round_kernel(
                backend,
                structure,
                algorithm=algo,
                ell_max=None if constant else policy.ell_max,
                replicas=replicas,
            )
            rng = np.random.default_rng(_AUDIT_SEED)
            if constant:
                init = rng.integers(0, 2, size=(replicas, n)).astype(bool)
            else:
                low = -6 if algo == "single" else 0
                init = rng.integers(
                    low, 7, size=(replicas, n)
                ).astype(np.int32)
            state = init.copy()

            def step(
                kern: Any = kern,
                init: Any = init,
                state: Any = state,
                rng: Any = rng,
                constant: bool = constant,
            ) -> object:
                np.copyto(state, init)
                draws = PerRoundDraws([rng] * state.shape[0], state.shape[1])
                if constant:
                    _, executed = kern.run_constant(state, draws, 8)
                else:
                    _, executed = kern.run_block(state, draws, 8, 1)
                return executed

            yield f"fused:{algo}×{backend}", step


def _all_combos(graph: Any) -> Iterator[Tuple[str, Callable[[], object]]]:
    yield from _solo_combos(graph)
    yield from _constant_state_combos(graph)
    yield from _batched_combos(graph)
    yield from _stressed_combo(graph)
    yield from _fused_combos(graph)


def allocation_summary(
    results: Optional[List[ComboAudit]] = None,
) -> Dict[str, object]:
    """JSON-ready audit summary for the ``BENCH_*.json`` envelope."""
    if results is None:
        results = run_allocation_audit()
    return {
        "bytes_per_round": {
            r.combo: round(r.bytes_per_round, 1) for r in results
        },
        "threshold_bytes": {r.combo: r.threshold for r in results},
        "rounds": results[0].rounds if results else 0,
        "ok": all(r.ok for r in results),
    }
