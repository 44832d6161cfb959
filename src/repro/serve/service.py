"""The long-lived MIS service: apply ops, invalidate incrementally, re-stabilize.

:class:`MISService` is the tentpole of the serving stack.  It owns

* a :class:`~repro.graphs.mutable.MutableTopology` (the mutation
  surface, with the committed degree cap),
* a resumable engine bound to the topology's derived structure, and
* the committed uniform ℓmax policy (valid for the whole service
  lifetime because the cap bounds Δ).

Each mutation op flows through one path: apply to the topology (which
validates and produces a :class:`~repro.graphs.mutable.TopologyDelta`),
patch the derived structure via
:func:`~repro.core.kernels.update_structure` (or rebuild when the cost
model says so), :meth:`~repro.core.engines.EngineBase.rebind` the engine
so it carries its levels across the change, and run
:meth:`~repro.core.engines.EngineBase.until_stable` until the legality
predicate holds again.  Self-stabilization is what makes the carry
sound: any configuration is a valid starting point, so the rounds spent
re-stabilizing scale with the damage, not with ``n``.

Reads never touch engine state.  Metrics are pure observation — a
service with a registry attached serves byte-identical outcomes to one
without (asserted by ``tests/test_serve.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from ..core.engines import BatchedEngine, SingleChannelEngine, TwoChannelEngine
from ..core.engines.base import EngineBase
from ..core.kernels import GraphStructure, structure_for, update_structure
from ..core.knowledge import EllMaxPolicy, explicit_policy, max_degree_policy
from ..core.runner import default_round_budget
from ..devtools.seeding import SeedLike
from ..graphs.graph import Graph
from ..graphs.mis import is_maximal_independent_set
from ..graphs.mutable import MutableTopology, TopologyDelta, TopologyError
from ..obs import MetricsRegistry, MetricSink, wall_clock
from .ops import Op

__all__ = ["ALGORITHMS", "ENGINES", "MISService", "OpResult", "ServeError", "ServeReport"]

ALGORITHMS: Tuple[str, ...] = ("single", "two_channel")
ENGINES: Tuple[str, ...] = ("vectorized", "batched")

#: Latency percentiles every summary reports.
_PCTS = (50.0, 95.0, 99.0)


class ServeError(RuntimeError):
    """The service could not re-stabilize within its round budget.

    The budget (:func:`repro.core.runner.default_round_budget`) leaves an
    order of magnitude of head-room, so exhausting it indicates a bug,
    not bad luck — the service refuses to keep serving a stale MIS.
    """


@dataclass(frozen=True)
class OpResult:
    """Outcome of one applied op.

    ``latency_s`` is wall-clock measurement, excluded from
    :meth:`outcome` so determinism checks compare served *outcomes*, not
    timings.
    """

    op: Op
    status: str  # "ok" | "rejected"
    error: Optional[str] = None
    node: Optional[int] = None  # ADD_NODE: the assigned vertex id
    neighbors: Optional[Tuple[int, ...]] = None  # READ_NBRS
    mis: Optional[Tuple[int, ...]] = None  # QUERY_MIS (live members, sorted)
    rounds: Optional[int] = None  # mutations: rounds to re-stabilize
    rebuilt: Optional[bool] = None  # mutations: rebuild (vs patch) path?
    latency_s: float = 0.0

    def outcome(self) -> Dict[str, Any]:
        """JSON-safe outcome record, timing excluded (determinism key)."""
        record: Dict[str, Any] = {"op": self.op.to_json(), "status": self.status}
        for name in ("error", "node", "rounds", "rebuilt"):
            value = getattr(self, name)
            if value is not None:
                record[name] = value
        if self.neighbors is not None:
            record["neighbors"] = list(self.neighbors)
        if self.mis is not None:
            record["mis"] = list(self.mis)
        return record


def _percentiles(values: List[float]) -> Dict[str, float]:
    arr = np.asarray(values, dtype=np.float64)
    out = {f"p{int(q)}": float(np.percentile(arr, q)) for q in _PCTS}
    out["mean"] = float(arr.mean())
    out["max"] = float(arr.max())
    return out


@dataclass
class ServeReport:
    """All per-op results of a served stream plus summary statistics."""

    results: List[OpResult] = field(default_factory=list)

    def outcomes(self) -> List[Dict[str, Any]]:
        """The determinism key: every outcome record, timing excluded."""
        return [r.outcome() for r in self.results]

    def summary(self) -> Dict[str, Any]:
        """Latency percentiles and restabilization stats, overall + per op."""
        ok = [r for r in self.results if r.status == "ok"]
        summary: Dict[str, Any] = {
            "ops": len(self.results),
            "rejected": sum(r.status == "rejected" for r in self.results),
        }
        if ok:
            summary["latency_s"] = _percentiles([r.latency_s for r in ok])
        rounds = [float(r.rounds) for r in ok if r.rounds is not None]
        if rounds:
            stats = _percentiles(rounds)
            stats["total"] = float(sum(rounds))
            summary["rounds_to_restabilize"] = stats
        rebuilds = [r for r in ok if r.rebuilt is not None]
        if rebuilds:
            summary["rebuilds"] = sum(bool(r.rebuilt) for r in rebuilds)
        by_op: Dict[str, Any] = {}
        for kind in sorted({r.op.kind for r in self.results}):
            rows = [r for r in ok if r.op.kind == kind]
            if not rows:
                continue
            entry: Dict[str, Any] = {
                "count": len(rows),
                "latency_s": _percentiles([r.latency_s for r in rows]),
            }
            kind_rounds = [float(r.rounds) for r in rows if r.rounds is not None]
            if kind_rounds:
                entry["rounds_to_restabilize"] = _percentiles(kind_rounds)
            by_op[kind] = entry
        summary["by_op"] = by_op
        return summary


class MISService:
    """Maintain a legal MIS over a mutating topology, op by op.

    Parameters
    ----------
    graph:
        Starting topology (must respect ``degree_cap``).
    degree_cap:
        The committed "loose upper bound on Δ" (defaults to the starting
        graph's max degree, floored at 1).  It fixes the uniform ℓmax
        the service commits to for its whole lifetime.
    algorithm:
        ``"single"`` (Algorithm 1) or ``"two_channel"`` (Algorithm 2).
    engine:
        ``"vectorized"`` (solo array engine) or ``"batched"`` (the
        (R, n) engine with one replica, exercising that code path).
    channel, scheduler:
        Stress models (:mod:`repro.beeping.channels` /
        :mod:`repro.beeping.schedulers`): serve under an unreliable
        channel or relaxed synchrony.  The defaults keep served
        outcomes byte-identical to the historical service.  Note an
        adversarial scheduler with an *explicit* wake-up schedule pins
        the vertex-id-space size — id-space-growing ADD_NODE ops then
        raise at rebind time; the kind-based forms re-bind cleanly.
    seed:
        Engine RNG seed (the op stream carries its own seed).
    registry, sink:
        Optional :mod:`repro.obs` hooks: the registry aggregates op
        counters and latency/round histograms, the sink receives one
        record per op (outcome plus timing).  Both are pure observers.
    rebuild_per_op:
        Benchmark baseline: rebuild the full derived structure from a
        fresh snapshot on every mutation instead of patching (the cold
        path ``BENCH_serve`` compares against).
    clock:
        Seconds-valued callable for per-op latency (defaults to the
        blessed :func:`repro.obs.wall_clock`; tests inject counters).
    """

    def __init__(
        self,
        graph: Graph,
        degree_cap: Optional[int] = None,
        algorithm: str = "single",
        engine: str = "vectorized",
        channel: Optional[object] = None,
        scheduler: Optional[object] = None,
        seed: SeedLike = 0,
        registry: Optional[MetricsRegistry] = None,
        sink: Optional[MetricSink] = None,
        rebuild_per_op: bool = False,
        clock: Optional[Callable[[], float]] = None,
    ):
        if algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; choose one of {ALGORITHMS}"
            )
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; choose one of {ENGINES}"
            )
        if degree_cap is None:
            degree_cap = max(graph.max_degree(), 1)
        self.topology = MutableTopology(graph, degree_cap=degree_cap)
        self.algorithm = algorithm
        self.engine_name = engine
        self.rebuild_per_op = rebuild_per_op
        self.registry = registry
        self.sink = sink
        self._clock = clock if clock is not None else wall_clock()
        # The committed uniform policy: ℓmax from the cap, never from the
        # momentary Δ, so it stays valid under any cap-respecting churn.
        policy = max_degree_policy(graph, delta_upper=degree_cap)
        self._ell = policy.max_ell_max
        self._policy = policy
        self._budget = default_round_budget(graph, policy)
        self._batched = engine == "batched"
        if self._batched:
            self._engine: Union[EngineBase, BatchedEngine] = BatchedEngine(
                graph, policy, replicas=1, seed=seed,
                algorithm=algorithm,
                channel=channel, scheduler=scheduler,
            )
        elif algorithm == "two_channel":
            self._engine = TwoChannelEngine(
                graph, policy, seed=seed,
                channel=channel, scheduler=scheduler,
            )
        else:
            self._engine = SingleChannelEngine(
                graph, policy, seed=seed,
                channel=channel, scheduler=scheduler,
            )
        self._stabilize()  # serve a legal MIS from the very first op

    # ------------------------------------------------------------------
    # Engine adapters (solo and batched expose slightly different runs)
    # ------------------------------------------------------------------
    def _stabilize(self) -> int:
        """Run rounds until legality; returns the rounds executed."""
        if self._batched:
            engine = self._engine
            assert isinstance(engine, BatchedEngine)
            outcome = engine.run(max_rounds=self._budget)[0]
        else:
            engine = self._engine
            assert isinstance(engine, EngineBase)
            outcome = engine.until_stable(self._budget)
        if not outcome.stabilized:
            raise ServeError(
                f"failed to re-stabilize within {self._budget} rounds "
                f"(n={self.topology.num_vertices}, this indicates a bug)"
            )
        return int(outcome.rounds)

    def _mis_full(self) -> Tuple[int, ...]:
        """Current MIS over the whole id space (tombstones included)."""
        if self._batched:
            engine = self._engine
            assert isinstance(engine, BatchedEngine)
            members = engine.mis_vertices(0)
        else:
            engine = self._engine
            assert isinstance(engine, EngineBase)
            members = engine.mis_vertices()
        return tuple(sorted(members))

    @property
    def structure(self) -> GraphStructure:
        return self._engine.structure

    def mis(self) -> Tuple[int, ...]:
        """The served MIS: current members restricted to live vertices.

        O(|MIS|): one liveness lookup per member.
        """
        topology = self.topology
        return tuple(v for v in self._mis_full() if topology.is_live(v))

    def verify_legal(self) -> bool:
        """Cross-check the served MIS against the graph-theoretic oracle.

        O(n + m) — a test/debug hook, not part of the serving path.  The
        full MIS (tombstones included — a tombstoned id is an isolated
        vertex, trivially in any maximal independent set) must be maximal
        independent on the snapshot.
        """
        return is_maximal_independent_set(
            self.topology.snapshot(), set(self._mis_full())
        )

    # ------------------------------------------------------------------
    # The op path
    # ------------------------------------------------------------------
    def _apply_mutation(self, op: Op) -> OpResult:
        topo = self.topology
        node: Optional[int] = None
        if op.kind == "ADD_NODE":
            node, delta = topo.add_node()
        elif op.kind == "DEL_NODE":
            assert op.v is not None
            delta = topo.remove_node(op.v)
        elif op.kind == "ADD_EDGE":
            assert op.u is not None and op.v is not None
            delta = topo.add_edge(op.u, op.v)
        else:  # DEL_EDGE
            assert op.u is not None and op.v is not None
            delta = topo.remove_edge(op.u, op.v)
        structure, rebuilt = self._invalidate(delta)
        policy: Optional[EllMaxPolicy] = None
        if structure.n != self._engine.n:
            # Id-space growth: extend the committed uniform ℓmax.
            policy = explicit_policy((self._ell,) * structure.n)
            self._policy = policy
            self._budget = default_round_budget(
                Graph(structure.n, ()), policy
            )
        self._engine.rebind(structure, policy=policy)
        rounds = self._stabilize()
        return OpResult(
            op=op, status="ok", node=node, rounds=rounds, rebuilt=rebuilt
        )

    def _invalidate(self, delta: TopologyDelta) -> Tuple[GraphStructure, bool]:
        """The patched (or rebuilt) structure for ``delta``; (s, rebuilt?)."""
        if self.rebuild_per_op:
            # Cold baseline: full snapshot + from-scratch build, cache
            # deliberately bypassed so the comparison is honest.
            return GraphStructure(self.topology.snapshot()), True
        if delta.grows:
            # Growth rebuilds every form anyway; route through the shared
            # cache so the (rare) grown structure is reusable.
            return structure_for(self.topology.snapshot()), True
        from ..core.kernels import should_rebuild

        rebuilt = should_rebuild(self._engine.structure, delta)
        return update_structure(self._engine.structure, delta), rebuilt

    def apply(self, op: Op) -> OpResult:
        """Apply one op; always returns an :class:`OpResult` (never raises
        for *rejected* ops — only for service-level failures)."""
        start = self._clock()
        try:
            if op.kind == "READ_NBRS":
                assert op.v is not None
                result = OpResult(
                    op=op, status="ok",
                    neighbors=self.topology.neighbors(op.v),
                )
            elif op.kind == "QUERY_MIS":
                result = OpResult(op=op, status="ok", mis=self.mis())
            else:
                result = self._apply_mutation(op)
        except TopologyError as exc:
            result = OpResult(op=op, status="rejected", error=str(exc))
        latency = self._clock() - start
        result = replace(result, latency_s=latency)
        self._observe(result)
        return result

    def run(self, ops: Iterable[Op]) -> ServeReport:
        """Apply a whole stream; returns the per-op report."""
        report = ServeReport()
        for op in ops:
            report.results.append(self.apply(op))
        return report

    # ------------------------------------------------------------------
    # Observation (pure: outcomes are byte-identical with or without)
    # ------------------------------------------------------------------
    def _observe(self, result: OpResult) -> None:
        registry = self.registry
        if registry is not None:
            registry.counter(
                "serve_ops_total", op=result.op.kind, status=result.status
            ).inc()
            if result.status == "ok":
                registry.histogram(
                    "serve_op_latency_seconds", op=result.op.kind
                ).observe(result.latency_s)
                if result.rounds is not None:
                    registry.histogram(
                        "serve_restabilize_rounds", op=result.op.kind
                    ).observe(float(result.rounds))
                if result.rebuilt:
                    registry.counter("serve_rebuilds_total").inc()
        if self.sink is not None:
            record = result.outcome()
            record["latency_s"] = result.latency_s
            self.sink.emit(record)
