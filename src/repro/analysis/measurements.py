"""Picklable, batch-capable measurement objects for :func:`run_sweep`.

The sweep executors (``process``, ``batched``) need measurements that

* are **picklable** — instances of module-level classes, no closures —
  so they can cross a ``ProcessPoolExecutor`` boundary, and
* optionally expose ``measure_batch(config, seed_sequences)`` so whole
  repetition blocks run on the multi-replica
  :class:`~repro.core.engines.batched.BatchedEngine`.

Batch/serial contract: ``measure_batch(config, children)`` must equal
``[measure(config, np.random.default_rng(c)) for c in children]``
element-for-element.  For :class:`StabilizationRounds` this follows from
the engine-level bit-identity contract and is asserted by
``tests/test_sweep_executors.py``.

Config keys understood by the measurements here:

``family``
    Graph family name (``repro.graphs.generators.by_name``).
``n``
    Problem size.
``graph_seed`` (optional)
    Generator seed for the topology; defaults to ``n`` so each size is
    a fixed, reproducible graph.
``c1`` (optional)
    Per-config override of the ℓmax constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Any, List, Mapping, Optional, Sequence

import numpy as np

from ..core.engines.batched import simulate_batched
from ..core.engines.single import simulate_single
from ..core.engines.two_channel import simulate_two_channel
from ..core.runner import policy_for_variant
from ..graphs.generators import by_name

if TYPE_CHECKING:
    from ..core.engines.base import EngineBase, VectorizedResult
    from ..core.knowledge import EllMaxPolicy
    from ..graphs.graph import Graph
    from ..obs.harness import SweepRecorder

__all__ = ["StabilizationRounds", "FaultRecoveryRounds", "graph_for_config"]


@lru_cache(maxsize=128)
def _cached_graph(family: str, n: int, graph_seed: int) -> "Graph":
    return by_name(family, n, seed=graph_seed)


def graph_for_config(config: Mapping[str, Any]) -> "Graph":
    """The fixed topology a sweep configuration denotes (cached)."""
    return _cached_graph(
        config["family"], int(config["n"]), int(config.get("graph_seed", config["n"]))
    )


@dataclass(frozen=True)
class StabilizationRounds:
    """Rounds to the first legal configuration, from an arbitrary start.

    The workhorse measurement behind E1/E2/E3 and the CLI ``sweep``
    command.  Serial calls run the solo vectorized engine; the batch
    path runs all repetitions of a configuration as one
    :class:`BatchedEngine` block (bit-identical per replica).
    """

    variant: str = "max_degree"
    c1: Optional[int] = None
    slack: float = 1.0
    max_rounds: int = 200_000
    arbitrary_start: bool = True
    #: Channel/scheduler stress specs (docs/robustness.md); the defaults
    #: keep trajectories byte-identical to the historical path.  Spec
    #: strings (not model objects) so the measurement stays picklable.
    channel: str = "perfect"
    scheduler: str = "synchronous"
    #: Fused-round tier (docs/performance.md, "Fused round tier").
    #: ``"auto"`` runs ``fused_packed`` on repetition blocks of 16 or
    #: more replicas and the per-step loop otherwise (solo runs, small
    #: blocks, collectors, stress models); ``None`` always keeps the
    #: per-step loop.  Byte-identical either way: a pure performance
    #: knob.
    round_kernel: Optional[str] = "auto"

    # ------------------------------------------------------------------
    def _policy(
        self, config: Mapping[str, Any], graph: "Graph"
    ) -> "EllMaxPolicy":
        c1 = config.get("c1", self.c1)
        return policy_for_variant(graph, self.variant, c1=c1, slack=self.slack)

    def _check(
        self, outcome: "VectorizedResult", config: Mapping[str, Any]
    ) -> float:
        if not outcome.stabilized:
            raise RuntimeError(
                f"run failed to stabilize within {self.max_rounds} rounds: "
                f"{dict(config)}"
            )
        return float(outcome.rounds)

    # ------------------------------------------------------------------
    def __call__(self, config: Mapping[str, Any], rng: np.random.Generator) -> float:
        graph = graph_for_config(config)
        policy = self._policy(config, graph)
        simulate = (
            simulate_two_channel if self.variant == "two_channel" else simulate_single
        )
        outcome = simulate(
            graph,
            policy,
            seed=rng,
            max_rounds=self.max_rounds,
            arbitrary_start=self.arbitrary_start,
            channel=self.channel,
            scheduler=self.scheduler,
            round_kernel=self.round_kernel,
        )
        return self._check(outcome, config)

    def measure_batch(
        self,
        config: Mapping[str, Any],
        seed_sequences: Sequence[np.random.SeedSequence],
    ) -> List[float]:
        graph = graph_for_config(config)
        policy = self._policy(config, graph)
        algorithm = "two_channel" if self.variant == "two_channel" else "single"
        block = simulate_batched(
            graph,
            policy,
            seed_sequences=list(seed_sequences),
            algorithm=algorithm,
            max_rounds=self.max_rounds,
            arbitrary_start=self.arbitrary_start,
            channel=self.channel,
            scheduler=self.scheduler,
            round_kernel=self.round_kernel,
        )
        return [self._check(outcome, config) for outcome in block]

    # ------------------------------------------------------------------
    # Observed variants: identical executions (collectors are pure reads
    # that draw no randomness), with per-round metrics recorded into the
    # given :class:`repro.obs.SweepRecorder`.
    # ------------------------------------------------------------------
    def measure_observed(
        self,
        config: Mapping[str, Any],
        rng: np.random.Generator,
        recorder: "SweepRecorder",
        rep: int = 0,
    ) -> float:
        """One observed sample — same value as ``self(config, rng)``."""
        graph = graph_for_config(config)
        policy = self._policy(config, graph)
        two_channel = self.variant == "two_channel"
        collector = recorder.solo_collector(
            graph,
            policy,
            two_channel=two_channel,
            extra_labels={**dict(config), "rep": rep},
        )
        simulate = simulate_two_channel if two_channel else simulate_single
        outcome = simulate(
            graph,
            policy,
            seed=rng,
            max_rounds=self.max_rounds,
            arbitrary_start=self.arbitrary_start,
            collector=collector,
            channel=self.channel,
            scheduler=self.scheduler,
            round_kernel=self.round_kernel,
        )
        return self._check(outcome, config)

    def measure_batch_observed(
        self,
        config: Mapping[str, Any],
        seed_sequences: Sequence[np.random.SeedSequence],
        recorder: "SweepRecorder",
    ) -> List[float]:
        """Observed repetition block — same values as ``measure_batch``."""
        graph = graph_for_config(config)
        policy = self._policy(config, graph)
        two_channel = self.variant == "two_channel"
        collector = recorder.batched_collector(
            graph,
            policy,
            replicas=len(seed_sequences),
            two_channel=two_channel,
            extra_labels=dict(config),
        )
        block = simulate_batched(
            graph,
            policy,
            seed_sequences=list(seed_sequences),
            algorithm="two_channel" if two_channel else "single",
            max_rounds=self.max_rounds,
            arbitrary_start=self.arbitrary_start,
            collector=collector,
            channel=self.channel,
            scheduler=self.scheduler,
            round_kernel=self.round_kernel,
        )
        return [self._check(outcome, config) for outcome in block]


@dataclass(frozen=True)
class FaultRecoveryRounds:
    """Recovery rounds after a transient fault hits a stabilized system.

    One sample = stabilize from a fresh boot, inject the fault described
    by ``fault`` (a :func:`repro.beeping.faults.fault_from_spec` string),
    then count the fault-free rounds back to legality.

    ``engine="reference"`` reproduces the object-engine path of the CLI
    ``recover`` command exactly; ``engine="vectorized"`` applies the
    equivalent corruption to the level array and re-drives the fast
    engine — far cheaper, same fault semantics.
    """

    variant: str = "max_degree"
    c1: Optional[int] = None
    fault: str = "random"
    engine: str = "reference"
    max_rounds: int = 200_000

    def __call__(self, config: Mapping[str, Any], rng: np.random.Generator) -> float:
        graph = graph_for_config(config)
        c1 = config.get("c1", self.c1)
        policy = policy_for_variant(graph, self.variant, c1=c1)
        if self.engine == "reference":
            return self._reference_sample(graph, policy, rng, config)
        if self.engine == "vectorized":
            return self._vectorized_sample(graph, policy, rng, config)
        raise ValueError(
            f"unknown recovery engine {self.engine!r}; "
            "choose 'reference' or 'vectorized'"
        )

    # ------------------------------------------------------------------
    def _reference_sample(
        self,
        graph: "Graph",
        policy: "EllMaxPolicy",
        rng: np.random.Generator,
        config: Mapping[str, Any],
    ) -> float:
        # Imported lazily to keep analysis importable without the
        # simulator substrate in scope at module load.
        from ..beeping.faults import fault_from_spec
        from ..beeping.network import BeepingNetwork
        from ..beeping.simulator import run_until_stable
        from ..core.algorithm_single import SelfStabilizingMIS
        from ..core.algorithm_two_channel import TwoChannelMIS

        algorithm = (
            TwoChannelMIS() if self.variant == "two_channel" else SelfStabilizingMIS()
        )
        network = BeepingNetwork(graph, algorithm, policy.knowledge(graph), seed=rng)
        first = run_until_stable(network, max_rounds=self.max_rounds)
        if not first.stabilized:
            raise RuntimeError(f"initial stabilization failed: {dict(config)}")
        fault_from_spec(self.fault).apply(network, rng)
        recovery = run_until_stable(network, max_rounds=self.max_rounds)
        if not recovery.stabilized:
            raise RuntimeError(f"recovery failed within budget: {dict(config)}")
        return float(recovery.rounds)

    def _vectorized_sample(
        self,
        graph: "Graph",
        policy: "EllMaxPolicy",
        rng: np.random.Generator,
        config: Mapping[str, Any],
    ) -> float:
        from ..core.engines.base import drive
        from ..core.engines.single import SingleChannelEngine
        from ..core.engines.two_channel import TwoChannelEngine

        engine_cls = (
            TwoChannelEngine if self.variant == "two_channel" else SingleChannelEngine
        )
        engine = engine_cls(graph, policy, seed=rng)
        first = drive(engine, self.max_rounds, 1, False)
        if not first.stabilized:
            raise RuntimeError(f"initial stabilization failed: {dict(config)}")
        self._corrupt_levels(engine)
        recovery = drive(engine, self.max_rounds, 1, False)
        if not recovery.stabilized:
            raise RuntimeError(f"recovery failed within budget: {dict(config)}")
        return float(recovery.rounds)

    def _corrupt_levels(self, engine: "EngineBase") -> None:
        """Level-array equivalents of the reference fault injectors."""
        spec = self.fault
        if spec == "random":
            engine.randomize_levels()
            return
        if spec.startswith("bernoulli:"):
            rho = float(spec.split(":", 1)[1])
            hits = engine.rng.random(engine.n) < rho
            floor = engine._floor_vector()
            span = engine.ell_max - floor + 1
            fresh = engine.rng.integers(0, span, size=engine.n).astype(np.int64) + floor
            engine.levels = np.where(hits, fresh, engine.levels)
            return
        if spec == "all_silent":
            engine.levels = engine.ell_max.copy()
            return
        if spec == "all_prominent":
            engine.levels = engine._floor_vector().copy()
            return
        if spec == "threshold":
            engine.levels = engine.ell_max - 1
            return
        raise ValueError(f"unknown fault spec {spec!r}")
