"""Shared machinery for every array-program execution engine.

The reference engine (:class:`repro.beeping.network.BeepingNetwork`)
defines the semantics; the engines in this package re-implement the
algorithms as numpy/scipy array programs for benchmark-scale runs.

:class:`EngineBase` centralizes what every engine previously duplicated:
sparse adjacency construction, the ``I_t`` / ``S_t`` masks, the legality
predicate, and level-vector validation.  Subclasses supply the level
range (``level_floor``) and the per-round update (:meth:`step`).

Bit-identical equivalence contract
----------------------------------
All engines draw exactly ``n`` uniforms per round via a single
``rng.random(n)`` call, in node order, and a vertex beeps iff
``u < p(ℓ)`` with the same double-precision ``p`` as the reference
engine.  Hence, for the same seed and initial levels, trajectories are
*identical* across engines — asserted by
``tests/test_engine_equivalence.py`` and ``tests/test_batched_engine.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Tuple, Union

import numpy as np
import numpy.typing as npt

from ...devtools.seeding import SeedLike, derive_seed_sequence, resolve_rng, rng_from_sequence
from ...graphs.graph import Graph
from ..kernels import (
    MAX_EXPONENT,
    BeepTable,
    GraphStructure,
    HearKernel,
    PerRoundDraws,
    get_round_kernel,
    plan_round_kernel,
    structure_for,
)
from ..knowledge import EllMaxPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..kernels import RoundKernel
    from ...beeping.channels import BoundChannel, ChannelLike, ChannelModel
    from ...beeping.schedulers import BoundScheduler, Scheduler, SchedulerLike
    from ...obs.collectors import RunCollector

__all__ = [
    "MAX_EXPONENT",
    "SeedLike",
    "VectorizedResult",
    "EngineBase",
    "StressState",
    "bind_stress_models",
    "plan_run",
    "as_generator",
    "drive",
]

#: One engine step returns either the beep mask (single channel) or a
#: ``(channel1, channel2)`` pair of masks (two channels).
StepOutput = Union[
    npt.NDArray[np.bool_],
    Tuple[npt.NDArray[np.bool_], npt.NDArray[np.bool_]],
]

#: Back-compat alias: the blessed coercion point now lives in
#: :func:`repro.devtools.seeding.resolve_rng`.
as_generator = resolve_rng


class StressState:
    """Bound channel + scheduler state for one trajectory.

    One instance per solo engine (per replica in the batched engine),
    holding the bound models, their derived random streams, and the
    stale-beep carrier arrays behind the scheduler semantics (see
    ``docs/robustness.md``).  ``ideal`` is True iff the channel is
    perfect *and* the scheduler synchronous — engines then run the
    pre-existing step path verbatim, with zero extra draws and zero
    perturbation (the byte-identity contract of the defaults).
    """

    __slots__ = (
        "channel_model",
        "scheduler_model",
        "channel",
        "scheduler",
        "channel_rng",
        "scheduler_rng",
        "ideal",
        "_carriers",
        "_n",
    )

    def __init__(
        self,
        n: int,
        channel_model: "ChannelModel",
        scheduler_model: "Scheduler",
        channel_rng: Optional[np.random.Generator],
        scheduler_rng: Optional[np.random.Generator],
    ):
        self.channel_model = channel_model
        self.scheduler_model = scheduler_model
        self.channel: "BoundChannel" = channel_model.bind()
        self.scheduler: "BoundScheduler" = scheduler_model.bind(n)
        self.channel_rng = channel_rng
        self.scheduler_rng = scheduler_rng
        self.ideal = channel_model.trivial and scheduler_model.trivial
        self._carriers: Dict[int, npt.NDArray[np.bool_]] = {}
        self._n = n

    def begin_round(self) -> None:
        """Reset the channel's per-round counters (once per round)."""
        self.channel.start_round()

    def active_mask(self, round_index: int) -> Optional[npt.NDArray[np.bool_]]:
        """This round's firing mask (``None`` = synchronous, all fire)."""
        return self.scheduler.active_mask(round_index, self.scheduler_rng)

    def transmit(
        self,
        key: int,
        beeps: npt.NDArray[np.bool_],
        active: npt.NDArray[np.bool_],
    ) -> npt.NDArray[np.bool_]:
        """Gate fresh beeps by activity against the stale carrier, in place.

        Delayed vertices keep transmitting the beep of the last round
        they fired (silence before their first firing); ``key``
        distinguishes the two channels of Algorithm 2.  ``beeps`` must
        be a freshly computed mask — it is mutated and becomes the new
        carrier.
        """
        carrier = self._carriers.get(key)
        if carrier is None:
            carrier = np.zeros(beeps.shape, dtype=bool)
            self._carriers[key] = carrier
        np.copyto(beeps, carrier, where=~active)
        np.copyto(carrier, beeps)
        return beeps

    def apply_channel(
        self, heard: npt.NDArray[np.bool_]
    ) -> npt.NDArray[np.bool_]:
        """Perturb a hear mask in place through the bound channel."""
        return self.channel.apply(heard, self.channel_rng)

    def rebind(self, n: int) -> None:
        """Adjust to a topology rebind.

        At fixed ``n`` everything carries over (clock lags, carriers,
        channel counters).  When the vertex-id space changes, the
        scheduler's clock state is re-bound at the new size and the
        carriers reset to silence; the channel (and its lifetime
        counters) persists — it holds no per-vertex state.
        """
        if self.ideal or n == self._n:
            return
        self._n = n
        self.scheduler = self.scheduler_model.bind(n)
        self._carriers = {}


def bind_stress_models(
    n: int,
    channel: "ChannelLike",
    scheduler: "SchedulerLike",
    rng: np.random.Generator,
) -> StressState:
    """Resolve channel/scheduler specs and derive their random streams.

    Seed-tree layout (documented in ``docs/robustness.md``): when either
    model needs randomness, ONE 63-bit ``integers`` draw from the
    engine's main stream (via
    :func:`repro.devtools.seeding.derive_seed_sequence`) seeds a root
    whose two spawned children feed the channel (child 0) and scheduler
    (child 1) streams.  With the default perfect channel and
    synchronous scheduler *nothing* is drawn and the main stream is
    untouched — the byte-identity guarantee of the defaults.

    The per-call derivation is what keeps solo and batched runs
    bit-identical under stress: the batched engine calls this once per
    replica with that replica's generator, mirroring the solo stream
    position exactly.
    """
    from ...beeping.channels import resolve_channel
    from ...beeping.schedulers import resolve_scheduler

    channel_model = resolve_channel(channel)
    scheduler_model = resolve_scheduler(scheduler)
    channel_rng: Optional[np.random.Generator] = None
    scheduler_rng: Optional[np.random.Generator] = None
    if channel_model.needs_rng or scheduler_model.needs_rng:
        root = derive_seed_sequence(rng)
        chan_seq, sched_seq = root.spawn(2)
        if channel_model.needs_rng:
            channel_rng = rng_from_sequence(chan_seq)
        if scheduler_model.needs_rng:
            scheduler_rng = rng_from_sequence(sched_seq)
    return StressState(
        n, channel_model, scheduler_model, channel_rng, scheduler_rng
    )


def plan_run(
    plan: Tuple[Optional[str], Optional[str]],
    stress: List[StressState],
    collector: object,
    record_series: bool = False,
) -> Tuple[Optional[str], Optional[str]]:
    """The round path one run takes: ``(kernel, fallback_reason)``.

    ``plan`` is the engine's :func:`plan_round_kernel` choice.  Its
    kernel runs unless the run is ineligible; then ``kernel`` is
    ``None`` (the step loop) and the reason says why.  Channels and
    schedulers hook the round per step, and collectors and series
    observe every round.
    """
    if plan[0] is None:
        return plan
    if collector is not None:
        return None, "collector"
    if not all(s.channel_model.trivial for s in stress):
        return None, "channel"
    if not all(s.scheduler_model.trivial for s in stress):
        return None, "scheduler"
    if record_series:
        return None, "record_series"
    return plan


@dataclass
class VectorizedResult:
    """Outcome of a vectorized stabilization run.

    ``rounds`` counts rounds executed before the first legal
    configuration (start-of-round convention, as in the paper's ``S_t``).
    When ``check_every > 1`` the loop only *observes* legality at that
    cadence, so ``rounds`` is then the first multiple of ``check_every``
    at which the configuration was seen legal — an overestimate of the
    true stabilization round by at most ``check_every − 1``.
    """

    stabilized: bool
    rounds: int
    mis: FrozenSet[int]
    final_levels: npt.NDArray[np.int64]
    #: Optional per-round series (filled when ``record_series=True``):
    #: number of beeps on channel 1 and size of the stable set S_t.
    beep_series: List[int] = field(default_factory=list)
    stable_series: List[int] = field(default_factory=list)
    #: Which round loop ran (a round-kernel name or ``"step"``), and why
    #: a requested or ``auto`` kernel fell back to the step loop
    #: (docs/performance.md, "Eligibility matrix"); ``None`` if it did not.
    round_path: str = "step"
    fallback_reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.stabilized


class EngineBase:
    """Common state and predicates for the level-based array engines.

    Subclasses set :attr:`level_floor` (the lowest legal level value —
    ``-ℓmax`` for Algorithm 1, ``0`` for Algorithm 2) and implement
    :meth:`step`.
    """

    #: "-ell_max" or 0 — resolved per-vertex in :meth:`_floor_vector`.
    uses_negative_levels = True

    def __init__(
        self,
        graph: Graph,
        policy: EllMaxPolicy,
        seed: SeedLike = None,
        channel: "ChannelLike" = None,
        scheduler: "SchedulerLike" = None,
        round_kernel: Optional[str] = None,
    ):
        if policy.num_vertices != graph.num_vertices:
            raise ValueError("policy size does not match graph size")
        self.graph = graph
        self.n = graph.num_vertices
        # All derived adjacency forms come from the shared, content-keyed
        # structure cache; ``adjacency`` stays as the public alias every
        # existing consumer (collectors, tests) reads.  Shared structures
        # are read-only by contract.
        self.structure = structure_for(graph)
        self.adjacency = self.structure.csr
        self.kernel = HearKernel(self.structure)
        self.ell_max: npt.NDArray[np.int64] = np.asarray(
            policy.ell_max, dtype=np.int64
        )
        self.rng = resolve_rng(seed)
        # Channel/scheduler stress models (docs/robustness.md).  With
        # the defaults this binds the perfect channel + synchronous
        # scheduler, draws nothing, and ``step`` takes the pre-existing
        # path verbatim — the byte-identity contract of the defaults.
        self._stress = bind_stress_models(self.n, channel, scheduler, self.rng)
        self.channel: "BoundChannel" = self._stress.channel
        self.channel_model: "ChannelModel" = self._stress.channel_model
        self.scheduler_model: "Scheduler" = self._stress.scheduler_model
        self._ideal = self._stress.ideal
        self.levels: npt.NDArray[np.int64] = np.ones(self.n, dtype=np.int64)
        self.round_index = 0
        self._floor: npt.NDArray[np.int64] = (
            -self.ell_max
            if self.uses_negative_levels
            else np.zeros_like(self.ell_max)
        )
        # Per-round scratch (the hot-path allocation contract,
        # docs/performance.md): the uniform-draw buffer and the float64
        # activation scratch are bound once here and refilled in place
        # every round by the subclass ``step`` implementations.
        self._draws: npt.NDArray[np.float64] = np.empty(
            self.n, dtype=np.float64
        )
        self._pfloat: npt.NDArray[np.float64] = np.empty(
            self.n, dtype=np.float64
        )
        self._p_idx: npt.NDArray[np.intp] = np.empty(self.n, dtype=np.intp)
        self._below: npt.NDArray[np.bool_] = np.empty(self.n, dtype=bool)
        self._p_table = BeepTable(self.ell_max)
        # Optional fused-round tier (docs/performance.md, "Fused round
        # tier"): eligible runs delegate the whole loop to a RoundKernel
        # in :meth:`until_stable`.  The resolved name is pinned here; the
        # first eligible run builds the kernel.
        self._round_plan = plan_round_kernel(round_kernel, 1)
        self._round_kernel: Optional["RoundKernel"] = None

    # ------------------------------------------------------------------
    # Level management
    # ------------------------------------------------------------------
    def _floor_vector(self) -> npt.NDArray[np.int64]:
        """Per-vertex lowest admissible level (cached; treat as read-only)."""
        return self._floor

    def set_levels(self, levels: npt.ArrayLike) -> None:
        """Install a level vector (values are validated, not clamped)."""
        levels = np.asarray(levels, dtype=np.int64)
        if levels.shape != (self.n,):
            raise ValueError(f"levels must have shape ({self.n},)")
        floor = self._floor_vector()
        if np.any(levels < floor) or np.any(levels > self.ell_max):
            low = "-ℓmax" if self.uses_negative_levels else "0"
            raise ValueError(f"levels outside [{low}, ℓmax]")
        self.levels = levels.copy()

    def randomize_levels(self) -> None:
        """Uniform arbitrary configuration (full RAM corruption)."""
        floor = self._floor_vector()
        span = self.ell_max - floor + 1
        self.levels = (
            self.rng.integers(0, span, size=self.n).astype(np.int64) + floor
        )

    # ------------------------------------------------------------------
    # Topology rebinding (the long-lived-service path)
    # ------------------------------------------------------------------
    def rebind(
        self,
        structure: GraphStructure,
        policy: Optional[EllMaxPolicy] = None,
    ) -> None:
        """Swap in a new (patched) structure, carrying levels across.

        This is the resumable half of the serving loop: after a topology
        delta, the service patches the derived structure via
        :func:`repro.core.kernels.update_structure`, rebinds the engine,
        and calls :meth:`until_stable` — the engine re-stabilizes *from
        its current levels* instead of restarting, which is exactly the
        self-stabilization property the paper proves.

        ``policy`` is required when the vertex-id space grew (every
        per-vertex array changes size); otherwise the committed policy is
        kept.  Carried levels are preserved verbatim — self-stabilization
        makes any configuration a valid starting point — and vertices new
        to the id space start at level 1, the engines' canonical start.
        """
        if policy is not None:
            if policy.num_vertices != structure.n:
                raise ValueError("policy size does not match structure size")
            self.ell_max = np.asarray(policy.ell_max, dtype=np.int64)
            self._p_table = BeepTable(self.ell_max)
        elif structure.n != self.n:
            raise ValueError(
                "rebind across a vertex-id-space change requires a policy"
            )
        old_n, old_levels = self.n, self.levels
        self.structure = structure
        self.graph = structure.graph
        self.n = structure.n
        self.adjacency = structure.csr
        self.kernel = HearKernel(structure)
        self._round_kernel = None
        self._floor = (
            -self.ell_max
            if self.uses_negative_levels
            else np.zeros_like(self.ell_max)
        )
        if self.n != old_n:
            levels = np.ones(self.n, dtype=np.int64)
            levels[:old_n] = old_levels
            self.levels = levels
            self._draws = np.empty(self.n, dtype=np.float64)
            self._pfloat = np.empty(self.n, dtype=np.float64)
            self._p_idx = np.empty(self.n, dtype=np.intp)
            self._below = np.empty(self.n, dtype=bool)
        # Stress models follow the id space: scheduler clocks/carriers
        # re-bind on growth, the channel (counters included) carries over.
        self._stress.rebind(self.n)
        # A shrunk ℓmax could strand carried levels outside the band;
        # the uniform committed policies of the service never do, but
        # clamp defensively so ``step`` sees admissible state.
        np.clip(self.levels, self._floor, self.ell_max, out=self.levels)

    # ------------------------------------------------------------------
    # One synchronous round — subclass responsibility
    # ------------------------------------------------------------------
    def step(self) -> StepOutput:  # pragma: no cover - interface
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Resumable run-until-legal (the other half of the serving protocol)
    # ------------------------------------------------------------------
    def until_stable(
        self,
        max_rounds: int,
        check_every: int = 1,
        record_series: bool = False,
        collector: Optional["RunCollector"] = None,
    ) -> VectorizedResult:
        """Step from the *current* levels until the configuration is legal.

        ``rounds`` convention: legality is *observed* before stepping, at
        rounds ``0, check_every, 2·check_every, …`` — plus once more when
        the budget runs out.  With ``check_every=1`` (the default
        everywhere) the returned ``rounds`` is the exact number of rounds
        executed by *this call*; with a coarser cadence it may overshoot
        by up to ``check_every − 1`` rounds, trading accuracy for two
        fewer sparse matvecs per skipped round.

        ``record_series`` is independent of the check cadence: the
        per-round ``S_t``/beep series are appended every round regardless
        of ``check_every`` (recording needs ``stable_mask``, one matvec,
        but not the full legality predicate).

        ``collector`` (a :class:`repro.obs.RunCollector`) observes the
        levels before every step and the beeps after; its legality
        verdict — the exact :meth:`is_legal` formula — is *reused* for
        the check so observability never evaluates legality twice.
        Collectors read but never mutate state and draw no randomness, so
        the trajectory with a collector attached is bit-identical to the
        bare run.

        Unlike the historical one-shot drivers this never resets state:
        calling it again after a :meth:`rebind` (or any external level
        perturbation) continues the same engine, which is what lets a
        service carry levels across topology events.
        """
        if check_every < 1:
            raise ValueError("check_every must be >= 1")
        kernel, reason = plan_run(
            self._round_plan, [self._stress], collector, record_series
        )
        if kernel is not None:
            return self._run_fused(kernel, max_rounds, check_every)
        if collector is not None:
            collector.view.adopt_engine(self)
        beep_series: List[int] = []
        stable_series: List[int] = []
        executed = 0
        while True:
            should_check = executed % check_every == 0 or executed >= max_rounds
            if collector is not None:
                legal = collector.observe_structure(self.levels)
            else:
                legal = self.is_legal() if should_check else False
            if should_check and legal:
                result = VectorizedResult(
                    stabilized=True,
                    rounds=executed,
                    mis=self.mis_vertices(),
                    final_levels=self.levels.copy(),
                    beep_series=beep_series,
                    stable_series=stable_series,
                )
                break
            if executed >= max_rounds:
                result = VectorizedResult(
                    stabilized=False,
                    rounds=executed,
                    mis=frozenset(),
                    final_levels=self.levels.copy(),
                    beep_series=beep_series,
                    stable_series=stable_series,
                )
                break
            if record_series:
                stable_series.append(int(self.stable_mask().sum()))
            out = self.step()
            if record_series:
                first = out[0] if isinstance(out, tuple) else out
                beep_series.append(int(first.sum()))
            if collector is not None:
                collector.observe_beeps(out)
            executed += 1
        if collector is not None:
            collector.finalize(result.stabilized, result.rounds)
        result.fallback_reason = reason
        return result

    def _run_fused(  # repro: cold
        self, kernel: str, max_rounds: int, check_every: int
    ) -> VectorizedResult:
        """Delegate the run loop to the bound fused round kernel.

        Cold by annotation: this body runs once per *run* (the per-round
        loop lives in the kernel, which the analyzer roots separately),
        so its int64↔int32 boundary casts are one-time work.

        Eligibility is decided by the caller (:meth:`until_stable`), and
        the kernel is built here on the first eligible run.  The kernel
        consumes uniforms through the engine's own generator via
        :class:`repro.core.kernels.PerRoundDraws`, so the stream position
        after the run matches the step loop exactly (fault-recovery
        resumes mid-stream) and outcomes are byte-identical.
        """
        if self._round_kernel is None:
            algorithm = "single" if self.uses_negative_levels else "two_channel"
            self._round_kernel = get_round_kernel(
                kernel, self.structure, algorithm=algorithm, ell_max=self.ell_max,
            )
        levels32 = self.levels.astype(np.int32).reshape(1, self.n)
        draws = PerRoundDraws([self.rng], self.n)
        outcomes, executed = self._round_kernel.run_block(
            levels32, draws, max_rounds, check_every
        )
        draws.finish()
        self.round_index += executed
        outcome = outcomes[0]
        final = outcome.final_levels.astype(np.int64)
        self.levels = final.copy()
        return VectorizedResult(
            stabilized=outcome.stabilized,
            rounds=outcome.rounds,
            mis=outcome.mis,
            final_levels=final,
            round_path=self._round_kernel.name,
        )

    # ------------------------------------------------------------------
    # Stability structure (paper Section 3), shared by both algorithms:
    # the MIS candidates sit at the level floor and are blocked by no
    # neighbor below ℓmax.
    # ------------------------------------------------------------------
    def mis_mask(self) -> npt.NDArray[np.bool_]:
        """Boolean mask of ``I_t`` (paper Section 3), vectorized.

        ``blocked == 0`` (no neighbor below ℓmax) is exactly "did not
        hear the below-ℓmax mask" — a hear-kernel call, not a count.
        """
        blocked = self.kernel.hear(self.levels != self.ell_max)
        return (self.levels == self._floor) & ~blocked

    def stable_mask(self) -> npt.NDArray[np.bool_]:
        """Boolean mask of ``S_t = I_t ∪ N(I_t)``."""
        in_mis = self.mis_mask()
        dominated = self.kernel.hear(in_mis)
        return in_mis | dominated

    def is_legal(self) -> bool:
        """Legal iff S_t covers all vertices and the rest sit at ℓmax.

        Prune: a legal configuration puts every vertex at its floor (MIS
        members) or at ℓmax (dominated vertices) — a necessary condition
        costing one comparison pass.  While any level sits strictly
        between the two (every converging round), the kernel calls are
        skipped entirely; when it holds, the full predicate decides.
        """
        levels = self.levels
        if not bool(np.all((levels == self._floor) | (levels == self.ell_max))):
            return False
        in_mis = self.mis_mask()
        dominated = self.kernel.hear(in_mis)
        others_ok = (levels == self.ell_max) & dominated
        return bool(np.all(in_mis | others_ok))

    def mis_vertices(self) -> FrozenSet[int]:
        return frozenset(int(v) for v in np.nonzero(self.mis_mask())[0])


def drive(
    engine: EngineBase,
    max_rounds: int,
    check_every: int,
    record_series: bool,
    collector: Optional["RunCollector"] = None,
) -> VectorizedResult:
    """Back-compat wrapper over :meth:`EngineBase.until_stable`.

    Historical entry point of the one-shot simulate drivers; the loop now
    lives on the engine itself so services can resume it after a
    :meth:`EngineBase.rebind`.  Semantics are unchanged.
    """
    return engine.until_stable(
        max_rounds,
        check_every=check_every,
        record_series=record_series,
        collector=collector,
    )
