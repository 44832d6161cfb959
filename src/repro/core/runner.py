"""The high-level public API: compute an MIS on a graph, self-stabilizingly.

:func:`compute_mis` is the one-call entry point a downstream user needs:
pick a knowledge variant (Theorem 2.1 / Theorem 2.2 / Corollary 2.3),
optionally start from an arbitrary (corrupted) configuration, run to
stabilization on the engine of choice, and get back a *certified* MIS —
the result is validated against the ground-truth oracle before being
returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Union

import numpy as np

from ..graphs.graph import Graph
from ..graphs.mis import check_mis
from .engines.registry import get_engine
from .knowledge import (
    EllMaxPolicy,
    max_degree_policy,
    neighborhood_degree_policy,
    own_degree_policy,
)

__all__ = [
    "MISResult",
    "Variant",
    "compute_mis",
    "policy_for_variant",
    "default_round_budget",
]

#: The three knowledge variants of the paper, by theorem.
VARIANTS = ("max_degree", "own_degree", "two_channel")
Variant = str  # one of VARIANTS

#: Empirical head-room multiplier for the round budget; stabilization is
#: concentrated well below this at every scale we benchmarked.
_BUDGET_LOG_FACTOR = 60


@dataclass(frozen=True)
class MISResult:
    """A stabilized, certified MIS computation.

    Attributes
    ----------
    mis:
        The maximal independent set (frozen set of vertex ids).
    rounds:
        Rounds executed until the first legal configuration.
    variant:
        Which knowledge model was used.
    stabilized:
        Always True for results returned by :func:`compute_mis` (it
        raises on budget exhaustion); present for symmetry with the
        lower-level run loops.
    round_path:
        Which round loop ran: a round-kernel name, or ``"step"`` for the
        engine's step loop (the reference engine always reports it).
    """

    mis: frozenset
    rounds: int
    variant: Variant
    stabilized: bool = True
    round_path: str = "step"


def policy_for_variant(
    graph: Graph,
    variant: Variant,
    c1: Optional[int] = None,
    slack: float = 1.0,
) -> EllMaxPolicy:
    """The ``ℓmax`` policy the given theorem variant prescribes.

    ``c1=None`` uses the theorem's constant (15 / 30 / 15).  Smaller
    values are permitted for ablation studies but fall outside the
    proofs' hypotheses.
    """
    if variant == "max_degree":
        kwargs = {} if c1 is None else {"c1": c1}
        return max_degree_policy(graph, slack=slack, **kwargs)
    if variant == "own_degree":
        kwargs = {} if c1 is None else {"c1": c1}
        return own_degree_policy(graph, slack=slack, **kwargs)
    if variant == "two_channel":
        kwargs = {} if c1 is None else {"c1": c1}
        return neighborhood_degree_policy(graph, slack=slack, **kwargs)
    raise ValueError(f"unknown variant {variant!r}; choose one of {VARIANTS}")


def default_round_budget(graph: Graph, policy: EllMaxPolicy) -> int:
    """A safe stabilization budget: ``2·max ℓmax + C·log₂(n+2)`` rounds.

    The theory gives O(ℓmax + log n) w.h.p. (with huge constants); the
    empirical constant is small, and ``C = 60`` leaves an order of
    magnitude of head-room at every benchmarked scale.  Runs that exhaust
    this budget indicate a bug, not bad luck, so :func:`compute_mis`
    raises.
    """
    n = max(graph.num_vertices, 1)
    return 2 * policy.max_ell_max + _BUDGET_LOG_FACTOR * (
        int(math.log2(n + 2)) + 1
    )


def compute_mis(
    graph: Graph,
    variant: Variant = "max_degree",
    seed: Union[int, np.random.Generator, None] = None,
    arbitrary_start: bool = False,
    c1: Optional[int] = None,
    slack: float = 1.0,
    max_rounds: Optional[int] = None,
    engine: str = "vectorized",
    policy: Optional[EllMaxPolicy] = None,
    collector: Optional[object] = None,
    channel: Optional[object] = None,
    scheduler: Optional[object] = None,
    round_kernel: Optional[str] = None,
) -> MISResult:
    """Compute a certified MIS of ``graph`` with the paper's algorithm.

    Parameters
    ----------
    graph:
        The topology.
    variant:
        ``"max_degree"`` (Theorem 2.1, single channel),
        ``"own_degree"`` (Theorem 2.2, single channel), or
        ``"two_channel"`` (Corollary 2.3).
    seed:
        Randomness seed; identical seeds give identical runs.
    arbitrary_start:
        Start from a uniformly random configuration (the
        self-stabilization setting) instead of the fresh boot state.
    c1, slack:
        Policy knobs forwarded to :func:`policy_for_variant`; ignored
        when ``policy`` is given.
    max_rounds:
        Round budget (default :func:`default_round_budget`).
    engine:
        A registered backend name — ``"vectorized"`` (fast, default),
        ``"reference"`` (the semantics-defining object engine),
        ``"batched"``, or any backend added via
        :func:`repro.core.engines.register_engine`.
    policy:
        Explicit :class:`EllMaxPolicy` overriding the variant's default.
    collector:
        Optional zero-perturbation observer for per-round metrics (build
        one with :func:`repro.obs.collector_for_backend` — the expected
        shape differs per backend).  Forwarded to the backend only when
        set, so backends without observability support keep working.
    round_kernel:
        Fused-round tier name (``"auto"``/``"fused_numpy"``/
        ``"fused_packed"``, see
        :mod:`repro.core.kernels`); ``None`` keeps the per-step loop,
        and so does ``"auto"`` on a one-replica run.  Byte-identical on
        eligible configurations and falls back to the step loop
        otherwise — another pure performance knob.  Forwarded only when
        set, as with ``collector``.
    channel, scheduler:
        Stress models — a spec string (``"lossy:0.05"``,
        ``"drift:0.1"``, …) or a model instance from
        :mod:`repro.beeping.channels` / :mod:`repro.beeping.schedulers`.
        ``None`` keeps the byte-identical perfect/synchronous defaults
        and is forwarded only when set, as with ``collector``.  Note
        that under heavy noise the budget-exhaustion ``RuntimeError``
        below becomes reachable — callers probing degradation curves
        should pass an explicit ``max_rounds`` and use the lower-level
        simulate entry points instead.

    Returns
    -------
    MISResult
        With ``mis`` already validated to be a maximal independent set.

    Raises
    ------
    RuntimeError
        If the run did not stabilize within the budget, or (defensively)
        if the stabilized output fails MIS validation — neither should
        happen for correct inputs.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose one of {VARIANTS}")
    if policy is None:
        policy = policy_for_variant(graph, variant, c1=c1, slack=slack)
    if max_rounds is None:
        max_rounds = default_round_budget(graph, policy)

    backend = get_engine(engine)
    extra: Dict[str, object] = {}
    if collector is not None:
        extra["collector"] = collector
    if channel is not None:
        extra["channel"] = channel
    if scheduler is not None:
        extra["scheduler"] = scheduler
    if round_kernel is not None:
        extra["round_kernel"] = round_kernel
    outcome = backend.run(
        graph, policy, variant, seed, max_rounds, arbitrary_start, **extra
    )

    if not outcome.stabilized:
        raise RuntimeError(
            f"did not stabilize within {max_rounds} rounds "
            f"(n={graph.num_vertices}, variant={variant}); "
            "this exceeds the w.h.p. bound by an order of magnitude and "
            "indicates a bug or a pathological policy"
        )
    violation = check_mis(graph, outcome.mis)
    if violation is not None:
        raise RuntimeError(
            f"stabilized configuration is not an MIS: {violation.describe()}"
        )
    return MISResult(
        mis=frozenset(outcome.mis),
        rounds=outcome.rounds,
        variant=variant,
        round_path=getattr(outcome, "round_path", "step"),
    )
