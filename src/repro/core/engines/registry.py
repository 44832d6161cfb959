"""Engine-backend registry: pluggable execution backends, one semantics.

The high-level entry points (:func:`repro.core.runner.compute_mis`, the
CLI) dispatch on an engine *name* rather than on hard-coded ``if``
chains.  A backend is a callable with the uniform signature

    run(graph, policy, variant, seed, max_rounds, arbitrary_start,
        collector=None, channel=None, scheduler=None, round_kernel=None)
        -> outcome with .stabilized / .rounds / .mis

(``collector`` is an optional trailing zero-perturbation observer — see
:func:`repro.obs.collector_for_backend` for the shape each backend
expects; ``channel`` /
``scheduler`` select the stress models of
:mod:`repro.beeping.channels` / :mod:`repro.beeping.schedulers`,
``None`` meaning the byte-identical perfect/synchronous defaults;
``round_kernel`` optionally opts into the fused-round tier for backends
that support it, ``None`` meaning the per-step loop; the contract
checker only pins the six leading parameters.)

Built-in backends:

* ``"vectorized"`` — the numpy/scipy solo engines (default, fast).
* ``"reference"``  — the semantics-defining object-per-node engine.
* ``"batched"``    — :class:`~repro.core.engines.batched.BatchedEngine`
  with one replica (useful to exercise the batched code path end to
  end; its seed stream differs from ``"vectorized"`` because the seed
  is spawned through a ``SeedSequence`` child).

Future backends (sharded, GPU, remote) register themselves with
:func:`register_engine` and instantly become available to ``compute_mis``
and every CLI ``--engine`` flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Mapping, Optional, Tuple

if TYPE_CHECKING:
    from ...devtools.seeding import SeedLike
    from ...graphs.graph import Graph
    from ..knowledge import EllMaxPolicy

__all__ = [
    "EngineBackend",
    "register_engine",
    "unregister_engine",
    "get_engine",
    "available_engines",
]

#: Uniform backend signature (see module docstring).
BackendRunner = Callable[..., Any]


@dataclass(frozen=True)
class EngineBackend:
    """A named execution backend."""

    name: str
    run: BackendRunner
    description: str = ""
    #: Extra capability flags (e.g. ``{"batched": True}``) for consumers
    #: that want to pick backends by feature rather than by name.
    capabilities: Mapping[str, Any] = field(default_factory=dict)


_REGISTRY: Dict[str, EngineBackend] = {}


def register_engine(
    name: str,
    run: BackendRunner,
    description: str = "",
    capabilities: Optional[Mapping[str, Any]] = None,
    overwrite: bool = False,
) -> EngineBackend:
    """Register a backend under ``name``; returns the registry entry."""
    if not name:
        raise ValueError("engine name must be non-empty")
    if name in _REGISTRY and not overwrite:
        raise ValueError(f"engine {name!r} is already registered")
    backend = EngineBackend(
        name=name,
        run=run,
        description=description,
        capabilities=dict(capabilities or {}),
    )
    _REGISTRY[name] = backend
    return backend


def unregister_engine(name: str) -> None:
    """Remove a backend (mainly for tests of the registry itself)."""
    _REGISTRY.pop(name, None)


def get_engine(name: str) -> EngineBackend:
    """Look up a backend; raises ``ValueError`` naming the alternatives."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; available: {', '.join(sorted(_REGISTRY))}"
        ) from None


def available_engines() -> Tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


# ----------------------------------------------------------------------
# Built-in backends
# ----------------------------------------------------------------------
def _run_vectorized(
    graph: "Graph",
    policy: "EllMaxPolicy",
    variant: str,
    seed: "SeedLike",
    max_rounds: int,
    arbitrary_start: bool,
    collector: Any = None,
    channel: Any = None,
    scheduler: Any = None,
    round_kernel: Optional[str] = None,
) -> Any:
    from .single import simulate_single
    from .two_channel import simulate_two_channel

    simulate = simulate_two_channel if variant == "two_channel" else simulate_single
    return simulate(
        graph,
        policy,
        seed=seed,
        max_rounds=max_rounds,
        arbitrary_start=arbitrary_start,
        collector=collector,
        channel=channel,
        scheduler=scheduler,
        round_kernel=round_kernel,
    )


def _run_reference(
    graph: "Graph",
    policy: "EllMaxPolicy",
    variant: str,
    seed: "SeedLike",
    max_rounds: int,
    arbitrary_start: bool,
    collector: Any = None,
    channel: Any = None,
    scheduler: Any = None,
    round_kernel: Optional[str] = None,
) -> Any:
    if round_kernel is not None:
        raise ValueError("the reference engine has no round-kernel choice")
    if channel is not None and channel != "perfect":
        raise ValueError("the reference engine has no channel-model choice")
    if scheduler is not None and scheduler != "synchronous":
        raise ValueError("the reference engine has no scheduler choice")
    # Imported lazily: the reference engine lives outside repro.core and
    # pulling it in here at import time would cycle through repro.beeping.
    from ...beeping.faults import random_states
    from ...beeping.network import BeepingNetwork
    from ...beeping.simulator import run_until_stable
    from ...devtools.seeding import resolve_rng
    from ..algorithm_single import SelfStabilizingMIS
    from ..algorithm_two_channel import TwoChannelMIS

    algorithm = TwoChannelMIS() if variant == "two_channel" else SelfStabilizingMIS()
    knowledge = policy.knowledge(graph)
    rng = resolve_rng(seed)
    initial = random_states(algorithm, knowledge, rng) if arbitrary_start else None
    network = BeepingNetwork(
        graph, algorithm, knowledge, seed=rng, initial_states=initial
    )
    return run_until_stable(network, max_rounds=max_rounds, collector=collector)


def _run_batched(
    graph: "Graph",
    policy: "EllMaxPolicy",
    variant: str,
    seed: "SeedLike",
    max_rounds: int,
    arbitrary_start: bool,
    collector: Any = None,
    channel: Any = None,
    scheduler: Any = None,
    round_kernel: Optional[str] = None,
) -> Any:
    from .batched import simulate_batched

    algorithm = "two_channel" if variant == "two_channel" else "single"
    outcome = simulate_batched(
        graph,
        policy,
        replicas=1,
        seed=seed,
        algorithm=algorithm,
        max_rounds=max_rounds,
        arbitrary_start=arbitrary_start,
        collector=collector,
        channel=channel,
        scheduler=scheduler,
        round_kernel=round_kernel,
    )
    return outcome[0]


register_engine(
    "vectorized",
    _run_vectorized,
    description="numpy/scipy solo engines (fast, default)",
    capabilities={"observability": "solo"},
)
register_engine(
    "reference",
    _run_reference,
    description="object-per-node semantics-defining engine (slow, exact)",
    capabilities={"observability": "solo"},
)
register_engine(
    "batched",
    _run_batched,
    description="multi-replica (R, n) engine; one sparse matmul per round",
    capabilities={"batched": True, "observability": "batched"},
)
