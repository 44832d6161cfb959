"""Execution engines: array programs behind one beeping-model semantics.

The numpy/scipy re-implementations of the algorithms, one module each:

* :mod:`~repro.core.engines.base` — :class:`EngineBase` (shared
  adjacency/masks/legality), the :func:`drive` run-until-legal loop and
  :class:`VectorizedResult`.
* :mod:`~repro.core.engines.single` / :mod:`~repro.core.engines.two_channel`
  — Algorithms 1 and 2 as solo array programs.
* :mod:`~repro.core.engines.batched` — :class:`BatchedEngine`, R
  replicas as an (R, n) level matrix with bit-identical per-replica
  trajectories.
* :mod:`~repro.core.engines.constant_state` — the two-state baseline.
* :mod:`~repro.core.engines.registry` — named backend registry used by
  ``compute_mis`` and the CLI ``--engine`` flags.
"""

from .base import EngineBase, SeedLike, VectorizedResult, as_generator, drive
from .batched import BatchedEngine, BatchedResult, simulate_batched
from .constant_state import ConstantStateEngine, simulate_constant_state
from .registry import (
    EngineBackend,
    available_engines,
    get_engine,
    register_engine,
    unregister_engine,
)
from .single import SingleChannelEngine, simulate_single
from .two_channel import TwoChannelEngine, simulate_two_channel

__all__ = [
    # base
    "EngineBase",
    "SeedLike",
    "VectorizedResult",
    "as_generator",
    "drive",
    # solo engines
    "SingleChannelEngine",
    "TwoChannelEngine",
    "ConstantStateEngine",
    "simulate_single",
    "simulate_two_channel",
    "simulate_constant_state",
    # batched
    "BatchedEngine",
    "BatchedResult",
    "simulate_batched",
    # registry
    "EngineBackend",
    "register_engine",
    "unregister_engine",
    "get_engine",
    "available_engines",
]
