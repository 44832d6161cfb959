"""Runtime sanitizer mode for ``repro check --sanitize``.

Where the RPR6xx dataflow rules reason about the program *text*, the
sanitizers re-run the tier-1-critical engine and sweep fixtures with the
runtime booby-trapped:

* **numeric traps** — the fixtures execute under
  ``np.errstate(over='raise', invalid='raise')``, so a scalar integer
  overflow or a NaN-producing operation raises instead of wrapping;
* **frozen shared arrays** — every graph-derived array an engine shares
  with collectors (the CSR adjacency triplet, its transpose, the ℓmax
  vector) is flipped to ``writeable=False`` for the duration of the
  run, so any in-place mutation raises ``ValueError`` at the offending
  store (the dynamic twin of RPR621);
* **RNG draw audit** — each solo engine's generator is replayed against
  a twin that performs exactly the draws the bit-identity contract
  documents (one ``integers(0, span, n)`` for an arbitrary start, one
  ``random(n)`` per round); diverging ``bit_generator`` state means an
  engine drew out of order;
* **seed-tree audit** — a serial sweep's samples are recomputed from
  the documented ``root.spawn(configs) → child.spawn(reps)`` tree via
  the blessed :func:`repro.devtools.seeding.rng_from_sequence`;
* **shm leak audit** — the runtime twin of RPR701: after exercising the
  shared-memory export paths, every exported segment must appear
  unlinked in :func:`repro.core.kernels.shm.leaked_segments`, including
  a set abandoned without ``close()`` (the ``weakref.finalize`` guard);
* **pool crash recovery** — worker-crash injection, the runtime twin of
  RPR704: a sweep worker calls ``os._exit`` mid-task and the parent
  must surface :class:`repro.analysis.sweep.SweepWorkerError`, shut the
  pool down, and leak no segment;
* **allocation audit** — the runtime twin of the RPR8xx hot-path rules
  (:mod:`repro.devtools.hotpath.audit`): every engine combo is
  driven to steady state and its net retained bytes/round, measured
  between warmup-fenced ``tracemalloc`` snapshots, must stay under the
  documented per-combo threshold.

The runtime checks run under a :func:`watchdog` that dumps all thread
stacks if they hang, converting a deadlock into a diagnosable failure.

The same traps are available to the whole test suite: running pytest
with ``REPRO_SANITIZE=1`` arms autouse fixtures (see
``tests/conftest.py``) that wrap every test in the errstate guard and
assert the segment audit is clean at session end.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, List, Mapping, Sequence, Set, Tuple

import numpy as np
import numpy.typing as npt

from .seeding import as_seed_sequence, resolve_rng, rng_from_sequence

__all__ = [
    "SanitizerResult",
    "errstate_guard",
    "engine_shared_arrays",
    "frozen_arrays",
    "watchdog",
    "check_engine_numerics",
    "check_rng_draw_discipline",
    "check_batched_seed_tree",
    "check_sweep_seed_tree",
    "check_shm_leak_audit",
    "check_sweep_pool_worker_crash",
    "check_hotpath_allocation_audit",
    "run_sanitizers",
]

#: Root of every fixture's seed tree; replays must reuse it, so the
#: deliberate second coercions below carry RPR602 pragmas.
_AUDIT_SEED = 20240617
_AUDIT_ROUNDS = 48


@dataclass(frozen=True)
class SanitizerResult:
    """Outcome of one sanitizer check."""

    name: str
    ok: bool
    detail: str = ""

    def format(self) -> str:
        status = "ok" if self.ok else "FAIL"
        suffix = f" — {self.detail}" if self.detail else ""
        return f"[{status}] {self.name}{suffix}"


@contextmanager
def errstate_guard() -> Iterator[None]:
    """Make silent numeric corruption loud."""
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        yield


@contextmanager
def watchdog(seconds: float) -> Iterator[None]:
    """Dump every thread's stack to stderr if the block outlives the budget.

    The process is left running (``exit=False``) so the enclosing check
    still reports a failure; the dump is what turns "CI timed out" into
    "stuck in ``Future.result`` under ``_run_cells_process``".
    """
    import faulthandler

    faulthandler.dump_traceback_later(seconds, exit=False)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


def engine_shared_arrays(engine: object) -> List[npt.NDArray[Any]]:
    """The arrays ``engine`` shares with collectors / other replicas.

    Deduplicated by identity: the adjacency is symmetric, so
    ``engine._adj_t`` *is* ``engine.adjacency`` (one cached object), and
    appending an array twice would make :func:`frozen_arrays` restore
    the wrong ``writeable`` flag on exit.
    """
    arrays: List[npt.NDArray[Any]] = []
    seen: Set[int] = set()

    def add(candidate: object) -> None:
        if isinstance(candidate, np.ndarray) and id(candidate) not in seen:
            seen.add(id(candidate))
            arrays.append(candidate)

    for attr in ("adjacency", "_adj_t"):
        matrix = getattr(engine, attr, None)
        if matrix is None:
            continue
        for part in ("data", "indices", "indptr"):
            add(getattr(matrix, part, None))
    structure = getattr(engine, "structure", None)
    if structure is not None:
        # The stored edge array only — reading the lazy properties here
        # would build them as a side effect of the audit.
        add(getattr(structure, "_edge_array", None))
    add(getattr(engine, "ell_max", None))
    return arrays


@contextmanager
def frozen_arrays(arrays: Sequence[npt.NDArray[Any]]) -> Iterator[None]:
    """Temporarily flip ``writeable=False`` on every array."""
    previous: List[Tuple[npt.NDArray[Any], bool]] = []
    try:
        for array in arrays:
            previous.append((array, array.flags.writeable))
            array.flags.writeable = False
        yield
    finally:
        for array, was_writeable in previous:
            array.flags.writeable = was_writeable


def _fixture_graphs() -> List[Tuple[str, Any]]:
    from ..graphs.graph import Graph

    triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
    path4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    star6 = Graph(6, [(0, i) for i in range(1, 6)])
    return [("triangle", triangle), ("path4", path4), ("star6", star6)]


def check_engine_numerics() -> SanitizerResult:
    """Engines + batched sweep fixtures under errstate and frozen arrays."""
    from ..core.engines.base import drive
    from ..core.engines.batched import BatchedEngine
    from ..core.engines.single import SingleChannelEngine
    from ..core.engines.two_channel import TwoChannelEngine
    from ..core.knowledge import max_degree_policy

    try:
        for label, graph in _fixture_graphs():
            policy = max_degree_policy(graph)
            for engine_cls in (SingleChannelEngine, TwoChannelEngine):
                engine = engine_cls(graph, policy, _AUDIT_SEED)
                engine.randomize_levels()
                with errstate_guard(), frozen_arrays(engine_shared_arrays(engine)):
                    drive(engine, 10_000, 1, False)
            batched = BatchedEngine(graph, policy, replicas=3, seed=_AUDIT_SEED)
            batched.randomize_levels()
            with errstate_guard(), frozen_arrays(engine_shared_arrays(batched)):
                for _ in range(_AUDIT_ROUNDS):
                    batched.step()
    except (FloatingPointError, ValueError) as exc:
        return SanitizerResult(
            name="engine-numerics",
            ok=False,
            detail=f"{label}: {type(exc).__name__}: {exc}",
        )
    return SanitizerResult(
        name="engine-numerics",
        ok=True,
        detail="solo+batched fixtures clean under errstate and frozen arrays",
    )


def check_rng_draw_discipline() -> SanitizerResult:
    """Replay the documented draw pattern and compare generator state."""
    from ..core.engines.single import SingleChannelEngine
    from ..core.engines.two_channel import TwoChannelEngine
    from ..core.knowledge import max_degree_policy

    for label, graph in _fixture_graphs():
        policy = max_degree_policy(graph)
        for engine_cls in (SingleChannelEngine, TwoChannelEngine):
            engine = engine_cls(graph, policy, _AUDIT_SEED)
            engine.randomize_levels()
            for _ in range(_AUDIT_ROUNDS):
                engine.step()
            # The audit replays the identical stream on purpose.
            twin = resolve_rng(_AUDIT_SEED)  # repro: allow[RPR602]
            span = engine.ell_max - engine._floor_vector() + 1
            twin.integers(0, span, size=engine.n)
            for _ in range(_AUDIT_ROUNDS):
                twin.random(engine.n)
            if engine.rng.bit_generator.state != twin.bit_generator.state:
                return SanitizerResult(
                    name="rng-draw-audit",
                    ok=False,
                    detail=(
                        f"{engine_cls.__name__} on {label} drew off-contract "
                        "randomness (generator state diverged from the "
                        "documented one-random(n)-per-round pattern)"
                    ),
                )
    return SanitizerResult(
        name="rng-draw-audit",
        ok=True,
        detail="solo engines draw exactly the documented per-round pattern",
    )


def check_batched_seed_tree() -> SanitizerResult:
    """Batched replicas must start from ``SeedSequence(seed).spawn(R)``."""
    from ..core.engines.batched import BatchedEngine
    from ..core.knowledge import max_degree_policy

    _, graph = _fixture_graphs()[0]
    replicas = 4
    engine = BatchedEngine(
        graph, max_degree_policy(graph), replicas=replicas, seed=_AUDIT_SEED
    )
    # Deliberate replay of the replica derivation for comparison.
    children = as_seed_sequence(_AUDIT_SEED).spawn(replicas)  # repro: allow[RPR602]
    for index, child in enumerate(children):
        expected = rng_from_sequence(child)
        if engine.rngs[index].bit_generator.state != expected.bit_generator.state:
            return SanitizerResult(
                name="batched-seed-tree",
                ok=False,
                detail=(
                    f"replica {index} generator does not match "
                    "rng_from_sequence(SeedSequence(seed).spawn(R)[i])"
                ),
            )
    return SanitizerResult(
        name="batched-seed-tree",
        ok=True,
        detail=f"{replicas} replica generators match the documented spawn tree",
    )


def _probe_measure(config: Mapping[str, Any], rng: np.random.Generator) -> float:
    """Module-level (picklable) probe drawing exactly one uniform."""
    return float(rng.random()) + float(config.get("offset", 0))


def check_sweep_seed_tree() -> SanitizerResult:
    """A serial sweep must equal a by-hand walk of the documented tree."""
    from ..analysis.sweep import run_sweep, spawn_sweep_seeds

    configs = [{"offset": 0}, {"offset": 10}, {"offset": 20}]
    repetitions = 4
    result = run_sweep(
        configs,
        _probe_measure,
        repetitions=repetitions,
        master_seed=_AUDIT_SEED,
        executor="serial",
    )
    # Recompute every sample straight from the seed tree.
    seeds = spawn_sweep_seeds(_AUDIT_SEED, len(configs), repetitions)  # repro: allow[RPR602]
    for config_index, cell in enumerate(result.cells):
        expected = tuple(
            _probe_measure(configs[config_index], rng_from_sequence(child))
            for child in seeds[config_index]
        )
        if cell.samples != expected:
            return SanitizerResult(
                name="sweep-seed-tree",
                ok=False,
                detail=(
                    f"config {config_index} samples diverge from the "
                    "root.spawn(configs)→child.spawn(reps) derivation"
                ),
            )
    return SanitizerResult(
        name="sweep-seed-tree",
        ok=True,
        detail=(
            f"{len(configs)}x{repetitions} sweep samples match the "
            "documented seed tree"
        ),
    )


def check_shm_leak_audit() -> SanitizerResult:
    """Every exported segment must be unlinked by end of run.

    Exercises the normal ``close()`` path, a second (idempotent)
    ``close()``, and the ``weakref.finalize`` guard on a set abandoned
    without closing — the runtime twin of RPR701.
    """
    import gc

    from ..core.kernels.shm import export_structures, leaked_segments

    graphs = [graph for _, graph in _fixture_graphs()]
    with watchdog(120.0):
        shared = export_structures(graphs)
        exported = leaked_segments()
        shared.close()
        shared.close()  # idempotent: second close must be a no-op
        after_close = leaked_segments()
        # The finalize guard: abandon a set without ever closing it.
        orphan = export_structures(graphs)  # repro: allow[RPR701]
        orphan_exported = leaked_segments()
        del orphan
        gc.collect()
        after_gc = leaked_segments()
    if not exported:
        return SanitizerResult(
            name="shm-leak-audit",
            ok=False,
            detail="export_structures registered nothing with the audit",
        )
    if after_close:
        return SanitizerResult(
            name="shm-leak-audit",
            ok=False,
            detail=f"segments survived close(): {after_close}",
        )
    if not orphan_exported or after_gc:
        return SanitizerResult(
            name="shm-leak-audit",
            ok=False,
            detail=(
                "the finalize guard left abandoned segments linked: "
                f"{after_gc}"
            ),
        )
    return SanitizerResult(
        name="shm-leak-audit",
        ok=True,
        detail=(
            f"{len(exported)} exported segment(s) unlinked by close() "
            "and by the finalize guard; audit registry empty"
        ),
    )


def _crash_measure(config: Mapping[str, Any], rng: np.random.Generator) -> float:
    """Module-level probe that kills its own worker process mid-task."""
    import os

    if config.get("crash"):
        os._exit(13)
    return float(rng.random())


def check_sweep_pool_worker_crash() -> SanitizerResult:
    """Kill a pool worker mid-sweep; the parent must clean up fully.

    Expects :class:`repro.analysis.sweep.SweepWorkerError` in place of
    the bare ``BrokenProcessPool``, a clean pool shutdown, and no
    segment left in the leak audit — the runtime twin of RPR704.
    """
    from ..analysis.sweep import SweepPool, SweepWorkerError, run_sweep
    from ..core.kernels.shm import leaked_segments

    graphs = [graph for _, graph in _fixture_graphs()]
    failure = ""
    with watchdog(240.0):
        before = set(leaked_segments())
        with SweepPool(2, graphs=graphs) as pool:
            try:
                run_sweep(
                    [{"crash": 1}],
                    _crash_measure,
                    repetitions=2,
                    master_seed=_AUDIT_SEED,
                    executor="process",
                    pool=pool,
                )
            except SweepWorkerError:
                pass  # the expected, named failure
            except Exception as exc:
                failure = (
                    "worker crash surfaced as "
                    f"{type(exc).__name__} instead of SweepWorkerError"
                )
            else:
                failure = "worker crash produced no error at all"
        leaked = [name for name in leaked_segments() if name not in before]
    if failure:
        return SanitizerResult(
            name="pool-crash-recovery", ok=False, detail=failure
        )
    if leaked:
        return SanitizerResult(
            name="pool-crash-recovery",
            ok=False,
            detail=f"segments leaked across the crash: {leaked}",
        )
    return SanitizerResult(
        name="pool-crash-recovery",
        ok=True,
        detail=(
            "worker os._exit surfaced as SweepWorkerError; pool closed "
            "and no segment leaked"
        ),
    )


def check_hotpath_allocation_audit() -> SanitizerResult:
    """Steady-state allocation audit — runtime twin of the RPR8xx rules.

    Drives every engine combo past warmup and asserts the net
    retained bytes/round between two gc-fenced ``tracemalloc`` snapshots
    stays under the documented threshold
    (:data:`repro.devtools.hotpath.audit.DEFAULT_THRESHOLD_BYTES`).
    """
    from .hotpath.audit import run_allocation_audit

    with watchdog(120.0):
        results = run_allocation_audit()
    failures = [r for r in results if not r.ok]
    if failures:
        return SanitizerResult(
            name="hotpath-allocation-audit",
            ok=False,
            detail="; ".join(r.format() for r in failures),
        )
    worst = max(results, key=lambda r: r.bytes_per_round)
    return SanitizerResult(
        name="hotpath-allocation-audit",
        ok=True,
        detail=(
            f"{len(results)} combo(s) at steady state; worst "
            f"{worst.combo} {worst.bytes_per_round:+.1f} B/round "
            f"(threshold {worst.threshold:.0f})"
        ),
    )


def run_sanitizers() -> List[SanitizerResult]:
    """All sanitizer checks, in deterministic order."""
    return [
        check_engine_numerics(),
        check_rng_draw_discipline(),
        check_batched_seed_tree(),
        check_sweep_seed_tree(),
        check_shm_leak_audit(),
        check_sweep_pool_worker_crash(),
        check_hotpath_allocation_audit(),
    ]
