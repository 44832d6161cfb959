"""Fused-round-kernel tier: registry, byte-identity, and fallbacks.

The tier's contract (docs/performance.md, "Fused round tier"): opting
in via ``round_kernel=`` is a pure performance knob — on every eligible
configuration the fused loop reproduces the per-step loop *byte for
byte*, including the position of every RNG stream afterwards, and on
every ineligible configuration the engine runs the historical step loop
and reports why.  These tests pin the registry surface, the identity on
all three algorithms across both backends, the batched draw-cursor
fallback, survival across a topology
``rebind``, and the ``auto`` rule with the recorded round path.
"""

import numpy as np
import pytest

from repro.core.engines.batched import BatchedEngine
from repro.core.engines.constant_state import simulate_constant_state
from repro.core.engines.single import SingleChannelEngine
from repro.core.engines.two_channel import TwoChannelEngine
from repro.core.kernels import (
    BlockDraws,
    available_round_kernels,
    get_round_kernel,
    plan_round_kernel,
    resolve_round_kernel_name,
    structure_for,
)
from repro.core.runner import compute_mis, policy_for_variant
from repro.graphs.generators import by_name

BACKENDS = ("fused_numpy", "fused_packed")


def _graph(n=48, seed=0):
    return by_name("er", n, seed=seed)


# ----------------------------------------------------------------------
# Registry surface
# ----------------------------------------------------------------------
def test_auto_resolves_to_packed():
    assert resolve_round_kernel_name("auto") == "fused_packed"


@pytest.mark.parametrize(
    "alias, canonical",
    [("numpy", "fused_numpy"), ("packed", "fused_packed")],
)
def test_aliases_resolve(alias, canonical):
    assert resolve_round_kernel_name(alias) == canonical
    assert resolve_round_kernel_name(canonical) == canonical


def test_unknown_name_lists_choices():
    with pytest.raises(ValueError, match="auto"):
        resolve_round_kernel_name("fused_simd")


def test_always_available_backends_listed():
    assert available_round_kernels() == ("fused_numpy", "fused_packed")


def test_reference_engine_rejects_round_kernel():
    with pytest.raises(ValueError, match="round-kernel"):
        compute_mis(
            _graph(12), engine="reference", seed=0, round_kernel="fused_packed"
        )


# ----------------------------------------------------------------------
# Byte-identity on eligible configurations (incl. RNG stream position)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "engine_cls, variant",
    [(SingleChannelEngine, "max_degree"), (TwoChannelEngine, "two_channel")],
)
def test_solo_fused_run_is_byte_identical(engine_cls, variant, backend):
    graph = _graph()
    policy = policy_for_variant(graph, variant)
    results = {}
    engines = {}
    for key, extra in (("step", {}), ("fused", {"round_kernel": backend})):
        engine = engine_cls(graph, policy, seed=13, **extra)
        engine.randomize_levels()
        engines[key] = engine
        results[key] = engine.until_stable(max_rounds=50_000)
    assert results["fused"].rounds == results["step"].rounds
    assert results["fused"].mis == results["step"].mis
    assert results["fused"].final_levels.dtype == np.int64
    np.testing.assert_array_equal(
        results["fused"].final_levels, results["step"].final_levels
    )
    np.testing.assert_array_equal(
        engines["fused"].levels, engines["step"].levels
    )
    # Stream-position identity: the fused run consumed exactly the
    # draws the step loop would have, so the generators now agree.
    np.testing.assert_array_equal(
        engines["fused"].rng.random(4), engines["step"].rng.random(4)
    )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("check_every", (1, 7))
def test_solo_fused_honors_check_cadence(backend, check_every):
    graph = _graph(40, seed=3)
    policy = policy_for_variant(graph, "max_degree")
    results = {}
    for key, extra in (("step", {}), ("fused", {"round_kernel": backend})):
        engine = SingleChannelEngine(graph, policy, seed=5, **extra)
        engine.randomize_levels()
        results[key] = engine.until_stable(
            max_rounds=50_000, check_every=check_every
        )
    assert results["fused"].rounds == results["step"].rounds
    assert results["fused"].mis == results["step"].mis


@pytest.mark.parametrize("backend", BACKENDS)
def test_constant_state_fused_run_is_byte_identical(backend):
    graph = _graph()
    step = simulate_constant_state(graph, seed=8, arbitrary_start=True)
    fused = simulate_constant_state(
        graph, seed=8, arbitrary_start=True, round_kernel=backend
    )
    assert fused.rounds == step.rounds
    assert fused.mis == step.mis
    np.testing.assert_array_equal(fused.final_levels, step.final_levels)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("algorithm", ("single", "two_channel"))
def test_batched_fused_run_is_byte_identical(backend, algorithm):
    graph = _graph(40, seed=2)
    variant = "two_channel" if algorithm == "two_channel" else "max_degree"
    policy = policy_for_variant(graph, variant)
    runs = {}
    for key, extra in (("step", {}), ("fused", {"round_kernel": backend})):
        engine = BatchedEngine(
            graph, policy, replicas=5, seed=17, algorithm=algorithm, **extra
        )
        engine.randomize_levels()
        runs[key] = engine.run(max_rounds=50_000)
    assert [r.rounds for r in runs["fused"]] == [r.rounds for r in runs["step"]]
    for fused, step in zip(runs["fused"], runs["step"]):
        assert fused.mis == step.mis
        np.testing.assert_array_equal(fused.final_levels, step.final_levels)


def test_solo_fused_matches_via_compute_mis():
    graph = _graph()
    for variant in ("max_degree", "own_degree", "two_channel"):
        default = compute_mis(graph, variant=variant, seed=23, arbitrary_start=True)
        assert default.round_path == "step"
        for backend in BACKENDS:
            fused = compute_mis(
                graph, variant=variant, seed=23, arbitrary_start=True,
                round_kernel=backend,
            )
            assert fused.round_path == backend
            assert fused.rounds == default.rounds
            assert fused.mis == default.mis


# ----------------------------------------------------------------------
# Batched draw-cursor fallback and topology rebind
# ----------------------------------------------------------------------
def test_batched_misaligned_cursors_fall_back_byte_identically():
    graph = _graph(36, seed=4)
    policy = policy_for_variant(graph, "max_degree")
    engines = {}
    for key, extra in (("step", {}), ("fused", {"round_kernel": "fused_packed"})):
        engine = BatchedEngine(graph, policy, replicas=4, seed=9, **extra)
        engine.randomize_levels()
        # Step replicas 1..3 a few rounds while replica 0 sits out: its
        # pre-draw cursor stops advancing, so the block cursors diverge.
        active = np.array([False, True, True, True])
        active_idx = np.nonzero(active)[0]
        for _ in range(3):
            engine.step(active, active_idx=active_idx)
        engines[key] = engine
    fused = engines["fused"]
    draws = BlockDraws(fused._blocks, fused._cursor, fused._draw_fns)
    assert not draws.aligned()  # the fused precondition really is violated
    runs = {key: engine.run(max_rounds=50_000) for key, engine in engines.items()}
    assert [r.rounds for r in runs["fused"]] == [r.rounds for r in runs["step"]]
    for fused_r, step_r in zip(runs["fused"], runs["step"]):
        np.testing.assert_array_equal(fused_r.final_levels, step_r.final_levels)


def test_solo_fused_survives_rebind():
    graph = _graph(44, seed=6)
    patched = _graph(44, seed=7)
    policy = policy_for_variant(graph, "max_degree")
    results = {}
    for key, extra in (("step", {}), ("fused", {"round_kernel": "fused_packed"})):
        engine = SingleChannelEngine(graph, policy, seed=31, **extra)
        engine.randomize_levels()
        engine.until_stable(max_rounds=50_000)
        engine.rebind(structure_for(patched))
        results[key] = engine.until_stable(max_rounds=50_000)
    assert results["fused"].rounds == results["step"].rounds
    assert results["fused"].mis == results["step"].mis
    np.testing.assert_array_equal(
        results["fused"].final_levels, results["step"].final_levels
    )


# ----------------------------------------------------------------------
# The ``auto`` rule and the recorded round path
# ----------------------------------------------------------------------
def _batched(replicas, round_kernel="auto", **extra):
    graph = _graph(40, seed=2)
    policy = policy_for_variant(graph, "own_degree")
    engine = BatchedEngine(
        graph, policy, replicas=replicas, seed=17,
        round_kernel=round_kernel, **extra,
    )
    engine.randomize_levels()
    return engine


def test_auto_plans_by_replica_count():
    assert plan_round_kernel("auto", 15) == (None, "replicas<16")
    assert plan_round_kernel("auto", 16) == ("fused_packed", None)
    assert plan_round_kernel("fused_numpy", 1) == ("fused_numpy", None)
    assert plan_round_kernel(None, 64) == (None, None)


def test_batched_defaults_to_auto():
    import inspect

    from repro.analysis.measurements import StabilizationRounds
    from repro.core.engines.batched import simulate_batched

    assert StabilizationRounds().round_kernel == "auto"
    for fn in (BatchedEngine, simulate_batched):
        default = inspect.signature(fn).parameters["round_kernel"].default
        assert default == "auto"


@pytest.mark.parametrize("replicas", (1, 4))
def test_auto_runs_the_step_loop_below_sixteen_replicas(replicas):
    engine = _batched(replicas)
    result = engine.run(max_rounds=50_000)
    assert result.round_path == "step"
    assert result.fallback_reason == "replicas<16"
    assert engine._round_kernel is None


@pytest.mark.parametrize("replicas", (16, 64))
def test_auto_runs_fused_packed_from_sixteen_replicas(replicas):
    engine = _batched(replicas)
    result = engine.run(max_rounds=50_000)
    assert result.round_path == "fused_packed"
    assert result.fallback_reason is None
    step = _batched(replicas, round_kernel=None).run(max_rounds=50_000)
    assert step.round_path == "step" and step.fallback_reason is None
    assert [r.rounds for r in result] == [r.rounds for r in step]
    for fused, ref in zip(result, step):
        assert fused.mis == ref.mis
        np.testing.assert_array_equal(fused.final_levels, ref.final_levels)


@pytest.mark.parametrize("algorithm", ("single", "two_channel"))
def test_packed_matches_step_across_word_and_byte_boundaries(algorithm):
    # 77 replicas span two packed words and end mid-byte, and retirement
    # shrinks the live prefix across both boundaries during the run.
    graph = _graph(60, seed=8)
    variant = "two_channel" if algorithm == "two_channel" else "own_degree"
    policy = policy_for_variant(graph, variant)
    runs = {}
    for key in ("step", "fused_packed"):
        engine = BatchedEngine(
            graph, policy, replicas=77, seed=41, algorithm=algorithm,
            round_kernel=None if key == "step" else key,
        )
        engine.randomize_levels()
        runs[key] = engine.run(max_rounds=50_000)
    assert runs["fused_packed"].round_path == "fused_packed"
    assert [r.rounds for r in runs["fused_packed"]] == [r.rounds for r in runs["step"]]
    for fused, step in zip(runs["fused_packed"], runs["step"]):
        assert fused.mis == step.mis
        np.testing.assert_array_equal(fused.final_levels, step.final_levels)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("replicas", (1, 4, 16))
def test_explicit_backends_run_at_any_replica_count(backend, replicas):
    result = _batched(replicas, round_kernel=backend).run(max_rounds=50_000)
    assert result.round_path == backend
    assert result.fallback_reason is None


@pytest.mark.parametrize(
    "extra, reason",
    [
        ({"channel": "lossy:0.05"}, "channel"),
        ({"scheduler": "drift:0.1"}, "scheduler"),
    ],
)
def test_stressed_batched_run_reports_reason_and_builds_no_kernel(
    monkeypatch, extra, reason
):
    import repro.core.engines.batched as batched_mod

    def forbidden(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("round kernel constructed")

    monkeypatch.setattr(batched_mod, "get_round_kernel", forbidden)
    engine = _batched(16, **extra)
    result = engine.run(max_rounds=50_000)
    assert result.round_path == "step"
    assert result.fallback_reason == reason
    assert engine._round_kernel is None


def test_collector_batched_run_reports_reason_and_builds_no_kernel(monkeypatch):
    import repro.core.engines.batched as batched_mod
    from repro.obs import BatchedCollector, StructureView

    def forbidden(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("round kernel constructed")

    monkeypatch.setattr(batched_mod, "get_round_kernel", forbidden)
    engine = _batched(16)
    collector = BatchedCollector(
        StructureView.from_policy(engine.graph, policy_for_variant(engine.graph, "own_degree")),
        replicas=16,
    )
    result = engine.run(max_rounds=50_000, collector=collector)
    assert result.round_path == "step"
    assert result.fallback_reason == "collector"
    assert engine._round_kernel is None


def test_misaligned_cursor_is_reported():
    engine = _batched(16)
    active = np.ones(16, dtype=bool)
    active[0] = False
    engine.step(active)
    result = engine.run(max_rounds=50_000)
    assert result.round_path == "step"
    assert result.fallback_reason == "misaligned_cursor"


def test_solo_runs_report_their_round_path():
    graph = _graph()
    policy = policy_for_variant(graph, "max_degree")

    def run(round_kernel, **kwargs):
        engine = SingleChannelEngine(graph, policy, seed=3, round_kernel=round_kernel)
        engine.randomize_levels()
        return engine, engine.until_stable(max_rounds=50_000, **kwargs)

    engine, auto = run("auto")
    assert (auto.round_path, auto.fallback_reason) == ("step", "replicas<16")
    assert engine._round_kernel is None
    _, plain = run(None)
    assert (plain.round_path, plain.fallback_reason) == ("step", None)
    _, fused = run("fused_packed")
    assert (fused.round_path, fused.fallback_reason) == ("fused_packed", None)
    engine, series = run("fused_packed", record_series=True)
    assert (series.round_path, series.fallback_reason) == ("step", "record_series")
    assert engine._round_kernel is None
