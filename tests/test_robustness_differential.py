"""Differential byte-identity tests for the stress-model wiring.

The tentpole contract (docs/robustness.md): with the default perfect
channel + synchronous scheduler, every engine executes the historical
step **operation for operation** — the stress plumbing must be
invisible, byte for byte, on the default path.  These tests pin that
three ways:

* a hand-rolled oracle of the *pre-change* step loop (plain numpy on
  the raw adjacency, no engine machinery) is compared per round against
  today's engines, across seeds and the historical hear methods;
* the defaults are compared against explicitly-passed
  ``perfect`` / ``synchronous`` specs, across engines and executors;
* under *noise*, solo and batched replicas must still agree bit for
  bit (the per-replica seed-tree mirroring), and attaching a collector
  must not perturb the trajectory.
"""

import numpy as np
import pytest

from repro.analysis.measurements import StabilizationRounds
from repro.analysis.sweep import run_sweep
from repro.core.engines import (
    BatchedEngine,
    ConstantStateEngine,
    SingleChannelEngine,
    TwoChannelEngine,
)
from repro.core.engines.constant_state import simulate_constant_state
from repro.core.engines.base import MAX_EXPONENT
from repro.core.kernels import resolve_kernel_name, structure_for
from repro.core.runner import compute_mis, policy_for_variant
from repro.devtools.seeding import spawn_children
from repro.graphs.generators import by_name
from repro.obs import RunCollector, StructureView

# The engines once took ``kernel=``, and every choice heard the same
# booleans.  The axis now lives on the oracle side: each case hears the
# way that kernel did (``auto`` resolves to the one kernel left), so the
# surviving engine is checked against every historical hear method.
KERNELS = ("auto", "sparse", "dense", "bitset")
ORACLE_ROUNDS = 60


def _graph(n=48, seed=0):
    return by_name("er", n, seed=seed)


def _oracle_hear(graph, kernel):
    csr = structure_for(graph).csr
    if kernel == "auto":
        assert resolve_kernel_name(kernel) == "sparse_int32"
        kernel = "sparse"
    if kernel == "sparse":
        return lambda active: (csr @ active.astype(np.int64)) > 0
    dense = csr.toarray().astype(bool)
    if kernel == "dense":
        return lambda active: (dense & active[None, :]).any(axis=1)
    rows = np.packbits(dense, axis=1)
    return lambda active: (rows & np.packbits(active)).any(axis=1)


# ----------------------------------------------------------------------
# Hand-rolled pre-change oracles (the historical step loops, verbatim)
# ----------------------------------------------------------------------
def _oracle_single(graph, policy, seed, rounds, kernel):
    hear = _oracle_hear(graph, kernel)
    ell_max = np.asarray(policy.ell_max, dtype=np.int64)
    rng = np.random.default_rng(seed)
    floor = -ell_max
    span = ell_max - floor + 1
    levels = rng.integers(0, span, size=graph.num_vertices).astype(np.int64) + floor
    yield levels
    for _ in range(rounds):
        draws = rng.random(graph.num_vertices)
        exponent = np.clip(levels, 0, MAX_EXPONENT).astype(np.float64)
        p = np.power(2.0, -exponent)
        p[levels <= 0] = 1.0
        p[levels >= ell_max] = 0.0
        beeps = draws < p
        heard = hear(beeps)
        up = np.minimum(levels + 1, ell_max)
        down = np.maximum(levels - 1, 1)
        levels = np.where(heard, up, np.where(beeps, -ell_max, down))
        yield levels


def _oracle_two_channel(graph, policy, seed, rounds, kernel):
    hear = _oracle_hear(graph, kernel)
    ell_max = np.asarray(policy.ell_max, dtype=np.int64)
    rng = np.random.default_rng(seed)
    span = ell_max + 1
    levels = rng.integers(0, span, size=graph.num_vertices).astype(np.int64)
    yield levels
    for _ in range(rounds):
        draws = rng.random(graph.num_vertices)
        exponent = np.clip(levels, 0, MAX_EXPONENT).astype(np.float64)
        p1 = np.power(2.0, -exponent)
        active = (levels > 0) & (levels < ell_max)
        beep1 = active & (draws < p1)
        beep2 = levels == 0
        heard1 = hear(beep1)
        heard2 = hear(beep2)
        up = np.minimum(levels + 1, ell_max)
        down = np.maximum(levels - 1, 1)
        levels = np.where(
            heard2,
            ell_max,
            np.where(heard1, up, np.where(beep1, 0, np.where(~beep2, down, levels))),
        )
        yield levels


def _oracle_constant_state(graph, seed, rounds, kernel):
    hear = _oracle_hear(graph, kernel)
    rng = np.random.default_rng(seed)
    in_mis = rng.integers(0, 2, size=graph.num_vertices).astype(bool)
    yield in_mis
    for _ in range(rounds):
        draws = rng.random(graph.num_vertices)
        heard = hear(in_mis)
        coin = draws < 0.5
        retreat = in_mis & heard & coin
        rejoin = ~in_mis & ~heard & coin
        in_mis = (in_mis & ~retreat) | rejoin
        yield in_mis


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("seed", (0, 7))
def test_single_engine_matches_pre_change_oracle(kernel, seed):
    graph = _graph()
    policy = policy_for_variant(graph, "max_degree")
    engine = SingleChannelEngine(graph, policy, seed=seed)
    engine.randomize_levels()
    oracle = _oracle_single(graph, policy, seed, ORACLE_ROUNDS, kernel)
    np.testing.assert_array_equal(engine.levels, next(oracle))
    for expected in oracle:
        engine.step()
        np.testing.assert_array_equal(engine.levels, expected)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("seed", (0, 7))
def test_two_channel_engine_matches_pre_change_oracle(kernel, seed):
    graph = _graph()
    policy = policy_for_variant(graph, "two_channel")
    engine = TwoChannelEngine(graph, policy, seed=seed)
    engine.randomize_levels()
    oracle = _oracle_two_channel(graph, policy, seed, ORACLE_ROUNDS, kernel)
    np.testing.assert_array_equal(engine.levels, next(oracle))
    for expected in oracle:
        engine.step()
        np.testing.assert_array_equal(engine.levels, expected)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("seed", (0, 7))
def test_constant_state_engine_matches_pre_change_oracle(kernel, seed):
    graph = _graph()
    engine = ConstantStateEngine(graph, seed=seed)
    engine.randomize()
    oracle = _oracle_constant_state(graph, seed, ORACLE_ROUNDS, kernel)
    np.testing.assert_array_equal(engine.in_mis, next(oracle))
    for expected in oracle:
        engine.step()
        np.testing.assert_array_equal(engine.in_mis, expected)


# ----------------------------------------------------------------------
# Defaults ≡ explicit perfect + synchronous
# ----------------------------------------------------------------------
@pytest.mark.parametrize("variant", ("max_degree", "own_degree", "two_channel"))
def test_explicit_perfect_synchronous_is_byte_identical(variant):
    graph = _graph()
    default = compute_mis(graph, variant=variant, seed=11, arbitrary_start=True)
    explicit = compute_mis(
        graph, variant=variant, seed=11, arbitrary_start=True,
        channel="perfect", scheduler="synchronous",
    )
    assert default.rounds == explicit.rounds
    assert default.mis == explicit.mis


def test_explicit_perfect_synchronous_batched_matches_default():
    graph = _graph()
    policy = policy_for_variant(graph, "max_degree")
    runs = {}
    for key, extra in (
        ("default", {}),
        ("explicit", {"channel": "perfect", "scheduler": "synchronous"}),
    ):
        engine = BatchedEngine(graph, policy, replicas=3, seed=5, **extra)
        engine.randomize_levels()
        runs[key] = engine.run(max_rounds=50_000)
    assert [r.rounds for r in runs["default"]] == [r.rounds for r in runs["explicit"]]
    for a, b in zip(runs["default"], runs["explicit"]):
        np.testing.assert_array_equal(a.final_levels, b.final_levels)


def test_executor_matrix_identical_samples_on_perfect_defaults():
    configs = [{"family": "er", "n": 32}, {"family": "er", "n": 48}]
    kwargs = dict(repetitions=4, master_seed=3)
    sweeps = {
        "serial-default": run_sweep(
            configs, StabilizationRounds(), executor="serial", **kwargs
        ),
        "serial-explicit": run_sweep(
            configs,
            StabilizationRounds(channel="perfect", scheduler="synchronous"),
            executor="serial", **kwargs,
        ),
        "batched-explicit": run_sweep(
            configs,
            StabilizationRounds(channel="perfect", scheduler="synchronous"),
            executor="batched", **kwargs,
        ),
        "process-explicit": run_sweep(
            configs,
            StabilizationRounds(channel="perfect", scheduler="synchronous"),
            executor="process", jobs=2, **kwargs,
        ),
    }
    reference = sweeps.pop("serial-default")
    for name, sweep in sweeps.items():
        for ref_cell, cell in zip(reference.cells, sweep.cells):
            assert ref_cell.samples == cell.samples, name


def test_executor_matrix_identical_samples_under_stress():
    configs = [{"family": "er", "n": 40}]
    measure = StabilizationRounds(
        channel="unreliable:0.05,0.01", scheduler="drift:0.1"
    )
    kwargs = dict(repetitions=4, master_seed=9)
    serial = run_sweep(configs, measure, executor="serial", **kwargs)
    batched = run_sweep(configs, measure, executor="batched", **kwargs)
    process = run_sweep(configs, measure, executor="process", jobs=2, **kwargs)
    assert serial.cells[0].samples == batched.cells[0].samples
    assert serial.cells[0].samples == process.cells[0].samples


# ----------------------------------------------------------------------
# Solo vs batched bit-identity *under noise*
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", ("single", "two_channel"))
def test_solo_and_batched_replicas_agree_under_stress(algorithm):
    graph = _graph(40)
    variant = "two_channel" if algorithm == "two_channel" else "max_degree"
    policy = policy_for_variant(graph, variant)
    stress = dict(channel="unreliable:0.05,0.01", scheduler="drift:0.1")
    replicas = 3

    batched = BatchedEngine(
        graph, policy, replicas=replicas, seed=21, algorithm=algorithm, **stress
    )
    batched.randomize_levels()
    batch_results = batched.run(max_rounds=50_000)

    engine_cls = TwoChannelEngine if algorithm == "two_channel" else SingleChannelEngine
    for child, batch_result in zip(spawn_children(21, replicas), batch_results):
        solo = engine_cls(
            graph, policy, seed=np.random.default_rng(child), **stress
        )
        solo.randomize_levels()
        solo_result = solo.until_stable(max_rounds=50_000)
        assert solo_result.rounds == batch_result.rounds
        np.testing.assert_array_equal(
            solo_result.final_levels, batch_result.final_levels
        )


# ----------------------------------------------------------------------
# Collector zero-perturbation and channel counters under noise
# ----------------------------------------------------------------------
def test_collector_does_not_perturb_stressed_runs():
    graph = _graph(40)
    policy = policy_for_variant(graph, "max_degree")
    stress = dict(channel="lossy:0.05", scheduler="drift:0.1")

    bare = SingleChannelEngine(graph, policy, seed=4, **stress)
    bare.randomize_levels()
    bare_result = bare.until_stable(max_rounds=50_000)

    observed = SingleChannelEngine(graph, policy, seed=4, **stress)
    observed.randomize_levels()
    collector = RunCollector(StructureView.from_engine(observed))
    observed_result = observed.until_stable(max_rounds=50_000, collector=collector)

    assert bare_result.rounds == observed_result.rounds
    np.testing.assert_array_equal(
        bare_result.final_levels, observed_result.final_levels
    )
    # The records carry the per-round channel counters, and they sum to
    # the channel's lifetime totals (every round was emitted).
    assert all("dropped" in r and "spurious" in r for r in collector.records)
    assert sum(r["dropped"] for r in collector.records) == observed.channel.drops_total
    assert observed.channel.drops_total > 0  # the stress actually bit
    assert sum(r["spurious"] for r in collector.records) == 0  # lossy only drops


# ----------------------------------------------------------------------
# Round-kernel ineligibility → silent step-loop fallback (byte identity)
# ----------------------------------------------------------------------
# The fused-round tier engages only on the perfect channel + synchronous
# scheduler with metrics off (docs/performance.md, eligibility matrix).
# Every other combination must silently run the historical step loop:
# passing ``round_kernel=`` there must not perturb a single byte.
_INELIGIBLE_STRESS = (
    {"channel": "lossy:0.05"},
    {"scheduler": "drift:0.1"},
    {"channel": "unreliable:0.05,0.01", "scheduler": "drift:0.1,3"},
)


@pytest.mark.parametrize("stress", _INELIGIBLE_STRESS)
@pytest.mark.parametrize("variant", ("max_degree", "two_channel"))
def test_round_kernel_silent_fallback_under_stress(variant, stress):
    graph = _graph(40)
    baseline = compute_mis(
        graph, variant=variant, seed=19, arbitrary_start=True, **stress
    )
    fused = compute_mis(
        graph, variant=variant, seed=19, arbitrary_start=True,
        round_kernel="fused_packed", **stress,
    )
    assert fused.rounds == baseline.rounds
    assert fused.mis == baseline.mis


@pytest.mark.parametrize("stress", _INELIGIBLE_STRESS)
def test_round_kernel_silent_fallback_constant_state(stress):
    graph = _graph(40)
    baseline = simulate_constant_state(
        graph, seed=19, arbitrary_start=True, **stress
    )
    fused = simulate_constant_state(
        graph, seed=19, arbitrary_start=True,
        round_kernel="fused_packed", **stress,
    )
    assert fused.rounds == baseline.rounds
    assert fused.mis == baseline.mis
    np.testing.assert_array_equal(fused.final_levels, baseline.final_levels)


@pytest.mark.parametrize("stress", _INELIGIBLE_STRESS)
def test_round_kernel_silent_fallback_batched(stress):
    graph = _graph(40)
    policy = policy_for_variant(graph, "max_degree")
    runs = {}
    for key, extra in (
        ("baseline", {}),
        ("fused", {"round_kernel": "fused_packed"}),
    ):
        engine = BatchedEngine(
            graph, policy, replicas=3, seed=19, **stress, **extra
        )
        engine.randomize_levels()
        runs[key] = engine.run(max_rounds=50_000)
    assert [r.rounds for r in runs["fused"]] == [
        r.rounds for r in runs["baseline"]
    ]
    for fused, baseline in zip(runs["fused"], runs["baseline"]):
        np.testing.assert_array_equal(fused.final_levels, baseline.final_levels)


def test_round_kernel_silent_fallback_with_collector():
    # Metrics attached (a collector) is the third ineligibility axis —
    # even on the perfect defaults the step loop must run so every
    # per-round record is emitted, unperturbed.
    graph = _graph(40)
    policy = policy_for_variant(graph, "max_degree")
    results, collectors = {}, {}
    for key, extra in (
        ("baseline", {}),
        ("fused", {"round_kernel": "fused_packed"}),
    ):
        engine = SingleChannelEngine(graph, policy, seed=6, **extra)
        engine.randomize_levels()
        collector = RunCollector(StructureView.from_engine(engine))
        results[key] = engine.until_stable(
            max_rounds=50_000, collector=collector
        )
        collectors[key] = collector
    assert results["fused"].rounds == results["baseline"].rounds
    np.testing.assert_array_equal(
        results["fused"].final_levels, results["baseline"].final_levels
    )
    assert len(collectors["fused"].records) == len(collectors["baseline"].records)
    assert len(collectors["fused"].records) == results["fused"].rounds


def test_round_kernel_silent_fallback_with_record_series():
    # record_series needs the per-round loop; the fused tier must bow out.
    graph = _graph(40)
    policy = policy_for_variant(graph, "max_degree")
    results = {}
    for key, extra in (
        ("baseline", {}),
        ("fused", {"round_kernel": "fused_packed"}),
    ):
        engine = SingleChannelEngine(graph, policy, seed=6, **extra)
        engine.randomize_levels()
        results[key] = engine.until_stable(max_rounds=50_000, record_series=True)
    assert results["fused"].rounds == results["baseline"].rounds
    assert results["fused"].beep_series == results["baseline"].beep_series
    assert results["fused"].stable_series == results["baseline"].stable_series


def test_perfect_channel_records_keep_historical_shape():
    graph = _graph(32)
    policy = policy_for_variant(graph, "max_degree")
    engine = SingleChannelEngine(graph, policy, seed=2)
    engine.randomize_levels()
    collector = RunCollector(StructureView.from_engine(engine))
    engine.until_stable(max_rounds=50_000, collector=collector)
    assert collector.records
    assert all(
        "dropped" not in r and "spurious" not in r for r in collector.records
    )
