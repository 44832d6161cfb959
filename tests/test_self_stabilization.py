"""Integration tests of the self-stabilization claims themselves.

These are the executable form of the paper's headline statements:
convergence from arbitrary configurations, closure of legality, and
recovery after mid-run transient faults — across graph families, both
algorithms, and all three knowledge variants.
"""

import numpy as np
import pytest

from repro.core.knowledge import (
    max_degree_policy,
    neighborhood_degree_policy,
    own_degree_policy,
)
from repro.core.engines import (
    SingleChannelEngine,
        simulate_single,
    simulate_two_channel,
)
from repro.graphs import generators as gen
from repro.graphs.mis import check_mis

from conftest import small_graph_zoo


class TestConvergenceFromArbitraryStates:
    @pytest.mark.parametrize("name,graph", small_graph_zoo())
    @pytest.mark.parametrize(
        "policy_builder",
        [max_degree_policy, own_degree_policy],
        ids=["thm21", "thm22"],
    )
    def test_single_channel_all_families(self, name, graph, policy_builder):
        policy = policy_builder(graph, c1=4)
        for seed in range(3):
            result = simulate_single(
                graph, policy, seed=seed, arbitrary_start=True, max_rounds=20_000
            )
            assert result.stabilized, (name, seed)
            assert check_mis(graph, result.mis) is None, (name, seed)

    @pytest.mark.parametrize("name,graph", small_graph_zoo())
    def test_two_channel_all_families(self, name, graph):
        policy = neighborhood_degree_policy(graph, c1=4)
        for seed in range(3):
            result = simulate_two_channel(
                graph, policy, seed=seed, arbitrary_start=True, max_rounds=20_000
            )
            assert result.stabilized, (name, seed)
            assert check_mis(graph, result.mis) is None, (name, seed)


class TestWorstCaseInitialConfigurations:
    """Adversarial starting points, not just uniform random ones."""

    @pytest.fixture
    def graph(self):
        return gen.random_regular(60, 4, seed=1)

    def test_all_at_ell_max(self, graph):
        """Everyone silent ('a neighbor is in the MIS' everywhere)."""
        policy = max_degree_policy(graph, c1=4)
        engine = SingleChannelEngine(graph, policy, seed=2)
        engine.set_levels(np.asarray(policy.ell_max))
        result = simulate_single(
            graph, policy, seed=2, initial_levels=np.asarray(policy.ell_max),
            max_rounds=20_000,
        )
        assert result.stabilized
        assert check_mis(graph, result.mis) is None

    def test_all_prominent_fake_mis(self, graph):
        """Everyone believes it just joined the MIS (maximal conflict)."""
        policy = max_degree_policy(graph, c1=4)
        levels = -np.asarray(policy.ell_max)
        result = simulate_single(
            graph, policy, seed=3, initial_levels=levels, max_rounds=20_000
        )
        assert result.stabilized
        assert check_mis(graph, result.mis) is None

    def test_alternating_extremes(self, graph):
        policy = max_degree_policy(graph, c1=4)
        ell = np.asarray(policy.ell_max)
        levels = np.where(np.arange(graph.num_vertices) % 2 == 0, ell, -ell)
        result = simulate_single(
            graph, policy, seed=4, initial_levels=levels, max_rounds=20_000
        )
        assert result.stabilized

    def test_two_channel_all_zero(self, graph):
        """Every vertex claims MIS membership on channel 2."""
        policy = neighborhood_degree_policy(graph, c1=4)
        levels = np.zeros(graph.num_vertices, dtype=np.int64)
        result = simulate_two_channel(
            graph, policy, seed=5, initial_levels=levels, max_rounds=20_000
        )
        assert result.stabilized
        assert check_mis(graph, result.mis) is None


class TestClosureAndMonotonicity:
    def test_legality_closed_under_dynamics(self, er_graph):
        policy = max_degree_policy(er_graph, c1=4)
        result = simulate_single(er_graph, policy, seed=6, max_rounds=20_000)
        assert result.stabilized
        engine = SingleChannelEngine(er_graph, policy, seed=99)
        engine.set_levels(result.final_levels)
        mis_before = engine.mis_vertices()
        for _ in range(100):
            engine.step()
            assert engine.is_legal()
        assert engine.mis_vertices() == mis_before

    def test_stable_set_monotone_nondecreasing(self, er_graph):
        """S_t ⊆ S_{t+1} (paper, Section 3) — checked as set inclusion,
        not just cardinality."""
        policy = max_degree_policy(er_graph, c1=4)
        engine = SingleChannelEngine(er_graph, policy, seed=7)
        engine.randomize_levels()
        previous = engine.stable_mask().copy()
        for _ in range(300):
            engine.step()
            current = engine.stable_mask()
            assert bool(np.all(current[previous])), "a stable vertex destabilized"
            previous = current.copy()
            if engine.is_legal():
                break
        assert engine.is_legal()

    def test_mis_set_monotone_nondecreasing(self, er_graph):
        """I_t ⊆ I_{t+1}: confirmed members never leave."""
        policy = max_degree_policy(er_graph, c1=4)
        engine = SingleChannelEngine(er_graph, policy, seed=8)
        engine.randomize_levels()
        previous = engine.mis_mask().copy()
        for _ in range(300):
            engine.step()
            current = engine.mis_mask()
            assert bool(np.all(current[previous]))
            previous = current.copy()
            if engine.is_legal():
                break


class TestMidRunFaultRecovery:
    def test_recovery_time_comparable_to_fresh_run(self):
        """Recovery after full corruption is the same O(log n) process
        as from-scratch stabilization: compare the two distributions
        loosely (recovery within 4x the fresh median)."""
        graph = gen.erdos_renyi_mean_degree(150, 8.0, seed=9)
        policy = max_degree_policy(graph, c1=4)
        fresh = [
            simulate_single(graph, policy, seed=s, arbitrary_start=True).rounds
            for s in range(8)
        ]
        fresh_median = sorted(fresh)[len(fresh) // 2]

        for seed in range(4):
            engine = SingleChannelEngine(graph, policy, seed=100 + seed)
            # Stabilize, corrupt, count recovery rounds.
            while not engine.is_legal():
                engine.step()
            engine.randomize_levels()
            recovery = 0
            while not engine.is_legal():
                engine.step()
                recovery += 1
            assert recovery <= max(4 * fresh_median, 80)


STRESS_CHANNELS_SINGLE = ("lossy:0.1", "noisy:0.03", "unreliable:0.05,0.01")
STRESS_CHANNELS_TWO = ("lossy:0.05", "noisy:0.01", "unreliable:0.02,0.005")
STRESS_SCHEDULERS = ("drift:0.1", "adversarial:staggered,2")


class TestStabilizationUnderStress:
    """The headline theorem under unreliable channels and asynchrony.

    Noise grids sit below the empirically-recoverable thresholds
    (docs/robustness.md): Algorithm 2's spurious beep2 hears make it
    far more fragile than Algorithm 1, so its grid is gentler.
    Legality stays a *structural* MIS predicate — noise only touches
    in-round hears — so a stabilized result is a true MIS.
    """

    @pytest.mark.parametrize("channel", STRESS_CHANNELS_SINGLE)
    @pytest.mark.parametrize("scheduler", STRESS_SCHEDULERS)
    def test_single_channel_from_arbitrary_states(self, er_graph, channel, scheduler):
        policy = max_degree_policy(er_graph, c1=4)
        result = simulate_single(
            er_graph, policy, seed=11, arbitrary_start=True, max_rounds=60_000,
            channel=channel, scheduler=scheduler,
        )
        assert result.stabilized
        assert check_mis(er_graph, result.mis) is None

    @pytest.mark.parametrize("channel", STRESS_CHANNELS_TWO)
    @pytest.mark.parametrize("scheduler", STRESS_SCHEDULERS)
    def test_two_channel_from_arbitrary_states(self, er_graph, channel, scheduler):
        policy = neighborhood_degree_policy(er_graph, c1=4)
        result = simulate_two_channel(
            er_graph, policy, seed=12, arbitrary_start=True, max_rounds=120_000,
            channel=channel, scheduler=scheduler,
        )
        assert result.stabilized
        assert check_mis(er_graph, result.mis) is None

    @pytest.mark.parametrize("scheduler", STRESS_SCHEDULERS)
    def test_constant_state_under_stress(self, er_graph, scheduler):
        from repro.core.engines import ConstantStateEngine

        engine = ConstantStateEngine(
            er_graph, seed=13, channel="unreliable:0.05,0.01", scheduler=scheduler
        )
        engine.randomize()
        for _ in range(60_000):
            if engine.is_legal():
                break
            engine.step()
        assert engine.is_legal()
        assert check_mis(er_graph, engine.mis_vertices()) is None

    @pytest.mark.parametrize("channel", STRESS_CHANNELS_SINGLE)
    def test_batched_replicas_under_stress(self, er_graph, channel):
        from repro.core.engines import BatchedEngine

        policy = max_degree_policy(er_graph, c1=4)
        engine = BatchedEngine(
            er_graph, policy, replicas=3, seed=14,
            channel=channel, scheduler="drift:0.1",
        )
        engine.randomize_levels()
        for result in engine.run(max_rounds=60_000):
            assert result.stabilized
            assert check_mis(er_graph, result.mis) is None

    def test_worst_case_starts_under_stress(self):
        """The adversarial initial configurations of the class above,
        now with a lossy channel and drift on top."""
        graph = gen.random_regular(60, 4, seed=1)
        policy = max_degree_policy(graph, c1=4)
        ell = np.asarray(policy.ell_max)
        starts = {
            "all_silent": ell,
            "fake_mis": -ell,
            "alternating": np.where(np.arange(graph.num_vertices) % 2 == 0, ell, -ell),
        }
        for name, levels in starts.items():
            result = simulate_single(
                graph, policy, seed=15, initial_levels=levels, max_rounds=60_000,
                channel="lossy:0.1", scheduler="drift:0.1",
            )
            assert result.stabilized, name
            assert check_mis(graph, result.mis) is None, name

    def test_stress_recovery_time_is_same_order(self):
        """Mild noise degrades stabilization time by a bounded factor,
        not catastrophically (the degradation claim the robustness
        bench quantifies)."""
        graph = gen.erdos_renyi_mean_degree(120, 8.0, seed=9)
        policy = max_degree_policy(graph, c1=4)
        clean = [
            simulate_single(graph, policy, seed=s, arbitrary_start=True).rounds
            for s in range(6)
        ]
        noisy = [
            simulate_single(
                graph, policy, seed=s, arbitrary_start=True,
                max_rounds=200_000, channel="lossy:0.05",
            ).rounds
            for s in range(6)
        ]
        clean_median = sorted(clean)[3]
        noisy_median = sorted(noisy)[3]
        assert noisy_median <= max(10 * clean_median, 200)
