"""Soak tests: long executions under repeated, overlapping faults.

The paper's guarantee is per-fault ("after a transient fault, T
fault-free rounds suffice"); these tests drive the system through long
fault *campaigns* — dozens of corruption events of mixed kinds — and
assert that every fault-free window ends in a legal configuration and
every recovered MIS is valid.  This is the closest the suite gets to a
production burn-in.
"""

import numpy as np

from repro.beeping.faults import (
    AdversarialPattern,
    BernoulliCorruption,
    RandomCorruption,
    TargetedCorruption,
)
from repro.beeping.network import BeepingNetwork
from repro.beeping.simulator import run_until_stable
from repro.core.algorithm_single import SelfStabilizingMIS
from repro.core.algorithm_two_channel import TwoChannelMIS
from repro.core.knowledge import max_degree_policy, neighborhood_degree_policy
from repro.core.engines import SingleChannelEngine
from repro.graphs import generators as gen
from repro.graphs.mis import check_mis


def fault_campaign(rng, n):
    """An endless stream of mixed fault events."""
    kinds = [
        lambda: RandomCorruption(),
        lambda: BernoulliCorruption(float(rng.uniform(0.05, 0.6))),
        lambda: AdversarialPattern.all_silent(),
        lambda: AdversarialPattern.all_prominent(),
        lambda: TargetedCorruption(
            vertices=tuple(
                int(v) for v in rng.choice(n, size=max(1, n // 10), replace=False)
            )
        ),
    ]
    while True:
        yield kinds[int(rng.integers(len(kinds)))]()


class TestSingleChannelSoak:
    def test_thirty_fault_campaign(self):
        graph = gen.erdos_renyi_mean_degree(100, 7.0, seed=11)
        policy = max_degree_policy(graph, c1=4)
        rng = np.random.default_rng(42)
        network = BeepingNetwork(
            graph, SelfStabilizingMIS(), policy.knowledge(graph), seed=rng
        )
        faults = fault_campaign(rng, graph.num_vertices)
        recoveries = []
        for event in range(30):
            next(faults).apply(network, rng)
            result = run_until_stable(network, max_rounds=20_000)
            assert result.stabilized, f"event {event} did not recover"
            assert check_mis(graph, result.mis) is None
            recoveries.append(result.rounds)
        # Recovery time does not degrade over the campaign: the last
        # third is no slower than 3x the first third on average.
        first = np.mean(recoveries[:10])
        last = np.mean(recoveries[-10:])
        assert last <= 3 * max(first, 5.0)

    def test_faults_mid_convergence(self):
        """Corruption arriving *before* stabilization completes — the
        nastiest timing — must still lead to a legal configuration."""
        graph = gen.random_regular(80, 4, seed=12)
        policy = max_degree_policy(graph, c1=4)
        rng = np.random.default_rng(7)
        engine = SingleChannelEngine(graph, policy, seed=rng)
        engine.randomize_levels()
        # Interrupt convergence every 3 rounds, five times.
        for _ in range(5):
            for _ in range(3):
                engine.step()
            engine.randomize_levels()
        # Now leave it alone.
        budget = 20_000
        while not engine.is_legal():
            engine.step()
            budget -= 1
            assert budget > 0
        assert check_mis(graph, engine.mis_vertices()) is None


class TestTwoChannelSoak:
    def test_fifteen_fault_campaign(self):
        graph = gen.barabasi_albert(90, 3, seed=13)
        policy = neighborhood_degree_policy(graph, c1=4)
        algorithm = TwoChannelMIS()
        rng = np.random.default_rng(99)
        network = BeepingNetwork(
            graph, algorithm, policy.knowledge(graph), seed=rng
        )
        for event in range(15):
            if event % 3 == 0:
                network.set_states(
                    [
                        algorithm.random_state(k, rng)
                        for k in network.knowledge
                    ]
                )
            elif event % 3 == 1:
                BernoulliCorruption(0.4).apply(network, rng)
            else:
                # Everyone claims membership on channel 2.
                network.set_states([0] * graph.num_vertices)
            result = run_until_stable(network, max_rounds=20_000)
            assert result.stabilized, f"event {event} did not recover"
            assert check_mis(graph, result.mis) is None
