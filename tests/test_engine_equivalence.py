"""Cross-validation: the vectorized engine must reproduce the reference
engine's trajectories bit-for-bit (same seed, same initial levels).

This is the strongest correctness evidence for the fast engine: every
branch of the update rule, the reception semantics, and the randomness
discipline are all exercised on every round of every graph below.
"""

import numpy as np
import pytest

from repro.beeping.network import BeepingNetwork
from repro.core.algorithm_single import SelfStabilizingMIS
from repro.core.algorithm_two_channel import TwoChannelMIS
from repro.core.knowledge import max_degree_policy, neighborhood_degree_policy, own_degree_policy
from repro.core.engines import SingleChannelEngine, TwoChannelEngine
from repro.graphs import generators as gen

from conftest import small_graph_zoo


ROUNDS = 120


def _arbitrary_single_levels(policy, rng):
    ell = np.asarray(policy.ell_max)
    return rng.integers(-ell, ell + 1)


def _arbitrary_two_channel_levels(policy, rng):
    ell = np.asarray(policy.ell_max)
    return rng.integers(0, ell + 1)


@pytest.mark.parametrize("name,graph", small_graph_zoo())
def test_single_channel_trajectories_identical(name, graph):
    policy = max_degree_policy(graph, c1=4)
    init = _arbitrary_single_levels(policy, np.random.default_rng(100))
    seed = 42

    fast = SingleChannelEngine(graph, policy, seed=seed)
    fast.set_levels(init)
    reference = BeepingNetwork(
        graph,
        SelfStabilizingMIS(),
        policy.knowledge(graph),
        seed=seed,
        initial_states=[int(x) for x in init],
    )
    for round_index in range(ROUNDS):
        fast.step()
        reference.step()
        assert list(fast.levels) == list(reference.states), (
            f"{name}: divergence at round {round_index}"
        )
    # Legality predicates agree too.
    assert fast.is_legal() == reference.is_legal()


@pytest.mark.parametrize("name,graph", small_graph_zoo())
def test_two_channel_trajectories_identical(name, graph):
    policy = neighborhood_degree_policy(graph, c1=4)
    init = _arbitrary_two_channel_levels(policy, np.random.default_rng(7))
    seed = 77

    fast = TwoChannelEngine(graph, policy, seed=seed)
    fast.set_levels(init)
    reference = BeepingNetwork(
        graph,
        TwoChannelMIS(),
        policy.knowledge(graph),
        seed=seed,
        initial_states=[int(x) for x in init],
    )
    for round_index in range(ROUNDS):
        fast.step()
        reference.step()
        assert list(fast.levels) == list(reference.states), (
            f"{name}: divergence at round {round_index}"
        )
    assert fast.is_legal() == reference.is_legal()


def test_heterogeneous_ell_max_trajectories_identical():
    """Own-degree policies give per-vertex ℓmax — the trickiest case."""
    graph = gen.barabasi_albert(40, 2, seed=8)
    policy = own_degree_policy(graph, c1=4)
    init = _arbitrary_single_levels(policy, np.random.default_rng(3))

    fast = SingleChannelEngine(graph, policy, seed=5)
    fast.set_levels(init)
    reference = BeepingNetwork(
        graph,
        SelfStabilizingMIS(),
        policy.knowledge(graph),
        seed=5,
        initial_states=[int(x) for x in init],
    )
    for _ in range(200):
        fast.step()
        reference.step()
    assert list(fast.levels) == list(reference.states)


def test_constant_state_trajectories_identical():
    """The two-state baseline's vectorized engine vs the reference."""
    import numpy as np

    from repro.baselines.constant_state import FewStatesMIS, IN, OUT
    from repro.beeping.algorithm import LocalKnowledge
    from repro.core.engines import ConstantStateEngine

    graph = gen.erdos_renyi_mean_degree(50, 5.0, seed=3)
    seed = 42
    fast = ConstantStateEngine(graph, seed=seed)
    init = np.random.default_rng(9).integers(0, 2, graph.num_vertices).astype(bool)
    fast.set_membership(init)
    reference = BeepingNetwork(
        graph,
        FewStatesMIS(),
        [LocalKnowledge() for _ in graph.vertices()],
        seed=seed,
        initial_states=[IN if b else OUT for b in init],
    )
    for round_index in range(200):
        fast.step()
        reference.step()
        ref_membership = tuple(s == IN for s in reference.states)
        assert tuple(bool(x) for x in fast.in_mis) == ref_membership, (
            f"divergence at round {round_index}"
        )
    assert fast.is_legal() == reference.is_legal()


@pytest.mark.parametrize("name,graph", small_graph_zoo())
def test_collector_series_identical_across_engines(name, graph):
    """Observability differential: one RunCollector per engine, and the
    per-round metric series (|I_t|, |S_t|, prominent, legality, beeps)
    must be identical between the vectorized and reference engines —
    the observability layer sees bit-identical trajectories too."""
    from repro.beeping.simulator import run_until_stable
    from repro.core.engines.single import simulate_single
    from repro.obs import RunCollector, StructureView

    policy = max_degree_policy(graph, c1=4)
    seed = 13

    fast_collector = RunCollector(StructureView.from_policy(graph, policy))
    fast = simulate_single(
        graph, policy, seed=seed, arbitrary_start=False,
        max_rounds=2000, collector=fast_collector,
    )
    reference = BeepingNetwork(
        graph, SelfStabilizingMIS(), policy.knowledge(graph), seed=seed
    )
    reference_collector = RunCollector(StructureView.from_policy(graph, policy))
    slow = run_until_stable(reference, max_rounds=2000, collector=reference_collector)

    assert fast.stabilized and slow.stabilized
    assert fast.rounds == slow.rounds
    for column in ("i_size", "s_size", "prominent", "legal", "beeps"):
        assert fast_collector.series(column) == reference_collector.series(column), (
            f"{name}: column {column!r}"
        )


def test_mis_sets_agree_after_stabilization():
    graph = gen.erdos_renyi_mean_degree(50, 5.0, seed=6)
    policy = max_degree_policy(graph, c1=4)
    seed = 31

    fast = SingleChannelEngine(graph, policy, seed=seed)
    reference = BeepingNetwork(
        graph, SelfStabilizingMIS(), policy.knowledge(graph), seed=seed
    )
    for _ in range(2000):
        if fast.is_legal():
            break
        fast.step()
        reference.step()
    assert fast.is_legal() and reference.is_legal()
    algorithm = SelfStabilizingMIS()
    reference_mis = algorithm.stable_sets(
        graph, reference.states, reference.knowledge
    ).mis
    assert fast.mis_vertices() == reference_mis
