"""Tests for topology churn (graph-change self-stabilization)."""

import numpy as np
import pytest

from repro.core.churn import carry_levels, restabilize_after_churn, rewire_edges
from repro.core.knowledge import max_degree_policy, uniform_policy
from repro.core.engines import simulate_single
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.graphs.mis import check_mis


@pytest.fixture
def base_graph():
    return gen.erdos_renyi_mean_degree(80, 6.0, seed=21)


class TestRewireEdges:
    def test_edge_count_preserved(self, base_graph):
        event = rewire_edges(base_graph, 0.3, seed=1)
        assert event.graph.num_edges == base_graph.num_edges
        assert len(event.removed) == len(event.added)
        assert event.churned_edges > 0

    def test_fraction_zero_is_identity(self, base_graph):
        event = rewire_edges(base_graph, 0.0, seed=2)
        assert event.graph == base_graph
        assert event.churned_edges == 0

    def test_fraction_validated(self, base_graph):
        with pytest.raises(ValueError):
            rewire_edges(base_graph, 1.5)

    def test_removed_edges_gone_added_present(self, base_graph):
        event = rewire_edges(base_graph, 0.2, seed=3)
        for u, v in event.removed:
            if (u, v) not in event.added:
                assert not event.graph.has_edge(u, v)
        for u, v in event.added:
            assert event.graph.has_edge(u, v)

    def test_degree_cap_respected(self, base_graph):
        cap = base_graph.max_degree()
        for seed in range(5):
            event = rewire_edges(base_graph, 0.5, seed=seed, max_degree_cap=cap)
            assert event.graph.max_degree() <= cap

    def test_trivial_graphs(self):
        assert rewire_edges(Graph(1), 0.5, seed=1).churned_edges == 0
        assert rewire_edges(Graph(5), 0.5, seed=1).churned_edges == 0


class TestCarryLevels:
    def test_identity_when_in_range(self, base_graph):
        policy = uniform_policy(base_graph, 5)
        levels = np.array([5, -5, 0, 2] + [1] * 76)
        assert (carry_levels(levels, policy) == levels).all()

    def test_clamps_out_of_range(self):
        policy = uniform_policy(Graph(3), 3)
        assert list(carry_levels(np.array([9, -9, 0]), policy)) == [3, -3, 0]


class TestRestabilization:
    def test_recovers_valid_mis_after_churn(self, base_graph):
        cap = base_graph.max_degree() + 4
        policy = max_degree_policy(base_graph, c1=4, delta_upper=cap)
        first = simulate_single(base_graph, policy, seed=5, arbitrary_start=True)
        assert first.stabilized

        event = rewire_edges(base_graph, 0.25, seed=6, max_degree_cap=cap)
        result = restabilize_after_churn(
            event, policy, first.final_levels, seed=7
        )
        assert result.stabilized
        assert check_mis(event.graph, result.mis) is None

    def test_zero_churn_costs_zero_rounds(self, base_graph):
        policy = max_degree_policy(base_graph, c1=4)
        first = simulate_single(base_graph, policy, seed=8, arbitrary_start=True)
        event = rewire_edges(base_graph, 0.0, seed=9)
        result = restabilize_after_churn(event, policy, first.final_levels, seed=10)
        assert result.stabilized
        assert result.rounds == 0
        assert result.mis == first.mis

    def test_small_churn_cheaper_than_cold_start(self, base_graph):
        """A few rewired edges should re-stabilize much faster than a
        from-scratch run (locality of repair)."""
        cap = base_graph.max_degree() + 4
        policy = max_degree_policy(base_graph, c1=4, delta_upper=cap)
        cold = np.mean(
            [
                simulate_single(
                    base_graph, policy, seed=s, arbitrary_start=True
                ).rounds
                for s in range(5)
            ]
        )
        warm = []
        for s in range(5):
            first = simulate_single(
                base_graph, policy, seed=100 + s, arbitrary_start=True
            )
            event = rewire_edges(base_graph, 0.05, seed=s, max_degree_cap=cap)
            result = restabilize_after_churn(
                event, policy, first.final_levels, seed=200 + s
            )
            assert result.stabilized
            warm.append(result.rounds)
        assert np.mean(warm) < cold

    def test_repeated_churn_epochs(self, base_graph):
        """Ten consecutive churn epochs, levels carried throughout."""
        cap = base_graph.max_degree() + 6
        policy = max_degree_policy(base_graph, c1=4, delta_upper=cap)
        graph = base_graph
        result = simulate_single(graph, policy, seed=11, arbitrary_start=True)
        assert result.stabilized
        for epoch in range(10):
            event = rewire_edges(graph, 0.15, seed=epoch, max_degree_cap=cap)
            graph = event.graph
            result = restabilize_after_churn(
                event, policy, result.final_levels, seed=300 + epoch
            )
            assert result.stabilized, f"epoch {epoch}"
            assert check_mis(graph, result.mis) is None
