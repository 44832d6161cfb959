"""Unit tests for the vectorized engines."""

import numpy as np
import pytest

from repro.core.knowledge import max_degree_policy, uniform_policy
from repro.core.engines import (
    SingleChannelEngine,
    TwoChannelEngine,
    simulate_single,
    simulate_two_channel,
)
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.graphs.mis import check_mis


class TestSingleChannelEngine:
    def test_initial_levels_are_one(self, er_graph):
        engine = SingleChannelEngine(er_graph, uniform_policy(er_graph, 5))
        assert (engine.levels == 1).all()

    def test_policy_size_validated(self, er_graph, path4):
        with pytest.raises(ValueError):
            SingleChannelEngine(er_graph, uniform_policy(path4, 5))

    def test_set_levels_validated(self, path4):
        engine = SingleChannelEngine(path4, uniform_policy(path4, 3))
        with pytest.raises(ValueError):
            engine.set_levels(np.array([1, 2, 3]))  # wrong shape
        with pytest.raises(ValueError):
            engine.set_levels(np.array([4, 0, 0, 0]))  # out of range
        engine.set_levels(np.array([-3, 3, 0, 1]))
        assert list(engine.levels) == [-3, 3, 0, 1]

    def test_beep_probabilities_match_figure1(self, path4):
        engine = SingleChannelEngine(path4, uniform_policy(path4, 4))
        engine.set_levels(np.array([-4, 0, 2, 4]))
        assert list(engine.beep_probabilities()) == [1.0, 1.0, 0.25, 0.0]

    def test_randomize_levels_in_range(self, er_graph):
        policy = uniform_policy(er_graph, 6)
        engine = SingleChannelEngine(er_graph, policy, seed=0)
        engine.randomize_levels()
        assert (engine.levels >= -6).all() and (engine.levels <= 6).all()
        # With 80 vertices over 13 values, we should see real spread.
        assert len(set(engine.levels.tolist())) > 3

    def test_step_counts_rounds(self, path4):
        engine = SingleChannelEngine(path4, uniform_policy(path4, 3), seed=0)
        engine.step()
        engine.step()
        assert engine.round_index == 2

    def test_masks_on_legal_configuration(self, path4):
        engine = SingleChannelEngine(path4, uniform_policy(path4, 3))
        engine.set_levels(np.array([-3, 3, -3, 3]))
        assert list(engine.mis_mask()) == [True, False, True, False]
        assert engine.stable_mask().all()
        assert engine.is_legal()
        assert engine.mis_vertices() == {0, 2}

    def test_not_legal_when_level_off_by_one(self, path4):
        engine = SingleChannelEngine(path4, uniform_policy(path4, 3))
        engine.set_levels(np.array([-3, 3, -3, 2]))
        assert not engine.is_legal()

    def test_isolated_vertices_handled(self):
        g = Graph(3)  # no edges at all
        result = simulate_single(g, uniform_policy(g, 2), seed=0, max_rounds=100)
        assert result.stabilized
        assert result.mis == {0, 1, 2}


class TestTwoChannelEngine:
    def test_set_levels_validated(self, path4):
        engine = TwoChannelEngine(path4, uniform_policy(path4, 3))
        with pytest.raises(ValueError):
            engine.set_levels(np.array([-1, 0, 0, 0]))
        engine.set_levels(np.array([0, 3, 0, 3]))
        assert engine.is_legal()

    def test_adjacent_zeros_resolve(self):
        g = Graph(2, [(0, 1)])
        engine = TwoChannelEngine(g, uniform_policy(g, 3), seed=0)
        engine.set_levels(np.array([0, 0]))
        engine.step()
        assert list(engine.levels) == [3, 3]

    def test_simulation_reaches_valid_mis(self, er_graph):
        result = simulate_two_channel(
            er_graph, uniform_policy(er_graph, 6), seed=1, max_rounds=5000
        )
        assert result.stabilized
        assert check_mis(er_graph, result.mis) is None


class TestConstantStateEngine:
    def test_membership_shape_validated(self, path4):
        from repro.core.engines import ConstantStateEngine

        engine = ConstantStateEngine(path4)
        with pytest.raises(ValueError):
            engine.set_membership(np.array([True, False]))

    def test_legality_is_mis_predicate(self, path4):
        from repro.core.engines import ConstantStateEngine

        engine = ConstantStateEngine(path4)
        engine.set_membership(np.array([True, False, True, False]))
        assert engine.is_legal()
        engine.set_membership(np.array([True, True, False, False]))
        assert not engine.is_legal()
        engine.set_membership(np.array([True, False, False, False]))
        assert not engine.is_legal()

    def test_legal_configuration_absorbing(self, er_graph):
        from repro.core.engines import ConstantStateEngine
        from repro.graphs.mis import greedy_mis

        engine = ConstantStateEngine(er_graph, seed=1)
        mis = greedy_mis(er_graph)
        engine.set_membership(
            np.array([v in mis for v in er_graph.vertices()])
        )
        before = engine.in_mis.copy()
        for _ in range(40):
            engine.step()
        assert (engine.in_mis == before).all()

    def test_simulation_produces_valid_mis(self):
        from repro.core.engines import simulate_constant_state

        graph = gen.cycle(40)
        result = simulate_constant_state(graph, seed=2, arbitrary_start=True)
        assert result.stabilized
        assert check_mis(graph, result.mis) is None

    def test_budget_exhaustion_reported(self, er_graph):
        from repro.core.engines import simulate_constant_state

        result = simulate_constant_state(er_graph, seed=3, max_rounds=0)
        # Fresh start (all IN) on a graph with edges is not an MIS.
        assert not result.stabilized


class TestDriveLoop:
    def test_max_rounds_zero_reports_current_state(self, path4):
        policy = uniform_policy(path4, 3)
        result = simulate_single(path4, policy, seed=0, max_rounds=0)
        assert not result.stabilized
        assert result.rounds == 0

    def test_already_legal_start_is_zero_rounds(self, path4):
        policy = uniform_policy(path4, 3)
        result = simulate_single(
            path4,
            policy,
            seed=0,
            initial_levels=np.array([-3, 3, -3, 3]),
            max_rounds=100,
        )
        assert result.stabilized
        assert result.rounds == 0
        assert result.mis == {0, 2}

    def test_check_every_overreports_boundedly(self, er_graph):
        policy = max_degree_policy(er_graph, c1=4)
        exact = simulate_single(er_graph, policy, seed=3, max_rounds=10_000)
        sparse = simulate_single(
            er_graph, policy, seed=3, max_rounds=10_000, check_every=8
        )
        assert sparse.stabilized
        assert exact.rounds <= sparse.rounds < exact.rounds + 8
        # Legality is closed, so the MIS is the same.
        assert sparse.mis == exact.mis

    def test_invalid_check_every(self, path4):
        with pytest.raises(ValueError):
            simulate_single(path4, uniform_policy(path4, 3), check_every=0)

    def test_record_series_lengths(self, er_graph):
        policy = max_degree_policy(er_graph, c1=4)
        result = simulate_single(
            er_graph, policy, seed=5, max_rounds=10_000, record_series=True
        )
        assert result.stabilized
        assert len(result.beep_series) == result.rounds
        assert len(result.stable_series) == result.rounds
        # S_t is monotone nondecreasing (paper, Section 3).
        assert result.stable_series == sorted(result.stable_series)

    def test_record_series_independent_of_check_cadence(self, er_graph):
        """Recording must not tighten the legality-check cadence.

        Historically ``record_series=True`` forced a legality check every
        round, silently overriding ``check_every``; now the two knobs are
        orthogonal: same ``rounds`` either way, and the series cover every
        executed round.
        """
        policy = max_degree_policy(er_graph, c1=4)
        plain = simulate_single(
            er_graph, policy, seed=3, max_rounds=10_000, check_every=8
        )
        recorded = simulate_single(
            er_graph, policy, seed=3, max_rounds=10_000, check_every=8,
            record_series=True,
        )
        assert recorded.rounds == plain.rounds
        assert recorded.rounds % 8 == 0
        assert len(recorded.beep_series) == recorded.rounds
        assert len(recorded.stable_series) == recorded.rounds

    def test_seed_determinism(self, er_graph):
        policy = max_degree_policy(er_graph, c1=4)
        a = simulate_single(er_graph, policy, seed=9, arbitrary_start=True)
        b = simulate_single(er_graph, policy, seed=9, arbitrary_start=True)
        assert a.rounds == b.rounds
        assert a.mis == b.mis

    def test_arbitrary_start_stabilizes(self, er_graph):
        policy = max_degree_policy(er_graph, c1=4)
        for seed in range(5):
            result = simulate_single(
                er_graph, policy, seed=seed, arbitrary_start=True, max_rounds=10_000
            )
            assert result.stabilized
            assert check_mis(er_graph, result.mis) is None
