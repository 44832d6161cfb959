"""Unit tests for legality predicates and the (I_t, S_t) structure."""

import pytest

from repro.core.knowledge import uniform_policy
from repro.core.stability import (
    legal_single,
    legal_two_channel,
    mu,
    stable_sets_single,
    stable_sets_two_channel,
)
from repro.core.engines import SingleChannelEngine, TwoChannelEngine
from repro.graphs import generators as gen
from repro.graphs.graph import Graph


E = 4  # a small uniform ℓmax used throughout


def legal_levels_for_path4():
    """Path 0-1-2-3 with MIS {0, 2}: levels (-E, E, -E, E)."""
    return [-E, E, -E, E]


class TestMu:
    def test_empty_neighborhood_convention(self):
        g = Graph(1)
        assert mu(g, [3], [E], 0) == 1.0

    def test_min_over_neighbors(self, path4):
        levels = [2, -4, 4, 1]
        assert mu(path4, levels, [E] * 4, 2) == pytest.approx(-1.0)
        assert mu(path4, levels, [E] * 4, 0) == pytest.approx(-1.0)
        assert mu(path4, levels, [E] * 4, 3) == pytest.approx(1.0)

    def test_normalization_by_neighbor_ellmax(self, path4):
        levels = [0, 4, 0, 0]
        ell_max = [4, 8, 4, 4]
        # Vertex 0's only neighbor is 1 with ℓ/ℓmax = 4/8.
        assert mu(path4, levels, ell_max, 0) == pytest.approx(0.5)


class TestSingleChannelLegality:
    def test_legal_path_configuration(self, path4):
        levels = legal_levels_for_path4()
        assert legal_single(path4, levels, [E] * 4)
        sets = stable_sets_single(path4, levels, [E] * 4)
        assert sets.mis == {0, 2}
        assert sets.stable == {0, 1, 2, 3}
        assert sets.is_legal(4)

    def test_alternative_mis_on_path(self, path4):
        assert legal_single(path4, [E, -E, E, -E], [E] * 4)
        assert legal_single(path4, [-E, E, E, -E], [E] * 4)

    def test_undominated_vertex_not_legal(self, path4):
        # {0} alone: vertices 2, 3 are neither members nor dominated.
        assert not legal_single(path4, [-E, E, E, E], [E] * 4)

    def test_adjacent_members_not_legal(self, path4):
        # Adjacent -E vertices do not qualify as I-vertices (their
        # neighbor is not at +ℓmax), so nothing dominates anyone.
        assert not legal_single(path4, [-E, -E, E, E], [E] * 4)

    def test_partial_levels_not_legal(self, path4):
        assert not legal_single(path4, [-E, E, -E, E - 1], [E] * 4)

    def test_isolated_vertex_must_be_member(self):
        g = Graph(1)
        assert legal_single(g, [-E], [E])
        assert not legal_single(g, [E], [E])
        assert not legal_single(g, [0], [E])

    def test_empty_graph_is_legal(self):
        assert legal_single(Graph(0), [], [])

    def test_heterogeneous_ell_max(self):
        g = gen.path(2)
        # v0 in MIS with ℓmax 3, v1 out with ℓmax 6.
        assert legal_single(g, [-3, 6], [3, 6])
        assert not legal_single(g, [-3, 3], [3, 6])

    def test_legal_iff_sets_cover(self, er_graph):
        # Build a legal configuration from a greedy MIS and check both
        # predicates agree.
        from repro.graphs.mis import greedy_mis

        mis = greedy_mis(er_graph)
        levels = [-E if v in mis else E for v in er_graph.vertices()]
        ell_max = [E] * er_graph.num_vertices
        assert legal_single(er_graph, levels, ell_max)
        sets = stable_sets_single(er_graph, levels, ell_max)
        assert sets.mis == mis


class TestSingleChannelFixedPoint:
    def test_legal_configurations_are_fixed_points(self, er_graph):
        """Paper claim: once legal, the configuration never changes."""
        from repro.graphs.mis import greedy_mis

        policy = uniform_policy(er_graph, E)
        engine = SingleChannelEngine(er_graph, policy, seed=0)
        mis = greedy_mis(er_graph)
        engine.set_levels(
            [(-E if v in mis else E) for v in er_graph.vertices()]
        )
        before = engine.levels.copy()
        for _ in range(10):
            engine.step()
        assert (engine.levels == before).all()
        assert engine.is_legal()


class TestTwoChannelLegality:
    def test_legal_path_configuration(self, path4):
        assert legal_two_channel(path4, [0, E, 0, E], [E] * 4)
        sets = stable_sets_two_channel(path4, [0, E, 0, E], [E] * 4)
        assert sets.mis == {0, 2}
        assert sets.is_legal(4)

    def test_adjacent_zeros_not_legal(self, path4):
        assert not legal_two_channel(path4, [0, 0, E, E], [E] * 4)

    def test_undominated_not_legal(self, path4):
        assert not legal_two_channel(path4, [0, E, E, E], [E] * 4)

    def test_isolated_vertex(self):
        g = Graph(1)
        assert legal_two_channel(g, [0], [E])
        assert not legal_two_channel(g, [E], [E])

    def test_fixed_point(self, er_graph):
        from repro.graphs.mis import greedy_mis

        policy = uniform_policy(er_graph, E)
        engine = TwoChannelEngine(er_graph, policy, seed=0)
        mis = greedy_mis(er_graph)
        engine.set_levels([(0 if v in mis else E) for v in er_graph.vertices()])
        before = engine.levels.copy()
        for _ in range(10):
            engine.step()
        assert (engine.levels == before).all()
        assert engine.is_legal()
