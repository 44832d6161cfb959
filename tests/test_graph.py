"""Unit tests for the core Graph type."""

import copy
import os
import pickle
import subprocess
import sys
import timeit
from pathlib import Path

import numpy as np
import pytest

from repro.graphs.graph import Graph


class TestConstruction:
    def test_empty_graph(self):
        g = Graph(0)
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert list(g.vertices()) == []

    def test_isolated_vertices(self):
        g = Graph(5)
        assert g.num_vertices == 5
        assert all(g.degree(v) == 0 for v in g.vertices())
        assert g.max_degree() == 0

    def test_basic_edges(self, triangle):
        assert triangle.num_edges == 3
        assert triangle.degree(0) == 2
        assert triangle.neighbors(1) == (0, 2)

    def test_duplicate_edges_collapsed(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1
        assert g.degree(0) == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self loop"):
            Graph(2, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, [(0, 2)])
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, [(-1, 0)])

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ValueError):
            Graph(-1)

    def test_edges_are_canonical_and_sorted(self):
        g = Graph(4, [(3, 0), (2, 1)])
        assert g.edges == ((0, 3), (1, 2))


class TestAccessors:
    def test_neighbors_sorted(self):
        g = Graph(5, [(2, 4), (2, 0), (2, 3), (2, 1)])
        assert g.neighbors(2) == (0, 1, 3, 4)

    def test_closed_neighborhood(self, path4):
        assert path4.closed_neighborhood(1) == (0, 1, 2)
        assert path4.closed_neighborhood(0) == (0, 1)

    def test_closed_neighborhood_isolated(self):
        g = Graph(2)
        assert g.closed_neighborhood(0) == (0,)

    def test_degrees_tuple(self, star6):
        assert star6.degrees() == (5, 1, 1, 1, 1, 1)
        assert star6.max_degree() == 5

    def test_has_edge(self, triangle, path4):
        assert triangle.has_edge(0, 2)
        assert triangle.has_edge(2, 0)
        assert not path4.has_edge(0, 2)
        assert not path4.has_edge(1, 1)

    def test_len_and_iter(self, path4):
        assert len(path4) == 4
        assert list(path4) == [0, 1, 2, 3]


class TestEqualityHash:
    def test_equal_graphs(self):
        a = Graph(3, [(0, 1), (1, 2)])
        b = Graph(3, [(1, 2), (1, 0)])
        assert a == b
        assert hash(a) == hash(b)

    def test_unequal_by_edges(self):
        assert Graph(3, [(0, 1)]) != Graph(3, [(1, 2)])

    def test_unequal_by_size(self):
        assert Graph(3, [(0, 1)]) != Graph(4, [(0, 1)])

    def test_repr(self, triangle):
        assert repr(triangle) == "Graph(n=3, m=3)"


class TestDerived:
    def test_from_adjacency(self):
        g = Graph.from_adjacency({0: [1, 2], 1: [0], 2: [0], 4: []})
        assert g.num_vertices == 5
        assert g.num_edges == 2
        assert g.degree(3) == 0

    def test_from_adjacency_empty(self):
        assert Graph.from_adjacency({}).num_vertices == 0

    def test_subgraph_relabels(self, path4):
        sub = path4.subgraph([1, 2, 3])
        assert sub.num_vertices == 3
        assert sub.edges == ((0, 1), (1, 2))

    def test_subgraph_drops_cross_edges(self, triangle):
        sub = triangle.subgraph([0, 2])
        assert sub.num_edges == 1

    def test_complement_of_triangle_is_empty(self, triangle):
        assert triangle.complement().num_edges == 0

    def test_complement_involution(self, path4):
        assert path4.complement().complement() == path4

    def test_union_disjoint(self, triangle, path4):
        g = triangle.union_disjoint(path4)
        assert g.num_vertices == 7
        assert g.num_edges == 6
        assert g.has_edge(3, 4)  # shifted path edge
        assert not g.has_edge(2, 3)  # no cross edges


# ----------------------------------------------------------------------
# The array form: CSR-native storage, lazy tuple views
# ----------------------------------------------------------------------
def _scalar_graph_build(n, edges):
    """The per-vertex set/sorted() construction the CSR build replaced."""
    neighbor_sets = [set() for _ in range(n)]
    edge_set = set()
    for u, v in edges:
        u, v = int(u), int(v)
        canonical = (u, v) if u <= v else (v, u)
        if canonical in edge_set:
            continue
        edge_set.add(canonical)
        neighbor_sets[u].add(v)
        neighbor_sets[v].add(u)
    adjacency = tuple(tuple(sorted(s)) for s in neighbor_sets)
    return tuple(sorted(edge_set)), adjacency


class TestArrayForm:
    @pytest.mark.parametrize("as_array", [False, True])
    def test_first_bad_edge_in_input_order_is_named(self, as_array):
        def build(edges):
            return Graph(3, np.array(edges) if as_array else edges)

        with pytest.raises(ValueError, match=r"^self loop at vertex 1 is"):
            build([(0, 1), (1, 1), (0, 5)])
        with pytest.raises(ValueError, match=r"^edge \(0, 5\) out of range for 3"):
            build([(0, 1), (0, 5), (1, 1)])
        # Range is checked before the self loop on the same edge.
        with pytest.raises(ValueError, match=r"^edge \(4, 4\) out of range"):
            build([(4, 4)])
        with pytest.raises(ValueError, match=r"^edge \(-1, 2\) out of range"):
            build([(2, 0), (-1, 2)])

    def test_malformed_pairs_rejected(self):
        with pytest.raises(ValueError):
            Graph(4, np.zeros((2, 3), dtype=np.int64))
        with pytest.raises(ValueError):
            Graph(4, [(0, 1, 2)])

    def test_array_and_tuple_inputs_agree(self):
        pairs = [(3, 1), (0, 2), (1, 3), (2, 4), (4, 0)]
        forms = [
            pairs,
            tuple(pairs),
            set(pairs),
            (p for p in pairs),
            np.array(pairs),
            np.array(pairs, dtype=np.int32),
        ]
        graphs = [Graph(5, form) for form in forms]
        for g in graphs[1:]:
            assert g == graphs[0]
            assert hash(g) == hash(graphs[0])
            assert g.digest == graphs[0].digest
        assert graphs[0].edges == ((0, 2), (0, 4), (1, 3), (2, 4))

    def test_arrays_have_canonical_dtypes_and_are_read_only(self):
        g = Graph(5, [(3, 1), (0, 2), (2, 4), (4, 0)])
        assert g.edge_array.dtype == np.int64 and g.edge_array.shape == (4, 2)
        assert g.indptr.dtype == np.int32 and g.indices.dtype == np.int32
        assert g.degree_array.dtype == np.int64
        for array in (g.edge_array, g.indptr, g.indices, g.degree_array):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    def test_input_array_is_copied_not_adopted(self):
        pairs = np.array([[0, 1], [1, 2]])
        g = Graph(3, pairs)
        pairs[0, 1] = 2
        assert pairs.flags.writeable
        assert g.edges == ((0, 1), (1, 2))

    def test_views_match_scalar_construction(self):
        rng = np.random.default_rng(4)
        pairs = rng.integers(0, 60, size=(400, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        g = Graph(60, pairs)
        edges, adjacency = _scalar_graph_build(60, pairs.tolist())
        assert g.edges == edges
        assert tuple(g.neighbors(v) for v in g.vertices()) == adjacency
        assert g.degrees() == tuple(len(a) for a in adjacency)
        assert np.array_equal(g.degree_array, np.diff(g.indptr))
        assert g.max_degree() == max(g.degrees())

    def test_pickle_round_trip(self):
        g = Graph(6, [(0, 5), (1, 4), (2, 3), (0, 1)])
        for clone in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
            assert clone == g and hash(clone) == hash(g)
            assert clone.edges == g.edges
            assert not clone.indices.flags.writeable
        assert pickle.loads(pickle.dumps(Graph(0))) == Graph(0)

    def test_hash_is_independent_of_pythonhashseed(self):
        script = (
            "from repro.graphs.generators import by_name; "
            "print(hash(by_name('er', 200, seed=1)))"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        hashes = set()
        for hash_seed in ("0", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            out = subprocess.run(
                [sys.executable, "-c", script], env=env,
                capture_output=True, text=True, check=True,
            )
            hashes.add(int(out.stdout))
        from repro.graphs.generators import by_name

        assert hashes == {hash(by_name("er", 200, seed=1))}

    def test_structure_adopts_graph_arrays(self):
        from repro.core.kernels import clear_structure_cache, structure_for

        clear_structure_cache()
        g = Graph(5, [(0, 1), (1, 2), (3, 4)])
        structure = structure_for(g)
        assert structure.edge_array is g.edge_array
        assert np.shares_memory(structure.csr.indices, g.indices)
        assert np.shares_memory(structure.csr.indptr, g.indptr)
        assert structure.digest == g.digest
        clear_structure_cache()

    def test_construction_not_slower_than_scalar_build(self):
        """Serve-sized (n = 4096) empty and snapshot builds beat the
        per-vertex set/sorted() construction they replaced."""
        from repro.graphs.generators import by_name
        from repro.graphs.mutable import MutableTopology

        n = 4096
        topology = MutableTopology(by_name("er", n, seed=5))
        edges = topology.edges()

        def best(build):
            return min(timeit.repeat(build, repeat=5, number=3))

        assert best(lambda: Graph(n, ())) <= best(lambda: _scalar_graph_build(n, ()))
        assert best(topology.snapshot) <= best(
            lambda: _scalar_graph_build(n, topology.edges())
        )
        assert topology.snapshot().edges == edges
