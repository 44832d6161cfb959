"""The hear kernel, the structure cache and shared memory.

The hear kernel must equal the reference count formula
``(A.astype(int) @ x) > 0`` bit for bit on any input, so engine
trajectories do not depend on how hearing is computed.  This suite pins
that across ≥ 8 graph families (including a degree ≥ 256 hub — the
PR-1 int8-overflow class), the content-keyed structure cache, and the
shared-memory export/attach roundtrip used by sweep workers.
"""

import numpy as np
import pytest

from repro.analysis.measurements import StabilizationRounds
from repro.analysis.sweep import SweepPool, run_sweep
from repro.core.engines.batched import simulate_batched
from repro.core.engines.constant_state import simulate_constant_state
from repro.core.engines.single import simulate_single
from repro.core.engines.two_channel import simulate_two_channel
from repro.core.kernels import (
    GraphStructure,
    HearKernel,
    attach_structure,
    clear_structure_cache,
    export_structures,
    resolve_kernel_name,
    seed_structure,
    structure_cache_info,
    structure_for,
)
from repro.core.knowledge import max_degree_policy
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.graphs.io import to_sparse_adjacency  # repro: allow-file[RPR631]

SEED = 2024

#: ≥ 8 graph families; ``star(300)`` has a degree-299 hub (the class the
#: PR-1 int8 overflow wrapped on) and ``complete(40)`` is fully dense.
FAMILIES = {
    "path": lambda: gen.path(40),
    "cycle": lambda: gen.cycle(33),
    "star_deg299": lambda: gen.star(300),
    "complete": lambda: gen.complete(40),
    "grid": lambda: gen.grid_2d(6, 7),
    "torus": lambda: gen.torus_2d(5, 6),
    "binary_tree": lambda: gen.binary_tree(5),
    "er": lambda: gen.erdos_renyi(64, 0.15, seed=SEED),
    "regular": lambda: gen.random_regular(30, 4, seed=SEED),
    "watts_strogatz": lambda: gen.watts_strogatz(36, 4, 0.2, seed=SEED),
}


@pytest.fixture(params=sorted(FAMILIES))
def family_graph(request):
    return request.param, FAMILIES[request.param]()


def _count_formula(graph, columns):
    """``(A.astype(int) @ x) > 0`` on an adjacency built apart from the kernel."""
    adjacency = to_sparse_adjacency(graph).astype(int)
    return (adjacency @ columns.astype(int)) > 0


# ----------------------------------------------------------------------
# Kernel names (kept for the benchmark harness's path lines)
# ----------------------------------------------------------------------
def test_aliases_resolve_to_registered_names():
    for name in ("auto", "sparse", "sparse_int32"):
        assert resolve_kernel_name(name) == "sparse_int32"


def test_unknown_kernel_name_raises():
    with pytest.raises(ValueError, match="unknown hear kernel"):
        resolve_kernel_name("blas")
    with pytest.raises(ValueError, match="unknown hear kernel"):
        resolve_kernel_name("bitset")


def test_auto_heuristic_large_sparse_goes_sparse():
    structure = structure_for(gen.cycle(400))
    assert resolve_kernel_name("auto", structure) == "sparse_int32"


# ----------------------------------------------------------------------
# The structure cache
# ----------------------------------------------------------------------
def test_structure_cache_shares_by_content():
    clear_structure_cache()
    a = structure_for(gen.cycle(12))
    b = structure_for(gen.cycle(12))  # distinct Graph object, same content
    assert a is b
    info = structure_cache_info()
    assert info["misses"] == 1 and info["hits"] == 1


def test_structure_cache_capacity_is_bounded():
    clear_structure_cache()
    capacity = structure_cache_info()["capacity"]
    for n in range(2, capacity + 10):
        structure_for(gen.path(n))
    assert structure_cache_info()["size"] == capacity


def test_seed_structure_installs_prebuilt_entry():
    clear_structure_cache()
    graph = gen.cycle(9)
    prebuilt = GraphStructure(graph)
    prebuilt.csr  # force the build
    seed_structure(prebuilt)
    assert structure_for(Graph(9, graph.edges)) is prebuilt
    assert structure_cache_info()["hits"] == 1


def test_structure_csr_matches_to_sparse_adjacency(family_graph):
    _, graph = family_graph
    ours = structure_for(graph).csr
    reference = to_sparse_adjacency(graph)
    assert (ours != reference).nnz == 0
    assert ours.dtype == reference.dtype


def test_structure_transpose_is_shared():
    structure = structure_for(gen.erdos_renyi(30, 0.2, seed=SEED))
    assert structure.csr_t is structure.csr


# ----------------------------------------------------------------------
# Kernel-level bit-identity against the reference count formula
# ----------------------------------------------------------------------
def test_kernels_agree_on_random_masks(family_graph):
    _, graph = family_graph
    kernel = HearKernel(structure_for(graph))
    rng = np.random.default_rng(SEED)
    for density in (0.0, 0.05, 0.5, 1.0):
        active = rng.random(graph.num_vertices) < density
        np.testing.assert_array_equal(
            kernel.hear(active), _count_formula(graph, active)
        )


def test_hear_rows_agree_and_are_c_contiguous(family_graph):
    _, graph = family_graph
    kernel = HearKernel(structure_for(graph))
    rng = np.random.default_rng(SEED + 1)
    rows = rng.random((5, graph.num_vertices)) < 0.3
    expected = _count_formula(graph, rows.T).T
    heard = kernel.hear_rows(rows)
    assert heard.flags.c_contiguous
    np.testing.assert_array_equal(heard, expected)
    # The out= path (what the batched engine uses) must match too.
    out = np.empty_like(rows)
    result = kernel.hear_rows(rows, out=out)
    assert result is out and out.flags.c_contiguous
    np.testing.assert_array_equal(out, expected)


# ----------------------------------------------------------------------
# Engine-level bit-identity: outcomes must not depend on how hearing is
# computed — the kernel against the count formula swapped in for it
# ----------------------------------------------------------------------
def _outcome_tuple(result):
    return (
        result.stabilized,
        result.rounds,
        sorted(result.mis),
        result.final_levels.tolist(),
    )


def _swap_in_count_formula(monkeypatch, graph):
    def hear(self, active):
        return _count_formula(graph, active)

    def hear_rows(self, rows, out=None):
        heard = np.ascontiguousarray(_count_formula(graph, rows.T).T)
        if out is None:
            return heard
        np.copyto(out, heard)
        return out

    monkeypatch.setattr(HearKernel, "hear", hear)
    monkeypatch.setattr(HearKernel, "hear_rows", hear_rows)


def test_engine_outcomes_identical_across_kernels(family_graph, monkeypatch):
    _, graph = family_graph
    policy = max_degree_policy(graph)
    runs = {
        "single": lambda: simulate_single(
            graph, policy, seed=SEED, arbitrary_start=True
        ),
        "two_channel": lambda: simulate_two_channel(
            graph, policy, seed=SEED, arbitrary_start=True
        ),
        "constant_state": lambda: simulate_constant_state(graph, seed=SEED),
    }
    kernel = {label: _outcome_tuple(run()) for label, run in runs.items()}
    _swap_in_count_formula(monkeypatch, graph)
    for label, run in runs.items():
        assert _outcome_tuple(run()) == kernel[label], label


@pytest.mark.parametrize("algorithm", ["single", "two_channel"])
def test_batched_outcomes_identical_across_kernels(
    family_graph, algorithm, monkeypatch
):
    _, graph = family_graph
    policy = max_degree_policy(graph)

    def run():
        result = simulate_batched(
            graph,
            policy,
            replicas=4,
            seed=SEED,
            algorithm=algorithm,
            arbitrary_start=True,
        )
        return [_outcome_tuple(replica) for replica in result.results]

    kernel = run()
    _swap_in_count_formula(monkeypatch, graph)
    assert run() == kernel


# ----------------------------------------------------------------------
# Shared-memory export / attach roundtrip
# ----------------------------------------------------------------------
def test_shared_memory_roundtrip_preserves_every_form():
    graph = gen.erdos_renyi(48, 0.2, seed=SEED)
    original = structure_for(graph)
    shared = export_structures([graph, gen.erdos_renyi(48, 0.2, seed=SEED)])
    try:
        assert len(shared.manifests) == 1  # digest-deduplicated
        attached = attach_structure(shared.manifests[0])
        assert attached.graph == graph
        assert attached.digest == original.digest
        np.testing.assert_array_equal(attached.edge_array, original.edge_array)
        assert (attached.csr != original.csr).nnz == 0
        # Attached views are read-only: a stray in-place write must raise.
        with pytest.raises((ValueError, RuntimeError)):
            attached.edge_array[0, 0] = 99
        # Hearing through an attached structure matches the original.
        mask = np.zeros(48, dtype=bool)
        mask[::5] = True
        np.testing.assert_array_equal(
            HearKernel(attached).hear(mask), HearKernel(original).hear(mask)
        )
        attached._segments[0].close()
    finally:
        shared.close()


def test_shared_memory_segment_holds_only_the_edge_array():
    """16 bytes per edge: no (n, n)-sized form is built or shipped."""
    graph = gen.by_name("er", 2**15, seed=1)
    shared = export_structures([graph])
    try:
        (manifest,) = shared.manifests
        assert manifest.total_bytes == 16 * graph.num_edges
    finally:
        shared.close()


# ----------------------------------------------------------------------
# Sweep byte-identity with shared-memory workers on and off
# ----------------------------------------------------------------------
SWEEP_CONFIGS = [
    {"family": "er", "n": 24},
    {"family": "cycle", "n": 20},
    {"family": "er", "n": 24},  # duplicate topology → one shared segment
]


def _sweep_samples(**kwargs):
    result = run_sweep(
        SWEEP_CONFIGS,
        StabilizationRounds(variant="max_degree"),
        repetitions=3,
        master_seed=SEED,
        **kwargs,
    )
    return [list(cell.samples) for cell in result.cells]


@pytest.mark.parametrize("executor", ["process", "batched"])
def test_sweep_is_byte_identical_with_shared_memory_workers(executor):
    reference = _sweep_samples(executor="serial")
    plain = _sweep_samples(executor=executor, jobs=2)
    shared = _sweep_samples(executor=executor, jobs=2, shared_graphs=True)
    assert plain == reference
    assert shared == reference


def test_persistent_sweep_pool_reuses_workers_byte_identically():
    from repro.analysis.measurements import graph_for_config

    reference = _sweep_samples(executor="serial")
    graphs = [graph_for_config(config) for config in SWEEP_CONFIGS]
    with SweepPool(jobs=2, graphs=graphs) as pool:
        first = _sweep_samples(executor="process", pool=pool)
        second = _sweep_samples(executor="batched", pool=pool)
    assert first == reference
    assert second == reference


# ----------------------------------------------------------------------
# Segment lifecycle: idempotent close, finalize guard, audit registry
# ----------------------------------------------------------------------
def test_shared_set_close_is_idempotent_and_audited():
    from repro.core.kernels.shm import leaked_segments

    before = set(leaked_segments())
    shared = export_structures([gen.cycle(12)])
    exported = [n for n in leaked_segments() if n not in before]
    assert len(exported) == 1
    shared.close()
    assert [n for n in leaked_segments() if n not in before] == []
    shared.close()  # second close: no FileNotFoundError, no state change
    assert shared.manifests == []


def test_finalize_guard_unlinks_abandoned_segments():
    """A set dropped without close() must not strand its segments."""
    import gc

    from repro.core.kernels.shm import leaked_segments

    before = set(leaked_segments())
    shared = export_structures([gen.cycle(12)])  # repro: allow[RPR701]
    name = [n for n in leaked_segments() if n not in before][0]
    del shared
    gc.collect()
    assert name not in leaked_segments()
