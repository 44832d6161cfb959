"""Property-based tests (hypothesis) for the core invariants.

These test the *universally quantified* statements of the paper over
randomly generated graphs, policies, and initial configurations:

* the level update rules preserve the state universe and the
  "negative only via solo beep" certificate,
* from ANY initial configuration the algorithms stabilize to a valid
  MIS (the self-stabilization theorem itself),
* legality is closed under the dynamics,
* the stable set S_t is monotone non-decreasing,
* the MIS oracles agree with a brute-force definition check.
"""

import itertools

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.knowledge import explicit_policy
from repro.core.levels import update_level, update_level_two_channel
from repro.core.engines import (
    SingleChannelEngine,
    simulate_single,
    simulate_two_channel,
)
from repro.graphs.graph import Graph
from repro.graphs.mis import check_mis, greedy_mis, is_maximal_independent_set


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def graphs(draw, max_vertices=12):
    """Random simple graphs with up to ``max_vertices`` vertices."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    possible = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(possible), max_size=len(possible))) if possible else []
    return Graph(n, edges)


@st.composite
def graph_with_policy(draw, max_vertices=10, max_ell=6):
    graph = draw(graphs(max_vertices=max_vertices))
    ell = draw(
        st.lists(
            st.integers(min_value=2, max_value=max_ell),
            min_size=graph.num_vertices,
            max_size=graph.num_vertices,
        )
    )
    return graph, explicit_policy(ell)


@st.composite
def graph_policy_levels(draw, two_channel=False):
    graph, policy = draw(graph_with_policy())
    levels = []
    for e in policy.ell_max:
        low = 0 if two_channel else -e
        levels.append(draw(st.integers(min_value=low, max_value=e)))
    return graph, policy, np.array(levels, dtype=np.int64)


# ----------------------------------------------------------------------
# Update-rule invariants
# ----------------------------------------------------------------------
@given(
    level=st.integers(-20, 20),
    beeped=st.booleans(),
    heard=st.booleans(),
    ell_max=st.integers(1, 20),
)
def test_single_update_preserves_universe(level, beeped, heard, ell_max):
    level = max(-ell_max, min(ell_max, level))
    new = update_level(level, beeped, heard, ell_max)
    assert -ell_max <= new <= ell_max
    # The solo-beep certificate (Lemma 3.4's engine): a transition to a
    # negative level from a non-negative one requires beeping alone.
    if new < 0 and level >= 0:
        assert beeped and not heard
    # Hearing a beep never decreases the level.
    if heard:
        assert new >= level


@given(
    level=st.integers(0, 20),
    beeped1=st.booleans(),
    heard1=st.booleans(),
    heard2=st.booleans(),
    ell_max=st.integers(1, 20),
)
def test_two_channel_update_preserves_universe(level, beeped1, heard1, heard2, ell_max):
    level = min(level, ell_max)
    new = update_level_two_channel(level, beeped1, heard1, heard2, ell_max)
    assert 0 <= new <= ell_max
    # Hearing an MIS announcement forces the non-member state.
    if heard2:
        assert new == ell_max
    # Joining the MIS (level 0) from above requires a solo beep1.
    if new == 0 and level > 0:
        assert beeped1 and not heard1 and not heard2


# ----------------------------------------------------------------------
# The self-stabilization theorem, universally quantified
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=graph_policy_levels(), seed=st.integers(0, 2**16))
def test_algorithm1_stabilizes_from_any_configuration(data, seed):
    graph, policy, levels = data
    result = simulate_single(
        graph, policy, seed=seed, initial_levels=levels, max_rounds=30_000
    )
    assert result.stabilized
    assert check_mis(graph, result.mis) is None


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=graph_policy_levels(two_channel=True), seed=st.integers(0, 2**16))
def test_algorithm2_stabilizes_from_any_configuration(data, seed):
    graph, policy, levels = data
    result = simulate_two_channel(
        graph, policy, seed=seed, initial_levels=levels, max_rounds=30_000
    )
    assert result.stabilized
    assert check_mis(graph, result.mis) is None


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=graph_policy_levels(), seed=st.integers(0, 2**16))
def test_stable_set_monotonicity_property(data, seed):
    graph, policy, levels = data
    engine = SingleChannelEngine(graph, policy, seed=seed)
    engine.set_levels(levels)
    previous = engine.stable_mask().copy()
    for _ in range(60):
        engine.step()
        current = engine.stable_mask()
        assert bool(np.all(current[previous]))
        previous = current.copy()


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=graph_with_policy(), seed=st.integers(0, 2**16))
def test_legality_is_absorbing(data, seed):
    graph, policy = data
    mis = greedy_mis(graph)
    levels = np.array(
        [(-policy.ell_max[v] if v in mis else policy.ell_max[v]) for v in graph.vertices()],
        dtype=np.int64,
    )
    engine = SingleChannelEngine(graph, policy, seed=seed)
    engine.set_levels(levels)
    assert engine.is_legal()
    for _ in range(30):
        engine.step()
        assert engine.is_legal()
        assert (engine.levels == levels).all()


# ----------------------------------------------------------------------
# Oracle cross-checks
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(graph=graphs(max_vertices=8), bits=st.integers(0, 2**8 - 1))
def test_mis_validator_matches_definition(graph, bits):
    candidate = {v for v in graph.vertices() if bits & (1 << v)}
    members = set(candidate)
    independent = all(
        not (u in members and v in members) for u, v in graph.edges
    )
    maximal = all(
        v in members or any(u in members for u in graph.neighbors(v))
        for v in graph.vertices()
    )
    assert is_maximal_independent_set(graph, candidate) == (independent and maximal)
    assert (check_mis(graph, candidate) is None) == (independent and maximal)


@settings(max_examples=60, deadline=None)
@given(graph=graphs(max_vertices=10))
def test_greedy_always_produces_mis(graph):
    assert check_mis(graph, greedy_mis(graph)) is None


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graph=graphs(max_vertices=8), seed=st.integers(0, 2**16))
def test_coloring_always_proper_and_bounded(graph, seed):
    """The iterated-MIS coloring is proper and uses ≤ Δ+1 colors on any
    graph, for any seed."""
    from repro.apps.coloring import iterated_mis_coloring, validate_coloring

    result = iterated_mis_coloring(graph, seed=seed, c1=3)
    assert validate_coloring(graph, result.colors) is None
    assert result.num_colors <= graph.max_degree() + 1


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graph=graphs(max_vertices=8), seed=st.integers(0, 2**16))
def test_matching_always_maximal(graph, seed):
    from repro.apps.matching import maximal_matching, validate_matching

    result = maximal_matching(graph, seed=seed, c1=3)
    assert validate_matching(graph, result.matching) is None


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    graph=graphs(max_vertices=8),
    seed=st.integers(0, 2**16),
    bound=st.integers(1, 4),
)
def test_counting_mis_stabilizes_for_any_bound(graph, seed, bound):
    """The Stone Age counting variant converges to a valid MIS for any
    counting bound b, from arbitrary states."""
    from repro.core.knowledge import max_degree_policy
    from repro.stoneage import CountingMIS, StoneAgeNetwork, run_stone_age_until_stable

    policy = max_degree_policy(graph, c1=3)
    network = StoneAgeNetwork(
        graph, CountingMIS(), policy.knowledge(graph), seed=seed, bound=bound
    )
    network.randomize_states()
    ok, rounds, mis = run_stone_age_until_stable(network, max_rounds=30_000)
    assert ok
    assert check_mis(graph, mis) is None


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    graph=graphs(max_vertices=8),
    seed=st.integers(0, 2**16),
    horizon=st.integers(0, 20),
)
def test_any_wakeup_schedule_stabilizes(graph, seed, horizon):
    from repro.beeping.network import BeepingNetwork
    from repro.beeping.wakeup import WakeupSchedule, run_with_wakeups
    from repro.core.algorithm_single import SelfStabilizingMIS
    from repro.core.knowledge import max_degree_policy

    policy = max_degree_policy(graph, c1=3)
    network = BeepingNetwork(
        graph, SelfStabilizingMIS(), policy.knowledge(graph), seed=seed
    )
    schedule = WakeupSchedule.random(graph.num_vertices, horizon=horizon, seed=seed)
    result = run_with_wakeups(network, schedule, max_rounds_after_wakeup=30_000)
    assert result.stabilized
    assert check_mis(graph, result.mis) is None


@settings(max_examples=40, deadline=None)
@given(graph=graphs(max_vertices=10))
def test_subgraph_complement_consistency(graph):
    n = graph.num_vertices
    assert graph.complement().num_edges == n * (n - 1) // 2 - graph.num_edges
    sub = graph.subgraph(graph.vertices())
    assert sub == graph


# ----------------------------------------------------------------------
# Stabilization under stress: channel × scheduler, from any start
# ----------------------------------------------------------------------
# Noise kept below the empirically-recoverable thresholds
# (docs/robustness.md): Algorithm 2's spurious beep2 hears destabilize
# it at noise levels Algorithm 1 shrugs off, so its grid is gentler.
STRESS_CHANNELS_SINGLE = ("lossy:0.1", "noisy:0.03", "unreliable:0.05,0.01")
STRESS_CHANNELS_TWO = ("lossy:0.05", "noisy:0.01", "unreliable:0.02,0.005")
STRESS_SCHEDULERS = (
    "drift:0.1",
    "drift:0.3,2",
    "adversarial:staggered,2",
    "adversarial:simultaneous",
)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    data=graph_policy_levels(),
    seed=st.integers(0, 2**16),
    channel=st.sampled_from(STRESS_CHANNELS_SINGLE),
    scheduler=st.sampled_from(STRESS_SCHEDULERS),
)
def test_algorithm1_stabilizes_under_stress(data, seed, channel, scheduler):
    graph, policy, levels = data
    result = simulate_single(
        graph, policy, seed=seed, initial_levels=levels, max_rounds=60_000,
        channel=channel, scheduler=scheduler,
    )
    assert result.stabilized
    assert check_mis(graph, result.mis) is None


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    data=graph_policy_levels(two_channel=True),
    seed=st.integers(0, 2**16),
    channel=st.sampled_from(STRESS_CHANNELS_TWO),
    scheduler=st.sampled_from(STRESS_SCHEDULERS),
)
def test_algorithm2_stabilizes_under_stress(data, seed, channel, scheduler):
    graph, policy, levels = data
    result = simulate_two_channel(
        graph, policy, seed=seed, initial_levels=levels, max_rounds=60_000,
        channel=channel, scheduler=scheduler,
    )
    assert result.stabilized
    assert check_mis(graph, result.mis) is None


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    data=graph_policy_levels(),
    seed=st.integers(0, 2**16),
    scheduler=st.sampled_from(STRESS_SCHEDULERS),
)
def test_scheduler_delay_preserves_level_universe(data, seed, scheduler):
    """Delay without noise: every intermediate configuration stays in
    the level universe."""
    graph, policy, levels = data
    engine = SingleChannelEngine(graph, policy, seed=seed, scheduler=scheduler)
    engine.set_levels(levels)
    ell = np.asarray(policy.ell_max, dtype=np.int64)
    for _ in range(80):
        engine.step()
        assert np.all(engine.levels >= -ell) and np.all(engine.levels <= ell)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=graph_policy_levels(), seed=st.integers(0, 2**16), gap=st.integers(1, 4))
def test_dormant_vertices_hold_their_level(data, seed, gap):
    """Under the staggered wake-up adversary, vertex v is dormant until
    round gap*v — its (possibly corrupted) level must be frozen until
    then, exactly the paper's sleeping-vertex semantics."""
    graph, policy, levels = data
    engine = SingleChannelEngine(
        graph, policy, seed=seed, scheduler=f"adversarial:staggered,{gap}"
    )
    engine.set_levels(levels)
    vertices = np.arange(graph.num_vertices)
    for round_index in range(min(gap * graph.num_vertices, 24)):
        engine.step()
        dormant = gap * vertices > round_index
        np.testing.assert_array_equal(engine.levels[dormant], levels[dormant])
