"""The shared beep decision against the direct ``clip → negate → power`` chain.

Every engine and round kernel decides its channel-1 beeps with one
:meth:`repro.core.kernels.BeepTable.decide` call, for every ℓmax policy:
an integer test on the exponent bits of the draw, with no probability
array.  The oracle below is a verbatim copy of the chain the engines used
before the table existed: the tests check the table's probabilities and
the threshold test against it element for element (adversarial draws
included), and that patching the oracle back into every round path
leaves level trajectories, MIS, rounds and the generators' post-run state
unchanged.
"""

import numpy as np
import pytest

from repro.core.engines.base import MAX_EXPONENT
from repro.core.engines.batched import BatchedEngine
from repro.core.engines.single import SingleChannelEngine
from repro.core.engines.two_channel import TwoChannelEngine
from repro.core.kernels import (
    BeepTable,
    PerRoundDraws,
    get_round_kernel,
    structure_for,
)
from repro.core.knowledge import explicit_policy
from repro.core.runner import policy_for_variant
from repro.graphs.generators import by_name

BACKENDS = ("fused_numpy", "fused_packed")


def _oracle(levels, ell_max, single):
    """The engines' historical probability chain, verbatim."""
    p = np.empty(levels.shape, dtype=np.float64)
    np.clip(levels, 0, MAX_EXPONENT, out=p)
    np.negative(p, out=p)
    np.power(2.0, p, out=p)
    if single:
        p[levels <= 0] = 1.0
        p[levels >= ell_max] = 0.0
    return p


@pytest.fixture
def oracle_lookup(monkeypatch):
    """Swap every beep decision for ``draws < p`` on the oracle chain."""

    def install(single):
        def decide(self, levels, draws, out, thr, below=None):
            np.less(draws, _oracle(levels, self.ell_max, single), out=out)
            return out

        monkeypatch.setattr(BeepTable, "decide", decide)

    return install


def _graph(n=48, family="er", seed=0):
    return by_name(family, n, seed=seed)


def _mixed_policy(n, seed=3):
    rng = np.random.default_rng(seed)
    return explicit_policy(rng.integers(2, 12, size=n).tolist())


def _policies(graph, algorithm):
    if algorithm == "two_channel":
        own = policy_for_variant(graph, "two_channel")
    else:
        own = policy_for_variant(graph, "own_degree")
    return {"own_degree": own, "mixed": _mixed_policy(graph.num_vertices)}


# ----------------------------------------------------------------------
# Probability level
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "ell_max",
    [
        [1, 1, 1, 1],
        [1, 2, 3, 7, 7, 40],
        [6] * 5,
        [2, 1030, 5],
        list(range(1, 25)),
    ],
    ids=["all-one", "mixed-with-one", "uniform", "beyond-clip", "ramp"],
)
def test_table_probabilities_equal_oracle(ell_max):
    ell = np.asarray(ell_max, dtype=np.int64)
    rng = np.random.default_rng(11)
    for dtype in (np.int64, np.int32):
        table = BeepTable(ell.astype(dtype))
        levels = (rng.integers(-ell, ell + 1, size=(5, ell.size))).astype(dtype)
        p = np.empty(levels.shape)
        idx = np.empty(levels.shape, dtype=np.intp)
        below = np.empty(levels.shape, dtype=bool)
        single = table.lookup(levels, p, idx, below).copy()
        want = _oracle(levels, ell.astype(dtype), single=True)
        assert single.tobytes() == want.tobytes()
        # Two channels: levels in [0, ℓmax], compared inside the band
        # 0 < ℓ < ℓmax_v that gates every channel-1 beep.
        levels2 = rng.integers(0, ell + 1, size=(5, ell.size)).astype(dtype)
        two = table.lookup(levels2, p, idx).copy()
        band = (levels2 > 0) & (levels2 < ell)
        want2 = _oracle(levels2, ell, single=False)
        assert two[band].tobytes() == want2[band].tobytes()


def _adversarial_draws(p):
    """Uniforms in [0, 1) at and around the probability ``p``."""
    candidates = (
        0.0, 2.0 ** -53, np.nextafter(p, 0.0), p, np.nextafter(p, 1.0),
        1.0 - 2.0 ** -53,
    )
    return [u for u in candidates if 0.0 <= u < 1.0]


def _decision_cases(ell_max, single):
    """Every (ℓmax_v, ℓ, u) triple over each vertex's level range."""
    ell_v, levels, draws = [], [], []
    for top in ell_max:
        low = -top if single else 0
        for level in range(low, top + 1):
            p = _oracle(np.array([level]), np.array([top]), single)[0]
            for u in _adversarial_draws(p):
                ell_v.append(top)
                levels.append(level)
                draws.append(u)
    return np.array(ell_v), np.array(levels), np.array(draws)


def _level_dtypes(top):
    """Every level dtype that holds ±top: the kernels' narrow planes,
    the batched engine's int32 and the solo engines' int64."""
    small = (np.int8,) if top <= 63 else ()
    return small + (np.int16, np.int32, np.int64)


@pytest.mark.parametrize("single", (True, False), ids=("single", "two_channel"))
@pytest.mark.parametrize("uniform", (True, False), ids=("uniform", "mixed"))
@pytest.mark.parametrize("top", list(range(1, 65)) + [1023])
def test_decide_equals_the_oracle_chain(top, uniform, single):
    ell_max = [top] if uniform else sorted({1, max(1, top // 2), top})
    ell_v, levels, draws = _decision_cases(ell_max, single)
    want = draws < _oracle(levels, ell_v, single)
    if not single:
        want &= (levels > 0) & (levels < ell_v)
    # The draws as one contiguous row, and as the row-strided view that
    # block pre-draws hand the kernels.
    block = np.zeros((2, 3, draws.size))
    block[:, 1] = draws
    for served in (draws[None, :], block[:, 1]):
        shape = served.shape
        for dtype in _level_dtypes(top):
            table = BeepTable.checked(ell_v.astype(dtype))
            lv = np.broadcast_to(levels.astype(dtype), shape).copy()
            below = np.empty(shape, dtype=bool) if single else None
            got = table.decide(
                lv, served, np.empty(shape, dtype=bool),
                BeepTable.threshold_scratch(shape), below,
            )
            if not single:
                got &= (lv > 0) & (lv < table.ell_max)
            for row in got:
                np.testing.assert_array_equal(row, want, err_msg=str(dtype))


def test_engines_reject_ell_max_beyond_the_exact_range():
    assert BeepTable.checked([MAX_EXPONENT]).offset == MAX_EXPONENT
    with pytest.raises(ValueError, match="1024"):
        BeepTable.checked([3, MAX_EXPONENT + 1])
    graph = _graph(12, seed=1)
    policy = explicit_policy([MAX_EXPONENT + 1] * graph.num_vertices)
    for build in (
        lambda: SingleChannelEngine(graph, policy, seed=0),
        lambda: TwoChannelEngine(graph, policy, seed=0),
        lambda: BatchedEngine(graph, policy, replicas=2, seed=0),
        lambda: get_round_kernel(
            "fused_packed", structure_for(graph), algorithm="single",
            ell_max=policy.ell_max, replicas=2,
        ),
    ):
        with pytest.raises(ValueError, match="exceeds"):
            build()


def test_table_is_sized_by_max_ell_and_flags_uniform():
    mixed = BeepTable(np.array([3, 5, 4]))
    assert mixed.offset == 5 and mixed.table.size == 11 and not mixed.uniform
    assert BeepTable(np.array([4, 4])).uniform
    assert BeepTable(np.array([], dtype=np.int64)).uniform


# ----------------------------------------------------------------------
# Trajectories: table path vs oracle, path by path
# ----------------------------------------------------------------------
def _solo_trajectory(engine_cls, graph, policy, rounds=40):
    engine = engine_cls(graph, policy, seed=21)
    engine.randomize_levels()
    trajectory = []
    for _ in range(rounds):
        engine.step()
        trajectory.append(engine.levels.copy())
    result = engine.until_stable(max_rounds=50_000)
    return trajectory, result, engine.rng.bit_generator.state


@pytest.mark.parametrize("algorithm", ("single", "two_channel"))
@pytest.mark.parametrize("policy_name", ("own_degree", "mixed"))
@pytest.mark.parametrize("family", ("er", "ba"))
def test_solo_engine_matches_oracle(oracle_lookup, algorithm, policy_name, family):
    graph = _graph(family=family)
    policy = _policies(graph, algorithm)[policy_name]
    engine_cls = SingleChannelEngine if algorithm == "single" else TwoChannelEngine
    table = _solo_trajectory(engine_cls, graph, policy)
    oracle_lookup(algorithm == "single")
    oracle = _solo_trajectory(engine_cls, graph, policy)
    for got, want in zip(table[0], oracle[0]):
        np.testing.assert_array_equal(got, want)
    assert table[1].rounds == oracle[1].rounds
    assert table[1].mis == oracle[1].mis
    np.testing.assert_array_equal(table[1].final_levels, oracle[1].final_levels)
    assert table[2] == oracle[2]


def _batched_run(graph, policy, algorithm, round_kernel, steps=0):
    engine = BatchedEngine(
        graph,
        policy,
        replicas=6,
        seed=29,
        algorithm=algorithm,
        round_kernel=round_kernel,
    )
    engine.randomize_levels()
    trajectory = []
    for _ in range(steps):
        engine.step()
        trajectory.append(engine.levels.copy())
    result = engine.run(max_rounds=50_000)
    states = [rng.bit_generator.state for rng in engine.rngs]
    return trajectory, result, states


@pytest.mark.parametrize("round_kernel", (None,) + BACKENDS)
@pytest.mark.parametrize("algorithm", ("single", "two_channel"))
@pytest.mark.parametrize("policy_name", ("own_degree", "mixed"))
def test_batched_paths_match_oracle(oracle_lookup, round_kernel, algorithm, policy_name):
    graph = _graph(family="ba")
    policy = _policies(graph, algorithm)[policy_name]
    steps = 25 if round_kernel is None else 0
    table = _batched_run(graph, policy, algorithm, round_kernel, steps)
    assert table[1].round_path == (round_kernel or "step")
    oracle_lookup(algorithm == "single")
    oracle = _batched_run(graph, policy, algorithm, round_kernel, steps)
    for got, want in zip(table[0], oracle[0]):
        np.testing.assert_array_equal(got, want)
    assert [r.rounds for r in table[1]] == [r.rounds for r in oracle[1]]
    for got, want in zip(table[1], oracle[1]):
        assert got.mis == want.mis
        np.testing.assert_array_equal(got.final_levels, want.final_levels)
    assert table[2] == oracle[2]


def _kernel_trajectory(backend, graph, ell_max, algorithm, horizon=30):
    """Levels after t fused rounds for t < horizon, plus generator states.

    Each budget replays the block from the same start and seeds, so the
    unstabilized rows' final levels trace the whole trajectory.
    """
    structure = structure_for(graph)
    ell = np.asarray(ell_max, dtype=np.int64)
    low = -ell if algorithm == "single" else np.zeros_like(ell)
    start = np.random.default_rng(4).integers(low, ell + 1, size=(3, graph.num_vertices))
    frames, states = [], None
    for budget in range(horizon):
        kern = get_round_kernel(
            backend, structure, algorithm=algorithm, ell_max=ell, replicas=3
        )
        levels = start.astype(np.int32)
        rngs = [np.random.default_rng(s) for s in (1, 2, 3)]
        draws = PerRoundDraws(rngs, graph.num_vertices)
        outcomes, _ = kern.run_block(levels, draws, budget)
        frames.append(levels.copy())
        states = [rng.bit_generator.state for rng in rngs]
        rounds = [o.rounds for o in outcomes]
    return frames, rounds, states


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("algorithm", ("single", "two_channel"))
def test_round_kernels_match_oracle_with_ell_max_one(oracle_lookup, backend, algorithm):
    # ℓmax = 1 cannot be built as an EllMaxPolicy (it deadlocks), but the
    # round kernels take raw ℓmax vectors, so the table must cover it.
    graph = _graph(30, seed=5)
    ell_max = np.random.default_rng(8).integers(1, 9, size=graph.num_vertices)
    ell_max[:4] = 1
    table = _kernel_trajectory(backend, graph, ell_max, algorithm)
    oracle_lookup(algorithm == "single")
    oracle = _kernel_trajectory(backend, graph, ell_max, algorithm)
    for got, want in zip(table[0], oracle[0]):
        np.testing.assert_array_equal(got, want)
    assert table[1] == oracle[1]
    assert table[2] == oracle[2]


def _rebind_run(engine, graph, new_policy):
    """Outcomes before and after a rebind that installs ``new_policy``."""
    def run():
        if isinstance(engine, SingleChannelEngine):
            return [engine.until_stable(max_rounds=50_000)]
        return list(engine.run(max_rounds=50_000))

    engine.randomize_levels()
    first = run()
    engine.rebind(structure_for(graph), policy=new_policy)
    return first, run()


@pytest.mark.parametrize("kind", ("solo", "batched", "fused_packed"))
def test_rebind_that_changes_ell_max_rebuilds_the_table(oracle_lookup, kind):
    graph = _graph(40, seed=6)
    policy = policy_for_variant(graph, "max_degree")
    new_policy = _mixed_policy(graph.num_vertices, seed=9)

    def build():
        if kind == "solo":
            return SingleChannelEngine(graph, policy, seed=3)
        return BatchedEngine(
            graph,
            policy,
            replicas=16,
            seed=3,
            round_kernel="fused_packed" if kind == "fused_packed" else None,
        )

    engine = build()
    runs = _rebind_run(engine, graph, new_policy)
    assert engine._p_table.offset == max(new_policy.ell_max)
    assert not engine._p_table.uniform
    oracle_lookup(True)
    oracle = _rebind_run(build(), graph, new_policy)
    for got, want in zip(runs, oracle):
        assert [o.rounds for o in got] == [o.rounds for o in want]
        for a, b in zip(got, want):
            assert a.mis == b.mis
            np.testing.assert_array_equal(a.final_levels, b.final_levels)
