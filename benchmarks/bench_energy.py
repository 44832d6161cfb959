"""E11 — communication (energy) cost of the self-stabilizing guarantee.

In beeping systems (radio motes, biological signaling) the natural cost
measure is *transmissions*.  Self-stabilization is not free: stable MIS
members keep beeping forever so that faults remain detectable — whereas
the non-self-stabilizing Jeavons algorithm goes silent after
termination.  This experiment quantifies that trade:

* beeps per vertex until stabilization (the convergence cost),
* steady-state beeps per round after stabilization — exactly |MIS| per
  round for Algorithm 1 (only members beep in a legal configuration),
  exactly 0 for Jeavons,
* the same comparison for the two-channel variant (channel-2 beeps are
  the membership heartbeat).

Not a paper table; it makes the paper's remark "stable vertices cannot
be silent after they stabilized" quantitative.
"""

import numpy as np

from _harness import print_header, seed_for, sizes_and_reps

from repro.analysis.tables import format_rows
from repro.beeping.algorithm import LocalKnowledge
from repro.beeping.network import BeepingNetwork
from repro.baselines import JeavonsMIS
from repro.core import (
    max_degree_policy,
    neighborhood_degree_policy,
    simulate_single,
    simulate_two_channel,
)
from repro.core.engines import SingleChannelEngine
from repro.graphs.generators import by_name


def alg1_energy(graph, seed):
    """(beeps per vertex to stabilize, steady-state beeps per round)."""
    policy = max_degree_policy(graph, c1=8)
    result = simulate_single(
        graph, policy, seed=seed, arbitrary_start=True,
        max_rounds=200_000, record_series=True,
    )
    assert result.stabilized
    convergence = sum(result.beep_series) / graph.num_vertices
    # Steady state: in a legal configuration exactly the members beep.
    engine = SingleChannelEngine(graph, policy, seed=seed)
    engine.set_levels(result.final_levels)
    steady = [int(engine.step().sum()) for _ in range(20)]
    return convergence, float(np.mean(steady)), len(result.mis)


def jeavons_energy(graph, seed):
    network = BeepingNetwork(
        graph, JeavonsMIS(), [LocalKnowledge() for _ in graph.vertices()], seed=seed
    )
    total = 0
    rounds = 0
    while not network.is_legal():
        record = network.step()
        total += record.beep_count(0)
        rounds += 1
        if rounds > 50_000:
            raise RuntimeError("Jeavons did not terminate")
    steady = [network.step().beep_count(0) for _ in range(20)]
    return total / graph.num_vertices, float(np.mean(steady))


def two_channel_energy(graph, seed):
    policy = neighborhood_degree_policy(graph, c1=8)
    result = simulate_two_channel(
        graph, policy, seed=seed, arbitrary_start=True,
        max_rounds=200_000, record_series=True,
    )
    assert result.stabilized
    return sum(result.beep_series) / graph.num_vertices, len(result.mis)


def run_experiment(full: bool = False) -> list:
    sizes, reps = sizes_and_reps(full)
    sizes = [n for n in sizes if n <= 1024]
    reps = min(reps, 8)
    print_header(
        "E11 (energy)",
        "transmissions: the price of permanent fault detectability",
    )
    rows = []
    for n in sizes:
        graph = by_name("er", n, seed=seed_for("E11g", n))
        conv1, steady1, mis1, convj, steadyj = [], [], [], [], []
        for rep in range(reps):
            c, s, m = alg1_energy(graph, seed_for("E11a", n, rep))
            conv1.append(c)
            steady1.append(s)
            mis1.append(m)
            c, s = jeavons_energy(graph, seed_for("E11j", n, rep))
            convj.append(c)
            steadyj.append(s)
        rows.append(
            {
                "n": n,
                "alg1 beeps/vertex to stabilize": f"{np.mean(conv1):.1f}",
                "alg1 steady beeps/round": f"{np.mean(steady1):.1f}",
                "|MIS|": f"{np.mean(mis1):.0f}",
                "jeavons beeps/vertex": f"{np.mean(convj):.1f}",
                "jeavons steady": f"{np.mean(steadyj):.1f}",
            }
        )
    print()
    print(format_rows(rows, title="communication cost, ER graphs (arbitrary start)"))
    print()
    print("claim check: Algorithm 1's steady-state beep rate equals |MIS|")
    print("(the members' heartbeat that makes faults detectable); Jeavons")
    print("is silent after termination and therefore cannot detect faults.")
    return rows


# ----------------------------------------------------------------------
def bench_energy_alg1(benchmark):
    graph = by_name("er", 128, seed=1)

    def run():
        return alg1_energy(graph, seed=7)

    convergence, steady, mis_size = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["beeps_per_vertex"] = convergence
    benchmark.extra_info["steady_per_round"] = steady
    # In a legal configuration exactly the MIS members beep.
    assert steady == mis_size


def bench_energy_jeavons_goes_silent(benchmark):
    graph = by_name("er", 96, seed=2)

    def run():
        return jeavons_energy(graph, seed=3)

    convergence, steady = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["beeps_per_vertex"] = convergence
    assert steady == 0.0


if __name__ == "__main__":
    run_experiment(full=True)
