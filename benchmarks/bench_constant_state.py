"""E13 — the constant-state baseline's family dependence (reference [16]).

The paper cites [16] (Giakkoupis–Ziccardi, PODC 2023) as a
*constant-state* self-stabilizing beeping MIS, "efficient only for some
graph families".  Our two-state reconstruction exhibits exactly that
profile, which this experiment maps:

* on bounded-degree families (cycles, grids, regular graphs, sparse ER)
  it converges quickly — competitive with Algorithm 1 despite knowing
  nothing about the topology and storing one bit,
* on families with high-degree vertices (stars, dense ER, scale-free
  hubs) it slows sharply and its variance explodes — the hub keeps being
  re-challenged because OUT leaves cannot distinguish "my dominator is
  here" from "no dominator"... unless the hub is IN; a claimant hub must
  win coin flips against many leaves simultaneously.

Algorithm 1's level ladder is the fix the paper builds: the ℓmax
knowledge buys degree-aware back-off.
"""

import numpy as np

from _harness import print_header, seed_for, sizes_and_reps

from repro.analysis.tables import format_rows
from repro.core import max_degree_policy
from repro.core.engines import simulate_constant_state, simulate_single
from repro.graphs.generators import by_name

FAMILIES = ["cycle", "grid", "regular", "er", "ba", "star"]

#: Per-run round ceiling; hitting it marks the run "did not finish"
#: rather than failing the experiment (the point is the contrast).
BUDGET = 300_000


def run_experiment(full: bool = False) -> list:
    sizes, reps = sizes_and_reps(full)
    n = min(sizes[-1], 1024)
    reps = min(reps, 10)
    print_header(
        "E13 (constant state)",
        "two-state [16]-style MIS: fast on bounded degree, slow on hubs",
    )
    rows = []
    for family in FAMILIES:
        graph = by_name(family, n, seed=seed_for("E13g", family, n))
        policy = max_degree_policy(graph, c1=8)
        constant_rounds, finished = [], 0
        alg1_rounds = []
        for rep in range(reps):
            seed = seed_for("E13s", family, rep)
            result = simulate_constant_state(
                graph, seed=seed, arbitrary_start=True, max_rounds=BUDGET
            )
            if result.stabilized:
                finished += 1
                constant_rounds.append(result.rounds)
            alg1_rounds.append(
                simulate_single(
                    graph, policy, seed=seed, arbitrary_start=True
                ).rounds
            )
        rows.append(
            {
                "family": family,
                "n": graph.num_vertices,
                "Δ": graph.max_degree(),
                "2-state finished": f"{finished}/{reps}",
                "2-state mean rounds": (
                    f"{np.mean(constant_rounds):.0f}" if constant_rounds else "-"
                ),
                "2-state max": (
                    f"{np.max(constant_rounds):.0f}" if constant_rounds else "-"
                ),
                "alg1 mean rounds": f"{np.mean(alg1_rounds):.0f}",
            }
        )
    print()
    print(format_rows(rows, title=f"constant-state vs Algorithm 1, n ≈ {n}"))
    print()
    print("claim check ([16]'s caveat): bounded/moderate-degree families")
    print("finish in O(log n)-like time; extreme hubs (stars) blow up by")
    print("orders of magnitude, while Algorithm 1 stays in its O(log n)")
    print("band everywhere — the value of the ℓmax degree knowledge.")
    return rows


# ----------------------------------------------------------------------
def bench_constant_state_cycle(benchmark):
    """The friendly case: a cycle."""
    graph = by_name("cycle", 256, seed=1)

    def run():
        result = simulate_constant_state(
            graph, seed=5, arbitrary_start=True, max_rounds=BUDGET
        )
        assert result.stabilized
        return result.rounds

    rounds = benchmark(run)
    benchmark.extra_info["rounds"] = rounds


def bench_constant_state_family_contrast(benchmark):
    """Smoke form of the family-dependence claim."""

    def run():
        cycle_rounds = [
            simulate_constant_state(
                by_name("cycle", 128, seed=1), seed=s, arbitrary_start=True,
                max_rounds=BUDGET,
            ).rounds
            for s in range(5)
        ]
        star_results = [
            simulate_constant_state(
                by_name("star", 128, seed=1), seed=s, arbitrary_start=True,
                max_rounds=50_000,
            )
            for s in range(5)
        ]
        star_rounds = [r.rounds for r in star_results if r.stabilized]
        return float(np.mean(cycle_rounds)), star_rounds

    cycle_mean, star_rounds = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["cycle_mean"] = cycle_mean
    benchmark.extra_info["star_finished"] = len(star_rounds)
    # Cycles converge quickly; that is the in-family guarantee.
    assert cycle_mean < 2000


if __name__ == "__main__":
    run_experiment(full=True)
