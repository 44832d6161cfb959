"""Robustness bench: stabilization degradation under channel noise and
asynchrony (docs/robustness.md).

Two jobs, both grep-able from CI:

* **Byte-identity gate** — re-asserts at bench time that the default
  perfect channel + synchronous scheduler reproduces the explicit-spec
  trajectories bit for bit across every engine × executor combination (printed as ``...: PASS`` lines).
* **Degradation grid** — stabilization-round medians for a grid of
  channel models × schedulers on the ER smoke family, written to
  ``results/BENCH_robustness.json``.
"""

from _harness import print_header, save_bench_rows, seed_for

from repro.analysis.measurements import StabilizationRounds
from repro.analysis.sweep import run_sweep
from repro.core.engines import (
    BatchedEngine,
    ConstantStateEngine,
    SingleChannelEngine,
    TwoChannelEngine,
)
from repro.core.runner import policy_for_variant
from repro.graphs.generators import by_name

#: ≥ 3 noise levels × ≥ 2 schedulers (the acceptance grid); noise sits
#: below the recoverable thresholds for Algorithm 1 on ER graphs.
GRID_CHANNELS = ("perfect", "lossy:0.05", "noisy:0.02", "unreliable:0.05,0.02")
GRID_SCHEDULERS = ("synchronous", "drift:0.1")
#: n = 256 under lossy:0.05 can exceed the sweep's round budget (dropped
#: beeps keep non-members flickering), so the grid tops out at 192.
GRID_SIZES = (64, 128, 192)
GRID_REPS = 12
MASTER_SEED = 2024


def check_default_byte_identity(n=96, rounds=200) -> bool:
    """Defaults ≡ explicit perfect+synchronous, across the engines."""
    graph = by_name("er", n, seed=seed_for("RBg", n))
    builders = {
        "single": lambda **extra: SingleChannelEngine(
            graph, policy_for_variant(graph, "max_degree"), seed=7, **extra,
        ),
        "two_channel": lambda **extra: TwoChannelEngine(
            graph, policy_for_variant(graph, "two_channel"), seed=7, **extra,
        ),
        "constant_state": lambda **extra: ConstantStateEngine(
            graph, seed=7, **extra
        ),
        "batched": lambda **extra: BatchedEngine(
            graph, policy_for_variant(graph, "max_degree"), replicas=2,
            seed=7, **extra,
        ),
    }
    explicit = {"channel": "perfect", "scheduler": "synchronous"}
    for name, build in builders.items():
        default = build()
        pinned = build(**explicit)
        for _ in range(rounds):
            default.step()
            pinned.step()
        state = "in_mis" if name == "constant_state" else "levels"
        a, b = getattr(default, state), getattr(pinned, state)
        same = (
            all((x == y).all() for x, y in zip(a, b))
            if name == "batched"
            else (a == b).all()
        )
        if not same:
            return False
    return True


def check_executor_byte_identity() -> bool:
    """serial ≡ batched ≡ process samples on the perfect defaults."""
    configs = [{"family": "er", "n": n} for n in (48, 96)]
    kwargs = dict(repetitions=6, master_seed=MASTER_SEED)
    serial = run_sweep(configs, StabilizationRounds(), executor="serial", **kwargs)
    batched = run_sweep(configs, StabilizationRounds(), executor="batched", **kwargs)
    process = run_sweep(
        configs, StabilizationRounds(), executor="process", jobs=2, **kwargs
    )
    return all(
        a.samples == b.samples == c.samples
        for a, b, c in zip(serial.cells, batched.cells, process.cells)
    )


def degradation_grid():
    """Stabilization medians per (channel, scheduler) cell of the grid.

    Returns machine-readable rows for ``results/BENCH_robustness.json``;
    every cell runs the same seeds, sizes, and repetitions, so the
    per-cell medians are directly comparable to the perfect baseline.
    """
    configs = [{"family": "er", "n": n} for n in GRID_SIZES]
    rows = []
    baseline = {}
    for channel in GRID_CHANNELS:
        for scheduler in GRID_SCHEDULERS:
            measure = StabilizationRounds(
                channel=None if channel == "perfect" else channel,
                scheduler=None if scheduler == "synchronous" else scheduler,
            )
            sweep = run_sweep(
                configs, measure, repetitions=GRID_REPS,
                master_seed=MASTER_SEED, executor="batched",
            )
            for config, cell in zip(configs, sweep.cells):
                samples = sorted(cell.samples)
                median = samples[len(samples) // 2]
                n = config["n"]
                if channel == "perfect" and scheduler == "synchronous":
                    baseline[n] = median
                rows.append(
                    {
                        "channel": channel,
                        "scheduler": scheduler,
                        "n": n,
                        "median_rounds": median,
                        "min_rounds": samples[0],
                        "max_rounds": samples[-1],
                        "samples": GRID_REPS,
                        "slowdown_vs_perfect": (
                            round(median / baseline[n], 2) if baseline.get(n) else None
                        ),
                    }
                )
    return rows


def run_experiment(full: bool = False) -> None:
    print_header("RB (robustness)", "defaults byte-identical + degradation grid")
    identity = check_default_byte_identity()
    print(
        "default ≡ explicit perfect+synchronous "
        f"(engine matrix): {'PASS' if identity else 'FAIL'}"
    )
    executors = check_executor_byte_identity()
    print(f"executor matrix byte-identical on defaults: {'PASS' if executors else 'FAIL'}")
    if not (identity and executors):
        raise SystemExit("byte-identity gate failed; not writing the bench artifact")

    rows = degradation_grid()
    print()
    header = f"{'channel':<22}{'scheduler':<14}{'n':>6}{'median':>9}{'slowdown':>10}"
    print(header)
    print("-" * len(header))
    for row in rows:
        slowdown = row["slowdown_vs_perfect"]
        print(
            f"{row['channel']:<22}{row['scheduler']:<14}{row['n']:>6}"
            f"{row['median_rounds']:>9}"
            f"{('%.2fx' % slowdown) if slowdown else '1.00x':>10}"
        )
    path = save_bench_rows(
        "robustness", rows,
        parameters={
            "channels": list(GRID_CHANNELS),
            "schedulers": list(GRID_SCHEDULERS),
            "sizes": list(GRID_SIZES),
            "repetitions": GRID_REPS,
            "family": "er",
            "variant": "max_degree",
            "master_seed": MASTER_SEED,
        },
    )
    print(f"wrote {path}")


# ----------------------------------------------------------------------
def bench_noisy_round_throughput(benchmark):
    """One stressed vectorized round at n = 4096 (vs the perfect-path
    microbenchmark in bench_engines): the price of the noise draws."""
    graph = by_name("er", 4096, seed=2)
    policy = policy_for_variant(graph, "max_degree")
    engine = SingleChannelEngine(
        graph, policy, seed=3, channel="unreliable:0.05,0.02", scheduler="drift:0.1"
    )
    benchmark(engine.step)
    benchmark.extra_info["n"] = 4096


def bench_byte_identity_gate(benchmark):
    """The engine identity check itself, timed (and asserted)."""
    result = benchmark.pedantic(
        lambda: check_default_byte_identity(n=48, rounds=60), rounds=1, iterations=1
    )
    assert result


if __name__ == "__main__":
    run_experiment(full=True)
