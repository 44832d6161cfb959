"""E10 — hear-kernel engineering: engine grid + structure-cache + shm sweep.

Two artifacts, both written to ``results/BENCH_kernels.json``:

* an **engine × size grid** timing the hear kernel under every engine:
  engine *construction* with the structure cache cold (cleared first)
  and warm — the cache's win is that column gap — plus the steady-state
  *stepping* cost, timed separately.  (Earlier
  revisions timed construction and stepping as one cell, which buried
  the sub-ms cache delta under run jitter and produced nonsensical
  ``warm > cold`` rows; see docs/performance.md, "Noise floor".)
* the **Theorem-2.1 smoke sweep** (6 sizes × 20 seeds, batched
  executor) timed on the pre-kernel ``sparse_int32`` path — faithfully
  reconstructed below as :class:`LegacyBatchedEngine` — versus the
  batched engine's step loop (``round_kernel=None``; in-process and
  through a shared-memory :class:`~repro.analysis.sweep.SweepPool`) and
  versus the **fused-round tier** (``round_kernel="fused_packed"``, the
  whole-round kernel of PR-10).  Samples must be byte-identical across
  all paths.  The acceptance bar is a ≥ 2× wall-clock speedup for each
  tier over the legacy path it replaced; the fused-vs-step-loop ratio
  is additionally recorded and gated in CI against regression.

Methodology: every *ratio* is a *median of adjacent pairs* — baseline
and candidate run back-to-back, repeatedly, and the median per-pair
ratio is reported.  Scheduler drift cancels within a pair, and the
median is robust to an occasional stolen quantum in a way best-of-N
minima are not.  Absolute grid cell times, by contrast, take the *min*
over repetitions: there the quantity of interest is the clean-run cost
and noise is strictly additive (see ``docs/performance.md``, "Noise
floor").
"""

import time

import numpy as np
from _harness import print_header, save_bench_rows, seed_for

from repro.analysis.measurements import StabilizationRounds, graph_for_config
from repro.analysis.sweep import SweepPool, run_sweep
from repro.analysis.tables import format_table
from repro.core import max_degree_policy
from repro.core.engines.base import MAX_EXPONENT
from repro.core.engines.batched import BatchedEngine
from repro.core.engines.single import SingleChannelEngine
from repro.core.engines.two_channel import TwoChannelEngine
from repro.core.kernels import HearKernel, clear_structure_cache, structure_for
from repro.graphs.generators import by_name
from repro.graphs.io import to_sparse_adjacency

#: The Theorem-2.1 smoke sweep (same shape as bench_engines.py).
SPEEDUP_SIZES = (32, 64, 128, 256, 512, 1024)
SPEEDUP_REPS = 20
MASTER_SEED = 2024

GRID_SIZES_SMOKE = (64, 256)
GRID_SIZES_FULL = (64, 256, 1024)
#: 400 rounds × 5 repetitions, min-aggregated, construction timed
#: apart from stepping.  The previous 100-round / 3-pair grid timed
#: construction + run as one cell and took per-column medians, so the
#: ~0.15–0.3 ms cache delta drowned in the ~0.5 ms jitter of a
#: multi-ms cell and the warm column occasionally landed *above* cold.  Separating the phases and
#: taking mins (noise is strictly additive for absolute times) puts
#: both cache columns well above the noise floor; see
#: docs/performance.md, "Noise floor".
GRID_ROUNDS = 400
GRID_PAIRS = 5
GRID_REPLICAS = 8


# ----------------------------------------------------------------------
# The pre-kernel baseline, reconstructed verbatim
# ----------------------------------------------------------------------
class LegacyBatchedEngine(BatchedEngine):
    """The batched engine exactly as it stood before the kernels package.

    Per instance it rebuilds the CSR adjacency *and* a transposed copy
    (no structure cache), hears through the double-transpose int32
    product ``adj_t.dot(rows.T).T``, recomputes ``2^-clip(levels)``
    every round (no p-table), allocates fresh draw/level arrays per
    step, and checks legality on every replica row (no candidate
    prune).  Trajectories are bit-identical to the current engine — the
    refactor changed none of the arithmetic — which is what lets the
    sweep comparison assert byte-equal samples.
    """

    def __init__(self, graph, policy, **kwargs):
        # The step loop below is the baseline, so never delegate to the
        # fused tier that batched runs now use by default.
        super().__init__(graph, policy, round_kernel=None, **kwargs)
        self.adjacency = to_sparse_adjacency(graph)
        self._legacy_adj_t = self.adjacency.transpose().tocsr()

    def _received_legacy(self, rows):
        return self._legacy_adj_t.dot(rows.T).T

    def _mis_mask_rows(self, levels):
        not_at_max = (levels != self.ell_max).astype(np.int32)
        blocked = self._received_legacy(not_at_max)
        return (levels == self._floor_vector()) & (blocked == 0)

    def _legal_rows(self, levels):
        in_mis = self._mis_mask_rows(levels)
        dominated = self._received_legacy(in_mis.astype(np.int32)) > 0
        others_ok = (levels == self.ell_max) & dominated
        return np.all(in_mis | others_ok, axis=1)

    def step(self, active=None, active_idx=None):
        # ``active_idx`` comes from the shared run loop; deriving it from
        # the mask (as the pre-kernel step did) is equivalent.
        if active_idx is None:
            if active is None:
                active_idx = np.arange(self.replicas)
            else:
                active_idx = np.nonzero(np.asarray(active, dtype=bool))[0]
        if active_idx.size == 0:
            return np.zeros((0, self.n), dtype=bool)

        levels = self.levels[active_idx]
        draws = np.empty((active_idx.size, self.n), dtype=np.float64)
        for i, r in enumerate(active_idx):
            draws[i] = self.rngs[r].random(self.n)

        if self._single:
            exponent = np.clip(levels, 0, MAX_EXPONENT).astype(np.float64)
            p = np.power(2.0, -exponent)
            p[levels <= 0] = 1.0
            p[levels >= self.ell_max] = 0.0
            beeps = draws < p
            heard = self._received_legacy(beeps.astype(np.int32)) > 0
            up = np.minimum(levels + 1, self.ell_max)
            down = np.maximum(levels - 1, 1)
            new_levels = np.where(heard, up, np.where(beeps, -self.ell_max, down))
            beep1 = beeps
        else:
            exponent = np.clip(levels, 0, MAX_EXPONENT).astype(np.float64)
            p1 = np.power(2.0, -exponent)
            active_band = (levels > 0) & (levels < self.ell_max)
            beep1 = active_band & (draws < p1)
            beep2 = levels == 0
            stacked = np.concatenate(
                [beep1.astype(np.int32), beep2.astype(np.int32)], axis=0
            )
            heard = self._received_legacy(stacked) > 0
            heard1 = heard[: active_idx.size]
            heard2 = heard[active_idx.size :]
            up = np.minimum(levels + 1, self.ell_max)
            down = np.maximum(levels - 1, 1)
            new_levels = np.where(
                heard2,
                self.ell_max,
                np.where(
                    heard1,
                    up,
                    np.where(beep1, 0, np.where(~beep2, down, levels)),
                ),
            )

        self.levels[active_idx] = new_levels
        self.round_index += 1
        return beep1


class LegacyStabilizationRounds(StabilizationRounds):
    """``StabilizationRounds`` batch path on :class:`LegacyBatchedEngine`."""

    def measure_batch(self, config, seed_sequences):
        graph = graph_for_config(config)
        policy = self._policy(config, graph)
        engine = LegacyBatchedEngine(
            graph,
            policy,
            seed_sequences=list(seed_sequences),
            algorithm="two_channel" if self.variant == "two_channel" else "single",
        )
        block = engine.run(
            max_rounds=self.max_rounds, arbitrary_start=self.arbitrary_start
        )
        return [self._check(outcome, config) for outcome in block]


# ----------------------------------------------------------------------
# Engine × size grid (structure cache cold vs warm)
# ----------------------------------------------------------------------
def _grid_construct(engine_label, graph, policy):
    if engine_label == "batched":
        return BatchedEngine(graph, policy, replicas=GRID_REPLICAS, seed=1)
    cls = SingleChannelEngine if engine_label == "single" else TwoChannelEngine
    return cls(graph, policy, seed=1)


def _grid_step(engine):
    for _ in range(GRID_ROUNDS):
        engine.step()


def kernel_grid(sizes, pairs=GRID_PAIRS):
    """Construction (cache cold/warm) + stepping cost per grid cell.

    All three timings are mins over ``pairs`` repetitions — these are
    absolute times, not ratios, and timing noise only ever adds, so the
    min is the clean-run estimate (see the ``GRID_ROUNDS`` note).
    """
    rows = []
    for n in sizes:
        graph = by_name("er", n, seed=seed_for("E10g", n))
        policy = max_degree_policy(graph, c1=8)
        for engine_label in ("single", "two_channel", "batched"):
            _grid_step(_grid_construct(engine_label, graph, policy))  # warmup
            cold, warm, stepping = [], [], []
            for _ in range(pairs):
                clear_structure_cache()
                start = time.perf_counter()
                engine = _grid_construct(engine_label, graph, policy)
                cold.append(time.perf_counter() - start)
                start = time.perf_counter()
                _grid_step(engine)
                stepping.append(time.perf_counter() - start)
                start = time.perf_counter()
                _grid_construct(engine_label, graph, policy)
                warm.append(time.perf_counter() - start)
            rows.append(
                {
                    "bench": "grid",
                    "engine": engine_label,
                    "n": n,
                    "rounds": GRID_ROUNDS,
                    "construct_cold_ms": round(1e3 * min(cold), 3),
                    "construct_warm_ms": round(1e3 * min(warm), 3),
                    "step_ms": round(1e3 * min(stepping), 3),
                }
            )
    return rows


def grid_table(rows):
    body = [
        [
            r["engine"], r["n"],
            f"{r['construct_cold_ms']:.3f}", f"{r['construct_warm_ms']:.3f}",
            f"{r['step_ms']:.2f}",
        ]
        for r in rows
    ]
    return format_table(
        [
            "engine", "n",
            "construct cold ms", "construct warm ms", "step ms",
        ],
        body,
        title=f"hear-kernel grid ({GRID_ROUNDS} rounds/cell)",
    )


# ----------------------------------------------------------------------
# Theorem-2.1 smoke sweep: legacy path vs step loop (+ shm pool) vs fused
# ----------------------------------------------------------------------
def _timed_sweep(measure, pool=None):
    configs = [{"family": "er", "n": n} for n in SPEEDUP_SIZES]
    start = time.perf_counter()
    result = run_sweep(
        configs,
        measure,
        repetitions=SPEEDUP_REPS,
        master_seed=MASTER_SEED,
        executor="batched",
        pool=pool,
    )
    seconds = time.perf_counter() - start
    return seconds, [list(cell.samples) for cell in result.cells]


def sweep_speedup(pairs=3):
    """Smoke-sweep rows + speedups for the step loop and the fused tier.

    Adjacent *quads* — legacy, step loop, step loop+shm-pool, fused-packed —
    run back to back, ``pairs`` times; every reported ratio is the
    median of per-quad ratios, and the samples of all four paths must
    be byte-identical.
    """
    configs = [{"family": "er", "n": n} for n in SPEEDUP_SIZES]
    legacy_measure = LegacyStabilizationRounds(variant="max_degree")
    new_measure = StabilizationRounds(variant="max_degree", round_kernel=None)
    fused_measure = StabilizationRounds(
        variant="max_degree", round_kernel="fused_packed"
    )
    graphs = [graph_for_config(config) for config in configs]

    with SweepPool(jobs=1, graphs=graphs) as pool:
        _timed_sweep(legacy_measure)  # warmup
        _timed_sweep(new_measure)
        _timed_sweep(new_measure, pool=pool)
        _timed_sweep(fused_measure)
        measurements = []  # (legacy_s, new_s, shm_s, fused_s) quads
        samples = {}
        for _ in range(pairs):
            legacy_s, samples["legacy"] = _timed_sweep(legacy_measure)
            new_s, samples["new"] = _timed_sweep(new_measure)
            shm_s, samples["shm"] = _timed_sweep(new_measure, pool=pool)
            fused_s, samples["fused"] = _timed_sweep(fused_measure)
            measurements.append((legacy_s, new_s, shm_s, fused_s))

    identical = (
        samples["new"] == samples["legacy"]
        and samples["shm"] == samples["legacy"]
        and samples["fused"] == samples["legacy"]
    )
    def _median_ratio(num, den):
        ratios = sorted(t[num] / t[den] for t in measurements)
        return ratios[len(ratios) // 2]

    speedup = _median_ratio(0, 1)
    shm_speedup = _median_ratio(0, 2)
    fused_speedup = _median_ratio(0, 3)
    fused_vs_step = _median_ratio(1, 3)
    median = sorted(measurements, key=lambda t: t[0] / t[1])[len(measurements) // 2]
    samples_total = SPEEDUP_REPS * len(SPEEDUP_SIZES)
    rows = [
        {
            "bench": "thm21_sweep",
            "path": "legacy_sparse_int32",
            "wall_seconds": round(median[0], 4),
            "samples": samples_total,
        },
        {
            "bench": "thm21_sweep",
            "path": "batched_step",
            "wall_seconds": round(median[1], 4),
            "samples": samples_total,
            "speedup_vs_legacy": round(speedup, 2),
            "samples_identical_to_legacy": identical,
        },
        {
            "bench": "thm21_sweep",
            "path": "batched_step_shm_pool",
            "wall_seconds": round(median[2], 4),
            "samples": samples_total,
            "speedup_vs_legacy": round(shm_speedup, 2),
            "samples_identical_to_legacy": identical,
        },
        {
            "bench": "thm21_sweep",
            "path": "batched_fused_packed",
            "wall_seconds": round(median[3], 4),
            "samples": samples_total,
            "speedup_vs_legacy": round(fused_speedup, 2),
            "speedup_vs_step": round(fused_vs_step, 2),
            "samples_identical_to_legacy": identical,
        },
    ]
    speedups = {
        "step": speedup,
        "shm": shm_speedup,
        "fused": fused_speedup,
        "fused_vs_step": fused_vs_step,
    }
    return rows, speedups, identical


# ----------------------------------------------------------------------
# pytest-benchmark smoke entry
# ----------------------------------------------------------------------
def bench_hear_rows(benchmark):
    """Smoke: one hear_rows block on the n=256 grid graph."""
    graph = by_name("er", 256, seed=seed_for("E10g", 256))
    structure = structure_for(graph)
    kernel = HearKernel(structure)
    rng = np.random.default_rng(0)
    rows = rng.random((GRID_REPLICAS, structure.n)) < 0.25
    out = np.empty_like(rows)
    heard = benchmark(lambda: kernel.hear_rows(rows, out=out))
    benchmark.extra_info["n"] = structure.n
    benchmark.extra_info["replicas"] = GRID_REPLICAS
    assert out.flags.c_contiguous


# ----------------------------------------------------------------------
def run_experiment(full: bool = False) -> None:
    print_header(
        "E10 (kernels)",
        "hear-kernel grid + structure cache + shared-memory sweep speedup",
    )
    sizes = GRID_SIZES_FULL if full else GRID_SIZES_SMOKE
    grid_rows = kernel_grid(sizes)
    print(grid_table(grid_rows))
    print()

    sweep_rows, speedups, identical = sweep_speedup()
    legacy_s = sweep_rows[0]["wall_seconds"]
    new_s = sweep_rows[1]["wall_seconds"]
    shm_s = sweep_rows[2]["wall_seconds"]
    fused_s = sweep_rows[3]["wall_seconds"]
    print(
        f"Theorem-2.1 smoke sweep ({len(SPEEDUP_SIZES)} sizes × "
        f"{SPEEDUP_REPS} seeds, batched executor):"
    )
    print(f"  legacy sparse_int32 path : {legacy_s:.3f}s")
    print(f"  batched step loop        : {new_s:.3f}s  ({speedups['step']:.1f}x)")
    print(f"  step loop + shm pool     : {shm_s:.3f}s  ({speedups['shm']:.1f}x)")
    print(
        f"  fused_packed round tier  : {fused_s:.3f}s  "
        f"({speedups['fused']:.1f}x, {speedups['fused_vs_step']:.2f}x vs step loop)"
    )
    print(f"sweep outputs byte-identical across paths: {'PASS' if identical else 'FAIL'}")
    bar_ok = speedups["step"] >= 2.0
    print(
        f"step loop speedup vs legacy sparse path: {speedups['step']:.1f}x — "
        f"{'PASS' if bar_ok else 'FAIL'} (bar: >= 2x)"
    )
    fused_ok = speedups["fused"] >= 2.0
    print(
        f"fused speedup vs legacy sparse path: {speedups['fused']:.1f}x — "
        f"{'PASS' if fused_ok else 'FAIL'} (bar: >= 2x)"
    )
    regress_ok = speedups["fused_vs_step"] >= 0.9
    print(
        f"fused vs batched step loop: {speedups['fused_vs_step']:.2f}x — "
        f"{'PASS' if regress_ok else 'FAIL'} (gate: >= 0.9x, generous CI slack)"
    )

    path = save_bench_rows(
        "kernels",
        grid_rows + sweep_rows,
        parameters={
            "grid_sizes": list(sizes),
            "grid_rounds": GRID_ROUNDS,
            "grid_pairs": GRID_PAIRS,
            "grid_replicas": GRID_REPLICAS,
            "speedup_sizes": list(SPEEDUP_SIZES),
            "speedup_reps": SPEEDUP_REPS,
            "master_seed": MASTER_SEED,
            "methodology": (
                "ratios: median of adjacent pairs; "
                "grid absolute times: min of repetitions"
            ),
            "round_kernel": "fused_packed",
        },
    )
    print(f"rows written to {path}")


def main() -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true", help="full grid sizes")
    run_experiment(full=parser.parse_args().full)


if __name__ == "__main__":
    main()
