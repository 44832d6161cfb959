"""One benchmark workload in a fresh interpreter.

``run.py`` starts this script with ``src`` on ``PYTHONPATH`` and the BLAS
thread pools pinned to one thread.  It prints ``READY`` once the workload
is set up (``run.py`` times set-up from process start to that line),
then runs the workload and prints one JSON object as its last line.

``--units 0`` runs for ``--seconds``; ``--units N`` runs exactly N units
(calls, passes or ops), which is how the traced run and its untraced
twin execute the same work.  ``--first-only`` stops after the first
call, which is all a ``first_call_s`` sample needs.  ``--trace-out PATH``
records spans around the calls into each layer and writes them to PATH.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from typing import Any, Dict, List, Optional

from spans import Tracer

now = time.perf_counter

VARIANTS = ("max_degree", "own_degree", "two_channel")
SOLVE_N = 2**17
SWEEP_GRID = (("er", 2**12), ("er", 2**14), ("ba", 2**12), ("ba", 2**14))
SWEEP_REPLICAS = 64
SERVE_N = 2**12
SERVE_CAP_HEADROOM = 6
SERVE_STREAM = 20_000
SERVE_MIN_OPS = 1_500
#: Measured solve calls per run at least: two whole variant cycles.
SOLVE_MIN_CALLS = 6
MUTATIONS = ("ADD_EDGE", "DEL_EDGE", "ADD_NODE", "DEL_NODE")
ROUND_PATH = "step loop (round_kernel=None)"


def derive(*key: int) -> int:
    """A 32-bit seed for ``key``: the same key always gives the same seed."""
    import numpy as np

    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def digest(obj: Any) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def percentile(values: List[float], q: float) -> Optional[float]:
    """The q-th percentile, or None when fewer than 10 samples lie beyond it."""
    if not values or len(values) * (100.0 - q) / 100.0 < 10:
        return None
    import numpy as np

    return float(np.percentile(values, q))


def mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


class Run:
    """Counters, checks and unit records shared by every workload."""

    def __init__(self, args: argparse.Namespace, tracer: Optional[Tracer]):
        self.args = args
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.checks: Dict[str, bool] = {}
        self.units: List[Dict[str, Any]] = []  # one record per unit, in order
        self.paths: List[str] = []
        self.metrics: Dict[str, Any] = {}
        self.samples: Dict[str, int] = {}  # sample count behind each metric
        self.layers: Dict[str, float] = {}
        self.counters: Dict[str, float] = {}
        self.digests: Optional[List[Any]] = None

    def fail(self, what: str) -> None:
        self.failed += 1
        self.errors.append(what)

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    def more(self, done: int, loop_start: float, enough: bool) -> bool:
        """Whether to run another unit after ``done`` units."""
        if self.args.first_only:
            return False
        if self.args.units:
            return done < self.args.units
        return not (enough and now() - loop_start >= self.args.seconds)

    def traced(self, unit: int) -> Optional[Tracer]:
        """The tracer for ``unit``; the cold first unit always runs untraced."""
        return self.tracer if unit > 0 else None


def setup_import(args: argparse.Namespace) -> Dict[str, Any]:
    import repro  # noqa: F401  (set-up covers the package import)

    return {}


# ----------------------------------------------------------------------
# solve: compute_mis on ER(n = 2^17, mean degree 8), cycling the variants
# ----------------------------------------------------------------------
def solve_traced(tracer: Tracer, variant: str, graph_seed: int, seed: int):
    """compute_mis's steps, in its order, each in a span of its layer."""
    from repro import default_round_budget, policy_for_variant
    from repro.core.engines import get_engine
    from repro.core.kernels import structure_for
    from repro.graphs.generators import by_name
    from repro.graphs.mis import check_mis

    with tracer.span("bench.call", variant=variant):
        with tracer.span("graphs.by_name"):
            graph = by_name("er", SOLVE_N, seed=graph_seed)
        with tracer.span("knowledge.policy_for_variant", variant=variant):
            policy = policy_for_variant(graph, variant)
        max_rounds = default_round_budget(graph, policy)
        with tracer.span("kernels.structure_for"):
            structure_for(graph)
        with tracer.span("engines.run", variant=variant):
            outcome = get_engine("vectorized").run(
                graph, policy, variant, seed, max_rounds, True
            )
        if not outcome.stabilized:
            raise RuntimeError(f"did not stabilize within {max_rounds} rounds")
        with tracer.span("mis.check_mis"):
            violation = check_mis(graph, outcome.mis)
        if violation is not None:
            raise RuntimeError(violation.describe())
    return graph, frozenset(outcome.mis), int(outcome.rounds)


def run_solve(run: Run, state: Dict[str, Any]) -> None:
    from repro import compute_mis
    from repro.core.kernels import (
        clear_structure_cache,
        resolve_kernel_name,
        structure_cache_info,
        structure_for,
    )
    from repro.graphs.generators import by_name
    from repro.graphs.mis import is_maximal_independent_set

    seed = run.args.seed
    kernels = set()
    hits = lookups = 0
    loop_start = now()
    unit = 0
    while unit == 0 or run.more(
        unit, loop_start, (unit - 1) % 3 == 0 and unit > SOLVE_MIN_CALLS
    ):
        if unit == 1:
            loop_start = now()
        variant = VARIANTS[unit % 3]
        graph_seed, engine_seed = derive(seed, 1, unit), derive(seed, 2, unit)
        tracer = run.traced(unit)
        # Every call starts from an empty structure cache, so each call
        # measures a cold cache and memory does not grow with the count.
        clear_structure_cache()
        run.attempted += 1
        start = now()
        try:
            if tracer is None:
                graph = by_name("er", SOLVE_N, seed=graph_seed)
                result = compute_mis(graph, variant, seed=engine_seed, arbitrary_start=True)
                mis, rounds = result.mis, result.rounds
            else:
                graph, mis, rounds = solve_traced(tracer, variant, graph_seed, engine_seed)
        except RuntimeError as exc:
            run.fail(f"call {unit} ({variant}): {exc}")
            run.units.append({"wall": now() - start, "failed": True})
            unit += 1
            continue
        wall = now() - start
        info = structure_cache_info()
        hits += info["hits"]
        lookups += info["hits"] + info["misses"]
        # The traced replay builds the structure itself, so the engine hits.
        run.check("solve.cache_cold", info["misses"] == 1 and info["hits"] == (tracer is not None))
        valid = is_maximal_independent_set(graph, mis)
        run.check("solve.mis_valid", valid)
        if not valid:
            run.fail(f"call {unit} ({variant}): returned set is not an MIS")
        kernels.add(resolve_kernel_name("auto", structure_for(graph), 1))
        run.units.append({
            "wall": wall, "variant": variant, "rounds": rounds,
            "vertex_rounds": graph.num_vertices * rounds,
            "edges": graph.num_edges,
            "digest": digest([variant, rounds, sorted(mis)]),
        })
        del graph, mis
        unit += 1
    clear_structure_cache()
    run.paths.append(
        f"graph=er n={SOLVE_N} replicas=1 kernel={'/'.join(sorted(kernels))} "
        f"round_path={ROUND_PATH}"
    )
    run.metrics["first_call_s"] = run.units[0]["wall"]
    if run.args.first_only:
        return
    ok = [u for u in run.units if not u.get("failed")]
    measured = [u for u in run.units[1:] if not u.get("failed")]
    walls = [u["wall"] for u in measured]
    total = sum(walls)
    run.metrics.update(
        op_p50_ms=1e3 * statistics.median(walls),
        ops_per_s=len(measured) / total,
        vertex_rounds_per_s=sum(u["vertex_rounds"] for u in measured) / total,
        stabilization_rounds=mean([u["rounds"] for u in ok[:SOLVE_MIN_CALLS]]),
        solve_s=statistics.median(walls),
    )
    run.samples.update(op_p50_ms=len(walls), ops_per_s=len(walls), vertex_rounds_per_s=len(walls),
                       stabilization_rounds=len(ok[:SOLVE_MIN_CALLS]), solve_s=len(walls))
    run.counters["kernels.structure_cache_hit_share"] = hits / max(1, lookups)
    if run.tracer is not None:
        t = run.tracer
        rounds = sum(u["rounds"] for u in measured)
        engine = sum(t.durations("engines.run"))
        builds = t.durations("graphs.by_name")
        run.layers.update({
            "graphs.build_s": mean(builds),
            "graphs.edges_per_s": sum(u["edges"] for u in measured) / sum(builds),
            "knowledge.policy_s": mean(t.durations("knowledge.policy_for_variant")),
            "kernels.structure_s": mean(t.durations("kernels.structure_for")),
            "engines.run_s": mean(t.durations("engines.run")),
            "engines.round_ms": 1e3 * engine / rounds,
            "engines.replica_rounds_per_s": rounds / engine,
            "mis.check_s": mean(t.durations("mis.check_mis")),
        })


# ----------------------------------------------------------------------
# sweep / sweep-observed: run_sweep of StabilizationRounds, batched
# ----------------------------------------------------------------------
def sweep_configs(seed: int, unit: int) -> List[Dict[str, Any]]:
    """Fresh graph seeds for every pass, so no pass starts from a warm cache."""
    return [
        {"family": family, "n": n, "graph_seed": derive(seed, 3, unit, j)}
        for j, (family, n) in enumerate(SWEEP_GRID)
    ]


class TracedMeasure:
    """Wraps a measurement so each run_sweep cell is traced from outside.

    run_sweep calls ``measure_batch`` once per cell; the wrapper opens the
    cell span and, the first time a graph appears in the pass, builds it
    and its structure in their own spans, so the measurement's own calls
    to ``graph_for_config`` and ``structure_for`` find them cached.
    """

    def __init__(self, inner: Any, tracer: Tracer, seen: set, built: List[int]):
        self.inner = inner
        self.tracer = tracer
        self.seen = seen
        self.built = built

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)

    def _cell(self, config: Any, call: str, *args: Any) -> List[float]:
        from repro.analysis.measurements import graph_for_config
        from repro.core.kernels import structure_for

        t = self.tracer
        with t.span("analysis.cell", variant=self.inner.variant, family=config["family"], n=config["n"]):
            key = (config["family"], config["n"], config["graph_seed"])
            if key not in self.seen:
                self.seen.add(key)
                with t.span("graphs.graph_for_config"):
                    graph = graph_for_config(config)
                with t.span("kernels.structure_for"):
                    structure_for(graph)
                self.built.append(graph.num_edges)
            with t.span("engines." + call):
                samples = getattr(self.inner, call)(config, *args)
        return samples

    def measure_batch(self, config: Any, seeds: Any) -> List[float]:
        return self._cell(config, "measure_batch", seeds)

    def measure_batch_observed(self, config: Any, seeds: Any, recorder: Any) -> List[float]:
        return self._cell(config, "measure_batch_observed", seeds, recorder)


def run_sweep_workload(run: Run, state: Dict[str, Any], observed: bool) -> None:
    from repro.analysis.measurements import StabilizationRounds, graph_for_config
    from repro.analysis.sweep import run_sweep, spawn_sweep_seeds, supports_batch
    from repro.core.kernels import (
        clear_structure_cache,
        resolve_kernel_name,
        structure_cache_info,
        structure_for,
    )
    from repro.obs import MetricsOptions

    seed = run.args.seed
    variants = VARIANTS[:1] if observed else VARIANTS
    graphs_built: List[int] = []
    loop_start = now()
    unit = 0
    while unit == 0 or run.more(unit, loop_start, unit >= 2):
        if unit == 1:
            loop_start = now()
        tracer = run.traced(unit)
        # In the traced sweep-observed run, the last pass is the same
        # slice with metrics off: the obs overhead and the on/off check.
        metrics_on = observed and not (tracer is not None and unit == run.args.units - 1)
        configs = sweep_configs(seed, unit)
        clear_structure_cache()
        seen: set = set()
        record: Dict[str, Any] = {"samples": [], "vertex_rounds": 0,
                                  "block_rounds": 0, "replica_rounds": 0,
                                  "records": 0, "metrics_on": metrics_on}
        start = now()
        for index, variant in enumerate(variants):
            measure: Any = StabilizationRounds(variant=variant)
            if tracer is not None:
                measure = TracedMeasure(measure, tracer, seen, graphs_built)
            master = derive(seed, 4, unit, index)
            run.attempted += 1
            span = tracer.span("analysis.run_sweep", variant=variant) if tracer else nullcontext()
            try:
                with span:
                    result = run_sweep(configs, measure, SWEEP_REPLICAS, master_seed=master,
                                       metrics=MetricsOptions() if metrics_on else None)
            except RuntimeError as exc:
                run.fail(f"pass {unit} {variant}: {exc}")
                continue
            finally:
                record.setdefault("first_call", now() - start)
            if run.args.first_only:
                break
            samples = [list(cell.samples) for cell in result.cells]
            rounds = sum(sum(s) for s in samples)
            record["samples"].append(samples)
            record["vertex_rounds"] += sum(c["n"] * sum(s) for c, s in zip(configs, samples))
            record["block_rounds"] += sum(max(s) for s in samples)
            record["replica_rounds"] += rounds
            if metrics_on:
                record["records"] += len(result.metrics.records)
                run.check("sweep.records_equal_rounds", len(result.metrics.records) == rounds)
        record["wall"] = now() - start
        if run.args.first_only:
            run.metrics["first_call_s"] = record["first_call"]
            return
        info = structure_cache_info()
        record["hit_share"] = info["hits"] / max(1, info["hits"] + info["misses"])
        record["digest"] = digest(record["samples"])
        if unit == 0:
            # A same-seed re-run of the pass's first cell, outside the timed
            # region: on sweep-observed it also runs with metrics off.
            children = spawn_sweep_seeds(derive(seed, 4, unit, 0), len(configs), SWEEP_REPLICAS)
            again = StabilizationRounds(variant=variants[0]).measure_batch(configs[0], children[0])
            run.check("sweep.same_seed_same_samples",
                      bool(record["samples"]) and list(again) == record["samples"][0][0])
            executor = "batched" if supports_batch(StabilizationRounds()) else "serial"
            for config in configs:
                structure = structure_for(graph_for_config(config))
                run.paths.append(
                    f"graph={config['family']} n={config['n']} replicas={SWEEP_REPLICAS} "
                    f"kernel={resolve_kernel_name('auto', structure, SWEEP_REPLICAS)} "
                    f"round_path={ROUND_PATH} executor=auto->{executor} jobs=1"
                )
        run.units.append(record)
        unit += 1

    measured = run.units[1:]
    on = [u for u in measured if u["metrics_on"] == observed]
    total = sum(u["wall"] for u in on)
    first = run.units[0]
    first_rounds = [x for cells in first["samples"] for s in cells for x in s]
    run.metrics.update(
        first_call_s=first["first_call"],
        op_p50_ms=1e3 * statistics.median(u["wall"] for u in on),
        ops_per_s=len(on) / total,
        vertex_rounds_per_s=sum(u["vertex_rounds"] for u in on) / total,
        stabilization_rounds=mean(first_rounds),
    )
    run.samples.update(op_p50_ms=len(on), ops_per_s=len(on), vertex_rounds_per_s=len(on),
                       stabilization_rounds=len(first_rounds))
    run.counters["kernels.structure_cache_hit_share"] = statistics.median(
        u["hit_share"] for u in measured
    )
    if run.tracer is None:
        return
    t = run.tracer
    traced_on = [u for u in measured if u["metrics_on"] == observed]
    engine_name = "engines.measure_batch_observed" if observed else "engines.measure_batch"
    engine = t.durations(engine_name)
    builds = t.durations("graphs.graph_for_config")
    block_rounds = sum(u["block_rounds"] for u in traced_on)
    replica_rounds = sum(u["replica_rounds"] for u in traced_on)
    run.layers.update({
        "graphs.build_s": mean(builds),
        "graphs.edges_per_s": sum(graphs_built) / sum(builds),
        "kernels.structure_s": mean(t.durations("kernels.structure_for")),
        "engines.run_s": mean(engine),
        "engines.round_ms": 1e3 * sum(engine) / block_rounds,
        "engines.replica_rounds_per_s": replica_rounds / sum(engine),
        "analysis.cell_s": mean(t.durations("analysis.cell")),
    })
    if observed:
        off = [u for u in measured if not u["metrics_on"]]
        on_rate = sum(u["wall"] for u in traced_on) / sum(u["vertex_rounds"] for u in traced_on)
        off_rate = sum(u["wall"] for u in off) / sum(u["vertex_rounds"] for u in off)
        on_wall = sum(u["wall"] for u in traced_on)
        run.layers.update({
            "obs.overhead_pct": 100.0 * (on_rate / off_rate - 1.0),
            "obs.records_per_s": sum(u["records"] for u in traced_on) / on_wall,
            # Collectors run inside the engine call, so their cost is the
            # metrics-on time less the same work at the metrics-off rate.
            "obs.self_s": on_wall - off_rate * sum(u["vertex_rounds"] for u in traced_on),
        })


# ----------------------------------------------------------------------
# serve-churn: closed loop, one client, churn-heavy stream on MISService
# ----------------------------------------------------------------------
def setup_serve(args: argparse.Namespace) -> Dict[str, Any]:
    from repro.devtools.seeding import rng_from_sequence, spawn_children
    from repro.graphs.generators import by_name
    from repro.serve import MISService

    graph = by_name("er", SERVE_N, seed=derive(args.seed, 5))
    cap = graph.max_degree() + SERVE_CAP_HEADROOM
    workload_seq, engine_seq = spawn_children(derive(args.seed, 6), 2)
    service = MISService(graph, degree_cap=cap, seed=rng_from_sequence(engine_seq))
    return {"graph": graph, "cap": cap, "workload_seq": workload_seq, "service": service}


def run_serve(run: Run, state: Dict[str, Any]) -> None:
    from repro.core.kernels import resolve_kernel_name, structure_cache_info
    from repro.devtools.seeding import rng_from_sequence
    from repro.serve import Op, ServeError, generate_ops

    service = state["service"]
    run.paths.append(
        f"graph=er n={SERVE_N} cap={state['cap']} replicas=1 "
        f"kernel={resolve_kernel_name('auto', service.structure, 1)} "
        "round_path=step loop (MISService.until_stable)"
    )
    # Outcomes are hashed as they arrive, so memory does not grow with the
    # number of ops a run gets through.
    outcomes = hashlib.sha256()
    before = structure_cache_info()
    # The client's first request: one cold read of the served MIS.  The
    # stream is generated after it, untimed; reads leave the topology as is.
    stream = [Op("QUERY_MIS")]
    index = 0
    loop_start = now()
    while index < len(stream):
        op = stream[index]
        if index == 1:
            loop_start = now()
        tracer = run.traced(index)
        run.attempted += 1
        start = now()
        try:
            with tracer.span("serve.apply", kind=op.kind) if tracer else nullcontext():
                result = service.apply(op)
            wall = now() - start
            if result.status != "ok":
                run.fail(f"op {index} {op.kind}: rejected: {result.error}")
            outcomes.update(json.dumps(result.outcome(), sort_keys=True).encode())
            run.units.append({
                "wall": wall, "kind": op.kind, "rounds": result.rounds,
                "rebuilt": result.rebuilt,
                "vertex_rounds": (result.rounds or 0) * service.topology.num_vertices,
            })
        except ServeError as exc:
            run.fail(f"op {index} {op.kind}: {exc}")
            outcomes.update(json.dumps({"op": op.kind, "status": "ServeError"}).encode())
        if index == 0:
            if run.args.first_only:
                run.metrics["first_call_s"] = run.units[0]["wall"]
                return
            stream += generate_ops("churn-heavy", SERVE_STREAM,
                                   rng_from_sequence(state["workload_seq"]),
                                   state["graph"], degree_cap=state["cap"])
        elif not run.more(index, loop_start, index >= SERVE_MIN_OPS):
            break
        index += 1
    loop_wall = now() - loop_start
    after = structure_cache_info()
    hits = after["hits"] - before["hits"]
    run.counters["kernels.structure_cache_hit_share"] = hits / max(
        1, hits + after["misses"] - before["misses"]
    )
    run.check("serve.no_rejected_ops", run.failed == 0)
    run.check("serve.verify_legal", service.verify_legal())
    run.digests = [outcomes.hexdigest()[:16]]

    measured = run.units[1:]
    walls = [u["wall"] for u in measured]
    mutations = [u for u in measured[:SERVE_MIN_OPS] if u["kind"] in MUTATIONS]
    p99 = percentile(walls, 99)
    run.metrics.update(
        first_call_s=run.units[0]["wall"],
        op_p50_ms=1e3 * statistics.median(walls),
        ops_per_s=len(measured) / loop_wall,
        vertex_rounds_per_s=sum(u["vertex_rounds"] for u in measured) / loop_wall,
        stabilization_rounds=mean([u["rounds"] for u in mutations]),
        op_p99_ms=None if p99 is None else 1e3 * p99,
    )
    run.samples.update(op_p50_ms=len(walls), ops_per_s=len(walls), vertex_rounds_per_s=len(walls),
                       stabilization_rounds=len(mutations), op_p99_ms=len(walls))
    if run.tracer is None:
        return

    def ms(values: List[float], q: float) -> float:
        p = percentile(values, q)
        return 0.0 if p is None else 1e3 * p

    t = run.tracer
    mutation_walls = [d for kind in MUTATIONS for d in t.durations("serve.apply", kind=kind)]
    done = [u for u in measured if u["kind"] in MUTATIONS]
    run.layers.update({
        "serve.query_mis_p50_ms": ms(t.durations("serve.apply", kind="QUERY_MIS"), 50),
        "serve.query_mis_p90_ms": ms(t.durations("serve.apply", kind="QUERY_MIS"), 90),
        "serve.mutation_p50_ms": ms(mutation_walls, 50),
        "serve.mutation_p99_ms": ms(mutation_walls, 99),
        "serve.read_nbrs_p50_ms": ms(t.durations("serve.apply", kind="READ_NBRS"), 50),
        "serve.restabilize_rounds_mean": mean([u["rounds"] for u in done]),
        "serve.rebuild_share": mean([1.0 if u["rebuilt"] else 0.0 for u in done]),
    })


WORKLOADS = {
    "solve": (setup_import, run_solve),
    "sweep": (setup_import, lambda run, state: run_sweep_workload(run, state, False)),
    "sweep-observed": (setup_import, lambda run, state: run_sweep_workload(run, state, True)),
    "serve-churn": (setup_serve, run_serve),
}


def environment() -> Dict[str, Any]:
    import numpy
    import scipy

    from repro.core.kernels import available_round_kernels

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "available_round_kernels": list(available_round_kernels()),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--units", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--first-only", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    setup, body = WORKLOADS[args.workload]
    state = setup(args)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace_out else None
    run = Run(args, tracer)
    body(run, state)
    if run.digests is None:
        run.digests = [u.get("digest") for u in run.units]
    if tracer is not None:
        layers = tracer.layer_self_seconds()
        for layer in ("graphs", "knowledge", "kernels", "engines", "mis", "analysis", "serve"):
            run.layers[f"{layer}.self_s"] = layers.get(layer, 0.0)
        # Time inside the traced units that no layer span accounts for.
        traced_wall = sum(u["wall"] for u in run.units[1:])
        attributed = sum(v for layer, v in layers.items() if layer != "bench")
        run.layers["trace.unattributed_share"] = 1.0 - attributed / traced_wall
        tracer.dump(args.trace_out, {"workload": args.workload, "seed": args.seed})
    print(json.dumps({
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors[:20],
        "checks": run.checks,
        "metrics": run.metrics,
        "samples": run.samples,
        "layers": run.layers,
        "counters": run.counters,
        "digests": run.digests,
        "unit_walls": [[u["wall"], u.get("metrics_on")] for u in run.units],
        "paths": run.paths,
        "environment": environment(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
