"""The repo benchmark: four workloads on the library's default paths.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for why each exists):

* ``solve``           compute_mis on ER graphs, n = 2^17, the three variants
* ``sweep``           run_sweep of StabilizationRounds, 3 variants x 4 graphs x 64 replicas
* ``sweep-observed``  the max_degree slice of ``sweep`` with metrics on
* ``serve-churn``     MISService replaying a churn-heavy op stream, one client

Run from the root of a checkout.  Each workload runs in a fresh
interpreter (``worker.py``) with ``src`` on the path and BLAS pinned to
one thread.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs the workload twice on the same seed, untraced and traced, checks
that both produce the same outputs, and prints the per-layer metrics.
The last line of stdout is one JSON object; the exit code is 0 only if
every output check passed.  This script uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("solve", "sweep", "sweep-observed", "serve-churn")
BLAS_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: Fresh interpreters per run.  setup_s is the median over all of them;
#: first_call_s is the median over the ones that also make the first
#: call.  First-call probes run before the main run until they have taken
#: PROBE_SECONDS, but at least FIRST_CALL_PROBES and at most MAX_PROBES of
#: them; set-up-only probes run after it, so the samples span the run.
SETUP_SAMPLES = 11
FIRST_CALL_PROBES = 2
PROBE_SECONDS = 4.0
MAX_PROBES = 14
#: Units the traced run and its untraced twin both execute: the cold first
#: unit plus one solve cycle, one sweep pass, metrics on and off, or ops.
TRACE_UNITS = {"solve": 4, "sweep": 2, "sweep-observed": 3, "serve-churn": 1500}
#: Every run must end within this many seconds.
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "first_call_s": "s",
    "op_p50_ms": "ms",
    "ops_per_s": "1/s",
    "vertex_rounds_per_s": "1/s",
    "stabilization_rounds": "rounds",
}
#: Printed by name with the end-to-end metrics, but not in the JSON: they
#: exist on one workload only (solve_s, op_p99_ms), are 0 at this commit
#: (error_rate, carried by ``attempted``/``failed``), or vary with the
#: seed on serve-churn by far more than any bound (peak_rss_mb; see
#: README.md, "Findings").
EXTRA = {"solve_s": "s", "op_p99_ms": "ms", "error_rate": "share", "peak_rss_mb": "MB"}
PER_LAYER = {
    "graphs.build_s": "s",
    "graphs.edges_per_s": "1/s",
    "graphs.self_s": "s",
    "knowledge.policy_s": "s",
    "knowledge.self_s": "s",
    "kernels.structure_s": "s",
    "kernels.structure_cache_hit_share": "share",
    "kernels.self_s": "s",
    "engines.run_s": "s",
    "engines.round_ms": "ms",
    "engines.replica_rounds_per_s": "1/s",
    "engines.self_s": "s",
    "mis.check_s": "s",
    "mis.self_s": "s",
    "analysis.cell_s": "s",
    "analysis.self_s": "s",
    "obs.overhead_pct": "%",
    "obs.records_per_s": "1/s",
    "obs.self_s": "s",
    "serve.query_mis_p50_ms": "ms",
    "serve.query_mis_p90_ms": "ms",
    "serve.mutation_p50_ms": "ms",
    "serve.mutation_p99_ms": "ms",
    "serve.read_nbrs_p50_ms": "ms",
    "serve.restabilize_rounds_mean": "rounds",
    "serve.rebuild_share": "share",
    "serve.self_s": "s",
    "trace.overhead_pct": "%",
    "trace.unattributed_share": "share",
}


class WorkerError(RuntimeError):
    pass


def run_worker(args: List[str], deadline: float) -> Dict[str, Any]:
    """Run worker.py to completion; returns its JSON plus ``setup_s``.

    ``setup_s`` is the time from just before the process starts to its
    ``READY`` line.  The worker is killed, and waited for, if it is
    still running at ``deadline``.
    """
    env = dict(os.environ, **BLAS_PIN)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    lines: List[Any] = []
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)

    def read() -> None:
        assert proc.stdout is not None
        for line in proc.stdout:
            lines.append((time.perf_counter(), line.rstrip("\n")))

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    code: Optional[int] = None
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        reader.join()
    if code is None:
        raise WorkerError(f"worker {' '.join(args)} ran past the deadline")
    if code != 0:
        raise WorkerError(f"worker {' '.join(args)} exited with code {code}")
    ready = [t for t, line in lines if line == "READY"]
    if not ready:
        raise WorkerError("worker never reported READY")
    result: Dict[str, Any] = {"setup_s": ready[0] - start}
    if "--setup-only" not in args:
        result.update(json.loads(lines[-1][1]))
    return result


def overhead_pct(twin: Dict[str, Any], traced: Dict[str, Any]) -> float:
    """Traced versus untraced wall time over the units both ran alike."""
    pairs = [
        (a, b) for (a, tag_a), (b, tag_b) in zip(twin["unit_walls"][1:], traced["unit_walls"][1:])
        if tag_a == tag_b
    ]
    base = sum(a for a, _ in pairs)
    return 100.0 * (sum(b for _, b in pairs) / base - 1.0)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace == 0:
            probes: List[Dict[str, Any]] = []
            probe_start = time.monotonic()
            while len(probes) < FIRST_CALL_PROBES or (
                time.monotonic() - probe_start < PROBE_SECONDS and len(probes) < MAX_PROBES
            ):
                probes.append(run_worker(base + ["--first-only"], deadline))
            main_run = run_worker(base + ["--seconds", str(args.seconds)], deadline)
            while len(probes) < SETUP_SAMPLES - 1:
                probes.append(run_worker(base + ["--setup-only"], deadline))
            runs = [p for p in probes if "metrics" in p] + [main_run]
            firsts = [p["metrics"]["first_call_s"] for p in probes if "metrics" in p]
            metrics = dict(
                main_run["metrics"],
                setup_s=statistics.median([p["setup_s"] for p in probes + [main_run]]),
                first_call_s=statistics.median(firsts + [main_run["metrics"]["first_call_s"]]),
                error_rate=sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs)),
                peak_rss_mb=main_run["peak_rss_mb"],
            )
            samples = dict(main_run["samples"], setup_s=len(probes) + 1, first_call_s=len(firsts) + 1)
            wanted = END_TO_END
        else:
            units = ["--units", str(TRACE_UNITS[args.workload])]
            out_dir = ROOT / ".bench_traces"
            out_dir.mkdir(exist_ok=True)
            trace_path = out_dir / f"{args.workload}-seed{args.seed}.json"
            twin = run_worker(base + units, deadline)
            traced = run_worker(base + units + ["--trace-out", str(trace_path)], deadline)
            runs = [twin, traced]
            metrics = {name: 0.0 for name in PER_LAYER}
            metrics.update(traced["layers"])
            metrics["kernels.structure_cache_hit_share"] = twin["counters"]["kernels.structure_cache_hit_share"]
            metrics["trace.overhead_pct"] = overhead_pct(twin, traced)
            samples = {}
            wanted = PER_LAYER
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    checks: Dict[str, bool] = {}
    for run in runs:
        for name, ok in run["checks"].items():
            checks[name] = checks.get(name, True) and ok
    if args.trace == 1:
        checks["trace.reproduces_untraced_outputs"] = twin["digests"] == traced["digests"]
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    for name in wanted:
        value = metrics.get(name)
        ok = isinstance(value, (int, float)) and math.isfinite(value)
        if args.trace == 0:
            ok = ok and value > 0
        checks[f"metric.{name}"] = ok
    correct = all(checks.values())

    env = runs[-1]["environment"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for line in runs[-1]["paths"]:
        print("path " + line)
    for name, value in (main_run if args.trace == 0 else twin)["counters"].items():
        print(f"counter {name} = {value}")
    for name, ok in sorted(checks.items()):
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    for run in runs:
        for error in run["errors"]:
            print(f"error {error}")
    printed = dict(wanted, **EXTRA) if args.trace == 0 else wanted
    for name, unit in printed.items():
        if metrics.get(name) is None:
            continue
        note = f" (n={samples[name]})" if name in samples else ""
        if name == "error_rate":
            note = f" ({failed} of {attempted} failed)"
        print(f"metric {name} = {metrics[name]} {unit}{note}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name), "unit": unit} for name, unit in wanted.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
