"""The hot-path hygiene analyzer & allocation auditor: every RPR8xx rule.

Covers: the fixture corpus (one flagging and one clean file per rule,
with the RPR801 helper chain split across a module boundary and a two-hop
interprocedural flag case), hot-region scoping (setup escapes, driver
loop bodies, ``# repro: cold``), escape analysis, pragma handling at
both granularities, baseline round-trips, SARIF output, the ``repro
check`` integration, catalogue/docs sync, the wall-time budget on the
real tree, and the runtime steady-state allocation audit (tiny combo
unconditionally, the full grid under ``REPRO_SANITIZE=1``).
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools.dataflow.baseline import (
    apply_baseline,
    load_baseline,
    save_baseline,
)
from repro.devtools.dataflow.sarif import to_sarif
from repro.devtools.hotpath import (
    HOTPATH_RULES,
    analyze_paths,
    analyze_sources,
    hotpath_catalogue,
)
from repro.devtools.hotpath.audit import (
    DEFAULT_THRESHOLD_BYTES,
    allocation_summary,
    run_allocation_audit,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
FIXTURES = REPO_ROOT / "tests" / "dataflow_fixtures"

ALL_RULE_IDS = ("RPR801", "RPR802", "RPR803", "RPR804", "RPR805")

_SANITIZE = bool(os.environ.get("REPRO_SANITIZE"))


@pytest.fixture(scope="module")
def corpus_report():
    return analyze_paths([str(FIXTURES)], root=REPO_ROOT)


def rules_in(report, path_fragment):
    return sorted(
        v.rule for v in report.violations if path_fragment in v.path
    )


# ----------------------------------------------------------------------
# The fixture corpus: each rule fires on its flag file, never on clean
# ----------------------------------------------------------------------
@pytest.mark.parametrize("rule_id", ALL_RULE_IDS)
def test_rule_catches_its_seeded_fixture(corpus_report, rule_id):
    stem = f"df{rule_id[3:]}_flag"
    flagged = rules_in(corpus_report, stem)
    assert flagged and set(flagged) == {rule_id}


@pytest.mark.parametrize("rule_id", ALL_RULE_IDS)
def test_rule_passes_its_clean_fixture(corpus_report, rule_id):
    stem = f"df{rule_id[3:]}_clean"
    assert rules_in(corpus_report, stem) == []


def test_corpus_parses_cleanly(corpus_report):
    assert corpus_report.errors == []
    assert rules_in(corpus_report, "df801_lib") == []


def test_rpr801_charges_the_two_hop_helper_at_the_hot_call_site(corpus_report):
    """step → _staging → df801_lib.fresh_levels: flagged where discarded."""
    [violation] = [
        v for v in corpus_report.violations
        if "df801_flag" in v.path and "only returns fresh arrays" in v.message
    ]
    assert violation.symbol.endswith("ToyEngine.step")
    assert "_staging" in violation.message


def test_rpr804_flags_both_the_constructor_and_np_where(corpus_report):
    flagged = [
        v for v in corpus_report.violations if "df804_flag" in v.path
    ]
    assert len(flagged) == 2
    assert any("numpy" in v.message or "np.where" in v.message
               for v in flagged)


# ----------------------------------------------------------------------
# Hot-region scoping on in-memory sources
# ----------------------------------------------------------------------
def test_escaped_allocations_are_the_callers_problem():
    """Returning or attribute-storing a fresh array transfers ownership."""
    report = analyze_sources({
        "m": (
            "import numpy as np\n"
            "class ToyEngine:\n"
            "    def step(self):\n"
            "        beeps = np.zeros(8, dtype=bool)\n"
            "        return beeps\n"
            "    def stash(self):\n"
            "        self.last = np.zeros(8, dtype=np.int64)[0:4]\n"
        )
    })
    assert report.violations == []


def test_out_kwarg_draws_are_the_blessed_pattern():
    flagged = analyze_sources({
        "m": (
            "class ToyEngine:\n"
            "    def step(self):\n"
            "        draws = self.rng.random(8)\n"
            "        return bool(draws[0] < 0.5)\n"
        )
    })
    assert [v.rule for v in flagged.violations] == ["RPR801"]
    quiet = analyze_sources({
        "m": (
            "class ToyEngine:\n"
            "    def step(self):\n"
            "        self.rng.random(out=self._draws)\n"
            "        return bool(self._draws[0] < 0.5)\n"
        )
    })
    assert quiet.violations == []


def test_driver_prologue_is_exempt_but_its_loop_body_is_not():
    report = analyze_sources({
        "m": (
            "import numpy as np\n"
            "class ToyEngine:\n"
            "    def run(self, rounds):\n"
            "        warm = np.zeros(8)\n"
            "        warm += 1\n"
            "        for _ in range(rounds):\n"
            "            tmp = np.zeros(8)\n"
            "            tmp += 1\n"
            "        return None\n"
        )
    })
    assert [(v.rule, v.line) for v in report.violations] == [("RPR801", 7)]


def test_setup_methods_are_never_part_of_the_hot_region():
    report = analyze_sources({
        "m": (
            "import numpy as np\n"
            "class ToyEngine:\n"
            "    def step(self):\n"
            "        self.rebind(8)\n"
            "        return None\n"
            "    def rebind(self, n):\n"
            "        scratch = np.zeros(n)\n"
            "        scratch += 1\n"
            "        return None\n"
        )
    })
    assert report.violations == []


def test_cold_pragma_excludes_a_helper_from_the_hot_region():
    source = (
        "import numpy as np\n"
        "class ToyEngine:\n"
        "    def step(self):\n"
        "        return self._debug_view()\n"
        "    def _debug_view(self):{marker}\n"
        "        scratch = np.zeros(8)\n"
        "        scratch += 1\n"
        "        return None\n"
    )
    hot = analyze_sources({"m": source.format(marker="")})
    assert [v.rule for v in hot.violations] == ["RPR801"]
    cold = analyze_sources({"m": source.format(marker="  # repro: cold")})
    assert cold.violations == []


def test_non_engine_classes_are_not_hot_roots():
    report = analyze_sources({
        "m": (
            "import numpy as np\n"
            "class ReferenceNode:\n"
            "    def step(self):\n"
            "        scratch = np.zeros(8)\n"
            "        scratch += 1\n"
            "        return None\n"
        )
    })
    assert report.violations == []


def test_engine_base_subclasses_are_hot_through_inheritance():
    report = analyze_sources({
        "base": (
            "class EngineBase:\n"
            "    def until_stable(self):\n"
            "        return None\n"
        ),
        "m": (
            "import numpy as np\n"
            "from base import EngineBase\n"
            "class Replica(EngineBase):\n"
            "    def step(self):\n"
            "        scratch = np.zeros(8)\n"
            "        scratch += 1\n"
            "        return None\n"
        ),
    })
    assert [v.rule for v in report.violations] == ["RPR801"]


def test_rpr805_flags_the_profile_decorator():
    report = analyze_sources({
        "m": (
            "def profile(fn):\n"
            "    return fn\n"
            "class ToyEngine:\n"
            "    @profile\n"
            "    def step(self):\n"
            "        return None\n"
        )
    })
    assert [v.rule for v in report.violations] == ["RPR805"]


# ----------------------------------------------------------------------
# Pragmas
# ----------------------------------------------------------------------
def test_line_pragma_suppresses_a_hotpath_finding():
    report = analyze_sources({
        "m": (
            "import numpy as np\n"
            "class ToyEngine:\n"
            "    def step(self):\n"
            "        tmp = np.zeros(8)  # repro: allow[RPR801]\n"
            "        tmp += 1\n"
            "        return None\n"
        )
    })
    assert report.violations == []


def test_file_pragma_is_rule_specific():
    report = analyze_sources({
        "m": (
            "# repro: allow-file[RPR801]\n"
            "import numpy as np\n"
            "class ToyEngine:\n"
            "    def step(self):\n"
            "        tmp = np.zeros(8)\n"
            "        tmp += 1\n"
            "        cast = self.levels.astype(np.float64)\n"
            "        return float(cast[0])\n"
        )
    })
    assert [v.rule for v in report.violations] == ["RPR802"]


# ----------------------------------------------------------------------
# Baseline round-trip (shared plumbing with the dataflow analyzer)
# ----------------------------------------------------------------------
def test_baseline_round_trip_suppresses_known_findings(tmp_path, corpus_report):
    baseline_path = tmp_path / "baseline.json"
    save_baseline(baseline_path, corpus_report.violations)
    fingerprints = load_baseline(baseline_path)
    assert apply_baseline(corpus_report.violations, fingerprints) == []
    fresh = analyze_sources({
        "other": (
            "import numpy as np\n"
            "class NewEngine:\n"
            "    def step(self):\n"
            "        tmp = np.zeros(8)\n"
            "        tmp += 1\n"
            "        return None\n"
        )
    }).violations
    assert apply_baseline(fresh, fingerprints) == fresh


# ----------------------------------------------------------------------
# SARIF
# ----------------------------------------------------------------------
def test_sarif_includes_the_hotpath_catalogue(corpus_report):
    log = to_sarif([v.to_json() for v in corpus_report.violations])
    [run] = log["runs"]
    rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    assert set(ALL_RULE_IDS) <= rule_ids
    assert len(run["results"]) == len(corpus_report.violations)
    for result in run["results"]:
        assert result["ruleIndex"] >= 0  # every RPR8xx is catalogued


# ----------------------------------------------------------------------
# Catalogue / docs sync
# ----------------------------------------------------------------------
def test_hotpath_catalogue_is_complete():
    rows = hotpath_catalogue()
    ids = [rule_id for rule_id, _, _ in rows]
    assert ids == sorted(ids)
    assert tuple(ids) == ALL_RULE_IDS
    for rule_id, title, rationale in rows:
        assert title and rationale, rule_id
    assert len(HOTPATH_RULES) == len(ALL_RULE_IDS)


def test_docs_cover_every_hotpath_rule():
    docs = (REPO_ROOT / "docs" / "linting.md").read_text(encoding="utf-8")
    for rule_id, title, _ in hotpath_catalogue():
        assert rule_id in docs, f"{rule_id} missing from docs/linting.md"
        assert title in docs, f"title of {rule_id} missing from docs/linting.md"
    assert "allocation audit" in docs
    perf = (REPO_ROOT / "docs" / "performance.md").read_text(encoding="utf-8")
    assert "hot-path contract" in perf
    assert "RPR801" in perf


# ----------------------------------------------------------------------
# The real tree and the repro check integration
# ----------------------------------------------------------------------
def test_real_source_tree_is_hotpath_clean():
    report = analyze_paths([str(SRC / "repro")], root=REPO_ROOT)
    assert report.errors == []
    assert report.violations == [], "\n".join(
        v.format() for v in report.violations
    )


def test_analyzer_wall_time_budget():
    import time

    start = time.perf_counter()
    analyze_paths([str(SRC / "repro")], root=REPO_ROOT)
    assert time.perf_counter() - start < 10.0


def test_check_json_payload_reports_hotpath_timing():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "check", "--no-external",
         "--no-contract", "--format", "json"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["ok"] is True
    [hot] = [t for t in payload["tools"] if t["name"] == "repro-hotpath"]
    assert hot["status"] == "passed"
    assert hot["data"]["elapsed_s"] < 10.0
    assert hot["data"]["modules"] > 50


def test_check_flags_baselines_and_exports_a_seeded_allocation(tmp_path):
    bad = tmp_path / "pkg"
    bad.mkdir()
    (bad / "churn.py").write_text(
        "import numpy as np\n"
        "class LeakyEngine:\n"
        "    def step(self):\n"
        "        tmp = np.zeros(8)\n"
        "        tmp += 1\n"
        "        return None\n",
        encoding="utf-8",
    )
    sarif_path = tmp_path / "out.sarif"

    def check(*extra):
        return subprocess.run(
            [sys.executable, "-m", "repro", "check", str(bad),
             "--no-external", "--no-contract", "--format", "json", *extra],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )

    proc = check("--sarif", str(sarif_path))
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    [hot] = [t for t in payload["tools"] if t["name"] == "repro-hotpath"]
    [violation] = hot["violations"]
    assert violation["rule"] == "RPR801"
    sarif = json.loads(sarif_path.read_text(encoding="utf-8"))
    assert [r["ruleId"] for r in sarif["runs"][0]["results"]] == ["RPR801"]

    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(
        json.dumps({
            "version": 1,
            "suppressions": [{
                "rule": violation["rule"],
                "path": violation["path"],
                "symbol": violation["symbol"],
            }],
        }),
        encoding="utf-8",
    )
    proc = check("--baseline", str(baseline_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    [hot] = [t for t in payload["tools"] if t["name"] == "repro-hotpath"]
    assert hot["violations"] == []
    assert hot["data"]["suppressed_by_baseline"] == 1


# ----------------------------------------------------------------------
# The runtime allocation audit
# ----------------------------------------------------------------------
def test_allocation_audit_tiny_combo_is_steady():
    """Unconditional smoke: one combo must sit under its threshold."""
    results = run_allocation_audit(
        warmup=6, rounds=12, combos=["single×sparse_int32"]
    )
    assert results, "combo filter matched nothing"
    for result in results:
        assert result.threshold == DEFAULT_THRESHOLD_BYTES
        assert result.ok, result.format()


def test_allocation_audit_catches_a_seeded_leak(monkeypatch):
    """A deliberately leaky per-round step must blow the threshold."""
    from repro.devtools.hotpath import audit as audit_module

    import numpy as np

    stash = []

    def leaky_step():
        stash.append(np.zeros(4096, dtype=np.float64))

    measured = audit_module._measure_retained(leaky_step, warmup=2, rounds=8)
    assert measured > DEFAULT_THRESHOLD_BYTES


@pytest.mark.skipif(
    not _SANITIZE, reason="full audit grid runs under REPRO_SANITIZE=1"
)
def test_allocation_audit_full_grid_is_steady():
    summary = allocation_summary()
    assert summary["ok"] is True
    assert len(summary["bytes_per_round"]) == 19
    for combo, measured in summary["bytes_per_round"].items():
        assert measured <= summary["threshold_bytes"][combo], combo


# ----------------------------------------------------------------------
# The bench-harness envelope
# ----------------------------------------------------------------------
def test_bench_envelope_embeds_the_allocation_audit(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "_bench_harness", REPO_ROOT / "benchmarks" / "_harness.py"
    )
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
    monkeypatch.setattr(harness, "RESULTS_DIR", str(tmp_path))
    path = harness.save_bench_rows(
        "hotpath_audit_test", [{"n": 8, "rounds": 3}]
    )
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    allocation = payload["envelope"]["parameters"]["allocation"]
    assert allocation["ok"] is True
    # 5 engine combos on the one hear kernel + 6 fused-round combos.
    assert len(allocation["bytes_per_round"]) == 11
    opt_out = harness.save_bench_rows(
        "hotpath_audit_test2", [{"n": 8}], audit_allocations=False
    )
    payload = json.loads(Path(opt_out).read_text(encoding="utf-8"))
    assert "allocation" not in payload["envelope"]["parameters"]
