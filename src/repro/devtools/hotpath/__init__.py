"""Hot-path hygiene analysis (RPR8xx) for the repro codebase.

The fourth analyzer layer: where the linter checks lines, the dataflow
engine checks values, and the concurrency engine checks resources, this
package checks **allocation frequency** — it infers the per-round hot
region from the call graph and flags array allocations, dtype churn,
Python-level array loops, per-call scratch rebinding, and
logging/profiling bypasses inside it (see :mod:`.rules` for the
catalogue and :mod:`.engine` for the inference).  A runtime twin
(:mod:`.audit`) drives every engine combo to steady state and
measures actual bytes/round with ``tracemalloc``, so the static
contract is backstopped by a measured one.

Entry points mirror the dataflow/concurrency packages:

* :func:`analyze_paths` — scan files/directories on disk,
* :func:`analyze_sources` — scan an in-memory ``{module: source}``
  mapping (used by the fixture tests),
* :func:`analyze_project` — run over an existing
  :class:`~repro.devtools.dataflow.model.Project`.

All three honour the shared ``# repro: allow[RULE]`` /
``# repro: allow-file[RULE]`` pragmas; the hot-region inference
additionally honours ``# repro: cold`` on a ``def`` line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..dataflow import _filter_pragmas
from ..dataflow.engine import DataflowViolation
from ..dataflow.model import Project, build_project, build_project_from_sources
from .engine import HotpathAnalyzer
from .rules import HOTPATH_RULES, HotpathRule, hotpath_catalogue

__all__ = [
    "HotpathRule",
    "HOTPATH_RULES",
    "hotpath_catalogue",
    "HotpathAnalyzer",
    "HotpathReport",
    "analyze_project",
    "analyze_paths",
    "analyze_sources",
]


@dataclass
class HotpathReport:
    """Everything one hot-path analysis produced."""

    violations: List[DataflowViolation] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    modules_analyzed: int = 0
    functions_analyzed: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations and not self.errors


def analyze_project(
    project: Project, errors: Optional[List[str]] = None
) -> HotpathReport:
    """Run the hot-path analyzer over an already-built project."""
    analyzer = HotpathAnalyzer(project)
    violations = analyzer.run()
    violations = _filter_pragmas(project, violations)
    return HotpathReport(
        violations=violations,
        errors=list(errors or []),
        modules_analyzed=len(project.modules),
        functions_analyzed=analyzer.functions_analyzed,
    )


def analyze_paths(
    paths: Sequence[Union[str, Path]], root: Optional[Path] = None
) -> HotpathReport:
    """Build a project from files/directories and analyze it."""
    project, errors = build_project(paths, root=root)
    return analyze_project(project, errors=errors)


def analyze_sources(sources: Dict[str, str]) -> HotpathReport:
    """Analyze an in-memory ``{module_name: source}`` mapping."""
    project = build_project_from_sources(sources)
    return analyze_project(project)
