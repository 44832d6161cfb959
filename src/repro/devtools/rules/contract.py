"""Engine-contract rules (RPR4xx).

Static companions to the runtime checker in
:mod:`repro.devtools.contract`: catch contract drift at lint time, where
a failing class name and line number beat a failing golden test.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from . import FileContext, Rule, Violation

__all__ = [
    "EngineContractRule",
    "GraphMutationRule",
    "RoundKernelRegistryRule",
]


class EngineContractRule(Rule):
    """RPR401: ``EngineBase`` subclasses must implement the contract."""

    rule_id = "RPR401"
    title = "incomplete EngineBase subclass"
    rationale = (
        "Every engine registered behind the backend registry must expose "
        "the EngineBase surface (a step() override, and a seed-accepting "
        "__init__ when it overrides construction); a subclass that "
        "forgets step() inherits the NotImplementedError stub and only "
        "fails at run time, deep inside a sweep."
    )

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            base_names = {
                self.dotted_name(b).rsplit(".", 1)[-1] for b in node.bases
            }
            if "EngineBase" not in base_names or node.name == "EngineBase":
                continue
            methods = {
                stmt.name: stmt
                for stmt in node.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            if "step" not in methods:
                yield ctx.violation(
                    self,
                    node,
                    f"engine class {node.name} subclasses EngineBase but "
                    "does not override step()",
                )
            init = methods.get("__init__")
            if init is not None:
                names = {
                    a.arg
                    for a in list(init.args.posonlyargs)
                    + list(init.args.args)
                    + list(init.args.kwonlyargs)
                }
                if "seed" not in names and init.args.kwarg is None:
                    yield ctx.violation(
                        self,
                        init,
                        f"{node.name}.__init__ does not accept a 'seed' "
                        "parameter (EngineBase contract)",
                    )


class GraphMutationRule(Rule):
    """RPR402: engines must never mutate a ``Graph``."""

    rule_id = "RPR402"
    title = "Graph mutation"
    rationale = (
        "Graph is the immutable topology substrate shared across "
        "replicas, executors and caches (graph_for_config memoizes by "
        "config); writing through a 'graph' reference corrupts every "
        "other consumer of the same object.  Engines derive their own "
        "arrays (adjacency CSR, level vectors) instead."
    )

    @staticmethod
    def _is_graph_attribute(node: ast.AST) -> bool:
        """True for ``graph.<x>`` / ``<anything>.graph.<x>`` targets."""
        if not isinstance(node, ast.Attribute):
            return False
        value = node.value
        if isinstance(value, ast.Name) and value.id in ("graph", "base_graph"):
            return True
        if isinstance(value, ast.Attribute) and value.attr == "graph":
            return True
        return False

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(tree):
            targets = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            for target in targets:
                # Tuple targets: (graph.x, y) = ...
                elts = (
                    target.elts
                    if isinstance(target, (ast.Tuple, ast.List))
                    else [target]
                )
                for elt in elts:
                    if self._is_graph_attribute(elt):
                        yield ctx.violation(
                            self,
                            node,
                            "assignment through a 'graph' reference; "
                            "Graph is immutable shared state — derive "
                            "engine-local arrays instead",
                        )


class RoundKernelRegistryRule(Rule):
    """RPR403: round kernels are constructed through the registry only."""

    rule_id = "RPR403"
    title = "round kernel constructed outside the registry"
    rationale = (
        "get_round_kernel() is the one blessed construction point of the "
        "fused-round tier: it resolves aliases and keeps every engine's "
        "fast path byte-identical to the step loop it replaces.  An engine that "
        "instantiates a Fused*RoundKernel directly (or open-codes a "
        "second fused loop around one) forks the tier — the registry "
        "gate, the differential oracles and the hot-path audit all stop "
        "covering it."
    )

    #: Class names whose direct instantiation is reserved for the
    #: registry: the abstract base and every fused backend.
    _KERNEL_CLASS = re.compile(r"^(RoundKernel|Fused\w*RoundKernel)$")

    #: The home package: the registry itself (and the kernel module it
    #: lives in) obviously constructs the classes.
    _HOME_PREFIX = "repro.core.kernels"

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Violation]:
        if (
            ctx.module == self._HOME_PREFIX
            or ctx.module.startswith(self._HOME_PREFIX + ".")
        ):
            return
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callee = self.dotted_name(node.func).rsplit(".", 1)[-1]
            if self._KERNEL_CLASS.match(callee):
                yield ctx.violation(
                    self,
                    node,
                    f"direct {callee}(...) construction; round kernels "
                    "are built via get_round_kernel() so the registry "
                    "gate (aliases, byte-identity coverage) applies",
                )
