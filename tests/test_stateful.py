"""Stateful property testing: random interleavings of operations.

A hypothesis ``RuleBasedStateMachine`` drives a live network through an
arbitrary interleaving of rounds, corruptions of every kind, and
engine-state assertions.  The invariants checked after *every* rule:

* levels stay inside their per-vertex ranges,
* the vectorized and set-based legality implementations agree,
* once legal and untouched, the configuration never changes (checked
  opportunistically whenever a run of fault-free steps begins legal).

This explores operation orders the scenario tests never write down
(e.g. corrupt → one round → corrupt again → legality check).
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.knowledge import explicit_policy
from repro.core.stability import legal_single
from repro.core.engines import SingleChannelEngine
from repro.graphs.generators import erdos_renyi
from repro.graphs.mis import check_mis


class EngineMachine(RuleBasedStateMachine):
    @initialize(
        n=st.integers(2, 14),
        p=st.floats(0.0, 0.6),
        graph_seed=st.integers(0, 2**16),
        engine_seed=st.integers(0, 2**16),
        ell=st.integers(2, 6),
    )
    def setup(self, n, p, graph_seed, engine_seed, ell):
        self.graph = erdos_renyi(n, p, seed=graph_seed)
        self.policy = explicit_policy([ell] * n)
        self.engine = SingleChannelEngine(self.graph, self.policy, seed=engine_seed)
        self.rng = np.random.default_rng(engine_seed + 1)
        self.was_legal = False

    # -- operations ------------------------------------------------------
    @rule(rounds=st.integers(1, 8))
    def advance(self, rounds):
        legal_before = self.engine.is_legal()
        levels_before = self.engine.levels.copy()
        for _ in range(rounds):
            self.engine.step()
        if legal_before:
            # Legality is absorbing and the configuration is a fixed point.
            assert self.engine.is_legal()
            assert (self.engine.levels == levels_before).all()

    @rule()
    def corrupt_everything(self):
        self.engine.randomize_levels()

    @rule(rho=st.floats(0.05, 0.9))
    def corrupt_some(self, rho):
        hits = self.rng.random(self.engine.n) < rho
        fresh = self.rng.integers(
            -self.engine.ell_max, self.engine.ell_max + 1
        )
        self.engine.levels = np.where(hits, fresh, self.engine.levels)

    @rule()
    def corrupt_to_extremes(self):
        sign = 1 if self.rng.integers(2) else -1
        self.engine.levels = sign * self.engine.ell_max.copy()

    @rule()
    def drive_to_stability(self):
        budget = 30_000
        while not self.engine.is_legal():
            self.engine.step()
            budget -= 1
            assert budget > 0, "failed to stabilize within 30k rounds"
        assert check_mis(self.graph, self.engine.mis_vertices()) is None

    # -- invariants -------------------------------------------------------
    @invariant()
    def levels_in_range(self):
        if not hasattr(self, "engine"):
            return
        assert (self.engine.levels >= -self.engine.ell_max).all()
        assert (self.engine.levels <= self.engine.ell_max).all()

    @invariant()
    def legality_implementations_agree(self):
        if not hasattr(self, "engine"):
            return
        fast = self.engine.is_legal()
        slow = legal_single(
            self.graph,
            [int(x) for x in self.engine.levels],
            list(self.policy.ell_max),
        )
        assert fast == slow


TestEngineStateMachine = EngineMachine.TestCase
TestEngineStateMachine.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
