"""Fused round kernels: whole-round execution for a block of replicas.

The hear kernel (:mod:`repro.core.kernels.hear`) computes one
*operation* of the round; the engines still assemble each round from a
dozen separate numpy dispatches plus the run-loop bookkeeping around
them.  At the n ≤ 1024 sizes the Theorem-2.1/2.2 sweeps actually run,
that per-round dispatch overhead — not arithmetic — dominates wall
time.  A :class:`RoundKernel` owns the *full* round (hear →
beep-decision → level update → legality/retirement) for a ``(k, n)``
block of replicas, behind a named registry:

* ``fused_numpy`` — the portable baseline: one tight function per
  round, every buffer preallocated, the hear delegated to a
  :class:`~repro.core.kernels.hear.HearKernel`.
* ``fused_packed`` — beep/heard masks packed 64 replicas per ``uint64``
  word (replica-major: one word per vertex); hearing is a CSR gather +
  segmented ``bitwise_or`` over words, and the per-round legality prune
  is an AND-reduction over words — 64 replicas advance per word
  operation.

Both backends run the levels on the narrowest exact plane — int8 up to
ℓmax = 63, int16 above — and decide beeps with
:meth:`BeepTable.decide`, which never builds a probability array.

Byte-identity contract
----------------------
Every backend reproduces the engines' trajectories **bit for bit**: the
random draw layout is unchanged (one ``Generator.random(out=)`` fill of
``n`` doubles per replica per round, served through the same
contiguous-prefix block discipline as the batched engine), beeps come
from the one exact :meth:`BeepTable.decide` test, hear masks equal
``(A @ beeps) > 0`` exactly, and the level select is the same integer
blend the batched engine uses.  Per-row ``rounds``/``mis``/
``final_levels`` equal the step-loop results element for element —
asserted by ``tests/test_round_kernels.py`` and the differential suite.

Live-prefix compaction
----------------------
The engines' step loops shrink work as replicas retire by gathering
the active rows every round (``levels[active_idx]`` + scatter-back).
A fused kernel gets the same shrinking work with **zero per-round
cost**: rows ``[0, live)`` of the block are always the live replicas,
and retiring row ``i`` *moves* the last live row into slot ``i`` (one
row copy, once per retirement) — a permutation recorded so outcomes
land on the right replica.  Every per-round pass (draws, beeps, hear,
blend, prune) then runs on a dense live prefix with no index
materialization.  A retired replica's generator freezes at its
retirement position exactly like the step loop's (its draw stream is
simply dropped from the refill set), and the caller's level block is
rebuilt row for row from the recorded retirement copies on exit, so
the in-place result is identical to the engines'.

Observed runs
-------------
``run_block(..., observer=collector)`` keeps a metrics-on run on the
fused loop.  The legality prune is skipped: the full test runs on the
whole live prefix every round, into preallocated scratch, so both of its
hears take the backend's block hear.  The kernel counts the Section-3
columns per live row from the masks that test already holds — ``|I_t|``,
``|S_t|``, ``|PM_t|`` and channel-2 beeps (:func:`structure_columns`),
plus channel-1 beeps after the step — and hands them to the observer by
replica id (through the compaction permutation) before it retires rows.
The observer reads; it never touches levels or draws, so trajectories
stay byte-identical.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import (
    Any, Dict, FrozenSet, List, Optional, Protocol, Sequence, Tuple, Type,
)

import numpy as np
import numpy.typing as npt

from .hear import HearKernel
from .structure import GraphStructure

__all__ = [
    "BlockOutcome",
    "RoundKernel",
    "FusedNumpyRoundKernel",
    "FusedPackedRoundKernel",
    "ROUND_KERNEL_ALIASES",
    "available_round_kernels",
    "resolve_round_kernel_name",
    "get_round_kernel",
    "PerRoundDraws",
    "BlockDraws",
    "BeepTable",
    "MAX_EXPONENT",
    "AUTO_PACKED_MIN_REPLICAS",
    "plan_round_kernel",
    "row_counts",
    "structure_columns",
]

#: Accepted algorithm tags (mirrors the engines' vocabulary).
ROUND_ALGORITHMS = ("single", "two_channel", "constant_state")

#: Exponent clip for 2^(−ℓ): ℓmax = O(log n) ≤ 60 at any simulable
#: scale, and clipping avoids float overflow on extreme inputs.  Also the
#: largest ℓmax the engines accept (:meth:`BeepTable.checked`).
MAX_EXPONENT = 1023

#: The float64 exponent bias past the 4 mantissa bits of a top int16
#: word: ``u < 2^−ℓ`` iff that word is below ``_THRESHOLD_BASE − 16·ℓ``
#: (see :meth:`BeepTable.decide`).
_THRESHOLD_BASE = 16 * 1023

#: The beep thresholds' dtype, also the draws' view for the test: the
#: thresholds span [0, 32736] and never reach a matvec.
_THRESHOLD_DTYPE = np.int16  # repro: allow[RPR302] in [0, 32736], never a matvec operand

#: Index of a float64's top int16 word (sign, exponent, 4 mantissa bits)
#: in its int16 view.
_TOP = 3 if sys.byteorder == "little" else 0

#: ``round_kernel="auto"`` picks ``fused_packed`` from this many replicas
#: up and the engines' step loop below it.  A conservative pick: the
#: measured crossover lies between 8 and 12 replicas on ER at n = 2^14
#: (``docs/performance.md``, "Fused round tier").
AUTO_PACKED_MIN_REPLICAS = 16

#: Largest ℓmax whose level planes are int8: blend intermediates reach
#: ±2ℓmax, and 2·63 = 126 ≤ 127.
_INT8_MAX_ELL = 63

#: A level block: the engines' int32, or a kernel's int8/int16 plane.
LevelPlane = npt.NDArray[np.signedinteger[Any]]

#: Bit weights of one packed byte: replica ``8·j + b`` is bit ``b`` of
#: byte ``j`` of a vertex's words (little-endian words and bit order).
_BIT_WEIGHTS = (1 << np.arange(8)).astype(np.uint8)[:, None]  # repro: allow[RPR302] packing


@dataclass
class BlockOutcome:
    """Per-replica outcome of a fused block run.

    ``final_levels`` is a fresh copy taken at the replica's retirement
    round: int32 for the level algorithms (whatever the kernel's plane
    dtype), bool for the two-state
    baseline.  Engines convert at their own dtype boundary.
    """

    stabilized: bool
    rounds: int
    mis: FrozenSet[int] = field(default_factory=frozenset)
    final_levels: Optional[np.ndarray] = None


def _int32_copy(row: np.ndarray) -> npt.NDArray[np.int32]:
    """A retirement copy of a narrow level row, cast on store to int32."""
    out = np.empty(row.shape, dtype=np.int32)
    np.copyto(out, row)
    return out


class RoundObserver(Protocol):
    """What a fused run reports to when observed (``BatchedCollector``).

    Replica ids may come in any order; each call's arrays are aligned to
    its ``replicas`` and are scratch the caller reuses next round.
    """

    def observe_structure(
        self,
        replicas: npt.NDArray[np.intp],
        levels: LevelPlane,
        columns: npt.NDArray[np.int32],
        legal: npt.NDArray[np.bool_],
    ) -> None:
        """Start-of-round columns (see :func:`structure_columns`)."""

    def observe_beeps(
        self, replicas: npt.NDArray[np.intp], counts: npt.NDArray[np.int32]
    ) -> None:
        """Channel-1 beeps per stepped replica, right after the step."""


def row_counts(
    mask: npt.NDArray[np.bool_], out: Optional[npt.NDArray[np.int32]] = None
) -> npt.NDArray[np.int32]:
    """Per-row popcount of a boolean block.

    ``einsum`` over the int8 view with an int32 accumulator beats
    ``mask.sum(axis=1)`` by ~2x at batched-row sizes.
    """
    return np.einsum("ij->i", mask.view(np.int8), dtype=np.int32, out=out)


def structure_columns(
    levels: LevelPlane,
    in_mis: npt.NDArray[np.bool_],
    dominated: npt.NDArray[np.bool_],
    scratch: npt.NDArray[np.bool_],
    out: npt.NDArray[np.int32],
) -> npt.NDArray[np.int32]:
    """The Section-3 columns of a ``(k, n)`` block, written into ``out``.

    Rows of ``out`` (shape ``(3, k)``, or ``(4, k)`` for two channels):
    ``|I_t|``, ``|S_t| = |I_t ∪ N(I_t)|``, ``|PM_t| = |{ℓ ≤ 0}|`` and the
    channel-2 beeps ``|{ℓ = 0}|``.  ``in_mis``/``dominated`` are the
    legality test's masks; ``scratch`` is a ``(k, n)`` bool buffer.
    """
    row_counts(in_mis, out[0])
    np.logical_or(in_mis, dominated, out=scratch)
    row_counts(scratch, out[1])
    np.less_equal(levels, 0, out=scratch)
    row_counts(scratch, out[2])
    if out.shape[0] == 4:
        np.equal(levels, 0, out=scratch)
        row_counts(scratch, out[3])
    return out


class BeepTable:
    """The Figure-1 channel-1 activation, for every ℓmax policy.

    ``p`` is a pure function of ``(ℓ, ℓmax_v)``: 1 for ℓ ≤ 0,
    ``2^−min(ℓ, MAX_EXPONENT)`` for 0 < ℓ < ℓmax_v, and 0 at ℓ = ℓmax_v.
    :meth:`decide` makes the engines' beep decision ``u < p`` straight
    from the bits of ``u`` — exactly, with no float64 probability array.
    ``table[ℓ + L]`` over ``L = max ℓmax`` holds the probabilities
    themselves, from the same ``np.power`` call as the direct
    ``clip → negate → power`` formula, as the reference :meth:`lookup`
    reads.  ``ell_max`` must have the levels' dtype so that compares need
    no cast.  Engines build their table with :meth:`checked`.
    """

    __slots__ = ("table", "offset", "ell_max", "uniform")

    def __init__(self, ell_max: npt.ArrayLike):
        ell = np.asarray(ell_max)
        top = int(ell.max()) if ell.size else 0
        exponent = np.arange(-top, top + 1, dtype=np.float64)
        self.table = np.power(2.0, -np.clip(exponent, 0.0, float(MAX_EXPONENT)))
        self.table[-1] = 0.0
        self.offset = top
        self.ell_max = ell
        self.uniform = ell.size == 0 or int(ell.min()) == top

    @classmethod
    def checked(cls, ell_max: npt.ArrayLike) -> "BeepTable":
        """A table whose :meth:`decide` is exact: max ℓmax ≤ MAX_EXPONENT.

        The activation clips at ``2^−MAX_EXPONENT``; past it the
        exponent test no longer matches ``u < p``, so the vectorized
        engines refuse such a policy.  ℓmax = O(log n) never gets near.
        """
        table = cls(ell_max)
        if table.offset > MAX_EXPONENT:
            raise ValueError(
                f"ell_max {table.offset} exceeds {MAX_EXPONENT}, the largest "
                "exponent the vectorized beep decision handles exactly"
            )
        return table

    @staticmethod
    def threshold_scratch(shape: Tuple[int, ...]) -> np.ndarray:
        """A scratch for :meth:`decide`'s ``thr``, shaped like the levels."""
        return np.empty(shape, dtype=_THRESHOLD_DTYPE)

    def decide(
        self,
        levels: np.ndarray,
        draws: npt.NDArray[np.float64],
        out: npt.NDArray[np.bool_],
        thr: np.ndarray,
        below: Optional[npt.NDArray[np.bool_]] = None,
    ) -> npt.NDArray[np.bool_]:
        """Fill ``out`` with the beep decision ``draws < p(levels)``.

        Exact for uniforms ``0 ≤ u < 1`` and ℓmax ≤ MAX_EXPONENT: a
        non-negative double lies below ``2^−ℓ`` (1 ≤ ℓ ≤ 1022) iff its
        biased exponent ``E`` is below ``1023 − ℓ``, i.e. iff its top 16
        bits (sign 0, ``E``, 4 mantissa bits: ``16·E + m``) are below
        ``16368 − 16·ℓ``.  For ℓ ≤ 0 that bound is ≥ 16368, above every
        ``u < 1`` (``E ≤ 1022``), matching ``p = 1``.  ``p = 0`` at
        ℓ = ℓmax_v is the caller's mask: single-channel calls pass a
        ``below`` scratch (``ℓ < ℓmax_v``); two-channel calls pass none
        and AND in their activity band ``0 < ℓ < ℓmax_v``.  ``thr`` is a
        :meth:`threshold_scratch` shaped like ``levels``; ``draws`` may be
        strided across rows but must be contiguous along each row.
        """
        np.multiply(levels, -16, out=thr, dtype=_THRESHOLD_DTYPE)
        np.add(thr, _THRESHOLD_BASE, out=thr)
        np.less(draws.view(_THRESHOLD_DTYPE)[..., _TOP::4], thr, out=out)
        if below is not None:
            np.less(levels, self.ell_max, out=below)
            np.logical_and(out, below, out=out)
        return out

    def lookup(
        self, levels: np.ndarray, p: npt.NDArray[np.float64], idx: np.ndarray,
        below: Optional[npt.NDArray[np.bool_]] = None,
    ) -> npt.NDArray[np.float64]:
        """Fill ``p`` with the activation of ``levels`` and return it.

        The reference the tests hold :meth:`decide` to; no round path
        builds ``p``.  ``idx``/``below`` are caller scratch shaped like
        ``levels``; ``idx`` must be ``np.intp``.  ``below`` silences
        ℓ ≥ ℓmax_v under non-uniform policies.
        """
        np.add(levels, self.offset, out=idx)
        # Indices are always in range; mode="raise" would copy ``p``.
        np.take(self.table, idx, out=p, mode="clip")
        if below is not None and not self.uniform:
            np.less(levels, self.ell_max, out=below)
            np.multiply(p, below, out=p)
        return p


# ----------------------------------------------------------------------
# Draw sources: the RNG-stream adapters between engines and kernels.
# ----------------------------------------------------------------------
class PerRoundDraws:
    """Serve one ``(k, n)`` round of uniforms with zero run-ahead.

    One ``Generator.random(out=row)`` per replica per round — the exact
    draw layout of the solo engines, leaving every generator parked at
    the consumption position when the run returns.  This is the adapter
    the solo fast paths must use: callers like the fault-recovery
    measurement reuse ``engine.rng`` *between* runs, so the generator
    may not run ahead of the trajectory.
    """

    __slots__ = ("_fns", "_buf", "_nlive")

    def __init__(self, rngs: Sequence[np.random.Generator], n: int):
        self._fns = [rng.random for rng in rngs]
        self._buf = np.empty((len(self._fns), n), dtype=np.float64)
        self._nlive = len(self._fns)

    def serve(self) -> npt.NDArray[np.float64]:
        buf = self._buf
        fns = self._fns
        for i in range(self._nlive):
            fns[i](out=buf[i])
        return buf

    def finish(self) -> None:
        """No reconciliation needed — the generators never run ahead."""

    def move_row(self, dst: int, src: int) -> None:
        """Compaction support: stream ``src`` takes over row ``dst``."""
        self._fns[dst] = self._fns[src]

    def shrink(self) -> None:
        """Drop the last row; its generator freezes right here."""
        self._nlive -= 1


class BlockDraws:
    """Serve rounds from shared per-replica pre-draw blocks, adaptively.

    Wraps the batched engine's *own* ``(R, block, n)`` pre-draw storage,
    cursor vector, and bound draw functions, so fused and step-loop runs
    on the same engine consume one continuous stream.  Any rounds the
    engine already pre-drew are consumed first (the entry cursor must be
    aligned — full-block stepping then keeps it aligned for free, so the
    hot serve is a Python-int compare and a strided view).

    Refills **grow geometrically** (8 → 16 → … → the engine's block
    length) instead of always drawing the full block: a stabilization
    run at n = 64 lasts ~30 rounds while the engine's block holds 256,
    so the legacy path generates ~8× the uniforms it consumes.  A
    replica still consumes a contiguous prefix of its own stream —
    uniform doubles are generated sequentially, so chunk size never
    changes a served value — which keeps trajectories byte-identical;
    only the unobservable generator run-ahead shrinks.  :meth:`finish`
    reconciles the engine cursor on exit so step-loop rounds can follow
    a fused run without skipping or replaying a draw.
    """

    __slots__ = (
        "_blocks",
        "_cursor",
        "_fns",
        "_block",
        "_chunk",
        "_pos",
        "_grow",
        "_nlive",
        "_dirty",
    )

    def __init__(
        self,
        blocks: npt.NDArray[np.float64],
        cursor: npt.NDArray[np.intp],
        draw_fns: Sequence,
        min_chunk: int = 8,
    ):
        self._blocks = blocks
        self._cursor = cursor
        self._fns = list(draw_fns)
        self._block = blocks.shape[1]
        # Adopt the engine's aligned cursor: rows [pos, chunk) of the
        # block storage are already-drawn stream to serve before any
        # refill.  A fresh engine starts exhausted (pos == chunk).
        self._pos = int(cursor[0]) if cursor.size else 0
        self._chunk = self._block
        self._grow = min(min_chunk, self._block)
        self._nlive = blocks.shape[0]
        self._dirty = False

    def aligned(self) -> bool:
        """True iff every replica cursor sits at the same position."""
        cursor = self._cursor
        return bool(cursor.size == 0 or np.all(cursor == cursor[0]))

    def serve(self) -> npt.NDArray[np.float64]:
        pos = self._pos
        if pos == self._chunk:
            blocks = self._blocks
            fns = self._fns
            chunk = self._grow
            if chunk >= self._block:
                chunk = self._block
                for r in range(self._nlive):
                    fns[r](out=blocks[r])
            else:
                for r in range(self._nlive):
                    fns[r](out=blocks[r, :chunk])
                self._grow = chunk * 2
            self._chunk = chunk
            pos = 0
        self._pos = pos + 1
        return self._blocks[:, pos]

    def move_row(self, dst: int, src: int) -> None:
        """Compaction support: stream ``src`` takes over row ``dst``.

        Copies the not-yet-served tail of ``src``'s pre-drawn stream
        (one strided row copy, once per retirement) so the relocated
        replica keeps consuming the exact values its generator already
        produced.  The retired stream previously in ``dst`` is simply
        dropped — its generator freezes at the retirement position,
        exactly like the step loop's.
        """
        self._fns[dst] = self._fns[src]
        pos, chunk = self._pos, self._chunk
        if pos < chunk:
            self._blocks[dst, pos:chunk] = self._blocks[src, pos:chunk]

    def shrink(self) -> None:
        """Drop the last row from the refill set (post :meth:`move_row`).

        Any retirement leaves *some* generator frozen behind the shared
        cursor, so the block can no longer be described by one uniform
        position — :meth:`finish` then marks it exhausted.
        """
        self._nlive -= 1
        self._dirty = True

    def finish(self) -> None:
        """Reconcile the engine cursor after a fused run.

        With a full-width serving window and no retirements the whole
        block holds valid contiguous stream, so the engine can keep
        consuming from ``pos``.  After a partial refill (stale tail) or
        any retirement (a frozen generator behind the cursor), mark the
        block exhausted so the engine's next step refills lazily from
        the generators — each of which sits exactly where its replica's
        stream left off.
        """
        if self._chunk == self._block and not self._dirty:
            self._cursor[:] = self._pos
        else:
            self._cursor[:] = self._block


# ----------------------------------------------------------------------
# Base class: the fused run loop + the numpy round bodies.
# ----------------------------------------------------------------------
class RoundKernel:
    """Whole-round execution for a ``(k, n)`` replica block.

    One instance is bound to a graph structure, an algorithm tag, an
    ℓmax policy vector, and a replica count; engines construct it
    through :func:`get_round_kernel` (lint rule RPR403) and delegate
    their run loops via :meth:`run_block` / :meth:`run_constant` when
    the configuration is eligible (see ``docs/performance.md``).
    """

    name: str = "abstract"

    def __init__(
        self,
        structure: GraphStructure,
        *,
        algorithm: str,
        ell_max: npt.ArrayLike,
        replicas: int = 1,
    ):
        if algorithm not in ROUND_ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; choose one of {ROUND_ALGORITHMS}"
            )
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.structure = structure
        self.algorithm = algorithm
        self.n = structure.n
        self.replicas = replicas
        k, n = replicas, structure.n
        self._single = algorithm == "single"
        self._two = algorithm == "two_channel"
        self._constant = algorithm == "constant_state"
        #: The hear backend for the boolean aggregation sub-steps that
        #: stay unpacked (legality confirms, the numpy baseline's hear).
        self._hear = HearKernel(structure)
        if self._constant:
            self.ell_max = None
            self._ell = None
            self._floor = None
            self._neg_ell = None
            self._one = None
            self._p_table: Optional[BeepTable] = None
        else:
            self.ell_max = np.asarray(ell_max, dtype=np.int64)
            if self.ell_max.shape not in ((), (n,)):
                raise ValueError(f"ell_max must be scalar or shape ({n},)")
            # Narrow level planes: every level and blend intermediate lies
            # in [−2ℓmax, 2ℓmax], so int8 holds them all up to ℓmax = 63
            # and int16 up to MAX_EXPONENT.  The planes never reach a
            # matvec; only bool masks are heard.
            top = int(self.ell_max.max()) if self.ell_max.size else 0
            plane = np.int8 if top <= _INT8_MAX_ELL else np.int16  # repro: allow[RPR302] |blend| ≤ 2ℓmax, never a matvec operand
            floor = (
                -self.ell_max if self._single else np.zeros_like(self.ell_max)
            )
            # Row-shaped operands: numpy's min/max loops vectorize
            # against a vector but not against a broadcast scalar (~20×
            # slower on int8 planes), hence ``_one`` for ``max(ℓ − 1, 1)``.
            self._ell = np.broadcast_to(self.ell_max, (n,)).astype(plane)
            self._floor = np.broadcast_to(floor, (n,)).astype(plane)
            self._neg_ell = -self._ell
            self._one = np.ones(n, dtype=plane)
            self._p_table = BeepTable.checked(self._ell)
            # The working level block (cast from the caller's int32 on
            # entry), the blend scratch and the beep thresholds.
            # ``_plane`` is the single channel's ping-pong partner and
            # the two-channel select scratch.
            self._levels = np.empty((k, n), dtype=plane)
            self._plane = np.empty((k, n), dtype=plane)
            self._up = np.empty((k, n), dtype=plane)
            self._sel = np.empty((k, n), dtype=plane)
            self._thr = BeepTable.threshold_scratch((k, n))
        # ---- per-round scratch, bound once (hot-path contract) -------
        self._beeps = np.empty((k, n), dtype=bool)
        self._mask_a = np.empty((k, n), dtype=bool)
        self._mask_b = np.empty((k, n), dtype=bool)
        hear_rows = 2 * k if self._two else k
        self._heard = np.empty((hear_rows, n), dtype=bool)
        self._stack = (
            np.empty((2 * k, n), dtype=bool) if self._two else None
        )
        self._cand = np.empty(k, dtype=bool)
        self._row_any = np.empty(k, dtype=bool)
        # Observed runs: the Section-3 columns and channel-1 beep counts.
        self._columns = np.empty((4 if self._two else 3, k), dtype=np.int32)
        self._beep_counts = np.empty(k, dtype=np.int32)
        self._cur_live = k
        self._draws_source: "PerRoundDraws | BlockDraws | None" = None

    # -- setup helpers (run once per construction / run, not per round)
    def _begin_run(self, k: int) -> None:
        """Per-run state reset (delegates to the shrink hook)."""
        self._after_shrink(k)

    def _after_shrink(self, live: int) -> None:
        """Post-retirement hook: record the new live-prefix length.

        The packed backend extends this by rebuilding its alive-prefix
        word mask.  Runs once per retirement batch, not per round.
        """
        self._cur_live = live

    # ------------------------------------------------------------------
    # The fused run loop (level algorithms)
    # ------------------------------------------------------------------
    def run_block(
        self,
        levels: npt.NDArray[np.int32],
        draws: "PerRoundDraws | BlockDraws",
        max_rounds: int,
        check_every: int = 1,
        observer: Optional[RoundObserver] = None,
    ) -> Tuple[List[BlockOutcome], int]:
        """Drive a ``(k, n)`` int32 level block to per-row legality.

        The block is cast once onto the kernel's narrow plane; the
        observer, if any, sees that plane's rows.

        Mirrors the engines' run loops exactly: legality is observed
        before stepping at rounds ``0, check_every, 2·check_every, …``
        plus once at budget exhaustion, so each row's ``rounds`` equals
        the step loop's.  Rows are compacted as replicas retire (see
        the module docstring), and ``levels`` is rebuilt in place from
        the per-replica retirement copies on exit.  Returns
        ``(outcomes, steps_executed)``.

        ``observer`` (see "Observed runs" in the module docstring) gets
        every round's columns, whatever the check cadence, exactly as
        the engines' step loop feeds a collector.
        """
        if self._constant:
            raise ValueError("run_block is for level algorithms; use run_constant")
        if check_every < 1:
            raise ValueError("check_every must be >= 1")
        self._draws_source = draws
        k = levels.shape[0]
        outcomes: List[Optional[BlockOutcome]] = [None] * k
        perm = np.arange(k)
        live = k
        self._begin_run(k)
        # One cast onto the narrow plane; the caller's block is rebuilt
        # from the int32 retirement copies on exit.
        cur = self._levels[:k]
        np.copyto(cur, levels)
        nxt = self._plane[:k]
        executed = 0
        masks_fresh = False
        step = self._step_single if self._single else self._step_two
        while True:
            should_check = executed % check_every == 0 or executed >= max_rounds
            verdict = None
            if observer is not None:
                verdict = self._observe_legal(cur[:live], perm[:live], observer)
            if should_check:
                live = self._retire_legal(
                    cur, live, perm, outcomes, executed, masks_fresh, draws,
                    verdict,
                )
                if live == 0:
                    break
            if executed >= max_rounds:
                # Budget exhausted: record the still-live prefix as-is.
                for i in range(live):
                    outcomes[perm[i]] = BlockOutcome(
                        stabilized=False,
                        rounds=executed,
                        mis=frozenset(),
                        final_levels=_int32_copy(cur[i]),
                    )
                break
            if self._single:
                step(cur[:live], nxt[:live], live)
                cur, nxt = nxt, cur
            else:
                step(cur[:live], live)
            if observer is not None:
                beep1 = self._beeps[:live] if self._single else self._stack[:live]
                observer.observe_beeps(
                    perm[:live], row_counts(beep1, self._beep_counts[:live])
                )
            masks_fresh = True
            executed += 1
        # The narrow working rows are permuted by compaction (and the
        # single channel may have ended on the scratch plane); every
        # replica's ground truth is its recorded int32 copy.  One pass,
        # once per run.
        for r in range(k):
            np.copyto(levels[r], outcomes[r].final_levels)
        return outcomes, executed  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Legality + retirement
    # ------------------------------------------------------------------
    def _candidate_rows(
        self,
        cur: LevelPlane,
        masks_fresh: bool,
    ) -> npt.NDArray[np.bool_]:
        """Live rows worth the full legality test (necessary prune).

        ``cur`` is the live prefix.  The baseline prune is the
        engines': a legal row holds only floor/ℓmax levels.  Backends
        may override with a cheaper necessary condition (the packed
        kernel prunes on last-step beep/heard words when
        ``masks_fresh``); any sound prune yields the identical per-row
        verdict because the full test decides.
        """
        k = cur.shape[0]
        eq = self._mask_a[:k]
        other = self._mask_b[:k]
        np.equal(cur, self._floor, out=eq)
        np.equal(cur, self._ell, out=other)
        np.logical_or(eq, other, out=eq)
        cand = self._cand[:k]
        np.all(eq, axis=1, out=cand)
        return cand

    def _observe_legal(
        self,
        cur: LevelPlane,
        replicas: npt.NDArray[np.intp],
        observer: RoundObserver,
    ) -> Tuple[npt.NDArray[np.bool_], npt.NDArray[np.bool_]]:
        """Full legality of the live prefix ``cur``, reported to ``observer``.

        The unpruned twin of :meth:`_retire_legal`'s test, on
        preallocated scratch: both hears see ``live`` rows and so take
        :meth:`_hear_block`.  The beep scratch holds ``in_mis`` (the
        last step's beeps were already counted).  Returns
        ``(legal, in_mis)`` over the live rows.
        """
        k = cur.shape[0]
        ne = self._mask_a[:k]
        np.not_equal(cur, self._ell, out=ne)
        free = self._hear_block(ne, self._heard[:k])
        np.logical_not(free, out=free)
        in_mis = self._beeps[:k]
        np.equal(cur, self._floor, out=in_mis)
        np.logical_and(in_mis, free, out=in_mis)
        dominated = self._hear_block(in_mis, self._heard[:k])
        ok = self._mask_a[:k]
        np.equal(cur, self._ell, out=ok)
        np.logical_and(ok, dominated, out=ok)
        np.logical_or(ok, in_mis, out=ok)
        legal = self._cand[:k]
        np.all(ok, axis=1, out=legal)
        columns = structure_columns(
            cur, in_mis, dominated, self._mask_b[:k], self._columns[:, :k]
        )
        observer.observe_structure(replicas, cur, columns, legal)
        return legal, in_mis

    def _retire_legal(
        self,
        cur: LevelPlane,
        live: int,
        perm: npt.NDArray[np.intp],
        outcomes: List[Optional[BlockOutcome]],
        executed: int,
        masks_fresh: bool,
        draws: "PerRoundDraws | BlockDraws",
        verdict: Optional[
            Tuple[npt.NDArray[np.bool_], npt.NDArray[np.bool_]]
        ] = None,
    ) -> int:
        """Test-and-retire legal rows; returns the new live count.

        ``verdict`` is an observed run's ``(legal, in_mis)`` over the
        whole live prefix; without one, the prune picks candidate rows
        and the full test runs on those alone.

        Retirement compacts the live prefix: the last live row *moves*
        into the retired slot (levels row, draw stream, and permutation
        entry), so every per-round pass keeps operating on dense rows
        ``[0, live)``.  Rows are processed in descending order so each
        move sources a still-live tail row.
        """
        if verdict is None:
            cand = self._candidate_rows(cur[:live], masks_fresh)
            if not cand.any():
                return live
            # Candidate rows are rare (at/after convergence), so the full
            # test runs on a data-dependent gather; its intermediates are
            # shaped by the candidate count and cannot be preallocated.
            idx = np.flatnonzero(cand)
            rows = cur[idx]
            ne = rows != self._ell
            blocked = self._hear.hear_rows(ne)
            in_mis = (rows == self._floor) & ~blocked
            dominated = self._hear.hear_rows(in_mis)
            ok = in_mis | ((rows == self._ell) & dominated)
            legal = np.all(ok, axis=1)
        else:
            legal, in_mis = verdict
            idx = None
        if not legal.any():
            return live
        for jj in np.flatnonzero(legal)[::-1].tolist():
            j = jj if idx is None else int(idx[jj])
            outcomes[perm[j]] = BlockOutcome(
                stabilized=True,
                rounds=executed,
                mis=frozenset(np.flatnonzero(in_mis[jj]).tolist()),
                final_levels=_int32_copy(cur[j]),
            )
            last = live - 1
            if j != last:
                np.copyto(cur[j], cur[last])
                perm[j] = perm[last]
                draws.move_row(j, last)
            draws.shrink()
            live = last
        self._after_shrink(live)
        return live

    # ------------------------------------------------------------------
    # Round bodies (numpy baseline; the packed backend overrides)
    # ------------------------------------------------------------------
    def _hear_block(
        self, rows: npt.NDArray[np.bool_], out: npt.NDArray[np.bool_]
    ) -> npt.NDArray[np.bool_]:
        """Hear for the freshly computed beep block (backend hook)."""
        return self._hear.hear_rows(rows, out=out)

    def _step_single(
        self,
        cur: LevelPlane,
        nxt: LevelPlane,
        k: int,
    ) -> None:
        """One Algorithm-1 round, writing the new levels into ``nxt``.

        Operation for operation the batched engine's ideal-path step:
        the same :meth:`BeepTable.decide` beep decision,
        the same hear booleans, and the same branch-free integer blend
        ``x + (y − x)·mask`` for ``where(heard, up, where(beeps, −ℓmax,
        down))`` — hence bit-identical trajectories.
        """
        draws = self._serve()[:k]
        up = self._up[:k]
        np.add(cur, 1, out=up)
        np.minimum(up, self._ell, out=up)
        beeps = self._p_table.decide(
            cur, draws, self._beeps[:k], self._thr[:k], self._mask_a[:k]
        )
        heard = self._hear_block(beeps, self._heard[:k])
        np.subtract(cur, 1, out=nxt)
        np.maximum(nxt, self._one, out=nxt)
        sel = self._sel[:k]
        np.subtract(self._neg_ell, nxt, out=sel)
        np.multiply(sel, beeps, out=sel)
        np.add(nxt, sel, out=nxt)
        np.subtract(up, nxt, out=sel)
        np.multiply(sel, heard, out=sel)
        np.add(nxt, sel, out=nxt)

    def _step_two(self, cur: LevelPlane, k: int) -> None:
        """One Algorithm-2 round, updating ``cur`` in place.

        Both channels' beeps are stacked into one hear call (as on the
        batched engine's ideal path) and the solo priority order
        ``heard2 > heard1 > beep1 > ~beep2`` is applied in reverse —
        as branch-free integer blends rather than the engines' masked
        ``copyto`` calls, which cost several times more per pass for
        the identical integers (``np.copyto(..., where=)`` takes a
        buffered scalar path; the blends stream through SIMD loops).
        """
        draws = self._serve()[:k]
        up = self._up[:k]
        np.add(cur, 1, out=up)
        np.minimum(up, self._ell, out=up)
        band = self._mask_a[:k]
        hi = self._mask_b[:k]
        np.greater(cur, 0, out=band)
        np.less(cur, self._ell, out=hi)
        np.logical_and(band, hi, out=band)
        stacked = self._stack[: 2 * k]
        beep1 = self._p_table.decide(cur, draws, stacked[:k], self._thr[:k])
        np.logical_and(beep1, band, out=beep1)
        beep2 = stacked[k:]
        np.equal(cur, 0, out=beep2)
        heard = self._hear_block(stacked, self._heard[: 2 * k])
        heard1 = heard[:k]
        heard2 = heard[k:]
        down = self._sel[:k]
        np.subtract(cur, 1, out=down)
        np.maximum(down, self._one, out=down)
        not_beep2 = self._mask_b[:k]
        np.logical_not(beep2, out=not_beep2)
        # ``beep2`` is exactly ``cur == 0``, so keeping level 0 there
        # and taking ``down`` elsewhere is one masked product.
        np.multiply(down, not_beep2, out=cur)
        sel = self._plane[:k]
        np.multiply(cur, beep1, out=sel)
        np.subtract(cur, sel, out=cur)
        np.subtract(up, cur, out=sel)
        np.multiply(sel, heard1, out=sel)
        np.add(cur, sel, out=cur)
        np.subtract(self._ell, cur, out=sel)
        np.multiply(sel, heard2, out=sel)
        np.add(cur, sel, out=cur)

    # ------------------------------------------------------------------
    # Two-state baseline
    # ------------------------------------------------------------------
    def run_constant(
        self,
        in_mis: npt.NDArray[np.bool_],
        draws: "PerRoundDraws | BlockDraws",
        max_rounds: int,
    ) -> Tuple[List[BlockOutcome], int]:
        """Drive a ``(k, n)`` bool membership block to per-row MIS.

        The loop mirrors ``simulate_constant_state``: legality observed
        every round (including round 0) before stepping, budget checked
        between observation and step.  ``in_mis`` is updated in place.
        """
        if not self._constant:
            raise ValueError(
                "run_constant requires a constant_state round kernel"
            )
        self._draws_source = draws
        k = in_mis.shape[0]
        outcomes: List[Optional[BlockOutcome]] = [None] * k
        perm = list(range(k))
        live = k
        self._begin_run(k)
        executed = 0
        while True:
            live = self._retire_constant(
                in_mis, live, perm, outcomes, executed, draws
            )
            if live == 0:
                break
            if executed >= max_rounds:
                for i in range(live):
                    outcomes[perm[i]] = BlockOutcome(
                        stabilized=False,
                        rounds=executed,
                        mis=frozenset(),
                        final_levels=in_mis[i].copy(),
                    )
                break
            self._step_constant(in_mis[:live], live)
            executed += 1
        # Rebuild the caller's block from the per-replica records (the
        # compaction permuted rows in place).  Once per run.
        for r in range(k):
            np.copyto(in_mis[r], outcomes[r].final_levels)
        return outcomes, executed  # type: ignore[return-value]

    def _retire_constant(
        self,
        in_mis: npt.NDArray[np.bool_],
        live: int,
        perm: List[int],
        outcomes: List[Optional[BlockOutcome]],
        executed: int,
        draws: "PerRoundDraws | BlockDraws",
    ) -> int:
        rows = in_mis[:live]
        heard = self._hear_block(rows, self._heard[:live])
        clash = self._mask_a[:live]
        np.logical_and(rows, heard, out=clash)
        covered = self._mask_b[:live]
        np.logical_or(rows, heard, out=covered)
        legal = self._cand[:live]
        np.all(covered, axis=1, out=legal)
        # independent: no IN vertex heard another IN vertex.
        any_clash = self._row_any[:live]
        np.logical_or.reduce(clash, axis=1, out=any_clash)
        np.logical_not(any_clash, out=any_clash)
        np.logical_and(legal, any_clash, out=legal)
        if not legal.any():
            return live
        # Legal two-state rows are draw-independent fixed points (IN
        # hears nothing so it stays; OUT hears so it cannot rejoin) —
        # compact them out exactly like the level algorithms.
        for j in np.flatnonzero(legal)[::-1].tolist():
            outcomes[perm[j]] = BlockOutcome(
                stabilized=True,
                rounds=executed,
                mis=frozenset(np.flatnonzero(in_mis[j]).tolist()),
                final_levels=in_mis[j].copy(),
            )
            last = live - 1
            if j != last:
                np.copyto(in_mis[j], in_mis[last])
                perm[j] = perm[last]
                draws.move_row(j, last)
            draws.shrink()
            live = last
        self._after_shrink(live)
        return live

    def _step_constant(self, in_mis: npt.NDArray[np.bool_], k: int) -> None:
        """One two-state round in place (same booleans as the engine)."""
        draws = self._serve()[:k]
        beeps = self._beeps[:k]
        np.copyto(beeps, in_mis)
        heard = self._hear_block(beeps, self._heard[:k])
        coin = self._mask_a[:k]
        np.less(draws, 0.5, out=coin)
        # stay = in & ~(heard & coin)   (== in & ~retreat)
        stay = self._mask_b[:k]
        np.logical_and(heard, coin, out=stay)
        np.logical_not(stay, out=stay)
        np.logical_and(in_mis, stay, out=stay)
        # rejoin = ~in & ~heard & coin
        rejoin = coin
        np.logical_or(in_mis, heard, out=self._beeps[:k])
        np.logical_not(self._beeps[:k], out=self._beeps[:k])
        np.logical_and(rejoin, self._beeps[:k], out=rejoin)
        np.logical_or(stay, rejoin, out=in_mis)

    # ------------------------------------------------------------------
    # Draw plumbing
    # ------------------------------------------------------------------
    def _serve(self) -> npt.NDArray[np.float64]:
        return self._draws_source.serve()


class FusedNumpyRoundKernel(RoundKernel):
    """The portable single-pass baseline (numpy ufuncs + hear kernel)."""

    name = "fused_numpy"


class FusedPackedRoundKernel(RoundKernel):
    """Bit-packed state: 64 replicas per ``uint64`` word.

    Layout (replica-major — the transpose of the adjacency bitset): word
    ``words[v, w]`` holds bit ``r − 64·w`` of replica ``r`` at vertex
    ``v``, so *hearing all replicas at a vertex* is a single word OR.
    One round packs the fresh beep block once, gathers the neighbor
    words through the CSR index array, OR-reduces each vertex's segment
    (``np.bitwise_or.reduceat``), and unpacks the heard words back to
    the boolean plane.  Packing is a weighted OR over each group of 8
    replica rows and unpacking a mask test per bit weight, both streaming
    over contiguous rows; only the ``(bytes, n)`` byte image is
    transposed.  Transposing the whole ``(k, n)`` boolean block around
    ``np.packbits``/``np.unpackbits`` instead cost ~2.6 ms a round at
    k = 64, n = 2¹⁴ against ~0.2 ms, and its stride-n reads ran up to
    ~10× slower again on blocks backed by a transparent huge page.
    The legality prune is word-parallel too: after a step, a row can
    only be legal if every vertex beeped or heard (legal configurations
    are exactly the fixed points), which is one AND-reduction over the
    ``(n, W)`` word array instead of three passes over the ``(k, n)``
    level planes.

    The two-state baseline has no batched engine (k = 1), so this
    backend inherits the unpacked constant-state path — with one replica
    per word there is nothing to pack against.
    """

    name = "fused_packed"

    def __init__(
        self,
        structure: GraphStructure,
        *,
        algorithm: str,
        ell_max: npt.ArrayLike,
        replicas: int = 1,
    ):
        super().__init__(
            structure, algorithm=algorithm, ell_max=ell_max, replicas=replicas
        )
        k, n = self.replicas, self.n
        csr = structure.csr
        self._indptr = np.asarray(csr.indptr)
        self._indices = np.asarray(csr.indices)
        degrees = np.diff(self._indptr)
        self._nonempty = np.flatnonzero(degrees > 0)
        self._has_empty = self._nonempty.size != n
        self._starts = self._indptr[self._nonempty]
        # Packed planes for the stacked mask block: the single channel
        # packs k beep rows; the two-channel algorithm packs 2k (both
        # channels in one gather) with each channel's half starting at a
        # word boundary, so word ``W1 + w`` of a vertex is the channel-2
        # image of word ``w`` and the per-vertex cross-channel union the
        # legality prune needs is a plain word OR.
        w1 = (k + 63) // 64
        self._w1 = w1
        # One word plane set per block height the hear packs: ``live``
        # rows (one channel — the single-channel step and every legality
        # hear) and, for two channels, the stacked ``2·live`` step block.
        self._planes1 = self._word_planes(w1)
        self._planes2 = self._word_planes(2 * w1) if self._two else None
        main = self._planes2 if self._two else self._planes1
        self._beep_words, self._heard_words = main[0], main[1]
        # Pack/unpack scratch.  Bytes past a block's live rows keep stale
        # bits that nothing reads: unpacking stops at the live rows and
        # the prune masks with ``_alive_words``.
        nbytes = (k + 7) // 8
        self._bit_planes = np.empty((nbytes, 8, n), dtype=np.uint8)  # repro: allow[RPR302] packing
        self._byte_rows = np.empty((nbytes, n), dtype=np.uint8)  # repro: allow[RPR302] packing
        self._union_words = np.empty_like(self._beep_words)
        self._cross_words = np.empty((n, w1), dtype=np.uint64)
        self._alive_words = np.empty(w1, dtype=np.uint64)
        self._covered = np.empty(w1, dtype=np.uint64)
        self._after_shrink(k)

    def _word_planes(self, words: int) -> Tuple[np.ndarray, ...]:
        """Beep/heard words ``(n, words)``, their byte images, and gather."""
        beep = np.zeros((self.n, words), dtype=np.uint64)
        heard = np.zeros((self.n, words), dtype=np.uint64)
        return (
            beep,
            heard,
            beep.view(np.uint8),  # repro: allow[RPR302] packing
            heard.view(np.uint8),  # repro: allow[RPR302] packing
            np.empty((self._indices.size, words), dtype=np.uint64),
        )

    def _hear_block(
        self, rows: npt.NDArray[np.bool_], out: npt.NDArray[np.bool_]
    ) -> npt.NDArray[np.bool_]:
        """Word-parallel hear: pack → gather → segmented OR → unpack.

        For every vertex ``v``, ``heard_words[v] = OR of beep_words[u]
        over u ∈ N(v)`` — bit ``r`` of the result is exactly replica
        ``r``'s ``(A @ beeps) > 0`` boolean, so the unpacked plane is
        bit-identical to the hear kernel's.  A block of ``live`` rows
        packs one channel; the two-channel step's stacked ``2·live``
        block packs both, each half from a word boundary.
        """
        live = self._cur_live
        if not self._constant and rows.shape[0] == live:
            planes, channels = self._planes1, 1
        elif self._two and rows.shape[0] == 2 * live:
            planes, channels = self._planes2, 2
        else:
            # The constant baseline and unobserved legality confirms hand
            # in other row counts; route them through the unpacked hear
            # kernel (identical booleans).
            return self._hear.hear_rows(rows, out=out)
        beep_words, heard_words, beep_bytes, heard_bytes, gather = planes
        byte2 = 8 * self._w1
        for c in range(channels):
            self._pack_rows(rows[c * live : (c + 1) * live], c * byte2, beep_bytes)
        if self._starts.size:
            np.take(beep_words, self._indices, axis=0, out=gather)
            reduced = np.bitwise_or.reduceat(gather, self._starts, axis=0)
            if self._has_empty:
                # Isolated vertices hear nothing; their words stay the
                # zeros they were initialized to.
                heard_words[self._nonempty] = reduced
            else:
                np.copyto(heard_words, reduced)
        for c in range(channels):
            self._unpack_rows(c * byte2, out[c * live : (c + 1) * live], heard_bytes)
        return out

    def _pack_rows(
        self, rows: npt.NDArray[np.bool_], byte0: int, beep_bytes: np.ndarray
    ) -> None:
        """Pack contiguous bool ``rows`` into ``beep_bytes`` from ``byte0``."""
        n = self.n
        full, rem = divmod(rows.shape[0], 8)
        planes, acc = self._bit_planes, self._byte_rows
        if full:
            blocks = rows[: 8 * full].reshape(full, 8, n)
            np.multiply(blocks, _BIT_WEIGHTS, out=planes[:full])
            np.bitwise_or.reduce(planes[:full], axis=1, out=acc[:full])
        if rem:
            np.multiply(rows[8 * full :], _BIT_WEIGHTS[:rem], out=planes[full, :rem])
            np.bitwise_or.reduce(planes[full, :rem], axis=0, out=acc[full])
        nb = full + (rem > 0)
        beep_bytes[:, byte0 : byte0 + nb] = acc[:nb].T

    def _unpack_rows(
        self, byte0: int, out: npt.NDArray[np.bool_], heard_bytes: np.ndarray
    ) -> None:
        """Unpack ``heard_bytes`` from ``byte0`` into contiguous ``out``."""
        n = self.n
        full, rem = divmod(out.shape[0], 8)
        planes, acc = self._bit_planes, self._byte_rows
        nb = full + (rem > 0)
        np.copyto(acc[:nb], heard_bytes[:, byte0 : byte0 + nb].T)
        if full:
            np.bitwise_and(acc[:full, None, :], _BIT_WEIGHTS, out=planes[:full])
            blocks = out[: 8 * full].reshape(full, 8, n)
            np.not_equal(planes[:full], 0, out=blocks)
        if rem:
            np.bitwise_and(acc[full], _BIT_WEIGHTS[:rem], out=planes[full, :rem])
            np.not_equal(planes[full, :rem], 0, out=out[8 * full :])

    def _candidate_rows(
        self,
        cur: LevelPlane,
        masks_fresh: bool,
    ) -> npt.NDArray[np.bool_]:
        """Word-parallel prune on the last step's beep/heard words.

        After a step, a vertex can sit at the floor only by beeping
        unheard and at ℓmax only by hearing, so a legal row must have
        ``beeped | heard`` at *every* vertex (two-channel: on either
        channel).  That necessary condition is one AND-reduction over
        the packed word array — 64 replicas per word op — and rows
        failing it skip the level prune entirely.  When only a handful
        of rows survive (the typical near-convergence round), the
        level condition is confirmed row by row instead of over the
        whole live block.  Sound prunes don't change verdicts: the
        full test still decides every candidate.
        """
        if not masks_fresh:
            return super()._candidate_rows(cur, masks_fresh)
        k = cur.shape[0]
        union = self._union_words
        np.bitwise_or(self._beep_words, self._heard_words, out=union)
        if self._two:
            # Per-vertex cross-channel union: a legal row needs every
            # vertex to have beeped or heard on *either* channel, and
            # the word-aligned halves make that one word OR.
            cross = self._cross_words
            np.bitwise_or(
                union[:, : self._w1], union[:, self._w1 :], out=cross
            )
            base = cross
        else:
            base = union
        covered = self._covered
        np.bitwise_and.reduce(base, axis=0, out=covered)
        np.bitwise_and(covered, self._alive_words, out=covered)
        if not covered.any():
            # The common pre-convergence round: four word ops, no
            # unpack, no pass over the level planes.
            cand = self._cand[:k]
            cand[:] = False
            return cand
        bits = np.unpackbits(
            covered.view(np.uint8),  # repro: allow[RPR302] word reinterpret
            bitorder="little",
            count=k,
        )
        idx = np.flatnonzero(bits)
        if idx.size > 4:
            # Coverage is block-wide (e.g. a dense near-converged
            # block): the vectorized level prune over all live rows is
            # cheaper than many per-row passes.
            return super()._candidate_rows(cur, masks_fresh)
        cand = self._cand[:k]
        cand[:] = False
        eq = self._mask_a[0]
        other = self._mask_b[0]
        for i in idx.tolist():
            row = cur[i]
            np.equal(row, self._floor, out=eq)
            np.equal(row, self._ell, out=other)
            np.logical_or(eq, other, out=eq)
            cand[i] = bool(eq.all())
        return cand

    def _after_shrink(self, live: int) -> None:
        super()._after_shrink(live)
        words = self._alive_words
        words[:] = 0
        full, rem = divmod(live, 64)
        if full:
            words[:full] = ~np.uint64(0)
        if rem:
            words[full] = np.uint64((1 << rem) - 1)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_ROUND_KERNELS: Dict[str, Type[RoundKernel]] = {
    FusedNumpyRoundKernel.name: FusedNumpyRoundKernel,
    FusedPackedRoundKernel.name: FusedPackedRoundKernel,
}

#: CLI-friendly short names (plus ``auto``).
ROUND_KERNEL_ALIASES: Dict[str, str] = {
    "numpy": FusedNumpyRoundKernel.name,
    "packed": FusedPackedRoundKernel.name,
}


def available_round_kernels() -> Tuple[str, ...]:
    """Registered round-kernel names, sorted."""
    return tuple(sorted(_ROUND_KERNELS))


def resolve_round_kernel_name(name: str) -> str:
    """Canonical round-kernel name (aliases and ``auto`` resolved).

    ``auto`` picks ``fused_packed``, the word-parallel backend; whether a
    block is big enough for it is :func:`plan_round_kernel`'s call.
    """
    name = ROUND_KERNEL_ALIASES.get(name, name)
    if name == "auto":
        return FusedPackedRoundKernel.name
    if name not in _ROUND_KERNELS:
        choices = ("auto",) + tuple(ROUND_KERNEL_ALIASES) + tuple(sorted(_ROUND_KERNELS))
        raise ValueError(
            f"unknown round kernel {name!r}; choose one of {sorted(set(choices))}"
        )
    return name


def plan_round_kernel(
    name: Optional[str], replicas: int
) -> Tuple[Optional[str], Optional[str]]:
    """An engine's pinned round-kernel choice for a block of ``replicas``.

    Returns ``(kernel, reason)``: the resolved kernel name, or ``None``
    for the step loop, plus the fallback reason ``"replicas<16"`` when
    ``auto`` chose the step loop because the block has fewer than
    :data:`AUTO_PACKED_MIN_REPLICAS` replicas to pack.  ``name=None``
    asks for the step loop outright, which is not a fallback.
    """
    if name is None:
        return None, None
    if name == "auto" and replicas < AUTO_PACKED_MIN_REPLICAS:
        return None, f"replicas<{AUTO_PACKED_MIN_REPLICAS}"
    return resolve_round_kernel_name(name), None


def get_round_kernel(
    name: str,
    structure: GraphStructure,
    *,
    algorithm: str,
    ell_max: npt.ArrayLike = None,
    replicas: int = 1,
) -> RoundKernel:
    """Instantiate the (resolved) round kernel ``name``.

    This is the one blessed construction point: engines must route
    round-kernel creation through here rather than instantiating the
    ``Fused*RoundKernel`` classes directly (lint rule RPR403), so the
    registry's name resolution is never bypassed.  ``auto`` always builds ``fused_packed`` here; whether a
    block is big enough for it is the engines' call
    (:func:`plan_round_kernel`).
    """
    resolved = resolve_round_kernel_name(name)
    return _ROUND_KERNELS[resolved](
        structure, algorithm=algorithm, ell_max=ell_max, replicas=replicas
    )
