"""The hear kernel: "who heard ≥ 1 beep".

The beeping model's entire communication step is the boolean
neighborhood aggregation ``heard = (A @ beeps) > 0``.  Every predicate
the engines evaluate — reception, the blocked test inside ``I_t``, the
dominated test inside ``S_t`` and legality — is an instance of it, so
one :class:`HearKernel` covers all of them:

``hear(active)``
    ``(n,)`` bool → ``(n,)`` bool: vertices with an active neighbor.
``hear_rows(rows, out=None)``
    ``(R, n)`` bool → ``(R, n)`` bool, **C-contiguous**, row ``r``
    independent of every other row (the batched replicas).

Both go through the graph's int32 CSR adjacency; ``docs/performance.md``
("Hear") has the measurements behind keeping this one form.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np
import numpy.typing as npt

from .structure import GraphStructure

__all__ = ["HearKernel", "resolve_kernel_name"]

BoolVector = npt.NDArray[np.bool_]
BoolMatrix = npt.NDArray[np.bool_]

try:  # scipy's C kernel, minus the ~10 µs/call Python dispatch tax
    from scipy.sparse._sparsetools import csr_matvecs as _csr_matvecs
except ImportError:  # pragma: no cover - future scipy layout changes
    _csr_matvecs = None


class HearKernel:
    """int32 CSR matvec with a ``> 0`` threshold, over one structure.

    ``hear`` computes ``adjacency.dot(mask.astype(int32)) > 0`` — the
    int32 cast lands in a reused scratch vector, which changes no count.
    ``hear_rows`` produces the same values as ``adj_t.dot(rows.T).T`` but
    transposes *before* the product (one C-ordered cast instead of two
    non-contiguous intermediates) so the output block is C-contiguous
    without a trailing copy.
    """

    def __init__(self, structure: GraphStructure):
        self.structure = structure
        #: Reused int32 intermediates for the block product, keyed by
        #: block height (the hot-path allocation contract of
        #: docs/performance.md).
        self._csr_scratch: Dict[
            int, Tuple[npt.NDArray[np.int32], npt.NDArray[np.int32]]
        ] = {}
        #: Reused int32 cast of the ``(n,)`` activity mask for the solo
        #: ``hear`` matvec (a cast-on-store instead of a per-round
        #: ``.astype`` copy; the counts are bit-identical).
        self._active_i32: npt.NDArray[np.int32] = np.empty(
            structure.n, dtype=np.int32
        )

    def hear(self, active: BoolVector) -> BoolVector:
        """``(n,)`` bool mask of vertices with ≥ 1 active neighbor."""
        np.copyto(self._active_i32, active)
        counts = self.structure.csr.dot(self._active_i32)
        return counts > 0  # type: ignore[no-any-return]

    def hear_rows(
        self, rows: BoolMatrix, out: Optional[BoolMatrix] = None
    ) -> BoolMatrix:
        """Row-wise :meth:`hear` over an ``(R, n)`` block, C-contiguous.

        ``out`` (optional, ``(R, n)`` bool, C-contiguous) receives the
        result in place — the batched engine reuses one buffer per round.
        When available, the multiply calls scipy's ``csr_matvecs``
        routine directly — the exact C kernel ``csr.dot`` dispatches to,
        so the counts are bit-identical — skipping the per-call Python
        dispatch overhead that dominates at small sizes.
        """
        csr = self.structure.csr_t
        k, n = rows.shape
        buffers = self._csr_scratch.get(k)
        if buffers is None:
            buffers = (
                np.empty((n, k), dtype=np.int32),
                np.empty((n, k), dtype=np.int32),
            )
            self._csr_scratch[k] = buffers
        cols, received = buffers
        cols[...] = rows.T
        received.fill(0)
        if _csr_matvecs is None:
            received = csr.dot(cols)
        else:
            _csr_matvecs(
                n, n, k, csr.indptr, csr.indices, csr.data,
                cols.ravel(), received.ravel(),
            )
        if out is None:
            out = np.empty(rows.shape, dtype=bool)
        np.greater(received.T, 0, out=out)
        return out


def resolve_kernel_name(
    name: str,
    structure: Optional[GraphStructure] = None,
    replicas: int = 1,
) -> str:
    """``"sparse_int32"`` for ``auto``/``sparse``/``sparse_int32``.

    There is one hear kernel, so this names it and nothing more.  It is
    kept only because the benchmark harness (``perfbench/worker.py``)
    prints the kernel of every path through it; ``structure`` and
    ``replicas`` are accepted for that caller's signature and ignored.
    """
    if name not in ("auto", "sparse", "sparse_int32"):
        raise ValueError(f"unknown hear kernel {name!r}; the only one is 'sparse_int32'")
    return "sparse_int32"
