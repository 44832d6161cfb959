"""Hear kernels and the shared graph-structure cache.

The execution engines delegate every "who heard ≥ 1 beep" aggregation —
reception, the blocked/dominated tests, legality — to a pluggable
:class:`HearKernel` chosen here, and share all derived adjacency forms
(CSR, dense, packed bitset) through one content-keyed
:func:`structure_for` cache.  See ``docs/performance.md`` for the kernel
selection heuristic, cache semantics, and the shared-memory sweep path.
"""

from .hear import (
    BitsetKernel,
    DenseBoolKernel,
    HearKernel,
    KERNEL_ALIASES,
    SparseInt32Kernel,
    available_kernels,
    make_kernel,
    resolve_kernel_name,
)
from .round import (
    AUTO_PACKED_MIN_REPLICAS,
    MAX_EXPONENT,
    BeepTable,
    BlockDraws,
    BlockOutcome,
    FusedNumbaRoundKernel,
    FusedNumpyRoundKernel,
    FusedPackedRoundKernel,
    PerRoundDraws,
    ROUND_KERNEL_ALIASES,
    RoundKernel,
    RoundKernelUnavailable,
    available_round_kernels,
    get_round_kernel,
    plan_round_kernel,
    resolve_round_kernel_name,
)
from .shm import (
    SharedStructureManifest,
    SharedStructureSet,
    attach_structure,
    export_structures,
    seed_worker_structures,
)
from .structure import (
    GraphStructure,
    clear_structure_cache,
    seed_structure,
    should_rebuild,
    structure_cache_info,
    structure_for,
    update_structure,
)

__all__ = [
    "SharedStructureManifest",
    "SharedStructureSet",
    "attach_structure",
    "export_structures",
    "seed_worker_structures",
    "HearKernel",
    "SparseInt32Kernel",
    "DenseBoolKernel",
    "BitsetKernel",
    "KERNEL_ALIASES",
    "available_kernels",
    "resolve_kernel_name",
    "make_kernel",
    "RoundKernel",
    "FusedNumpyRoundKernel",
    "FusedPackedRoundKernel",
    "FusedNumbaRoundKernel",
    "RoundKernelUnavailable",
    "BlockOutcome",
    "PerRoundDraws",
    "BlockDraws",
    "ROUND_KERNEL_ALIASES",
    "available_round_kernels",
    "resolve_round_kernel_name",
    "get_round_kernel",
    "plan_round_kernel",
    "BeepTable",
    "MAX_EXPONENT",
    "AUTO_PACKED_MIN_REPLICAS",
    "GraphStructure",
    "structure_for",
    "seed_structure",
    "update_structure",
    "should_rebuild",
    "clear_structure_cache",
    "structure_cache_info",
]
