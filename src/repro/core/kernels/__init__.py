"""The hear kernel, the fused round kernels and the shared structure cache.

The execution engines delegate every "who heard ≥ 1 beep" aggregation —
reception, the blocked/dominated tests, legality — to one
:class:`HearKernel` over the graph's int32 CSR adjacency, and share
that adjacency through one content-keyed :func:`structure_for` cache.
See ``docs/performance.md`` for the hear measurements, cache semantics,
and the shared-memory sweep path.
"""

from .hear import HearKernel, resolve_kernel_name
from .round import (
    AUTO_PACKED_MIN_REPLICAS,
    MAX_EXPONENT,
    BeepTable,
    BlockDraws,
    BlockOutcome,
    FusedNumpyRoundKernel,
    FusedPackedRoundKernel,
    PerRoundDraws,
    ROUND_KERNEL_ALIASES,
    RoundKernel,
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
    "resolve_kernel_name",
    "RoundKernel",
    "FusedNumpyRoundKernel",
    "FusedPackedRoundKernel",
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
