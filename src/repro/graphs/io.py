"""Graph serialization and interop.

Plain-text edge-list files (one ``u v`` pair per line, ``#`` comments,
optional leading ``n <count>`` header for isolated vertices), adjacency-dict
conversion, scipy sparse adjacency matrices for the vectorized engine, and
optional networkx interop (only if networkx is installed; it is a dev-only
dependency).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Tuple, Union

import numpy as np
import scipy.sparse as sp

from .graph import Graph

__all__ = [
    "to_edge_list_text",
    "from_edge_list_text",
    "save_edge_list",
    "load_edge_list",
    "to_adjacency_dict",
    "to_sparse_adjacency",
    "to_networkx",
    "from_networkx",
]


def to_edge_list_text(graph: Graph) -> str:
    """Serialize to the text edge-list format (with an ``n`` header)."""
    lines = [f"n {graph.num_vertices}"]
    lines += [f"{u} {v}" for u, v in graph.edges]
    return "\n".join(lines) + "\n"


def from_edge_list_text(text: str) -> Graph:
    """Parse the text edge-list format produced by :func:`to_edge_list_text`.

    Without an ``n`` header the vertex count is inferred as
    ``max endpoint + 1``.
    """
    n = None
    edges: List[Tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n":
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: malformed header {raw!r}")
            n = int(parts[1])
            continue
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {raw!r}")
        edges.append((int(parts[0]), int(parts[1])))
    if n is None:
        n = 1 + max((max(u, v) for u, v in edges), default=-1)
    return Graph(n, edges)


def save_edge_list(graph: Graph, path: Union[str, Path]) -> None:
    """Write the graph to ``path`` in text edge-list format."""
    Path(path).write_text(to_edge_list_text(graph))


def load_edge_list(path: Union[str, Path]) -> Graph:
    """Read a graph from a text edge-list file."""
    return from_edge_list_text(Path(path).read_text())


def to_adjacency_dict(graph: Graph) -> Dict[int, Tuple[int, ...]]:
    """``{vertex: neighbor tuple}`` for every vertex (including isolated)."""
    return {v: graph.neighbors(v) for v in graph.vertices()}


def to_sparse_adjacency(graph: Graph, dtype: "np.typing.DTypeLike" = np.int32) -> sp.csr_matrix:
    """The symmetric n×n adjacency matrix as a scipy CSR matrix.

    This is the representation consumed by the vectorized engine: the
    per-round "heard a beep" bit vector is ``(A @ beeps) > 0``.

    The default dtype is ``int32`` (not a byte) so that matvec products
    against count vectors cannot wrap at degree ≥ 128 — the overflow
    class RPR302 lints against.
    """
    n = graph.num_vertices
    data = np.ones(graph.indices.size, dtype=dtype)
    # Copies: the caller owns the matrix, the Graph's arrays are read-only.
    return sp.csr_matrix(
        (data, graph.indices.copy(), graph.indptr.copy()), shape=(n, n)
    )


def to_networkx(graph: Graph):
    """Convert to a ``networkx.Graph`` (requires networkx)."""
    import networkx as nx  # local import: dev-only dependency

    g = nx.Graph()
    g.add_nodes_from(graph.vertices())
    g.add_edges_from(graph.edges)
    return g


def from_networkx(nx_graph) -> Graph:
    """Convert a ``networkx.Graph``; nodes are relabeled to ``0..n-1`` in
    sorted node order (nodes must be sortable)."""
    nodes = sorted(nx_graph.nodes())
    relabel = {node: i for i, node in enumerate(nodes)}
    edges = [(relabel[u], relabel[v]) for u, v in nx_graph.edges()]
    return Graph(len(nodes), edges)
