"""Golden graphs: every generator family pinned byte for byte.

The digests below were recorded from the scalar (tuple-and-set) Graph
implementation.  They pin, per family and ``(n, seed)``:

* the canonical ``(m, 2)`` int64 edge array,
* the CSR ``indptr``/``indices`` arrays, dtype included,
* the degree vector,
* the next ``rng.random()`` after generating from a passed-in
  ``numpy.random.Generator`` (the caller's stream position).

Any change to how graphs are built or generated must leave all of them
unchanged: a moved edge moves every downstream trajectory.

The module also keeps a verbatim copy of the scalar Batagelj–Brandes
loop that ``erdos_renyi`` used to run, as the oracle of a differential
test over the corner cases (tiny ``p`` hitting the skip clamp, ``p``
near 1, ``n`` in {0, 1, 2}).
"""

import hashlib
import math

import numpy as np
import pytest

from repro.core.kernels import structure_for
from repro.graphs.generators import (
    FAMILY_NAMES,
    by_name,
    erdos_renyi,
    erdos_renyi_mean_degree,
)
from repro.graphs.graph import Graph


def _digest(array: np.ndarray) -> str:
    array = np.ascontiguousarray(array)
    h = hashlib.blake2b(digest_size=12)
    h.update(f"{array.dtype.str}{array.shape}".encode())
    h.update(array.tobytes())
    return h.hexdigest()


def _fingerprint(graph: Graph) -> dict:
    structure = structure_for(graph)
    return {
        "edges": _digest(structure.edge_array),
        "indptr": _digest(structure.csr.indptr),
        "indices": _digest(structure.csr.indices),
        "degrees": _digest(np.asarray(graph.degrees(), dtype=np.int64)),
    }


#: (family, n, seed) -> (edges, indptr, indices, degrees, next draw).
GOLDEN = {
    ("path", 40, 1): (
        "5a062ff3b1cff8adf32452c3", "a36b05169cfab785d763437d",
        "c5104fece232c56c424ca74b", "9740acb84a18a4bc79672bc1",
        "0x1.060d7be6f245cp-1",
    ),
    ("path", 500, 7): (
        "7f3e39d5d411e0c781eb2db4", "0e2badd02a577794dc6e8d34",
        "b5f8ec22f53ec513123bf7fc", "5fcb4b6ab0b76e5caf530a2d",
        "0x1.400c8353e3ca9p-1",
    ),
    ("cycle", 40, 1): (
        "3c8673011b5a2866e3dd2e1a", "24823751c6ad486e3ed0ea14",
        "a67b1d0ccaa926c5ca4c050d", "7148c1aed5b9bea935cbfdc1",
        "0x1.060d7be6f245cp-1",
    ),
    ("cycle", 500, 7): (
        "ca535133e22c0393354e2c2b", "b6037aa507342874dff550d4",
        "abd9fcaecd57b8bae979939d", "f107e5ba46839d2a9e428865",
        "0x1.400c8353e3ca9p-1",
    ),
    ("star", 40, 1): (
        "c09b77ff171981fb1f378ee8", "6db933aa2b24b866f8b57cd9",
        "a084175ffde04aa312194d5f", "9e9e449bd479956529afe1a1",
        "0x1.060d7be6f245cp-1",
    ),
    ("star", 500, 7): (
        "4ec8db974c603cbfd765c899", "c7d62f5fb734dbf45c0eb1d4",
        "bad148aa192bac232bd6caac", "ce263c043a85ff98b41119fc",
        "0x1.400c8353e3ca9p-1",
    ),
    ("complete", 40, 1): (
        "7ea611f7f4255323f7e29695", "20af0db52743041f57471aa0",
        "8893f821072faa43bf6fbf60", "f3aa62fe87caade39b8761e1",
        "0x1.060d7be6f245cp-1",
    ),
    ("complete", 500, 7): (
        "d267d5b02ce8adb96507d786", "a847e337d84ca328e00779dc",
        "5538d383b78da16d0215035b", "4e3dfb11ead9e31f98c64192",
        "0x1.400c8353e3ca9p-1",
    ),
    ("grid", 40, 1): (
        "67216fe712712975ca00f903", "b0f6fb37116d988caa189ea5",
        "138f8cbcbc309839be4291d0", "526d84f6aa6b402a9bac8487",
        "0x1.060d7be6f245cp-1",
    ),
    ("grid", 500, 7): (
        "fe346082144365f549786e19", "20b2f6ee98039a0cba3e34fc",
        "747e9e6a81a0dae49dc36452", "49d388047e5d1b1cb9bda053",
        "0x1.400c8353e3ca9p-1",
    ),
    ("torus", 40, 1): (
        "9fbdc177e14e24d17379a0a0", "922687c1791e7b89b3231d4a",
        "03bd6c5e5a90b50bcf467ffa", "e0410d173211779055bdaed2",
        "0x1.060d7be6f245cp-1",
    ),
    ("torus", 500, 7): (
        "38d6af115e8f5b1c7bc39517", "75baa66513f8ff8806420424",
        "5e0bbf87f22c6c8a9d8d51c7", "8a3f8b5421bd3e2bf1c98fae",
        "0x1.400c8353e3ca9p-1",
    ),
    ("binary_tree", 40, 1): (
        "5bb2025e65910724df634f8c", "329dcaabbb138b6b5849d2ef",
        "b6f631c8e847c3d1019df954", "bd060894047c03608d9b38f1",
        "0x1.060d7be6f245cp-1",
    ),
    ("binary_tree", 500, 7): (
        "b2d925d488a5ecf1c4670054", "5356414b4d0101c47c3de8d1",
        "af3ca2c562ba3fa3fa8b251a", "692a73a8f335f66f15aa2a7d",
        "0x1.400c8353e3ca9p-1",
    ),
    ("random_tree", 40, 1): (
        "d0307fdac9fdfe88fa85b0a5", "1d35f7b6c8ebb2e071077b51",
        "af8af15f14dc43f5faac49f9", "47d3c5027c255650f54c3d79",
        "0x1.0c9bde4a024fep-2",
    ),
    ("random_tree", 500, 7): (
        "dc7a25bf086700fcbed30e76", "76ee6bc4e81f8bad1c44dbc2",
        "322e86a7f9cb9d22e9f85caf", "8b1975fd74a8470fe67fd347",
        "0x1.81e5f52a193ecp-2",
    ),
    ("hypercube", 40, 1): (
        "4adcd65c32d7eb5c52b4adb7", "c93daa1a4025612d66cb1426",
        "41d33bbc060e0356f4d0ba43", "d1c8c17852ca021bfd374031",
        "0x1.060d7be6f245cp-1",
    ),
    ("hypercube", 500, 7): (
        "3c1c78dc51aa2b324403216f", "3cd36bcda0c8893f8773c80f",
        "d64c1579e1eac2299a83e31f", "5b88174132cb12407c1a4b8a",
        "0x1.400c8353e3ca9p-1",
    ),
    ("er", 40, 1): (
        "82f1f9163ca0d4c390b15c6f", "1370128b43fb0241984d0bc6",
        "12a1fbd088ff5884dffd1e84", "1a532c284ef9e53ce43bdd70",
        "0x1.402245f605c8cp-1",
    ),
    ("er", 500, 7): (
        "d686f7aab6701f6a5d968c05", "4ca7d6c1237f09e339813053",
        "6d8b5a33854c51741b2f8a33", "1a35ea6db5aec4d63689db29",
        "0x1.da329e540e5d8p-1",
    ),
    ("regular", 40, 1): (
        "437fda53ee87863d86b0922e", "4327db46c931c172176eab72",
        "755fc2698bbfa51facc2f9b5", "dc7a31251d41c24570a76b0b",
        "0x1.86a615555fd56p-2",
    ),
    ("regular", 500, 7): (
        "677cf59964da4c507025f6dc", "7b6a648cb47d3a0d1cc04972",
        "ec40767e8a868bdbf677d43c", "fd61b8dd442a36e7915e1edf",
        "0x1.cd5cbec311c57p-1",
    ),
    ("ba", 40, 1): (
        "0d4296410beb822da886436c", "08dbe5b0a03c3a03944e5105",
        "555d67c7bbae67af86590330", "c9c9d4fdb7ee29ebd99fb7eb",
        "0x1.e33c4d2d3dfecp-2",
    ),
    ("ba", 500, 7): (
        "34681386171b044db047c1b5", "4c90cfc669b0cc70393ddbc0",
        "846f5983f7da40fbed41e1b7", "43fb976b48c811169acae45b",
        "0x1.530e8acd0972ap-2",
    ),
    ("unit_disk", 40, 1): (
        "8433a5a30abda919746e8017", "df5e4137c8f37a73ce038dbb",
        "112e4c426521b1fabe2cea27", "689f3620e14dee480d9c9e4b",
        "0x1.521a19b625856p-1",
    ),
    ("unit_disk", 500, 7): (
        "526dfa15c1b429c0d7abbbda", "224af0650ca6fedeb7b92d23",
        "7a433a162db447400326cda7", "c0acefd1929911e73a90ef1b",
        "0x1.bcf416fb43052p-1",
    ),
    ("ws", 40, 1): (
        "d88b7ff8bd5f02c457266cca", "c23585fee97583fe2082f025",
        "fe49713638a2a44241a47df5", "463baaedd5caadf01eba0484",
        "0x1.a99cdae9be4b4p-1",
    ),
    ("ws", 500, 7): (
        "f2377f1639e85746755f9469", "9f8596b3312534c39d1f4bdc",
        "3612f4e7517f82fad90f9bdf", "3c44f329d0a9637fa848f984",
        "0x1.b69243bd496fcp-2",
    ),
    ("er", 20000, 5): (
        "43f3c8aabdff411268e29b71", "1f59d551e4b806bcca37bc58",
        "888bf39e75afdd02d88921eb", "e4980152982271ba3627dffc",
        "0x1.170f9289154c0p-5",
    ),
    ("ba", 3000, 2): (
        "1edcb5a587f559ba869c56e1", "a5e94db88ca063061fde6bde",
        "6c112592235bd7a5d5b5a909", "3828d00cd5112f59ea454df4",
        "0x1.392b0b99227ebp-1",
    ),
    ("unit_disk", 3000, 4): (
        "525acdc04ad0834b14b5bfcd", "fd435672a6b15f87002007fd",
        "98dbc59d01ac48961645eace", "64502222a41a6480f742be93",
        "0x1.9ee24a4ec1cb2p-1",
    ),
}


@pytest.mark.parametrize("family,n,seed", sorted(GOLDEN))
def test_family_is_byte_identical(family, n, seed):
    rng = np.random.default_rng(seed)
    graph = by_name(family, n, seed=rng)
    edges, indptr, indices, degrees, draw = GOLDEN[family, n, seed]
    assert _fingerprint(graph) == {
        "edges": edges, "indptr": indptr, "indices": indices, "degrees": degrees,
    }
    assert rng.random().hex() == draw


def test_every_family_is_pinned_at_two_sizes():
    for family in FAMILY_NAMES:
        assert len({(n, s) for f, n, s in GOLDEN if f == family}) >= 2, family


@pytest.mark.parametrize("family,n,seed", sorted(GOLDEN)[:: 3])
def test_tuple_views_agree_with_arrays(family, n, seed):
    graph = by_name(family, n, seed=seed)
    structure = structure_for(graph)
    assert np.array_equal(
        np.asarray(graph.edges, dtype=np.int64).reshape(-1, 2), structure.edge_array
    )
    indptr, indices = structure.csr.indptr, structure.csr.indices
    for v in graph.vertices():
        assert graph.neighbors(v) == tuple(indices[indptr[v]:indptr[v + 1]].tolist())
        assert graph.degree(v) == indptr[v + 1] - indptr[v]


# ----------------------------------------------------------------------
# Differential: erdos_renyi against the scalar loop it replaced
# ----------------------------------------------------------------------
def scalar_erdos_renyi_edges(n, p, rng):
    """The scalar Batagelj–Brandes loop, verbatim (the oracle)."""
    edges = []
    log_q = math.log1p(-p)
    v, w = 1, -1
    max_skip = float(n) * n + 2.0
    while v < n:
        skip = min(math.log(1.0 - rng.random()) / log_q, max_skip)
        w += 1 + int(skip)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            edges.append((w, v))
    return edges


def oracle_erdos_renyi(n, p, rng):
    if n < 2 or p == 0.0 or p == 1.0:
        return erdos_renyi(n, p, rng)  # no draws on these branches
    return Graph(n, scalar_erdos_renyi_edges(n, p, rng))


ER_CASES = [
    (0, 0.5), (1, 0.5), (2, 0.5), (2, 0.999), (3, 1e-300), (10, 0.3),
    (50, 5e-324), (50, 1e-300), (64, 1e-17), (200, 1e-3), (200, 0.999),
    (300, 1.0 - 1e-12), (120, 0.5), (4096, 8.0 / 4095), (30_000, 8.0 / 29_999),
]


@pytest.mark.parametrize("n,p", ER_CASES)
@pytest.mark.parametrize("seed", [0, 11])
def test_erdos_renyi_matches_scalar_loop(n, p, seed):
    fast_rng = np.random.default_rng(seed)
    oracle_rng = np.random.default_rng(seed)
    fast = erdos_renyi(n, p, fast_rng)
    oracle = oracle_erdos_renyi(n, p, oracle_rng)
    assert fast.num_vertices == oracle.num_vertices
    assert fast.edges == oracle.edges
    assert fast_rng.random() == oracle_rng.random()


@pytest.mark.parametrize("n,mean_degree", [(0, 8.0), (1, 8.0), (2, 8.0), (500, 8.0), (500, 600.0)])
def test_erdos_renyi_mean_degree_matches_scalar_loop(n, mean_degree):
    fast_rng = np.random.default_rng(5)
    oracle_rng = np.random.default_rng(5)
    fast = erdos_renyi_mean_degree(n, mean_degree, fast_rng)
    if n <= 1:
        oracle = Graph(n)
    else:
        oracle = oracle_erdos_renyi(n, min(1.0, mean_degree / (n - 1)), oracle_rng)
    assert fast.edges == oracle.edges
    assert fast_rng.random() == oracle_rng.random()


def test_erdos_renyi_integer_seed_matches_generator_seed():
    assert erdos_renyi(400, 0.02, 9) == erdos_renyi(400, 0.02, np.random.default_rng(9))
