import hashlib
import io
import itertools
import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from indtrees import graphs
from indtrees.graphs import (
    Graph,
    induced_subgraph,
    is_connected_set,
    is_tree,
    mask_vertices,
    read_graph,
    sample_gnp,
    write_graph,
)
from indtrees.rng import Seed
from oracles import (
    adjacency_rows,
    complete_graph,
    cycle_graph,
    forest_components,
    lexicographic_pair_index,
    path_graph,
    read_graph_lines,
)


def small_graphs():
    return st.integers(min_value=0, max_value=9).flatmap(
        lambda n: st.lists(
            st.tuples(
                st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))
            ).filter(lambda e: e[0] != e[1]),
            max_size=20,
        ).map(lambda edges: Graph(n, edges) if n else Graph(0))
    )


# --- vertex bitmasks --------------------------------------------------------


@given(st.sets(st.integers(0, 300)))
def test_mask_vertices_lists_set_bits_in_order(vertices):
    assert mask_vertices(sum(1 << v for v in vertices)) == sorted(vertices)


def test_mask_vertices_rejects_negative_mask():
    with pytest.raises(ValueError, match="vertex mask must be >= 0, got -1"):
        mask_vertices(-1)


# --- Graph construction ------------------------------------------------------


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(-1)


@pytest.mark.parametrize("n", [-1, graphs.MAX_N + 1])
def test_vertex_ceiling_message_shared(tmp_path, n):
    message = re.escape(f"vertex count {n} outside [0, {graphs.MAX_N}]")
    path = tmp_path / "g.txt"
    path.write_text(f"{n} 0\n")
    with pytest.raises(ValueError, match=message):
        Graph(n)
    with pytest.raises(ValueError, match=message):
        sample_gnp(n, 0.5, Seed(1, 0))
    with pytest.raises(ValueError, match=message):
        read_graph(path)


# Graph(3, edges): the exception raised, or the edges and rows it builds.
# No endpoint is truncated to an integer, as np.array(edges, dtype=np.int64) would.
EITHER = (TypeError, ValueError)
GRAPH_CONTRACT = [
    ("float_vertex", lambda: [(0.5, 1)], EITHER),
    ("integral_float", lambda: [(1.0, 2)], EITHER),
    ("str_vertex", lambda: [("1", 2)], EITHER),
    ("none_vertex", lambda: [(0, 1), (None, 1)], EITHER),
    ("huge_vertex", lambda: [(2**70, 1)], ValueError),
    ("past_int64", lambda: [(0, 1), (2**63, 1)], ValueError),
    ("three_tuple", lambda: [(0, 1, 2)], ValueError),
    ("ragged", lambda: [(0, 1), (0, 1, 2)], ValueError),
    ("one_tuple", lambda: [(0,)], ValueError),
    ("self_loop", lambda: [(0, 1), (2, 2)], ValueError),
    ("vertex_eq_n", lambda: [(0, 3)], ValueError),
    ("negative_vertex", lambda: [(-1, 1)], ValueError),
    ("empty", lambda: [], []),
    ("generator", lambda: ((u, u + 1) for u in range(2)), [(0, 1), (1, 2)]),
    ("reversed_duplicates", lambda: [(2, 1), (1, 0), (0, 1), (1, 2)], [(0, 1), (1, 2)]),
    ("numpy_ints", lambda: [(np.int64(2), np.int8(0))], [(0, 2)]),
]


@pytest.mark.parametrize("make_edges, outcome", [c[1:] for c in GRAPH_CONTRACT],
                         ids=[c[0] for c in GRAPH_CONTRACT])
def test_graph_constructor_contract(make_edges, outcome):
    if not isinstance(outcome, list):
        with pytest.raises(outcome):
            Graph(3, make_edges())
    else:
        g = Graph(3, make_edges())
        assert list(g.edges()) == outcome and g.edge_count == len(outcome)
        assert g.adj == adjacency_rows(3, outcome)


def test_constructors_give_equal_graphs_and_hashes(tmp_path):
    path = tmp_path / "g.txt"
    for n, p in [(30, 0.3), (1000, 0.01), (4200, 0.001)]:
        g = sample_gnp(n, p, Seed(11, n))
        write_graph(g, path)
        h = read_graph(path)
        f = Graph(n, [(v, u) for u, v in reversed(list(g.edges()))])
        assert g == h == f and hash(g) == hash(h) == hash(f)
        assert g.adj == f.adj == adjacency_rows(n, g.edges())


@pytest.mark.parametrize("n, p", [(4200, 0.01), (16384, 0.0005)])
def test_round_trip_builds_no_rows(monkeypatch, tmp_path, n, p):
    def no_rows(*args):
        raise AssertionError("adjacency rows built")

    monkeypatch.setattr(graphs, "_adjacency_rows", no_rows)
    g = sample_gnp(n, p, Seed(3, n))
    path = tmp_path / "g.txt"
    write_graph(g, path)
    h = read_graph(path)
    assert g == h and h.edge_count == g.edge_count > 0


def test_graph_deduplicates_and_symmetrizes():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1
    assert g.adj[0] >> 1 & 1 and g.adj[1] >> 0 & 1
    assert g.adj[0].bit_count() == 1 and g.adj[2].bit_count() == 0


def test_named_graphs():
    assert complete_graph(5).edge_count == 10
    assert path_graph(5).edge_count == 4
    assert cycle_graph(5).edge_count == 5
    assert is_tree(path_graph(5))
    assert not is_tree(cycle_graph(5))
    assert forest_components(3, cycle_graph(3).edges()) is None


# --- sampling ----------------------------------------------------------------


def test_sample_deterministic():
    a = sample_gnp(50, 0.3, Seed(123, 7))
    b = sample_gnp(50, 0.3, Seed(123, 7))
    assert a == b
    c = sample_gnp(50, 0.3, Seed(123, 8))
    assert a != c  # different stream, different graph (a.s.)


def test_sample_extremes():
    assert sample_gnp(10, 0.0, Seed(1)).edge_count == 0
    assert sample_gnp(10, 1.0, Seed(1)) == complete_graph(10)
    assert sample_gnp(0, 0.5, Seed(1)).n == 0
    assert sample_gnp(1, 0.5, Seed(1)).edge_count == 0


def test_sample_rejects_bad_p():
    for bad in (-0.1, 1.1, math.nan):
        with pytest.raises(ValueError):
            sample_gnp(5, bad, Seed(0))


def test_sample_density_matches_p():
    # mean degree over many pairs should be near p (binomial concentration)
    n, p = 200, 0.25
    g = sample_gnp(n, p, Seed(42))
    m = n * (n - 1) / 2
    observed = g.edge_count / m
    assert abs(observed - p) < 5 * math.sqrt(p * (1 - p) / m)


def test_sample_sparse_path_density():
    # edge count of a sparse graph within five standard deviations of its mean
    n, p = 5000, 0.0008
    g = sample_gnp(n, p, Seed(9))
    m = n * (n - 1) / 2
    assert g == sample_gnp(n, p, Seed(9))
    assert abs(g.edge_count - p * m) < 5 * math.sqrt(m * p * (1 - p))
    for (u, v) in itertools.islice(g.edges(), 100):
        assert 0 <= u < v < n


# --- bit identity of the array sampler ----------------------------------------

# (n, p, edge_count, SHA-256 of adj, SHA-256 of write_graph's bytes or None),
# sampled with Seed(2026, i) for the i-th row. Recorded when the geometric-skip
# sampler replaced the one-uniform-per-pair path; the rows with no edges, and
# those at p = 0.45 past n = 4096, are the same draws as before it.
PINNED_SAMPLES = [
    (12, 0.45, 24, "de4e8a56ed4586749ac0a25a34d0cc0e155f33fb78a1656d4ac4cb04b3fda682",
     "d3d263105a1c3aa2b8e84cfcb98facbebca9349d8292294c68879bf380a18701"),
    (12, 0.01, 2, "1f6588125c5ecd70fbce7c23bda2fb32b3a9059d3c6bfb3a19fe492cbd2c39b5",
     "1d1df36c56cd5d7ff5125d9f786cf4f69affb5c16f7a2fad74bbb68c3f2aacd0"),
    (12, 0.0005, 0, "9d908ecfb6b256def8b49a7c504e6c889c4b0e41fe6ce3e01863dd7b61a20aa0",
     "409f503e6c66e66048abac6fbc002a4c196158e9a0915629047ac76c00d65add"),
    (12, 1e-12, 0, "9d908ecfb6b256def8b49a7c504e6c889c4b0e41fe6ce3e01863dd7b61a20aa0",
     "409f503e6c66e66048abac6fbc002a4c196158e9a0915629047ac76c00d65add"),
    (16, 0.45, 49, "6c72041677f166efde181b09fa478ab684a817c2533b5ec9c8cdbdb25df245b8",
     "73827983faf206b7917102a4bb10da0465db5b7191b6cdc83a58157e2aa629b4"),
    (16, 0.01, 0, "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925",
     "fbfc31d9257bfea5c6250fbc44774a183a5d2c1e871bec6bb16ca16c827c1bce"),
    (16, 0.0005, 0, "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925",
     "fbfc31d9257bfea5c6250fbc44774a183a5d2c1e871bec6bb16ca16c827c1bce"),
    (16, 1e-12, 0, "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925",
     "fbfc31d9257bfea5c6250fbc44774a183a5d2c1e871bec6bb16ca16c827c1bce"),
    (1000, 0.45, 225061, "f75dc9497092e2352ac74f57c6a5325d9e8cff7ffa4a157389ec5ef28da74046",
     "394c883c4068e700e971d4daa1685d75e7915b1ca879b68209bc47a2bf380f53"),
    (1000, 0.01, 4910, "2b28a39c38fa76914e25faa2760acf37da0205908a2f204229bf7056baaa2fd5",
     "81b0390604a45ae14261c0af19085e84b704a442d9100bd5dafb999ac54aa4ab"),
    (1000, 0.0005, 268, "78ec0213fd86b3ff5b0437c45cc57162885cf3c4d5a2a2760ead4238f502f4e2",
     "78a3030a931169c06837fdc7201e097ced568de980a742a1678b31d9f3d2a572"),
    (1000, 1e-12, 0, "923b0ffd1a22207230ef2d9a76434d8c9aa6bdaa7ad9541abf0bf3b2fe32a987",
     "e48bcc41a5c09d5c7b11df3eccdb66d4e06ff7464e545515f46c8dbab6a8f443"),
    (4096, 0.45, 3773262, "4b7b68865f78365a3fdd10d71723a161cadc2aa34de9349fe17e08d0a19dc789",
     None),
    (4096, 0.01, 83991, "20c87cd835bcebbf010cbbbbf9157d42c6634a73e7ad9fa8618d32ec71600285",
     "e13811fabf46df80dcd97b09fb09a72bfe3f4c54e7aed1eb83dfa51739221eda"),
    (4096, 0.0005, 4277, "b09c7e188b556b20631415c7203b186057a59474e0825ca9e5f63fdc0302932a",
     "ea6c7af89218a0b5bf21c9dd62f287dde475c2639fea0a98d3523fdd092921d1"),
    (4096, 1e-12, 0, "5647f05ec18958947d32874eeb788fa396a05d0bab7c1b71f112ceb7e9b31eee",
     "cc854ac4377426947d1e3ceac8a8e838b36140db1bd8e3951452764a35ac6324"),
    (4097, 0.45, 3776842, "7752d308be761edef76de53aa461c3f29259de80209ae4ee0326fae4a322b8c4",
     None),
    (4097, 0.01, 83949, "3928fcbae0929538908c333e522bd6178c54d240b95fd915698c4379b5dbcd8a",
     "5e0f3404b3a2911627cd8b5d9ec1ff17a5b6595966c13ad025e75e526712a685"),
    (4097, 0.0005, 4061, "7eafa6bc164c4d47a53caa8dbf3041cb85568eb84ff8294741264bbe235fd081",
     "dd2c421a206035a8e1f1632f7144ffe6ef9e7354fc1a43ff6525bfe8acd73616"),
    (4097, 1e-12, 0, "89b7c673c97f6b2901504bf30db4c25778f910b5cfabaa458f451b04e6f1f988",
     "ec66c7b314c5de8a7682f6f8c4a485950447c3043a5f47f6751e40715b3a9325"),
    (4200, 0.45, 3969415, "aa6be5f05717af4ac47ea3f1e99dd4f49c651a0f525876e3971b95c1745cfdbf",
     None),
    (4200, 0.01, 88140, "8473e2fe4fadd42aaf918235d972b7a6fe6fbda99c7f37a6f68a8ec5d3ce82dc",
     "8584885d61aced2e8435cb66e3308db3e9e0f0f3d40952ef579e524fa3866292"),
    (4200, 0.0005, 4374, "5e99139a8e4c7026a2a423a8b2b0bae79426e42b6bfa347d925ef3c3440d7e61",
     "6056b40ced757466b8afa2bc483c37089457a65540c6ad88cd4f41e6440bd4b4"),
    (4200, 1e-12, 0, "4ed400c51525ee0ceb3555bfc919850e4afba04c9f165cc8837bc56701c5f49a",
     "25c71c72d500bd06ca255c765467b2930ebeffaacf5271ccee7e4e1376e50173"),
    (16384, 0.01, 1341739, "5335cf4f7f1123a9aeef342c3ef32c84e31667b727b32ad50fac7999d59db7d7",
     "ee96e0a4a0eabe999594c7bcbfe91d4d32e697c3812430b146c48744d543fac3"),
    (16384, 0.0005, 66916, "fec34e3846bde7e83109a32cf4cc7ad4161b04666589c1167952a9da37771162",
     "389e325c7581a172fac249be1eecb398412ba776ab9e73c72b8274af53cae9e6"),
    (16384, 1e-12, 0, "83ee47245398adee79bd9c0a8bc57b821e92aba10f5f9ade8a5d1fae4d8c4302",
     "d5e6d271a7129c745f419e78ace7a0cccc304a072451ae804a805b8f156c19a0"),
    (4200, 0.3, 2647062, "ddf45536265f44f9b8cb9af7e2290cf54a49415de19837d74904c93cd0a12fbf",
     None),
]


def adj_digest(g: Graph) -> str:
    width = (g.n + 7) // 8
    h = hashlib.sha256()
    for row in g.adj:
        h.update(row.to_bytes(width, "little"))
    return h.hexdigest()


@pytest.mark.parametrize(
    "i, n, p, edges, adj_sha, file_sha",
    [(i, *row) for i, row in enumerate(PINNED_SAMPLES)],
    ids=[f"{row[0]}-{row[1]}" for row in PINNED_SAMPLES],
)
def test_sample_pinned_graphs_and_bytes(tmp_path, i, n, p, edges, adj_sha, file_sha):
    g = sample_gnp(n, p, Seed(2026, i))
    assert (g.edge_count, adj_digest(g)) == (edges, adj_sha)
    if file_sha is not None:
        path = tmp_path / "g.txt"
        write_graph(g, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == file_sha
        assert read_graph(path) == g


def reference_pair_index(n, p, seed):
    """The scalar sampler: one rng.geometric(p) draw per gap, clipped at m + 1."""
    m = n * (n - 1) // 2
    rng = seed.generator()
    hits, idx = [], -1
    while True:
        idx += min(int(rng.geometric(p)), m + 1)
        if idx >= m:
            return np.asarray(hits, dtype=np.int64)
        hits.append(idx)


@pytest.mark.parametrize("block", [7, 1 << 20])
@pytest.mark.parametrize(
    "n, p",
    [
        (30, 0.3), (1000, 0.002), (4097, 0.01), (4500, 1e-5), (5000, 1e-300),
        # numpy draws geometric variables by search, not inversion, from p = 1/3
        (30, 0.45), (16, 0.9), (40, 1 / 3), (12, 0.999),
    ],
)
def test_sampler_matches_scalar_draws(monkeypatch, block, n, p):
    # a block of 7 draws puts many block boundaries inside each graph
    monkeypatch.setattr(graphs, "_DRAW_BLOCK", block)
    seed = Seed(77, n)
    np.testing.assert_array_equal(
        graphs._sample_pair_index(n, p, seed), reference_pair_index(n, p, seed)
    )


@pytest.mark.parametrize("p", [0.25, 0.45])
def test_sample_all_graphs_on_four_vertices(p):
    """Each of the 64 graphs on [4] is drawn with probability p^r (1-p)^(6-r),
    r its edge count: a chi-square test over 60,000 seeds, on either side of
    numpy's switch of geometric algorithm at p = 1/3."""
    seeds = 60_000
    codes = [
        int(np.sum(1 << graphs._sample_pair_index(4, p, Seed(5, s)))) for s in range(seeds)
    ]
    observed = np.bincount(codes, minlength=64)
    edges = np.array([code.bit_count() for code in range(64)])
    expected = seeds * p**edges * (1 - p) ** (6 - edges)
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    p_value = float(mpmath.gammainc(63 / 2, chi2 / 2, mpmath.inf, regularized=True))
    assert p_value > 5e-7, chi2  # chi2 < 133.9: both cells false-alarm at most 1e-6


def test_sample_subnormal_p_on_skip_path():
    # log1p(-u) / log1p(-p) overflows to inf; the graph is empty, not an error
    for p in (1e-320, 5e-324):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sample_gnp(5000, p, Seed(1)).edge_count == 0


def block_rows(n):
    """Rows per staged byte buffer in _adjacency_rows' numpy path on [n]."""
    return graphs._STAGE_BYTES // ((n + 7) // 8)


# the largest n whose rows fit one staged buffer: 1023 (128-byte rows)
ONE_BLOCK_N = max(n for n in range(1, graphs.MAX_N + 1) if n <= block_rows(n))
THREE_BLOCK_N = 1600  # 200-byte rows, 655 per buffer: three buffers, the last one short


def random_pairs(n, count, seed, extra=()):
    """About count random pairs (u, v), u < v < n, plus extra, sorted."""
    rng = np.random.default_rng(seed)
    us = rng.integers(0, n - 1, count)
    vs = rng.integers(us + 1, n)
    return sorted(set(zip(us.tolist(), vs.tolist())) | set(extra))


@pytest.mark.parametrize(
    "count, span",
    [
        pytest.param(c, None, id=str(c))
        for c in (0, 1, graphs._LOOP_EDGES, graphs._LOOP_EDGES + 1, 3000)
    ]
    # every edge inside the middle row block: the first and last blocks are empty
    + [
        pytest.param(
            300, (block_rows(THREE_BLOCK_N), 2 * block_rows(THREE_BLOCK_N)), id="300-middle-block"
        )
    ],
)
def test_rows_from_pair_index_match_constructor(count, span):
    n = THREE_BLOCK_N
    assert 2 * block_rows(n) < n < 3 * block_rows(n)
    us, vs = np.triu_indices(n, 1)  # pairs in lexicographic order
    lo, hi = span or (0, n)
    pool = np.flatnonzero((us >= lo) & (vs < hi))
    idx = np.sort(np.random.default_rng(count).choice(pool, size=count, replace=False))
    pairs = list(zip(us[idx].tolist(), vs[idx].tolist()))
    g = Graph._from_pair_index(n, idx)
    assert g.adj == adjacency_rows(n, pairs) and g.edge_count == count
    assert Graph(n, pairs) == g
    assert repr(g) == f"Graph(n={n}, m={count})"


@pytest.mark.parametrize(
    "n",
    # one buffer, not full and full, then a second buffer of one row
    [ONE_BLOCK_N - 1, ONE_BLOCK_N, ONE_BLOCK_N + 1]
    # n % 8 in {0, 1, 7}: the top byte of a row holds 8, 1 or 7 vertices
    + [1000, 1001, 1007, 4096, 4097, 4103],
)
def test_rows_at_block_and_byte_edges(n):
    # the first and last vertices meet the lowest and highest row bytes
    pairs = random_pairs(n, 2000, n, extra=[(0, 1), (0, n - 1), (n - 2, n - 1)])
    g = Graph._from_pair_index(n, lexicographic_pair_index(n, *np.array(pairs).T))
    assert g.edge_count > graphs._LOOP_EDGES
    assert g.adj == adjacency_rows(n, pairs)


@pytest.mark.parametrize("count", [5, 200], ids=["loop", "numpy"])
def test_rows_at_vertex_ceiling(count):
    n = graphs.MAX_N
    pairs = random_pairs(n, count, count, extra=[(0, n - 1), (n - 2, n - 1)])
    g = Graph._from_pair_index(n, lexicographic_pair_index(n, *np.array(pairs).T))
    assert (g.edge_count > graphs._LOOP_EDGES) == (count > graphs._LOOP_EDGES)
    assert g.adj == adjacency_rows(n, pairs)


def test_staged_row_buffers_stay_under_128_kib():
    n = np.arange(1, graphs.MAX_N + 1)
    rows = np.minimum(n, block_rows(n))
    assert (rows >= 1).all() and (rows * ((n + 7) // 8) < 1 << 17).all()


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7])
def test_pair_endpoints_of_every_pair(n):
    pairs = list(itertools.combinations(range(n), 2))
    us, vs = graphs._pair_endpoints(n, np.arange(len(pairs), dtype=np.int64))
    assert list(zip(us.tolist(), vs.tolist())) == pairs


@pytest.mark.parametrize("isolated", [0, 3], ids=["last-pair", "isolated-top"])
@pytest.mark.parametrize("n", [1000, 4097, 65536])
def test_pair_endpoints_of_sorted_subsets(n, isolated):
    """Random pairs on the vertices below n - isolated; with none isolated,
    the last pair (n-2, n-1), index m - 1, is among them."""
    rng = np.random.default_rng(n + isolated)
    us = rng.integers(0, n - isolated - 1, 3000)
    vs = rng.integers(us + 1, n - isolated)
    pairs = set(zip(us.tolist(), vs.tolist())) | ({(n - 2, n - 1)} if not isolated else set())
    pairs = sorted(pairs)
    us, vs = graphs._pair_endpoints(n, lexicographic_pair_index(n, *np.array(pairs).T))
    assert list(zip(us.tolist(), vs.tolist())) == pairs


def test_pair_index_sorts_and_deduplicates_only_what_needs_it():
    n = 40
    rng = np.random.default_rng(9)
    us = rng.integers(0, n - 1, 500)
    vs = rng.integers(us + 1, n)
    expected = np.unique(lexicographic_pair_index(n, us, vs))
    swap = rng.random(len(us)) < 0.5  # either endpoint order
    shuffled = graphs._pair_index(n, np.where(swap, vs, us), np.where(swap, us, vs))
    assert shuffled.dtype == np.int64 and np.array_equal(shuffled, expected)
    sorted_us, sorted_vs = graphs._pair_endpoints(n, expected)
    assert np.array_equal(graphs._pair_index(n, sorted_us, sorted_vs), expected)
    # sorted but with each pair twice: not strictly increasing, so de-duplicated
    twice = graphs._pair_index(n, np.repeat(sorted_us, 2), np.repeat(sorted_vs, 2))
    assert np.array_equal(twice, expected)


@pytest.mark.parametrize("n, p, seed", [(2000, 0.01, Seed(41)), (6000, 0.003, Seed(42))])
def test_sample_edge_count_and_degree_distribution(n, p, seed):
    """Edge-count z-score and a degree chi-square against Binomial(n-1, p)."""
    g = sample_gnp(n, p, seed)
    m = n * (n - 1) // 2
    assert abs(g.edge_count - m * p) <= 4 * math.sqrt(m * p * (1 - p))

    observed = np.bincount([g.adj[v].bit_count() for v in range(n)], minlength=n)
    log_pmf = [
        math.lgamma(n) - math.lgamma(d + 1) - math.lgamma(n - d)
        + d * math.log(p) + (n - 1 - d) * math.log1p(-p)
        for d in range(n)
    ]
    expected = n * np.exp(log_pmf)
    # merge adjacent degrees until every bin expects at least 5 vertices
    bins, o, e = [], 0, 0.0
    for d in range(n):
        o, e = o + observed[d], e + expected[d]
        if e >= 5:
            bins.append((o, e))
            o, e = 0, 0.0
    last_o, last_e = bins.pop()
    bins.append((last_o + o, last_e + e))
    chi2 = sum((o - e) ** 2 / e for o, e in bins)
    dof = len(bins) - 1
    p_value = float(mpmath.gammainc(dof / 2, chi2 / 2, mpmath.inf, regularized=True))
    assert p_value > 1e-3, (chi2, dof)


# --- induced subgraphs and recognizers --------------------------------------


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_induced_full_is_identity(g):
    assert induced_subgraph(g, range(g.n)) == g


@settings(max_examples=60, deadline=None)
@given(small_graphs(), st.integers(0, 2**9 - 1))
def test_induced_subgraph_matches_pairwise_scan(g, mask):
    verts = [v for v in range(g.n) if (mask >> v) & 1]
    pairs = [(i, j) for j in range(len(verts)) for i in range(j)
             if g.adj[verts[i]] >> verts[j] & 1]
    assert induced_subgraph(g, verts) == Graph(len(verts), pairs)


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_tree_implies_forest(g):
    forest = forest_components(g.n, g.edges()) is not None
    if is_tree(g):
        assert forest
    if forest and g.n >= 1 and g.edge_count == g.n - 1:
        assert is_tree(g)


def test_induced_subgraph_relabels_increasing():
    g = path_graph(5)  # 0-1-2-3-4
    sub = induced_subgraph(g, [1, 3, 4])
    # vertices 1,3,4 -> 0,1,2; only edge 3-4 survives -> (1,2)
    assert sub.n == 3
    assert list(sub.edges()) == [(1, 2)]


@pytest.mark.parametrize("vertices", [[3], [0, 3], [-1, 1]])
def test_induced_subgraph_rejects_a_vertex_outside_the_graph(vertices):
    with pytest.raises(ValueError, match="^vertex set member out of range$"):
        induced_subgraph(path_graph(3), vertices)


@pytest.mark.parametrize("other", ["x", None, 3, (3, [])])
def test_graph_is_not_equal_to_another_type(other):
    assert (Graph(3) == other) is False
    assert Graph(3) != other


@pytest.mark.parametrize("mask", [1 << 3, (1 << 3) | 1, -1])
def test_is_connected_set_rejects_mask_outside_vertex_range(mask):
    message = re.escape(f"vertex mask {mask:#x} outside [0, 2**3) for n=3")
    with pytest.raises(ValueError, match=message):
        is_connected_set(path_graph(3), mask)


def test_recognizer_edge_cases():
    empty = Graph(0)
    assert not is_tree(empty)
    assert forest_components(empty.n, empty.edges()) is not None  # vacuously acyclic
    assert not is_connected_set(empty, 0)
    single = Graph(1)
    assert is_tree(single)
    assert forest_components(single.n, single.edges()) is not None


# --- text format -------------------------------------------------------------


def test_graph_file_round_trip(tmp_path):
    g = sample_gnp(20, 0.4, Seed(5))
    path = tmp_path / "g.txt"
    write_graph(g, path)
    assert read_graph(path) == g
    first = path.read_text().splitlines()[0]
    assert first == f"{g.n} {g.edge_count}"


def test_write_graph_at_every_digit_width(tmp_path):
    verts = [0, 9, 10, 99, 100, 999, 1000, 9999, 10000, 65535]
    edges = list(itertools.combinations(verts, 2))
    g = Graph(graphs.MAX_N, edges)
    path = tmp_path / "g.txt"
    write_graph(g, path)
    text = f"{graphs.MAX_N} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    assert path.read_bytes() == text.encode()
    assert read_graph(path) == g
    for n in (0, 1):
        write_graph(Graph(n), path)
        assert path.read_bytes() == f"{n} 0\n".encode()


def test_read_graph_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3\n")
    with pytest.raises(ValueError):
        read_graph(path)
    path.write_text("3 1\n1 0\n")  # u < v violated
    with pytest.raises(ValueError):
        read_graph(path)
    path.write_text("3 2\n0 1\n")  # wrong edge count
    with pytest.raises(ValueError):
        read_graph(path)


# read_graph accepts exactly these inputs (the vertex count and edges) and
# rejects the rest with ValueError, as the line-by-line reader it replaced did
READ_CONTRACT = [
    ("three_tokens", "3 1\n0 1 2\n", None),
    ("one_token", "3 1\n0\n", None),
    ("negative_vertex", "3 1\n-1 1\n", None),
    ("self_loop", "3 1\n1 1\n", None),
    ("reversed_pair", "3 1\n1 0\n", None),
    ("vertex_eq_n", "3 1\n0 3\n", None),
    ("header_one_int", "3\n", None),
    ("header_three_ints", "3 1 1\n0 1\n", None),
    ("header_not_int", "3 x\n", None),
    ("header_float", "3.0 1\n0 1\n", None),
    ("empty_file", "", None),
    ("non_int_vertex", "3 1\n0 a\n", None),
    ("huge_vertex", "3 1\n0 99999999999999999999999\n", None),
    ("n_over_max", "65537 0\n", None),
    ("n_negative", "-1 0\n", None),
    ("wrong_count", "3 2\n0 1\n", None),
    ("duplicate_line_header", "3 2\n0 1\n0 1\n", None),
    ("non_ascii", "3 1\n0 1\n\xe9\n", None),
    ("blank_lines", "3 2\n0 1\n\n   \n1 2\n\n", (3, [(0, 1), (1, 2)])),
    ("duplicate_unique_header", "3 1\n0 1\n0 1\n", (3, [(0, 1)])),
    ("int_syntax", "12 3\n+1 0_2\n-0 1\n 00 \t 11 \n", (12, [(0, 1), (0, 11), (1, 2)])),
    ("crlf", "3 2\r\n0 1\r\n1 2\r\n", (3, [(0, 1), (1, 2)])),
    ("cr_only", "3 2\r0 1\r1 2\r", (3, [(0, 1), (1, 2)])),
    ("tab_and_vt", "3 2\n0\t1\n1\x0b2\n", (3, [(0, 1), (1, 2)])),
    ("no_trailing_newline", "3 1\n0 1", (3, [(0, 1)])),
    ("header_only_n0", "0 0\n", (0, [])),
]


@pytest.mark.parametrize("text, accepted", [c[1:] for c in READ_CONTRACT], ids=[c[0] for c in READ_CONTRACT])
def test_read_graph_contract(tmp_path, text, accepted):
    path = tmp_path / "g.txt"
    path.write_bytes(text.encode("latin-1"))
    if accepted is None:
        with pytest.raises(ValueError):
            read_graph(path)
    else:
        n, edges = accepted
        assert read_graph(path) == Graph(n, edges)


def test_read_graph_names_the_bad_line_past_the_first_block(tmp_path):
    lines = [f"{i} {i + 1}" for i in range(1500)]
    lines[1100] = "1100 1101 7"
    path = tmp_path / "g.txt"
    path.write_text("1501 1500\n" + "\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 1102: expected 'u v', got '1100 1101 7'"):
        read_graph(path)


@pytest.mark.parametrize("eol", ["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
def test_read_graph_names_the_bad_line_past_the_first_byte_block(tmp_path, eol):
    lines = [f"{i} {i + 1}" for i in range(12000)]
    lines[9000] = "9000 9001 7"
    text = f"12001 12000{eol}" + eol.join(lines) + eol
    assert text.index("9000 9001 7") > graphs._READ_BYTES
    path = tmp_path / "g.txt"
    path.write_bytes(text.encode("ascii"))
    with pytest.raises(ValueError, match="line 9002: expected 'u v', got '9000 9001 7'"):
        read_graph(path)


def test_read_graph_crlf_split_by_a_block_cut(tmp_path):
    # pad one line so that the CR of its CRLF is the last byte before the
    # first cut: counting the LF as a second line end would shift every
    # later line number by one
    head = "9001 9000\r\n"
    body = ""
    for i in range(9000):
        line = f"{i} {i + 1}"
        room = graphs._READ_BYTES - 1 - len(body) - len(line)
        if 0 <= room < 20:
            line += " " * room
        body += line + "\r\n"
    cut = len(head) + graphs._READ_BYTES
    data = (head + body).encode()
    assert data[cut - 1 : cut + 1] == b"\r\n"
    path = tmp_path / "g.txt"
    path.write_bytes(data)
    assert read_graph(path) == path_graph(9001)
    bad = data.replace(b"\r\n8000 8001\r\n", b"\r\n8000 8001 1\r\n")
    assert bad.index(b"8000 8001 1") > cut
    path.write_bytes(bad)
    with pytest.raises(ValueError, match="line 8002: expected 'u v', got '8000 8001 1'"):
        read_graph(path)


def test_read_graph_body_longer_than_a_block_without_line_breaks(tmp_path):
    gap = " \t" * graphs._READ_BYTES
    path = tmp_path / "g.txt"
    path.write_text(f"3 1\n0{gap}2")
    assert read_graph(path) == Graph(3, [(0, 2)])
    path.write_text(f"3 2\n0{gap}2\n1 2\n")
    assert read_graph(path) == Graph(3, [(0, 2), (1, 2)])
    path.write_text(f"3 1\n0{gap}2{gap}1")
    with pytest.raises(ValueError, match="line 2: expected 'u v'"):
        read_graph(path)


@pytest.mark.parametrize(
    "token, outcome",
    [
        ("0" * 18 + "1", None),  # 19 digits: past the Horner loop, read by int()
        ("999999999999999999", "edge (0,999999999999999999) violates"),  # 18 digits, the longest fast token
        ("9223372036854775807", "edge (0,9223372036854775807) violates"),
        ("9223372036854775808", "vertex out of range"),
        ("-9223372036854775809", "vertex out of range"),
    ],
)
def test_read_graph_long_tokens(tmp_path, token, outcome):
    path = tmp_path / "g.txt"
    path.write_text(f"3 1\n0 {token}\n")
    if outcome is None:
        assert read_graph(path) == Graph(3, [(0, 1)])
    else:
        with pytest.raises(ValueError, match=re.escape(outcome)):
            read_graph(path)


_READ_EOLS = st.sampled_from(["\n", "\r", "\r\n"])


@st.composite
def _read_bodies(draw):
    """Graph file bodies: raw text over digits, int syntax, spaces and line
    ends, or lines of 0-3 tokens, most of them small vertices."""
    if draw(st.booleans()):
        chars = st.sampled_from([*"0123456789+-_x \t\x0b\x1c\n\r", "\r\n"])
        return "".join(draw(st.lists(chars, max_size=60)))
    token = st.one_of(
        st.integers(0, 9).map(str), st.text(alphabet="0123456789+-_x", min_size=1, max_size=4)
    )
    space = st.text(alphabet=" \t\x0b\x1c", min_size=1, max_size=2)
    lines = draw(st.lists(st.tuples(st.lists(token, max_size=3), space, _READ_EOLS), max_size=8))
    return "".join(sep.join(tokens) + eol for tokens, sep, eol in lines)


def _read_outcome(read, path):
    try:
        return read(path)
    except ValueError as exc:
        return str(exc)


def _int64_tokens(text):
    try:
        return all(-(1 << 63) <= int(t) < 1 << 63 for t in text.split())
    except ValueError:
        return False


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    n=st.integers(0, 10),
    m=st.one_of(st.none(), st.integers(0, 3)),
    eol=_READ_EOLS,
    body=_read_bodies(),
    block=st.integers(1, 64),
)
def test_read_graph_matches_line_reader(tmp_path, monkeypatch, n, m, eol, body, block):
    monkeypatch.setattr(graphs, "_READ_BYTES", block)
    path = tmp_path / "g.txt"
    if m is None:  # the header count the line reader finds, so that more files are accepted
        path.write_bytes(f"{n} -1{eol}{body}".encode())
        found = re.fullmatch(r"header claims -1 edges, found (\d+)", _read_outcome(read_graph_lines, path))
        m = int(found[1]) if found else 0
    path.write_bytes(f"{n} {m}{eol}{body}".encode())
    new, old = _read_outcome(read_graph, path), _read_outcome(read_graph_lines, path)
    assert type(new) is type(old)
    # with a bad int the readers may name different first errors: the line
    # reader checks token counts 512 lines at a time, read_graph per block
    if isinstance(old, Graph) or _int64_tokens(body):
        assert new == old


def test_write_graph_to_stream_matches_file(tmp_path):
    g = sample_gnp(300, 0.05, Seed(8))
    path = tmp_path / "g.txt"
    write_graph(g, path)
    buf = io.StringIO()
    write_graph(g, buf)
    reference = f"{g.n} {g.edge_count}\n" + "".join(f"{u} {v}\n" for u, v in g.edges())
    assert buf.getvalue() == path.read_text() == reference
