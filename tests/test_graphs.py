import hashlib
import io
import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from indtrees import graphs
from indtrees.graphs import (
    Graph,
    VertexSet,
    complete_graph,
    cycle_graph,
    induced_subgraph,
    is_connected,
    is_forest,
    is_tree,
    path_graph,
    read_graph,
    sample_gnp,
    write_graph,
)
from indtrees.rng import Seed
from oracles import adjacency_rows


def small_graphs():
    return st.integers(min_value=0, max_value=9).flatmap(
        lambda n: st.lists(
            st.tuples(
                st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))
            ).filter(lambda e: e[0] != e[1]),
            max_size=20,
        ).map(lambda edges: Graph(n, edges) if n else Graph(0))
    )


# --- VertexSet ---------------------------------------------------------------


def test_vertexset_basics():
    s = VertexSet.of([0, 3, 5])
    assert len(s) == 3
    assert list(s) == [0, 3, 5]
    assert 3 in s and 1 not in s
    assert VertexSet.full(4).vertices() == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        VertexSet.of([-1])


# --- Graph construction ------------------------------------------------------


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(-1)


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
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert g.degree(0) == 1 and g.degree(2) == 0


def test_named_graphs():
    assert complete_graph(5).edge_count == 10
    assert path_graph(5).edge_count == 4
    assert cycle_graph(5).edge_count == 5
    assert is_tree(path_graph(5))
    assert not is_tree(cycle_graph(5))
    assert not is_forest(cycle_graph(3))


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
    # n above the geometric-skip threshold exercises the run-length sampler
    n, p = 5000, 0.0008
    g = sample_gnp(n, p, Seed(9))
    m = n * (n - 1) / 2
    assert g == sample_gnp(n, p, Seed(9))
    assert abs(g.edge_count - p * m) < 5 * math.sqrt(m * p * (1 - p))
    for (u, v) in itertools.islice(g.edges(), 100):
        assert 0 <= u < v < n


# --- bit identity of the array sampler ----------------------------------------

# (n, p, edge_count, SHA-256 of adj, SHA-256 of write_graph's bytes or None),
# sampled with Seed(2026, i) for the i-th row. Recorded with the per-edge
# sampler and Graph constructor that the array pipeline replaced.
PINNED_SAMPLES = [
    (12, 0.45, 24, "a4fd57495cd0fa3a431a9ede2f7e04ca7110ba1b31ef50290143419c6fe6b84b",
     "602bbeed8524f12ae60b567d0ea57b2fd9ab00caa5241bc2b1a10bfc57c25398"),
    (12, 0.01, 1, "d9a16cb05dcb7f99472008f06321116dd921b3a6843e1ed1bb104ff24bd02237",
     "4784a1fd5dbe7e65c67dacc9a196ea2ad371921c71f6c6e89a5bb7bc72dee8fb"),
    (12, 0.0005, 0, "9d908ecfb6b256def8b49a7c504e6c889c4b0e41fe6ce3e01863dd7b61a20aa0",
     "409f503e6c66e66048abac6fbc002a4c196158e9a0915629047ac76c00d65add"),
    (12, 1e-12, 0, "9d908ecfb6b256def8b49a7c504e6c889c4b0e41fe6ce3e01863dd7b61a20aa0",
     "409f503e6c66e66048abac6fbc002a4c196158e9a0915629047ac76c00d65add"),
    (16, 0.45, 51, "3aec9f6133e25d31c2422626c8639f6c0c331a895ebba0a77b0e1a78b5397cde",
     "e549b435c75569aa1ef130f1c585a0809ee891eb140de1999b0e18cd32a79da1"),
    (16, 0.01, 0, "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925",
     "fbfc31d9257bfea5c6250fbc44774a183a5d2c1e871bec6bb16ca16c827c1bce"),
    (16, 0.0005, 0, "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925",
     "fbfc31d9257bfea5c6250fbc44774a183a5d2c1e871bec6bb16ca16c827c1bce"),
    (16, 1e-12, 0, "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925",
     "fbfc31d9257bfea5c6250fbc44774a183a5d2c1e871bec6bb16ca16c827c1bce"),
    (1000, 0.45, 224785, "fe62a2da753a0b502daa8aa004b374422569de72a0948aa590915c2385e08a72",
     "308b134c889612d65627a60d026dc6281d8818d090103a9e46f77a64c5a60543"),
    (1000, 0.01, 4994, "e42d0b4139076278ceb5023d8506dcd53a8cacf74989c4b5cd44932bfe4f8710",
     "9f524dd94446e8f3b14c7606e1da34fbfdccff5f117b0b0f83d28c6305bb2098"),
    (1000, 0.0005, 255, "91fc211fa766e3692a1ebc4bd03048c6496ebfd9f814d3e1410cda69e48a1598",
     "3368f47deaee652da686c6292c8c199b25c6756a0a72c8cfc2fb205ac5480b18"),
    (1000, 1e-12, 0, "923b0ffd1a22207230ef2d9a76434d8c9aa6bdaa7ad9541abf0bf3b2fe32a987",
     "e48bcc41a5c09d5c7b11df3eccdb66d4e06ff7464e545515f46c8dbab6a8f443"),
    (4096, 0.45, 3773493, "9c67036285118150372ceccbf0c4ff6f4b3e91335091bb7bd771e80c191fef31",
     None),
    (4096, 0.01, 83547, "3f32f262882c2c1bc8a8bfcc6cc1050c208aff2620c0b06f8bab7ac29a4d0297",
     "a9dcff51c26aaf8dba6b3ec4b58a6b28b813e285b3bb3958d4df382276477906"),
    (4096, 0.0005, 4153, "6d2b33eeacf867a3f521a93082a72dd825a5db56f61b00c71d098ed0fc603d7d",
     "34994e468c53b6c10e1ec0c5be0f8a149e1923c653e35e8493f82a9d9fcb54cc"),
    (4096, 1e-12, 0, "5647f05ec18958947d32874eeb788fa396a05d0bab7c1b71f112ceb7e9b31eee",
     "cc854ac4377426947d1e3ceac8a8e838b36140db1bd8e3951452764a35ac6324"),
    (4097, 0.45, 3776842, "7752d308be761edef76de53aa461c3f29259de80209ae4ee0326fae4a322b8c4",
     None),
    (4097, 0.01, 83786, "cb6ba31cafcb01ec6dffbb1817c9d8fefdeefa308fe906a46d8d290e38b279d3",
     "54eacb7e233fc9b765483973f232f3e513c9d7ae840145748e61bcfac346ac28"),
    (4097, 0.0005, 4094, "b0be1a5bc2213a77f4b97419bda8642097f1075c18dd9061fef6c775ed5b0cba",
     "4351389a945009273e9eabe0eb55dfa2bc37fbf8d57624dca018d9fe84337381"),
    (4097, 1e-12, 0, "89b7c673c97f6b2901504bf30db4c25778f910b5cfabaa458f451b04e6f1f988",
     "ec66c7b314c5de8a7682f6f8c4a485950447c3043a5f47f6751e40715b3a9325"),
    (4200, 0.45, 3969415, "aa6be5f05717af4ac47ea3f1e99dd4f49c651a0f525876e3971b95c1745cfdbf",
     None),
    (4200, 0.01, 87792, "22f1d0c9a8cdf5fea5e20c8de7ffb2b3dabc2a3defb69f109a37921648af2c8f",
     "2fcf20aa111b7e1a88dd3ae205f9ff0535c9aed133aa457708018f84a96ae140"),
    (4200, 0.0005, 4436, "8d92fbfae294a424b266471fb018b144bb3b8ee0130b55bbaea8fad6bbfbe43a",
     "2c1eb87caa31efe238fecf5e7fd2dde7a822c459b4f9abc0dcd48063da0073ba"),
    (4200, 1e-12, 0, "4ed400c51525ee0ceb3555bfc919850e4afba04c9f165cc8837bc56701c5f49a",
     "25c71c72d500bd06ca255c765467b2930ebeffaacf5271ccee7e4e1376e50173"),
    (16384, 0.01, 1341637, "3feb36d720ecb74e4233f8a7088cc499f32db29ae2fd7c3f8f0f3a7809d4d9e4",
     "8cb3e90e4a31f99d402fb71ab688e15e6af51607931275377d5851482e38f16a"),
    (16384, 0.0005, 67162, "7a9bdf21efca8f7dbd2a9179f2edd18056a15be45adf11895336144d89aa0a81",
     "dad8febe48270ee29734db2aef3117f9c8f33059dc21c5d560ae70b77bf9104e"),
    (16384, 1e-12, 0, "83ee47245398adee79bd9c0a8bc57b821e92aba10f5f9ade8a5d1fae4d8c4302",
     "d5e6d271a7129c745f419e78ace7a0cccc304a072451ae804a805b8f156c19a0"),
    (4200, 0.3, 2645411, "8e362f0e60beef7791b30e2d9b3a9a1b52b739566c498c9cad4d9e6a2d7e38e8",
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
    """The scalar samplers: one array of n(n-1)/2 draws, or one draw per gap."""
    m = n * (n - 1) // 2
    rng = seed.generator()
    if n <= graphs._GEOMETRIC_SKIP_THRESHOLD:
        return np.flatnonzero(rng.random(m) < p)
    hits, idx, logq = [], -1, math.log1p(-p)
    while True:
        idx += 1 + int(math.log1p(-rng.random()) / logq)
        if idx >= m:
            return np.asarray(hits, dtype=np.int64)
        hits.append(idx)


@pytest.mark.parametrize("block", [7, 1 << 20])
@pytest.mark.parametrize(
    "n, p", [(30, 0.3), (1000, 0.002), (4097, 0.01), (4500, 1e-5), (5000, 1e-300)]
)
def test_sampler_matches_scalar_draws(monkeypatch, block, n, p):
    # a block of 7 draws puts many block boundaries inside each graph
    monkeypatch.setattr(graphs, "_DRAW_BLOCK", block)
    seed = Seed(77, n)
    np.testing.assert_array_equal(
        graphs._sample_pair_index(n, p, seed), reference_pair_index(n, p, seed)
    )


def test_skip_gaps_use_math_log1p():
    # uniforms at which np.log1p(-u) and math.log1p(-u) differ by one ulp
    # and the floor of the gap moves
    cases = [
        (1e-12, ["0x1.44a9b3217c04bp-1", "0x1.bcfc0e9b9f3e0p-2", "0x1.588ac8dc267cbp-1"]),
        (1e-9, ["0x1.91693c348a650p-1"]),
    ]
    for p, hexes in cases:
        u = np.array([float.fromhex(h) for h in hexes])
        logq = math.log1p(-p)
        expected = [int(math.log1p(-x) / logq) for x in u]
        assert graphs._skip_gaps(u, logq, 1 << 62).tolist() == expected
    # clipped before the int64 cast: a gap of ~1e300 would overflow
    assert graphs._skip_gaps(np.array([0.5]), math.log1p(-1e-300), 10).tolist() == [10]


def test_sample_subnormal_p_on_skip_path():
    # log1p(-u) / log1p(-p) overflows to inf; the graph is empty, not an error
    for p in (1e-320, 5e-324):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sample_gnp(5000, p, Seed(1)).edge_count == 0


@pytest.mark.parametrize("count", [0, 1, graphs._LOOP_EDGES, graphs._LOOP_EDGES + 1, 3000])
def test_rows_from_pair_index_match_constructor(count):
    n = 2 * graphs._ROW_BLOCK + 5  # three row blocks, the last one short
    m = n * (n - 1) // 2
    idx = np.sort(np.random.default_rng(count).choice(m, size=count, replace=False))
    us, vs = np.triu_indices(n, 1)  # pairs in lexicographic order
    pairs = list(zip(us[idx].tolist(), vs[idx].tolist()))
    g = Graph._from_pair_index(n, idx)
    assert g.adj == adjacency_rows(n, pairs) and g.edge_count == count
    assert Graph(n, pairs) == g


@pytest.mark.parametrize("n, p, seed", [(2000, 0.01, Seed(41)), (6000, 0.003, Seed(42))])
def test_sample_edge_count_and_degree_distribution(n, p, seed):
    """Edge-count z-score and a degree chi-square against Binomial(n-1, p),
    on the dense path (n <= 4096) and the skip path."""
    g = sample_gnp(n, p, seed)
    m = n * (n - 1) // 2
    assert abs(g.edge_count - m * p) <= 4 * math.sqrt(m * p * (1 - p))

    observed = np.bincount([g.degree(v) for v in range(n)], minlength=n)
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
             if g.has_edge(verts[i], verts[j])]
    assert induced_subgraph(g, VertexSet.of(verts)) == Graph(len(verts), pairs)


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_tree_implies_forest(g):
    if is_tree(g):
        assert is_forest(g)
    if is_forest(g) and g.n >= 1 and g.edge_count == g.n - 1:
        assert is_tree(g)


def test_induced_subgraph_relabels_increasing():
    g = path_graph(5)  # 0-1-2-3-4
    sub = induced_subgraph(g, [1, 3, 4])
    # vertices 1,3,4 -> 0,1,2; only edge 3-4 survives -> (1,2)
    assert sub.n == 3
    assert list(sub.edges()) == [(1, 2)]


def test_recognizer_edge_cases():
    empty = Graph(0)
    assert not is_tree(empty)
    assert is_forest(empty)  # vacuously acyclic
    assert not is_connected(empty)
    single = Graph(1)
    assert is_tree(single)
    assert is_forest(single)


# --- text format -------------------------------------------------------------


def test_graph_file_round_trip(tmp_path):
    g = sample_gnp(20, 0.4, Seed(5))
    path = tmp_path / "g.txt"
    write_graph(g, path)
    assert read_graph(path) == g
    first = path.read_text().splitlines()[0]
    assert first == f"{g.n} {g.edge_count}"


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


def test_write_graph_to_stream_matches_file(tmp_path):
    g = sample_gnp(300, 0.05, Seed(8))
    path = tmp_path / "g.txt"
    write_graph(g, path)
    buf = io.StringIO()
    write_graph(g, buf)
    reference = f"{g.n} {g.edge_count}\n" + "".join(f"{u} {v}\n" for u, v in g.edges())
    assert buf.getvalue() == path.read_text() == reference
