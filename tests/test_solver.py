import hashlib
import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from indtrees.counting import cayley
from indtrees.graphs import Graph, is_tree, sample_gnp
from indtrees.rng import Seed
from indtrees.solver import (
    SolveResult,
    check_witness,
    greedy_tree_lower_bound,
    max_induced_tree,
    max_induced_tree_bruteforce,
)
from oracles import (
    complete_graph,
    cycle_graph,
    max_induced_tree_reference,
    path_graph,
    uniform_gnp,
)


def star(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def test_trivial_instances_bruteforce():
    assert max_induced_tree_bruteforce(complete_graph(4)).size == 2
    assert max_induced_tree_bruteforce(path_graph(5)).size == 5
    assert max_induced_tree_bruteforce(star(7)).size == 8


def test_bruteforce_counts_every_edge_of_k20():
    # the full vertex set of K20 holds C(20, 2) = 190 edges, the most one
    # byte of the subset edge-count table must hold
    res = max_induced_tree_bruteforce(complete_graph(20))
    assert (res.size, res.witness, res.nodes_explored) == (2, 0b11, (1 << 20) - 1)


def test_trivial_instances_branch_and_bound():
    assert max_induced_tree(complete_graph(4)).size == 2
    assert max_induced_tree(path_graph(5)).size == 5
    assert max_induced_tree(star(7)).size == 8
    assert max_induced_tree(cycle_graph(6)).size == 5  # drop one cycle vertex


@pytest.mark.parametrize("n", range(1, 6))
def test_every_graph_on_at_most_five_vertices(n):
    # every labelled graph on [n], one per subset of the C(n, 2) pairs
    pairs = list(itertools.combinations(range(n), 2))
    sizes = Counter()
    for mask in range(1 << len(pairs)):
        g = Graph(n, [pq for i, pq in enumerate(pairs) if mask >> i & 1])
        res = max_induced_tree(g)
        assert res.optimal and check_witness(g, res)
        assert res.size == max_induced_tree_bruteforce(g).size
        greedy = greedy_tree_lower_bound(g, 1, Seed(mask))
        assert greedy.size <= res.size and check_witness(g, greedy)
        sizes[res.size] += 1
    assert sizes[n] == cayley(n)  # T = n exactly when g is a spanning tree
    if n == 5:
        assert sizes == {1: 1, 2: 51, 3: 285, 4: 562, 5: 125}


def test_single_vertex_floor():
    for g in (Graph(1), Graph(3), complete_graph(2)):
        res = max_induced_tree(g)
        assert res.size >= 1
        assert check_witness(g, res)


def test_empty_graph():
    res = max_induced_tree(Graph(0))
    assert res.size == 0 and res.optimal
    res = max_induced_tree_bruteforce(Graph(0))
    assert res.size == 0 and res.optimal


def test_empty_graph_gives_the_whole_empty_result():
    g = Graph(0)
    assert max_induced_tree(g) == max_induced_tree_bruteforce(g) == SolveResult(0, 0, 0, True)
    assert not is_tree(g) and not check_witness(g, max_induced_tree(g))


def test_bruteforce_refuses_large_n():
    with pytest.raises(ValueError):
        max_induced_tree_bruteforce(Graph(21))


def test_witness_certifies_result():
    for s in range(30):
        g = sample_gnp(13, 0.35, Seed(2024, s))
        res = max_induced_tree(g)
        assert res.optimal
        assert check_witness(g, res)


def test_agrees_with_bruteforce_random():
    for s in range(40):
        g = sample_gnp(12, 0.4, Seed(77, s))
        assert max_induced_tree(g).size == max_induced_tree_bruteforce(g).size


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=10),
    st.floats(min_value=0.05, max_value=0.95),
    st.integers(min_value=0, max_value=2**32),
)
def test_agrees_with_bruteforce_property(n, p, s):
    g = sample_gnp(n, p, Seed(s))
    a = max_induced_tree(g)
    b = max_induced_tree_bruteforce(g)
    assert a.size == b.size
    assert check_witness(g, a) and check_witness(g, b)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=22),
    st.floats(min_value=0.1, max_value=0.7),
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=1, max_value=10**6),
)
def test_search_matches_the_reference_loop_at_every_budget(n, p, s, budget):
    # the whole SolveResult: size, witness, nodes and optimal, at budgets
    # that cut the search at its first nodes, somewhere, at its last node
    # and just past it
    g = sample_gnp(n, p, Seed(s))
    full = max_induced_tree_reference(g)
    assert max_induced_tree(g) == full
    for b in (1, 2, budget, full.nodes_explored, full.nodes_explored + 1):
        if b >= 1:
            assert max_induced_tree(g, b) == max_induced_tree_reference(g, b)


def test_budget_exhaustion_is_lower_bound():
    g = sample_gnp(18, 0.3, Seed(5, 0))
    full = max_induced_tree(g)
    assert full.optimal
    starved = max_induced_tree(g, budget=3)
    assert not starved.optimal
    assert 1 <= starved.size <= full.size
    assert check_witness(g, starved)


def test_deterministic_nodes_count():
    g = sample_gnp(14, 0.5, Seed(11, 3))
    a = max_induced_tree(g)
    b = max_induced_tree(g)
    assert (a.size, a.nodes_explored, a.witness) == (b.size, b.nodes_explored, b.witness)


def test_greedy_is_valid_lower_bound():
    for s in range(10):
        g = sample_gnp(15, 0.4, Seed(31, s))
        exact = max_induced_tree(g)
        greedy = greedy_tree_lower_bound(g, restarts=30, seed=Seed(31, 1000 + s))
        assert not greedy.optimal
        assert 1 <= greedy.size <= exact.size
        assert check_witness(g, greedy)


def test_greedy_deterministic_per_seed():
    g = sample_gnp(20, 0.35, Seed(8, 0))
    a = greedy_tree_lower_bound(g, 50, Seed(8, 1))
    b = greedy_tree_lower_bound(g, 50, Seed(8, 1))
    assert a == b


# (n, p, stream) of uniform_gnp(n, p, Seed(303, stream)) -> (size,
# nodes_explored, witness mask), all optimal; recorded from the per-vertex
# rescan search that the incremental masks replaced, so any change of
# traversal order shows here
PINNED_SEARCHES = [
    (14, 0.45, 1400, 7, 115, 719),
    (14, 0.45, 1401, 7, 197, 1359),
    (14, 0.45, 1402, 9, 69, 3571),
    (14, 0.45, 1403, 8, 86, 5973),
    (14, 0.45, 1404, 8, 73, 11121),
    (14, 0.45, 1405, 7, 157, 3134),
    (14, 0.45, 1406, 6, 155, 287),
    (16, 0.4, 1600, 8, 223, 39687),
    (16, 0.4, 1601, 8, 347, 6885),
    (16, 0.4, 1602, 10, 162, 6007),
    (16, 0.4, 1603, 10, 173, 3823),
    (16, 0.4, 1604, 11, 292, 65196),
    (16, 0.4, 1605, 9, 198, 37818),
    (16, 0.4, 1606, 9, 241, 25326),
    (18, 0.3, 1800, 14, 124, 244717),
    (18, 0.3, 1801, 10, 669, 180605),
    (18, 0.3, 1802, 12, 174, 193895),
    (18, 0.3, 1803, 11, 362, 56237),
    (18, 0.3, 1804, 12, 255, 216303),
    (18, 0.3, 1805, 12, 315, 51711),
    (18, 0.3, 1806, 11, 367, 158271),
]


@pytest.mark.parametrize(
    "n,p,stream,size,nodes,mask",
    PINNED_SEARCHES,
    ids=[f"n={n}-p={p}-stream={stream}" for n, p, stream, *_ in PINNED_SEARCHES],
)
def test_search_matches_pinned_records(n, p, stream, size, nodes, mask):
    res = max_induced_tree(uniform_gnp(n, p, Seed(303, stream)))
    assert (res.size, res.nodes_explored, res.witness, res.optimal) == (
        size, nodes, mask, True
    )


@pytest.mark.parametrize("budget", [0, -3])
def test_search_rejects_budget_below_1(budget):
    with pytest.raises(ValueError, match=f"budget must be >= 1, got {budget}"):
        max_induced_tree(path_graph(4), budget=budget)
    with pytest.raises(ValueError, match="budget must be >= 1"):
        max_induced_tree(Graph(0, []), budget=budget)


@pytest.mark.parametrize("restarts", [0, -4])
def test_greedy_rejects_restarts_below_1(restarts):
    with pytest.raises(ValueError, match=f"restarts must be >= 1, got {restarts}"):
        greedy_tree_lower_bound(path_graph(4), restarts, Seed(1))
    with pytest.raises(ValueError, match="restarts must be >= 1"):
        greedy_tree_lower_bound(Graph(0, []), restarts, Seed(1))


def test_search_pinned_with_budget_and_at_n40():
    starved = max_induced_tree(sample_gnp(18, 0.3, Seed(5, 0)), budget=3)
    assert (starved.size, starved.nodes_explored, starved.witness) == (3, 3, 13)
    assert not starved.optimal
    res = max_induced_tree(sample_gnp(40, 0.3, Seed(1, 0)))
    assert (res.size, res.nodes_explored, res.witness, res.optimal) == (
        17, 179231, 22054102253, True
    )


@pytest.mark.parametrize(
    "restarts,size,digest",
    [
        (1, 339, "48a09f2957a094033dda22eada79711a38cb36adf8dce01e67b5755a3b5ff2ab"),
        (5, 356, "a518f684b97f154cceb69528b06828d268ad6f0e1c1382ec7217b7211518ad03"),
    ],
    ids=["restarts=1", "restarts=5"],
)
def test_greedy_matches_pinned_records(restarts, size, digest):
    # digest: SHA-256 of hex(witness), recorded as for PINNED_SEARCHES
    g = uniform_gnp(1000, 0.01, Seed(7, 0))
    res = greedy_tree_lower_bound(g, restarts, Seed(7, 1))
    assert res.size == size
    assert hashlib.sha256(hex(res.witness).encode()).hexdigest() == digest
    assert check_witness(g, res)
