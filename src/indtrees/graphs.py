"""Simple undirected graphs on [n] with bitset adjacency rows, and G(n,p) sampling."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .rng import Seed

MAX_N = 65_536  # bitset width ceiling
_GEOMETRIC_SKIP_THRESHOLD = 4096  # above this, sample sparse p by run-length skipping


@dataclass(frozen=True)
class VertexSet:
    """A subset of [n] stored as a bitmask."""

    mask: int

    @staticmethod
    def of(vertices: Iterable[int]) -> "VertexSet":
        m = 0
        for v in vertices:
            if v < 0:
                raise ValueError(f"negative vertex {v}")
            m |= 1 << v
        return VertexSet(m)

    @staticmethod
    def full(n: int) -> "VertexSet":
        return VertexSet((1 << n) - 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        m = self.mask
        while m:
            low = m & -m
            yield low.bit_length() - 1
            m ^= low

    def __contains__(self, v: int) -> bool:
        return bool((self.mask >> v) & 1)

    def vertices(self) -> tuple[int, ...]:
        return tuple(self)


class Graph:
    """Immutable simple graph; adj[v] is the neighbor bitmask of v."""

    __slots__ = ("n", "adj", "_edge_count")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if n > MAX_N:
            raise ValueError(f"vertex count {n} exceeds supported maximum {MAX_N}")
        adj = [0] * n
        m = 0
        for (u, v) in edges:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if not (adj[u] >> v) & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
                m += 1
        self.n = n
        self.adj = tuple(adj)
        self._edge_count = m

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            m = self.adj[u] >> (u + 1) << (u + 1)
            while m:
                low = m & -m
                yield (u, low.bit_length() - 1)
                m ^= low

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    edges = [(i, i + 1) for i in range(n - 1)]
    if n >= 3:
        edges.append((0, n - 1))
    return Graph(n, edges)


def _pair_index_bounds(n: int) -> np.ndarray:
    # row_start[u] = index of pair (u, u+1) in lexicographic pair order
    u = np.arange(n, dtype=np.int64)
    return u * n - u * (u + 1) // 2


def sample_gnp(n: int, p: float, seed: Seed) -> Graph:
    """Sample G(n,p): each pair joined independently with probability p.

    Deterministic per (n, p, seed). Dense path draws one uniform per pair;
    above _GEOMETRIC_SKIP_THRESHOLD vertices the gaps between edges are
    sampled geometrically instead.
    """
    if math.isnan(p) or not (0.0 <= p <= 1.0):
        raise ValueError(f"p must be in [0, 1], got {p}")
    if n < 0 or n > MAX_N:
        raise ValueError(f"n must be in [0, {MAX_N}]")
    if p == 0.0 or n < 2:
        return Graph(n)
    if p == 1.0:
        return complete_graph(n)

    rng = seed.generator()
    m = n * (n - 1) // 2
    if n <= _GEOMETRIC_SKIP_THRESHOLD:
        u = rng.random(m)
        hit = np.flatnonzero(u < p)
    else:
        hits = []
        logq = math.log1p(-p)
        idx = -1
        while True:
            skip = int(math.log1p(-rng.random()) / logq)
            idx += 1 + skip
            if idx >= m:
                break
            hits.append(idx)
        hit = np.asarray(hits, dtype=np.int64)

    starts = _pair_index_bounds(n)
    us = np.searchsorted(starts, hit, side="right") - 1
    vs = hit - starts[us] + us + 1
    return Graph(n, zip(us.tolist(), vs.tolist()))


def induced_subgraph(g: Graph, s: VertexSet | Iterable[int]) -> Graph:
    """Subgraph induced by s, vertices relabeled in increasing original order."""
    verts = sorted(s)
    if verts and (verts[0] < 0 or verts[-1] >= g.n):
        raise ValueError("vertex set member out of range")
    pos = {v: i for i, v in enumerate(verts)}
    edges = []
    for i, v in enumerate(verts):
        for j in range(i + 1, len(verts)):
            if g.has_edge(v, verts[j]):
                edges.append((i, j))
    return Graph(len(verts), edges)


def is_connected_set(g: Graph, mask: int) -> bool:
    """Whether the vertices in mask induce a connected subgraph; False for 0."""
    if mask == 0:
        return False
    seen = frontier = mask & -mask
    adj = g.adj
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & mask & ~seen
        seen |= frontier
    return seen == mask


def is_connected(g: Graph) -> bool:
    return is_connected_set(g, (1 << g.n) - 1)


def is_tree(g: Graph) -> bool:
    """Connected and exactly n-1 edges; true for the 1-vertex graph, false for n=0."""
    if g.n == 0:
        return False
    return g.edge_count == g.n - 1 and is_connected(g)


def is_forest(g: Graph) -> bool:
    """Acyclic; vacuously true for the empty graph."""
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (u, v) in g.edges():
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def write_graph(g: Graph, path) -> None:
    """Text format: first line "n m", then one "u v" line per edge, u < v."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{g.n} {g.edge_count}\n")
        for (u, v) in g.edges():
            fh.write(f"{u} {v}\n")


def read_graph(path) -> Graph:
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError("malformed header, expected 'n m'")
        n, m = int(header[0]), int(header[1])
        edges = []
        for line in fh:
            if not line.strip():
                continue
            u, v = map(int, line.split())
            if not (0 <= u < v < n):
                raise ValueError(f"edge ({u},{v}) violates 0 <= u < v < n")
            edges.append((u, v))
    g = Graph(n, edges)
    if g.edge_count != m:
        raise ValueError(f"header claims {m} edges, found {g.edge_count}")
    return g
