"""Simple undirected graphs on [n] stored as sorted edge pair indices, with
bitset adjacency rows built on first use, and G(n,p) sampling."""
from __future__ import annotations

import functools
import itertools
import math
from contextlib import nullcontext
from typing import ContextManager, Iterable, Iterator, TextIO

import numpy as np

from .rng import Seed, reset_generator

MAX_N = 65_536  # bitset width ceiling
_DRAW_BLOCK = 1 << 20  # gaps per rng.geometric call in the sampler
_STAGE_BYTES = (1 << 17) - 1  # cap on a staged row buffer, under glibc's 128 KiB mmap threshold
_LOOP_EDGES = 128  # up to this many edges, a per-edge loop builds rows faster than numpy
_PAIR_TABLE_N = 32  # up to this n, the loop skips _pair_endpoints' numpy fixed cost
_READ_BYTES = 1 << 16  # bytes read_graph parses at a time, cut just after a line break
_SPACE = np.zeros(256, dtype=bool)  # the ASCII bytes str.split() splits on
_SPACE[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True
_CELL = np.dtype("<u8")  # _edge_lines' byte cells, little-endian on every host


def check_vertex_count(n: int, error: type[ValueError] = ValueError) -> None:
    if not 0 <= n <= MAX_N:
        raise error(f"vertex count {n} outside [0, {MAX_N}]")


class Graph:
    """Immutable simple graph on [n], stored as the sorted lexicographic
    indices of its edges (see _pair_index_bounds); adj[v], the neighbour
    bitmask of v, is built on first use and cached."""

    __slots__ = ("n", "_pairs", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        check_vertex_count(n)
        edges = list(edges)
        # dtype inferred, not forced: a float, string or None endpoint, or an
        # int past int64, is rejected rather than truncated
        uv = np.array(edges) if edges else np.empty((0, 2), dtype=np.int64)
        if uv.ndim != 2 or uv.shape[1] != 2 or uv.dtype.kind not in "biu":
            raise ValueError("edges must be pairs (u, v) of integers")
        us, vs = uv[:, 0], uv[:, 1]
        bad = np.flatnonzero((us == vs) | (uv < 0).any(axis=1) | (uv >= n).any(axis=1))
        if bad.size:
            u, v = uv[bad[0]].tolist()
            raise ValueError(f"edge ({u},{v}) is a self-loop or out of range for n={n}")
        self.n, self._adj = n, None
        self._pairs = _pair_index(n, us.astype(np.int64), vs.astype(np.int64))

    @classmethod
    def _from_pair_index(cls, n: int, idx: np.ndarray) -> "Graph":
        """Graph from sorted, unique int64 lexicographic pair indices; n <= MAX_N."""
        g = cls.__new__(cls)
        g.n, g._pairs, g._adj = n, idx, None
        return g

    @property
    def adj(self) -> tuple[int, ...]:
        if self._adj is None:
            self._adj = _adjacency_rows(self.n, self._pairs)
        return self._adj

    @property
    def edge_count(self) -> int:
        return len(self._pairs)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges (u, v), u < v, in lexicographic order."""
        us, vs = _pair_endpoints(self.n, self._pairs)
        return zip(us.tolist(), vs.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return False
        return self.n == other.n and np.array_equal(self._pairs, other._pairs)

    def __hash__(self) -> int:
        return hash((self.n, self._pairs.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def _adjacency_rows(n: int, idx: np.ndarray) -> tuple[int, ...]:
    """Neighbour bitmasks of the graph on [n] with pair indices idx.

    Up to _LOOP_EDGES edges, a per-edge loop sets the bits, reading the
    endpoints from _pair_table up to _PAIR_TABLE_N vertices. Beyond that,
    rows are ORed into byte buffers of whole rows, block by block, so the
    n x n/8 bit matrix is never staged at once:
    - each row is big-endian (its highest vertices in byte 0), so that one
      C-level map of int.from_bytes over the block's rows, viewed as
      width-byte void items, converts it with no Python loop per row (the
      byte order is passed, as Python 3.10 has no default);
    - a block holds _STAGE_BYTES // width rows, so every buffer stays under
      glibc's 128 KiB mmap threshold instead of being mapped and unmapped
      once per block; the endpoints are sorted by row (a radix sort) only
      when the graph needs more than one block;
    - the endpoints and offsets stay int32 (offsets reach n * width < 2**30);
      in int64 the function measured about 1.3x slower at n = 4096, p = .01.
    """
    if len(idx) <= _LOOP_EDGES:
        if n <= _PAIR_TABLE_N:
            edges = map(_pair_table(n).__getitem__, idx.tolist())
        else:
            us, vs = _pair_endpoints(n, idx)
            edges = zip(us.tolist(), vs.tolist())
        adj = [0] * n
        for u, v in edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return tuple(adj)
    us, vs = _pair_endpoints(n, idx)
    width = (n + 7) // 8
    block = _STAGE_BYTES // width  # rows per staged buffer
    src = np.concatenate((us, vs), dtype=np.int32)
    dst = np.concatenate((vs, us), dtype=np.int32)
    if n <= block:
        block_starts = [0, len(src)]
    else:
        order = np.argsort(src.astype(np.uint16), kind="stable")  # radix sort; n <= 2**16
        src, dst = src[order], dst[order]
        block_starts = np.searchsorted(src, np.arange(0, n + block, block)).tolist()
    offset = src * width + (width - 1 - (dst >> 3))  # byte of bit dst in the n x width matrix
    bit = np.left_shift(1, dst & 7).astype(np.uint8)
    row = np.dtype((np.void, width))
    rows = [0] * n
    for b, r0 in enumerate(range(0, n, block)):
        lo, hi = block_starts[b], block_starts[b + 1]
        if lo == hi:
            continue
        r1 = min(n, r0 + block)
        buf = np.zeros((r1 - r0) * width, dtype=np.uint8)
        np.bitwise_or.at(buf, offset[lo:hi] - r0 * width, bit[lo:hi])
        rows[r0:r1] = map(int.from_bytes, buf.view(row).tolist(), itertools.repeat("big"))
    return tuple(rows)


@functools.cache
def _pair_table(n: int) -> tuple[tuple[int, int], ...]:
    """The pairs (u, v), u < v, of [n] in lexicographic order, so that entry
    i holds the endpoints of pair index i; n <= _PAIR_TABLE_N."""
    return tuple(itertools.combinations(range(n), 2))


def _pair_index_bounds(n: int) -> np.ndarray:
    # row_start[u] = index of pair (u, u+1) in lexicographic pair order
    u = np.arange(n, dtype=np.int64)
    return u * n - u * (u + 1) // 2


def _pair_index(n: int, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Sorted, unique pair indices of the int64 pairs {us[i], vs[i]}, us != vs.
    Pairs already in strictly increasing index order (write_graph's files,
    induced_subgraph's monotone relabel) skip the sort: the same array."""
    lo, hi = np.minimum(us, vs), np.maximum(us, vs)
    idx = _pair_index_bounds(n)[lo] + (hi - lo - 1)
    if not (idx[1:] > idx[:-1]).all():
        idx.sort()
        idx = idx[np.diff(idx, prepend=-1) != 0]
    return idx


def _pair_endpoints(n: int, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (us, vs), us < vs, with sorted lexicographic pair indices
    idx; us repeats each vertex by the number of indices in its row."""
    starts = _pair_index_bounds(n)
    us = np.repeat(np.arange(n), np.diff(np.searchsorted(idx, starts), append=len(idx)))
    return us, idx - starts[us] + us + 1


def _sample_pair_index(n: int, p: float, seed: Seed) -> np.ndarray:
    """Sorted lexicographic pair indices of the edges of G(n, p); see sample_gnp."""
    m = n * (n - 1) // 2
    if p == 0.0 or m == 0:
        return np.empty(0, dtype=np.int64)
    if p == 1.0:
        return np.arange(m, dtype=np.int64)
    rng = reset_generator(seed)
    # Each rng.geometric draw is the step from one edge to the next (the gap
    # plus one). Clipping at m + 1 keeps the cumulative sum in int64 (a tiny
    # p draws INT64_MAX) and still steps past the last pair. Blocks read the
    # stream in order and the draws past the last edge are never read (the
    # next call resets the generator), so the graph does not depend on
    # _DRAW_BLOCK.
    hits = []
    last = -1
    while True:
        expect = (m - last) * p
        k = min(_DRAW_BLOCK, m - last, int(expect + 4 * math.sqrt(expect)) + 64)
        pos = last + np.cumsum(np.minimum(rng.geometric(p, k), m + 1))
        end = int(np.searchsorted(pos, m))
        hits.append(pos[:end])
        if end < k:
            return hits[0] if len(hits) == 1 else np.concatenate(hits)
        last = int(pos[-1])


def sample_gnp(n: int, p: float, seed: Seed) -> Graph:
    """Sample G(n,p): each pair joined independently with probability p.

    Deterministic per (n, p, seed). The gaps between consecutive edges in
    lexicographic pair order are drawn as geometric variables (Batagelj and
    Brandes, Phys. Rev. E 71, 2005), so the work is proportional to the
    number of edges.
    """
    if math.isnan(p) or not (0.0 <= p <= 1.0):
        raise ValueError(f"p must be in [0, 1], got {p}")
    check_vertex_count(n)
    try:
        idx = _sample_pair_index(n, p, seed)
    except MemoryError as exc:
        edges = n * (n - 1) * p / 2
        raise MemoryError(
            f"G(n={n}, p={p}) expects n(n-1)p/2 = {edges:.0f} edges, "
            f"an int64 pair index of {edges * 8 / 2**30:.1f} GiB"
        ) from exc
    return Graph._from_pair_index(n, idx)


def induced_subgraph(g: Graph, s: Iterable[int]) -> Graph:
    """Subgraph induced by s, vertices relabeled in increasing original order."""
    verts = sorted(set(s))
    if verts and (verts[0] < 0 or verts[-1] >= g.n):
        raise ValueError("vertex set member out of range")
    pos = np.full(g.n, -1, dtype=np.int64)  # new label of each kept vertex
    pos[verts] = np.arange(len(verts))
    us, vs = _pair_endpoints(g.n, g._pairs)
    us, vs = pos[us], pos[vs]
    keep = (us >= 0) & (vs >= 0)
    return Graph._from_pair_index(len(verts), _pair_index(len(verts), us[keep], vs[keep]))


def mask_vertices(mask: int) -> list[int]:
    """The set bits of mask (bit v stands for vertex v), in increasing order."""
    if mask < 0:  # infinitely many set bits
        raise ValueError(f"vertex mask must be >= 0, got {mask}")
    vertices = []
    while mask:
        low = mask & -mask
        vertices.append(low.bit_length() - 1)
        mask ^= low
    return vertices


def is_connected_set(g: Graph, mask: int) -> bool:
    """Whether the vertices in mask induce a connected subgraph; False for 0."""
    if mask >> g.n:  # a bit at or past n, or a negative mask
        raise ValueError(f"vertex mask {mask:#x} outside [0, 2**{g.n}) for n={g.n}")
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


def is_tree(g: Graph) -> bool:
    """Connected and exactly n-1 edges; true for the 1-vertex graph, false for n=0."""
    return g.edge_count == g.n - 1 and is_connected_set(g, (1 << g.n) - 1)


def _edge_lines(n: int, us: np.ndarray, vs: np.ndarray) -> str:
    """The "u v\\n" lines for edges (us, vs), formatted by table lookup.

    Each vertex has one 8-byte little-endian cell per side of a line: its
    decimal digits right-aligned in bytes 0-4, then " " (u side) or "\\n"
    (v side) in byte 5, then NUL padding. A line is the u cell of us[i] and
    the v cell of vs[i]; dropping the NULs leaves exactly f"{u} {v}\\n".
    """
    width = len(str(MAX_N - 1))
    x = np.arange(n, dtype=_CELL)
    digits = np.zeros(n, dtype=_CELL)
    for c in range(width):
        scale = 10 ** (width - 1 - c)
        shown = (x >= scale) | (scale == 1)
        digits |= np.where(shown, ord("0") + x // scale % 10, 0) << 8 * c
    line = np.empty((len(us), 2), dtype=_CELL)
    line[:, 0] = (digits | ord(" ") << 8 * width).take(us)
    line[:, 1] = (digits | ord("\n") << 8 * width).take(vs)
    return line.tobytes().translate(None, b"\0").decode("ascii")


def write_graph(g: Graph, path_or_buf) -> None:
    """Text format: first line "n m", then one "u v" line per edge, u < v.

    Writes to a path, or to an open text stream such as sys.stdout.
    """
    text = f"{g.n} {g.edge_count}\n" + _edge_lines(g.n, *_pair_endpoints(g.n, g._pairs))
    with open_output(path_or_buf, encoding="ascii") as fh:
        fh.write(text)


def open_output(path_or_buf, **open_kwargs) -> ContextManager[TextIO]:
    """A context manager giving a text stream to write to: a path is opened
    with open_kwargs and closed on exit; an open stream is left open."""
    if isinstance(path_or_buf, (str, bytes)) or hasattr(path_or_buf, "__fspath__"):
        return open(path_or_buf, "w", **open_kwargs)
    return nullcontext(path_or_buf)


def read_graph(path) -> Graph:
    """Inverse of write_graph. Blank lines are skipped and repeated edges
    counted once; the header's m must equal the number of distinct edges.

    Tokens follow str.split() and int(), and lines end at LF, CRLF or a lone
    CR, as when the file is read as ASCII text. The body is parsed in blocks
    of about _READ_BYTES bytes, each cut just after a line break, so the
    temporaries stay bounded.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii():
        data.decode("ascii")  # raises UnicodeDecodeError naming the first bad byte
    if b"\r" in data:  # text mode's translation
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    header_end = data.find(b"\n") if b"\n" in data else len(data)
    start = header_end + 1
    header = data[:header_end].decode("ascii").split()
    if len(header) != 2:
        raise ValueError("malformed header, expected 'n m'")
    n, m = int(header[0]), int(header[1])
    check_vertex_count(n)
    values = [np.empty(0, dtype=np.int64)]
    line = 2  # the number of the next block's first line
    while start < len(data):
        end = _block_end(data, start)
        block, lines = _parse_block(np.frombuffer(data, np.uint8, end - start, start), line)
        values.append(block)
        start, line = end, line + lines
    uv = np.concatenate(values).reshape(-1, 2)
    us, vs = uv[:, 0], uv[:, 1]
    bad = np.flatnonzero(~((0 <= us) & (us < vs) & (vs < n)))
    if bad.size:
        u, v = uv[bad[0]].tolist()
        raise ValueError(f"edge ({u},{v}) violates 0 <= u < v < n")
    idx = _pair_index(n, us, vs)
    if idx.size != m:
        raise ValueError(f"header claims {m} edges, found {idx.size}")
    return Graph._from_pair_index(n, idx)


def _block_end(data: bytes, start: int) -> int:
    """Just past the last line break in data[start:start + _READ_BYTES], or
    past the first one after it if it holds none, or len(data)."""
    cut = start + _READ_BYTES
    if cut >= len(data):
        return len(data)
    brk = data.rfind(b"\n", start, cut)
    brk = brk if brk >= 0 else data.find(b"\n", cut)
    return brk + 1 if brk >= 0 else len(data)


def _parse_block(b: np.ndarray, line: int) -> tuple[np.ndarray, int]:
    """The int64 values of the tokens in the bytes b, a run of whole lines
    whose first is numbered line, and the number of line breaks in b. Each
    line must hold 0 or 2 tokens."""
    bounds = np.flatnonzero(np.diff(_SPACE.take(b), prepend=True, append=True))
    starts, stops = bounds[::2], bounds[1::2]
    ends = np.flatnonzero(b == 10)
    firsts = np.concatenate(([0], ends + 1))  # first byte of each line
    per_line = np.diff(np.searchsorted(starts, firsts), append=len(starts))
    bad = np.flatnonzero((per_line != 0) & (per_line != 2))
    if bad.size:
        i = bad[0]
        text = b[firsts[i] : ends[i] if i < len(ends) else len(b)].tobytes().decode("ascii")
        raise ValueError(f"line {line + i}: expected 'u v', got {text!r}")
    # Horner's rule over the all-digit tokens of up to 18 bytes, which fit
    # in int64; every other token goes through int()
    lens = stops - starts
    fast = lens <= 18
    values = np.zeros(len(starts), dtype=np.int64)
    last = stops - 1
    for j in range(min(18, int(lens.max(initial=0)))):
        live = lens > j
        digit = b.take(np.minimum(starts + j, last)) - np.uint8(48)
        fast &= ~live | (digit < 10)
        values = np.where(live, values * 10 + digit, values)
    try:
        for t in np.flatnonzero(~fast).tolist():
            values[t] = int(b[starts[t] : stops[t]].tobytes().decode("ascii"))
    except OverflowError:  # past int64
        raise ValueError("vertex out of range") from None
    return values, len(ends)
