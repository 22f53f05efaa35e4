"""Simple undirected graphs on at most 64 vertices.

Adjacency is stored as one int bitmask per vertex, so vertex sets are single
machine words and every subgraph is addressed by a mask.  Graphs are immutable
value objects; all operations are pure functions.
"""

from __future__ import annotations

import heapq
import re
from itertools import combinations
from typing import Callable, Iterable, NamedTuple

MAX_VERTICES = 64


class GraphError(ValueError):
    """Base class for graph construction and query failures."""


class GraphParseError(GraphError):
    """Malformed edge-list or graph6 input; the message names the position."""


class CapacityError(GraphError):
    """A construction would exceed the 64-vertex cap, or a computation its
    fixed budget."""


def _check_cap(n: int, what: str) -> None:
    """The one 64-vertex cap; ``what`` names the input in the message."""
    if n > MAX_VERTICES:
        raise CapacityError(f"{what} has {n} vertices, which exceeds the cap of {MAX_VERTICES}")


class Graph(NamedTuple):
    """n vertices 0..n-1; adj[v] is the open neighborhood N(v) as a bitmask."""

    n: int
    adj: tuple[int, ...]

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        if n < 0:
            raise GraphError("negative vertex count")
        _check_cap(n, "graph")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"loop edge at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj))

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        return [
            (u, v)
            for u in range(self.n)
            for v in _bits(self.adj[u])
            if u < v
        ]

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def closed_neighborhood(self, v: int) -> int:
        return self.adj[v] | (1 << v)


def _bits(mask: int):
    """Iterate set bit positions, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_vertex(g: Graph, v: int) -> None:
    if not (0 <= v < g.n):
        raise GraphError(f"vertex {v} out of range for n={g.n}")


# ---------------------------------------------------------------------------
# Text formats
# ---------------------------------------------------------------------------


# one line of a string and the "\n", "\r\n" or "\r" that ends it, split as a
# file opened in text mode splits it; the end of the string ends the last line
# and then matches once more, as an empty line
_LINE = re.compile(r"([^\r\n]*)(?:\r\n|[\r\n]|\Z)")


def parse_edge_list(source: str | Iterable[str]) -> Graph:
    """Parse the "n m" / "u v" edge-list format from a string, or from an
    open text file or any other iterable of lines, read one line at a time.

    Blank lines and lines starting with '#' are ignored.  Duplicate edges are
    permitted; every diagnostic names its 1-based line number.  Each edge is
    folded into the adjacency rows as it is read, and a string is split into
    lines lazily by `_LINE`, at "\n", "\r\n" or "\r" as text mode splits
    them, so the input is held in memory proportional to n, whatever its
    length.
    """
    adj: list[int] | None = None  # None until the header is read
    n = m = seen = 0
    if isinstance(source, str):
        source = (match[1] for match in _LINE.finditer(source))
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if adj is None:
            if len(fields) != 2:
                raise GraphParseError(f"line {lineno}: expected 'n m' header")
            try:
                n, m = int(fields[0]), int(fields[1])
            except ValueError:
                raise GraphParseError(f"line {lineno}: non-integer header") from None
            if n < 0 or m < 0:
                raise GraphParseError(f"line {lineno}: negative count in header")
            _check_cap(n, f"line {lineno}: edge list")
            adj = [0] * n
            continue
        if seen == m:
            raise GraphParseError(f"line {lineno}: more than {m} edge lines")
        if len(fields) != 2:
            raise GraphParseError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphParseError(f"line {lineno}: non-integer vertex") from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"line {lineno}: vertex index out of range 0..{n - 1}")
        if u == v:
            raise GraphParseError(f"line {lineno}: loop edge at vertex {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        seen += 1
    if adj is None:
        raise GraphParseError("line 1: empty input, expected 'n m' header")
    if seen != m:
        raise GraphParseError(f"expected {m} edges, found {seen}")
    return Graph(n, tuple(adj))


_G6_HEADER = ">>graph6<<"


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 line (6-bit chunks, column-major upper triangle).

    The size field is read first.  It is checked against the cap, and the
    exact length it implies against the string, before the body is read."""
    s = line.strip("\r\n\t ")
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise GraphParseError("empty graph6 string")
    # the size field: one character, or '~' then three holding 18 bits
    size = [ord(ch) - 63 for ch in s[:4 if s[0] == "~" else 1]]
    if not all(0 <= val <= 63 for val in size):
        raise GraphParseError("graph6 size field: character out of range 63..126")
    if len(size) == 1:
        n = size[0]
    elif len(size) < 4 or size[1] == 63:
        raise GraphParseError("graph6 size field too large or truncated")
    else:
        n = (size[1] << 12) | (size[2] << 6) | size[3]
    _check_cap(n, "graph6 string")
    need = (n * (n - 1) // 2 + 5) // 6
    got = len(s) - len(size)
    if got < need:
        raise GraphParseError(f"graph6 body too short: need {need} bytes, got {got}")
    if got > need:
        raise GraphParseError("trailing garbage after graph6 body")
    bits = []
    for pos in range(len(size), len(s)):
        val = ord(s[pos]) - 63
        if not (0 <= val <= 63):
            raise GraphParseError(f"graph6 byte {pos}: character out of range 63..126")
        bits.extend((val >> shift) & 1 for shift in range(5, -1, -1))
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return Graph.from_edges(n, edges)


def emit_graph6(g: Graph) -> str:
    """Encode as graph6; sizes 63..64 use the long size form."""
    n = g.n
    if n <= 62:
        out = [n + 63]
    else:
        out = [126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    acc = 0
    filled = 0
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | (g.adj[i] >> j & 1)
            filled += 1
            if filled == 6:
                out.append(acc + 63)
                acc = filled = 0
    if filled:
        out.append((acc << (6 - filled)) + 63)
    return "".join(chr(c) for c in out)


# ---------------------------------------------------------------------------
# Named families
# ---------------------------------------------------------------------------

# 5-vertex tree: spider with a degree-3 center, one leg of length 2.
# Vertices 0..3 carry the conventional root labels 1..4; vertex 4 is the
# extra leaf hanging off the center.
_TREE_T_EDGES = ((0, 2), (4, 2), (2, 1), (1, 3))
# 6-vertex variant with the long leg stretched to length 3; vertex 4 is the
# unlabeled center, vertex 5 its extra leaf.
_TREE_T1_EDGES = ((0, 4), (5, 4), (4, 1), (1, 2), (2, 3))


def _ladder_edges(order: int) -> list[tuple[int, int]]:
    # the first `order` vertices of a ladder whose rung c (1-based) occupies
    # vertices 2(c-1) and 2(c-1)+1: an even order is the 2xn ladder, an odd
    # one adds a pendant on its last top vertex (and order 1 is K1)
    rungs = [(a, a + 1) for a in range(0, order - 1, 2)]
    rails = [(a, a + 2) for a in range(order - 2)]
    return rungs + rails


def _cycle_edges(n: int) -> list[tuple[int, int]]:
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    return [(i, (i + 1) % n) for i in range(n)]


def _multipartite_edges(*parts: int) -> list[tuple[int, int]]:
    if not parts:
        raise GraphError("complete_multipartite needs at least one part")
    if any(p < 1 for p in parts):
        raise GraphError("multipartite parts must be positive")
    bounds = []
    start = 0
    for p in parts:
        bounds.append(range(start, start + p))
        start += p
    return [(u, v) for a, b in combinations(bounds, 2) for u in a for v in b]


class Family(NamedTuple):
    """A named family: its CLI aliases besides the kind itself, its parameter
    count (None: one or more), and its vertex count and edges as functions of
    the parameters.  The vertex count needs no edges, so the cap is checked
    before any edge is built."""

    aliases: tuple[str, ...]
    arity: int | None
    order: Callable[..., int]
    edges: Callable[..., Iterable[tuple[int, int]]]


FAMILIES = {
    "path": Family((), 1, lambda n: n, lambda n: [(i, i + 1) for i in range(n - 1)]),
    "cycle": Family((), 1, lambda n: n, _cycle_edges),
    "complete": Family((), 1, lambda n: n, lambda n: combinations(range(n), 2)),
    "empty": Family((), 1, lambda n: n, lambda n: ()),
    "star": Family((), 1, lambda k: k + 1, lambda k: [(0, i) for i in range(1, k + 1)]),
    "complete_multipartite": Family(
        ("multipartite",), None, lambda *parts: sum(parts), _multipartite_edges
    ),
    "ladder_h": Family(("hn",), 1, lambda n: 2 * n, lambda n: _ladder_edges(2 * n)),
    "pendant_ladder_g": Family(
        ("gn",), 1, lambda n: 2 * n + 1, lambda n: _ladder_edges(2 * n + 1)
    ),
    "tree_t": Family(("t",), 0, lambda: 5, lambda: _TREE_T_EDGES),
    "tree_t1": Family(("t1",), 0, lambda: 6, lambda: _TREE_T1_EDGES),
}


class FamilySpec(NamedTuple("FamilySpec", [("kind", str), ("params", tuple)])):
    """Symbolic description of a named graph family instance: an immutable,
    hashable value, checked against FAMILIES when it is made."""

    __slots__ = ()

    def __new__(cls, kind: str, params: Iterable[int] = ()):
        if kind not in FAMILIES:
            raise GraphError(f"unknown family kind {kind!r}")
        params = tuple(int(p) for p in params)
        if any(p < 0 for p in params):
            raise GraphError("family parameters must be nonnegative")
        return super().__new__(cls, kind, params)


def build_family(spec: FamilySpec) -> Graph:
    kind, params = spec.kind, spec.params
    family = FAMILIES[kind]
    arity = family.arity
    if arity is not None and len(params) != arity:
        raise GraphError(
            f"family {kind} takes {arity} parameter{'' if arity == 1 else 's'},"
            f" got {len(params)}"
        )
    order = family.order(*params)
    _check_cap(order, f"family {kind}")
    return Graph.from_edges(order, family.edges(*params))


# ---------------------------------------------------------------------------
# Subgraphs and components
# ---------------------------------------------------------------------------


def induced_subgraph(g: Graph, mask: int) -> Graph:
    """Induced subgraph on the masked vertices, indices compacted in order."""
    if mask & ~g.full_mask:
        raise GraphError("mask contains vertices outside the graph")
    keep = list(_bits(mask))
    pos = {v: i for i, v in enumerate(keep)}
    adj = []
    for v in keep:
        row = 0
        for w in _bits(g.adj[v] & mask):
            row |= 1 << pos[w]
        adj.append(row)
    return Graph(len(keep), tuple(adj))


def delete_vertex(g: Graph, v: int) -> Graph:
    _check_vertex(g, v)
    return induced_subgraph(g, g.full_mask & ~(1 << v))


def delete_closed_neighborhood(g: Graph, v: int) -> Graph:
    _check_vertex(g, v)
    return induced_subgraph(g, g.full_mask & ~g.closed_neighborhood(v))


def mask_components(adj, mask: int) -> list[int]:
    """Connected components of the induced subgraph, as masks, by lowest bit."""
    comps = []
    rest = mask
    while rest:
        comp = rest & -rest
        frontier = comp
        while frontier:
            grown = 0
            while frontier:
                low = frontier & -frontier
                grown |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = grown & mask & ~comp
            comp |= frontier
        comps.append(comp)
        rest &= ~comp
    return comps


def components(g: Graph) -> list[int]:
    return mask_components(g.adj, g.full_mask)


# ---------------------------------------------------------------------------
# Independence-related queries
# ---------------------------------------------------------------------------


def _degree_scan(adj, mask: int) -> tuple[int, int]:
    """(sum of the degrees, lowest vertex of maximum degree) in the induced
    subgraph on the mask."""
    best_v, best_d = -1, -1
    degree_sum = 0
    rest = mask
    while rest:
        low = rest & -rest
        v = low.bit_length() - 1
        d = (adj[v] & mask).bit_count()
        degree_sum += d
        if d > best_d:
            best_v, best_d = v, d
        rest ^= low
    return degree_sum, best_v


def _component_sum(g: Graph, branch: Callable[[int, Callable[[int], int]], int]) -> int:
    """A memoized recursion over induced-subgraph masks whose value adds up
    over connected components: a disconnected mask is split, and a connected
    one is handed to ``branch(mask, solve)``, which recurses through
    ``solve``.  The empty mask is worth 0."""
    adj = g.adj
    memo: dict[int, int] = {0: 0}

    def solve(mask: int) -> int:
        hit = memo.get(mask)
        if hit is not None:
            return hit
        comps = mask_components(adj, mask)
        if len(comps) > 1:
            r = sum(solve(c) for c in comps)
        else:
            r = branch(mask, solve)
        memo[mask] = r
        return r

    return solve(g.full_mask)


def alpha(g: Graph) -> int:
    """Maximum independent set size, by memoized branching on a max-degree
    vertex with component splitting."""
    adj = g.adj

    def best(mask: int, solve) -> int:
        v = _degree_scan(adj, mask)[1]
        return max(solve(mask & ~(1 << v)), 1 + solve(mask & ~adj[v] & ~(1 << v)))

    return _component_sum(g, best)


def _min_maximal_independent(g: Graph) -> int:
    """Smallest size of a maximal independent set.

    Every maximal independent set meets N[v] for any v, so branching over the
    closed neighborhood of a minimum-degree vertex is exhaustive.
    """
    adj = g.adj

    def best(mask: int, solve) -> int:
        v, vd = -1, 1 << 30
        for u in _bits(mask):
            d = (adj[u] & mask).bit_count()
            if d < vd:
                v, vd = u, d
        closed = (adj[v] | 1 << v) & mask
        return min(1 + solve(mask & ~adj[u] & ~(1 << u)) for u in _bits(closed))

    return _component_sum(g, best)


def is_well_covered(g: Graph) -> bool:
    """True iff all maximal independent sets share the same cardinality,
    i.e. the smallest maximal size already equals alpha."""
    return _min_maximal_independent(g) == alpha(g)


def is_claw_free(g: Graph) -> bool:
    """True iff no induced star on three leaves exists."""
    for v in range(g.n):
        nb = list(_bits(g.adj[v]))
        for a, b, c in combinations(nb, 3):
            if not (g.has_edge(a, b) or g.has_edge(a, c) or g.has_edge(b, c)):
                return False
    return True


# ---------------------------------------------------------------------------
# Trees
# ---------------------------------------------------------------------------


def _tree_centers(adj) -> list[int]:
    # on the adjacency rows of a tree: peel leaf layers off as masks; the
    # last one or two survivors are the centers.  Each new layer lies among
    # the neighbours of the last one.
    alive = (1 << len(adj)) - 1
    layer = 0
    for v, row in enumerate(adj):
        if not row & (row - 1):
            layer |= 1 << v
    while alive.bit_count() > 2:
        alive ^= layer
        touched = 0
        while layer:
            low = layer & -layer
            touched |= adj[low.bit_length() - 1]
            layer ^= low
        touched &= alive
        while touched:
            low = touched & -touched
            left = adj[low.bit_length() - 1] & alive
            if not left & (left - 1):
                layer |= low
            touched ^= low
    return list(_bits(alive))


def _tree_parents(adj, mask: int, root: int) -> list[int]:
    """The parent array of the tree induced on ``mask``, by a breadth-first
    search from ``root``: the i-th vertex visited hangs from the
    parents[i]-th, which came before it, and the root comes first with
    parent -1."""
    order = [root]
    parents = [-1]
    seen = 1 << root
    for i, v in enumerate(order):
        rest = adj[v] & mask & ~seen
        seen |= rest
        while rest:
            low = rest & -rest
            order.append(low.bit_length() - 1)
            parents.append(i)
            rest ^= low
    return parents


def _ahu_code(parents) -> bytes:
    # the rooted code of a parent array: from the last vertex up to the
    # root, each one joins its sorted child codes and hands the result up
    kids: list[list[bytes]] = [[] for _ in parents]
    for i in range(len(parents) - 1, -1, -1):
        codes = kids[i]
        codes.sort()
        code = b"(" + b"".join(codes) + b")"
        if i:
            kids[parents[i]].append(code)
    return code


def _tree_code(adj) -> bytes:
    # on the adjacency rows of a tree: the smaller rooted code over its centres
    full = (1 << len(adj)) - 1
    return min(_ahu_code(_tree_parents(adj, full, c)) for c in _tree_centers(adj))


def tree_canonical_code(g: Graph) -> bytes:
    """Canonical encoding of a free tree; equal codes iff isomorphic.

    The tree is rooted at its center and encoded with sorted child codes; a
    bicentral tree takes the lexicographically smaller of its two rooted
    codes.
    """
    if g.n == 0 or g.edge_count() != g.n - 1 or len(components(g)) != 1:
        raise GraphError("input is not a tree")
    return _tree_code(g.adj)


def prufer_decode(seq, n: int) -> Graph:
    """The unique labeled tree on n vertices with the given sequence."""
    seq = list(seq)
    if n < 2:
        raise GraphError("a labeled tree needs at least 2 vertices")
    if len(seq) != n - 2:
        raise GraphError(f"sequence length {len(seq)} != n-2 = {n - 2}")
    if any(not (0 <= s < n) for s in seq):
        raise GraphError("sequence entry out of range")
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, s))
        degree[leaf] -= 1
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    u, v = (w for w in range(n) if degree[w] == 1)
    edges.append((u, v))
    return Graph.from_edges(n, edges)
