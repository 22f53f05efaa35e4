"""Simple undirected graphs on at most 64 vertices.

Adjacency is stored as one int bitmask per vertex, so vertex sets are single
machine words and every subgraph is addressed by a mask.  Graphs are immutable
value objects; all operations are pure functions.
"""

from __future__ import annotations

import heapq
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


class Graph(NamedTuple):
    """n vertices 0..n-1; adj[v] is the open neighborhood N(v) as a bitmask."""

    n: int
    adj: tuple[int, ...]

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        if n < 0:
            raise GraphError("negative vertex count")
        if n > MAX_VERTICES:
            raise CapacityError(f"{n} vertices exceeds the cap of {MAX_VERTICES}")
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


def parse_edge_list(source: str | Iterable[str]) -> Graph:
    """Parse the "n m" / "u v" edge-list format from a string, or from an
    open text file or any other iterable of lines, read one line at a time.

    Blank lines and lines starting with '#' are ignored.  Duplicate edges are
    permitted; every diagnostic names its 1-based line number.
    """
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    n = m = 0
    lines = source.splitlines() if isinstance(source, str) else source
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if header is None:
            if len(fields) != 2:
                raise GraphParseError(f"line {lineno}: expected 'n m' header")
            try:
                n, m = int(fields[0]), int(fields[1])
            except ValueError:
                raise GraphParseError(f"line {lineno}: non-integer header") from None
            if n < 0 or m < 0:
                raise GraphParseError(f"line {lineno}: negative count in header")
            if n > MAX_VERTICES:
                raise GraphParseError(
                    f"line {lineno}: {n} vertices exceeds the cap of {MAX_VERTICES}"
                )
            header = (n, m)
            continue
        if len(edges) == m:
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
        edges.append((u, v))
    if header is None:
        raise GraphParseError("line 1: empty input, expected 'n m' header")
    if len(edges) != m:
        raise GraphParseError(f"expected {m} edges, found {len(edges)}")
    return Graph.from_edges(n, edges)


def emit_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count()}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


_G6_HEADER = ">>graph6<<"


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 line (6-bit chunks, column-major upper triangle)."""
    s = line.strip("\r\n\t ")
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise GraphParseError("empty graph6 string")
    data = [ord(ch) - 63 for ch in s]
    for pos, val in enumerate(data):
        if not (0 <= val <= 63):
            raise GraphParseError(f"graph6 byte {pos}: character out of range 63..126")
    if data[0] < 63:
        n = data[0]
        body = data[1:]
    else:
        # long form: '~' then 18 bits of size
        if len(data) < 4 or data[1] == 63:
            raise GraphParseError("graph6 size field too large or truncated")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    if n > MAX_VERTICES:
        raise GraphParseError(f"graph6 encodes {n} vertices, cap is {MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) < need:
        raise GraphParseError(f"graph6 body too short: need {need} bytes, got {len(body)}")
    if len(body) > need:
        raise GraphParseError("trailing garbage after graph6 body")
    bits = []
    for val in body:
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


class FamilySpec:
    """Symbolic description of a named graph family instance: an immutable,
    hashable value, checked against FAMILIES when it is made."""

    __slots__ = ("kind", "params")

    def __init__(self, kind: str, params: Iterable[int] = ()):
        if kind not in FAMILIES:
            raise GraphError(f"unknown family kind {kind!r}")
        params = tuple(int(p) for p in params)
        if any(p < 0 for p in params):
            raise GraphError("family parameters must be nonnegative")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", params)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of FamilySpec")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of FamilySpec")

    def __eq__(self, other):
        if other.__class__ is not FamilySpec:
            return NotImplemented
        return self.kind == other.kind and self.params == other.params

    def __hash__(self):
        return hash((self.kind, self.params))

    def __repr__(self):
        return f"FamilySpec(kind={self.kind!r}, params={self.params!r})"

    def __reduce__(self):
        # unpickling through __init__, since __setattr__ refuses
        return FamilySpec, (self.kind, self.params)


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
    if order > MAX_VERTICES:
        raise CapacityError(
            f"family {kind} has {order} vertices, which exceeds the cap of {MAX_VERTICES}"
        )
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


def _max_degree_vertex(adj, mask: int) -> int:
    best_v, best_d = -1, -1
    rest = mask
    while rest:
        low = rest & -rest
        v = low.bit_length() - 1
        d = (adj[v] & mask).bit_count()
        if d > best_d:
            best_v, best_d = v, d
        rest ^= low
    return best_v


def alpha(g: Graph) -> int:
    """Maximum independent set size, by memoized branching on a max-degree
    vertex with component splitting."""
    adj = g.adj
    closed = [adj[v] | (1 << v) for v in range(g.n)]
    memo: dict[int, int] = {}

    def best(mask: int) -> int:
        if mask == 0:
            return 0
        hit = memo.get(mask)
        if hit is not None:
            return hit
        comps = mask_components(adj, mask)
        if len(comps) > 1:
            r = sum(best(c) for c in comps)
        else:
            m = comps[0]
            if m.bit_count() == 1:
                r = 1
            else:
                v = _max_degree_vertex(adj, m)
                r = max(best(m & ~(1 << v)), 1 + best(m & ~closed[v]))
        memo[mask] = r
        return r

    return best(g.full_mask)


def _min_maximal_independent(g: Graph) -> int:
    """Smallest size of a maximal independent set.

    Every maximal independent set meets N[v] for any v, so branching over the
    closed neighborhood of a minimum-degree vertex is exhaustive.
    """
    adj = g.adj
    closed = [adj[v] | (1 << v) for v in range(g.n)]
    memo: dict[int, int] = {}

    def best(mask: int) -> int:
        if mask == 0:
            return 0
        hit = memo.get(mask)
        if hit is not None:
            return hit
        comps = mask_components(adj, mask)
        if len(comps) > 1:
            r = sum(best(c) for c in comps)
        else:
            m = comps[0]
            v, vd = -1, 1 << 30
            for u in _bits(m):
                d = (adj[u] & m).bit_count()
                if d < vd:
                    v, vd = u, d
            r = min(1 + best(m & ~closed[u]) for u in _bits(closed[v] & m))
        memo[mask] = r
        return r

    return best(g.full_mask)


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


def _tree_centers(g: Graph) -> list[int]:
    # repeatedly strip leaves; the last one or two survivors are the centers
    degree = [g.degree(v) for v in range(g.n)]
    alive = g.n
    layer = [v for v in range(g.n) if degree[v] <= 1]
    removed = [False] * g.n
    while alive > 2:
        nxt = []
        for v in layer:
            removed[v] = True
            alive -= 1
            for w in _bits(g.adj[v]):
                if not removed[w]:
                    degree[w] -= 1
                    if degree[w] == 1:
                        nxt.append(w)
        layer = nxt
    return [v for v in range(g.n) if not removed[v]]


def _ahu_code(g: Graph, root: int) -> bytes:
    # breadth-first from the root, recording parents; then, deepest first,
    # each vertex joins its sorted child codes and hands the result up
    adj = g.adj
    parent = [-1] * g.n
    order = [root]
    seen = 1 << root
    for v in order:
        rest = adj[v] & ~seen
        seen |= rest
        while rest:
            low = rest & -rest
            w = low.bit_length() - 1
            parent[w] = v
            order.append(w)
            rest ^= low
    kids: list[list[bytes]] = [[] for _ in range(g.n)]
    for v in reversed(order):
        codes = kids[v]
        codes.sort()
        code = b"(" + b"".join(codes) + b")"
        if v == root:
            return code
        kids[parent[v]].append(code)


def tree_canonical_code(g: Graph) -> bytes:
    """Canonical encoding of a free tree; equal codes iff isomorphic.

    The tree is rooted at its center and encoded with sorted child codes; a
    bicentral tree takes the lexicographically smaller of its two rooted
    codes.
    """
    if g.n == 0 or g.edge_count() != g.n - 1 or len(components(g)) != 1:
        raise GraphError("input is not a tree")
    return min(_ahu_code(g, c) for c in _tree_centers(g))


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
