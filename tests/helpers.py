"""Shared test utilities: random graphs, exact isomorphism testing, and
exhaustive isomorphism-free graph corpora for oracle-equivalence checks.

The corpus builder extends each (n-1)-vertex representative by one vertex with
every possible neighborhood and deduplicates with invariant buckets plus a
backtracking isomorphism test, so it never needs canonical labeling.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import product

from indpoly.graphs import Graph, _bits
from indpoly.polynomials import (
    _primitive,
    _sturm_chain,
    _sturm_count,
    count_distinct_real_roots,
    real_rooted,
    square_free_part,
)

# Globally interned refinement colors so colors are comparable across graphs.
_INTERN: dict = {}
_COLOR_CACHE: dict[Graph, tuple[int, ...]] = {}
_WL_ROUNDS = 3


def _intern(key) -> int:
    value = _INTERN.get(key)
    if value is None:
        value = len(_INTERN)
        _INTERN[key] = value
    return value


def wl_colors(g: Graph) -> tuple[int, ...]:
    """Iterated neighborhood refinement colors (isomorphism-invariant)."""
    cached = _COLOR_CACHE.get(g)
    if cached is not None:
        return cached
    neighbors = [list(_bits(row)) for row in g.adj]
    colors = [_intern(("deg", len(ns))) for ns in neighbors]
    for _ in range(_WL_ROUNDS):
        colors = [
            _intern((color, tuple(sorted([colors[w] for w in ns]))))
            for color, ns in zip(colors, neighbors)
        ]
    result = tuple(colors)
    _COLOR_CACHE[g] = result
    return result


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exact isomorphism test by color-pruned backtracking."""
    if g1.n != g2.n or g1.edge_count() != g2.edge_count():
        return False
    c1, c2 = wl_colors(g1), wl_colors(g2)
    if sorted(c1) != sorted(c2):
        return False
    n = g1.n
    # map rare colors first, high degree breaking ties
    frequency = Counter(c1)
    order = sorted(range(n), key=lambda v: (frequency[c1[v]], -g1.degree(v), v))
    candidates = [[u for u in range(n) if c2[u] == c1[v]] for v in range(n)]
    mapping = [-1] * n
    used = [False] * n

    def extend(i: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for u in candidates[v]:
            if used[u]:
                continue
            ok = True
            for w in order[:i]:
                if g1.has_edge(v, w) != g2.has_edge(u, mapping[w]):
                    ok = False
                    break
            if ok:
                mapping[v] = u
                used[u] = True
                if extend(i + 1):
                    return True
                used[u] = False
                mapping[v] = -1
        return False

    return extend(0)


def iso_dedup(graphs) -> list[Graph]:
    """Representatives of the isomorphism classes present in the input."""
    buckets: dict[tuple, list[Graph]] = {}
    reps: list[Graph] = []
    for g in graphs:
        key = (g.n, g.edge_count(), tuple(sorted(wl_colors(g))))
        bucket = buckets.setdefault(key, [])
        if not any(are_isomorphic(g, rep) for rep in bucket):
            bucket.append(g)
            reps.append(g)
    return reps


def graph_corpus(max_n: int) -> dict[int, list[Graph]]:
    """All graphs on 1..max_n vertices up to isomorphism."""
    levels: dict[int, list[Graph]] = {1: [Graph.from_edges(1, [])]}
    for n in range(2, max_n + 1):
        buckets: dict[tuple, list[Graph]] = {}
        out: list[Graph] = []
        new_bit = 1 << (n - 1)
        for parent in levels[n - 1]:
            for subset in range(1 << (n - 1)):
                adj = [
                    row | (new_bit if subset >> v & 1 else 0)
                    for v, row in enumerate(parent.adj)
                ]
                adj.append(subset)
                g = Graph(n, tuple(adj))
                key = (g.edge_count(), tuple(sorted(wl_colors(g))))
                bucket = buckets.setdefault(key, [])
                if not any(are_isomorphic(g, rep) for rep in bucket):
                    bucket.append(g)
                    out.append(g)
        levels[n] = out
    return levels


# Isomorphism class counts for simple graphs on 1..8 vertices.
KNOWN_GRAPH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}

# Non-isomorphic tree counts on 1..18 vertices (OEIS A000055).
KNOWN_TREE_COUNTS = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23,
    9: 47, 10: 106, 11: 235, 12: 551, 13: 1301, 14: 3159,
    15: 7741, 16: 19320, 17: 48629, 18: 123867,
}


def sturm_routes_agree(f) -> bool:
    """The early-exit verdict of `real_rooted` against two full Sturm counts.
    On the chain of f itself, f is real-rooted iff the count is deg f minus
    the degree of the chain's last member, gcd(f, f'); on the square-free
    route, iff its distinct real zeros number deg of f / gcd(f, f')."""
    chain = list(_sturm_chain(_primitive(list(f.coeffs))))
    full_chain = _sturm_count(chain) == f.degree - (len(chain[-1]) - 1)
    square_free = count_distinct_real_roots(f) == square_free_part(f).degree
    return real_rooted(f) == full_chain == square_free


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def random_regular_graph(rng: random.Random, n: int, d: int) -> Graph:
    """Uniform random d-regular graph: configuration model, rejecting any
    pairing with a loop or a repeated edge."""
    points = [v for v in range(n) for _ in range(d)]
    while True:
        rng.shuffle(points)
        edges = {tuple(sorted(points[i:i + 2])) for i in range(0, len(points), 2)}
        if len(edges) == len(points) // 2 and all(u != v for u, v in edges):
            return Graph.from_edges(n, sorted(edges))


def reference_frontier_order(adj, mask: int, budget=None):
    """Slow oracle of the documented ``frontier_order`` rule, scoring every
    candidate from scratch: introduce, among the neighbours of the frontier,
    the vertex that leaves the smallest frontier, ties to more neighbours in
    the frontier, then to the lower index; restart an empty frontier at a
    vertex of least degree among those left.  (steps, None), or (None, bag)
    as soon as the sum of 2^(frontier width) passes ``budget``, the bag being
    the frontier plus the vertex just added."""
    remaining = [adj[v] & mask if mask >> v & 1 else 0 for v in range(len(adj))]
    steps, frontier, todo, cost = [], 0, mask, 0
    while todo:
        candidates = 0
        for u in _bits(frontier):
            candidates |= remaining[u]
        if not candidates:
            candidates = 1 << min(_bits(todo), key=lambda v: remaining[v].bit_count())
        best = None
        for v in _bits(candidates):
            low = 1 << v
            forget = 0 if remaining[v] else low
            for f in _bits(adj[v] & frontier):
                if remaining[f] == low:
                    forget |= 1 << f
            size = (frontier | low).bit_count() - forget.bit_count()
            links = (adj[v] & frontier).bit_count()
            if best is None or size < best[1] or (size == best[1] and links > best[2]):
                best = (v, size, links, forget)
        v, size, _, forget = best
        todo ^= 1 << v
        for u in _bits(adj[v] & mask):
            remaining[u] &= ~(1 << v)
        bag = frontier | 1 << v
        frontier = bag & ~forget
        steps.append((v, forget))
        cost += 1 << size
        if budget is not None and cost > budget:
            return None, bag
    return steps, None


def all_prufer_trees(n: int):
    """All n^(n-2) labeled trees, by decoding every sequence."""
    from indpoly.graphs import prufer_decode

    for seq in product(range(n), repeat=n - 2):
        yield prufer_decode(seq, n)


def count_trees_by_pairwise_iso(n: int) -> int:
    """Brute-force dedup of all labeled trees via isomorphism testing."""
    if n == 1:
        return 1
    return len(iso_dedup(all_prufer_trees(n)))


def integer_partitions(total: int):
    """All partitions of total into positive parts, nonincreasing order."""

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        for part in range(min(cap, remaining), 0, -1):
            yield from rec(remaining - part, part, prefix + (part,))

    yield from rec(total, total, ())
