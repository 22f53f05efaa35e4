"""Shared test utilities: random graphs, exact isomorphism testing, and
exhaustive isomorphism-free graph corpora for oracle-equivalence checks.
Routes that no `indpoly` command takes live here too: graph6 encoding,
Pruefer decoding, pure branching and the frontier DP alone as two more
exact engines, line graphs and the matching polynomial, and two paper facts
checked one instance at a time.

The corpus builder extends each (n-1)-vertex representative by one vertex with
every possible neighborhood and deduplicates with invariant buckets plus a
backtracking isomorphism test, so it never needs canonical labeling.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

from indpoly.engine import _unpack, frontier_dp, frontier_order, independence_polynomial
from indpoly.graphs import Graph, GraphError, _bits, is_well_covered
from indpoly.polynomials import (
    ONE,
    ONE_PLUS_X,
    X,
    IntPoly,
    _primitive,
    _sturm_chain,
    _sturm_count,
    count_distinct_real_roots,
    real_rooted,
    square_free_part,
)

def vertex_colors(g: Graph) -> list[int]:
    """An isomorphism-invariant color per vertex: its degree and its count of
    neighbours of each degree d, packed into one int, the count in bits
    6(d+1) to 6(d+2) (no count passes 63 on 64 vertices)."""
    degrees = [row.bit_count() for row in g.adj]
    weight = [1 << 6 * d + 6 for d in degrees]
    colors = []
    for color, row in zip(degrees, g.adj):
        while row:
            low = row & -row
            color += weight[low.bit_length() - 1]
            row ^= low
        colors.append(color)
    return colors


def _match_plan(g: Graph, colors: list[int]) -> list[tuple[int, int, list[int]]]:
    """How a backtracking search maps g onto a graph of the same multiset of
    colors, fixed once per graph.  The vertices are mapped in order, rare
    colors first and high degree breaking ties; the i-th gets a triple:
    the span its color takes in the other graph's vertices sorted by color,
    and the positions of its neighbours mapped before it."""
    frequency = Counter(colors)
    order = sorted(range(g.n), key=lambda v: (frequency[colors[v]], -g.degree(v), v))
    position = [0] * g.n
    for i, v in enumerate(order):
        position[v] = i
    ranked = sorted(colors)
    return [
        (ranked.index(colors[v]), ranked.index(colors[v]) + frequency[colors[v]],
         [position[w] for w in _bits(g.adj[v]) if position[w] < i])
        for i, v in enumerate(order)
    ]


def _maps_onto(plan, adj, by_color: list[int]) -> bool:
    """Whether the planned graph maps onto the graph with adjacency rows
    ``adj``, whose vertices ``by_color`` lists sorted by color.  The i-th
    planned vertex may go to an unused vertex u of its color only if u's
    neighbours among the used vertices are exactly the images of its earlier
    neighbours, so every complete mapping is an isomorphism."""
    n = len(plan)
    image = [0] * n  # the image of each position, as a one-bit mask

    def extend(i: int, used: int) -> bool:
        if i == n:
            return True
        lo, hi, earlier = plan[i]
        need = 0
        for j in earlier:
            need |= image[j]
        for u in by_color[lo:hi]:
            bit = 1 << u
            if not used & bit and adj[u] & used == need:
                image[i] = bit
                if extend(i + 1, used | bit):
                    return True
        return False

    return extend(0, 0)


def iso_dedup(graphs) -> list[Graph]:
    """Representatives of the isomorphism classes present in the input, in
    order of first appearance: every graph is matched against the
    representatives of its bucket, the graphs with the same multiset of
    colors, until one maps onto it."""
    # each bucket keeps its representatives' match plans, so no graph is
    # colored or planned twice
    buckets: dict[tuple, list] = {}
    reps: list[Graph] = []
    for g in graphs:
        colors = vertex_colors(g)
        bucket = buckets.setdefault(tuple(sorted(colors)), [])
        if bucket:
            by_color = sorted(range(g.n), key=colors.__getitem__)
            if any(_maps_onto(plan, g.adj, by_color) for plan in bucket):
                continue
        bucket.append(_match_plan(g, colors))
        reps.append(g)
    return reps


def graph_corpus(max_n: int) -> dict[int, list[Graph]]:
    """All graphs on 1..max_n vertices up to isomorphism."""
    levels: dict[int, list[Graph]] = {1: [Graph.from_edges(1, [])]}
    for n in range(2, max_n + 1):
        levels[n] = iso_dedup(_one_vertex_more(levels[n - 1]))
    return levels


def _one_vertex_more(parents):
    # each graph extended by a last vertex with every possible neighborhood
    for parent in parents:
        new_bit = 1 << parent.n
        for subset in range(new_bit):
            adj = [row | (new_bit if subset >> v & 1 else 0) for v, row in enumerate(parent.adj)]
            adj.append(subset)
            yield Graph(parent.n + 1, tuple(adj))


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


def pendant_ladder_closed_form(n: int) -> IntPoly:
    """I(G_n) exactly from the paper's product over 4cos^2(s pi/(n+2)).

    Those numbers are the roots of Q, where V_{n+1}(z) = z^d Q(z^2) with
    d = [n even], V_0 = 1, V_1 = z and V_k = z V_{k-1} - V_{k-2}; Q is monic
    of degree m = ceil(n/2).  The product (1+x)^d prod_s [(1+x)^2 + 4x cos^2]
    is then (1+x)^d (-1)^m sum_k q_k (-(1+x)^2)^k x^(m-k), taken by Horner.
    """
    v_prev, v = ONE, X
    for _ in range(n):
        v_prev, v = v, X * v - v_prev
    d = 1 - n % 2
    q = v.coeffs[d::2]
    m = len(q) - 1
    y = -(ONE_PLUS_X ** 2)
    total = IntPoly()
    for j in range(m + 1):
        total = total * y + IntPoly((q[m - j],)).shift(j)
    return ONE_PLUS_X ** d * total * (-1) ** m


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


def line_graph(g: Graph) -> Graph:
    """L(g): one vertex per edge of g, two adjacent when their edges share an
    end."""
    edges = g.edges()
    return Graph.from_edges(len(edges), [
        (i, j) for (i, e), (j, f) in combinations(enumerate(edges), 2) if set(e) & set(f)
    ])


def matching_polynomial(g: Graph) -> IntPoly:
    """The sum of x^|M| over the matchings M of g, which is I(L(g)).

    A memoized recursion on vertex subsets, with v the lowest vertex of S:
    m(S) = m(S - v) + x * sum over u in N(v) & S of m(S - u - v).  It shares
    no code with the engine: no component split and no packing.
    """
    memo = {0: ONE}

    def m(s: int) -> IntPoly:
        hit = memo.get(s)
        if hit is None:
            low = s & -s
            rest = s ^ low
            hit = m(rest)
            nbrs = g.adj[low.bit_length() - 1] & rest
            while nbrs:
                u = nbrs & -nbrs
                nbrs ^= u
                hit = hit + m(rest ^ u).shift(1)
            memo[s] = hit
        return hit

    return m(g.full_mask)


def branching_independence_polynomial(g: Graph) -> IntPoly:
    """Exact I(G;x) by the vertex recursion alone, the reference for the
    engine's tree and frontier routes: I(G) = I(G - v) + x I(G - N[v]) on a
    lowest vertex v of maximum degree, with the component of the lowest
    vertex split off and multiplied, and every mask memoized.

    It shares none of the engine's code.  A polynomial is packed into one
    int, coefficient k in bits [kB, (k+1)B) with B = n + 2: a value counts
    independent sets of at most n vertices, so no slot carries.
    """
    adj = g.adj
    width = g.n + 2
    memo = {0: 1}

    def solve(mask: int) -> int:
        hit = memo.get(mask)
        if hit is not None:
            return hit
        comp = grow = mask & -mask
        while grow:
            reach = 0
            for u in _bits(grow):
                reach |= adj[u]
            grow = reach & mask & ~comp
            comp |= grow
        if comp != mask:
            hit = solve(comp) * solve(mask ^ comp)
        elif not mask & (mask - 1):
            hit = 1 + (1 << width)
        else:
            v = max(_bits(mask), key=lambda u: (adj[u] & mask).bit_count())
            hit = solve(mask & ~(1 << v)) + (solve(mask & ~adj[v] & ~(1 << v)) << width)
        memo[mask] = hit
        return hit

    packed = solve(g.full_mask)
    slot = (1 << width) - 1
    return IntPoly([packed >> k * width & slot for k in range(g.n + 1)])


# no order of at most 64 steps of width at most 64 costs more than 64 * 2^64,
# so this budget keeps every order
NO_BUDGET = 1 << 70


def frontier_independence_polynomial(g: Graph) -> IntPoly:
    """Exact I(G;x) by the frontier DP alone, with no branching; its budget
    keeps every order."""
    width = g.n + 2
    return _unpack(frontier_dp(g.adj, frontier_order(g.adj, g.full_mask, NO_BUDGET)[0], width),
                   width)


def reference_frontier_order(adj, mask: int, budget=None):
    """Slow oracle of the documented ``frontier_order`` rule, scoring every
    candidate from scratch: introduce, among the neighbours of the frontier,
    the vertex that leaves the smallest frontier, ties to the fewest new
    vertices on the boundary (neighbours still to come that no frontier
    vertex reaches), then to more neighbours in the frontier, then to the
    lower index; restart an empty frontier at a vertex of least degree among
    those left.  (order, None), or (None, bag) as soon as the sum of
    2^(frontier width) passes ``budget``, the bag being the frontier plus the
    vertex just added."""
    order, frontier, todo, cost = [], 0, mask, 0
    while todo:
        candidates = 0
        for u in _bits(frontier):
            candidates |= adj[u] & todo
        if not candidates:
            candidates = 1 << min(_bits(todo), key=lambda v: (adj[v] & todo).bit_count())
        best = None
        for v in _bits(candidates):
            low = 1 << v
            later = todo & ~low
            bag = frontier | low
            size = sum(1 for u in _bits(bag) if adj[u] & later)
            fresh = (adj[v] & later & ~candidates).bit_count()
            links = (adj[v] & frontier).bit_count()
            score = (size, fresh, -links)
            if best is None or score < best[1]:
                best = (v, score)
        v, (size, _, _) = best
        todo ^= 1 << v
        bag = frontier | 1 << v
        frontier = sum(1 << u for u in _bits(bag) if adj[u] & todo)
        order.append(v)
        cost += 1 << size
        if budget is not None and cost > budget:
            return None, bag
    return order, None


def all_prufer_trees(n: int):
    """All n^(n-2) labeled trees, by decoding every sequence."""
    for seq in product(range(n), repeat=n - 2):
        yield prufer_decode(seq, n)


def prufer_decode(seq, n: int) -> Graph:
    """The unique labeled tree on n vertices with the given sequence, in
    linear time: a pointer walks up to the next unused leaf, and a sequence
    entry that becomes a leaf below the pointer is the smallest leaf."""
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
    adj = [0] * n
    ptr = degree.index(1)
    leaf = ptr
    for s in seq:
        adj[leaf] |= 1 << s
        adj[s] |= 1 << leaf
        degree[s] -= 1
        if degree[s] == 1 and s < ptr:
            leaf = s
        else:
            ptr = degree.index(1, ptr + 1)
            leaf = ptr
    # the last two vertices left are that leaf and n - 1
    adj[leaf] |= 1 << (n - 1)
    adj[n - 1] |= 1 << leaf
    return Graph(n, tuple(adj))


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


def well_covered_coefficient_bound(g: Graph) -> bool:
    """i_{k-1}(G) <= k * i_k(G) for every 1 <= k <= alpha(G).

    Only meaningful for well-covered graphs; raises if the precondition fails.
    """
    if not is_well_covered(g):
        raise GraphError("coefficient bound requires a well-covered graph")
    coeffs = independence_polynomial(g).coeffs
    return all(coeffs[k - 1] <= k * coeffs[k] for k in range(1, len(coeffs)))


def rooted_product_factor_inequalities(r) -> tuple[bool, bool]:
    """The two factor facts behind the rooted-tree-product proof, at one r > 0.

    First: the quadratic 1 + (3+2r)x + 2rx^2 has positive discriminant.
    Second: the cubic (r+1)x^3 + 3(1+r)x^2 + (3+r)x + 1 is log-concave, via
    the cleared inequalities 9(1+r)^2 > (r+1)(3+r) and (3+r)^2 > 3(1+r).
    """
    r = Fraction(r)
    if r <= 0:
        raise ValueError("r must be positive")
    disc_positive = (3 + 2 * r) ** 2 - 8 * r > 0
    cubic_log_concave = (
        9 * (1 + r) ** 2 > (r + 1) * (3 + r) and (3 + r) ** 2 > 3 * (1 + r)
    )
    return disc_positive, cubic_log_concave


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
