import random
from collections import Counter
from itertools import combinations
from math import comb

import pytest

import helpers
from helpers import (
    NO_BUDGET,
    branching_independence_polynomial,
    frontier_independence_polynomial,
    prufer_decode,
)
from indpoly import engine
from indpoly.engine import (
    brute_force_independence_polynomial,
    frontier_order,
    independence_polynomial,
)
from indpoly.graphs import (
    Graph,
    GraphError,
    alpha,
    build_family,
    components,
    delete_closed_neighborhood,
    delete_vertex,
    is_claw_free,
)
from indpoly.polynomials import ONE_PLUS_X, IntPoly, real_rooted
from indpoly.products import disjoint_union, join
from indpoly.verify import distinct_trees


# ---------------------------------------------------------------------------
# pinned values
# ---------------------------------------------------------------------------


def test_counterexample_join():
    k4 = build_family("complete", 4)
    g = join(disjoint_union(disjoint_union(k4, k4), k4), build_family("complete", 37))
    assert independence_polynomial(g) == IntPoly((1, 49, 48, 64))


def test_small_named_graphs():
    assert independence_polynomial(build_family("path", 3)) == IntPoly((1, 3, 1))
    assert independence_polynomial(build_family("cycle", 4)) == IntPoly((1, 4, 2))
    assert independence_polynomial(build_family("cycle", 5)) == IntPoly((1, 5, 5))
    assert independence_polynomial(build_family("path", 4)) == IntPoly((1, 4, 3))


def test_brute_force_closed_forms():
    for m in range(1, 8):
        assert brute_force_independence_polynomial(build_family("complete", m)) == IntPoly((1, m))
        assert brute_force_independence_polynomial(build_family("empty", m)) == ONE_PLUS_X ** m
    k23 = build_family("complete_multipartite", 2, 3)
    assert brute_force_independence_polynomial(k23) == IntPoly((1, 5, 4, 1))


def test_brute_force_cap():
    with pytest.raises(GraphError):
        brute_force_independence_polynomial(build_family("empty", 25))


def test_packed_slots_closed_forms():
    # the largest coefficients a 64-vertex input can produce; a slot that
    # carried would corrupt the coefficient above it
    assert independence_polynomial(build_family("empty", 64)) == ONE_PLUS_X ** 64
    matching = Graph.from_edges(64, [(2 * i, 2 * i + 1) for i in range(32)])
    assert independence_polynomial(matching) == IntPoly((1, 2)) ** 32
    assert independence_polynomial(build_family("star", 63)) == ONE_PLUS_X ** 63 + IntPoly((0, 1))
    assert independence_polynomial(build_family("complete", 64)) == IntPoly((1, 64))
    k3232 = build_family("complete_multipartite", 32, 32)
    assert independence_polynomial(k3232) == 2 * ONE_PLUS_X ** 32 - 1


def test_zero_vertex_graph():
    g = Graph.from_edges(0, [])
    assert independence_polynomial(g) == IntPoly((1,))
    assert brute_force_independence_polynomial(g) == IntPoly((1,))


# ---------------------------------------------------------------------------
# engine vs oracle
# ---------------------------------------------------------------------------


def test_engine_matches_oracle_small_corpus(small_graph_corpus):
    for graphs in small_graph_corpus.values():
        for g in graphs:
            assert independence_polynomial(g) == brute_force_independence_polynomial(g)


def test_engine_matches_oracle_random():
    rng = random.Random(424242)
    for _ in range(150):
        g = helpers.random_graph(rng, rng.randint(1, 14), rng.choice([0.2, 0.5, 0.8]))
        assert independence_polynomial(g) == brute_force_independence_polynomial(g)


def test_degree_equals_alpha():
    rng = random.Random(5150)
    for _ in range(100):
        g = helpers.random_graph(rng, rng.randint(1, 12), rng.random())
        assert independence_polynomial(g).degree == alpha(g)


def test_degree_equals_alpha_large():
    # graphs.alpha is a separate max-branching recursion, so it checks the
    # packed engine's degree above the brute-force cap
    rng = random.Random(2525)
    graphs = [helpers.random_graph(rng, rng.randint(25, 64), rng.choice([0.1, 0.2, 0.3]))
              for _ in range(6)]
    graphs += [helpers.random_regular_graph(rng, n, 3) for n in (26, 40, 64)]
    for g in graphs:
        assert alpha(g) == independence_polynomial(g).degree


def test_disjoint_union_multiplies():
    rng = random.Random(808)
    for _ in range(200):
        g1 = helpers.random_graph(rng, rng.randint(1, 8), rng.random())
        g2 = helpers.random_graph(rng, rng.randint(1, 8), rng.random())
        lhs = independence_polynomial(disjoint_union(g1, g2))
        assert lhs == independence_polynomial(g1) * independence_polynomial(g2)


def test_value_at_one_counts_independent_sets():
    rng = random.Random(909)
    for _ in range(50):
        g = helpers.random_graph(rng, rng.randint(1, 12), rng.random())
        # direct subset scan, no shared code with either polynomial path
        total = 0
        for mask in range(1 << g.n):
            m, ok = mask, True
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                if g.adj[v] & mask:
                    ok = False
                    break
            total += ok
        assert sum(independence_polynomial(g).coeffs) == total


def test_deletion_recursion_identity():
    rng = random.Random(1001)
    for _ in range(200):
        g = helpers.random_graph(rng, rng.randint(1, 12), rng.random())
        v = rng.randrange(g.n)
        whole = independence_polynomial(g)
        minus_v = independence_polynomial(delete_vertex(g, v))
        minus_nv = independence_polynomial(delete_closed_neighborhood(g, v))
        assert whole == minus_v + minus_nv.shift(1)


# ---------------------------------------------------------------------------
# frontier DP
# ---------------------------------------------------------------------------


def grid(rows, cols):
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph.from_edges(rows * cols, edges)


def relabeled(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def frontier_widths(g, order, mask=None):
    """Frontier size after each step of a vertex order of ``mask`` (all of g
    by default): the introduced vertices that still have a neighbour to come."""
    mask = g.full_mask if mask is None else mask
    assert sorted(order) == [v for v in range(g.n) if mask >> v & 1]
    widths, todo = [], mask
    for i, v in enumerate(order):
        todo ^= 1 << v
        widths.append(sum(1 for u in order[:i + 1] if g.adj[u] & todo))
    return widths


def test_frontier_order_width():
    # a weaker ordering heuristic fails here without any clock
    rng = random.Random(88)
    for g in (grid(8, 8), relabeled(rng, grid(8, 8))):
        assert max(frontier_widths(g, frontier_order(g.adj, g.full_mask, NO_BUDGET)[0])) <= 8
    for g in (build_family("cycle", 40), build_family("path", 64), relabeled(rng, build_family("cycle", 40))):
        assert max(frontier_widths(g, frontier_order(g.adj, g.full_mask, NO_BUDGET)[0])) <= 2


def test_frontier_order_budget():
    g = grid(8, 8)
    order, bag = frontier_order(g.adj, g.full_mask, NO_BUDGET)
    assert bag is None
    cost = order_cost(g, order)
    assert frontier_order(g.adj, g.full_mask, budget=cost) == (order, None)
    # one short of the full cost, the order fails at its last step, whose
    # bag is the last vertex and its neighbours, all still in the frontier
    last = order[-1]
    bag = g.adj[last] | 1 << last
    assert frontier_order(g.adj, g.full_mask, budget=cost - 1) == (None, bag)


def order_cost(g, order, mask=None):
    """Sum of 2^(frontier width) over a vertex order of ``mask``."""
    return sum(1 << w for w in frontier_widths(g, order, mask))


def test_frontier_order_matches_reference_rule():
    # the incremental scoring of frontier_order against a from-scratch
    # oracle of the documented rule: same steps, same rejections
    rng = random.Random(4040)
    graphs = [grid(8, 8), grid(5, 7), grid(3, 10), build_family("cycle", 40), build_family("cycle", 9),
              build_family("path", 64), build_family("path", 20), build_family("ladder_h", 15)]
    graphs += [relabeled(rng, g) for g in graphs[:7]]
    graphs += [helpers.random_regular_graph(rng, n, d)
               for d, sizes in ((3, (20, 36, 64)), (4, (24, 40, 64)), (5, (30, 40, 64)))
               for n in sizes]
    graphs += [helpers.random_graph(rng, n, p)
               for n, p in ((30, 0.1), (40, 0.15), (64, 0.1), (64, 0.2), (25, 0.3))]
    # disconnected graphs
    graphs += [helpers.random_graph(rng, 40, 0.03), helpers.random_graph(rng, 64, 0.02),
               disjoint_union(grid(4, 4), build_family("cycle", 10)), build_family("empty", 12)]
    cases = [(g, g.full_mask) for g in graphs]
    # proper sub-masks, some of them disconnected
    for g in graphs[:12] + graphs[15:24]:
        mask = sum(1 << v for v in range(g.n) if rng.random() < 0.75)
        cases.append((g, mask))
    assert len(cases) >= 40
    for g, mask in cases:
        order, _ = helpers.reference_frontier_order(g.adj, mask)
        assert frontier_order(g.adj, mask, NO_BUDGET) == (order, None)
        assert sorted(order) == [v for v in range(g.n) if mask >> v & 1]
        cost = order_cost(g, order, mask)
        assert frontier_order(g.adj, mask, cost) == (order, None)
        for budget in (cost - 1, cost // 3):
            expected = helpers.reference_frontier_order(g.adj, mask, budget)
            assert expected[0] is None and expected[1] & mask == expected[1]
            assert frontier_order(g.adj, mask, budget) == expected


def test_frontier_dp_hand_written_steps():
    # vertex orders written out by hand, so the kernel is checked apart from
    # frontier_order: each introduces every vertex once and gives the
    # brute-force polynomial
    k = 9
    star = Graph.from_edges(k + 1, [(0, i) for i in range(1, k + 1)])
    k33 = Graph.from_edges(6, [(a, b) for a in range(3) for b in range(3, 6)])
    isolated = Graph.from_edges(4, [(0, 1), (1, 2)])
    two = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)])
    path = build_family("path", 6)
    cases = [
        # the k leaves before the centre: every chosen set of leaves blocks
        # the same centre, so 2^k chosen sets share 2 states
        (star, list(range(1, k + 1)) + [0]),
        # one side of K_{3,3} first: every nonempty chosen set blocks the
        # whole other side
        (k33, [0, 1, 2, 3, 4, 5]),
        # vertex 3 has no neighbour, introduced first and between
        (isolated, [3, 0, 1, 2]),
        (isolated, [0, 1, 3, 2]),
        (build_family("empty", 3), [0, 1, 2]),
        # a path and a triangle, their vertices interleaved
        (two, [0, 3, 1, 4, 2, 5]),
        # a path introduced from both ends, meeting in the middle
        (path, [0, 5, 1, 4, 2, 3]),
    ]
    for g, order in cases:
        assert sorted(order) == list(range(g.n))
        width = g.n + 2
        packed = engine.frontier_dp(g.adj, order, width)
        assert engine._unpack(packed, width) == brute_force_independence_polynomial(g)


def test_rejected_orders_branch_inside_the_failing_bag(monkeypatch):
    # graphs above the brute-force cap whose orders run over budget, so the
    # recursion branches inside the failing bag; three routes must agree
    rejected = []
    order = engine.frontier_order

    def counted(adj, mask, budget=None):
        steps, bag = order(adj, mask, budget)
        if steps is None:
            assert bag and not bag & ~mask
            rejected.append(mask)
        return steps, bag

    monkeypatch.setattr(engine, "frontier_order", counted)
    rng = random.Random(3140)
    graphs = [helpers.random_regular_graph(rng, n, 5) for n in (30, 36, 40)]
    graphs += [helpers.random_regular_graph(rng, 40, 4), helpers.random_graph(rng, 40, 0.15)]
    for g in graphs:
        hybrid = independence_polynomial(g)
        assert hybrid == branching_independence_polynomial(g)
        assert hybrid == frontier_independence_polynomial(g)
    assert rejected


def test_frontier_dp_matches_oracle_small_corpus(small_graph_corpus):
    # every graph, the disconnected ones included: the order restarts at a
    # vertex of least degree when a component is done
    for graphs in small_graph_corpus.values():
        for g in graphs:
            assert frontier_independence_polynomial(g) == brute_force_independence_polynomial(g)


def test_frontier_dp_packed_slots_closed_forms():
    assert frontier_independence_polynomial(build_family("empty", 64)) == ONE_PLUS_X ** 64
    assert frontier_independence_polynomial(build_family("star", 63)) == ONE_PLUS_X ** 63 + IntPoly((0, 1))
    assert frontier_independence_polynomial(Graph.from_edges(0, [])) == IntPoly((1,))


def test_hybrid_dp_path_matches_oracle(monkeypatch):
    # sparse connected graphs of 20-24 vertices, where the root itself is
    # handed to the DP; the dispatch floor keeps c03's graphs away from it
    calls = []
    dp = engine.frontier_dp

    def counted(*args):
        calls.append(args[1])
        return dp(*args)

    monkeypatch.setattr(engine, "frontier_dp", counted)
    rng = random.Random(2024)
    checked = 0
    while checked < 8:
        n = rng.randint(20, 24)
        g = helpers.random_graph(rng, n, 2.5 / n)
        if len(components(g)) != 1:
            continue
        calls.clear()
        assert independence_polynomial(g) == brute_force_independence_polynomial(g)
        assert calls and sorted(calls[0]) == list(range(n))
        checked += 1


def test_engines_agree_above_brute_force_cap():
    # branching alone, the DP alone and the hybrid: three results, two
    # disjoint mechanisms, on graphs beyond the brute-force oracle
    rng = random.Random(6464)
    graphs = [helpers.random_graph(rng, n, 3 / n) for n in (25, 40, 52, 64)]
    graphs += [helpers.random_graph(rng, 30, 0.2)]
    graphs += [helpers.random_regular_graph(rng, n, 3) for n in (26, 44, 64)]
    graphs += [helpers.random_regular_graph(rng, n, 4) for n in (25, 32)]
    for g in graphs:
        branching = branching_independence_polynomial(g)
        assert frontier_independence_polynomial(g) == branching
        assert independence_polynomial(g) == branching


def hypercube(d):
    return Graph.from_edges(
        1 << d, [(u, u | 1 << i) for u in range(1 << d) for i in range(d) if not u >> i & 1]
    )


def test_hypercube_counts_match_oeis():
    # I(Q_d; 1) counts the independent sets of the d-cube: OEIS A027624, an
    # exact check from outside the repo at 32 and 64 vertices, where brute
    # force cannot follow.  A largest independent set is one side of the
    # bipartition, 2^(d-1) vertices; alpha(Q_6) alone takes seconds.
    counts = [3, 7, 35, 743, 254_475, 19_768_832_143]
    for d, count in enumerate(counts, 1):
        g = hypercube(d)
        poly = independence_polynomial(g)
        assert sum(poly.coeffs) == count, d
        assert poly.degree == 2 ** (d - 1), d
        if d <= 5:
            assert alpha(g) == 2 ** (d - 1), d


def test_line_graphs_and_claw_free_graphs_are_real_rooted(small_graph_corpus):
    # Heilmann and Lieb (1972): I(L(G)) is the matching polynomial of G, which
    # is real-rooted.  Line graphs of up to 64 edges reach the frontier DP and
    # the branching well above the brute-force cap.  Chudnovsky and Seymour
    # (2007): every claw-free graph, line graphs included, has a real-rooted I.
    rng = random.Random(1972)
    for n in (12, 16, 20, 24):
        pairs = list(combinations(range(n), 2))
        for m in (3 * n // 2, 2 * n, 64):
            g = Graph.from_edges(n, rng.sample(pairs, m))
            lg = helpers.line_graph(g)
            poly = independence_polynomial(lg)
            assert poly == helpers.matching_polynomial(g), (n, m)
            assert real_rooted(poly), (n, m)
            assert is_claw_free(lg), (n, m)
    claw_free = {n: [g for g in graphs if is_claw_free(g)] for n, graphs in small_graph_corpus.items()}
    assert [len(claw_free[n]) for n in range(1, 7)] == [1, 2, 4, 10, 26, 85]
    for g in (g for graphs in claw_free.values() for g in graphs):
        assert real_rooted(independence_polynomial(g)), g


def test_dispatch_hands_narrow_components_to_dp(monkeypatch):
    calls = []
    dp = engine.frontier_dp
    monkeypatch.setattr(engine, "frontier_dp", lambda *args: calls.append(1) or dp(*args))
    # below the floor (the tree scan's trees have at most 14 vertices) the
    # DP is never asked
    independence_polynomial(build_family("path", engine._DP_MIN_VERTICES - 1))
    independence_polynomial(build_family("star", 13))
    assert calls == []
    assert independence_polynomial(grid(8, 8)) == branching_independence_polynomial(grid(8, 8))
    assert calls == [1]


def test_dispatch_gates_components_on_mean_degree(monkeypatch):
    # the recursion orders only components of at least _DP_MIN_VERTICES
    # vertices whose mean degree is at most _DP_MAX_MEAN_DEGREE, from the
    # degree sum it already has: a 6-regular graph is branched at its root,
    # the 8x8 grid (mean degree 3.5) is ordered there
    ordered = []
    order = engine.frontier_order

    def checked(adj, mask, budget=None):
        size = mask.bit_count()
        degree_sum = sum((adj[v] & mask).bit_count() for v in range(len(adj)) if mask >> v & 1)
        assert size >= engine._DP_MIN_VERTICES
        assert degree_sum <= engine._DP_MAX_MEAN_DEGREE * size
        ordered.append(mask)
        return order(adj, mask, budget)

    monkeypatch.setattr(engine, "frontier_order", checked)
    rng = random.Random(606)
    dense = helpers.random_regular_graph(rng, 30, 6)
    for g, root_ordered in ((dense, False), (grid(8, 8), True)):
        ordered.clear()
        assert independence_polynomial(g) == branching_independence_polynomial(g)
        assert (g.full_mask in ordered) == root_ordered
        assert ordered


def test_engine_work_is_pinned(monkeypatch):
    # exact work counts through the names `solve` looks up at call time, so
    # a change to the dispatch gates or to the bag branching shows without
    # timing noise: (orders accepted, orders rejected over budget, DP calls,
    # tree_dp calls)
    counts = Counter()
    order, dp, tree = engine.frontier_order, engine.frontier_dp, engine.tree_dp

    def counted_order(adj, mask, budget):
        steps, bag = order(adj, mask, budget)
        counts["rejected" if steps is None else "accepted"] += 1
        return steps, bag

    monkeypatch.setattr(engine, "frontier_order", counted_order)
    monkeypatch.setattr(engine, "frontier_dp", lambda *args: counts.update(["dp"]) or dp(*args))
    monkeypatch.setattr(engine, "tree_dp", lambda *args: counts.update(["tree"]) or tree(*args))
    cases = [
        (grid(8, 8), (1, 0, 1, 0)),  # the root goes to the DP
        (build_family("cycle", 40), (1, 0, 1, 0)),
        (build_family("path", 64), (0, 0, 0, 1)),  # the root goes to tree_dp
        # bag branching on a sparse graph that no single order fits
        (helpers.random_regular_graph(random.Random(1), 64, 4), (9, 8, 9, 0)),
        # mean degree 7.5: branching crosses the gate before anything is ordered
        (helpers.random_graph(random.Random(2), 40, 0.2), (7, 0, 7, 12)),
    ]
    for g, expected in cases:
        counts.clear()
        independence_polynomial(g)
        assert (counts["accepted"], counts["rejected"], counts["dp"], counts["tree"]) == expected


# ---------------------------------------------------------------------------
# tree DP
# ---------------------------------------------------------------------------


def is_tree_mask(adj, mask):
    """Connected, with one edge fewer than vertices, by a plain search."""
    vertices = [v for v in range(len(adj)) if mask >> v & 1]
    edges = sum((adj[v] & mask).bit_count() for v in vertices) // 2
    reached, todo = {vertices[0]}, [vertices[0]]
    while todo:
        v = todo.pop()
        for u in vertices:
            if adj[v] >> u & 1 and u not in reached:
                reached.add(u)
                todo.append(u)
    return len(reached) == len(vertices) and edges == len(vertices) - 1


@pytest.fixture
def tree_dp_masks(monkeypatch):
    """The masks the recursion hands to ``tree_dp``, each checked to be a tree."""
    masks = []
    dp = engine.tree_dp

    def checked(adj, mask, width):
        assert is_tree_mask(adj, mask)
        masks.append(mask)
        return dp(adj, mask, width)

    monkeypatch.setattr(engine, "tree_dp", checked)
    return masks


def random_forest(rng, n):
    # each vertex hangs from an earlier one, or starts a new tree (a vertex
    # starting a tree that nothing joins stays isolated); then relabelled
    edges = [(v, rng.randrange(v)) for v in range(1, n) if rng.random() > 0.15]
    return relabeled(rng, Graph.from_edges(n, edges))


def edge_components(g):
    return sorted(c for c in components(g) if c.bit_count() > 1)


def test_tree_dp_matches_branching_and_brute_force(tree_dp_masks):
    # every tree up to 10 vertices, relabelled so that the root of the DP
    # (the lowest vertex) falls anywhere in it
    rng = random.Random(1010)
    for n in range(2, 11):
        for _, tree in distinct_trees(n):
            g = relabeled(rng, tree)
            expected = brute_force_independence_polynomial(g)
            assert branching_independence_polynomial(g) == expected
            assert tree_dp_masks == []
            assert independence_polynomial(g) == expected
            assert tree_dp_masks == [g.full_mask]
            tree_dp_masks.clear()
    # forests: one DP per component with an edge, none for isolated vertices
    isolated = 0
    for _ in range(40):
        g = random_forest(rng, rng.randint(1, 24))
        isolated += sum(1 for c in components(g) if c.bit_count() == 1)
        expected = brute_force_independence_polynomial(g)
        assert branching_independence_polynomial(g) == expected
        assert independence_polynomial(g) == expected
        assert sorted(tree_dp_masks) == edge_components(g)
        tree_dp_masks.clear()
    assert isolated


def test_tree_dp_above_brute_force_cap(tree_dp_masks):
    rng = random.Random(3064)
    for n in (30, 41, 50, 57, 64):
        g = prufer_decode([rng.randrange(n) for _ in range(n - 2)], n)
        assert independence_polynomial(g) == frontier_independence_polynomial(g)
        assert tree_dp_masks == [g.full_mask]
        tree_dp_masks.clear()
    # closed forms at the packed-slot limit: i_k(P_64) = C(65 - k, k)
    path = independence_polynomial(build_family("path", 64))
    assert path == IntPoly(tuple(comb(65 - k, k) for k in range(33)))
    assert independence_polynomial(build_family("star", 63)) == ONE_PLUS_X ** 63 + IntPoly((0, 1))
    assert tree_dp_masks == [(1 << 64) - 1, (1 << 64) - 1]


def test_tree_dp_rejects_cyclic_graphs_with_few_edges(tree_dp_masks):
    # a cycle plus isolated vertices has fewer edges than vertices but is no
    # tree; nor is a cycle with pendant paths (as many edges as vertices)
    triangle = [(0, 1), (1, 2), (0, 2)]
    graphs = [Graph.from_edges(n, triangle) for n in (3, 4, 6)]
    graphs.append(Graph.from_edges(7, [(1, 3), (3, 5), (5, 1), (0, 6)]))
    graphs.append(Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5)]))
    graphs.append(Graph.from_edges(9, triangle + [(2, 3), (3, 4), (5, 6), (6, 7)]))
    rng = random.Random(77)
    graphs += [relabeled(rng, g) for g in graphs]
    for g in graphs:
        assert independence_polynomial(g) == brute_force_independence_polynomial(g)
        assert g.full_mask not in tree_dp_masks
    assert tree_dp_masks  # the pendant paths and the stray edges are trees


def test_recursion_hands_tree_components_to_tree_dp(tree_dp_masks, monkeypatch):
    # under the DP floor a cycle branches once, on vertex 0, and leaves the
    # two paths G - 0 and G - N[0]
    n = engine._DP_MIN_VERTICES - 1
    assert independence_polynomial(build_family("cycle", n)) == branching_independence_polynomial(
        build_family("cycle", n))
    full = (1 << n) - 1
    assert tree_dp_masks == [full & ~1, full & ~0b11 & ~(1 << (n - 1))]
    # cycle:40 is narrow, so the frontier DP takes it whole at the root
    tree_dp_masks.clear()
    dp_calls = []
    dp = engine.frontier_dp
    monkeypatch.setattr(engine, "frontier_dp", lambda *args: dp_calls.append(1) or dp(*args))
    independence_polynomial(build_family("cycle", 40))
    assert dp_calls == [1] and tree_dp_masks == []
    # dense graphs above the cap, whose mean degree keeps them branching:
    # trees are left deep in the recursion
    rng = random.Random(4096)
    for n, p in ((30, 0.3), (26, 0.35)):
        g = helpers.random_graph(rng, n, p)
        tree_dp_masks.clear()
        assert independence_polynomial(g) == branching_independence_polynomial(g)
        assert max(mask.bit_count() for mask in tree_dp_masks) >= 5


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------


def test_coefficient_closed_forms():
    c5 = build_family("cycle", 5)
    i_c5 = independence_polynomial(c5)
    assert i_c5.coefficient(1) == 5
    assert i_c5.coefficient(2) == 10 - 5
    assert independence_polynomial(build_family("complete", 4)).coefficient(3) == 0
    assert i_c5.coefficient(0) == 1


def test_coefficient_cross_check_random():
    rng = random.Random(60)
    for _ in range(60):
        g = helpers.random_graph(rng, rng.randint(2, 12), rng.random())
        poly = independence_polynomial(g)
        assert poly.coefficient(1) == g.n
        assert poly.coefficient(2) == g.n * (g.n - 1) // 2 - g.edge_count()
        assert poly.coefficient(g.n + 3) == 0
