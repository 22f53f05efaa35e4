"""Exact independence polynomial computation.

Two routes exist on purpose.  ``independence_polynomial`` is the fast path:
the classic vertex recursion I(G) = I(G-v) + x*I(G-N[v]) over induced-subgraph
masks, with connected components multiplied separately, edgeless masks (one
component per vertex) taken as (1+x)^k, and results memoized by mask; a
component that is a tree is solved in one pass by ``tree_dp``, and one whose
frontier is narrow is handed to the frontier DP below.  ``tree_dp`` folds, with
``tree_fold``, the parent array that ``graphs._tree_walk`` walks from
the tree, the same walk the canonical tree code takes.  The fold also runs
on its own, on a parent array, as ``tree_polynomial``: the tree scan solves
its trees that way, with no ``Graph``.
``brute_force_independence_polynomial`` enumerates every independent set with
no sharing at all, so it can certify the fast path up to 24 vertices.  Above
that, ``frontier_order`` and ``frontier_dp``, run alone on a whole graph with
no branching, give the fast path a second mechanism to be checked against.

Inside the recursion and the frontier DP a polynomial is packed into one
Python int by Kronecker substitution: coefficient k sits in bits
[k*B, (k+1)*B) with B = n + 2.  Every intermediate value counts independent
sets of at most n vertices, by size, so its coefficients sum to at most 2^n
and no slot ever carries into the next.
Addition is then one int addition, multiplying by x is a shift by B, and a
component product is one big-int multiplication.  The packed root value is
unpacked into an ``IntPoly`` once, at the end.

The frontier DP follows a path decomposition (H. Bodlaender, "A tourist guide
through treewidth", 1993).  ``frontier_order`` introduces the vertices of a
mask one at a time, greedily keeping the frontier small: the frontier is the
set of introduced vertices with a neighbour still to come.  A DP state is
keyed by the vertices still to come that a chosen independent set blocks,
N(S) minus the introduced vertices, as in the neighbourhood-equivalence DP
of B.-M. Bui-Xuan, J. A. Telle and M. Vatshelle ("Fast dynamic programming
for locally checkable vertex subset and vertex partitioning problems", TCS
2013).  Two chosen sets that block the same vertices extend in exactly the
same ways, so their values add under one key.  Only the frontier vertices of
S block anything still to come, so the keys are images of independent
frontier subsets: a step with frontier width w holds at most 2^w states, and
the sum of 2^w over the steps bounds the DP's cost before it runs.

Dispatch: a connected node with an edge has its degrees summed once.  If it
has one edge fewer than vertices it is a tree, of any size, and ``tree_dp``
solves it: the tree inputs, the forests' components, the paths left when a
cycle loses a vertex, and the trees left deep in a dense graph's branching.
Otherwise the same degree sum gates the frontier order: the recursion orders
a component of at least ``_DP_MIN_VERTICES`` vertices whose mean degree is at
most ``_DP_MAX_MEAN_DEGREE``; above it frontiers grow too wide to be worth
ordering.  If the cost estimate stays within ``_DP_BUDGET_PER_VERTEX`` times
the component's size, the frontier DP solves the component.  The order is
abandoned as soon as it passes the budget, and ``frontier_order`` returns the
bag that broke it (the frontier plus the vertex just added); the recursion
branches inside that bag, on the bag vertex with the most neighbours in the
component: deleting it narrows exactly that bag.  Any other component, too
small or too dense to order, branches on a vertex of maximum degree, the
lowest such vertex found by the same pass that summed the degrees.
"""

from __future__ import annotations

from .graphs import Graph, GraphError, _bits, _degree_scan, _tree_walk, mask_components
from .polynomials import IntPoly

BRUTE_FORCE_CAP = 24


# Dispatch thresholds of the frontier DP (see the module docstring).
_DP_MIN_VERTICES = 20
_DP_MAX_MEAN_DEGREE = 5
_DP_BUDGET_PER_VERTEX = 2048


def independence_polynomial(g: Graph) -> IntPoly:
    """Exact I(G;x) for graphs up to 64 vertices."""
    adj = g.adj
    width = g.n + 2
    one_plus_x = 1 + (1 << width)
    memo: dict[int, int] = {}

    def solve(mask: int) -> int:
        hit = memo.get(mask)
        if hit is not None:
            return hit
        # the split classifies the node: one component per vertex (the empty
        # mask included) means no edge, and several are solved apart
        comps = mask_components(adj, mask)
        size = mask.bit_count()
        if len(comps) == size:
            result = one_plus_x ** size
        elif len(comps) > 1:
            result = solve(comps[0])
            for comp in comps[1:]:
                result *= solve(comp)
        else:
            degree_sum, v = _degree_scan(adj, mask)
            if degree_sum == 2 * size - 2:
                # connected with size - 1 edges: a tree
                result = tree_dp(adj, mask, width)
            else:
                order = bag = None
                if size >= _DP_MIN_VERTICES and degree_sum <= _DP_MAX_MEAN_DEGREE * size:
                    order, bag = frontier_order(adj, mask, _DP_BUDGET_PER_VERTEX * size)
                if order is not None:
                    result = frontier_dp(adj, order, width)
                else:
                    if bag is not None:
                        # removing a vertex of the bag that broke the
                        # budget narrows exactly that bag
                        v = max(_bits(bag), key=lambda u: (adj[u] & mask).bit_count())
                    result = solve(mask & ~(1 << v)) + (solve(mask & ~adj[v] & ~(1 << v)) << width)
        memo[mask] = result
        return result

    return _unpack(solve(g.full_mask), width)


def frontier_order(adj, mask: int, budget: int) -> tuple[list[int] | None, int | None]:
    """A vertex order of the mask for ``frontier_dp``, as (order, None).

    Each step introduces, among the neighbours of the frontier, the vertex
    that leaves the smallest frontier; ties go to the vertex that adds the
    fewest new vertices to the boundary (its neighbours still to come that
    no frontier vertex reaches yet), then to the vertex with more neighbours
    in the frontier, then to the lower index.  When the frontier has no
    neighbour left (at the start, or between components), a vertex of least
    degree starts the next run.  As soon as the sum of 2^(frontier width)
    over the steps passes ``budget``, the order is abandoned and (None, bag)
    returned: the bag is the frontier plus the vertex just added.  An order
    of at most 64 steps of width at most 64 costs at most 2^70, so that
    budget keeps every order.

    Introducing v leaves a frontier of width + (v has a neighbour to come) -
    sole[v], where sole[v] counts the frontier vertices whose only neighbour
    still to come is v; both counts are kept up to date, so scoring a
    candidate is O(1).
    """
    # entries outside the mask are never read
    remaining = [row & mask for row in adj]
    sole = [0] * len(adj)
    order = []
    frontier = 0
    width = 0
    # the vertices still to come with a neighbour in the frontier
    candidates = 0
    todo = mask
    cost = 0
    while todo:
        if not candidates:
            candidates = 1 << min(_bits(todo), key=lambda v: remaining[v].bit_count())
        best_v, best = -1, (65,)
        rest = candidates
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            size = width + (remaining[v] != 0) - sole[v]
            if size <= best[0]:
                score = (size, (remaining[v] & ~candidates).bit_count(),
                         -(adj[v] & frontier).bit_count())
                if score < best:
                    best_v, best = v, score
        low = 1 << best_v
        todo ^= low
        bag = frontier | low
        rest = adj[best_v] & mask
        forget = 0
        while rest:
            f = rest & -rest
            rest ^= f
            u = f.bit_length() - 1
            left = remaining[u] & ~low
            remaining[u] = left
            if f & frontier:
                if not left:
                    forget |= f
                elif not left & (left - 1):
                    sole[left.bit_length() - 1] += 1
        left = remaining[best_v]
        if left:
            candidates |= left
            if not left & (left - 1):
                sole[left.bit_length() - 1] += 1
        else:
            forget |= low
        candidates &= ~low
        frontier = bag & ~forget
        width = best[0]
        order.append(best_v)
        cost += 1 << width
        if cost > budget:
            return None, bag
    return order, None


def tree_dp(adj, mask: int, width: int) -> int:
    """Packed I of the induced subgraph on ``mask``, which must be a tree:
    ``tree_fold`` of its parent array from ``_tree_walk``, rooted at its
    lowest vertex."""
    return tree_fold(_tree_walk(adj, mask, (mask & -mask).bit_length() - 1)[1], width)


def tree_fold(parents, width: int) -> int:
    """Packed I of the rooted tree in which vertex i > 0 hangs from
    parents[i] < i; vertex 0 is the root.

    Each vertex v carries out[v] and inc[v]: the packed polynomials of the
    independent sets of v's subtree that leave v out and that take it in.
    Every vertex starts at out = 1 and inc = x, where a leaf stays; from the
    last vertex down each one folds into its parent p, out[p] *= out[v] +
    inc[v] and inc[p] *= out[v], and the root's out + inc is the answer.
    Every value counts independent sets of at most width - 2 vertices, so
    the packed slots never carry.
    """
    size = len(parents)
    out = [1] * size
    inc = [1 << width] * size
    for i in range(size - 1, 0, -1):
        p = parents[i]
        o = out[i]
        out[p] *= o + inc[i]
        inc[p] *= o
    return out[0] + inc[0]


def tree_polynomial(parents) -> IntPoly:
    """I(T;x) of the tree in which vertex i > 0 hangs from parents[i] < i,
    by ``tree_fold``; no ``Graph`` is built."""
    width = len(parents) + 2
    return _unpack(tree_fold(parents, width), width)


def frontier_dp(adj, order: list[int], width: int) -> int:
    """Packed I of the induced subgraph on the vertices of ``order``.

    A state is the set of vertices still to come that the chosen vertices
    block, and its value the packed polynomial of the independent sets,
    among the introduced vertices, that block exactly those.  Introducing v
    drops v from every key; a state that does not block v may also take it,
    which adds v's neighbours still to come to the key.
    """
    todo = sum(1 << v for v in order)
    states = {0: 1}
    for v in order:
        low = 1 << v
        todo ^= low
        nbrs = adj[v] & todo
        # the pass reads a snapshot: a key that gains a value before its own
        # turn still extends only its old value
        for key, value in list(states.items()):
            if key & low:
                del states[key]
                key ^= low
                states[key] = states.get(key, 0) + value
            else:
                key |= nbrs
                states[key] = states.get(key, 0) + (value << width)
    return states[0]


def _unpack(packed: int, width: int) -> IntPoly:
    slot = (1 << width) - 1
    coeffs = []
    while packed:
        coeffs.append(packed & slot)
        packed >>= width
    return IntPoly(coeffs)


def brute_force_independence_polynomial(g: Graph) -> IntPoly:
    """Tally independent sets by cardinality via plain backtracking.

    Deliberately free of memoization and component splitting so it stays an
    independent oracle; capped at 24 vertices because it enumerates.
    """
    if g.n > BRUTE_FORCE_CAP:
        raise GraphError(f"brute force capped at {BRUTE_FORCE_CAP} vertices")
    adj = g.adj
    counts = [0] * (g.n + 1)

    def extend(candidates: int, size: int) -> None:
        counts[size] += 1
        rest = candidates
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            extend(candidates & ~((low << 1) - 1) & ~adj[v], size + 1)

    extend(g.full_mask, 0)
    return IntPoly(counts)
