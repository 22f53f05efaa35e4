"""Graph products and their polynomial-level counterparts.

Every product here exists twice: as a graph construction and as a formula on
independence polynomials, so each identity can be tested with both paths.
"""

from __future__ import annotations

from .engine import independence_polynomial
from .graphs import (
    Graph,
    GraphError,
    _bits,
    _check_cap,
    delete_closed_neighborhood,
    delete_vertex,
)
from .polynomials import ONE, ONE_PLUS_X, IntPoly


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    _check_cap(g1.n + g2.n, "product")
    adj = list(g1.adj) + [row << g1.n for row in g2.adj]
    return Graph(g1.n + g2.n, tuple(adj))


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus all cross edges."""
    _check_cap(g1.n + g2.n, "product")
    left = ((1 << g1.n) - 1)
    right = ((1 << g2.n) - 1) << g1.n
    adj = [row | right for row in g1.adj]
    adj += [(row << g1.n) | left for row in g2.adj]
    return Graph(g1.n + g2.n, tuple(adj))


def lexicographic(g1: Graph, g2: Graph) -> Graph:
    """Substitute a copy of g2 for every vertex of g1.

    (a,x) is adjacent to (b,y) iff a~b in g1, or a=b and x~y in g2; vertex
    (a,x) gets index a*|V(g2)| + x.
    """
    n1, n2 = g1.n, g2.n
    _check_cap(n1 * n2, "product")
    block = (1 << n2) - 1
    adj = []
    for a in range(n1):
        outer = 0
        for b in _bits(g1.adj[a]):
            outer |= block << (b * n2)
        for x in range(n2):
            adj.append(outer | (g2.adj[x] << (a * n2)))
    return Graph(n1 * n2, tuple(adj))


def rooted_product(g: Graph, h: Graph, root: int) -> Graph:
    """Attach a copy of h to every vertex of g by identifying it with root.

    Copy i of h occupies indices [i*|V(h)|, (i+1)*|V(h)|); the edges of g run
    between the identified roots.
    """
    if not (0 <= root < h.n):
        raise GraphError(f"root {root} out of range for |V(h)|={h.n}")
    _check_cap(g.n * h.n, "product")
    nh = h.n
    edges = []
    for i in range(g.n):
        base = i * nh
        edges += [(base + u, base + v) for u, v in h.edges()]
    edges += [(u * nh + root, v * nh + root) for u, v in g.edges()]
    return Graph.from_edges(g.n * nh, edges)


# ---------------------------------------------------------------------------
# Formula-level counterparts
# ---------------------------------------------------------------------------


def _require_constant_one(f: IntPoly, name: str) -> None:
    if f.coefficient(0) != 1:
        raise ValueError(f"{name} must have constant term 1")


def union_poly(i1: IntPoly, i2: IntPoly) -> IntPoly:
    return i1 * i2


def join_poly(i1: IntPoly, i2: IntPoly) -> IntPoly:
    """I(g1) + I(g2) - 1; the correction hits the constant term only."""
    _require_constant_one(i1, "join operand")
    _require_constant_one(i2, "join operand")
    result = i1 + i2 - ONE
    assert result.coefficient(0) == 1
    return result


def lex_poly(i1: IntPoly, i2: IntPoly) -> IntPoly:
    """Compose i1 with (i2 - 1), the substitution form of the lexicographic
    product identity."""
    _require_constant_one(i2, "inner polynomial")
    return i1.compose(i2 - ONE)


def rooted_product_poly(ig: IntPoly, ihv: IntPoly, ihnv: IntPoly, n: int) -> IntPoly:
    """Rooted-product polynomial in cleared-denominator form.

    With ig = sum a_k x^k of degree alpha <= n, returns
    sum a_k * x^k * ihnv^k * ihv^(n-k); the rational substitution always
    cancels, so no fraction type is needed.  The sum is
    ihv^(n-alpha) * sum a_k (x ihnv)^k ihv^(alpha-k), taken by Horner's
    scheme in x * ihnv as `IntPoly.compose` takes it, each a_k scaled by a
    running power of ihv.
    """
    alpha = ig.degree
    if alpha > n:
        raise ValueError(f"degree {alpha} exceeds the copy count {n}")
    _require_constant_one(ihv, "I(h - root)")
    _require_constant_one(ihnv, "I(h - N[root])")
    x_ihnv = ihnv.shift(1)
    result = IntPoly()
    power = ONE  # ihv^(alpha - k) when a_k is added
    for k in range(alpha, -1, -1):
        result = result * x_ihnv + power * ig.coefficient(k)
        if k:
            power = power * ihv
    return result * ihv ** (n - alpha)


def rooted_factors(h: Graph, root: int) -> tuple[IntPoly, IntPoly]:
    """Convenience: the pair (I(h - root), I(h - N[root])) used by the
    rooted-product formula."""
    if not (0 <= root < h.n):
        raise GraphError(f"root {root} out of range for |V(h)|={h.n}")
    return (
        independence_polynomial(delete_vertex(h, root)),
        independence_polynomial(delete_closed_neighborhood(h, root)),
    )


def multipartite_poly(parts) -> IntPoly:
    """sum_i (1+x)^{n_i} - (k-1) for a complete multipartite graph."""
    parts = list(parts)
    if not parts:
        raise ValueError("at least one part required")
    if any(p < 1 for p in parts):
        raise ValueError("part sizes must be positive")
    result = IntPoly()
    for p in parts:
        result = result + ONE_PLUS_X ** p
    result = result - (len(parts) - 1)
    assert result.coefficient(0) == 1
    return result
