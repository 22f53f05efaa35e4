"""Exact independence polynomial computation.

Two routes exist on purpose.  ``independence_polynomial`` is the fast path:
the classic vertex recursion I(G) = I(G-v) + x*I(G-N[v]) over induced-subgraph
masks, with connected components multiplied separately, edgeless remainders
short-circuited to (1+x)^k, and results memoized by mask.
``brute_force_independence_polynomial`` enumerates every independent set with
no sharing at all, so it can certify the fast path.

Inside the recursion a polynomial is packed into one Python int by Kronecker
substitution: coefficient k sits in bits [k*B, (k+1)*B) with B = n + 2.  Every
intermediate value is I(H) for an induced subgraph H, whose coefficients sum
to at most 2^|H| <= 2^n, so no slot ever carries into the next.  Addition is
then one int addition, multiplying by x is a shift by B, and a component
product is one big-int multiplication.  The packed root value is unpacked into
an ``IntPoly`` once, at the end.
"""

from __future__ import annotations

from math import comb

from .graphs import Graph, GraphError, _max_degree_vertex, mask_components
from .polynomials import IntPoly

BRUTE_FORCE_CAP = 24


def independence_polynomial(g: Graph) -> IntPoly:
    """Exact I(G;x) for graphs up to 64 vertices."""
    adj = g.adj
    n = g.n
    closed = tuple(adj[v] | (1 << v) for v in range(n))
    width = n + 2
    # packed (1+x)^k for k = 0..n; the slot width depends on n, so the table
    # belongs to this call
    one_plus_x_pow = [1]
    for _ in range(n):
        prev = one_plus_x_pow[-1]
        one_plus_x_pow.append(prev + (prev << width))
    memo: dict[int, int] = {}

    def solve(mask: int) -> int:
        hit = memo.get(mask)
        if hit is not None:
            return hit
        rest = mask
        while rest:
            low = rest & -rest
            if adj[low.bit_length() - 1] & mask:
                break
            rest ^= low
        if not rest:
            result = one_plus_x_pow[mask.bit_count()]
        else:
            comps = mask_components(adj, mask)
            if len(comps) > 1:
                result = solve(comps[0])
                for comp in comps[1:]:
                    result *= solve(comp)
            else:
                v = _max_degree_vertex(adj, mask)
                result = solve(mask & ~(1 << v)) + (solve(mask & ~closed[v]) << width)
        memo[mask] = result
        return result

    packed = solve(g.full_mask)
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


def coefficient(g: Graph, k: int) -> int:
    """Number of independent sets of size k (0 beyond alpha).

    The k=1 and k=2 values are cross-checked against their closed forms
    |V| and C(|V|,2) - |E|.
    """
    if k < 0:
        raise ValueError("negative cardinality")
    value = independence_polynomial(g).coefficient(k)
    if k == 1 and value != g.n:
        raise AssertionError("i_1 disagrees with the vertex count")
    if k == 2 and value != comb(g.n, 2) - g.edge_count():
        raise AssertionError("i_2 disagrees with C(n,2) - m")
    return value
