import random

import pytest

import helpers
from indpoly.engine import brute_force_independence_polynomial, independence_polynomial
from indpoly.graphs import CapacityError, FamilySpec, build_family
from indpoly.polynomials import ONE_PLUS_X, IntPoly, is_log_concave
from indpoly.products import (
    disjoint_union,
    join,
    join_poly,
    lex_poly,
    lexicographic,
    multipartite_poly,
    rooted_factors,
    rooted_product,
    rooted_product_poly,
    union_poly,
)


def fam(kind, *params):
    return build_family(FamilySpec(kind, params))


def ip(g):
    return independence_polynomial(g)


# ---------------------------------------------------------------------------
# graph constructions
# ---------------------------------------------------------------------------


def test_union_and_join_structure():
    e2, e3 = fam("empty", 2), fam("empty", 3)
    k23 = join(e2, e3)
    assert k23.n == 5 and k23.edge_count() == 6
    assert brute_force_independence_polynomial(k23) == IntPoly((1, 5, 4, 1))
    u = disjoint_union(fam("complete", 3), fam("complete", 2))
    assert u.edge_count() == 4 and len(u.adj) == 5


def test_lexicographic_small_cases():
    k2, e2 = fam("complete", 2), fam("empty", 2)
    assert lexicographic(k2, k2).edge_count() == 6  # K4
    two_k2 = lexicographic(e2, k2)
    assert sorted(two_k2.degree(v) for v in range(4)) == [1, 1, 1, 1]
    c4 = lexicographic(k2, e2)
    assert all(c4.degree(v) == 2 for v in range(4))
    assert ip(c4) == IntPoly((1, 4, 2))


def test_lexicographic_matches_definition():
    rng = random.Random(17)
    for _ in range(60):
        g1 = helpers.random_graph(rng, rng.randint(1, 5), rng.random())
        g2 = helpers.random_graph(rng, rng.randint(1, 5), rng.random())
        prod = lexicographic(g1, g2)
        n2 = g2.n
        for a in range(g1.n):
            for x in range(n2):
                for b in range(g1.n):
                    for y in range(n2):
                        if (a, x) == (b, y):
                            continue
                        expected = g1.has_edge(a, b) or (a == b and g2.has_edge(x, y))
                        assert prod.has_edge(a * n2 + x, b * n2 + y) == expected


def test_rooted_product_structure():
    p2 = fam("path", 2)
    p4 = rooted_product(p2, p2, 0)
    assert ip(p4) == IntPoly((1, 4, 3))
    h = fam("cycle", 5)
    assert rooted_product(fam("complete", 1), h, 3) == h
    with pytest.raises(CapacityError):
        rooted_product(fam("empty", 9), fam("empty", 8), 0)
    with pytest.raises(Exception):
        rooted_product(p2, p2, 5)


# ---------------------------------------------------------------------------
# formula-level identities
# ---------------------------------------------------------------------------


def test_lex_poly_examples():
    assert lex_poly(IntPoly((1, 2)), IntPoly((1, 2))) == IntPoly((1, 4))
    assert lex_poly(ONE_PLUS_X ** 2, IntPoly((1, 2))) == IntPoly((1, 4, 4))
    f = IntPoly((1, 7, 3))
    assert lex_poly(f, ONE_PLUS_X) == f  # inner K_1 is the identity
    with pytest.raises(ValueError):
        lex_poly(f, IntPoly((0, 1)))


def test_rooted_product_poly_examples():
    one = IntPoly((1,))
    assert rooted_product_poly(IntPoly((1, 2)), ONE_PLUS_X, one, 2) == IntPoly((1, 4, 3))
    assert rooted_product_poly(IntPoly((1, 3, 1)), ONE_PLUS_X, one, 3) == IntPoly(
        (1, 6, 10, 5)
    )
    f = IntPoly((1, 5, 5))
    assert rooted_product_poly(f, one, one, 7) == f  # H = K_1
    with pytest.raises(ValueError):
        rooted_product_poly(IntPoly((1, 1, 1)), ONE_PLUS_X, one, 1)
    with pytest.raises(ValueError):
        rooted_product_poly(f, IntPoly((2, 1)), one, 3)


def test_rooted_identity_at_the_horner_bounds():
    # an edgeless G has alpha = n, so no power of I(h - root) is left over
    # once the Horner pass is done; K1 has the shortest pass
    for h, root in ((fam("path", 4), 1), (fam("star", 3), 0), (fam("cycle", 5), 2)):
        ihv, ihnv = rooted_factors(h, root)
        for g in (fam("complete", 1), fam("empty", 1), fam("empty", 6)):
            formula = rooted_product_poly(ip(g), ihv, ihnv, g.n)
            assert ip(rooted_product(g, h, root)) == formula
        assert rooted_product_poly(IntPoly(), ihv, ihnv, 3) == IntPoly()


def test_join_poly_requires_unit_constants():
    with pytest.raises(ValueError):
        join_poly(IntPoly((2, 1)), ONE_PLUS_X)


def test_lex_identity_random():
    rng = random.Random(2718)
    done = 0
    while done < 200:
        g1 = helpers.random_graph(rng, rng.randint(1, 8), rng.random())
        g2 = helpers.random_graph(rng, rng.randint(1, 8), rng.random())
        if g1.n * g2.n > 64:
            continue
        done += 1
        assert ip(lexicographic(g1, g2)) == lex_poly(ip(g1), ip(g2))


def test_rooted_identity_random():
    rng = random.Random(3141)
    for _ in range(200):
        g = helpers.random_graph(rng, rng.randint(1, 7), rng.random())
        h = helpers.random_graph(rng, rng.randint(1, 6), rng.random())
        root = rng.randrange(h.n)
        ihv, ihnv = rooted_factors(h, root)
        formula = rooted_product_poly(ip(g), ihv, ihnv, g.n)
        assert ip(rooted_product(g, h, root)) == formula


def test_union_join_identities_random():
    rng = random.Random(1618)
    for _ in range(200):
        g1 = helpers.random_graph(rng, rng.randint(1, 9), rng.random())
        g2 = helpers.random_graph(rng, rng.randint(1, 9), rng.random())
        assert ip(disjoint_union(g1, g2)) == union_poly(ip(g1), ip(g2))
        assert ip(join(g1, g2)) == join_poly(ip(g1), ip(g2))


# ---------------------------------------------------------------------------
# multipartite
# ---------------------------------------------------------------------------


def test_multipartite_poly_examples():
    parts = [1] * 26 + [8]
    assert multipartite_poly(parts) == IntPoly((1, 34, 28, 56, 70, 56, 28, 8, 1))
    assert multipartite_poly([2, 3]) == IntPoly((1, 5, 4, 1))
    for m in range(1, 6):
        assert multipartite_poly([m]) == ONE_PLUS_X ** m
    with pytest.raises(ValueError):
        multipartite_poly([])
    with pytest.raises(ValueError):
        multipartite_poly([0, 2])


def test_multipartite_poly_matches_engine_for_all_partitions():
    for total in range(1, 15):
        for parts in helpers.integer_partitions(total):
            g = fam("complete_multipartite", *parts)
            assert multipartite_poly(parts) == ip(g), parts


def test_bipartite_always_log_concave():
    for n1 in range(1, 31):
        for n2 in range(1, n1 + 1):
            ok, _ = is_log_concave(multipartite_poly([n1, n2]))
            assert ok, (n1, n2)


def test_capacity_overflow():
    with pytest.raises(CapacityError):
        join(fam("empty", 40), fam("empty", 40))
    with pytest.raises(CapacityError):
        lexicographic(fam("empty", 9), fam("empty", 8))
