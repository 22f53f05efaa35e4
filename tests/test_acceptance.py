"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Pools of polynomials
produced by the oracle-equivalence and product suites are shared through
module-scoped fixtures so the implication-chain criterion can audit exactly
what the other suites saw.
"""

import random
import time
from itertools import product as iterproduct

import pytest

import helpers
from indpoly.engine import brute_force_independence_polynomial, independence_polynomial
from indpoly.graphs import (
    FamilySpec,
    alpha,
    build_family,
    tree_canonical_code,
)
from indpoly.polynomials import (
    IntPoly,
    is_log_concave,
    is_symmetric,
    is_unimodal,
    newton_check,
    real_rooted,
)
from indpoly.products import (
    disjoint_union,
    join,
    lex_poly,
    lexicographic,
    multipartite_poly,
    rooted_factors,
    rooted_product,
    rooted_product_poly,
)
from indpoly.verify import (
    composition_soundness_scan,
    distinct_trees,
    pendant_ladder_recurrence,
    pendant_ladder_trig_check,
    rooted_tree_product_check,
    tree_scan,
    well_covered_coefficient_bound,
)


def fam(kind, *params):
    return build_family(FamilySpec(kind, params))


def ip(g):
    return independence_polynomial(g)


# ---------------------------------------------------------------------------
# shared pools
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def oracle_pool():
    """Criterion 3 workload: exhaustive n<=8 graph6 corpus plus 500 randoms."""
    from indpoly.graphs import emit_graph6, parse_graph6

    t0 = time.perf_counter()
    # materialize the corpus as graph6 lines, then work from the decoded form
    corpus_g6 = {
        n: [emit_graph6(g) for g in graphs]
        for n, graphs in helpers.graph_corpus(8).items()
    }
    counts = {n: len(lines) for n, lines in corpus_g6.items()}
    mismatches = 0
    polys = []
    for lines in corpus_g6.values():
        for line in lines:
            g = parse_graph6(line)
            assert emit_graph6(g) == line
            fast = ip(g)
            polys.append(fast)
            if fast != brute_force_independence_polynomial(g):
                mismatches += 1
    rng = random.Random(30003)
    for _ in range(500):
        g = helpers.random_graph(rng, rng.randint(9, 16), rng.choice([0.2, 0.5, 0.8]))
        fast = ip(g)
        polys.append(fast)
        if fast != brute_force_independence_polynomial(g):
            mismatches += 1
    return {
        "counts": counts,
        "mismatches": mismatches,
        "polys": polys,
        "elapsed": time.perf_counter() - t0,
    }


@pytest.fixture(scope="module")
def lex_pool():
    """Criterion 4 workload: 200 random lexicographic pairs, product <= 64."""
    rng = random.Random(40004)
    mismatches = 0
    polys = []
    done = 0
    while done < 200:
        g1 = helpers.random_graph(rng, rng.randint(1, 8), rng.random())
        g2 = helpers.random_graph(rng, rng.randint(1, 8), rng.random())
        if g1.n * g2.n > 64:
            continue
        done += 1
        graph_level = ip(lexicographic(g1, g2))
        formula = lex_poly(ip(g1), ip(g2))
        polys.append(graph_level)
        if graph_level != formula:
            mismatches += 1
    return {"mismatches": mismatches, "polys": polys}


@pytest.fixture(scope="module")
def rooted_pool():
    """Criterion 5 workload: 200 random rooted-product triples."""
    rng = random.Random(50005)
    mismatches = 0
    polys = []
    for _ in range(200):
        g = helpers.random_graph(rng, rng.randint(1, 7), rng.random())
        h = helpers.random_graph(rng, rng.randint(1, 6), rng.random())
        root = rng.randrange(h.n)
        graph_level = ip(rooted_product(g, h, root))
        ihv, ihnv = rooted_factors(h, root)
        formula = rooted_product_poly(ip(g), ihv, ihnv, g.n)
        polys.append(graph_level)
        if graph_level != formula:
            mismatches += 1
    return {"mismatches": mismatches, "polys": polys}


@pytest.fixture(scope="module")
def ladder_pool():
    """Criterion 6 workload: recurrence vs engine, plus the checked predicates."""
    t0 = time.perf_counter()
    rows = []
    polys = []
    for n in range(26):
        rec = pendant_ladder_recurrence(n)
        eng = ip(fam("pendant_ladder_g", n))
        polys.append(rec)
        rows.append(
            {
                "n": n,
                "engine_match": rec == eng,
                "symmetric": is_symmetric(rec),
                "real_rooted": real_rooted(rec),
                "degree_ok": rec.degree == n + 1,
            }
        )
    return {"rows": rows, "polys": polys, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def tree_product_pool():
    """Criterion 8 workload: paths and cycles against both reference trees."""
    failures = []
    polys = []
    for kind, lo in (("path", 3), ("cycle", 3)):
        for n in range(lo, 9):
            g = fam(kind, n)
            for tree, root in iterproduct(("T", "T1"), (1, 2, 3, 4)):
                verdict = rooted_tree_product_check(g, tree, root)
                h = fam("tree_t" if tree == "T" else "tree_t1")
                polys.append(ip(rooted_product(g, h, root - 1)))
                if not verdict.conclusion_checked:
                    failures.append((kind, n, tree, root))
    return {"failures": failures, "polys": polys}


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_c01_counterexample_polynomial():
    t0 = time.perf_counter()
    k4 = fam("complete", 4)
    g = join(disjoint_union(disjoint_union(k4, k4), k4), fam("complete", 37))
    poly = ip(g)
    elapsed = time.perf_counter() - t0
    assert poly == IntPoly((1, 49, 48, 64))
    assert is_unimodal(poly)[0] is False
    lc_ok, lc_at = is_log_concave(poly)
    assert lc_ok is False and lc_at == 2
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 01 PASS: join counterexample exact in {elapsed:.3f}s")


def test_c02_multipartite_counterexample():
    poly = multipartite_poly([1] * 26 + [8])
    assert poly == IntPoly((1, 34, 28, 56, 70, 56, 28, 8, 1))
    ok, at = is_unimodal(poly)
    assert ok is False and at == 2
    print("\nACCEPTANCE 02 PASS: multipartite counterexample exact, dip at 2")


def test_c03_oracle_equivalence(oracle_pool):
    assert oracle_pool["counts"] == helpers.KNOWN_GRAPH_COUNTS
    assert oracle_pool["mismatches"] == 0
    assert oracle_pool["elapsed"] < 300
    total = sum(oracle_pool["counts"].values()) + 500
    print(
        f"\nACCEPTANCE 03 PASS: engine == brute force on {total} graphs "
        f"in {oracle_pool['elapsed']:.1f}s"
    )


def test_c04_lexicographic_identity(lex_pool):
    assert lex_pool["mismatches"] == 0
    print("\nACCEPTANCE 04 PASS: lexicographic identity exact on 200 pairs")


def test_c05_rooted_identity(rooted_pool):
    assert rooted_pool["mismatches"] == 0
    print("\nACCEPTANCE 05 PASS: rooted-product formula exact on 200 triples")


def test_c06_pendant_ladder_family(ladder_pool):
    for row in ladder_pool["rows"]:
        assert row["engine_match"], row
        assert row["symmetric"], row
        assert row["real_rooted"], row
        assert row["degree_ok"], row
    assert ladder_pool["elapsed"] < 120
    print(
        f"\nACCEPTANCE 06 PASS: ladder family checks for n<=25 "
        f"in {ladder_pool['elapsed']:.1f}s"
    )


def test_c07_trig_product_expansion():
    for n in range(13):
        assert pendant_ladder_trig_check(n, 1e-6), n
    print("\nACCEPTANCE 07 PASS: trig product matches recurrence to 1e-6 for n<=12")


def test_c08_tree_products(tree_product_pool):
    assert tree_product_pool["failures"] == []
    print("\nACCEPTANCE 08 PASS: all 96 rooted tree products satisfy their conclusions")


def test_c09_composition_soundness():
    lc = composition_soundness_scan("log_concave", samples=500, seed=90101)
    uni = composition_soundness_scan("unimodal", samples=500, seed=90202)
    assert lc["samples"] == 500 and lc["failures"] == []
    assert uni["samples"] == 500 and uni["failures"] == []
    print("\nACCEPTANCE 09 PASS: 500+500 satisfied hypotheses, zero counterexamples")


def test_c10_pendant_doubling_well_covered():
    from indpoly.graphs import is_well_covered

    rng = random.Random(100100)
    k2 = fam("path", 2)
    for _ in range(100):
        g = helpers.random_graph(rng, rng.randint(1, 16), rng.random())
        doubled = rooted_product(g, k2, 0)
        assert is_well_covered(doubled)
        assert alpha(doubled) == g.n
        assert well_covered_coefficient_bound(doubled)
    print("\nACCEPTANCE 10 PASS: 100 pendant-doubled graphs well-covered with bound")


def test_c11_newton_implication_chain(
    oracle_pool, lex_pool, rooted_pool, ladder_pool, tree_product_pool
):
    pool = (
        oracle_pool["polys"]
        + lex_pool["polys"]
        + rooted_pool["polys"]
        + ladder_pool["polys"]
        + tree_product_pool["polys"]
    )
    checked = 0
    for poly in pool:
        if not all(c > 0 for c in poly.coeffs):
            continue
        checked += 1
        rr = real_rooted(poly)
        newt = newton_check(poly)
        lc = is_log_concave(poly)[0]
        uni = is_unimodal(poly)[0]
        if rr:
            assert newt, poly
        if newt:
            assert lc and uni, poly
    assert checked > 13000
    print(f"\nACCEPTANCE 11 PASS: implication chain held on {checked} polynomials")


def test_c12_tree_scan():
    t0 = time.perf_counter()
    counts = {}
    violations = 0
    codes_seen = {}
    for result in tree_scan(2, 12):
        counts[result.n] = counts.get(result.n, 0) + 1
        codes_seen.setdefault(result.n, set()).add(result.canonical_code)
        if not result.report.unimodal:
            violations += 1
    assert violations == 0
    assert counts == {n: helpers.KNOWN_TREE_COUNTS[n] for n in range(2, 13)}
    # cross-check n <= 8 against full labeled enumeration with two dedup
    # mechanisms, canonical codes and pairwise isomorphism testing, on the
    # same decoded trees
    for n in range(2, 9):
        labeled = list(helpers.all_prufer_trees(n))
        prufer_codes = {tree_canonical_code(tree) for tree in labeled}
        assert prufer_codes == codes_seen[n]
        assert len(prufer_codes) == len(helpers.iso_dedup(labeled))
    elapsed = time.perf_counter() - t0
    assert elapsed < 600
    total = sum(counts.values())
    print(f"\nACCEPTANCE 12 PASS: {total} trees scanned, 0 violations, {elapsed:.1f}s")


def test_c12_scanned_polynomials_match_oracles():
    # the scan's polynomials against the branching recursion alone and the
    # brute-force enumerator, in the order the scan streams them
    expected = []
    for n in range(2, 11):
        for code, tree in distinct_trees(n):
            poly = brute_force_independence_polynomial(tree)
            assert independence_polynomial(tree, _dispatch=False) == poly
            assert independence_polynomial(tree) == poly
            expected.append((n, code, poly))
    scanned = [(r.n, r.canonical_code, r.polynomial) for r in tree_scan(2, 10)]
    assert scanned == expected
    assert len(expected) == sum(helpers.KNOWN_TREE_COUNTS[n] for n in range(2, 11))


def test_c13_performance():
    rng = random.Random(13001)
    g30 = helpers.random_graph(rng, 30, 0.3)
    t0 = time.perf_counter()
    ip(g30)
    dense_elapsed = time.perf_counter() - t0
    assert dense_elapsed < 10

    rng = random.Random(13002)
    g24 = helpers.random_graph(rng, 24, 0.1)
    t0 = time.perf_counter()
    ip(g24)
    sparse_elapsed = time.perf_counter() - t0
    assert sparse_elapsed < 60
    print(
        f"\nACCEPTANCE 13 PASS: G(30,0.3) in {dense_elapsed:.2f}s, "
        f"G(24,0.1) in {sparse_elapsed:.2f}s"
    )
