import json
import pickle
import random
from fractions import Fraction

import pytest

import helpers
from indpoly.engine import brute_force_independence_polynomial, independence_polynomial
from indpoly.graphs import (
    CapacityError,
    FamilySpec,
    GraphError,
    build_family,
    tree_canonical_code,
)
from indpoly.polynomials import IntPoly, is_log_concave, is_symmetric, real_rooted
from indpoly.products import rooted_product
from indpoly.verify import (
    FAMILY_CHECK_MAX,
    TRIG_CHECK_MAX,
    SamplingError,
    _coded_level_sequences,
    _level_sequence_tree,
    binomial_basis_unimodality_condition,
    composition_log_concavity_condition,
    composition_soundness_scan,
    composition_unimodality_condition,
    distinct_trees,
    free_tree_count,
    increasing_coefficients_case,
    pendant_ladder_family_check,
    pendant_ladder_graph_check,
    pendant_ladder_recurrence,
    pendant_ladder_trig_check,
    rooted_product_factor_inequalities,
    rooted_tree_product_check,
    scan_result_to_json,
    tree_factor_identities,
    tree_scan,
    well_covered_composition_condition,
    well_covered_coefficient_bound,
)


def fam(kind, *params):
    return build_family(FamilySpec(kind, params))


# ---------------------------------------------------------------------------
# composition conditions
# ---------------------------------------------------------------------------


def test_log_concavity_condition_examples():
    assert composition_log_concavity_condition([1, 2], 2, 0).holds
    v = composition_log_concavity_condition([1, 3, 1], 1, 1)
    assert not v.holds and v.first_failing_index == 2
    # with b2 = 0 the condition collapses to log-concavity of a
    rng = random.Random(4)
    for _ in range(100):
        a = [rng.randint(1, 30) for _ in range(rng.randint(1, 6))]
        expected = is_log_concave(IntPoly(a))[0]
        assert composition_log_concavity_condition(a, rng.randint(1, 5), 0).holds == expected


def test_log_concavity_condition_validation():
    with pytest.raises(ValueError):
        composition_log_concavity_condition([1, 0, 2], 1, 1)
    with pytest.raises(ValueError):
        composition_log_concavity_condition([1, 2], 0, 1)


def test_unimodality_condition_examples():
    v = composition_unimodality_condition([1, 4, 3, 1], 1)
    assert not v.holds and v.first_failing_index == 2
    assert composition_unimodality_condition([1, 4, 5, 6], 1).holds
    assert composition_unimodality_condition([1, 49, 48, 64], 2).holds


def test_increasing_special_case_implies_condition():
    rng = random.Random(44)
    for _ in range(200):
        a = [rng.randint(1, 20)]
        for _ in range(rng.randint(0, 5)):
            a.append(rng.randint(a[-1], a[-1] + 6))
        b1 = rng.randint(1, 9)
        assert increasing_coefficients_case(a, b1)
        assert composition_unimodality_condition(a, b1).holds
    assert not increasing_coefficients_case([2, 1], 5)


def test_well_covered_composition_examples():
    c4 = fam("cycle", 4)
    v = well_covered_composition_condition(c4, c4)
    assert v.holds and v.conclusion_checked
    assert not well_covered_composition_condition(fam("path", 3), c4).holds
    k2 = fam("complete", 2)
    v = well_covered_composition_condition(k2, k2)
    assert v.holds and v.conclusion_checked


def test_well_covered_coefficient_bound():
    assert well_covered_coefficient_bound(fam("cycle", 4))
    assert well_covered_coefficient_bound(fam("cycle", 5))
    with pytest.raises(GraphError):
        well_covered_coefficient_bound(fam("path", 3))
    rng = random.Random(2)
    k2 = fam("path", 2)
    for _ in range(30):
        g = helpers.random_graph(rng, rng.randint(1, 10), rng.random())
        assert well_covered_coefficient_bound(rooted_product(g, k2, 0))


def test_binomial_basis_condition():
    d = [0] * 9
    d[1], d[8] = 26, 1
    assert not binomial_basis_unimodality_condition(d)
    assert binomial_basis_unimodality_condition([1, 2, 3])
    assert binomial_basis_unimodality_condition([0, 0, 0])
    assert binomial_basis_unimodality_condition([2, 2], strict=False)
    assert not binomial_basis_unimodality_condition([2, 2], strict=True)
    with pytest.raises(ValueError):
        binomial_basis_unimodality_condition([-1])


# ---------------------------------------------------------------------------
# rooted tree products
# ---------------------------------------------------------------------------


def test_tree_factor_identities_all_hold():
    assert all(tree_factor_identities().values())


def test_rooted_tree_product_examples():
    p4 = fam("path", 4)
    v = rooted_tree_product_check(p4, "T", 1)
    assert v.conclusion_checked and "real-rooted" in v.condition_name
    v = rooted_tree_product_check(p4, "T", 4)
    assert v.conclusion_checked and "log-concave" in v.condition_name
    v = rooted_tree_product_check(fam("cycle", 5), "T1", 2)
    assert v.conclusion_checked and "log-concave" in v.condition_name


def test_rooted_tree_product_hypothesis_failure():
    claw = fam("star", 3)  # I(claw) is not real-rooted
    with pytest.raises(GraphError, match="hypothesis"):
        rooted_tree_product_check(claw, "T", 1)
    with pytest.raises(ValueError):
        rooted_tree_product_check(fam("path", 4), "T2", 1)
    with pytest.raises(ValueError):
        rooted_tree_product_check(fam("path", 4), "T", 5)


def test_factor_inequalities():
    assert rooted_product_factor_inequalities(1) == (True, True)
    assert rooted_product_factor_inequalities(Fraction(1, 2)) == (True, True)
    with pytest.raises(ValueError):
        rooted_product_factor_inequalities(0)
    rng = random.Random(808)
    for _ in range(200_000):
        r = Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
        assert rooted_product_factor_inequalities(r) == (True, True)


def test_factor_discriminants_match_quadratic():
    # disc > 0 really does make 1+(3+2r)x+2rx^2 real-rooted at integer r
    from indpoly.polynomials import real_rooted

    for r in range(1, 20):
        assert rooted_product_factor_inequalities(r)[0]
        assert real_rooted(IntPoly((1, 3 + 2 * r, 2 * r)))


# ---------------------------------------------------------------------------
# pendant-ladder family
# ---------------------------------------------------------------------------


def test_recurrence_bases_and_steps():
    assert pendant_ladder_recurrence(-1) == IntPoly((1,))
    assert pendant_ladder_recurrence(0) == IntPoly((1, 1))
    assert pendant_ladder_recurrence(1) == IntPoly((1, 3, 1))
    assert pendant_ladder_recurrence(2) == IntPoly((1, 5, 5, 1))
    with pytest.raises(ValueError):
        pendant_ladder_recurrence(-2)


def test_recurrence_matches_engine():
    for n in range(0, 21):
        g = fam("pendant_ladder_g", n)
        assert independence_polynomial(g) == pendant_ladder_recurrence(n), n
    # the one-pass check, up to the last G_n under the vertex cap
    assert pendant_ladder_graph_check(31) == [{"n": n, "match": True} for n in range(32)]


def test_family_check_rows():
    rows = pendant_ladder_family_check(25)
    assert len(rows) == 26
    assert all(row["ok"] for row in rows)
    assert rows[1]["degree"] == 2
    # explicit factorization at n=2: (1+x)(1+4x+x^2)
    assert pendant_ladder_recurrence(2) == IntPoly((1, 1)) * IntPoly((1, 4, 1))


def test_symmetry_functional_form():
    for n in range(0, 15):
        p = pendant_ladder_recurrence(n)
        assert p.coeffs[::-1] == p.coeffs
        assert is_symmetric(p)


def test_trig_expansion_checks():
    assert pendant_ladder_trig_check(0, 1e-12)
    assert pendant_ladder_trig_check(2, 1e-12)
    for n in range(0, 13):
        assert pendant_ladder_trig_check(n, 1e-6), n
    # an absurdly tight tolerance must fail once rounding enters
    assert not pendant_ladder_trig_check(9, 1e-18)


def test_pendant_ladder_check_caps():
    # the float expansion overflows past n = 808; the cap itself still checks
    assert pendant_ladder_trig_check(TRIG_CHECK_MAX, 1e-6)
    for n in (TRIG_CHECK_MAX + 1, 809):
        with pytest.raises(ValueError, match=f"index must be <= {TRIG_CHECK_MAX}"):
            pendant_ladder_trig_check(n, 1e-6)
    with pytest.raises(ValueError, match=f"n_max must be <= {FAMILY_CHECK_MAX}"):
        pendant_ladder_family_check(FAMILY_CHECK_MAX + 1)


# ---------------------------------------------------------------------------
# tree scan
# ---------------------------------------------------------------------------


def test_distinct_tree_counts():
    for n in range(1, 15):
        assert len(distinct_trees(n)) == helpers.KNOWN_TREE_COUNTS[n]
        assert free_tree_count(n) == helpers.KNOWN_TREE_COUNTS[n]
    # up to the scan cap, counted without building the trees
    for n in range(15, 19):
        assert free_tree_count(n) == helpers.KNOWN_TREE_COUNTS[n]


def test_real_rooted_routes_agree_on_ladders_and_trees():
    # the early exit of real_rooted against the full chains, on every tree
    # polynomial up to 12 vertices (both verdicts occur) and the ladders
    for n in range(61):
        f = pendant_ladder_recurrence(n)
        assert real_rooted(f)
        assert helpers.sturm_routes_agree(f), n
    verdicts = set()
    for n in range(1, 13):
        for _, tree in distinct_trees(n):
            f = independence_polynomial(tree)
            assert helpers.sturm_routes_agree(f), n
            verdicts.add(real_rooted(f))
    assert verdicts == {True, False}


def test_scan_matches_the_graph_routes():
    # the graph-free scan against a Graph built from each level sequence:
    # the validated canonical code and the brute-force polynomial
    for n in range(2, 13):
        coded = _coded_level_sequences(n)
        results = list(tree_scan(n, n))
        assert [r.canonical_code for r in results] == [code for code, _ in coded]
        for (code, levels), result in zip(coded, results):
            tree = _level_sequence_tree(levels)
            assert code == tree_canonical_code(tree)
            assert result.polynomial == brute_force_independence_polynomial(tree)
        assert len(results) == helpers.KNOWN_TREE_COUNTS[n]


def test_tree_scan_counts_and_violations():
    per_n = {}
    for result in tree_scan(2, 5):
        per_n.setdefault(result.n, []).append(result)
        assert result.report.unimodal
        assert result.polynomial.degree == len(result.polynomial.coeffs) - 1
    assert [len(per_n[n]) for n in (2, 3, 4, 5)] == [1, 1, 2, 3]


def test_tree_scan_bounds():
    with pytest.raises(ValueError):
        list(tree_scan(1, 5))
    with pytest.raises(ValueError):
        list(tree_scan(2, 19))
    tree_scan(2, 18)  # the cap itself is accepted; the scan is lazy


def test_tree_scan_deterministic():
    first = [scan_result_to_json(r) for r in tree_scan(2, 6)]
    second = [scan_result_to_json(r) for r in tree_scan(2, 6)]
    assert first == second


def test_scan_result_is_a_frozen_picklable_value():
    # `scan --jobs 2` workers return results to the parent process by pickle
    result = next(iter(tree_scan(4, 4)))
    with pytest.raises(AttributeError):
        result.n = 5
    again = pickle.loads(pickle.dumps(result))
    assert again == result and scan_result_to_json(again) == scan_result_to_json(result)


def test_scan_result_json_shape():
    result = next(iter(tree_scan(2, 2)))
    row = json.loads(scan_result_to_json(result))
    assert set(row) == {
        "n", "code", "coeffs", "unimodal", "log_concave", "symmetric", "real_rooted"
    }
    assert row["n"] == 2 and row["coeffs"] == ["1", "2"]
    assert all(isinstance(c, str) for c in row["coeffs"])


# ---------------------------------------------------------------------------
# soundness harnesses
# ---------------------------------------------------------------------------


def test_soundness_scan_small():
    out = composition_soundness_scan("log_concave", samples=60, seed=90001)
    assert out["samples"] == 60 and out["failures"] == []
    out = composition_soundness_scan("unimodal", samples=60, seed=90002)
    assert out["samples"] == 60 and out["failures"] == []
    with pytest.raises(ValueError):
        composition_soundness_scan("nope", samples=1)


def test_soundness_scan_budget_exhausted():
    with pytest.raises(SamplingError, match="did not converge: 9 of 50 samples") as info:
        composition_soundness_scan("unimodal", samples=50, seed=1, max_attempts=10)
    # the CLI's capacity error (exit 3), and still a RuntimeError
    assert isinstance(info.value, CapacityError) and isinstance(info.value, RuntimeError)
