import base64
import itertools
import json
import math
import multiprocessing
import pickle
import random
import warnings
from fractions import Fraction

import pytest

import helpers
from helpers import rooted_product_factor_inequalities, well_covered_coefficient_bound
from indpoly import graphs, verify
from indpoly.engine import brute_force_independence_polynomial, independence_polynomial
from indpoly.graphs import (
    CapacityError,
    GraphError,
    _ahu_code,
    _tree_centers,
    _tree_code,
    alpha,
    build_family,
    components,
    tree_canonical_code,
)
from indpoly.polynomials import (
    X,
    IntPoly,
    coeffs_as_strings,
    is_log_concave,
    is_symmetric,
    real_rooted,
)
from indpoly.products import rooted_product
from indpoly.verify import (
    FAMILY_CHECK_MAX,
    MAX_SAMPLES,
    TRIG_CHECK_MAX,
    ConditionVerdict,
    SamplingError,
    _coded_level_sequences,
    _free_level_sequences,
    _level_sequence_code,
    _level_sequence_parents,
    _level_sequence_tree,
    _pendant_ladders,
    _second_child,
    binomial_basis_unimodality_condition,
    composition_log_concavity_condition,
    composition_soundness_scan,
    composition_unimodality_condition,
    distinct_trees,
    increasing_coefficients_case,
    pendant_ladder_family_check,
    pendant_ladder_graph_check,
    pendant_ladder_recurrence,
    pendant_ladder_trig_check,
    random_graph,
    rooted_tree_product_check,
    scan_result_to_json,
    tree_factor_identities,
    tree_scan,
    well_covered_composition_condition,
)


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
    # its inputs obey the sign rule of the condition it is a case of
    for a, b1 in (([-1, 0], 1), ([0, 1], 1), ([1, 2], 0)):
        with pytest.raises(ValueError):
            increasing_coefficients_case(a, b1)


def test_well_covered_composition_examples():
    c4 = build_family("cycle", 4)
    v = well_covered_composition_condition(c4, c4)
    assert v.holds and v.conclusion_checked
    assert not well_covered_composition_condition(build_family("path", 3), c4).holds
    k2 = build_family("complete", 2)
    v = well_covered_composition_condition(k2, k2)
    assert v.holds and v.conclusion_checked


def test_well_covered_composition_finds_each_alpha_once(monkeypatch):
    # alpha(g1) is read off deg I(g1); is_well_covered finds each graph's alpha
    # once, and graphs.alpha stays apart from the engine
    calls = []
    real_alpha = graphs.alpha

    def counted(g):
        calls.append(g)
        return real_alpha(g)

    monkeypatch.setattr(graphs, "alpha", counted)
    e3, k2, k3 = build_family("empty", 3), build_family("complete", 2), build_family("complete", 3)
    assert well_covered_composition_condition(e3, k3) == (
        "well-covered-composition", True, None, True
    )
    assert calls == [e3, k3]
    # |V(g2)| >= alpha(g1) = 3 is the hypothesis that fails
    assert not well_covered_composition_condition(e3, k2).holds


def test_condition_verdict_ok_truth_table():
    # a sufficient condition is refuted only by a met hypothesis whose
    # conclusion fails; an unchecked conclusion (None) does not count as met
    for holds, checked, ok in (
        (True, True, True),
        (True, False, False),
        (True, None, False),
        (False, True, True),
        (False, False, True),
        (False, None, True),
    ):
        assert ConditionVerdict("c", holds, conclusion_checked=checked).ok is ok


def test_well_covered_coefficient_bound():
    assert well_covered_coefficient_bound(build_family("cycle", 4))
    assert well_covered_coefficient_bound(build_family("cycle", 5))
    with pytest.raises(GraphError):
        well_covered_coefficient_bound(build_family("path", 3))
    rng = random.Random(2)
    k2 = build_family("path", 2)
    for _ in range(30):
        g = helpers.random_graph(rng, rng.randint(1, 10), rng.random())
        assert well_covered_coefficient_bound(rooted_product(g, k2, 0))


def test_binomial_basis_condition():
    d = [0] * 9
    d[1], d[8] = 26, 1
    assert not binomial_basis_unimodality_condition(d)
    assert binomial_basis_unimodality_condition([1, 2, 3])
    assert binomial_basis_unimodality_condition([0, 0, 0])
    assert binomial_basis_unimodality_condition([2, 2])
    with pytest.raises(ValueError):
        binomial_basis_unimodality_condition([-1])


# ---------------------------------------------------------------------------
# rooted tree products
# ---------------------------------------------------------------------------


def test_tree_factor_identities_all_hold():
    assert all(tree_factor_identities().values())


def test_rooted_tree_product_examples():
    p4 = build_family("path", 4)
    v = rooted_tree_product_check(p4, "T", 1)
    assert v.conclusion_checked and "real-rooted" in v.condition_name
    v = rooted_tree_product_check(p4, "T", 4)
    assert v.conclusion_checked and "log-concave" in v.condition_name
    v = rooted_tree_product_check(build_family("cycle", 5), "T1", 2)
    assert v.conclusion_checked and "log-concave" in v.condition_name


def test_rooted_tree_product_hypothesis_failure():
    claw = build_family("star", 3)  # I(claw) is not real-rooted
    for tree, root, kind in (("T", 1, "real-rooted"), ("T1", 4, "log-concave")):
        assert rooted_tree_product_check(claw, tree, root) == (
            f"rooted-tree-product:{tree}:root{root}:{kind}", False, None, None
        )
    for tree in ("T2", "path", "T₁", "tree_t"):
        with pytest.raises(ValueError, match="^tree must be 'T' or 'T1'$"):
            rooted_tree_product_check(build_family("path", 4), tree, 1)
    with pytest.raises(ValueError):
        rooted_tree_product_check(build_family("path", 4), "T", 5)


def test_factor_inequalities():
    assert rooted_product_factor_inequalities(1) == (True, True)
    assert rooted_product_factor_inequalities(Fraction(1, 2)) == (True, True)
    with pytest.raises(ValueError):
        rooted_product_factor_inequalities(0)
    rng = random.Random(808)
    for _ in range(200_000):
        r = Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
        assert rooted_product_factor_inequalities(r) == (True, True)


def test_factor_inequalities_hold_for_every_positive_r():
    # each fact is an integer polynomial in r with positive coefficients,
    # so it is positive at every r > 0
    r = X
    facts = [
        ((3 + 2 * r) ** 2 - 8 * r, IntPoly((9, 4, 4))),
        (9 * (1 + r) ** 2 - (r + 1) * (3 + r), (1 + r) * (6 + 8 * r)),
        ((3 + r) ** 2 - 3 * (1 + r), IntPoly((6, 3, 1))),
    ]
    for fact, closed_form in facts:
        assert fact == closed_form
        assert fact.coeffs and all(c > 0 for c in fact.coeffs)


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
        g = build_family("pendant_ladder_g", n)
        assert independence_polynomial(g) == pendant_ladder_recurrence(n), n
    # the one-pass check, up to the last G_n under the vertex cap
    assert pendant_ladder_graph_check(31) == [{"n": n, "match": True} for n in range(32)]


def test_pendant_ladders_answer_the_open_problem():
    # the abstract's last claim: for every odd alpha > 3, a connected graph
    # that is not a tree, with I symmetric and real-rooted; G_n, n = alpha - 1,
    # is one for alpha = 5..31, with alpha found apart from the engine
    for n in range(4, 31, 2):
        g = build_family("pendant_ladder_g", n)
        assert len(components(g)) == 1, n
        assert g.edge_count() >= g.n, n
        poly = independence_polynomial(g)
        assert alpha(g) == n + 1 == poly.degree, n
        assert is_symmetric(poly) and real_rooted(poly), n


def test_family_check_rows():
    rows = pendant_ladder_family_check(25)
    assert len(rows) == 26
    assert all(row["ok"] for row in rows)
    assert rows[1]["degree"] == 2
    # explicit factorization at n=2: (1+x)(1+4x+x^2)
    assert pendant_ladder_recurrence(2) == IntPoly((1, 1)) * IntPoly((1, 4, 1))


def test_pendant_ladder_closed_form_is_exact():
    # the paper's product formula for G_n, expanded in integers, against the
    # recurrence for every n <= 200 and at n = 300
    for n, poly in zip(range(201), _pendant_ladders()):
        assert helpers.pendant_ladder_closed_form(n) == poly, n
    assert helpers.pendant_ladder_closed_form(300) == pendant_ladder_recurrence(300)


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
        assert sum(1 for _ in _free_level_sequences(n)) == helpers.KNOWN_TREE_COUNTS[n]
    # up to the scan cap, counted without building the trees
    for n in range(15, 19):
        assert sum(1 for _ in _free_level_sequences(n)) == helpers.KNOWN_TREE_COUNTS[n]


def test_tree_enumeration_rejects_an_empty_tree():
    for enumerate_trees in (_free_level_sequences, _coded_level_sequences, distinct_trees):
        for n in (0, -2):
            with pytest.raises(ValueError, match="a tree needs at least 1 vertex"):
                list(enumerate_trees(n))


def test_code_collision_is_caught(monkeypatch):
    monkeypatch.setattr(verify, "_level_sequence_code", lambda levels: b"()")
    with pytest.raises(AssertionError, match="canonical code collision"):
        _coded_level_sequences(5)


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
        [(size, results)] = tree_scan(n, n)
        results = list(results)
        assert size == n
        assert [r.canonical_code for r in results] == [code for code, _ in coded]
        for (code, levels), result in zip(coded, results):
            tree = _level_sequence_tree(levels)
            assert code == tree_canonical_code(tree)
            assert result.polynomial == brute_force_independence_polynomial(tree)
        assert len(results) == helpers.KNOWN_TREE_COUNTS[n]


def test_level_sequence_code_matches_the_graph_route():
    # the reverse pass over each level sequence against graphs._tree_code on
    # the tree's adjacency rows, for every free tree up to 16 vertices; some
    # bicentral trees must take the code of the centre that is not the root.
    # The pass relies on the canonical order: the root's first subtree is
    # its tallest, and the tree is bicentral exactly when it is one level
    # taller than the rest, which graphs._tree_centers confirms
    second_centre = 0
    for n in range(1, 17):
        for levels in _free_level_sequences(n):
            parents = _level_sequence_parents(levels)
            code = _level_sequence_code(levels)
            tree = _level_sequence_tree(levels)
            assert code == _tree_code(tree.adj), levels
            second_centre += code != _ahu_code(parents)
            m = _second_child(levels)
            assert max(levels[:m]) == max(levels), levels
            bicentral = max(levels) == max(levels[m:], default=0) + 1
            assert bicentral == (len(_tree_centers(tree.adj)) == 2), levels
    assert second_centre > 0


def test_tree_scan_counts_and_violations():
    per_n = {}
    for n, results in tree_scan(2, 5):
        per_n[n] = list(results)
        for result in per_n[n]:
            assert result.n == n
            assert result.report.unimodal
            assert result.polynomial.degree == len(result.polynomial.coeffs) - 1
    assert [(n, len(results)) for n, results in per_n.items()] == [(2, 1), (3, 1), (4, 2), (5, 3)]


def test_tree_scan_bounds():
    with pytest.raises(ValueError):
        list(tree_scan(1, 5))
    with pytest.raises(ValueError):
        list(tree_scan(2, 19))
    tree_scan(2, 18)  # the cap itself is accepted; the scan is lazy


def test_tree_scan_checks_at_the_call_and_closes_its_pool(monkeypatch):
    with pytest.raises(ValueError, match="bounds must satisfy"):
        tree_scan(2, 19)
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        tree_scan(2, 9, jobs=0)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)  # a pool on any host
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        stream = tree_scan(2, 9, jobs=2)
        n, results = next(stream)
        first = next(results)  # the rest of size 2 and sizes 3-9 are left unread
        stream.close()
    assert multiprocessing.active_children() == []
    # a pool left to the garbage collector warns that it was never closed
    assert [w.message for w in caught if w.category is ResourceWarning] == []
    n_serial, results = next(tree_scan(2, 2))
    assert (n, first) == (n_serial, next(results))


@pytest.mark.parametrize("jobs", [1, 2])
def test_tree_scan_sizes_read_out_of_order(monkeypatch, jobs):
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)  # a pool on any host
    in_order = [(n, list(results)) for n, results in tree_scan(2, 5, jobs=jobs)]
    stream = tree_scan(2, 5, jobs=jobs)
    sizes = [next(stream) for _ in range(4)]
    backwards = [(n, list(results)) for n, results in reversed(sizes)]
    stream.close()
    assert backwards[::-1] == in_order
    assert [(n, len(results)) for n, results in in_order] == [(2, 1), (3, 1), (4, 2), (5, 3)]


def test_tree_scan_deterministic():
    first = [(n, [scan_result_to_json(r) for r in results]) for n, results in tree_scan(2, 6)]
    second = [(n, [scan_result_to_json(r) for r in results]) for n, results in tree_scan(2, 6)]
    assert first == second


def test_scan_result_is_a_frozen_picklable_value():
    # `scan --jobs 2` workers return results to the parent process by pickle
    _, results = next(tree_scan(4, 4))
    result = next(results)
    with pytest.raises(AttributeError):
        result.n = 5
    again = pickle.loads(pickle.dumps(result))
    assert again == result and scan_result_to_json(again) == scan_result_to_json(result)


def _json_dumps_line(result):
    # the json.dumps formula that scan_result_to_json formats by hand
    return json.dumps(
        {
            "n": result.n,
            "code": base64.b64encode(result.canonical_code).decode("ascii"),
            "coeffs": coeffs_as_strings(result.polynomial),
            "unimodal": result.report.unimodal,
            "log_concave": result.report.log_concave,
            "symmetric": result.report.symmetric,
            "real_rooted": result.report.real_rooted,
        },
        sort_keys=True,
    )


def test_scan_result_to_json_matches_json_dumps():
    results = [r for _, size in tree_scan(2, 10) for r in size]
    # hand-built results: every pattern of the four booleans, a code whose
    # base64 has "+" and "/", and a coefficient past 64 bits
    last = results[-1]
    names = ("unimodal", "log_concave", "symmetric", "real_rooted")
    for flags in itertools.product((False, True), repeat=4):
        report = last.report._replace(**dict(zip(names, flags)))
        results.append(last._replace(report=report))
        results.append(last._replace(canonical_code=bytes(range(256)), n=64,
                                     polynomial=IntPoly((1, 10 ** 30, 7)), report=report))
    for result in results:
        assert scan_result_to_json(result) == _json_dumps_line(result)


def test_scan_result_json_shape():
    _, results = next(tree_scan(2, 2))
    result = next(results)
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


def test_suites_refuse_out_of_range_arguments(monkeypatch):
    # refused at the call: no pair is drawn and no expansion is computed
    def no_work(*args):
        raise AssertionError("work started before the arguments were checked")

    for name in ("random_graph", "pendant_ladder_recurrence", "_trig_product_expansion"):
        monkeypatch.setattr(verify, name, no_work)
    for kind in ("log_concave", "unimodal"):
        for samples, message in ((0, "at least 1, got 0"), (-3, "at least 1, got -3"),
                                 (MAX_SAMPLES + 1, "at most 100000, got 100001")):
            with pytest.raises(ValueError, match=f"^samples must be {message}$"):
                composition_soundness_scan(kind, samples=samples)
    for tol, shown in ((math.nan, "nan"), (math.inf, "inf"), (0.0, "0.0"), (-1.0, "-1.0")):
        with pytest.raises(ValueError, match=f"^tol must be finite and positive, got {shown}$"):
            pendant_ladder_trig_check(11, tol)


def test_soundness_scan_budget_exhausted(monkeypatch):
    monkeypatch.setattr(verify, "MAX_ATTEMPTS", 10)
    with pytest.raises(SamplingError, match="did not converge: 9 of 50 samples") as info:
        composition_soundness_scan("unimodal", samples=50, seed=1)
    # the CLI's capacity error (exit 3), and still a RuntimeError
    assert isinstance(info.value, CapacityError) and isinstance(info.value, RuntimeError)


def test_counts_must_be_ints(monkeypatch):
    # a float or a bool is refused at the call, before any pair is drawn,
    # any ladder built or any tree generated
    def no_work(*args):
        raise AssertionError("work started before the count was checked")

    for name in ("random_graph", "_scan_stream", "_pendant_ladders", "build_family",
                 "_trig_product_expansion"):
        monkeypatch.setattr(verify, name, no_work)
    for bad, shown in ((2.5, "float"), (True, "bool"), (3.0, "float")):
        calls = (
            ("samples", lambda: composition_soundness_scan("unimodal", samples=bad)),
            ("jobs", lambda: tree_scan(2, 3, jobs=bad)),
            ("n_min", lambda: tree_scan(bad, 3)),
            ("n_max", lambda: tree_scan(2, bad)),
            ("n_max", lambda: pendant_ladder_family_check(bad)),
            ("n_max", lambda: pendant_ladder_graph_check(bad)),
            ("n", lambda: pendant_ladder_trig_check(bad, 1e-6)),
            ("n", lambda: pendant_ladder_recurrence(bad)),
            ("seed", lambda: composition_soundness_scan("unimodal", seed=bad)),
            ("root", lambda: rooted_tree_product_check(build_family("path", 2), "T", bad)),
            ("n", lambda: distinct_trees(bad)),
            ("n", lambda: random_graph(random.Random(0), bad, 0.5)),
            ("b1", lambda: composition_log_concavity_condition([1, 2], bad, 0)),
            ("b2", lambda: composition_log_concavity_condition([1, 2], 1, bad)),
            ("b1", lambda: composition_unimodality_condition([1, 2], bad)),
            ("b1", lambda: increasing_coefficients_case([1, 2], bad)),
            ("coefficient", lambda: composition_log_concavity_condition([1, bad, 1], 1, 0)),
            ("coefficient", lambda: composition_unimodality_condition([1, bad], 1)),
            ("coefficient", lambda: increasing_coefficients_case([bad], 1)),
            ("coefficient", lambda: binomial_basis_unimodality_condition([0, bad])),
        )
        for name, call in calls:
            with pytest.raises(TypeError, match=f"^{name} must be an int, got {shown}$"):
                call()


def test_soundness_scan_records_each_failure(monkeypatch):
    # a lex_poly that breaks both conclusions: every accepted pair is a
    # failure, recorded with both polynomials as decimal strings
    from indpoly import products

    seen = []

    def broken(i1, i2):
        seen.append((i1, i2))
        return IntPoly((1, 0, 1))

    monkeypatch.setattr(products, "lex_poly", broken)
    for kind in ("log_concave", "unimodal"):
        seen.clear()
        out = composition_soundness_scan(kind, samples=3, seed=5)
        assert out["samples"] == 3 and len(seen) == 3
        assert out["failures"] == [
            {"g1_coeffs": [str(c) for c in i1.coeffs], "g2_coeffs": [str(c) for c in i2.coeffs]}
            for i1, i2 in seen
        ]
        assert all(s.isdigit() for failure in out["failures"]
                   for s in failure["g1_coeffs"] + failure["g2_coeffs"])
