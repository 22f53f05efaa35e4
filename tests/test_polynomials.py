import math
import operator
import pickle
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from indpoly.polynomials import (
    ONE,
    ONE_PLUS_X,
    X,
    IntPoly,
    count_distinct_real_roots,
    is_log_concave,
    is_symmetric,
    is_unimodal,
    _poly_divmod_exact,
    newton_check,
    property_report,
    real_rooted,
    shift_basis,
    square_free_part,
)

poly_coeffs = st.lists(st.integers(-30, 30), max_size=6)


def poly(*cs):
    return IntPoly(cs)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def test_mul_linear_factors():
    assert ONE_PLUS_X * poly(1, 3) == poly(1, 4, 3)


def test_pow_zero_is_one():
    assert poly(1, 1) ** 0 == ONE


def test_pow_cube():
    assert poly(1, 4) ** 3 == poly(1, 12, 48, 64)


def test_trailing_zeros_trimmed():
    assert poly(1, 2, 0, 0) == poly(1, 2)
    assert poly(0, 0).is_zero()
    assert poly().degree == -1


def test_intpoly_is_an_immutable_value():
    p = IntPoly((1, 2, 0))
    with pytest.raises(AttributeError, match="^IntPoly is immutable$"):
        p.coeffs = (3,)
    assert p.coeffs == (1, 2)
    assert hash(p) == hash(IntPoly([1, 2])) and len({p, IntPoly((1, 2))}) == 1
    assert p and not IntPoly() and not IntPoly((0, 0))
    assert repr(p) == "IntPoly([1, 2])" and repr(IntPoly()) == "IntPoly([])"


def test_compose_examples():
    assert poly(1, 2).compose(poly(0, 2)) == poly(1, 4)
    f = poly(3, -1, 2, 5)
    assert f.compose(X) == f
    assert (ONE_PLUS_X ** 2).compose(poly(0, 2)) == poly(1, 4, 4)


def test_shift():
    assert poly(1, 2).shift(2) == poly(0, 0, 1, 2)
    assert IntPoly().shift(3).is_zero()
    for f in (poly(1, 2), IntPoly()):
        with pytest.raises(ValueError, match="shift must be nonnegative"):
            f.shift(-1)


@given(poly_coeffs, poly_coeffs)
def test_mul_commutative(a, b):
    assert IntPoly(a) * IntPoly(b) == IntPoly(b) * IntPoly(a)


@given(poly_coeffs, poly_coeffs, poly_coeffs)
def test_mul_associative(a, b, c):
    f, g, h = IntPoly(a), IntPoly(b), IntPoly(c)
    assert (f * g) * h == f * (g * h)


@given(poly_coeffs, poly_coeffs, poly_coeffs)
@settings(deadline=None)
def test_compose_associative(a, b, c):
    f, g, h = IntPoly(a[:4]), IntPoly(b[:4]), IntPoly(c[:4])
    assert f.compose(g.compose(h)) == f.compose(g).compose(h)


@given(poly_coeffs, poly_coeffs)
def test_add_sub_roundtrip(a, b):
    f, g = IntPoly(a), IntPoly(b)
    assert (f + g) - g == f


def test_pickle_roundtrip():
    # scan workers return polynomials to the parent process by pickle
    for f in (poly(), poly(1, 2, 3), poly(1, 10 ** 40, -3)):
        g = pickle.loads(pickle.dumps(f))
        assert g == f and g.coeffs == f.coeffs


# ---------------------------------------------------------------------------
# shift_basis
# ---------------------------------------------------------------------------


def test_shift_basis_examples():
    d = [0] * 9
    d[1] = 26
    d[8] = 1
    assert shift_basis(d) - 26 == poly(1, 34, 28, 56, 70, 56, 28, 8, 1)
    assert shift_basis([1, 2, 3]) == poly(6, 8, 3)
    assert shift_basis([7]) == poly(7)


def test_shift_basis_rejects_negative():
    with pytest.raises(ValueError):
        shift_basis([1, -1])


def test_shift_basis_weakly_increasing_is_unimodal():
    # unimodality whenever the nonzero subsequence is (weakly) increasing
    rng = random.Random(2024)
    for _ in range(1000):
        length = rng.randint(1, 9)
        d = []
        floor = 1
        for _ in range(length):
            if rng.random() < 0.25:
                d.append(0)
            else:
                floor = rng.randint(floor, floor + 5)
                d.append(floor)
        ok, _ = is_unimodal(shift_basis(d))
        assert ok, d


def test_shift_basis_log_concave_input_gives_log_concave_output():
    # positive log-concave d: coefficient rows of real-rooted products qualify
    rng = random.Random(99)
    for _ in range(500):
        f = ONE
        for _ in range(rng.randint(1, 6)):
            f = f * poly(rng.randint(1, 9), rng.randint(1, 9))
        assert is_log_concave(f)[0]
        assert is_log_concave(shift_basis(f.coeffs))[0], f.coeffs


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------


def test_unimodal_counterexamples_and_witnesses():
    ok, at = is_unimodal(poly(1, 49, 48, 64))
    assert not ok and at == 2
    ok, at = is_unimodal(poly(1, 34, 28, 56, 70, 56, 28, 8, 1))
    assert not ok and at == 2
    assert is_unimodal(poly(1, 2, 2, 1)) == (True, None)
    assert is_unimodal(poly(5, 3, 2)) == (True, None)
    assert is_unimodal(IntPoly()) == (True, None)


def test_unimodal_internal_zero_is_a_dip():
    ok, at = is_unimodal(poly(1, 0, 1))
    assert not ok and at == 1


def test_unimodal_rejects_negative():
    with pytest.raises(ValueError):
        is_unimodal(poly(1, -2, 1))


def test_log_concave_examples():
    assert is_log_concave(poly(1, 4, 2)) == (True, None)
    ok, at = is_log_concave(poly(1, 49, 48, 64))
    assert not ok and at == 2
    report = property_report(poly(1, 3, 1))
    assert (report.strictly_log_concave,
            report.first_violation.get("strictly_log_concave")) == (True, None)
    report = property_report(poly(1, 2, 4))
    ok, at = report.strictly_log_concave, report.first_violation["strictly_log_concave"]
    assert not ok and at == 1


def test_symmetric():
    assert is_symmetric(poly(1, 3, 1))
    assert is_symmetric(poly(1, 5, 5, 1))
    assert not is_symmetric(poly(1, 2))
    assert is_symmetric(IntPoly())


def test_newton_examples():
    assert newton_check(poly(1, 3, 1))
    assert not newton_check(poly(1, 2, 2))
    assert not newton_check(poly(1, 4, 3, 1))
    assert newton_check(poly(1, 5))  # degree < 2 is vacuous


# ---------------------------------------------------------------------------
# real-rootedness
# ---------------------------------------------------------------------------


def test_real_rooted_examples():
    assert real_rooted(poly(1, 3, 1))
    assert not real_rooted(poly(1, 1, 1))
    assert not real_rooted(poly(1, 4, 3, 1))
    assert real_rooted(ONE_PLUS_X ** 2)
    assert real_rooted(poly(5))
    assert real_rooted(X)
    with pytest.raises(ValueError):
        real_rooted(IntPoly())


def test_square_free_part():
    assert square_free_part(ONE_PLUS_X ** 3) == ONE_PLUS_X
    f = (ONE_PLUS_X ** 2) * poly(1, 2)
    s = square_free_part(f)
    assert s == ONE_PLUS_X * poly(1, 2)


def test_square_free_oracle_on_known_factorisations():
    # seeded products of distinct primitive linear factors b x + a and
    # distinct irreducible quadratics, each to a power, times a content of
    # either sign: the square-free part is the primitive product of the
    # distinct factors with a positive lead, and the distinct real zeros are
    # the linear factors
    rng = random.Random(180018)
    linear = [(a, b) for b in range(1, 5) for a in range(-6, 7) if math.gcd(a, b) == 1]
    quadratic = [(a, b, c) for a in range(1, 6) for b in range(-4, 5) for c in range(1, 6)
                 if b * b < 4 * a * c and math.gcd(a, b, c) == 1]
    for _ in range(300):
        factors = [poly(*cs) for cs in rng.sample(linear, rng.randint(0, 4))]
        roots = len(factors)
        factors += [poly(*cs) for cs in rng.sample(quadratic, rng.randint(0, 3))]
        f = poly(rng.choice([-1, 1]) * rng.randint(1, 30))
        expected = ONE
        for factor in factors:
            f = f * (factor * rng.choice([-1, 1])) ** rng.randint(1, 3)
            expected = expected * factor
        assert square_free_part(f) == expected, f.coeffs
        assert count_distinct_real_roots(f) == roots, f.coeffs


def test_real_rooted_and_the_oracle_stay_apart():
    # the early-exit walk and the square-free oracle are two routes to one
    # verdict; neither may call the other's code
    walk = set(real_rooted.__code__.co_names)
    assert not walk & {"_sturm_chain", "_pseudo_rem", "square_free_part", "count_distinct_real_roots"}
    for oracle in (square_free_part, count_distinct_real_roots):
        assert "real_rooted" not in oracle.__code__.co_names


def test_count_distinct_real_roots():
    assert count_distinct_real_roots((ONE_PLUS_X ** 2) * poly(1, 2)) == 2
    assert count_distinct_real_roots(poly(1, 1, 1)) == 0
    assert count_distinct_real_roots(poly(0, 1)) == 1
    # one real root for the claw polynomial
    assert count_distinct_real_roots(poly(1, 4, 3, 1)) == 1


def test_real_rooted_repeated_factors_both_routes():
    # products of repeated linear and quadratic factors times a non-unit
    # content; f is real-rooted exactly when no quadratic factor has a
    # negative discriminant, whatever the multiplicities
    rng = random.Random(60606)
    seen = set()
    for _ in range(400):
        f = poly(rng.choice([-6, -2, 2, 3, 4, 10]))
        expected = True
        for _ in range(rng.randint(0, 4)):
            f = f * poly(rng.randint(-6, 6), rng.choice([-3, -1, 1, 2, 5])) ** rng.randint(1, 3)
        for _ in range(rng.randint(0, 3)):
            a, b, c = rng.randint(-5, 5), rng.randint(-5, 5), rng.choice([-2, 1, 1, 3])
            expected &= b * b - 4 * a * c >= 0
            f = f * poly(a, b, c) ** rng.randint(1, 3)
        if f.is_zero():
            continue
        assert real_rooted(f) == expected, f.coeffs
        assert helpers.sturm_routes_agree(f), f.coeffs
        seen.add(expected)
    assert seen == {True, False}


def test_real_rooted_early_exit_matches_full_chains():
    # seeded products of linear and quadratic factors, repeated, times a
    # constant of either sign: the chain walk that stops at the first member
    # with a degree drop above 1 or a leading coefficient that is not
    # positive gives the verdict of the full chain and the square-free route
    rng = random.Random(20011)
    verdicts = set()
    for _ in range(1500):
        f = poly(rng.choice([-3, -1, 1, 2]))
        for _ in range(rng.randint(0, 5)):
            factor = rng.choice([
                poly(rng.randint(-4, 4), rng.choice([-2, -1, 1, 3])),
                poly(rng.randint(-4, 4), rng.randint(-4, 4), rng.choice([-2, -1, 1, 2])),
            ])
            f = f * factor ** rng.randint(1, 3)
        assert helpers.sturm_routes_agree(f), f.coeffs
        verdicts.add((real_rooted(f), f.coeffs[-1] < 0))
    assert len(verdicts) == 4


def test_poly_divmod_exact_integer_long_division():
    assert _poly_divmod_exact([1, 0, -1], [1, 1]) == [1, -1]
    assert _poly_divmod_exact([2, 5, 3], [-1, -1]) == [-2, -3]
    with pytest.raises(ArithmeticError, match="non-integer quotient"):
        _poly_divmod_exact([1, 0, 1], [1, 2])  # x^2+1 by 2x+1
    with pytest.raises(ArithmeticError, match="inexact"):
        _poly_divmod_exact([1, 0, 1], [1, 1])  # x^2+1 by x+1 leaves 2


def _float_real_rooted(f: IntPoly, tol: float = 1e-6) -> bool:
    roots = np.roots(list(reversed(f.coeffs)))
    return all(abs(r.imag) <= tol * (1.0 + abs(r)) for r in roots)


def test_real_rooted_agrees_with_float_companion():
    # distinct linear factors: repeated roots are exactly where float
    # eigenvalue methods lose the real/non-real decision
    rng = random.Random(7777)
    for _ in range(500):
        f = ONE
        for a in rng.sample(range(1, 13), rng.randint(1, 6)):
            f = f * poly(1, a)
        assert real_rooted(f)
        assert helpers.sturm_routes_agree(f), f.coeffs
        assert _float_real_rooted(f), f.coeffs
    # non-real-rooted: multiply in an irreducible quadratic
    for _ in range(500):
        f = poly(1, rng.randint(1, 3), rng.randint(2, 6))
        while real_rooted(f):
            f = poly(1, rng.randint(1, 3), rng.randint(2, 6))
        for _ in range(rng.randint(0, 5)):
            f = f * poly(rng.randint(1, 9), rng.randint(1, 9))
        assert not real_rooted(f)
        assert not _float_real_rooted(f), f.coeffs


# ---------------------------------------------------------------------------
# property reports
# ---------------------------------------------------------------------------


def test_property_report_fields():
    r = property_report(poly(1, 49, 48, 64))
    assert not r.unimodal and not r.log_concave and not r.real_rooted
    assert r.first_violation["unimodal"] == 2
    assert r.first_violation["log_concave"] == 2
    assert r.mode_index == 3

    r = property_report(poly(1, 3, 1))
    assert r.unimodal and r.log_concave and r.symmetric and r.real_rooted
    assert r.newton_ok and r.mode_index == 1
    assert r.first_violation == {}


def test_property_report_is_a_frozen_picklable_value():
    # scan workers return reports to the parent process by pickle
    r = property_report(poly(1, 49, 48, 64))
    with pytest.raises(AttributeError):
        r.unimodal = True
    again = pickle.loads(pickle.dumps(r))
    assert again == r and again.to_json_dict() == r.to_json_dict()


def test_property_report_rejects_zero():
    with pytest.raises(ValueError):
        property_report(IntPoly())


def test_property_report_implication_chain_on_random_real_rooted():
    # positive real-rooted products must cascade through every predicate
    rng = random.Random(31337)
    for _ in range(300):
        f = ONE
        for _ in range(rng.randint(1, 7)):
            f = f * poly(rng.randint(1, 9), rng.randint(1, 9))
        r = property_report(f)
        assert r.real_rooted and r.newton_ok and r.log_concave and r.unimodal


# ---------------------------------------------------------------------------
# every short sequence against the definitions
# ---------------------------------------------------------------------------


def _unimodal_by_definition(cs):
    # some m has a nondecreasing prefix up to m and a nonincreasing suffix from m
    n = len(cs)
    return any(all(cs[i] <= cs[i + 1] for i in range(m))
               and all(cs[i] >= cs[i + 1] for i in range(m, n - 1))
               for m in range(n))


def _first_dip_bottom(cs):
    # the first index that comes after a strict fall and sits strictly below
    # the next entry
    fell = False
    for k in range(len(cs) - 1):
        if fell and cs[k] < cs[k + 1]:
            return k
        fell = fell or cs[k] > cs[k + 1]
    return None


def _first_interior_failure(cs, holds):
    # the first interior k where holds(a_k^2, a_{k-1} a_{k+1}) is false
    return next((k for k in range(1, len(cs) - 1)
                 if not holds(cs[k] * cs[k], cs[k - 1] * cs[k + 1])), None)


def _newton_by_definition(cs):
    # b_k = a_k / C(n, k) has b_k^2 >= b_{k-1} b_{k+1} for every 0 < k < n
    n = len(cs) - 1
    b = [Fraction(a, math.comb(n, k)) for k, a in enumerate(cs)]
    return all(b[k] * b[k] >= b[k - 1] * b[k + 1] for k in range(1, n))


def test_sequence_predicates_match_their_definitions():
    # every sequence of length 1..7 with entries 0..4 (97,655 of them);
    # IntPoly trims trailing zeros, so the 78,124 with a nonzero top are every
    # distinct input.  Plateaus, square equalities and inner zeros all occur
    # here, where the independence polynomials of the corpora rarely have them.
    report = property_report(poly(1, 0, 0, 1))
    assert report.log_concave and not report.unimodal
    checked = 0
    for n in range(1, 8):
        for cs in product(range(5), repeat=n):
            if not cs[-1]:
                continue
            f = IntPoly(cs)
            assert f.coeffs == cs
            uni = _unimodal_by_definition(cs)
            dip = None if uni else _first_dip_bottom(cs)
            weak = _first_interior_failure(cs, operator.ge)
            strict = _first_interior_failure(cs, operator.gt)
            newton = _newton_by_definition(cs)
            assert is_unimodal(f) == (uni, dip), cs
            assert is_log_concave(f) == (weak is None, weak), cs
            assert newton_check(f) == newton, cs
            # no implication between the verdicts is assumed: with zeros,
            # 1 + x^3 is log-concave and Newton but has a dip
            report = property_report(f)
            assert (report.strictly_log_concave,
                    report.first_violation.get("strictly_log_concave")) == (strict is None, strict), cs
            witnesses = {"unimodal": dip, "log_concave": weak, "strictly_log_concave": strict}
            assert report.first_violation == {k: v for k, v in witnesses.items() if v is not None}
            assert (report.unimodal, report.log_concave, report.strictly_log_concave,
                    report.newton_ok) == (uni, weak is None, strict is None, newton), cs
            assert report.symmetric == (cs == cs[::-1])
            assert report.mode_index == cs.index(max(cs))
            checked += 1
    assert checked == 78_124
