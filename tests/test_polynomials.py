import pickle
import random
from fractions import Fraction

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
    coeffs_as_strings,
    count_distinct_real_roots,
    is_log_concave,
    is_symmetric,
    is_unimodal,
    _poly_divmod_exact,
    newton_check,
    poly_from_strings,
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


def test_compose_examples():
    assert poly(1, 2).compose(poly(0, 2)) == poly(1, 4)
    f = poly(3, -1, 2, 5)
    assert f.compose(X) == f
    assert (ONE_PLUS_X ** 2).compose(poly(0, 2)) == poly(1, 4, 4)


def test_shift():
    assert poly(1, 2).shift(2) == poly(0, 0, 1, 2)
    assert IntPoly().shift(3).is_zero()


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


def test_string_serialization_roundtrip():
    f = poly(1, 10 ** 40, -3)
    assert poly_from_strings(coeffs_as_strings(f)) == f


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
    assert is_log_concave(poly(1, 3, 1), strict=True) == (True, None)
    ok, at = is_log_concave(poly(1, 2, 4), strict=True)
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
# evaluation
# ---------------------------------------------------------------------------


def test_eval_rational():
    assert poly(1, 3, 1).eval_rational(-1) == -1
    assert poly(1, 49, 48, 64).eval_rational(0) == 1
    assert ONE_PLUS_X.eval_rational(Fraction(1, 2)) == Fraction(3, 2)


def test_eval_float():
    assert poly(1, 3, 1).eval_float(-1.0) == -1.0
    assert abs(poly(2, 0, 1).eval_float(0.5) - 2.25) < 1e-12


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
