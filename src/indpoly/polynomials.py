"""Exact dense polynomial arithmetic over arbitrary-precision integers.

Everything here is exact: coefficients are Python ints, rationals are
``fractions.Fraction``, and every predicate (unimodality, log-concavity,
symmetry, Newton's inequalities, real-rootedness) is decided by integer
comparisons only.  Floating point appears solely in ``eval_float``, which
exists for numeric cross-checks and never feeds an accept/reject decision.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple


class IntPoly:
    """Dense univariate polynomial with integer coefficients.

    Coefficient ``k`` of ``coeffs`` multiplies ``x**k``; trailing zeros are
    trimmed, and the zero polynomial is the empty tuple.  Instances are
    immutable and hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    def __reduce__(self):
        # rebuild through __init__; the default slot restore would go
        # through the refusing __setattr__
        return (IntPoly, (self.coeffs,))

    # -- basic queries ------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> int:
        """Coefficient of x**k (0 beyond the degree)."""
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    # -- ring arithmetic ----------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, IntPoly):
            return other
        if isinstance(other, int):
            return IntPoly((other,))
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        cs = list(a)
        for i, v in enumerate(b):
            cs[i] += v
        return IntPoly(cs)

    __radd__ = __add__

    def __neg__(self):
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = IntPoly((1,))
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def shift(self, k: int) -> "IntPoly":
        """Multiply by x**k."""
        if self.is_zero():
            return self
        return IntPoly((0,) * k + self.coeffs)

    def compose(self, g: "IntPoly") -> "IntPoly":
        """f(g(x)) by Horner's scheme over polynomials, exact."""
        result = IntPoly()
        for c in reversed(self.coeffs):
            result = result * g + c
        return result

    def reversed_coeffs(self) -> "IntPoly":
        """x**deg * f(1/x): the coefficient list reversed."""
        return IntPoly(tuple(reversed(self.coeffs)))

    # -- evaluation ---------------------------------------------------------

    def eval_rational(self, q):
        """Exact value at a rational point, as a ``fractions.Fraction``."""
        from fractions import Fraction  # this module's only use of it

        q = Fraction(q)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * q + c
        return acc

    def eval_float(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- plumbing -----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, IntPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)!r})"


ZERO = IntPoly()
ONE = IntPoly((1,))
X = IntPoly((0, 1))
ONE_PLUS_X = IntPoly((1, 1))


def coeffs_as_strings(f: IntPoly) -> list[str]:
    """Decimal-string coefficient list, the JSON wire form for big integers."""
    return [str(c) for c in f.coeffs]


def poly_from_strings(strings) -> IntPoly:
    return IntPoly(int(s) for s in strings)


def shift_basis(d) -> IntPoly:
    """Expand sum(d[i] * (1+x)**i) exactly.

    The input is a plain coefficient list in the (1+x)-power basis.
    """
    ds = list(d)
    if any(c < 0 for c in ds):
        raise ValueError("shift_basis expects nonnegative coefficients")
    result = IntPoly()
    for c in reversed(ds):
        result = result * ONE_PLUS_X + c
    return result


# ---------------------------------------------------------------------------
# Sequence predicates
# ---------------------------------------------------------------------------


def is_unimodal(f: IntPoly) -> tuple[bool, int | None]:
    """Whether the coefficients rise (weakly) then fall (weakly).

    A zero coefficient between positive ones is a dip and fails the test.
    Returns ``(True, None)`` or ``(False, k)`` where ``k`` is the index of the
    first coefficient that sits in a dip (strictly below its predecessor with
    a larger coefficient somewhere later).
    """
    cs = f.coeffs
    if any(c < 0 for c in cs):
        raise ValueError("unimodality is defined for nonnegative coefficients")
    n = len(cs)
    i = 0
    while i + 1 < n and cs[i] <= cs[i + 1]:
        i += 1
    j = i
    while j + 1 < n and cs[j] >= cs[j + 1]:
        j += 1
    if j + 1 == n or n == 0:
        return True, None
    return False, j


def is_log_concave(f: IntPoly, strict: bool = False) -> tuple[bool, int | None]:
    """Check a_k^2 >= a_{k-1} a_{k+1} for interior k (strict: >).

    Boundary indices are vacuous.  Returns the first failing k on failure.
    """
    cs = f.coeffs
    for k in range(1, len(cs) - 1):
        lhs = cs[k] * cs[k]
        rhs = cs[k - 1] * cs[k + 1]
        if lhs < rhs or (strict and lhs == rhs):
            return False, k
    return True, None


def is_symmetric(f: IntPoly) -> bool:
    """Palindrome test: a_k == a_{n-k}."""
    cs = f.coeffs
    return cs == tuple(reversed(cs))


def newton_check(f: IntPoly) -> bool:
    """Newton's inequalities, cleared of fractions.

    For degree n >= 2 checks k(n-k) a_k^2 >= (k+1)(n-k+1) a_{k-1} a_{k+1}
    at every interior index; lower degrees are vacuously true.
    """
    cs = f.coeffs
    if any(c < 0 for c in cs):
        raise ValueError("newton_check expects nonnegative coefficients")
    n = len(cs) - 1
    if n < 2:
        return True
    for k in range(1, n):
        if k * (n - k) * cs[k] * cs[k] < (k + 1) * (n - k + 1) * cs[k - 1] * cs[k + 1]:
            return False
    return True


# ---------------------------------------------------------------------------
# Real-rootedness via Sturm sequences
# ---------------------------------------------------------------------------
#
# All chain computations run on plain int lists with fraction-free
# pseudo-remainders; content is stripped after every step to control
# coefficient growth, which scales each member by a positive constant and
# leaves its signs alone.
#
# ``real_rooted`` builds one chain, on f itself: f, f', then the negated
# remainders.  When f has repeated zeros this is a generalised Sturm
# sequence.  It ends at gcd(f, f') up to a constant, and dividing every
# member by that last one multiplies all signs at a point by the same sign,
# so V(-inf) - V(+inf) still counts the distinct real zeros of f.  The degree
# of the last member is deg gcd(f, f'), so f is real-rooted exactly when the
# count equals deg f minus that degree.
#
# ``count_distinct_real_roots`` takes the other route: the square-free part
# s = f / gcd(f, f'), then a Sturm count on s.  The gcd and f are both
# primitive, so by Gauss's lemma s lies in Z[x] and the division runs over
# the integers; an inexact step raises instead of rounding.


def _primitive(cs: list[int]) -> list[int]:
    g = gcd(*cs)
    return cs if g <= 1 else [c // g for c in cs]


def _trim(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _derivative(cs: list[int]) -> list[int]:
    return _trim([k * cs[k] for k in range(1, len(cs))])


def _pseudo_rem(f: list[int], g: list[int]) -> list[int]:
    """Remainder r with lc(g)^(deg f - deg g + 1) * f = q*g + r.

    The result is sign-corrected so that it is a positive multiple of the
    true euclidean remainder.  Requires deg f >= deg g >= 0.
    """
    df, dg = len(f) - 1, len(g) - 1
    lg = g[-1]
    steps = df - dg + 1
    r = list(f)
    for k in range(df - dg, -1, -1):
        # r := lg*r - r[dg+k] * x^k * g, which cancels the top entry
        c = r.pop()
        r = [lg * a for a in r[:k]] + [lg * a - c * b for a, b in zip(r[k:], g)]
    _trim(r)
    if lg < 0 and steps % 2 == 1:
        r = [-c for c in r]
    return r


def _poly_divmod_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact quotient num/den in Z[x] by integer long division.

    Raises ``ArithmeticError`` when a leading coefficient does not divide
    exactly or the remainder is nonzero.
    """
    rem = list(num)
    dd = len(den) - 1
    lead = den[-1]
    q = [0] * max(len(num) - dd, 1)
    for k in range(len(num) - 1 - dd, -1, -1):
        c, r = divmod(rem[k + dd], lead)
        if r:
            raise ArithmeticError("non-integer quotient in exact division")
        if c:
            q[k] = c
            for i in range(dd + 1):
                rem[i + k] -= c * den[i]
    if any(rem):
        raise ArithmeticError("inexact polynomial division")
    return _trim(q)


def _int_gcd_poly(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd in Z[x] via a primitive pseudo-remainder sequence."""
    f = _primitive(list(a))
    g = _primitive(list(b))
    if len(f) < len(g):
        f, g = g, f
    while g:
        r = _pseudo_rem(f, g)
        f, g = g, _primitive(r) if r else []
    if f and f[-1] < 0:
        f = [-c for c in f]
    return f


def square_free_part(f: IntPoly) -> IntPoly:
    """f / gcd(f, f'), primitive, with positive leading coefficient."""
    if f.is_zero():
        raise ValueError("square-free part of the zero polynomial")
    cs = _primitive(list(f.coeffs))
    if len(cs) == 1:
        return ONE
    s = _poly_divmod_exact(cs, _int_gcd_poly(cs, _derivative(cs)))
    if s[-1] < 0:
        s = [-c for c in s]
    return IntPoly(s)


def _sturm_chain(cs: list[int]) -> list[list[int]]:
    """f, f', then negated primitive pseudo-remainders; the last member is
    gcd(f, f') up to a constant."""
    chain = [cs]
    d = _derivative(cs)
    if d:
        chain.append(_primitive(d))
    while len(chain[-1]) > 1:
        r = _pseudo_rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in _primitive(r)])
    return chain


def _sign_variations(signs: list[int]) -> int:
    prev = 0
    count = 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            count += 1
        prev = s
    return count


def _sturm_count(cs: list[int]) -> tuple[int, int]:
    """Distinct real zeros of a nonzero polynomial, by its Sturm chain on
    (-inf, +inf), and the degree of the chain's last member."""
    chain = _sturm_chain(cs)
    at_plus = []
    at_minus = []
    for p in chain:
        lc = p[-1]
        sign = (lc > 0) - (lc < 0)
        at_plus.append(sign)
        at_minus.append(sign if (len(p) - 1) % 2 == 0 else -sign)
    return _sign_variations(at_minus) - _sign_variations(at_plus), len(chain[-1]) - 1


def count_distinct_real_roots(f: IntPoly) -> int:
    """Number of distinct real zeros: a Sturm count on the square-free part."""
    return _sturm_count(list(square_free_part(f).coeffs))[0]


def real_rooted(f: IntPoly) -> bool:
    """True iff every complex zero of f is real.

    One Sturm chain on primitive f counts its distinct real zeros; its last
    member has the degree of gcd(f, f'), so f is real-rooted exactly when the
    count equals deg f minus that degree.
    """
    if f.is_zero():
        raise ValueError("real_rooted is undefined for the zero polynomial")
    cs = _primitive(list(f.coeffs))
    count, gcd_degree = _sturm_count(cs)
    return count == len(cs) - 1 - gcd_degree


# ---------------------------------------------------------------------------
# Property reports
# ---------------------------------------------------------------------------


class PropertyReport(NamedTuple):
    """Evaluated coefficient-sequence predicates plus failure witnesses.

    ``mode_index`` is the smallest index attaining the maximum coefficient;
    ``first_violation`` maps each failed indexed predicate to its witness.
    """

    unimodal: bool
    log_concave: bool
    strictly_log_concave: bool
    symmetric: bool
    real_rooted: bool
    newton_ok: bool
    mode_index: int
    first_violation: dict[str, int]

    def to_json_dict(self) -> dict:
        return {
            "unimodal": self.unimodal,
            "log_concave": self.log_concave,
            "strictly_log_concave": self.strictly_log_concave,
            "symmetric": self.symmetric,
            "real_rooted": self.real_rooted,
            "newton_ok": self.newton_ok,
            "mode_index": self.mode_index,
            "first_violation": dict(self.first_violation),
        }


def property_report(f: IntPoly) -> PropertyReport:
    """Run every predicate on f and cross-check the implication chain.

    For positive coefficient sequences, real-rootedness forces Newton's
    inequalities, which force log-concavity, which forces unimodality; the
    report refuses to come into existence if the computed booleans ever
    contradict that chain.
    """
    if f.is_zero():
        raise ValueError("no property report for the zero polynomial")
    uni, uni_at = is_unimodal(f)
    lc, lc_at = is_log_concave(f)
    slc, slc_at = is_log_concave(f, strict=True)
    sym = is_symmetric(f)
    rr = real_rooted(f)
    newt = newton_check(f)
    violations: dict[str, int] = {}
    if not uni:
        violations["unimodal"] = uni_at
    if not lc:
        violations["log_concave"] = lc_at
    if not slc:
        violations["strictly_log_concave"] = slc_at
    mode = max(range(len(f.coeffs)), key=lambda k: (f.coeffs[k], -k))
    report = PropertyReport(
        unimodal=uni,
        log_concave=lc,
        strictly_log_concave=slc,
        symmetric=sym,
        real_rooted=rr,
        newton_ok=newt,
        mode_index=mode,
        first_violation=violations,
    )
    if slc and not lc:
        raise AssertionError("strict log-concavity without log-concavity")
    if all(c > 0 for c in f.coeffs):
        if rr and not newt:
            raise AssertionError("real-rooted but Newton check failed")
        if newt and not lc:
            raise AssertionError("Newton holds but log-concavity failed")
        if lc and not uni:
            raise AssertionError("log-concave but not unimodal")
    return report
