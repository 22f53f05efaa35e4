"""Exact dense polynomial arithmetic over arbitrary-precision integers.

Everything here is exact: coefficients are Python ints, and every predicate
(unimodality, log-concavity, symmetry, Newton's inequalities,
real-rootedness) is decided by integer comparisons only.  No floating point
or fraction type appears here.
"""

from __future__ import annotations

from itertools import chain, pairwise
from math import gcd
from typing import Iterable, Iterator, NamedTuple


def _trim(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


class IntPoly:
    """Dense univariate polynomial with integer coefficients.

    Coefficient ``k`` of ``coeffs`` multiplies ``x**k``; trailing zeros are
    trimmed, and the zero polynomial is the empty tuple.  Instances are
    immutable and hashable.  Every coefficient must be an ``int``: any other
    type, a float or a bool included, raises ``TypeError``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        for c in cs:
            if type(c) is not int:
                raise TypeError(f"coefficients must be ints, got {type(c).__name__}")
        object.__setattr__(self, "coeffs", tuple(_trim(cs)))

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
        """Multiply by x**k, for k >= 0."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        return IntPoly((0,) * k + self.coeffs)

    def compose(self, g: "IntPoly") -> "IntPoly":
        """f(g(x)) by Horner's scheme over polynomials, exact."""
        result = IntPoly()
        for c in reversed(self.coeffs):
            result = result * g + c
        return result

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


ONE = IntPoly((1,))
X = IntPoly((0, 1))
ONE_PLUS_X = IntPoly((1, 1))


def coeffs_as_strings(f: IntPoly) -> list[str]:
    """Decimal-string coefficient list, the JSON wire form for big integers."""
    return [str(c) for c in f.coeffs]


def shift_basis(d) -> IntPoly:
    """Expand sum(d[i] * (1+x)**i) exactly.

    The input is a plain coefficient list in the (1+x)-power basis.
    """
    ds = list(d)
    if any(c < 0 for c in ds):
        raise ValueError("shift_basis expects nonnegative coefficients")
    return IntPoly(ds).compose(ONE_PLUS_X)


# ---------------------------------------------------------------------------
# Sequence predicates
# ---------------------------------------------------------------------------


def is_unimodal(f: IntPoly) -> tuple[bool, int | None]:
    """Whether the coefficients rise (weakly) then fall (weakly).

    A zero coefficient between positive ones is a dip and fails the test.
    Returns ``(True, None)`` or ``(False, k)`` where ``k`` is the bottom of
    the first dip: the first index that comes after a strict fall and sits
    strictly below the next coefficient.
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


def _log_concave_failures(cs) -> tuple[int | None, int | None]:
    """(weak, strict): first interior k with a_k^2 < a_{k-1} a_{k+1}, and with <=."""
    strict_at = None
    for k in range(1, len(cs) - 1):
        lhs, rhs = cs[k] * cs[k], cs[k - 1] * cs[k + 1]
        if lhs <= rhs and strict_at is None:
            strict_at = k
        if lhs < rhs:
            return k, strict_at
    return None, strict_at


def is_log_concave(f: IntPoly) -> tuple[bool, int | None]:
    """Check a_k^2 >= a_{k-1} a_{k+1} for interior k.

    Boundary indices are vacuous.  Returns the first failing k on failure.
    Strict log-concavity, with its first failing k, is in ``property_report``.
    """
    at = _log_concave_failures(f.coeffs)[0]
    return at is None, at


def is_symmetric(f: IntPoly) -> bool:
    """Palindrome test: a_k == a_{n-k}."""
    cs = f.coeffs
    return cs == tuple(reversed(cs))


def newton_check(f: IntPoly) -> bool:
    """Newton's inequalities, cleared of denominators.

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
# ``real_rooted`` walks one chain, on f itself: f, f', then the negated
# remainders, and stops at the first member that rules f out.  When f has
# repeated zeros this is a generalised Sturm sequence.  It ends at
# gcd(f, f') up to a constant, and dividing every member by that last one
# multiplies all signs at a point by the same sign, so V(-inf) - V(+inf)
# still counts the distinct real zeros of f, and f is real-rooted exactly
# when the count equals deg f minus deg gcd(f, f').  Take f primitive with
# a positive leading coefficient.  Each adjacent pair of members adds +1 to
# the count when their leading coefficients agree in sign and the degree
# drops by an odd amount, 0 for an even drop, and -1 otherwise; there is one
# pair per member after f, and the drops sum to deg f - deg gcd(f, f').  So
# the count reaches that sum exactly when every member is one degree below
# the one before and has a positive leading coefficient, and the walk
# returns False at the first member that breaks either.  Most independence
# polynomials of trees fail within the first few members.
#
# ``count_distinct_real_roots`` takes the other route: the square-free part
# s = f / gcd(f, f'), then a full Sturm count on s.  The gcd is the last
# member of f's own chain, ``_sturm_chain`` run to its end; every member
# after f is primitive, so that member is the primitive gcd up to sign.
# With f primitive too, by Gauss's lemma s lies in Z[x] and the division
# runs over the integers; an inexact step raises instead of rounding.


def _primitive(cs: list[int]) -> list[int]:
    g = gcd(*cs)
    return cs if g <= 1 else [c // g for c in cs]


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


def square_free_part(f: IntPoly) -> IntPoly:
    """f / gcd(f, f'), primitive, with positive leading coefficient."""
    if f.is_zero():
        raise ValueError("square-free part of the zero polynomial")
    cs = _primitive(list(f.coeffs))
    *_, g = _sturm_chain(cs)
    s = _poly_divmod_exact(cs, g)
    if s[-1] < 0:
        s = [-c for c in s]
    return IntPoly(s)


def _sturm_chain(cs: list[int]) -> Iterator[list[int]]:
    """f, f', then negated primitive pseudo-remainders, one member at a
    time; the last member is gcd(f, f') up to a constant."""
    prev = cs
    yield prev
    d = _derivative(cs)
    if not d:
        return
    cur = _primitive(d)
    yield cur
    while len(cur) > 1:
        r = _pseudo_rem(prev, cur)
        if not r:
            return
        prev, cur = cur, [-c for c in _primitive(r)]
        yield cur


def _sturm_count(chain: Iterable[list[int]]) -> int:
    """V(-inf) - V(+inf) of a Sturm chain: the distinct real zeros of its
    first member.  No member has a zero leading coefficient, so every sign
    at +-inf is nonzero and each variation lies between adjacent members."""
    signs = []  # (positive at +inf, positive at -inf) per member
    for p in chain:
        plus = p[-1] > 0
        signs.append((plus, plus == (len(p) % 2 == 1)))
    return sum((a[1] != b[1]) - (a[0] != b[0]) for a, b in pairwise(signs))


def count_distinct_real_roots(f: IntPoly) -> int:
    """Number of distinct real zeros: a Sturm count on the square-free part."""
    return _sturm_count(_sturm_chain(list(square_free_part(f).coeffs)))


def real_rooted(f: IntPoly) -> bool:
    """True iff every complex zero of f is real.

    Walks the Sturm chain of primitive f, sign-normalised, and returns False
    at the first member that is not one degree below the one before or whose
    leading coefficient is not positive; a chain that ends without one is
    real-rooted (see the comment above).  The walk goes on only past
    members one degree apart, so each pseudo-remainder it takes has exactly
    two steps, fused below into one pass that yields the next member
    directly; the members are the integers ``_sturm_chain`` yields.
    """
    if f.is_zero():
        raise ValueError("real_rooted is undefined for the zero polynomial")
    prev = _primitive(list(f.coeffs))
    if prev[-1] < 0:
        prev = [-c for c in prev]
    # f' is one degree lower with a positive lead; empty if f is constant
    cur = _primitive(_derivative(prev))
    while len(cur) > 1:
        # with g = cur of degree m, f = prev of degree m + 1 and lg = lc(g):
        # c1 = f_{m+1}, c0 = lg f_m - c1 g_{m-1}, and the next member, the
        # negated remainder, is c0 g_i - lg (lg f_i - c1 g_{i-1}), g_{-1} = 0
        lg = cur[-1]
        c1 = prev[-1]
        c0 = lg * prev[-2] - c1 * cur[-2]
        member = [c0 * c - lg * (lg * a - c1 * b) for a, b, c in zip(prev, chain((0,), cur), cur)]
        member.pop()  # i = m gives c0 lg - lg c0 = 0
        # zero: the chain ends at g = gcd(f, f'); else a drop > 1 or a lead < 0
        if member[-1] <= 0:
            return not any(member)
        prev, cur = cur, _primitive(member)
    return True


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
        return {**self._asdict(), "first_violation": dict(self.first_violation)}


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
    lc_at, slc_at = _log_concave_failures(f.coeffs)
    lc, slc = lc_at is None, slc_at is None
    sym = is_symmetric(f)
    rr = real_rooted(f)
    newt = newton_check(f)
    witnesses = {"unimodal": uni_at, "log_concave": lc_at, "strictly_log_concave": slc_at}
    violations = {name: at for name, at in witnesses.items() if at is not None}
    mode = f.coeffs.index(max(f.coeffs))
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
