"""Mechanized checkers for composition conditions, rooted-tree products, the
pendant-ladder family, and the exhaustive small-tree scan.

The scan enumerates free trees with the level-sequence generator of Wright,
Richmond, Odlyzko and McKay (Beyer-Hedetniemi successor steps over rooted
trees rooted at a centre), standard library only; distinct canonical codes
check that no class comes out twice.

Condition checkers take raw coefficient data so hypotheses can be fuzzed
independently of graph realizability; graph-level wrappers feed them real
instances.  A checker returning ``holds=False`` makes no claim: the conditions
are sufficient, not necessary.
"""

from __future__ import annotations

import base64
import json
import math
import random
from fractions import Fraction
from itertools import combinations, islice
from typing import Iterator, NamedTuple, Sequence

from .engine import independence_polynomial, tree_polynomial
from .graphs import (
    CapacityError,
    FamilySpec,
    Graph,
    GraphError,
    _tree_code,
    alpha,
    build_family,
    delete_closed_neighborhood,
    delete_vertex,
    is_well_covered,
)
from .polynomials import (
    ONE_PLUS_X,
    X,
    IntPoly,
    PropertyReport,
    coeffs_as_strings,
    is_log_concave,
    is_symmetric,
    is_unimodal,
    property_report,
    real_rooted,
)
from .products import lex_poly, rooted_product


class HypothesisViolation(GraphError):
    """An instance fed to a checker does not satisfy the checker's hypothesis."""


class SamplingError(CapacityError, RuntimeError):
    """Hypothesis sampling used up its attempt budget before enough instances
    were accepted.  The CLI reports it as a capacity error (exit 3); it is
    also a RuntimeError for callers that catch that."""


class ConditionVerdict(NamedTuple):
    """Outcome of a sufficient-condition check on one instance.

    ``conclusion_checked`` records whether the conclusion was independently
    verified on the instance (None when nobody looked).
    """

    condition_name: str
    holds: bool
    first_failing_index: int | None = None
    conclusion_checked: bool | None = None


class ScanResult(NamedTuple):
    """One deduplicated tree from a corpus scan."""

    canonical_code: bytes
    n: int
    polynomial: IntPoly
    report: PropertyReport


# ---------------------------------------------------------------------------
# Composition (lexicographic substitution) conditions
# ---------------------------------------------------------------------------


def _check_positive(a: Sequence[int]) -> None:
    if any(v <= 0 for v in a):
        raise ValueError("coefficient list must be positive")


def composition_log_concavity_condition(
    a: Sequence[int], b1: int, b2: int
) -> ConditionVerdict:
    """(a_i^2 - a_{i-1} a_{i+1}) b1^2 >= a_i a_{i-1} b2 for 1 <= i <= n.

    Together with log-concavity of both operands this forces the composed
    polynomial to be log-concave; a_{n+1} is treated as 0.
    """
    a = list(a)
    _check_positive(a)
    if b1 <= 0 or b2 < 0:
        raise ValueError("b1 must be positive and b2 nonnegative")
    n = len(a) - 1
    for i in range(1, n + 1):
        nxt = a[i + 1] if i + 1 <= n else 0
        if (a[i] * a[i] - a[i - 1] * nxt) * b1 * b1 < a[i] * a[i - 1] * b2:
            return ConditionVerdict("composition-log-concavity", False, i)
    return ConditionVerdict("composition-log-concavity", True)


def composition_unimodality_condition(a: Sequence[int], b1: int) -> ConditionVerdict:
    """a_{i-1} <= b1 * a_i for 1 <= i <= n, forcing a unimodal composition."""
    a = list(a)
    _check_positive(a)
    if b1 <= 0:
        raise ValueError("b1 must be positive")
    for i in range(1, len(a)):
        if a[i - 1] > b1 * a[i]:
            return ConditionVerdict("composition-unimodality", False, i)
    return ConditionVerdict("composition-unimodality", True)


def increasing_coefficients_case(a: Sequence[int], b1: int) -> bool:
    """The derived special case: a nondecreasing and b1 >= 1 already satisfy
    the unimodality condition."""
    a = list(a)
    return b1 >= 1 and all(a[i - 1] <= a[i] for i in range(1, len(a)))


def well_covered_composition_condition(g1: Graph, g2: Graph) -> ConditionVerdict:
    """Both graphs well-covered, I(g2) log-concave, |V(g2)| >= alpha(g1).

    The verified conclusion is unimodality of the composed polynomial.
    """
    i1 = independence_polynomial(g1)
    i2 = independence_polynomial(g2)
    holds = (
        is_well_covered(g1)
        and is_well_covered(g2)
        and is_log_concave(i2)[0]
        and g2.n >= alpha(g1)
    )
    conclusion = is_unimodal(lex_poly(i1, i2))[0]
    return ConditionVerdict(
        "well-covered-composition", holds, conclusion_checked=conclusion
    )


def well_covered_coefficient_bound(g: Graph) -> bool:
    """i_{k-1}(G) <= k * i_k(G) for every 1 <= k <= alpha(G).

    Only meaningful for well-covered graphs; raises if the precondition fails.
    """
    if not is_well_covered(g):
        raise HypothesisViolation("coefficient bound requires a well-covered graph")
    coeffs = independence_polynomial(g).coeffs
    return all(coeffs[k - 1] <= k * coeffs[k] for k in range(1, len(coeffs)))


def binomial_basis_unimodality_condition(d: Sequence[int], strict: bool = False) -> bool:
    """Whether the nonzero entries of d are increasing (weakly by default).

    This is the hypothesis under which sum d_i (1+x)^i is unimodal; the
    strict flag reports the strictly-increasing variant separately.
    """
    d = list(d)
    if any(v < 0 for v in d):
        raise ValueError("d must be nonnegative")
    nz = [v for v in d if v != 0]
    if strict:
        return all(nz[i - 1] < nz[i] for i in range(1, len(nz)))
    return all(nz[i - 1] <= nz[i] for i in range(1, len(nz)))


# ---------------------------------------------------------------------------
# Rooted products with the two reference trees
# ---------------------------------------------------------------------------

_TREE_FAMILY = {"T": "tree_t", "T1": "tree_t1"}
# roots whose rooted product must stay real-rooted; the rest are log-concave
_REAL_ROOTED_ROOTS = {("T", 1), ("T", 2), ("T", 3)}


def tree_factor_identities() -> dict[str, bool]:
    """Exact identities for the 5-vertex tree pinned down by its factors.

    These gate every rooted-tree-product test: if the adjacency reading were
    wrong, the four polynomial equalities below would fail.
    """
    t = build_family(FamilySpec("tree_t"))
    lhs = {
        "t_minus_root1": independence_polynomial(delete_vertex(t, 0)),
        "t_minus_nbhd1": independence_polynomial(delete_closed_neighborhood(t, 0)),
        "t_minus_root4": independence_polynomial(delete_vertex(t, 3)),
        "t_minus_nbhd4": independence_polynomial(delete_closed_neighborhood(t, 3)),
    }
    rhs = {
        "t_minus_root1": ONE_PLUS_X * IntPoly((1, 3)),
        "t_minus_nbhd1": ONE_PLUS_X * IntPoly((1, 2)),
        "t_minus_root4": ONE_PLUS_X ** 3 + X,
        "t_minus_nbhd4": ONE_PLUS_X ** 2 + X,
    }
    return {key: lhs[key] == rhs[key] for key in lhs}


def rooted_tree_product_check(g: Graph, tree: str, root: int) -> ConditionVerdict:
    """Check the promised conclusion for g composed with tree T or T1.

    Roots are the 1..4 labels on the drawing; for T the first three roots
    promise real-rootedness, everything else promises log-concavity.  Raises
    when I(g) is not real-rooted, which is the hypothesis.
    """
    tree = tree.upper().replace("₁", "1")
    if tree not in _TREE_FAMILY:
        raise ValueError("tree must be 'T' or 'T1'")
    if not (1 <= root <= 4):
        raise ValueError("root label must be in 1..4")
    if not real_rooted(independence_polynomial(g)):
        raise HypothesisViolation("hypothesis failure: I(g) is not real-rooted")
    h = build_family(FamilySpec(_TREE_FAMILY[tree]))
    poly = independence_polynomial(rooted_product(g, h, root - 1))
    if (tree, root) in _REAL_ROOTED_ROOTS:
        kind = "real-rooted"
        conclusion = real_rooted(poly)
    else:
        kind = "log-concave"
        conclusion = is_log_concave(poly)[0]
    return ConditionVerdict(
        f"rooted-tree-product:{tree}:root{root}:{kind}",
        True,
        conclusion_checked=conclusion,
    )


def rooted_product_factor_inequalities(r) -> tuple[bool, bool]:
    """The two factor facts behind the rooted-tree-product proof, at one r > 0.

    First: the quadratic 1 + (3+2r)x + 2rx^2 has positive discriminant.
    Second: the cubic (r+1)x^3 + 3(1+r)x^2 + (3+r)x + 1 is log-concave, via
    the cleared inequalities 9(1+r)^2 > (r+1)(3+r) and (3+r)^2 > 3(1+r).
    """
    r = Fraction(r)
    if r <= 0:
        raise ValueError("r must be positive")
    disc_positive = (3 + 2 * r) ** 2 - 8 * r > 0
    cubic_log_concave = (
        9 * (1 + r) ** 2 > (r + 1) * (3 + r) and (3 + r) ** 2 > 3 * (1 + r)
    )
    return disc_positive, cubic_log_concave


# ---------------------------------------------------------------------------
# The pendant-ladder family G_n
# ---------------------------------------------------------------------------


def _pendant_ladders() -> Iterator[IntPoly]:
    """I(G_0), I(G_1), ... from the recurrence (x+1) I(G_{n-1}) + x I(G_{n-2}),
    with the bases I(G_{-1}) = 1 and I(G_0) = 1 + x."""
    prev, cur = IntPoly((1,)), ONE_PLUS_X
    while True:
        yield cur
        prev, cur = cur, ONE_PLUS_X * cur + prev.shift(1)


def pendant_ladder_recurrence(n: int) -> IntPoly:
    """I(G_n;x) from the recurrence (x+1) I(G_{n-1}) + x I(G_{n-2}).

    Bases: I(G_{-1}) = 1 and I(G_0) = 1 + x.
    """
    if n < -1:
        raise ValueError("index must be >= -1")
    return IntPoly((1,)) if n == -1 else next(islice(_pendant_ladders(), n, None))


def _trig_product_expansion(n: int) -> list[float]:
    """Float expansion of (1+x)^{delta_n} * prod[(1+x)^2 + 4x cos^2(s pi/(n+2))]."""
    coeffs = [1.0, 1.0] if n % 2 == 0 else [1.0]
    for s in range(1, math.ceil(n / 2) + 1):
        c = 4.0 * math.cos(s * math.pi / (n + 2)) ** 2
        factor = [1.0, 2.0 + c, 1.0]
        out = [0.0] * (len(coeffs) + 2)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(factor):
                out[i + j] += a * b
        coeffs = out
    return coeffs


# Past n = 808 the largest coefficient of G_n no longer fits in a float, so
# the float expansion cannot be compared with it
TRIG_CHECK_MAX = 800
# the family check's cost bound: real_rooted on G_n grows steeply with n
# (0.005 s at n = 60, 0.7 s at n = 160 on a 2-CPU x86_64 host)
FAMILY_CHECK_MAX = 100


def pendant_ladder_trig_check(n: int, tol: float) -> bool:
    """Compare the trigonometric product expansion against the recurrence,
    coefficient by coefficient, within relative tolerance tol."""
    if n < 0:
        raise ValueError("index must be >= 0")
    if n > TRIG_CHECK_MAX:
        raise ValueError(f"index must be <= {TRIG_CHECK_MAX}")
    exact = pendant_ladder_recurrence(n).coeffs
    approx = _trig_product_expansion(n)
    if len(approx) != len(exact):
        return False
    return all(abs(a - e) <= tol * max(1, abs(e)) for a, e in zip(approx, exact))


def pendant_ladder_family_check(n_max: int) -> list[dict]:
    """Symmetry, real-rootedness and degree n+1 for every 0 <= n <= n_max."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if n_max > FAMILY_CHECK_MAX:
        raise ValueError(f"n_max must be <= {FAMILY_CHECK_MAX}")
    rows = []
    # one pass of the recurrence yields G_0 .. G_{n_max}
    for n, poly in zip(range(n_max + 1), _pendant_ladders()):
        sym = is_symmetric(poly)
        rr = real_rooted(poly)
        degree_ok = poly.degree == n + 1
        rows.append({"n": n, "symmetric": sym, "real_rooted": rr, "degree": poly.degree,
                     "degree_ok": degree_ok, "ok": sym and rr and degree_ok})
    return rows


def pendant_ladder_graph_check(n_max: int) -> list[dict]:
    """I(G_n) from the recurrence against the engine on the graph G_n, for
    every 0 <= n <= n_max.  Every G_n is built, and so checked against the
    vertex cap, before any is solved."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    graphs = [build_family(FamilySpec("pendant_ladder_g", (n,))) for n in range(n_max + 1)]
    return [
        {"n": n, "match": poly == independence_polynomial(g)}
        for n, (g, poly) in enumerate(zip(graphs, _pendant_ladders()))
    ]


# ---------------------------------------------------------------------------
# Tree scan
# ---------------------------------------------------------------------------

TREE_SCAN_MAX = 18


def _next_rooted(levels: list[int], p: int | None = None) -> list[int] | None:
    """Beyer-Hedetniemi successor: the level sequence of the next rooted tree
    in decreasing order, or None after the star.

    With p the position to advance (by default the last vertex deeper than
    level 1) and q its parent, the sequence from p on repeats the levels
    from q on, with period p - q.
    """
    if p is None:
        p = len(levels) - 1
        while levels[p] == 1:
            p -= 1
    if p == 0:
        return None
    q = p - 1
    while levels[q] != levels[p] - 1:
        q -= 1
    out = levels[:p]
    for i in range(p, len(levels)):
        out.append(out[i - p + q])
    return out


def _split_first_subtree(levels: list[int]) -> tuple[list[int], list[int]]:
    """The first subtree of the root (levels relative to its own root) and
    the rest of the tree (the root and its other subtrees)."""
    m = next((i for i in range(2, len(levels)) if levels[i] == 1), len(levels))
    return [v - 1 for v in levels[1:m]], [0] + levels[m:]


def _free_level_sequences(n: int) -> Iterator[list[int]]:
    """One level sequence per free tree on n vertices, by the algorithm of
    Wright, Richmond, Odlyzko and McKay (SIAM J. Comput. 15, 1986).

    The walk visits rooted trees in decreasing level-sequence order from the
    path rooted at its centre.  A rooted tree is kept when its root is a
    centre and, for a bicentral tree, its first subtree is no larger than the
    rest (by size, then by level sequence), so every free tree is kept once;
    from a rejected tree the walk jumps straight to the next kept one.
    """
    if n == 1:
        yield [0]
        return
    levels = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while levels is not None:
        left, rest = _split_first_subtree(levels)
        h_left, h_rest = max(left), max(rest)
        if h_left > h_rest or (
            h_left == h_rest and (len(left), left) > (len(rest), rest)
        ):
            # advance the last vertex of the first subtree; past depth 2 the
            # tail is reset to a path from the root as deep as that subtree,
            # so that the root stays a centre
            p = len(left)
            jumped = _next_rooted(levels, p)
            if levels[p] > 2:
                h = max(_split_first_subtree(jumped)[0])
                jumped[n - h - 1:] = range(1, h + 2)
            levels = jumped
        yield levels
        levels = _next_rooted(levels)


def _level_sequence_parents(levels: Sequence[int]) -> list[int]:
    """The parent array of a level sequence: each vertex hangs from the
    latest vertex one level up, and the root's parent is -1."""
    latest = [0] * len(levels)
    parents = [-1]
    for v in range(1, len(levels)):
        depth = levels[v]
        parents.append(latest[depth - 1])
        latest[depth] = v
    return parents


def _parent_rows(parents: list[int]) -> list[int]:
    """The adjacency rows of the tree of a parent array."""
    adj = [0] * len(parents)
    for v in range(1, len(parents)):
        u = parents[v]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _level_sequence_tree(levels: Sequence[int]) -> Graph:
    """The tree of a level sequence as a ``Graph``."""
    return Graph(len(levels), tuple(_parent_rows(_level_sequence_parents(levels))))


def free_tree_count(n: int) -> int:
    """Number of non-isomorphic trees on n >= 1 vertices, by generation."""
    return sum(1 for _ in _free_level_sequences(n))


def _coded_level_sequences(n: int) -> list[tuple[bytes, bytes]]:
    """(canonical code, level sequence as bytes) for every tree on n >= 1
    vertices, sorted by code.  A level sequence takes n bytes where its tree
    takes an int per vertex, so a whole size fits in memory at once.  The
    generator yields only trees, so ``_tree_code``, the code that
    ``tree_canonical_code`` returns after its checks, is taken on the rows of
    the parent array, with no ``Graph`` and no check."""
    if n < 1:
        raise ValueError("a tree needs at least 1 vertex")
    coded = []
    for levels in _free_level_sequences(n):
        coded.append((_tree_code(_parent_rows(_level_sequence_parents(levels))), bytes(levels)))
    coded.sort()
    if len({code for code, _ in coded}) != len(coded):
        raise AssertionError("canonical code collision in tree enumeration")
    return coded


def distinct_trees(n: int) -> list[tuple[bytes, Graph]]:
    """All non-isomorphic trees on n >= 1 vertices as (canonical code, tree)
    pairs, sorted by code."""
    return [(code, _level_sequence_tree(levels)) for code, levels in _coded_level_sequences(n)]


# trees per task sent to a worker pool: one tree is well under a millisecond
# of work, so single-tree tasks would spend most of their time in transfer
_SCAN_CHUNK = 32


def _scan_tree(coded: tuple[bytes, bytes]) -> ScanResult:
    code, levels = coded
    poly = tree_polynomial(_level_sequence_parents(levels))
    return ScanResult(code, len(levels), poly, property_report(poly))


def tree_scan(n_min: int, n_max: int, pool=None) -> Iterator[ScanResult]:
    """Scan all non-isomorphic trees with n_min <= n <= n_max.

    Results stream in (n, canonical_code) order so output is deterministic
    and long scans can be restarted at the next n.  With a
    `multiprocessing` pool the trees are solved in its workers; the
    order-preserving `imap` keeps the same output order.
    """
    if not (2 <= n_min <= n_max <= TREE_SCAN_MAX):
        raise ValueError(f"bounds must satisfy 2 <= n_min <= n_max <= {TREE_SCAN_MAX}")
    # a tree's parent array is rebuilt from its level sequence to solve it
    trees = (pair for n in range(n_min, n_max + 1) for pair in _coded_level_sequences(n))
    if pool is None:
        return map(_scan_tree, trees)
    return pool.imap(_scan_tree, trees, chunksize=_SCAN_CHUNK)


def scan_result_to_json(result: ScanResult) -> str:
    """One JSON object per line; coefficients as decimal strings."""
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


# ---------------------------------------------------------------------------
# Randomized soundness harnesses
# ---------------------------------------------------------------------------


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    return Graph.from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def composition_soundness_scan(
    kind: str,
    samples: int = 500,
    seed: int = 0,
    max_attempts: int = 200_000,
) -> dict:
    """Sample random graph pairs until `samples` satisfy the hypothesis, and
    verify the promised conclusion on each.

    kind "log_concave": both polynomials log-concave plus the cleared
    inequality imply a log-concave composition.  kind "unimodal": inner
    polynomial log-concave plus the ratio condition imply a unimodal
    composition.  Returns counts and the (expectedly empty) failure list;
    raises SamplingError when max_attempts draws accept fewer than `samples`.
    """
    if kind not in ("log_concave", "unimodal"):
        raise ValueError("kind must be 'log_concave' or 'unimodal'")
    rng = random.Random(seed)
    accepted = 0
    attempts = 0
    failures: list[dict] = []
    while accepted < samples:
        attempts += 1
        if attempts > max_attempts:
            raise SamplingError(
                f"hypothesis sampling did not converge: {accepted} of {samples}"
                f" samples accepted in {max_attempts} attempts"
            )
        g1 = random_graph(rng, rng.randint(2, 6), rng.uniform(0.2, 0.9))
        g2 = random_graph(rng, rng.randint(2, 7), rng.uniform(0.2, 0.9))
        i1 = independence_polynomial(g1)
        i2 = independence_polynomial(g2)
        b1 = i2.coefficient(1)
        b2 = i2.coefficient(2)
        if not is_log_concave(i2)[0]:
            continue
        if kind == "log_concave":
            if not is_log_concave(i1)[0]:
                continue
            if not composition_log_concavity_condition(list(i1.coeffs), b1, b2).holds:
                continue
            ok = is_log_concave(lex_poly(i1, i2))[0]
        else:
            if not composition_unimodality_condition(list(i1.coeffs), b1).holds:
                continue
            ok = is_unimodal(lex_poly(i1, i2))[0]
        accepted += 1
        if not ok:
            failures.append({"g1_coeffs": coeffs_as_strings(i1),
                             "g2_coeffs": coeffs_as_strings(i2)})
    return {
        "kind": kind,
        "samples": accepted,
        "attempts": attempts,
        "failures": failures,
    }
