"""Mechanized checkers for composition conditions, rooted-tree products, the
pendant-ladder family, and the exhaustive small-tree scan.

The scan enumerates free trees with the level-sequence generator of Wright,
Richmond, Odlyzko and McKay (Beyer-Hedetniemi successor steps over rooted
trees rooted at a centre), standard library only; distinct canonical codes
check that no class comes out twice.

Condition checkers take raw coefficient data so hypotheses can be fuzzed
independently of graph realizability; graph-level wrappers feed them real
instances.  A checker returning ``holds=False`` makes no claim: the conditions
are sufficient, not necessary, and an instance that misses a hypothesis is
reported that way, not raised.  ``tree_scan`` owns its bounds and, for
``jobs > 1``, its worker pool, whose sizes raise once the stream is closed;
it yields one (n, results) pair per size, deciding the size boundary alone.
"""

from __future__ import annotations

import base64
import math
import os
import random
from itertools import combinations, islice, pairwise
from typing import Iterator, NamedTuple, Sequence

from .engine import independence_polynomial, tree_polynomial
from .graphs import CapacityError, Graph, _check_count, build_family, is_well_covered
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

    @property
    def ok(self) -> bool:
        """False only when the hypothesis holds and the conclusion fails."""
        return not self.holds or bool(self.conclusion_checked)


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
    from .products import lex_poly

    i1 = independence_polynomial(g1)
    i2 = independence_polynomial(g2)
    # alpha(g1) is deg I(g1): is_well_covered(g1) has branched for it already
    holds = (
        is_well_covered(g1)
        and is_well_covered(g2)
        and is_log_concave(i2)[0]
        and g2.n >= i1.degree
    )
    conclusion = is_unimodal(lex_poly(i1, i2))[0]
    return ConditionVerdict(
        "well-covered-composition", holds, conclusion_checked=conclusion
    )


def binomial_basis_unimodality_condition(d: Sequence[int]) -> bool:
    """Whether the nonzero entries of d are weakly increasing.

    This is the hypothesis under which sum d_i (1+x)^i is unimodal.
    """
    d = list(d)
    if any(v < 0 for v in d):
        raise ValueError("d must be nonnegative")
    nz = [v for v in d if v != 0]
    return all(nz[i - 1] <= nz[i] for i in range(1, len(nz)))


# ---------------------------------------------------------------------------
# Rooted products with the two reference trees
# ---------------------------------------------------------------------------

# roots whose rooted product must stay real-rooted; the rest are log-concave
_REAL_ROOTED_ROOTS = {("T", 1), ("T", 2), ("T", 3)}


def tree_factor_identities() -> dict[str, bool]:
    """The ``tree_t`` edge list against the paper's factors of T: I(T - v)
    and I(T - N[v]) at roots 1 and 4, from ``products.rooted_factors``."""
    from .products import rooted_factors

    t = build_family("tree_t")
    found = (*rooted_factors(t, 0), *rooted_factors(t, 3))
    paper = {
        "t_minus_root1": ONE_PLUS_X * IntPoly((1, 3)),
        "t_minus_nbhd1": ONE_PLUS_X * IntPoly((1, 2)),
        "t_minus_root4": ONE_PLUS_X ** 3 + X,
        "t_minus_nbhd4": ONE_PLUS_X ** 2 + X,
    }
    return {key: poly == factor for (key, factor), poly in zip(paper.items(), found)}


def rooted_tree_product_check(g: Graph, tree: str, root: int) -> ConditionVerdict:
    """Check the promised conclusion for g composed with tree T or T1.

    Roots are the 1..4 labels on the drawing; for T the first three roots
    promise real-rootedness, everything else promises log-concavity.  The
    hypothesis is that I(g) is real-rooted; when it is not, the verdict has
    ``holds=False`` and nothing is checked.  The product is built first, so
    one over the vertex cap raises ``CapacityError`` before I(g) is solved.
    """
    from .products import rooted_product

    tree = tree.upper()
    if tree not in ("T", "T1"):
        raise ValueError("tree must be 'T' or 'T1'")
    if not (1 <= root <= 4):
        raise ValueError("root label must be in 1..4")
    real = (tree, root) in _REAL_ROOTED_ROOTS
    name = f"rooted-tree-product:{tree}:root{root}:{'real-rooted' if real else 'log-concave'}"
    product = rooted_product(g, build_family(tree), root - 1)
    if not real_rooted(independence_polynomial(g)):
        return ConditionVerdict(name, False)
    poly = independence_polynomial(product)
    conclusion = real_rooted(poly) if real else is_log_concave(poly)[0]
    return ConditionVerdict(name, True, conclusion_checked=conclusion)


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
    """I(G_n;x), n >= -1, from the recurrence of ``_pendant_ladders``."""
    _check_count("n", n)
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
    coefficient by coefficient, within a finite, positive relative tolerance tol."""
    _check_count("n", n)
    if n < 0:
        raise ValueError("index must be >= 0")
    if n > TRIG_CHECK_MAX:
        raise ValueError(f"index must be <= {TRIG_CHECK_MAX}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    # both have n + 2 entries: deg I(G_n) = n + 1 = delta_n + 2 ceil(n/2)
    exact = pendant_ladder_recurrence(n).coeffs
    approx = _trig_product_expansion(n)
    return all(abs(a - e) <= tol * max(1, abs(e)) for a, e in zip(approx, exact, strict=True))


def pendant_ladder_family_check(n_max: int) -> list[dict]:
    """Symmetry, real-rootedness and degree n+1 for every 0 <= n <= n_max."""
    _check_count("n_max", n_max)
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
    _check_count("n_max", n_max)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    graphs = [build_family("pendant_ladder_g", n) for n in range(n_max + 1)]
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


def _second_child(levels: Sequence[int]) -> int:
    """The position of the root's second child in a level sequence, or its
    length when the root has fewer than two children."""
    return next((i for i in range(2, len(levels)) if levels[i] == 1), len(levels))


def _free_level_sequences(n: int) -> Iterator[list[int]]:
    """One level sequence per free tree on n >= 1 vertices, by the algorithm
    of Wright, Richmond, Odlyzko and McKay (SIAM J. Comput. 15, 1986).

    The walk visits rooted trees in decreasing level-sequence order from the
    path rooted at its centre.  A rooted tree is kept when its root is a
    centre and, for a bicentral tree, its first subtree is no larger than the
    rest (by size, then by level sequence), so every free tree is kept once;
    from a rejected tree the walk jumps straight to the next kept one.  Each
    sequence is canonical, so the root's first subtree is its tallest.
    """
    if n < 1:
        raise ValueError("a tree needs at least 1 vertex")
    levels = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while levels is not None:
        m = _second_child(levels)
        h_first, h_rest = max(levels) - 1, max(levels[m:], default=0)
        if h_first > h_rest or (
            h_first == h_rest
            and (m - 1, [v - 1 for v in levels[1:m]]) > (n - m + 1, [0, *levels[m:]])
        ):
            # advance the last vertex of the first subtree; past depth 2 the
            # tail is reset to a path from the root as deep as that subtree,
            # so that the root stays a centre
            p = m - 1
            jumped = _next_rooted(levels, p)
            if levels[p] > 2:
                h = max(jumped) - 1
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


def _level_sequence_tree(levels: Sequence[int]) -> Graph:
    """The tree of a level sequence as a ``Graph``."""
    parents = _level_sequence_parents(levels)
    return Graph.from_edges(len(levels), enumerate(parents[1:], 1))


def free_tree_count(n: int) -> int:
    """Number of non-isomorphic trees on n >= 1 vertices, by generation."""
    return sum(1 for _ in _free_level_sequences(n))


def _level_sequence_code(levels: Sequence[int]) -> bytes:
    """The canonical code of the tree of a canonical level sequence rooted at
    a centre, as ``_free_level_sequences`` yields them: the code
    ``graphs._tree_code`` gives its tree, in one reverse pass.

    Each vertex sorts and joins the codes its children left at the next
    depth, clears them, and leaves its own code at its depth.  The root's
    first subtree is its tallest, so the tree is bicentral exactly when that
    subtree reaches one level deeper than every other; its other centre c is
    then the root's first child, the last vertex of the pass.  Rooted at c,
    the tree has c's child codes plus the root with every child but c, and
    the smaller rooting is the code.
    """
    height = max(levels)
    pending: list[list[bytes]] = [[] for _ in range(height + 2)]
    for d in levels[:0:-1]:
        kids = pending[d + 1]
        if kids:
            pending[d + 1] = []
            kids.sort()
            code = b"(%s)" % b"".join(kids)
        else:
            code = b"()"
        pending[d].append(code)
    top = pending[1]
    top.sort()
    root_code = b"(%s)" % b"".join(top)
    if height != max(levels[_second_child(levels):], default=0) + 1:
        return root_code
    # kids and code are the root's first child's, from the last step
    top.remove(code)
    other = [*kids, b"(%s)" % b"".join(top)]
    other.sort()
    return min(root_code, b"(%s)" % b"".join(other))


def _coded_level_sequences(n: int) -> list[tuple[bytes, bytes]]:
    """(canonical code, level sequence as bytes) for every tree on n >= 1
    vertices, sorted by code.  A level sequence takes n bytes where its tree
    takes an int per vertex, so a whole size fits in memory at once.  The
    code is ``_level_sequence_code``, taken on the level sequence itself;
    ``graphs._tree_code`` on the tree's adjacency rows is the graph route
    that gives the same code.  Two trees with one code would be neighbours
    in the sorted list, so no two neighbours may share a code."""
    coded = [(_level_sequence_code(levels), bytes(levels)) for levels in _free_level_sequences(n)]
    coded.sort()
    if any(a == b for (a, _), (b, _) in pairwise(coded)):
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


def tree_scan(
    n_min: int, n_max: int, jobs: int = 1
) -> Iterator[tuple[int, Iterator[ScanResult]]]:
    """Scan all non-isomorphic trees with n_min <= n <= n_max.

    The stream yields one (n, results) pair per size, in increasing n;
    ``results`` lazily gives that size's ``ScanResult``s in canonical-code
    order, so output is deterministic and a long scan can be restarted at
    the next n.  A size's trees are generated only when its pair is asked
    for, so a caller can finish with one size before the next is generated.
    Each size's ``results`` is its own iterator, readable in any order.  The
    bounds and ``jobs`` are checked at the call; the scan itself is lazy.
    With ``jobs`` > 1 the trees are solved in a spawn-context pool of
    min(jobs, CPU count) workers, started at the first pair and terminated
    when the stream is closed or runs out; ``imap`` keeps the output order.
    A pool-backed size raises ``ValueError`` once its stream is closed or
    garbage-collected; a serial size stays readable.
    """
    _check_count("n_min", n_min)
    _check_count("n_max", n_max)
    if not (2 <= n_min <= n_max <= TREE_SCAN_MAX):
        raise ValueError(f"bounds must satisfy 2 <= nmin <= nmax <= {TREE_SCAN_MAX}")
    _check_count("jobs", jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    return _scan_stream(n_min, n_max, min(jobs, os.cpu_count() or 1))


def _scan_stream(
    n_min: int, n_max: int, workers: int
) -> Iterator[tuple[int, Iterator[ScanResult]]]:
    # a tree's parent array is rebuilt from its level sequence to solve it
    pool = None
    if workers > 1:
        import multiprocessing

        pool = multiprocessing.get_context("spawn").Pool(workers)
    closed = False

    def pooled(results: Iterator[ScanResult]) -> Iterator[ScanResult]:
        # a closed stream's imap waits forever on its terminated pool, so reads raise
        def read() -> ScanResult:
            if closed:
                raise ValueError("scan stream is closed")
            return next(results)

        return iter(read, None)

    try:
        for n in range(n_min, n_max + 1):
            coded = _coded_level_sequences(n)
            yield n, (map(_scan_tree, coded) if pool is None
                      else pooled(pool.imap(_scan_tree, coded, chunksize=_SCAN_CHUNK)))
    finally:
        closed = True
        if pool is not None:
            pool.terminate()


_SCAN_LINE = ('{"code": "%s", "coeffs": ["%s"], "log_concave": %s, "n": %d,'
              ' "real_rooted": %s, "symmetric": %s, "unimodal": %s}')
_JSON_BOOL = {False: "false", True: "true"}


def scan_result_to_json(result: ScanResult) -> str:
    """One JSON object per line; coefficients as decimal strings.

    The line is what ``json.dumps`` with ``sort_keys=True`` writes, formatted
    directly: base64 and decimal digits need no escaping.
    """
    report = result.report
    return _SCAN_LINE % (
        base64.b64encode(result.canonical_code).decode("ascii"),
        '", "'.join(map(str, result.polynomial.coeffs)),
        _JSON_BOOL[report.log_concave],
        result.n,
        _JSON_BOOL[report.real_rooted],
        _JSON_BOOL[report.symmetric],
        _JSON_BOOL[report.unimodal],
    )


# ---------------------------------------------------------------------------
# Randomized soundness harnesses
# ---------------------------------------------------------------------------


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    return Graph.from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p])


# thm22 accepts 85-92% of its random draws, so this many samples stay well
# inside composition_soundness_scan's MAX_ATTEMPTS draws
MAX_SAMPLES = 100_000
MAX_ATTEMPTS = 200_000


def composition_soundness_scan(kind: str, samples: int = 500, seed: int = 0) -> dict:
    """Sample random graph pairs until `samples` satisfy the hypothesis, and
    verify the promised conclusion on each.

    kind "log_concave": both polynomials log-concave plus the cleared
    inequality imply a log-concave composition.  kind "unimodal": inner
    polynomial log-concave plus the ratio condition imply a unimodal
    composition.  Returns counts and the (expectedly empty) failure list;
    raises SamplingError when MAX_ATTEMPTS draws accept fewer than `samples`,
    and, before any draw, TypeError for a `samples` that is not an int and
    ValueError for one outside 1..MAX_SAMPLES.
    """
    from .products import lex_poly

    if kind not in ("log_concave", "unimodal"):
        raise ValueError("kind must be 'log_concave' or 'unimodal'")
    _check_count("samples", samples)
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if samples > MAX_SAMPLES:
        raise ValueError(f"samples must be at most {MAX_SAMPLES}, got {samples}")
    rng = random.Random(seed)
    accepted = 0
    attempts = 0
    failures: list[dict] = []
    while accepted < samples:
        attempts += 1
        if attempts > MAX_ATTEMPTS:
            raise SamplingError(
                f"hypothesis sampling did not converge: {accepted} of {samples}"
                f" samples accepted in {MAX_ATTEMPTS} attempts"
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
