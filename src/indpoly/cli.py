"""Command-line interface: exact independence polynomials, product identities,
condition suites, and the exhaustive small-tree scan.

All numeric output is emitted as decimal strings inside JSON so arbitrary
precision survives any consumer.  Exit codes: 0 success, 1 verification
failure, 2 parse error, 3 capacity exceeded (more than 64 vertices from a
family, an edge list, graph6 or a product, refused before any edge), 4 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

from .engine import independence_polynomial
from .graphs import (
    CapacityError,
    FAMILIES,
    FamilySpec,
    Graph,
    GraphError,
    GraphParseError,
    MAX_VERTICES,
    build_family,
    parse_edge_list,
    parse_graph6,
)
from .polynomials import coeffs_as_strings, property_report

# `products` and `verify` are imported inside the subcommands that use them,
# so that a `poly` process neither loads nor compiles them

DEFAULT_SEED = 20240501
# thm22 accepts 85-92% of its random draws, so this many samples stay well
# inside composition_soundness_scan's 200,000 attempts
MAX_SAMPLES = 100_000

# CLI name -> family kind: each kind under its own name and its aliases
_FAMILY_NAMES = {
    name: kind for kind, family in FAMILIES.items() for name in (kind, *family.aliases)
}


def parse_family_token(token: str) -> FamilySpec:
    """Parse the `name:args` mini-grammar, with `x` for repetition.

    Examples: `path:4`, `gn:3`, `multipartite:1x26,8`, `T`, `t1`.
    """
    name, _, rest = token.partition(":")
    kind = _FAMILY_NAMES.get(name.strip().lower())
    if kind is None:
        raise GraphParseError(f"unknown family name {name!r}")
    params: list[int] = []
    if rest:
        for piece in rest.split(","):
            piece = piece.strip()
            value, x, count = piece.partition("x")
            try:
                value, count = int(value), int(count) if x else 1
            except ValueError:
                raise GraphParseError(f"bad family parameter {piece!r}") from None
            if count < 0:
                raise GraphParseError(f"bad family parameter {piece!r}")
            if len(params) + count > MAX_VERTICES:
                # no family takes more: a multipartite part has a vertex
                raise CapacityError(
                    f"family {name} has {len(params) + count} parameters,"
                    f" which exceeds the cap of {MAX_VERTICES}"
                )
            params.extend([value] * count)
    return FamilySpec(kind, tuple(params))


def load_graph_source(source: str) -> Graph:
    """Load a graph from a `family:`, `g6:` or `file:` prefixed source."""
    scheme, _, rest = source.partition(":")
    if scheme == "family":
        return build_family(parse_family_token(rest))
    if scheme == "g6":
        return parse_graph6(rest)
    if scheme == "file":
        with open(rest, "r", encoding="utf-8") as handle:
            return parse_edge_list(handle)
    raise GraphParseError(
        f"graph source {source!r} must start with family:, g6: or file:"
    )


def _emit(obj) -> None:
    # allow_nan=False: NaN and Infinity are not JSON, so they never reach stdout
    print(json.dumps(obj, sort_keys=True, allow_nan=False))


# ---------------------------------------------------------------------------
# poly
# ---------------------------------------------------------------------------


def cmd_poly(args) -> int:
    poly = independence_polynomial(load_graph_source(args.source))
    _emit(
        {
            "coeffs": coeffs_as_strings(poly),
            # alpha(G) = deg I(G), so the graph is not solved a second time
            "alpha": poly.degree,
            "properties": property_report(poly).to_json_dict(),
        }
    )
    return 0


# ---------------------------------------------------------------------------
# product
# ---------------------------------------------------------------------------


def _rooted(prod, g1: Graph, g2: Graph, root):
    if root is None:
        raise GraphParseError("rooted product requires --root")
    return (
        prod.rooted_product(g1, g2, root),
        prod.rooted_product_poly(
            independence_polynomial(g1), *prod.rooted_factors(g2, root), g1.n
        ),
    )


# kind -> (the products module, g1, g2, root) -> (product graph, its polynomial
# by formula).  The graph comes first, so a product over the vertex cap is
# refused before any operand is solved.  Each entry looks its functions up on
# the module at call time, so a rebinding of the module's names
# (perfbench/trace_run.py) reaches them.
PRODUCTS = {
    "lex": lambda prod, g1, g2, root: (
        prod.lexicographic(g1, g2),
        prod.lex_poly(independence_polynomial(g1), independence_polynomial(g2)),
    ),
    "rooted": _rooted,
    "join": lambda prod, g1, g2, root: (
        prod.join(g1, g2),
        prod.join_poly(independence_polynomial(g1), independence_polynomial(g2)),
    ),
    "union": lambda prod, g1, g2, root: (
        prod.disjoint_union(g1, g2),
        prod.union_poly(independence_polynomial(g1), independence_polynomial(g2)),
    ),
}


def cmd_product(args) -> int:
    from . import products

    product, formula = PRODUCTS[args.kind](
        products, load_graph_source(args.g1), load_graph_source(args.g2), args.root
    )
    graph_level = independence_polynomial(product)
    _emit(
        {
            "kind": args.kind,
            "coeffs": coeffs_as_strings(graph_level),
            "formula_coeffs": coeffs_as_strings(formula),
            "identity_ok": graph_level == formula,
        }
    )
    return 0 if graph_level == formula else 1


# ---------------------------------------------------------------------------
# verify: each suite maps the verify module and the parsed arguments to (ok,
# its JSON fields), looking the module's functions up at call time
# ---------------------------------------------------------------------------


def _thm22(ver, args):
    results = {
        "condition_i": ver.composition_soundness_scan(
            "log_concave", samples=args.samples, seed=args.seed
        ),
        "condition_ii": ver.composition_soundness_scan(
            "unimodal", samples=args.samples, seed=args.seed + 1
        ),
    }
    return not any(result["failures"] for result in results.values()), {"results": results}


def _prop26(ver, args):
    if not args.g1 or not args.g2:
        raise GraphParseError("prop26 requires --g1 and --g2")
    verdict = ver.well_covered_composition_condition(
        load_graph_source(args.g1), load_graph_source(args.g2)
    )
    ok = (not verdict.holds) or bool(verdict.conclusion_checked)
    return ok, {"holds": verdict.holds, "conclusion_checked": verdict.conclusion_checked}


def _prop41(ver, args):
    if not args.g:
        raise GraphParseError("prop41 requires --g")
    g = load_graph_source(args.g)
    try:
        verdict = ver.rooted_tree_product_check(g, args.tree, args.root)
    except ver.HypothesisViolation:
        # hypothesis violations are reported, not fatal
        return True, {"hypothesis_ok": False}
    return bool(verdict.conclusion_checked), {
        "hypothesis_ok": True,
        "condition": verdict.condition_name,
        "conclusion_checked": verdict.conclusion_checked,
    }


def _thm52(ver, args):
    rows = ver.pendant_ladder_family_check(args.nmax)
    return all(row["ok"] for row in rows), {"results": rows}


def _gn(ver, args):
    rows = ver.pendant_ladder_graph_check(args.nmax)
    return all(row["match"] for row in rows), {"results": rows}


def _closedform(ver, args):
    return ver.pendant_ladder_trig_check(args.n, args.tol), {"n": args.n, "tol": args.tol}


SUITES = {
    "thm22": _thm22,
    "prop26": _prop26,
    "prop41": _prop41,
    "thm52": _thm52,
    "gn": _gn,
    "closedform": _closedform,
}


def cmd_verify(args) -> int:
    from . import verify

    ok, fields = SUITES[args.suite](verify, args)
    _emit({"suite": args.suite, "ok": ok, **fields})
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def _scan_pool(jobs: int):
    """A context manager that gives a spawn-context worker pool of
    min(jobs, CPU count) processes, or None when that leaves one.  The pool
    is its own context manager: leaving it terminates the workers and waits
    for them.  multiprocessing is imported only here."""
    workers = min(jobs, os.cpu_count() or 1)
    if workers <= 1:
        return contextlib.nullcontext()
    import multiprocessing

    return multiprocessing.get_context("spawn").Pool(workers)


def _resume_offset(path: str, nmin: int) -> int:
    """Byte length of the leading complete lines of an earlier scan at `path`
    whose trees have fewer than nmin vertices.

    Every kept size must hold all of its trees; otherwise the resume is
    refused, naming the first incomplete size.  A missing file keeps no line.
    """
    from . import verify as ver

    offset = 0
    kept = dict.fromkeys(range(2, nmin), 0)
    with contextlib.suppress(FileNotFoundError), open(path, "rb") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.endswith(b"\n"):
                break  # torn by an aborted write
            try:
                n = json.loads(line)["n"]
            except (ValueError, KeyError, TypeError):
                n = None
            if not isinstance(n, int) or n < 2:
                raise GraphParseError(f"{path}: line {lineno}: not a scan result line")
            if n >= nmin:
                break
            kept[n] += 1
            offset += len(line)
    for n, count in kept.items():
        expected = ver.free_tree_count(n)
        if count != expected:
            raise GraphParseError(
                f"{path}: size {n} is incomplete ({count} of {expected} trees);"
                f" resume with --nmin {n}"
            )
    return offset


def cmd_scan(args) -> int:
    from . import verify as ver

    if not (2 <= args.nmin <= args.nmax <= ver.TREE_SCAN_MAX):
        raise GraphParseError(
            f"bounds must satisfy 2 <= nmin <= nmax <= {ver.TREE_SCAN_MAX}"
        )
    total_violations = 0
    if args.nmin > 2:
        # resume: keep the sizes below nmin, drop anything written after them
        os.truncate(args.out, _resume_offset(args.out, args.nmin))
    with open(args.out, "w" if args.nmin == 2 else "a", encoding="utf-8") as handle, \
            _scan_pool(args.jobs) as pool:
        for n in range(args.nmin, args.nmax + 1):
            count = violations = 0
            for result in ver.tree_scan(n, n, pool):
                handle.write(ver.scan_result_to_json(result) + "\n")
                count += 1
                violations += not result.report.unimodal
            handle.flush()
            total_violations += violations
            print(f"n={n}: {count} trees, {violations} violations")
    return 0 if total_violations == 0 else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _sample_count(text: str) -> int:
    value = _positive_int(text)
    if value > MAX_SAMPLES:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_SAMPLES}, got {value}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a number, got {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="indpoly",
        description="Exact independence polynomials and coefficient-sequence checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_poly = sub.add_parser("poly", help="independence polynomial of one graph")
    # each flag stores its value as the `load_graph_source` source it names
    src = p_poly.add_mutually_exclusive_group(required=True)
    for scheme, help_text in (
        ("file", "edge-list file: 'n m' header then 'u v' lines"),
        ("g6", "graph6 string"),
        ("family", "family spec name:args, x repeats (path:4, gn:3, multipartite:1x26,8, T)"),
    ):
        src.add_argument(f"--{scheme}", dest="source", metavar=scheme.upper(),
                         type=f"{scheme}:".__add__, help=help_text)
    p_poly.set_defaults(func=cmd_poly)

    p_prod = sub.add_parser("product", help="graph product vs formula identity")
    p_prod.add_argument("kind", choices=PRODUCTS)
    p_prod.add_argument("--g1", required=True, help="source: family:..., g6:..., file:...")
    p_prod.add_argument("--g2", required=True, help="source: family:..., g6:..., file:...")
    p_prod.add_argument("--root", type=int, help="root vertex index in g2 (rooted only)")
    p_prod.set_defaults(func=cmd_product)

    p_ver = sub.add_parser("verify", help="run one verification suite")
    p_ver.add_argument("suite", choices=SUITES)
    p_ver.add_argument("--samples", type=_sample_count, default=500)
    p_ver.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_ver.add_argument("--nmax", type=int, default=25)
    p_ver.add_argument("--n", type=int, default=11)
    p_ver.add_argument("--tol", type=_positive_float, default=1e-6)
    p_ver.add_argument("--g", help="graph source (prop41)")
    p_ver.add_argument("--g1", help="graph source (prop26)")
    p_ver.add_argument("--g2", help="graph source (prop26)")
    p_ver.add_argument("--tree", default="T", help="T or T1 (prop41)")
    p_ver.add_argument("--root", type=int, default=1, help="root label 1..4 (prop41)")
    p_ver.set_defaults(func=cmd_verify)

    p_scan = sub.add_parser("scan", help="exhaustive non-isomorphic tree scan")
    p_scan.add_argument("what", choices=["trees"])
    p_scan.add_argument(
        "--nmin", type=int, default=2, help="first size; set to resume an aborted scan"
    )
    p_scan.add_argument("--nmax", type=int, default=10)
    p_scan.add_argument("--out", default="tree_scan.jsonl", help="JSON-lines output path")
    p_scan.add_argument("--jobs", type=_positive_int, default=1)
    p_scan.set_defaults(func=cmd_scan)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (GraphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
