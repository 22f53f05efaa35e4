"""Command-line interface: exact independence polynomials, product identities,
condition suites, and the exhaustive small-tree scan.

All numeric output is emitted as decimal strings inside JSON so arbitrary
precision survives any consumer.  Exit codes: 0 success, 1 verification
failure, 2 parse or usage error (also a flag the subcommand does not take),
3 capacity exceeded (more than 64 vertices from any input or product,
refused before any edge), 4 I/O error.

`scan` writes its lines and resumes an earlier `--out` through `verify`,
which owns the line format and the rule for the lines a resume keeps; the
CLI appends to `--out` after cutting it to the length that rule gives.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .engine import independence_polynomial
from .graphs import (
    CapacityError,
    Graph,
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


def parse_family_token(token: str) -> tuple[str, list[int]]:
    """Split the `name:args` mini-grammar, with `x` for repetition, into the
    name and parameters that `build_family` takes.

    Examples: `path:4`, `gn:3`, `multipartite:1x26,8`, `T`, `t1`.
    """
    name, _, rest = token.partition(":")
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
    return name.strip(), params


def load_graph_source(source: str) -> Graph:
    """Load a graph from a `family:`, `g6:` or `file:` prefixed source."""
    scheme, _, rest = source.partition(":")
    if scheme == "family":
        name, params = parse_family_token(rest)
        return build_family(name, *params)
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
# product: each kind maps the products module, the operands and the parsed
# arguments to (product graph, its polynomial by formula).  The graph comes
# first, so an over-cap product is refused before any operand is solved; the
# module's functions are looked up at call time, so a rebinding reaches them.
# ---------------------------------------------------------------------------


def _binary(graph: str, formula: str):
    def run(prod, g1: Graph, g2: Graph, args):
        return getattr(prod, graph)(g1, g2), getattr(prod, formula)(
            independence_polynomial(g1), independence_polynomial(g2)
        )

    return run


def _rooted(prod, g1: Graph, g2: Graph, args):
    return prod.rooted_product(g1, g2, args.root), prod.rooted_product_poly(
        independence_polynomial(g1), *prod.rooted_factors(g2, args.root), g1.n
    )


_SOURCE = dict(required=True, help="source: family:..., g6:..., file:...")
_OPERANDS = (("--g1", _SOURCE), ("--g2", _SOURCE))

# kind -> (runner, the (flag, argparse keywords) pairs it reads and no others)
PRODUCTS = {
    "lex": (_binary("lexicographic", "lex_poly"), _OPERANDS),
    "rooted": (_rooted, (*_OPERANDS, ("--root", dict(type=int, required=True,
                                                     help="root vertex index in g2")))),
    "join": (_binary("join", "join_poly"), _OPERANDS),
    "union": (_binary("disjoint_union", "union_poly"), _OPERANDS),
}


def cmd_product(args) -> int:
    from . import products

    product, formula = PRODUCTS[args.kind][0](
        products, load_graph_source(args.g1), load_graph_source(args.g2), args
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
    verdict = ver.well_covered_composition_condition(
        load_graph_source(args.g1), load_graph_source(args.g2)
    )
    return verdict.ok, {"holds": verdict.holds, "conclusion_checked": verdict.conclusion_checked}


def _prop41(ver, args):
    verdict = ver.rooted_tree_product_check(load_graph_source(args.g), args.tree, args.root)
    # an unmet hypothesis is reported alone
    fields = dict(condition=verdict.condition_name,
                  conclusion_checked=verdict.conclusion_checked) if verdict.holds else {}
    return verdict.ok, {"hypothesis_ok": verdict.holds, **fields}


def _thm52(ver, args):
    rows = ver.pendant_ladder_family_check(args.nmax)
    return all(row["ok"] for row in rows), {"results": rows}


def _gn(ver, args):
    rows = ver.pendant_ladder_graph_check(args.nmax)
    return all(row["match"] for row in rows), {"results": rows}


def _closedform(ver, args):
    return ver.pendant_ladder_trig_check(args.n, args.tol), {"n": args.n, "tol": args.tol}


_NMAX = (("--nmax", dict(type=int, default=25)),)

# suite -> (runner, the (flag, argparse keywords) pairs it reads and no others)
SUITES = {
    "thm22": (_thm22, (("--samples", dict(type=int, default=500)),
                       ("--seed", dict(type=int, default=DEFAULT_SEED)))),
    "prop26": (_prop26, (("--g1", dict(required=True, help="graph source")),
                         ("--g2", dict(required=True, help="graph source")))),
    "prop41": (_prop41, (("--g", dict(required=True, help="graph source")),
                         ("--tree", dict(default="T", help="T or T1")),
                         ("--root", dict(type=int, default=1, help="root label 1..4")))),
    "thm52": (_thm52, _NMAX),
    "gn": (_gn, _NMAX),
    "closedform": (_closedform, (("--n", dict(type=int, default=11)),
                                 ("--tol", dict(type=float, default=1e-6)))),
}


def cmd_verify(args) -> int:
    from . import verify

    ok, fields = SUITES[args.suite][0](verify, args)
    _emit({"suite": args.suite, "ok": ok, **fields})
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def cmd_scan(args) -> int:
    from . import verify as ver

    # the bounds and --jobs are checked here, and the kept lines next,
    # before --out is touched
    stream = ver.tree_scan(args.nmin, args.nmax, args.jobs)
    offset = ver.scan_resume_offset(args.out, args.nmin)
    total_violations = 0
    with open(args.out, "a", encoding="utf-8") as handle, contextlib.closing(stream):
        # keep the sizes below --nmin and drop anything written after them;
        # a pipe or a device such as /dev/null holds nothing to drop
        if handle.seekable() and handle.tell() > offset:
            handle.truncate(offset)
        for n, results in stream:
            count = violations = 0
            for result in results:
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


class _StrictParser(argparse.ArgumentParser):
    # the CLI's one parser class, which every sub-parser inherits: it refuses
    # abbreviations (thm52 --n is no --nmax) and any flag it does not declare,
    # which argparse would pass up, so the error prints its own usage line
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        if self._subparsers is None:
            # a leaf names an undeclared flag, with the values after it, before
            # argparse's required checks would report it as a missing flag
            unknown, taking = [], False
            for arg in args[:args.index("--")] if "--" in args else args:
                if arg[:1] == "-" and arg != "-" and not self._negative_number_matcher.match(arg):
                    taking = arg.split("=", 1)[0] not in self._option_string_actions
                if taking:
                    unknown.append(arg)
            if unknown:
                self.error(f"unrecognized arguments: {' '.join(unknown)}")
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _add_table(parser, dest: str, table: dict, func) -> None:
    """One sub-parser per table entry, declaring exactly that entry's flags."""
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, (_, flags) in table.items():
        entry = sub.add_parser(name)
        for flag, keywords in flags:
            entry.add_argument(flag, **keywords)
    parser.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = _StrictParser(
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

    _add_table(sub.add_parser("product", help="graph product vs formula identity"),
               "kind", PRODUCTS, cmd_product)
    _add_table(sub.add_parser("verify", help="run one verification suite"),
               "suite", SUITES, cmd_verify)

    p_scan = sub.add_parser("scan", help="exhaustive non-isomorphic tree scan")
    p_scan.add_argument("what", choices=["trees"])
    p_scan.add_argument(
        "--nmin", type=int, default=2, help="first size; set to resume an aborted scan"
    )
    p_scan.add_argument("--nmax", type=int, default=10)
    p_scan.add_argument("--out", default="tree_scan.jsonl", help="JSON-lines output path")
    p_scan.add_argument("--jobs", type=int, default=1)
    p_scan.set_defaults(func=cmd_scan)
    return parser


# exit code by the class of an error raised past parsing; the first match wins
_EXIT_CODES = ((CapacityError, 3), (ValueError, 2), (OSError, 4))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
