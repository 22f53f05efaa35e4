import argparse
import ast
import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from indpoly import cli
from indpoly.cli import load_graph_source, parse_family_token
from helpers import emit_graph6
from indpoly.graphs import FAMILIES, CapacityError, Graph, build_family

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_python(*args, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        **kwargs,
    )


def run_cli(*args, **kwargs):
    return run_python("-m", "indpoly", *args, **kwargs)


def run_json(*args):
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_needs_no_networkx_or_multiprocessing():
    proc = run_python(
        "-c",
        "import sys, indpoly.cli; "
        "print([m for m in ('networkx', 'multiprocessing') if m in sys.modules])",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# runs indpoly in a fresh interpreter; `added` holds the modules that
# importing and running it loaded
_RUN_MAIN = (
    "import contextlib, io, sys\n"
    "before = set(sys.modules)\n"
    "from indpoly import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = cli.main(sys.argv[1:])\n"
    "added = set(sys.modules) - before\n"
)
# the modules a subcommand must not load
_COLD_START = _RUN_MAIN + (
    "watched = ('indpoly.verify', 'indpoly.products', 'dataclasses', 'inspect', 'fractions')\n"
    "print(code, [m for m in watched if m in added])\n"
)
# the modules loaded from outside the standard library and indpoly;
# multiprocessing's spawn start registers the main module as __mp_main__
_STDLIB_ONLY = _RUN_MAIN + (
    "foreign = [m for m in added if m != '__mp_main__'\n"
    "           and m.partition('.')[0] not in {*sys.stdlib_module_names, 'indpoly'}]\n"
    "print(code, 'indpoly.cli' in added, sorted(foreign))\n"
)


def test_cold_start_loads_only_the_subcommand_modules():
    proc = run_python("-c", _COLD_START, "poly", "--family", "path:4")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 []\n"
    proc = run_python(
        "-c", _COLD_START, "product", "lex", "--g1", "family:path:3", "--g2", "family:path:2"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 ['indpoly.products']\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("poly", "--family", "path:4"),
        ("product", "rooted", "--g1", "family:path:3", "--g2", "family:path:2", "--root", "0"),
        ("verify", "thm22", "--samples", "20"),
        ("verify", "prop26", "--g1", "family:complete:2", "--g2", "family:empty:2"),
        ("scan", "trees", "--nmax", "6", "--jobs", "2"),
    ],
    ids=["poly", "product-rooted", "verify-thm22", "verify-prop26", "scan-jobs-2"],
)
def test_every_subcommand_loads_only_the_standard_library(argv, tmp_path):
    proc = run_python("-c", _STDLIB_ONLY, *argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 True []\n"


# the modules that only rarely called functions need
_LAZY = _RUN_MAIN + (
    "watched = ('fractions', 'decimal', 'heapq', 'indpoly.products')\n"
    "print(code, [m for m in watched if m in added])\n"
)


@pytest.mark.parametrize(
    "argv",
    [
        ("scan", "trees", "--nmax", "3", "--jobs", "1"),
        ("verify", "thm52", "--nmax", "3"),
        ("verify", "gn", "--nmax", "2"),
        ("verify", "closedform", "--n", "3"),
    ],
    ids=["scan", "verify-thm52", "verify-gn", "verify-closedform"],
)
def test_scan_and_verify_load_no_module_they_do_not_run(argv, tmp_path):
    proc = run_python("-c", _LAZY, *argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 []\n"


_READ_AFTER_CLOSE = """
import multiprocessing, os
from indpoly import verify

os.cpu_count = lambda: 2  # a pool on any host
stream = verify.tree_scan(2, 9, jobs=2)
next(stream)
_, results = next(stream)
stream.close()
_, dropped = next(verify.tree_scan(2, 9, jobs=2))  # its stream is garbage-collected
for size in (results, results, dropped):
    try:
        next(size)
    except ValueError as exc:
        assert str(exc) == "scan stream is closed", exc
    else:
        raise SystemExit("a read after close did not raise")
assert multiprocessing.active_children() == []
_, serial = next(verify.tree_scan(4, 4))  # the serial stream is dropped at once
assert len(list(serial)) == 2
"""


def test_pool_backed_size_raises_once_its_stream_is_closed():
    # a read that hangs fails the test by timeout instead of hanging the suite
    proc = run_python("-c", _READ_AFTER_CLOSE, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_package_names_resolve_on_first_use():
    import importlib

    import indpoly

    for name, module in indpoly._MODULE_OF.items():
        assert getattr(indpoly, name) is getattr(importlib.import_module(f"indpoly.{module}"), name)
        assert name in dir(indpoly)
    assert sorted(indpoly.__all__) == sorted(indpoly._MODULE_OF)
    from indpoly import lex_poly

    assert lex_poly is importlib.import_module("indpoly.products").lex_poly
    with pytest.raises(AttributeError):
        indpoly.no_such_name


# public names that no code in src calls, each with its reason to stay
_UNCALLED_PUBLIC = {
    "brute_force_independence_polynomial": "the oracle of the engine up to 24 vertices",
    "count_distinct_real_roots": "the square-free route that checks real_rooted",
    "tree_canonical_code": "the benchmark's tracer counts its calls (ROADMAP item 7)",
    "is_claw_free": "the tests pick claw-free graphs with it (Chudnovsky-Seymour,"
                    " ROADMAP item 2)",
    "multipartite_poly": "the partition sweep of ROADMAP item 9 calls it",
    "shift_basis": "the partition sweep of ROADMAP item 9 calls it",
}


class _Uses(ast.NodeVisitor):
    """The names a module uses outside their own definitions: as a name, an
    attribute, or a string (the product table looks functions up by name)."""

    def __init__(self):
        self.inside, self.used = [], set()

    def visit_FunctionDef(self, node):
        self.inside.append(node.name)
        self.generic_visit(node)
        self.inside.pop()

    visit_ClassDef = visit_FunctionDef

    def _use(self, name):
        if name not in self.inside:
            self.used.add(name)

    def visit_Name(self, node):
        self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            self._use(node.value)


def _src_uses_and_definitions() -> tuple[set[str], set[str]]:
    """The names used in src outside `__init__.py`, which only declares the
    public names, and the module-level functions and classes of every module."""
    import indpoly

    uses, defined = _Uses(), set()
    for path in Path(indpoly.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name != "__init__.py":
            uses.visit(tree)
        defined.update(node.name for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef)))
    return uses.used, defined


def test_every_public_name_has_a_caller_in_src():
    import indpoly

    used, _ = _src_uses_and_definitions()
    assert set(indpoly._MODULE_OF) - used == set(_UNCALLED_PUBLIC)


# module-level functions and classes outside the public names that no code
# in src calls, each with its reason to stay
_UNCALLED_PRIVATE = {
    "__getattr__": "the interpreter calls it for a package name not yet loaded",
    "__dir__": "dir(indpoly) calls it",
    "tree_factor_identities": "pins tree_t against the paper's factors; a prop41 gate"
                              " changes the benchmark's golden output (ROADMAP item 7)",
    "increasing_coefficients_case": "the exhaustive Theorem 2.2 suite of ROADMAP item 8 calls it",
    "binomial_basis_unimodality_condition": "the partition sweep of ROADMAP item 9 calls it",
    "distinct_trees": "the benchmark's tracer times it (ROADMAP item 7)",
}


def test_every_module_level_definition_has_a_caller_in_src():
    import indpoly

    used, defined = _src_uses_and_definitions()
    assert defined - set(indpoly._MODULE_OF) - used == set(_UNCALLED_PRIVATE)


def _src_function_args():
    """(file:line, arguments) of every function and lambda in src."""
    import indpoly

    for path in sorted(Path(indpoly.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                yield f"{path.name}:{node.lineno}", node.args


def test_no_function_in_src_takes_a_private_parameter():
    # a parameter named with a leading underscore is an option that only
    # tests set: a second mode of the function beside the one callers use
    private = [f"{where} {arg.arg}" for where, a in _src_function_args()
               for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
               if arg is not None and arg.arg.startswith("_")]
    assert private == []


def test_no_function_in_src_has_a_bool_default():
    # a parameter that defaults to True or False switches a function between
    # two modes; callers in src use one, and the other is left to tests
    switches = []
    for where, a in _src_function_args():
        positional = (*a.posonlyargs, *a.args)
        defaults = (*zip(positional[len(positional) - len(a.defaults):], a.defaults),
                    *zip(a.kwonlyargs, a.kw_defaults))
        switches += [f"{where} {arg.arg}" for arg, default in defaults
                     if isinstance(default, ast.Constant) and isinstance(default.value, bool)]
    assert switches == []


def _count_checked(functions: dict, name: str) -> set[str]:
    """The parameters that verify function `name` passes to `_check_count`,
    in its own body or on to a parameter that another verify function checks."""
    node = functions[name]
    checked = set()
    for call in ast.walk(node):
        if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)):
            continue
        callee = call.func.id
        if callee == "_check_count":
            passed = call.args
        elif callee in functions and callee != name:
            inner = _count_checked(functions, callee)
            slots = (*zip((arg.arg for arg in functions[callee].args.args), call.args),
                     *((keyword.arg, keyword.value) for keyword in call.keywords))
            passed = [value for param, value in slots if param in inner]
        else:
            continue
        checked.update(arg.id for arg in passed if isinstance(arg, ast.Name))
    return checked & {arg.arg for arg in (*node.args.args, *node.args.kwonlyargs)}


def test_every_int_parameter_of_verify_is_checked_as_a_count():
    # a comparison lets a bool through as 0 or 1 and a float as a count, to
    # fail later on something unrelated; _check_count refuses both at the call
    from indpoly import verify

    tree = ast.parse(Path(verify.__file__).read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    unchecked = [f"{name} {arg.arg}" for name, node in functions.items() if name[0] != "_"
                 for arg in (*node.args.args, *node.args.kwonlyargs)
                 if isinstance(arg.annotation, ast.Name) and arg.annotation.id == "int"
                 and arg.arg not in _count_checked(functions, name)]
    assert unchecked == []


def _readme_blocks(language: str) -> list[str]:
    readme = (Path(SRC).parent / "README.md").read_text(encoding="utf-8")
    return [block.split("```", 1)[0] for block in readme.split(f"```{language}\n")[1:]]


def test_readme_library_snippet_runs():
    # every python block runs, each with the output it promises
    snippet, scan_loop = _readme_blocks("python")
    proc = run_python("-c", snippet + "print(ip.independence_polynomial(g).coeffs)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "(1, 49, 48, 64)\n"
    proc = run_python("-c", scan_loop)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "2 1\n3 1\n4 2\n5 3\n6 6\n"


def test_readme_scan_line_is_written_by_the_scan(tmp_path):
    [line] = _readme_blocks("json")
    out = tmp_path / "trees.jsonl"
    assert run_cli("scan", "trees", "--nmax", "5", "--out", str(out)).returncode == 0
    assert line in out.read_text(encoding="utf-8").splitlines(keepends=True)


def test_readme_examples_parse():
    readme = (Path(SRC).parent / "README.md").read_text(encoding="utf-8")
    examples = [line for line in readme.splitlines() if line.startswith("indpoly ")]
    assert examples
    parser = cli.build_parser()
    for line in examples:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")


def _assert_usage_errors(command: str, cases, capsys) -> None:
    """Each (args, message) case of `indpoly <command> <args>` exits 2 with
    no stdout, the command's own usage line and the message on stderr."""
    for args, message in cases:
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*command.split(), *args])
        assert exit_info.value.code == 2, args
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"usage: indpoly {command} "), err
        assert message in err, err


def test_every_subcommand_refuses_foreign_flags(tmp_path, monkeypatch, capsys):
    # a scan that ran anyway would write its default output file here
    monkeypatch.chdir(tmp_path)
    operands = ("--g1", "family:path:2", "--g2", "family:path:2")
    cases = {
        # flags go after the kind
        "product": [((*operands, "lex"), "argument kind: invalid choice: 'family:path:2'")],
        "product lex": [((*operands, "--root", "7"), "unrecognized arguments: --root 7")],
        "product rooted": [
            (operands, "the following arguments are required: --root"),
            # a mistyped flag is named even when a required one is missing
            ((*operands, "--rot", "1"), "unrecognized arguments: --rot 1"),
        ],
        "scan": [
            (("trees", "--nmax", "3", "--bogus"), "unrecognized arguments: --bogus"),
            (("trees", "--nma", "3"), "unrecognized arguments: --nma 3"),
        ],
        "poly": [
            (("--fam", "path:3"), "unrecognized arguments: --fam path:3"),
            (("--family", "path:3", "--bogus"), "unrecognized arguments: --bogus"),
        ],
        "verify prop41": [(("--gg", "family:path:4"), "unrecognized arguments: --gg family:path:4")],
        "verify prop26": [
            (("--g1", "family:cycle:4", "--g3", "family:cycle:4"),
             "unrecognized arguments: --g3 family:cycle:4"),
        ],
    }
    for command, command_cases in cases.items():
        _assert_usage_errors(command, command_cases, capsys)
    assert list(tmp_path.iterdir()) == []


def _parsers(parser):
    """The parser and every sub-parser below it."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


def test_flag_types_only_convert():
    # a flag's type turns its text into an int, a float or a `poly` source;
    # the library function that takes the value bounds it
    for parser in _parsers(cli.build_parser()):
        for action in parser._actions:
            kind = action.type
            source = (getattr(kind, "__name__", None) == "__add__"
                      and getattr(kind, "__self__", None) in ("file:", "g6:", "family:"))
            assert kind in (None, int, float) or source, (parser.prog, action.dest, kind)


# ---------------------------------------------------------------------------
# poly
# ---------------------------------------------------------------------------


def test_poly_family_gn():
    out = run_json("poly", "--family", "gn:1")
    assert out["coeffs"] == ["1", "3", "1"]
    assert out["alpha"] == 2
    assert out["properties"]["symmetric"] is True
    assert out["properties"]["real_rooted"] is True


def test_poly_family_multipartite():
    out = run_json("poly", "--family", "multipartite:1x26,8")
    assert out["coeffs"] == ["1", "34", "28", "56", "70", "56", "28", "8", "1"]
    assert out["properties"]["unimodal"] is False
    assert out["properties"]["first_violation"]["unimodal"] == 2


def test_poly_g6():
    out = run_json("poly", "--g6", "A_")
    assert out["coeffs"] == ["1", "2"]


def test_poly_file(tmp_path):
    path = tmp_path / "c4.txt"
    path.write_text("4 4\n0 1\n1 2\n2 3\n3 0\n")
    out = run_json("poly", "--file", str(path))
    assert out["coeffs"] == ["1", "4", "2"]


def test_poly_parse_error_exit_2(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 1\n0 9\n")
    proc = run_cli("poly", "--file", str(path))
    assert proc.returncode == 2
    assert "line 2" in proc.stderr


@pytest.mark.parametrize("sep", [b"\n", b"\r\n", b"\r"])
def test_poly_file_line_endings(sep, tmp_path):
    # written in binary, so each ending reaches the parser unchanged
    lines = [b"# C4", b"4 4", b"", b"0 1", b"1 2", b"2 3", b"3 0"]
    path = tmp_path / "c4.txt"
    path.write_bytes(sep.join(lines) + sep)
    assert run_json("poly", "--file", str(path))["coeffs"] == ["1", "4", "2"]
    lines[-1] = b"3 9"
    path.write_bytes(sep.join(lines))
    proc = run_cli("poly", "--file", str(path))
    assert proc.returncode == 2
    assert "line 7: vertex index out of range" in proc.stderr


def test_poly_file_torn_line_endings_exit_2(tmp_path):
    # "\r\n" ends line 1 and "\r\r" leaves a blank line 3, so the second
    # edge is on line 4
    path = tmp_path / "torn.txt"
    path.write_bytes(b"2 1\r\n0 1\r\r0 1\n")
    proc = run_cli("poly", "--file", str(path))
    assert proc.returncode == 2
    assert "line 4: more than 1 edge lines" in proc.stderr


def test_poly_missing_file_exit_4(tmp_path):
    for path in (str(tmp_path / "absent.txt"), ""):
        proc = run_cli("poly", "--file", path)
        assert proc.returncode == 4, path


def test_poly_bad_g6_exit_2():
    proc = run_cli("poly", "--g6", "A_zzz")
    assert proc.returncode == 2


def test_poly_bad_family_exit_2():
    for spec in ("noidea:3", "multipartite:1x-1", "multipartite:1x2x3"):
        proc = run_cli("poly", "--family", spec)
        assert proc.returncode == 2, spec


def test_family_cap_checked_before_edges(monkeypatch):
    def refuse(cls, n, edges):
        raise AssertionError(f"edge list built for {n} vertices")

    monkeypatch.setattr(Graph, "from_edges", classmethod(refuse))
    for source in ("family:multipartite:1x65", "family:path:65", "family:multipartite:2x30,1x5"):
        with pytest.raises(CapacityError):
            load_graph_source(source)


def test_poly_family_arity_exit_2():
    for spec, message in (
        ("path:", "family path takes 1 parameter, got 0"),
        ("cycle:3,4", "family cycle takes 1 parameter, got 2"),
        ("t:1", "family tree_t takes 0 parameters, got 1"),
    ):
        proc = run_cli("poly", "--family", spec)
        assert proc.returncode == 2
        assert proc.stderr == f"error: {message}\n"


def test_every_family_name_parses_to_its_kind():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text().lower()
    for kind, family in FAMILIES.items():
        params = (1, 1, 2) if family.arity is None else (3,) * family.arity
        args = "1x2,2" if family.arity is None else ",".join(map(str, params))
        for name in (kind, *family.aliases):
            token = f" {name.upper()} :{args}" if args else name.upper()
            assert parse_family_token(token) == (name.upper(), list(params)), token
            assert load_graph_source(f"family:{token}") == build_family(kind, *params), token
            assert f"`{name}`" in readme, f"README does not name {name}"


def _cap_argv(source, n, tmp_path):
    """argv for an input of n vertices given through the named source."""
    if source == "family":
        return ["poly", "--family", f"path:{n}"]
    if source == "file":
        path = tmp_path / "path.txt"
        path.write_text(f"{n} {n - 1}\n" + "".join(f"{v} {v + 1}\n" for v in range(n - 1)))
        return ["poly", "--file", str(path)]
    if source == "g6":
        return ["poly", "--g6", emit_graph6(Graph(n, (0,) * n))]
    g1, g2 = {64: ("path:8", "complete:8"), 65: ("path:13", "complete:5")}[n]
    return ["product", "lex", "--g1", f"family:{g1}", "--g2", f"family:{g2}"]


@pytest.mark.parametrize("source", ["family", "file", "g6", "product"])
def test_vertex_cap_is_one_contract(source, tmp_path):
    # whatever the input format, 64 vertices run and 65 exit 3 with no output
    proc = run_cli(*_cap_argv(source, 64, tmp_path))
    assert proc.returncode == 0, proc.stderr
    proc = run_cli(*_cap_argv(source, 65, tmp_path))
    assert proc.returncode == 3, proc.stderr
    assert "has 65 vertices, which exceeds the cap of 64" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("params", ["1x65", "0x65"])
def test_family_parameter_count_cap_exits_3(params):
    # 65 parts are refused before the list of them is built; 0x65 has no
    # valid part, so the message names the parameter count, not a vertex count
    proc = run_cli("poly", "--family", f"multipartite:{params}")
    assert proc.returncode == 3, proc.stderr
    assert "has 65 parameters, which exceeds the cap of 64" in proc.stderr
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# product
# ---------------------------------------------------------------------------


def test_product_lex():
    out = run_json(
        "product", "lex", "--g1", "family:complete:2", "--g2", "family:complete:2"
    )
    assert out["identity_ok"] is True
    assert out["coeffs"] == ["1", "4"]
    assert out["formula_coeffs"] == ["1", "4"]


def test_product_rooted():
    out = run_json(
        "product", "rooted", "--g1", "family:path:3", "--g2", "family:path:2",
        "--root", "0",
    )
    assert out["identity_ok"] is True
    assert out["coeffs"] == ["1", "6", "10", "5"]


def test_product_rooted_requires_root():
    proc = run_cli("product", "rooted", "--g1", "family:path:3", "--g2", "family:path:2")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: indpoly product rooted ")
    assert "the following arguments are required: --root" in proc.stderr


def test_product_union():
    out = run_json(
        "product", "union", "--g1", "family:complete:1", "--g2", "family:complete:1"
    )
    assert out["coeffs"] == ["1", "2", "1"]
    assert out["identity_ok"] is True


def test_product_join():
    out = run_json(
        "product", "join", "--g1", "family:empty:2", "--g2", "family:empty:3"
    )
    assert out["coeffs"] == ["1", "5", "4", "1"]


def _count_engine_calls(monkeypatch) -> list:
    """Record each call of the engine entry point made through the modules
    that the CLI solves with."""
    from indpoly import products, verify

    calls = []
    for module in (cli, products, verify):
        def counted(*args, _engine=module.independence_polynomial, **kwargs):
            calls.append(args)
            return _engine(*args, **kwargs)

        monkeypatch.setattr(module, "independence_polynomial", counted)
    return calls


@pytest.mark.parametrize("kind", cli.PRODUCTS)
def test_product_over_cap_solves_no_operand(kind, monkeypatch, capsys):
    # 33 + 32 vertices: over the cap for every kind, the sum being the least
    calls = _count_engine_calls(monkeypatch)
    argv = ["product", kind, "--g1", "family:path:33", "--g2", "family:path:32"]
    if kind == "rooted":
        argv += ["--root", "0"]
    assert cli.main(argv) == 3
    assert calls == []
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: product has ") and err.endswith("exceeds the cap of 64\n")


# every flag some product kind declares, with a value it takes
_PRODUCT_FLAGS = {"--g1": "family:path:2", "--g2": "family:path:3", "--root": "0"}
# flags no kind declares: a verify flag, and abbreviations of a product flag
_NOT_PRODUCT_FLAGS = {"--g": "family:path:4", "--ro": "0", "--nmax": "3"}


@pytest.mark.parametrize("kind", cli.PRODUCTS)
def test_product_kind_takes_only_its_flags(kind, capsys):
    required = ("--g1", "--g2", "--root") if kind == "rooted" else ("--g1", "--g2")
    argv = tuple(item for flag in required for item in (flag, _PRODUCT_FLAGS[flag]))
    parsed = cli.build_parser().parse_args(["product", kind, *argv])
    fields = {flag[2:]: _PRODUCT_FLAGS[flag] for flag in required}
    if kind == "rooted":
        fields["root"] = 0
    assert vars(parsed) == {"command": "product", "kind": kind, "func": cli.cmd_product, **fields}
    foreign = {**_PRODUCT_FLAGS, **_NOT_PRODUCT_FLAGS}.items()
    cases = [((*argv, flag, value), f"unrecognized arguments: {flag} {value}")
             for flag, value in foreign if flag not in required]
    for flag in required:
        i = argv.index(flag)
        cases.append((argv[:i] + argv[i + 2:], f"the following arguments are required: {flag}"))
    _assert_usage_errors(f"product {kind}", cases, capsys)


def test_product_capacity_exit_3():
    proc = run_cli(
        "product", "join", "--g1", "family:empty:40", "--g2", "family:empty:40"
    )
    assert proc.returncode == 3


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


# every flag some verify suite declares, with a value it takes
_VERIFY_FLAGS = {
    "--samples": "5", "--seed": "1", "--g1": "family:path:2", "--g2": "family:path:3",
    "--g": "family:path:4", "--tree": "T1", "--root": "2", "--nmax": "3", "--n": "4",
    "--tol": "0.1",
}
# suite -> (a valid argv, the namespace fields it parses to, the required flags)
_SUITE_ARGS = {
    "thm22": ((), {"samples": 500, "seed": cli.DEFAULT_SEED}, ()),
    "prop26": (
        ("--g1", "family:path:2", "--g2", "family:path:3"),
        {"g1": "family:path:2", "g2": "family:path:3"},
        ("--g1", "--g2"),
    ),
    "prop41": (("--g", "family:path:4"), {"g": "family:path:4", "tree": "T", "root": 1}, ("--g",)),
    "thm52": ((), {"nmax": 25}, ()),
    "gn": ((), {"nmax": 25}, ()),
    "closedform": ((), {"n": 11, "tol": 1e-6}, ()),
}


@pytest.mark.parametrize("suite", cli.SUITES)
def test_verify_suite_takes_only_its_flags(suite, capsys):
    argv, fields, required = _SUITE_ARGS[suite]
    parsed = cli.build_parser().parse_args(["verify", suite, *argv])
    assert vars(parsed) == {"command": "verify", "suite": suite, "func": cli.cmd_verify, **fields}
    # a flag of another suite, even one that starts like its own (--n, --g), is refused
    foreign = [(flag, value) for flag, value in _VERIFY_FLAGS.items() if flag[2:] not in fields]
    assert foreign
    cases = [((*argv, *pair), f"unrecognized arguments: {' '.join(pair)}") for pair in foreign]
    for flag in required:
        i = argv.index(flag)
        cases.append((argv[:i] + argv[i + 2:], f"the following arguments are required: {flag}"))
    for args, message in cases:
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["verify", suite, *args])
        assert exit_info.value.code == 2, args
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"usage: indpoly verify {suite} ")
        assert message in err
    args, message = cases[0]
    proc = run_cli("verify", suite, *args)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(f"usage: indpoly verify {suite} ") and message in proc.stderr


def test_verify_thm52():
    out = run_json("verify", "thm52", "--nmax", "20")
    assert out["ok"] is True
    assert len(out["results"]) == 21


def test_verify_prop41():
    out = run_json(
        "verify", "prop41", "--g", "family:path:4", "--tree", "T", "--root", "4"
    )
    assert out["ok"] is True
    assert out["conclusion_checked"] is True


def test_verify_prop41_tree_labels(capsys):
    for tree, condition in (("T", "T:root1:real-rooted"), ("t", "T:root1:real-rooted"),
                            ("T1", "T1:root1:log-concave"), ("t1", "T1:root1:log-concave")):
        assert cli.main(["verify", "prop41", "--g", "family:path:4", "--tree", tree]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["condition"] == f"rooted-tree-product:{condition}", tree
    for tree in ("path", "T₁"):
        assert cli.main(["verify", "prop41", "--g", "family:path:4", "--tree", tree]) == 2
        assert capsys.readouterr() == ("", "error: tree must be 'T' or 'T1'\n")


def test_verify_prop41_hypothesis_violation_not_fatal():
    # I(K_{1,3}) is not real-rooted, so the hypothesis fails; still exit 0
    out = run_json("verify", "prop41", "--g", "family:star:3", "--root", "1")
    assert out["hypothesis_ok"] is False


def test_verify_prop41_unmet_hypothesis_is_a_verdict():
    proc = run_cli("verify", "prop41", "--g", "family:star:3")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == '{"hypothesis_ok": false, "ok": true, "suite": "prop41"}\n'


def test_verify_closedform():
    out = run_json("verify", "closedform", "--n", "11", "--tol", "1e-6")
    assert out["ok"] is True


def test_verify_gn():
    out = run_json("verify", "gn", "--nmax", "8")
    assert out["ok"] is True
    assert all(row["match"] for row in out["results"])


def test_verify_gn_over_cap_solves_nothing(monkeypatch, capsys):
    # G_32 is the first G_n over the cap; every G_n is built before any is solved
    calls = _count_engine_calls(monkeypatch)
    for nmax in ("32", "40"):
        assert cli.main(["verify", "gn", "--nmax", nmax]) == 3
        assert capsys.readouterr() == (
            "", "error: family pendant_ladder_g has 65 vertices, which exceeds the cap of 64\n"
        )
    assert calls == []


def test_verify_prop41_over_cap_solves_nothing(monkeypatch, capsys):
    # I(path:13) is real-rooted and I(multipartite:10,3) is not; either way
    # the product with T or T1 is over the cap and refused before I(g) is solved
    from indpoly import verify

    def no_solve(g):
        raise AssertionError("a graph was solved before the product's cap check")

    monkeypatch.setattr(verify, "independence_polynomial", no_solve)
    for g in ("family:path:13", "family:multipartite:10,3"):
        for tree, size in (("T", 5), ("T1", 6)):
            assert cli.main(["verify", "prop41", "--g", g, "--tree", tree, "--root", "2"]) == 3
            assert capsys.readouterr() == (
                "", f"error: product has {13 * size} vertices, which exceeds the cap of 64\n"
            )


def test_verify_thm22_failure_exits_1(monkeypatch, capsys):
    from indpoly import IntPoly, products

    monkeypatch.setattr(products, "lex_poly", lambda i1, i2: IntPoly((1, 0, 1)))
    assert cli.main(["verify", "thm22", "--samples", "3"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is False
    assert [len(result["failures"]) for result in out["results"].values()] == [3, 3]


def test_verify_negative_nmax_exit_2():
    for suite in ("thm52", "gn"):
        proc = run_cli("verify", suite, "--nmax", "-1")
        assert proc.returncode == 2, suite
        assert proc.stdout == ""
        assert proc.stderr == "error: n_max must be >= 0\n"


def test_verify_thm22_samples_below_one_exit_2():
    for samples in ("0", "-5"):
        proc = run_cli("verify", "thm22", "--samples", samples)
        assert proc.returncode == 2, samples
        assert proc.stdout == ""
        assert proc.stderr == f"error: samples must be at least 1, got {samples}\n"


def test_non_numeric_option_values_exit_2(tmp_path):
    out = tmp_path / "trees.jsonl"
    cases = [
        (("verify", "thm22", "--samples", "abc"),
         "indpoly verify thm22: error: argument --samples: invalid int value: 'abc'"),
        (("verify", "closedform", "--tol", "xyz"),
         "indpoly verify closedform: error: argument --tol: invalid float value: 'xyz'"),
        (("scan", "trees", "--jobs", "x", "--out", str(out)),
         "indpoly scan: error: argument --jobs: invalid int value: 'x'"),
    ]
    for args, message in cases:
        proc = run_cli(*args)
        assert proc.returncode == 2, args
        assert proc.stdout == ""
        assert proc.stderr.splitlines()[-1] == message
        assert "_positive" not in proc.stderr
    assert not out.exists()


def test_verify_caps_exit_2_before_any_work():
    cases = [
        (("thm22", "--samples", "100001"), "error: samples must be at most 100000, got 100001\n"),
        (("thm22", "--samples", "200000"), "error: samples must be at most 100000, got 200000\n"),
        (("thm52", "--nmax", "101"), "error: n_max must be <= 100\n"),
        (("closedform", "--n", "801"), "error: index must be <= 800\n"),
        (("closedform", "--n", "809"), "error: index must be <= 800\n"),
    ]
    for args, message in cases:
        proc = run_cli("verify", *args, timeout=30)
        assert proc.returncode == 2, args
        assert proc.stdout == ""
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr


def test_verify_caps_themselves_accepted(capsys):
    parser = cli.build_parser()
    assert parser.parse_args(["verify", "thm22", "--samples", "100000"]).samples == 100000
    assert cli.main(["verify", "thm52", "--nmax", "100"]) == 0
    assert len(json.loads(capsys.readouterr().out)["results"]) == 101


def test_verify_thm22_sampling_budget_exhausted_exit_3(monkeypatch, capsys):
    from indpoly import verify

    monkeypatch.setattr(verify, "MAX_ATTEMPTS", 10)
    assert cli.main(["verify", "thm22", "--samples", "500"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: hypothesis sampling did not converge: ")


def test_verify_closedform_tol_not_finite_positive_exit_2():
    for tol, shown in (("nan", "nan"), ("inf", "inf"), ("-1", "-1.0"), ("0", "0.0")):
        proc = run_cli("verify", "closedform", "--tol", tol)
        assert proc.returncode == 2, tol
        assert proc.stdout == ""
        assert proc.stderr == f"error: tol must be finite and positive, got {shown}\n"


def test_emit_refuses_nan(capsys):
    with pytest.raises(ValueError):
        cli._emit({"tol": float("nan")})
    assert capsys.readouterr().out == ""


def test_verify_prop26():
    out = run_json(
        "verify", "prop26", "--g1", "family:cycle:4", "--g2", "family:cycle:4"
    )
    assert out["ok"] is True and out["holds"] is True


def test_verify_thm22_quick():
    out = run_json("verify", "thm22", "--samples", "40", "--seed", "7")
    assert out["ok"] is True
    assert out["results"]["condition_i"]["samples"] == 40


def test_verify_deterministic_output():
    a = run_cli("verify", "thm22", "--samples", "25")
    b = run_cli("verify", "thm22", "--samples", "25")
    assert a.stdout == b.stdout and a.returncode == b.returncode == 0


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def test_scan_trees_small(tmp_path):
    out_path = tmp_path / "trees.jsonl"
    proc = run_cli("scan", "trees", "--nmax", "5", "--out", str(out_path))
    assert proc.returncode == 0, proc.stderr
    summary = proc.stdout.strip().splitlines()
    assert summary == [
        "n=2: 1 trees, 0 violations",
        "n=3: 1 trees, 0 violations",
        "n=4: 2 trees, 0 violations",
        "n=5: 3 trees, 0 violations",
    ]
    rows = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert len(rows) == 7
    assert rows[0]["coeffs"] == ["1", "2"]
    assert all(row["unimodal"] for row in rows)
    # a fresh scan replaces a longer file rather than appending to it
    whole = out_path.read_bytes()
    assert run_cli("scan", "trees", "--nmax", "4", "--out", str(out_path)).returncode == 0
    assert out_path.read_bytes() == b"".join(whole.splitlines(keepends=True)[:4])


def test_scan_trees_deterministic_and_parallel(tmp_path):
    out1, out2, out3 = (tmp_path / name for name in ("a.jsonl", "b.jsonl", "c.jsonl"))
    # size 9 has 47 trees, so a worker pool sends it in more than one chunk
    p1 = run_cli("scan", "trees", "--nmax", "9", "--out", str(out1))
    p2 = run_cli("scan", "trees", "--nmax", "9", "--out", str(out2))
    p3 = run_cli("scan", "trees", "--nmax", "9", "--out", str(out3), "--jobs", "2")
    assert p1.returncode == p2.returncode == p3.returncode == 0
    assert p1.stdout == p2.stdout == p3.stdout
    assert out1.read_bytes() == out2.read_bytes() == out3.read_bytes()


# sha256 of `scan trees --nmax 10`: the JSONL file and stdout, recorded
# before the scan stopped building a Graph per tree
SCAN10_JSONL_SHA256 = "0531b00aec91cc2b7709fc597429befc8144243d33d38254f45bf24e014af323"
SCAN10_STDOUT_SHA256 = "bb20554e39619f9c1a9f4aed7b964017c5bf68a90e40d1eaa235f08237ded088"


def test_scan_trees_output_is_pinned(tmp_path):
    out_path = tmp_path / "trees.jsonl"
    proc = run_cli("scan", "trees", "--nmax", "10", "--out", str(out_path))
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == SCAN10_JSONL_SHA256
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == SCAN10_STDOUT_SHA256


def test_scan_resume_matches_one_scan(tmp_path):
    whole, resumed = tmp_path / "whole.jsonl", tmp_path / "resumed.jsonl"
    assert run_cli("scan", "trees", "--nmax", "7", "--out", str(whole)).returncode == 0
    assert run_cli("scan", "trees", "--nmax", "6", "--out", str(resumed)).returncode == 0
    proc = run_cli("scan", "trees", "--nmin", "7", "--nmax", "7", "--out", str(resumed))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "n=7: 11 trees, 0 violations\n"
    assert resumed.read_bytes() == whole.read_bytes()
    # resuming over sizes already written replaces them instead of repeating them
    proc = run_cli("scan", "trees", "--nmin", "6", "--nmax", "7", "--out", str(resumed))
    assert proc.returncode == 0, proc.stderr
    assert resumed.read_bytes() == whole.read_bytes()


def test_scan_flushes_each_size_before_the_next_is_generated(tmp_path, monkeypatch, capsys):
    # a scan killed while size 9's codes are generated has sizes 2-8 in
    # --out and on stdout, so it resumes from --nmin 9
    from indpoly import verify

    out, copy = tmp_path / "trees.jsonl", tmp_path / "copy.jsonl"
    coded_level_sequences = verify._coded_level_sequences
    seen = []

    def watched(n):
        if n == 9:
            seen.append((out.read_bytes(), capsys.readouterr().out))
        return coded_level_sequences(n)

    monkeypatch.setattr(verify, "_coded_level_sequences", watched)
    assert cli.main(["scan", "trees", "--nmax", "9", "--out", str(out)]) == 0
    [(written, printed)] = seen
    whole = out.read_bytes()
    assert written == b"".join(line for line in whole.splitlines(keepends=True)
                               if json.loads(line)["n"] <= 8)
    assert printed.endswith("n=8: 23 trees, 0 violations\n")
    copy.write_bytes(written)
    assert cli.main(["scan", "trees", "--nmin", "9", "--nmax", "9", "--out", str(copy)]) == 0
    assert copy.read_bytes() == whole


def test_scan_resume_refuses_foreign_file(tmp_path):
    path = tmp_path / "notes.txt"
    path.write_text("not a scan\n")
    proc = run_cli("scan", "trees", "--nmin", "3", "--nmax", "4", "--out", str(path))
    assert proc.returncode == 2
    assert "line 1" in proc.stderr
    assert path.read_text() == "not a scan\n"


def test_scan_resume_refuses_incomplete_size(tmp_path):
    torn = tmp_path / "torn.jsonl"
    assert run_cli("scan", "trees", "--nmax", "2", "--out", str(torn)).returncode == 0
    torn.write_bytes(torn.read_bytes()[:-5])
    before = torn.read_bytes()
    proc = run_cli("scan", "trees", "--nmin", "3", "--nmax", "7", "--out", str(torn))
    assert proc.returncode == 2
    assert "size 2 is incomplete (0 of 1 trees)" in proc.stderr
    assert torn.read_bytes() == before
    # a size missing between complete ones is named too
    gap = tmp_path / "gap.jsonl"
    assert run_cli("scan", "trees", "--nmax", "4", "--out", str(gap)).returncode == 0
    before = gap.read_bytes()
    proc = run_cli("scan", "trees", "--nmin", "6", "--nmax", "7", "--out", str(gap))
    assert proc.returncode == 2
    assert "size 5 is incomplete (0 of 3 trees)" in proc.stderr
    assert gap.read_bytes() == before
    # a missing file keeps no line, so its size 2 is incomplete; none is made
    missing = tmp_path / "missing.jsonl"
    proc = run_cli("scan", "trees", "--nmin", "5", "--nmax", "6", "--out", str(missing))
    assert proc.returncode == 2
    assert "size 2 is incomplete (0 of 1 trees)" in proc.stderr
    assert not missing.exists()


def test_scan_resume_refuses_a_repeated_or_extra_tree(tmp_path):
    # a kept line must be the scan's own tree: the first size where one is not
    # is named, and resuming from it keeps only lines that are
    whole = tmp_path / "whole.jsonl"
    assert run_cli("scan", "trees", "--nmax", "6", "--out", str(whole)).returncode == 0
    lines = whole.read_bytes().splitlines(keepends=True)  # sizes 2, 3, 4 x2, 5 x3, 6 x6
    other = lines[1].replace(b'"code": "KCgpKCkp"', b'"code": "KCgpKQ=="')  # a larger code
    # the last size-6 tree, the star, with a longer code that still sorts last
    wrong = lines[-1].replace(b'"code": "KCgpKCkoKSgpKCkp"', b'"code": "KCgpKCkoKSgpKCkpKCk="')
    wrong = wrong.replace(b'"coeffs": ["1", "6", "10", "10", "5", "1"]', b'"coeffs": ["1", "999"]')
    assert wrong.count(b'"1", "999"') == 1
    for name, kept, message in (
        # the first size-4 line copied over the second: one tree lost, counts intact
        ("copied", [*lines[:3], lines[2], *lines[4:]],
         "line 4 is not tree 2 of size 4; resume with --nmin 4"),
        ("repeated", [*lines[:2], lines[1], *lines[2:]],
         "line 3 is not tree 1 of size 4; resume with --nmin 4"),
        ("swapped", [lines[0], lines[1], lines[3], lines[2], *lines[4:]],
         "line 3 is not tree 1 of size 4; resume with --nmin 4"),
        ("extra", [*lines[:2], other, *lines[2:]],
         "line 3 is not tree 1 of size 4; resume with --nmin 4"),
        ("wrong", [*lines[:-1], wrong], "line 13 is not tree 6 of size 6; resume with --nmin 6"),
    ):
        path = tmp_path / f"{name}.jsonl"
        path.write_bytes(b"".join(kept))
        proc = run_cli("scan", "trees", "--nmin", "7", "--nmax", "7", "--out", str(path))
        assert (proc.returncode, proc.stdout) == (2, ""), name
        assert proc.stderr == f"error: {path}: {message}\n", name
        assert path.read_bytes() == b"".join(kept), name


def test_scan_io_error_exit_4(tmp_path):
    proc = run_cli(
        "scan", "trees", "--nmax", "3", "--out", str(tmp_path / "no" / "dir" / "x.jsonl")
    )
    assert proc.returncode == 4


def test_scan_bad_bounds_exit_2(tmp_path):
    proc = run_cli("scan", "trees", "--nmax", "20")
    assert proc.returncode == 2
    out = tmp_path / "trees.jsonl"
    for jobs in ("0", "-4"):
        proc = run_cli("scan", "trees", "--nmax", "4", "--jobs", jobs, "--out", str(out))
        assert proc.returncode == 2, jobs
        assert proc.stdout == ""
        assert proc.stderr == f"error: jobs must be at least 1, got {jobs}\n"
        assert not out.exists()
