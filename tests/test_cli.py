import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from indpoly import cli
from indpoly.cli import load_graph_source, parse_family_token
from indpoly.graphs import FAMILIES, CapacityError, Graph, emit_graph6

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


def test_readme_library_snippet_runs():
    readme = (Path(SRC).parent / "README.md").read_text(encoding="utf-8")
    snippet = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    proc = run_python("-c", snippet + "print(ip.independence_polynomial(g).coeffs)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "(1, 49, 48, 64)\n"


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
        for name in (kind, *family.aliases):
            for spelled in (name, name.upper()):
                assert parse_family_token(spelled).kind == kind, spelled
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
    argv = ["product", kind, "--g1", "family:path:33", "--g2", "family:path:32", "--root", "0"]
    assert cli.main(argv) == 3
    assert calls == []
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: product has ") and err.endswith("exceeds the cap of 64\n")


def test_product_capacity_exit_3():
    proc = run_cli(
        "product", "join", "--g1", "family:empty:40", "--g2", "family:empty:40"
    )
    assert proc.returncode == 3


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


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


def test_verify_prop41_hypothesis_violation_not_fatal():
    # I(K_{1,3}) is not real-rooted, so the hypothesis fails; still exit 0
    out = run_json("verify", "prop41", "--g", "family:star:3", "--root", "1")
    assert out["hypothesis_ok"] is False


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
        assert f"--samples: must be at least 1, got {samples}" in proc.stderr


def test_non_numeric_option_values_exit_2(tmp_path):
    out = tmp_path / "trees.jsonl"
    cases = [
        (("verify", "thm22", "--samples", "abc"), "--samples: must be an integer, got 'abc'"),
        (("verify", "closedform", "--tol", "xyz"), "--tol: must be a number, got 'xyz'"),
        (("scan", "trees", "--jobs", "x", "--out", str(out)), "--jobs: must be an integer, got 'x'"),
    ]
    for args, message in cases:
        proc = run_cli(*args)
        assert proc.returncode == 2, args
        assert proc.stdout == ""
        assert message in proc.stderr
        assert "_positive" not in proc.stderr
    assert not out.exists()


def test_verify_caps_exit_2_before_any_work():
    cases = [
        (("thm22", "--samples", "100001"), "--samples: must be at most 100000, got 100001"),
        (("thm22", "--samples", "200000"), "--samples: must be at most 100000, got 200000"),
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

    scan = functools.partial(verify.composition_soundness_scan, max_attempts=10)
    monkeypatch.setattr(verify, "composition_soundness_scan", scan)
    assert cli.main(["verify", "thm22", "--samples", "500"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: hypothesis sampling did not converge: ")


def test_verify_closedform_tol_not_finite_positive_exit_2():
    for tol in ("nan", "inf", "-1", "0"):
        proc = run_cli("verify", "closedform", "--tol", tol)
        assert proc.returncode == 2, tol
        assert proc.stdout == ""
        assert f"--tol: must be finite and positive, got {tol}" in proc.stderr


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
        assert "--jobs" in proc.stderr
        assert not out.exists()
