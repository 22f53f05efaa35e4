"""The benchmark's tracer (perfbench/trace_run.py) counts calls to code
objects it names by module, function and nested function.  A target that
no longer resolves reads 0 rather than failing, so every name is checked
here against the package."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_tracer_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from trace_run import COUNTS, LAYERS, _code_object, _resolve

    modules = {name: importlib.import_module(f"indpoly.{name}")
               for name in ("graphs", "engine", "polynomials", "products", "verify", "cli")}
    for targets in LAYERS.values():
        for module_name, dotted in targets:
            owner, name = _resolve(modules[module_name], dotted)
            assert callable(getattr(owner, name)), (module_name, dotted)
    for metric, (module_name, dotted, nested) in COUNTS.items():
        code = _code_object(modules, module_name, dotted, nested)
        assert code is not None, metric
        assert code.co_name == (nested or dotted.split(".")[-1]), metric
