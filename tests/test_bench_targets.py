"""Every function the benchmark traces or patches by name exists in gjg.

The perfbench harness wraps ``module.attr`` targets from outside the
package, and its tests patch more names to sabotage a run; renaming or
deleting one breaks only the slow perfbench runs, so the names are
checked here.  The harness package is loaded from its path under a
private name, and its tests are read as source, with nothing under
perfbench/ changed.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

GJGBENCH = Path(__file__).resolve().parents[1] / "perfbench" / "gjgbench"
PERFBENCH_TESTS = GJGBENCH.parent / "tests" / "test_perfbench.py"


def _layers(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "_gjgbench", GJGBENCH / "__init__.py", submodule_search_locations=[str(GJGBENCH)]
    )
    package = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "_gjgbench", package)
    spec.loader.exec_module(package)
    return importlib.import_module("_gjgbench.layers")


def test_every_traced_target_is_a_gjg_callable(monkeypatch):
    layers = _layers(monkeypatch)
    targets = layers.targets(layers.Counters())
    assert targets
    missing = [
        f"{t.module}.{t.attr}"
        for t in targets
        if not callable(getattr(importlib.import_module(t.module), t.attr, None))
    ]
    assert missing == []
    assert all(t.module.startswith("gjg.") for t in targets)


def _patched_names():
    """(module, name) of every ``monkeypatch.setattr(gjg.<module>, "<name>", ...)``."""
    found = []
    for node in ast.walk(ast.parse(PERFBENCH_TESTS.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Call) and ast.unparse(node.func) == "monkeypatch.setattr"
                and ast.unparse(node.args[0]).startswith("gjg.")
                and isinstance(node.args[1], ast.Constant)):
            found.append((ast.unparse(node.args[0]), node.args[1].value))
    return found


def test_every_patched_name_is_a_gjg_callable():
    patched = _patched_names()
    assert ("gjg.formulas", "girth") in patched
    missing = [
        f"{module}.{name}"
        for module, name in patched
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []
