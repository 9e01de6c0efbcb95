"""Every gjg name the benchmark traces, patches or reads exists in gjg.

The perfbench harness wraps ``module.attr`` targets from outside the
package, its workloads import and read more names, and its tests patch
more to sabotage a run; renaming or deleting one breaks only the slow
perfbench runs, so the names are checked here.  The harness package is
loaded from its path under a private name, and its workloads and tests
are read as source, with nothing under perfbench/ changed.
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


def _module_reads():
    """(module, name) of every name a workload imports from gjg and every
    ``<gjg module>.<attr>`` it reads, over perfbench/gjgbench/*.py."""
    found = []
    for path in sorted(GJGBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {}  # local name -> the gjg module it names
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gjg":
                for alias in node.names:
                    found.append((node.module, alias.name))
                    bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "gjg":
                        bound[alias.asname or "gjg"] = alias.name if alias.asname else "gjg"
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                head, *rest = ast.unparse(node.value).split(".")
                if head in bound:
                    module = ".".join([bound[head], *rest])
                    if _is_module(module):
                        found.append((module, node.attr))
    return found


def _is_module(name):
    try:
        return importlib.util.find_spec(name) is not None
    except ModuleNotFoundError:
        return False


def _resolves(module, name):
    return hasattr(importlib.import_module(module), name) or _is_module(f"{module}.{name}")


def test_every_name_a_workload_reads_exists_in_gjg():
    reads = set(_module_reads())
    assert {("gjg.sweep", "SweepConfig"), ("gjg.oracle", "build_graph"),
            ("gjg.graphio", "export_graph"), ("gjg.errors", "DegenerateClass"),
            ("gjg", "sweep"), ("gjg.cli", "main")} <= reads
    assert sorted(f"{module}.{name}" for module, name in reads if not _resolves(module, name)) == []
