"""Every function the benchmark traces by name exists in gjg.

The perfbench harness wraps ``module.attr`` targets from outside the
package; renaming or deleting one breaks only its slow smoke runs, so the
names are checked here.  The harness package is loaded from its path
under a private name, with nothing under perfbench/ changed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

GJGBENCH = Path(__file__).resolve().parents[1] / "perfbench" / "gjgbench"


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
