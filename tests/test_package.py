"""The package namespace: every name in gjg.__all__, including the oracle's,
which load on first access; and the named-tuple records the library returns."""

import ast
import importlib
import inspect
import pickle

import pytest

import gjg

ORACLE_NAMES = [
    "DEFAULT_VERTEX_BUDGET", "ExplicitGraph", "OracleReport", "build_graph",
    "oracle_diameter", "oracle_distance", "oracle_girth", "oracle_odd_girth",
    "oracle_report",
]


def _imports(name: str) -> set[str]:
    """Every module gjg.<name>'s source imports, anywhere in it; a relative
    import is spelled gjg.<module>."""
    pulled = set()
    for node in ast.walk(ast.parse(inspect.getsource(importlib.import_module(f"gjg.{name}")))):
        if isinstance(node, ast.ImportFrom) and node.level:
            pulled.update([f"gjg.{node.module}"] if node.module else (f"gjg.{a.name}" for a in node.names))
        elif isinstance(node, ast.ImportFrom):
            pulled.add(node.module)
        elif isinstance(node, ast.Import):
            pulled.update(a.name for a in node.names)
    return pulled


# The spine of the design.  The ground truths (oracle, scheme) read no
# closed form and no certificate, the certificates (witness) no closed form
# and no ground truth, and the closed forms (formulas) neither of the other
# two.  Where a module's whole import list is fixed, the row states it.
@pytest.mark.parametrize("name, never, only", [
    ("oracle", {"formulas", "witness", "graphio", "scheme"}, None),
    ("scheme", {"formulas", "witness", "oracle"}, {"__future__", "math", "gjg.params", "gjg.errors"}),
    ("witness", {"formulas", "oracle", "scheme", "sweep"},
     {"__future__", "enum", "typing", "gjg.params", "gjg.errors"}),
    ("formulas", {"witness", "oracle", "scheme"}, None),
], ids=["oracle", "scheme", "witness", "formulas"])
def test_module_spine(name, never, only):
    pulled = _imports(name)
    assert not {m for m in pulled if m.startswith("gjg.") and m.split(".")[1] in never}, pulled
    if only is not None:
        assert pulled <= only, pulled


def test_graph_block_reads_no_closed_form():
    # The graph block checks the graph and the certificates against each
    # other; only the report block compares with the closed forms.
    tree = ast.parse(inspect.getsource(importlib.import_module("gjg.sweep")))
    graph_block = {"_run_checks", "_check_common_neighbors", "_check_pairing", "_check_rank_roundtrip"}
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name in graph_block]
    assert {f.name for f in functions} == graph_block
    named = {(f.name, node.id) for f in functions for node in ast.walk(f)
             if isinstance(node, ast.Name) and node.id in ("formulas", "invariant_report")}
    assert named == set()


def test_each_geodesic_and_closed_certificate_is_closed_once():
    # Every geodesic ends through the one common-neighbour step in
    # _geodesic, and one helper verifies each closed certificate.
    tree = ast.parse(inspect.getsource(importlib.import_module("gjg.witness")))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def callers(name):
        return [f for f, node in functions.items() for call in ast.walk(node)
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == name]

    assert callers("_common_neighbor").count("_geodesic") == 1
    assert "_even_route" not in callers("_common_neighbor")
    assert callers("verify_walk") == ["_verified"]


def test_oracle_binds_no_intersection_range():
    # The oracle keys its classes by what it measures, never by the range
    # of possible intersection sizes.
    assert not hasattr(importlib.import_module("gjg.oracle"), "intersection_range")


def test_sweep_reads_no_private_oracle_name():
    # The oracle decides how it measures, its sources among it; the sweep
    # asks only through public names.
    tree = ast.parse(inspect.getsource(importlib.import_module("gjg.sweep")))
    private = [node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id == "oracle" and node.attr.startswith("_")]
    private += [a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and (node.module or "").endswith("oracle") for a in node.names if a.name.startswith("_")]
    assert private == []


def test_every_exported_name_resolves():
    assert [name for name in gjg.__all__ if not hasattr(gjg, name)] == []


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from gjg import *", namespace)
    assert set(gjg.__all__) <= namespace.keys()


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_oracle_name_is_the_oracles_own_object(name):
    assert name in gjg.__all__
    assert getattr(gjg, name) is getattr(gjg.oracle, name)


def test_dir_lists_the_oracle_names():
    assert set(ORACLE_NAMES) | {"oracle"} <= set(dir(gjg))


def test_unknown_name_raises_attribute_error_naming_gjg():
    with pytest.raises(AttributeError, match="module 'gjg' has no attribute 'no_such_name'"):
        gjg.no_such_name


def test_oracle_reachable_after_a_bare_import(fresh):
    code = ("import sys, gjg; before = 'gjg.oracle' in sys.modules\n"
            "print(before, gjg.oracle.__name__, gjg.DEFAULT_VERTEX_BUDGET)")
    assert fresh(code) == ["False", "gjg.oracle", "20000"]


def test_first_access_from_eight_threads_gets_one_object(fresh):
    code = ("import threading, gjg\n"
            "barrier, got = threading.Barrier(8), []\n"
            "def first():\n"
            "    barrier.wait()\n"
            "    got.append(gjg.build_graph)\n"
            "threads = [threading.Thread(target=first) for _ in range(8)]\n"
            "for t in threads: t.start()\n"
            "for t in threads: t.join()\n"
            "print(len(got), len(set(map(id, got))), got[0] is gjg.oracle.build_graph)")
    assert fresh(code) == ["8", "1", "True"]


# Two equal but distinct instances of each named-tuple record, and a field
# with a value to put in it.
RECORDS = {
    "Parameters": (lambda: gjg.make_parameters(10, 4, 2), "k", 3),
    "InvariantReport": (lambda: gjg.report_for(9, 4, 1), "girth", 4),
    "OracleReport": (lambda: gjg.oracle_report(gjg.make_parameters(5, 2, 0)), "connected", False),
    "Walk": (lambda: gjg.geodesic(gjg.make_parameters(10, 4, 2), (0, 1, 2, 3), (0, 4, 5, 6)),
             "claimed_length", 1),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_fields_cannot_be_set(name):
    make, field, value = RECORDS[name]
    r = make()
    with pytest.raises(AttributeError):
        setattr(r, field, value)
    assert getattr(r, field) != value


@pytest.mark.parametrize("name", RECORDS)
def test_record_survives_a_pickle_round_trip(name):
    # A measured report crosses the sweep's process pool in TripleResult.measured.
    r = RECORDS[name][0]()
    back = pickle.loads(pickle.dumps(r))
    assert back == r and type(back) is type(r)


@pytest.mark.parametrize("name", ["Parameters", "Walk"])
def test_equal_records_hash_equal(name):
    make = RECORDS[name][0]
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)


def test_report_with_a_dict_field_is_unhashable():
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(gjg.report_for(9, 4, 1))


@pytest.mark.parametrize("name", RECORDS)
def test_replace_keeps_the_record_type(name):
    make, field, value = RECORDS[name]
    r = make()
    changed = r._replace(**{field: value})
    assert type(changed) is getattr(gjg, name)
    assert getattr(changed, field) == value and changed != r == make()


def test_one_report_record_serves_both_ground_truths():
    assert gjg.OracleReport is gjg.InvariantReport


@pytest.mark.parametrize("triple, connected", [((5, 2, 0), True), ((6, 3, 0), False)],
                         ids=["J(5,2,0)", "J(6,3,0)"])
def test_only_the_oracle_reports_connectivity(triple, connected):
    p = gjg.make_parameters(*triple)
    assert gjg.invariant_report(p).connected is None
    assert gjg.oracle_report(p).connected is connected


def test_record_equals_the_plain_tuple_of_its_fields():
    assert gjg.make_parameters(10, 4, 2) == (10, 4, 2, gjg.GraphClass.STANDARD)
