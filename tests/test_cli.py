import os
import pathlib
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import gjg.cli
import gjg.compare
import gjg.graphio
import gjg.oracle
import gjg.witness
from gjg.cli import _build_parser, main

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _set_budget_env(monkeypatch, value):
    if value is None:
        monkeypatch.delenv("GJG_MAX_VERTICES", raising=False)
    else:
        monkeypatch.setenv("GJG_MAX_VERTICES", value)


class TestInvariants:
    def test_petersen(self, capsys):
        code, out, _ = run(capsys, "invariants", "--v", "5", "--k", "2", "--i", "0")
        assert code == 0
        assert "girth: 5" in out
        assert "odd_girth: 5" in out
        assert "diameter: 2" in out

    def test_matching(self, capsys):
        code, out, _ = run(capsys, "invariants", "--v", "6", "--k", "3", "--i", "0")
        assert code == 0
        assert "class: matching" in out
        assert "diameter: infinite" in out

    def test_empty_vertex_class(self, capsys):
        code, out, _ = run(capsys, "invariants", "--v", "3", "--k", "3", "--i", "1")
        assert code == 0
        assert "class: empty_vertex_set" in out

    def test_invalid_order_is_domain_error(self, capsys):
        code, _, err = run(capsys, "invariants", "--v", "2", "--k", "3", "--i", "0")
        assert code == 1
        assert "error" in err

    def test_structured_emit(self, capsys):
        code, out, _ = run(capsys, "invariants", "--v", "5", "--k", "2", "--i", "0",
                           "--emit", "structured")
        assert code == 0
        assert out.startswith("schema: gjg.report/1\n")

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["invariants", "--v", "5"])
        assert exc.value.code == 2


class TestDistance:
    def test_by_intersection(self, capsys):
        code, out, _ = run(capsys, "distance", "--v", "10", "--k", "4", "--i", "2",
                           "--x", "1")
        assert code == 0
        assert out.strip() == "2"

    def test_by_sets(self, capsys):
        code, out, _ = run(capsys, "distance", "--v", "8", "--k", "4", "--i", "1",
                           "--a", "0,1,2,3", "--b", "4,5,6,7")
        assert code == 0
        assert out.strip() == "3"

    def test_x_equals_k(self, capsys):
        code, out, _ = run(capsys, "distance", "--v", "10", "--k", "4", "--i", "2",
                           "--x", "4")
        assert code == 0
        assert out.strip() == "0"

    def test_with_witness(self, capsys):
        code, out, _ = run(capsys, "distance", "--v", "8", "--k", "4", "--i", "1",
                           "--a", "0,1,2,3", "--b", "4,5,6,7", "--witness")
        assert code == 0
        assert "geodesic of length 3" in out
        assert "verified: true" in out

    def test_sets_in_any_input_order(self, capsys):
        # The CLI sorts what the user typed; the library never does.
        triple = ["--v", "8", "--k", "4", "--i", "1"]
        unsorted = run(capsys, "distance", *triple, "--a", "3,2,1,0", "--b", "7,6,5,4", "--witness")
        ordered = run(capsys, "distance", *triple, "--a", "0,1,2,3", "--b", "4,5,6,7", "--witness")
        assert unsorted == ordered and unsorted[0] == 0

    def test_repeated_element_exit_1(self, capsys):
        code, out, err = run(capsys, "distance", "--v", "8", "--k", "4", "--i", "1",
                             "--a", "0,1,1,2", "--b", "4,5,6,7")
        assert (code, out) == (1, "")
        assert err == "error: elements must be strictly increasing, got (0, 1, 1, 2)\n"

    def test_out_of_range_exit_1(self, capsys):
        code, _, err = run(capsys, "distance", "--v", "10", "--k", "4", "--i", "2",
                           "--x", "9")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("triple, x, want", [
        ((10, 4, 2), "1", "2"),
        ((6, 3, 0), "1", "infinite"),
        ((7, 4, 2), "1", "2"),
        ((9, 4, 0), "1", "3"),
        ((10**6, 10**4, 1), "5", "2"),
    ], ids=["standard", "matching", "v<2k", "kneser", "large"])
    def test_reads_the_one_closed_form(self, capsys, monkeypatch, triple, x, want):
        # A non-degenerate triple's distance needs no whole report.
        def no_report(p):
            raise AssertionError(f"invariant_report({p}) called")

        monkeypatch.setattr(gjg.cli, "invariant_report", no_report)
        v, k, i = map(str, triple)
        code, out, err = run(capsys, "distance", "--v", v, "--k", k, "--i", i, "--x", x)
        assert (code, out, err) == (0, want + "\n", "")

    @pytest.mark.parametrize("pair", [
        ["--x", "1", "--a", "0,1,2,9"],
        ["--x", "4", "--a", "0,1,2,3", "--b", "0,1,2,3"],
        ["--x", "1", "--b", "0,1,2,9"],
        ["--b", "0,1,2,9"],
    ], ids=["x-a", "x-a-b", "x-b", "b"])
    @pytest.mark.parametrize("cmd, usage", [
        (["distance"], "provide --x or both --a and --b"),
        (["witness", "geodesic"], "geodesic needs --x or both --a and --b"),
    ], ids=["distance", "witness"])
    def test_pair_is_x_or_a_and_b_never_both(self, capsys, cmd, usage, pair):
        code, out, err = run(capsys, *cmd, "--v", "10", "--k", "4", "--i", "2", *pair)
        assert (code, out, err) == (2, "", f"error: {usage}\n")


class TestWitness:
    def test_odd_walk_odd_graph(self, capsys):
        code, out, _ = run(capsys, "witness", "--v", "7", "--k", "3", "--i", "0",
                           "oddwalk")
        assert code == 0
        assert "odd closed walk of length 7" in out
        assert "verified: true" in out

    def test_cycle_girth_four(self, capsys):
        code, out, _ = run(capsys, "witness", "--v", "8", "--k", "4", "--i", "1",
                           "cycle")
        assert code == 0
        assert "cycle of length 4" in out

    def test_cycle_triangle(self, capsys):
        code, out, _ = run(capsys, "witness", "--v", "6", "--k", "2", "--i", "0",
                           "cycle")
        assert code == 0
        assert "cycle of length 3" in out

    def test_non_normalized_triple_lifts(self, capsys):
        code, out, _ = run(capsys, "witness", "--v", "7", "--k", "4", "--i", "2",
                           "cycle")
        assert code == 0
        assert "cycle of length 3" in out
        assert "verified: true" in out

    def test_geodesic_via_x(self, capsys):
        code, out, _ = run(capsys, "witness", "--v", "10", "--k", "4", "--i", "2",
                           "geodesic", "--x", "1")
        assert code == 0
        assert "geodesic of length 2" in out

    @pytest.mark.parametrize("pair", [
        ["--x", "9"],
        ["--a", "1,2"],
        ["--b", "0,1,2,3"],
        ["--x", "9", "--a", "1,2"],
    ], ids=["x", "a", "b", "x-a"])
    @pytest.mark.parametrize("kind", ["cycle", "oddwalk"])
    def test_cycle_and_oddwalk_take_no_pair(self, capsys, kind, pair):
        code, out, err = run(capsys, "witness", "--v", "8", "--k", "4", "--i", "1", kind, *pair)
        assert (code, out, err) == (2, "", f"error: {kind} takes no --x, --a or --b\n")

    def test_degenerate_exit_1(self, capsys):
        code, _, err = run(capsys, "witness", "--v", "6", "--k", "3", "--i", "0",
                           "cycle")
        assert code == 1
        assert "error" in err

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "witness", "--v", "9", "--k", "4", "--i", "1", "oddwalk")
        _, out2, _ = run(capsys, "witness", "--v", "9", "--k", "4", "--i", "1", "oddwalk")
        assert out1 == out2

    @pytest.mark.parametrize("argv", [
        ["witness", "--v", "7", "--k", "3", "--i", "0", "oddwalk"],
        ["distance", "--v", "8", "--k", "4", "--i", "1", "--x", "0", "--witness"],
    ])
    def test_printed_walk_is_verified_once(self, capsys, monkeypatch, argv):
        # Counts the CLI's own calls; odd_closed_walk's self-check inside
        # gjg.witness is the library's guard and is not the CLI's to skip.
        calls = []
        real = gjg.witness.verify_walk

        def counted(p, w):
            if sys._getframe(1).f_globals["__name__"] == "gjg.cli":
                calls.append(w)
            return real(p, w)

        monkeypatch.setattr(gjg.witness, "verify_walk", counted)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "verified: true" in out
        assert len(calls) == 1

    @pytest.mark.parametrize("argv", [
        ["witness", "--v", str(10**18), "--k", "8", "--i", "3", "geodesic", "--x", "2"],
        ["distance", "--v", str(10**18), "--k", "8", "--i", "3", "--x", "0", "--witness"],
    ], ids=["witness", "distance"])
    def test_geodesic_at_v_10_18(self, src_env, argv):
        # A geodesic reads O(k) ground elements, whatever v.  One console
        # process measured at 0.07-0.09 s on a 2-vCPU VM.
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "gjg.cli", *argv], capture_output=True,
                              text=True, env=src_env, timeout=60)
        elapsed = time.perf_counter() - start
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.endswith("verified: true\n")
        assert elapsed < 5, f"{elapsed:.2f} s"

    # A walk that fails verification is never printed: one stderr line and
    # exit 1 from both commands.  distance prints its number first, as it
    # does when the geodesic cannot be built.
    @pytest.mark.parametrize("argv, before", [
        (["witness", "--v", "8", "--k", "4", "--i", "1", "geodesic", "--x", "0"], ""),
        (["distance", "--v", "8", "--k", "4", "--i", "1", "--x", "0", "--witness"], "3\n"),
    ], ids=["witness", "distance"])
    def test_unverified_geodesic_exit_1(self, capsys, monkeypatch, argv, before):
        monkeypatch.setattr(gjg.witness, "verify_walk", lambda p, w: False)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, before)
        assert err == "internal error: constructed walk failed verification\n"

    # shortest_cycle and odd_closed_walk check their own walk and raise
    # AssertionError when it fails; the CLI reports that as a walk that
    # failed verification, not as a traceback.
    @pytest.mark.parametrize("kind", ["cycle", "oddwalk"])
    def test_closed_certificate_failing_its_own_check_exit_1(self, capsys, monkeypatch, kind):
        monkeypatch.setattr(gjg.witness, "verify_walk", lambda p, w: False)
        code, out, err = run(capsys, "witness", "--v", "8", "--k", "4", "--i", "1", kind)
        assert (code, out) == (1, "")
        assert err == "internal error: constructed walk failed verification\n"


class TestExport:
    def test_dimacs_header(self, capsys):
        code, out, _ = run(capsys, "export", "--v", "5", "--k", "2", "--i", "0",
                           "--format", "dimacs")
        assert code == 0
        assert out.startswith("p edge 10 15\n")

    def test_edgelist_to_file(self, capsys, tmp_path):
        target = tmp_path / "matching.txt"
        code, out, _ = run(capsys, "export", "--v", "6", "--k", "3", "--i", "0",
                           "--format", "edgelist", "--out", str(target))
        assert code == 0
        lines = target.read_text().splitlines()
        assert len(lines) == 10 and lines[0] == "0 19"

    def test_unwritable_out_exit_3(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.txt"
        code, out, err = run(capsys, "export", "--v", "5", "--k", "2", "--i", "0",
                             "--format", "edgelist", "--out", str(target))
        assert code == 3
        assert out == "" and err.startswith(f"error: cannot write {target}: ")
        assert not target.parent.exists()

    def test_octahedron_line_count(self, capsys):
        code, out, _ = run(capsys, "export", "--v", "4", "--k", "2", "--i", "1",
                           "--format", "edgelist")
        assert code == 0
        assert len(out.splitlines()) == 12

    def test_budget_exit_1(self, capsys):
        code, _, err = run(capsys, "export", "--v", "16", "--k", "8", "--i", "4",
                           "--format", "edgelist", "--max-vertices", "10")
        assert code == 1
        assert "error" in err

    def test_env_budget_override(self, capsys, monkeypatch):
        monkeypatch.setenv("GJG_MAX_VERTICES", "3")
        code, _, err = run(capsys, "export", "--v", "5", "--k", "2", "--i", "0",
                           "--format", "edgelist")
        assert code == 1
        assert "budget" in err

    def test_bad_env_budget_exit_3(self, capsys, monkeypatch):
        monkeypatch.setenv("GJG_MAX_VERTICES", "abc")
        code, out, err = run(capsys, "export", "--v", "5", "--k", "2", "--i", "0",
                             "--format", "edgelist")
        assert code == 3
        assert out == "" and "GJG_MAX_VERTICES" in err

    @pytest.mark.parametrize("env, flag", [("0", []), (None, ["--max-vertices", "-5"])])
    def test_non_positive_budget_exit_3(self, capsys, monkeypatch, env, flag):
        _set_budget_env(monkeypatch, env)
        code, out, err = run(capsys, "export", "--v", "5", "--k", "2", "--i", "0",
                             "--format", "edgelist", *flag)
        assert code == 3
        assert out == "" and "max_vertices must be positive" in err

    def test_patched_build_graph_gets_the_default_budget(self, capsys, monkeypatch):
        # export reads build_graph and the default budget from gjg.oracle
        # when it runs, so a patch of either reaches it.
        real, calls = gjg.oracle.build_graph, []

        def spy(p, budget):
            calls.append(((p.v, p.k, p.i), budget))
            return real(p, budget)

        _set_budget_env(monkeypatch, None)
        monkeypatch.setattr(gjg.oracle, "build_graph", spy)
        code, out, _ = run(capsys, "export", "--v", "5", "--k", "2", "--i", "0", "--format", "dimacs")
        assert code == 0 and out.startswith("p edge 10 15\n")
        assert calls == [((5, 2, 0), gjg.oracle.DEFAULT_VERTEX_BUDGET)]

    def test_patched_default_budget_applies(self, capsys, monkeypatch):
        _set_budget_env(monkeypatch, None)
        monkeypatch.setattr(gjg.oracle, "DEFAULT_VERTEX_BUDGET", 3)
        code, out, err = run(capsys, "export", "--v", "5", "--k", "2", "--i", "0", "--format", "edgelist")
        assert (code, out) == (1, "")
        assert "budget" in err


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--v-max", "5")
        assert code == 0
        assert "PASS J(5,2,0)" in out
        assert " 0 failed" in out
        assert "FAIL" not in out

    def test_empty_sweep_exit_3(self, capsys):
        code, _, err = run(capsys, "verify", "--v-max", "5", "--max-vertices", "1")
        assert code == 3
        assert "nothing verified" in err

    def test_bad_config_exit_3(self, capsys):
        code, _, err = run(capsys, "verify", "--v-max", "100")
        assert code == 3
        assert "error" in err

    def test_bad_env_budget_exit_3(self, capsys, monkeypatch):
        monkeypatch.setenv("GJG_MAX_VERTICES", "abc")
        code, out, err = run(capsys, "verify", "--v-max", "4")
        assert code == 3
        assert out == "" and "GJG_MAX_VERTICES" in err

    @pytest.mark.parametrize("env, flag", [("0", []), (None, ["--max-vertices", "-5"])])
    def test_non_positive_budget_exit_3(self, capsys, monkeypatch, env, flag):
        _set_budget_env(monkeypatch, env)
        code, out, err = run(capsys, "verify", "--v-max", "4", *flag)
        assert code == 3
        assert out == "" and "max_vertices must be positive" in err

    def test_non_integer_jobs_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--v-max", "4", "--jobs", "abc"])
        assert exc.value.code == 2
        assert "argument --jobs: expected a positive integer or 'auto', got 'abc'" in capsys.readouterr().err

    def test_zero_jobs_exit_3(self, capsys):
        code, out, err = run(capsys, "verify", "--v-max", "4", "--jobs", "0")
        assert code == 3
        assert out == "" and "jobs must be a positive integer or 'auto', got 0" in err

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "verify", "--v-max", "4")
        _, out2, _ = run(capsys, "verify", "--v-max", "4")
        assert out1 == out2

    def test_parallel_matches_serial(self, capsys):
        _, serial, _ = run(capsys, "verify", "--v-max", "5")
        _, parallel, _ = run(capsys, "verify", "--v-max", "5", "--jobs", "2")
        assert serial == parallel

    def test_failed_triple_prints_its_messages(self, capsys, monkeypatch):
        # The closed-form girth of J(5,2,0) alone is wrong; the oracle measures 5.
        real = gjg.compare.invariant_report
        monkeypatch.setattr(gjg.compare, "invariant_report",
                            lambda p: real(p)._replace(girth=9) if str(p) == "J(5,2,0)" else real(p))
        code, out, _ = run(capsys, "verify", "--v-max", "5")
        assert code == 1
        assert "FAIL J(5,2,0) class=odd_graph n=10 checks=168\n     girth: formula 9, oracle 5\n" in out
        assert out.count("FAIL") == 1
        assert out.endswith("total: 20 triples, 19 passed, 1 failed, 1413 individual checks\n")

    def test_failed_complement_prints_its_messages(self, capsys, monkeypatch):
        # Each lifted triple is compared with itself at a shift of 2k - v.
        monkeypatch.setattr(gjg.compare, "normalize", lambda p: p)
        code, out, _ = run(capsys, "verify", "--v-max", "5")
        assert code == 1
        assert "FAIL" not in out
        assert ("complement isomorphism: 5 pairs checked, 5 failures\n"
                "     J(3,2,1) disagrees with its complement form\n") in out
        assert "     J(5,4,3) disagrees with its complement form\ninterface checks:" in out

    def test_failed_interface_prints_its_messages(self, capsys, monkeypatch):
        monkeypatch.setattr(gjg.oracle, "oracle_distance", lambda g, x: 3)
        code, out, _ = run(capsys, "verify", "--v-max", "5")
        assert code == 1
        assert "FAIL" not in out
        assert ("interface checks: 6 run, 1 failures\n"
                "     interface: agreed distance on J(5,2,0)\ntotal:") in out

    def test_raising_interface_probe_is_a_failure(self, capsys, monkeypatch):
        # Every export is empty, so the J(6,3,0) probe indexes an empty edge list.
        monkeypatch.setattr(gjg.graphio, "export_graph", lambda g, fmt: b"")
        code, out, err = run(capsys, "verify", "--v-max", "6")
        assert (code, err) == (1, "")
        assert "FAIL" not in out
        assert ("interface checks: 7 run, 4 failures\n"
                "     interface: dimacs header for J(5,2,0)\n"
                "     interface: dimacs line count for J(5,2,0)\n"
                "     interface: edgelist size for J(6,3,0)\n"
                "     interface: IndexError: list index out of range\ntotal:") in out


def _console(*argv: str, env, **popen) -> subprocess.Popen:
    """The gjg console script, run as ``python -m gjg.cli``."""
    return subprocess.Popen([sys.executable, "-m", "gjg.cli", *argv], stderr=subprocess.PIPE,
                            env=env, **popen)


class TestClosedPipe:
    # A reader that stops early (gjg ... | head -1) ends the command with
    # exit 3 and no traceback, whether stdout is buffered or not;
    # in-process main() callers never see this.
    @pytest.fixture(params=["buffered", "unbuffered"])
    def env(self, request, src_env):
        src_env.pop("PYTHONUNBUFFERED", None)
        if request.param == "unbuffered":
            src_env["PYTHONUNBUFFERED"] = "1"
        return src_env

    def test_export_closed_after_one_line(self, env):
        # 1.9 MB of edges, far more than a pipe holds, so a write fails.
        with _console("export", "--v", "14", "--k", "4", "--i", "1", "--format", "edgelist",
                      env=env, stdout=subprocess.PIPE) as proc:
            assert proc.stdout.readline() == b"0 31\n"
            proc.stdout.close()
            err = proc.stderr.read()
        assert (proc.returncode, err) == (3, b"")

    def test_verify_into_a_closed_pipe(self, env):
        r, w = os.pipe()
        os.close(r)
        with os.fdopen(w, "wb") as out, _console("verify", "--v-max", "4", env=env,
                                                 stdout=out) as proc:
            err = proc.stderr.read()
        assert (proc.returncode, err) == (3, b"")


def _loaded_after(fresh, setup: str, candidates: list[str]) -> list[str]:
    """Which of candidates a fresh interpreter has loaded after running setup."""
    return fresh(f"import sys\n{setup}\nprint(*[m for m in {candidates!r} if m in sys.modules])")


def _main_quietly(*argv: str) -> str:
    # A TextIOWrapper, unlike StringIO, has the .buffer export writes to.
    return ("import contextlib, io\nfrom gjg.cli import main\n"
            "with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())):\n"
            f"    assert main({list(argv)!r}) == 0")


# Fresh-interpreter setups by name: the entry points that build no graph,
# and the two that do.
_GRAPH_FREE = {
    "import-gjg": "import gjg",
    "import-cli": "import gjg.cli",
    "import-graphio": "import gjg.graphio",
    "invariants": _main_quietly("invariants", "--v", "9", "--k", "4", "--i", "1"),
    "invariants-structured": _main_quietly("invariants", "--v", "9", "--k", "4", "--i", "1",
                                           "--emit", "structured"),
    "distance-witness": _main_quietly("distance", "--v", "10", "--k", "4", "--i", "2", "--x", "1", "--witness"),
    "witness-cycle": _main_quietly("witness", "--v", "7", "--k", "3", "--i", "1", "cycle"),
    "witness-oddwalk": _main_quietly("witness", "--v", "7", "--k", "3", "--i", "0", "oddwalk"),
}
_BUILDING = {
    "export": _main_quietly("export", "--v", "5", "--k", "2", "--i", "0", "--format", "dimacs"),
    "verify": _main_quietly("verify", "--v-max", "4"),
}


class TestStartup:
    # A single query pays for what it runs: only verify loads the sweep,
    # only a sweep with jobs > 1 loads the process pool, and only the
    # commands that build a graph load the oracle and numpy.
    @pytest.mark.parametrize("name", [*_GRAPH_FREE, *_BUILDING])
    def test_entry_point_loads_numpy_and_oracle_only_to_build(self, fresh, name):
        loaded = [] if name in _GRAPH_FREE else ["numpy", "gjg.oracle"]
        setup = _GRAPH_FREE.get(name) or _BUILDING[name]
        assert _loaded_after(fresh, setup, ["numpy", "gjg.oracle"]) == loaded

    @pytest.mark.parametrize("name", _GRAPH_FREE)
    def test_graph_free_entry_point_loads_no_dataclasses(self, fresh, name):
        # The graph-free records are named tuples; dataclasses would pull
        # in inspect (and with it ast, dis and tokenize) at every start.
        assert _loaded_after(fresh, _GRAPH_FREE[name], ["dataclasses", "inspect"]) == []

    def test_cli_import_leaves_out_sweep_and_pool(self, fresh):
        assert _loaded_after(fresh, "import gjg.cli",
                             ["gjg.sweep", "multiprocessing", "concurrent.futures.process"]) == []

    def test_sweep_import_leaves_out_pool(self, fresh):
        assert _loaded_after(fresh, "import gjg.sweep", ["concurrent.futures.process"]) == []

    def test_import_builds_no_parser_and_main_builds_one(self, fresh):
        # Importing gjg.cli builds nothing; the first main() builds the
        # parser and the second reuses it.
        code = ("import contextlib, io, gjg.cli as c; n = c._build_parser.cache_info; before = n().misses\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    for _ in range(2): c.main(['distance', '--v', '10', '--k', '4', '--i', '2', '--x', '1'])\n"
                "print(before, n().misses, n().hits)")
        assert fresh(code) == ["0", "1", "1"]


class TestParserReuse:
    # One parser serves every main() call in a process.
    def test_usage_error_leaves_the_next_call_intact(self, capsys):
        for bad in (["invariants", "--v", "9"], ["witness", "--v", "9", "--k", "4", "--i", "1", "loop"],
                    ["distance", "--v", "9", "--k", "4", "--i", "1", "--a", "0,x"]):
            with pytest.raises(SystemExit) as exc:
                main(bad)
            assert exc.value.code == 2
            capsys.readouterr()
            code, out, err = run(capsys, "invariants", "--v", "9", "--k", "4", "--i", "1")
            assert (code, err) == (0, "")
            assert out.encode() == (GOLDEN / "invariants-text-9-4-1.out").read_bytes()

    @pytest.mark.parametrize("argv", [["--help"], ["witness", "--help"]])
    def test_help_prints_the_same_bytes_twice(self, capsys, argv):
        outs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert outs[0].startswith("usage: gjg")

    def test_parse_args_from_several_threads(self):
        argvs = [
            ["invariants", "--v", "9", "--k", "4", "--i", "1", "--emit", "structured"],
            ["distance", "--v", "8", "--k", "4", "--i", "1", "--a", "3,2,1,0", "--b", "4,5,6,7", "--witness"],
            ["witness", "--v", "10", "--k", "4", "--i", "2", "geodesic", "--x", "1"],
            ["export", "--v", "5", "--k", "2", "--i", "0", "--format", "dimacs"],
            ["verify", "--v-max", "7", "--jobs", "auto"],
        ] * 40
        parser = _build_parser()
        want = [parser.parse_args(argv) for argv in argvs]
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(parser.parse_args, argvs))
        assert got == want
        assert len({id(ns) for ns in got}) == len(got)
