"""Byte-exact CLI goldens: stdout, stderr and exit code of fixed commands.

Each case's stdout is ``golden/<name>.out`` and its stderr
``golden/<name>.err``; the exit codes are in ``golden/exit_codes.json``.
After a deliberate output change, rewrite them with

    PYTHONPATH=src python tests/test_golden.py --record

and say in CHANGES.md which goldens moved and why.
"""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from gjg.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _triple(v, k, i):
    return ["--v", str(v), "--k", str(k), "--i", str(i)]


CASES = {
    "invariants-text-9-4-1": ["invariants", *_triple(9, 4, 1)],
    "invariants-text-7-4-2": ["invariants", *_triple(7, 4, 2)],
    "invariants-text-6-3-0": ["invariants", *_triple(6, 3, 0)],
    "invariants-text-6-4-1": ["invariants", *_triple(6, 4, 1)],
    "invariants-structured-9-4-1": ["invariants", *_triple(9, 4, 1), "--emit", "structured"],
    "invariants-structured-7-4-2": ["invariants", *_triple(7, 4, 2), "--emit", "structured"],
    "invariants-structured-6-4-1": ["invariants", *_triple(6, 4, 1), "--emit", "structured"],
    "distance-x-10-4-2": ["distance", *_triple(10, 4, 2), "--x", "1"],
    "distance-x-7-4-2": ["distance", *_triple(7, 4, 2), "--x", "2"],
    "distance-x-out-of-range": ["distance", *_triple(10, 4, 2), "--x", "9"],
    "distance-missing-pair": ["distance", *_triple(10, 4, 2), "--a", "0,1,2,3"],
    "distance-x-witness-7-4-2": ["distance", *_triple(7, 4, 2), "--x", "1", "--witness"],
    "distance-ab-witness-8-4-1": ["distance", *_triple(8, 4, 1),
                                  "--a", "0,1,2,3", "--b", "4,5,6,7", "--witness"],
    "distance-ab-witness-9-6-4": ["distance", *_triple(9, 6, 4),
                                  "--a", "0,1,2,3,4,5", "--b", "2,3,4,6,7,8", "--witness"],
    "distance-x-witness-6-4-1": ["distance", *_triple(6, 4, 1), "--x", "2", "--witness"],
    "witness-cycle-9-4-1": ["witness", *_triple(9, 4, 1), "cycle"],
    "witness-oddwalk-9-4-1": ["witness", *_triple(9, 4, 1), "oddwalk"],
    "witness-geodesic-9-4-1": ["witness", *_triple(9, 4, 1), "geodesic", "--x", "0"],
    "witness-cycle-7-4-2": ["witness", *_triple(7, 4, 2), "cycle"],
    "witness-oddwalk-7-4-2": ["witness", *_triple(7, 4, 2), "oddwalk"],
    "witness-geodesic-7-4-2": ["witness", *_triple(7, 4, 2), "geodesic", "--x", "1"],
    "witness-cycle-9-6-4": ["witness", *_triple(9, 6, 4), "cycle"],
    "witness-oddwalk-9-6-4": ["witness", *_triple(9, 6, 4), "oddwalk"],
    "witness-geodesic-9-6-4": ["witness", *_triple(9, 6, 4), "geodesic",
                               "--a", "0,1,2,3,4,5", "--b", "3,4,5,6,7,8"],
    "witness-oddwalk-8-4-1": ["witness", *_triple(8, 4, 1), "oddwalk"],
    "witness-oddwalk-12-5-0": ["witness", *_triple(12, 5, 0), "oddwalk"],
    "witness-cycle-6-3-0": ["witness", *_triple(6, 3, 0), "cycle"],
    "witness-geodesic-6-3-0": ["witness", *_triple(6, 3, 0), "geodesic", "--x", "1"],
    "witness-cycle-6-4-1": ["witness", *_triple(6, 4, 1), "cycle"],
    "witness-oddwalk-6-4-1": ["witness", *_triple(6, 4, 1), "oddwalk"],
    "witness-geodesic-6-4-1": ["witness", *_triple(6, 4, 1), "geodesic", "--x", "2"],
    "witness-geodesic-x-out-of-range": ["witness", *_triple(10, 4, 2), "geodesic", "--x", "9"],
    "witness-geodesic-missing-pair": ["witness", *_triple(9, 4, 1), "geodesic"],
    "export-edgelist-5-2-0": ["export", *_triple(5, 2, 0), "--format", "edgelist"],
    "export-dimacs-5-2-0": ["export", *_triple(5, 2, 0), "--format", "dimacs"],
    "verify-v-max-7": ["verify", "--v-max", "7"],
}


def run_case(argv: list[str]) -> tuple[int, bytes, bytes]:
    # write_through keeps print() and direct writes to .buffer in order.
    out = io.TextIOWrapper(io.BytesIO(), "utf-8", write_through=True)
    err = io.TextIOWrapper(io.BytesIO(), "utf-8", write_through=True)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.detach().getvalue(), err.detach().getvalue()


def _exit_codes() -> dict[str, int]:
    return json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, monkeypatch):
    monkeypatch.delenv("GJG_MAX_VERTICES", raising=False)
    code, out, err = run_case(CASES[name])
    assert code == _exit_codes()[name]
    assert out == (GOLDEN / f"{name}.out").read_bytes()
    assert err == (GOLDEN / f"{name}.err").read_bytes()


def test_verify_golden_holds_under_python_O():
    # Output must not depend on __debug__: run the sweep with asserts
    # stripped, in a fresh interpreter, against the same golden.
    name = "verify-v-max-7"
    env = {k: val for k, val in os.environ.items() if k != "GJG_MAX_VERTICES"}
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-O", "-m", "gjg.cli", *CASES[name]],
                          capture_output=True, env=env, timeout=120)
    assert done.returncode == _exit_codes()[name]
    assert done.stdout == (GOLDEN / f"{name}.out").read_bytes()
    assert done.stderr == (GOLDEN / f"{name}.err").read_bytes()


def test_every_golden_has_a_case():
    names = {path.stem for path in GOLDEN.glob("*.out")} | {path.stem for path in GOLDEN.glob("*.err")}
    assert names == set(CASES) == set(_exit_codes())


def _record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in sorted(CASES.items()):
        codes[name], out, err = run_case(argv)
        (GOLDEN / f"{name}.out").write_bytes(out)
        (GOLDEN / f"{name}.err").write_bytes(err)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    _record()
