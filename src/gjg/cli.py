"""Command-line front end: invariants, distances, witnesses, verification, export.

Exit codes: 0 success, 1 domain error, 2 usage error, 3 configuration
problem, an empty verification sweep or, from the console script, a
closed stdout.  Output is byte-identical across runs for fixed arguments.
Only export and verify load the oracle and numpy.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import graphio, witness
from .errors import GJGError
from .formulas import distance_by_intersection, invariant_report
from .params import Parameters, delta, make_parameters, vertex

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_CONFIG = 3


class _ConfigError(GJGError):
    """Bad settings from the environment or the sweep bounds (exit 3)."""

    exit_code = EXIT_CONFIG


class _UsageError(GJGError):
    """Arguments that parse but do not say what to do (exit 2)."""

    exit_code = EXIT_USAGE


def _parse_set(text: str) -> tuple[int, ...]:
    try:
        return tuple(sorted(int(part) for part in text.split(",") if part != ""))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _parse_jobs(text: str) -> int | str:
    try:
        return text if text == "auto" else int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer or 'auto', got {text!r}")


def _add_triple(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--v", type=int, required=True, help="ground set size")
    sub.add_argument("--k", type=int, required=True, help="subset size")
    sub.add_argument("--i", type=int, required=True, help="|A ∩ B| of adjacent vertices")


def _add_pair(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--x", type=int, default=None, help="|A ∩ B| of the canonical pair")
    sub.add_argument("--a", type=_parse_set, default=None, help="first vertex, e.g. 0,1,2,3")
    sub.add_argument("--b", type=_parse_set, default=None, help="second vertex")


def _budget(args) -> int:
    # Like the sweep in cmd_verify, the oracle (and numpy with it) loads
    # only in the commands that build a graph.
    from . import oracle

    budget, env = args.max_vertices, os.environ.get("GJG_MAX_VERTICES")
    if budget is None and env is not None:
        try:
            budget = int(env)
        except ValueError:
            raise _ConfigError(f"GJG_MAX_VERTICES must be an integer, got {env!r}")
    if budget is not None and budget < 1:
        raise _ConfigError(f"max_vertices must be positive, got {budget}")
    return oracle.DEFAULT_VERTEX_BUDGET if budget is None else budget


def _vertex_pair(p: Parameters, args, usage: str):
    """The canonical pair meeting in --x elements, or the pair --a/--b;
    exactly one of the two forms, else the usage error."""
    if args.x is not None and args.a is None and args.b is None:
        return witness.canonical_pair(p, args.x)  # range-checks x
    if args.x is None and args.a is not None and args.b is not None:
        return vertex(p, args.a), vertex(p, args.b)
    raise _UsageError(usage)


def _print_report_text(rep) -> None:
    p = rep.params
    print(f"parameters: v={p.v} k={p.k} i={p.i}")
    print(f"class: {p.graph_class.value}")
    print(f"delta: {delta(p)}")
    print(f"girth: {graphio.format_value(rep.girth)}")
    print(f"odd_girth: {graphio.format_value(rep.odd_girth)}")
    print(f"diameter: {graphio.format_value(rep.diameter)}")
    print("distance_profile:")
    for x in sorted(rep.distance_profile):
        print(f"  x={x}: {graphio.format_value(rep.distance_profile[x])}")


def _print_walk(p: Parameters, build, label: str) -> int:
    """Build the walk by calling build(), verify it, then print it.  A
    construction that fails its own check (AssertionError) counts as a
    walk that fails verification: nothing is printed but one line on
    stderr, and the exit code is 1."""
    try:
        w = build()
    except AssertionError:
        w = None  # verify_walk rejects anything but a Walk
    if not witness.verify_walk(p, w):
        print("internal error: constructed walk failed verification", file=sys.stderr)
        return EXIT_DOMAIN
    print(f"{label} of length {w.claimed_length} in {p}:")
    for s in w.vertices:
        body = ",".join(str(e) for e in s)
        print(f"  rank {graphio.rank(p, s):>6} {{{body}}}")
    print("verified: true")
    return EXIT_OK


def cmd_invariants(args) -> int:
    rep = invariant_report(make_parameters(args.v, args.k, args.i))
    if args.emit == "structured":
        sys.stdout.buffer.write(graphio.export_report(rep))
    else:
        _print_report_text(rep)
    return EXIT_OK


def cmd_distance(args) -> int:
    p = make_parameters(args.v, args.k, args.i)
    a, b = _vertex_pair(p, args, "provide --x or both --a and --b")
    x = len(set(a) & set(b))
    # A degenerate triple has no distance function; its report reads 0 or infinite.
    d = invariant_report(p).distance_profile[x] if p.is_degenerate else distance_by_intersection(p, x)
    print(graphio.format_value(d))
    return _print_walk(p, lambda: witness.geodesic(p, a, b), "geodesic") if args.witness else EXIT_OK


def cmd_witness(args) -> int:
    p = make_parameters(args.v, args.k, args.i)
    if args.kind == "geodesic":
        pair = _vertex_pair(p, args, "geodesic needs --x or both --a and --b")
        return _print_walk(p, lambda: witness.geodesic(p, *pair), "geodesic")
    if (args.x, args.a, args.b) != (None, None, None):
        raise _UsageError(f"{args.kind} takes no --x, --a or --b")
    if args.kind == "cycle":
        return _print_walk(p, lambda: witness.shortest_cycle(p), "cycle")
    return _print_walk(p, lambda: witness.odd_closed_walk(p), "odd closed walk")


def cmd_export(args) -> int:
    from . import oracle

    p = make_parameters(args.v, args.k, args.i)
    g = oracle.build_graph(p, _budget(args))
    payload = graphio.export_graph(g, args.format)
    if args.out:
        try:
            with open(args.out, "wb") as fh:
                fh.write(payload)
        except OSError as exc:
            raise _ConfigError(f"cannot write {args.out}: {exc.strerror}")
    else:
        # An unbuffered stdout (python -u) is raw: one write may take only
        # part of a large payload, and the next write reports why.
        out, rest = sys.stdout.buffer, memoryview(payload)
        while rest:
            rest = rest[out.write(rest):]
    return EXIT_OK


def cmd_verify(args) -> int:
    # Only verify needs the sweep; importing it here keeps it out of every
    # other command's start-up.
    from .sweep import SweepConfig, run_sweep, sweep_triples

    try:
        cfg = SweepConfig(
            v_max=args.v_max,
            max_vertices=_budget(args),
            jobs=args.jobs,
        )
    except ValueError as exc:
        raise _ConfigError(str(exc))
    if not sweep_triples(cfg):
        print("warning: nothing verified (no triple fits the vertex budget)", file=sys.stderr)
        return EXIT_CONFIG
    outcome = run_sweep(cfg)
    for r in outcome.results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} J({r.v},{r.k},{r.i}) class={r.graph_class} n={r.n} "
              f"checks={sum(r.checks.values())}")
        for msg in r.failures:
            print(f"     {msg}")
    print(f"complement isomorphism: {outcome.complement_checked} pairs checked, "
          f"{len(outcome.complement_failures)} failures")
    for msg in outcome.complement_failures:
        print(f"     {msg}")
    print(f"interface checks: {outcome.interface_checked} run, "
          f"{len(outcome.interface_failures)} failures")
    for msg in outcome.interface_failures:
        print(f"     {msg}")
    failed = [r for r in outcome.results if not r.passed]
    print(f"total: {len(outcome.results)} triples, {len(outcome.results) - len(failed)} passed, "
          f"{len(failed)} failed, {outcome.total_checks} individual checks")
    return EXIT_OK if outcome.passed else EXIT_DOMAIN


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built by the first call and reused by every later one.

    Reuse is safe: parse_args makes a fresh Namespace each call and leaves
    the parser unchanged, and argparse looks up sys.stdout and sys.stderr
    only when it prints.  Each command's function is bound here, at the
    first build, so patching a ``cmd_*`` after the first ``main`` call has
    no effect.
    """
    parser = argparse.ArgumentParser(
        prog="gjg",
        description="Invariants, witnesses, and brute-force verification "
                    "for generalized Johnson graphs J(v,k,i).",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("invariants", help="girth, odd girth, diameter, distance profile")
    _add_triple(s)
    s.add_argument("--emit", choices=["text", "structured"], default="text")
    s.set_defaults(func=cmd_invariants)

    s = subs.add_parser("distance", help="distance for a given |A ∩ B| or vertex pair")
    _add_triple(s)
    _add_pair(s)
    s.add_argument("--witness", action="store_true", help="also print a geodesic")
    s.set_defaults(func=cmd_distance)

    s = subs.add_parser("witness", help="explicit cycle, odd closed walk, or geodesic")
    _add_triple(s)
    s.add_argument("kind", choices=["cycle", "oddwalk", "geodesic"])
    _add_pair(s)
    s.set_defaults(func=cmd_witness)

    s = subs.add_parser("verify", help="sweep all triples, compare formulas to the oracle")
    s.add_argument("--v-max", type=int, default=16)
    s.add_argument("--max-vertices", type=int, default=None)
    s.add_argument("--jobs", type=_parse_jobs, default=1)
    s.set_defaults(func=cmd_verify)

    s = subs.add_parser("export", help="write the explicit graph as edgelist or DIMACS")
    _add_triple(s)
    s.add_argument("--format", choices=["edgelist", "dimacs"], required=True)
    s.add_argument("--out", default=None, help="output path (default stdout)")
    s.add_argument("--max-vertices", type=int, default=None)
    s.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    """Run one command; may be called repeatedly in one process, and every
    call after the first reuses the parser the first one built."""
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GJGError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", EXIT_DOMAIN)


def entrypoint() -> None:
    """The ``gjg`` console script: run main() on sys.argv and exit with its
    code.  Output cut short by a closed pipe (``gjg verify | head -1``)
    exits 3, like an unwritable --out, with no traceback."""
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe surfaces here, inside the try
    except BrokenPipeError:
        # The interpreter flushes stdout again at exit; pointing it at
        # devnull keeps that flush from raising a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_CONFIG
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
