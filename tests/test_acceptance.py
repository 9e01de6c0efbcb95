"""Acceptance criteria: formula/oracle equivalence and invariant checks over
the full desk-scale sweep (v <= 16, vertex budget 20000, 680 triples).

Each criterion prints its own PASS/FAIL line; all comparisons are exact
integer equality (tolerance 0).
"""

import json
import pathlib

from conftest import ACCEPTANCE_LINES

from gjg.formulas import INFINITE, report_for
from gjg.params import make_parameters
from gjg.sweep import sweep_triples, SweepConfig


def _by_triple(outcome):
    return {r.triple: r for r in outcome.results}


def _category_failures(outcome, *categories):
    out = []
    for r in outcome.results:
        for msg in r.failures:
            if any(msg.startswith(c + ":") for c in categories):
                out.append(f"J{r.triple} {msg}")
    return out


def _checks(outcome, category):
    return sum(r.checks.get(category, 0) for r in outcome.results)


def _report(name, failures, detail):
    status = "PASS" if not failures else "FAIL"
    line = f"ACCEPTANCE {name}: {status} ({detail})"
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert not failures, failures[:10]


def test_criterion_1_girth_table(full_sweep):
    table = _by_triple(full_sweep)
    failures = _category_failures(full_sweep, "girth")
    spots = {(6, 2, 0): 3, (8, 4, 1): 4, (5, 2, 0): 5, (7, 3, 0): 6, (9, 4, 0): 6}
    for t, want in spots.items():
        if table[t].measured.girth != want or report_for(*t).girth != want:
            failures.append(f"spot {t}: expected girth {want}")
    if full_sweep.elapsed_seconds >= 300:
        failures.append(f"sweep took {full_sweep.elapsed_seconds:.0f}s, expected < 5 minutes")
    _report(
        "1 girth",
        failures,
        f"{_checks(full_sweep, 'girth')} triples, sweep {full_sweep.elapsed_seconds:.0f}s",
    )


def test_criterion_2_odd_girth(full_sweep):
    table = _by_triple(full_sweep)
    failures = _category_failures(full_sweep, "odd_girth")
    for t, want in {(7, 3, 0): 7, (9, 4, 0): 9, (8, 4, 1): 5}.items():
        if table[t].measured.odd_girth != want or report_for(*t).odd_girth != want:
            failures.append(f"spot {t}: expected odd girth {want}")
    _report("2 odd girth", failures, f"{_checks(full_sweep, 'odd_girth')} triples")


def test_criterion_3_distance(full_sweep):
    failures = _category_failures(
        full_sweep, "distance_profile", "pair_sampling", "transitivity"
    )
    pairs = _checks(full_sweep, "pair_sampling")
    values = _checks(full_sweep, "distance_profile")
    _report("3 distance", failures, f"{values} (triple,x) values, {pairs} sampled pairs")


def test_criterion_4_diameter(full_sweep):
    table = _by_triple(full_sweep)
    failures = _category_failures(full_sweep, "diameter")
    for t, want in {(8, 3, 2): 3, (7, 3, 0): 3, (10, 4, 2): 2}.items():
        if table[t].measured.diameter != want or report_for(*t).diameter != want:
            failures.append(f"spot {t}: expected diameter {want}")
    _report("4 diameter", failures, f"{_checks(full_sweep, 'diameter')} triples")


def test_criterion_5_max_route_distance(full_sweep):
    failures = _category_failures(full_sweep, "max_route")
    count = _checks(full_sweep, "max_route")
    eligible = sum(
        1
        for (v, k, i) in sweep_triples(SweepConfig())
        if k > i + 1 and not make_parameters(v, k, i).is_degenerate
        and make_parameters(v, k, i).graph_class.value != "matching"
    )
    if count != eligible:
        failures.append(f"covered {count} triples, {eligible} eligible")
    _report("5 max route", failures, f"{count} measured maximizations")


def test_criterion_6_lower_bound(full_sweep):
    failures = _category_failures(full_sweep, "lower_bound")
    count = _checks(full_sweep, "lower_bound")
    _report("6 lower bound", failures, f"{count} (source,vertex) assertions, 0 violations")


def test_criterion_7_witness_soundness(full_sweep):
    failures = _category_failures(full_sweep, "witness", "common_neighbor")
    walks = _checks(full_sweep, "witness")
    _report("7 witnesses", failures, f"{walks} walks verified, 0 failures")


def test_criterion_8_complement_isomorphism(full_sweep):
    failures = list(full_sweep.complement_failures)
    expected = sum(
        1
        for (v, k, i) in sweep_triples(SweepConfig())
        if v < 2 * k and not make_parameters(v, k, i).is_degenerate
    )
    if full_sweep.complement_checked != expected:
        failures.append(
            f"checked {full_sweep.complement_checked}, expected {expected} pairs"
        )
    _report("8 complement", failures, f"{full_sweep.complement_checked} pairs")


def test_criterion_9_degenerate_matchings(full_sweep):
    table = _by_triple(full_sweep)
    failures = _category_failures(full_sweep, "matching")
    matchings = [t for t in table if make_parameters(*t).graph_class.value == "matching"]
    if sorted(matchings) != [(2 * k, k, 0) for k in range(1, 9)]:
        failures.append(f"unexpected matching set {sorted(matchings)}")
    for t in matchings:
        r = table[t]
        rep = report_for(*t)
        if rep.girth is not None or rep.odd_girth is not None:
            failures.append(f"{t}: girth/odd girth should be undefined")
        if t[1] >= 2 and (rep.diameter != INFINITE or r.measured.diameter != INFINITE):
            failures.append(f"{t}: diameter should be infinite")
    _report("9 matchings", failures, f"{len(matchings)} matching triples")


def test_every_sweep_check_green(full_sweep):
    # Belt and braces: nothing failed anywhere, of any category, including
    # the cross-triple and serialization stages.
    bad = [f"{r.triple}: {r.failures}" for r in full_sweep.results if not r.passed]
    bad += full_sweep.complement_failures
    bad += full_sweep.interface_failures
    total = full_sweep.total_checks
    _report("all", bad, f"{len(full_sweep.results)} triples, {total} checks")


def test_per_category_tallies_match_the_recorded_sweep(full_sweep):
    # The benchmark's record of the v <= 16 sweep: per triple its checks by
    # category, vertex count and class, and the sweep's totals.
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "expected" / "sweep.json"
    expected = json.loads(path.read_text())
    got = {",".join(map(str, r.triple)): {"checks": r.checks, "class": r.graph_class, "n": r.n}
           for r in full_sweep.results}
    failures = [f"J({t}): {got.get(t)} != {want}"
                for t, want in expected["triples"].items() if got.get(t) != want]
    failures += [f"J({t}) not recorded" for t in got.keys() - expected["triples"].keys()]
    totals = {"complement_checked": full_sweep.complement_checked,
              "interface_checked": full_sweep.interface_checked,
              "total_checks": full_sweep.total_checks, "triples": len(full_sweep.results)}
    if totals != expected["sweeps"]["16"]:
        failures.append(f"totals {totals} != {expected['sweeps']['16']}")
    _report("tallies", failures, f"{len(got)} triples as recorded, {totals['total_checks']} checks")
