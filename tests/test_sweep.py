import concurrent.futures
import dataclasses
import math
import os
import time
from collections import Counter
from itertools import combinations

import pytest

import gjg.formulas
import gjg.oracle
import gjg.sweep
import gjg.witness
from gjg.oracle import OracleReport, _sources, build_graph
from gjg.params import make_parameters
from gjg.scheme import scheme_report
from gjg.sweep import (
    SweepConfig,
    TripleResult,
    _check_pairing,
    _check_report,
    check_complements,
    check_interfaces,
    check_triple,
    run_sweep,
    sweep_triples,
)


class TestSweepConfig:
    def test_auto_jobs_becomes_positive_int(self):
        cfg = SweepConfig(jobs="auto")
        assert isinstance(cfg.jobs, int) and cfg.jobs >= 1

    def test_auto_jobs_counts_the_cpus_this_process_may_use(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert SweepConfig(jobs="auto").jobs == 3

    @pytest.mark.parametrize("cpus, jobs", [(64, 64), (None, 1)])
    def test_auto_jobs_without_affinity_counts_every_cpu(self, monkeypatch, cpus, jobs):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert SweepConfig(jobs="auto").jobs == jobs

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            SweepConfig(v_max=1)
        with pytest.raises(ValueError):
            SweepConfig(v_max=65)
        with pytest.raises(ValueError):
            SweepConfig(max_vertices=0)
        with pytest.raises(ValueError):
            SweepConfig(jobs=0)
        with pytest.raises(ValueError):
            SweepConfig(jobs="many")
        # A float would fail later inside sweep_triples; a bool would pass
        # for a job count or a budget of 1.
        with pytest.raises(ValueError, match="^v_max must be an integer, got 3.5$"):
            SweepConfig(v_max=3.5)
        with pytest.raises(ValueError, match="^jobs must be an integer, got True$"):
            SweepConfig(jobs=True)
        with pytest.raises(ValueError, match="^max_vertices must be an integer, got True$"):
            SweepConfig(max_vertices=True)


class TestSweepTriples:
    def test_budget_filters_everything(self):
        assert sweep_triples(SweepConfig(v_max=16, max_vertices=1)) == []

    def test_minimal_budget(self):
        assert sweep_triples(SweepConfig(v_max=2, max_vertices=2)) == [(2, 1, 0)]

    def test_strict_ordering_and_shape(self):
        ts = sweep_triples(SweepConfig(v_max=6))
        assert ts == sorted(ts)
        assert all(v > k > i >= 0 for v, k, i in ts)
        assert (6, 3, 0) in ts and (6, 2, 1) in ts


class TestCheckTriple:
    def test_all_classes_pass(self):
        for t in [(5, 2, 0), (6, 3, 0), (2, 1, 0), (7, 4, 2), (5, 4, 1), (8, 4, 1)]:
            r = check_triple(*t)
            assert r.passed, (t, r.failures)
            assert sum(r.checks.values()) > 0

    def test_budget_failure_is_recorded_not_raised(self):
        r = check_triple(16, 8, 4, max_vertices=10)
        assert not r.passed
        assert any("BudgetExceeded" in msg for msg in r.failures)

    @pytest.mark.parametrize("triple, name, wrong", [
        ((5, 2, 0), "girth", 17), ((5, 2, 0), "odd_girth", 9), ((5, 2, 0), "diameter", 7),
        ((5, 2, 0), "distance_profile", {0: 2, 1: 2, 2: 0}),
        ((6, 3, 0), "diameter", 2), ((8, 4, 0), "girth", 4),
    ], ids=["girth", "odd_girth", "diameter", "distance_profile", "matching_diameter", "matching_girth"])
    def test_detects_wrong_formula(self, monkeypatch, triple, name, wrong):
        # Sabotage one field of the closed-form report; the oracle comparison
        # flags that field and nothing else, since every later check reads the
        # measured report.  J(5,2,0) measures girth 5, odd girth 5, diameter 2
        # and profile {0: 1, 1: 2, 2: 0}; the matchings J(6,3,0) and J(8,4,0)
        # measure an infinite diameter and no girth.
        real = gjg.sweep.invariant_report
        monkeypatch.setattr(gjg.sweep, "invariant_report",
                            lambda p: real(p)._replace(**{name: wrong}))
        r = check_triple(*triple)
        got = getattr(real(make_parameters(*triple)), name)
        assert r.failures == [f"{name}: formula {wrong}, oracle {got}"], r.failures

    @staticmethod
    def _skew_distances(monkeypatch, *at):
        """Add one to the closed-form distance at each (triple, x) in at."""
        real = gjg.formulas.distance_by_intersection

        def skewed(p, x):
            d = real(p, x)
            return d + 1 if ((p.v, p.k, p.i), x) in at else d

        monkeypatch.setattr(gjg.formulas, "distance_by_intersection", skewed)

    def test_detects_wrong_distance(self, monkeypatch):
        # A closed-form distance one too large at a single x fails the profile
        # comparison alone: the witness and max-route checks read the measured
        # profile, not the formula.
        self._skew_distances(monkeypatch, ((6, 2, 0), 0), ((9, 4, 1), 2))
        assert check_triple(6, 2, 0).failures == [
            "distance_profile: formula {0: 2, 1: 2, 2: 0}, oracle {0: 1, 1: 2, 2: 0}"]
        assert check_triple(9, 4, 1).failures == [
            "distance_profile: formula {0: 3, 1: 1, 2: 3, 3: 2, 4: 0}, oracle {0: 3, 1: 1, 2: 2, 3: 2, 4: 0}"]

    def test_a_wrong_distance_also_in_reach_of_the_witnesses_fails_one_line(self, monkeypatch):
        # The skewed closed form is also set on gjg.witness, where a
        # construction that read it would find it.  The constructions read
        # no closed form, so the comparison fails alone and no later check
        # is skipped: the max-route and rank round-trip checks still run.
        self._skew_distances(monkeypatch, ((9, 4, 1), 2))
        monkeypatch.setattr(gjg.witness, "distance_by_intersection",
                            gjg.formulas.distance_by_intersection, raising=False)
        r = check_triple(9, 4, 1)
        assert r.failures == [
            "distance_profile: formula {0: 3, 1: 1, 2: 3, 3: 2, 4: 0}, oracle {0: 3, 1: 1, 2: 2, 3: 2, 4: 0}"]
        assert "max_route" in r.checks and r.checks["rank_roundtrip"] == 126

    def test_detects_a_wrong_distance_read_on_a_lifted_triple(self, monkeypatch):
        # The formula side of J(7,4,2) is read on (7,4,2) itself, not on its
        # normal form J(7,3,1): a distance skewed only there at x = 1 fails.
        self._skew_distances(monkeypatch, ((7, 4, 2), 1))
        assert check_triple(7, 4, 2).failures == [
            "distance_profile: formula {1: 3, 2: 1, 3: 2, 4: 0}, oracle {1: 2, 2: 1, 3: 2, 4: 0}"]

    def test_a_wrong_measured_distance_fails_the_certificates(self, monkeypatch):
        # Every source of J(9,4,1) measures x = 2 one too far.  The geodesic
        # and the max-route closed form are checked against that measurement,
        # so both fail besides the comparison and the distance-2 predicate.
        real_profile = gjg.oracle.distance_profile

        def profile(g, found):
            got = real_profile(g, found)
            return {**got, 2: got[2] + 1}

        monkeypatch.setattr(gjg.oracle, "distance_profile", profile)
        r = check_triple(9, 4, 1)
        assert r.failures == [
            "distance_profile: formula {0: 3, 1: 1, 2: 2, 3: 2, 4: 0}, oracle {0: 3, 1: 1, 2: 3, 3: 2, 4: 0}",
            "common_neighbor: x=2: distance 3 contradicts predicate",
            "witness: geodesic at x=2 of length 2 fails verify_walk or measured 3",
            "max_route: measured 3 != closed form 2",
        ], r.failures

    @pytest.mark.parametrize("triple, sources", [((9, 4, 1), 10), ((12, 5, 2), 4)])
    def test_measures_each_source_profile_once(self, monkeypatch, triple, sources):
        # The sweep's report searches each of the oracle's sources once and
        # agrees every one of their profiles, measured once each.
        profiles, searches = Counter(), Counter()
        real_profile, real_search = gjg.oracle.distance_profile, gjg.oracle.search

        def profile(g, found):
            profiles[found.source] += 1
            return real_profile(g, found)

        def search(g, s):
            searches[s] += 1
            return real_search(g, s)

        monkeypatch.setattr(gjg.oracle, "distance_profile", profile)
        monkeypatch.setattr(gjg.oracle, "search", search)
        r = check_triple(*triple)
        assert r.passed, r.failures
        want = dict.fromkeys(_sources(make_parameters(*triple)), 1)
        assert len(want) == sources and profiles == searches == want

    def test_detects_a_common_neighbor_of_one_end_only(self, monkeypatch):
        # The constructed witness is adjacent to a but not to b, wherever
        # such a vertex exists (not for a = b).
        real = gjg.witness.common_neighbor

        def one_sided(p, a, b):
            c = real(p, a, b)  # raises where no common neighbor exists
            return next((d for d in combinations(range(p.v), p.k)
                         if len(set(d) & set(a)) == p.i != len(set(d) & set(b))), c)

        monkeypatch.setattr(gjg.witness, "common_neighbor", one_sided)
        r = check_triple(9, 4, 1)
        assert [m.split(" constructed")[0] for m in r.failures] == [
            "common_neighbor: x=1:", "common_neighbor: x=2:", "common_neighbor: x=3:"], r.failures
        assert all(m.endswith("is not a shared neighbor") for m in r.failures)

    def test_detects_a_negated_common_neighbor_predicate(self, monkeypatch):
        # The report block compares the predicate with the report at every
        # class: x = 4 with the vertex itself, x = i = 1 with the girth, the
        # rest with the distance.  The construction agrees with the rows,
        # so the graph block adds no line, and every later check still runs.
        real = gjg.formulas.has_common_neighbor
        monkeypatch.setattr(gjg.formulas, "has_common_neighbor", lambda p, x: not real(p, x))
        r = check_triple(9, 4, 1)
        assert r.failures == [
            "common_neighbor: x=0: distance 3 contradicts predicate",
            "common_neighbor: x=1: girth 3 contradicts predicate",
            "common_neighbor: x=2: distance 2 contradicts predicate",
            "common_neighbor: x=3: distance 2 contradicts predicate",
            "common_neighbor: x=4: distance 0 contradicts predicate",
        ], r.failures
        assert not any(m.startswith("internal:") for m in r.failures), r.failures
        assert r.checks["rank_roundtrip"] == 126

    def test_reads_the_common_neighbor_predicate_once_per_class(self, monkeypatch):
        # J(9,4,1) has the five classes x = 0..4; only the report block
        # reads the predicate.
        calls = Counter()
        real = gjg.formulas.has_common_neighbor

        def counted(p, x):
            calls[x] += 1
            return real(p, x)

        monkeypatch.setattr(gjg.formulas, "has_common_neighbor", counted)
        assert check_triple(9, 4, 1).passed
        assert calls == dict.fromkeys(range(5), 1)

    def test_a_construction_that_raises_fails_its_witness_line_alone(self, monkeypatch):
        # The odd walk's own check raises; the triple's other checks go on.
        def broken(p):
            raise AssertionError("odd_closed_walk built an invalid walk")

        monkeypatch.setattr(gjg.witness, "odd_closed_walk", broken)
        r = check_triple(9, 4, 1)
        assert r.failures == ["witness: odd walk: AssertionError: odd_closed_walk built an invalid walk"]
        assert r.checks["rank_roundtrip"] == 126

    def test_detects_lower_bound_violation(self, monkeypatch):
        # delta(J(9,4,1)) is 3; at 1 the even bound at x = 2 needs a path of
        # length 4, while the graph measures 2.
        monkeypatch.setattr(gjg.sweep, "delta", lambda p: 1)
        r = check_triple(9, 4, 1)
        assert any(msg.startswith("lower_bound: x=2:") for msg in r.failures), r.failures

    def test_lower_bound_counts_every_reached_pair(self):
        # J(6,3,0) is a matching: only the source and its partner are reached,
        # and delta is 0, so no bound is checked; J(9,4,1) reaches all 126
        # vertices from each of its 10 sources.
        assert "lower_bound" not in check_triple(6, 3, 0).checks
        assert check_triple(9, 4, 1).checks["lower_bound"] == 10 * 126

    def test_a_disagreeing_extra_source_fails_transitivity(self, monkeypatch):
        # J(9,4,1) has 10 sources; the last one's profile is skewed.
        real_profile = gjg.oracle.distance_profile
        last = _sources(make_parameters(9, 4, 1))[-1]

        def profile(g, found):
            got = real_profile(g, found)
            return {**got, 0: got[0] + 1} if found.source == last else got

        monkeypatch.setattr(gjg.oracle, "distance_profile", profile)
        r = check_triple(9, 4, 1)
        assert [m.split(":")[0] for m in r.failures] == ["transitivity"]
        assert "per-source distance profile disagrees" in r.failures[0]

    def test_a_matching_measured_with_a_girth_fails_the_comparison_alone(self, monkeypatch):
        # The closed forms give a matching no girth, so the one comparison
        # flags a measured girth; no matching check repeats it.
        real = gjg.oracle.report_from_graph
        monkeypatch.setattr(gjg.oracle, "report_from_graph", lambda g: real(g)._replace(girth=4))
        assert check_triple(8, 4, 0).failures == ["girth: formula None, oracle 4"]

    def test_a_matching_measured_as_connected_fails_the_comparison_alone(self, monkeypatch):
        # A finite distance at every partial overlap of J(8,4,0) is a
        # connected measurement; the comparison flags its diameter and
        # profile, and no matching check reads the connected field.
        real = gjg.oracle.report_from_graph
        profile = {0: 1, 1: 3, 2: 3, 3: 3, 4: 0}
        monkeypatch.setattr(gjg.oracle, "report_from_graph", lambda g: real(g)._replace(
            diameter=3, distance_profile=profile, connected=True))
        assert check_triple(8, 4, 0).failures == [
            "diameter: formula inf, oracle 3",
            "distance_profile: formula {0: 1, 1: inf, 2: inf, 3: inf, 4: 0}, oracle {0: 1, 1: 3, 2: 3, 3: 3, 4: 0}"]


class TestCheckPairing:
    # J(8,4,0) pairs rank r with 69 - r: row 0's partner is bit 5 of byte 8.
    NOT_COMPLEMENT = ["matching: a vertex's only neighbor is not its complement"]

    def _failures(self, edits, t=(8, 4, 0)):
        g = build_graph(make_parameters(*t))
        g = dataclasses.replace(g, adj=g.adj.copy())
        for (row, col), byte in edits.items():
            g.adj[row, col] = byte
        res = TripleResult(*t, g.n, "matching")
        _check_pairing(res, g)
        assert res.checks == {"matching": 1}
        return res.failures

    def test_matching_passes(self):
        assert self._failures({}) == []

    @pytest.mark.parametrize("col, byte", [
        (8, 0x00),  # no neighbor
        (0, 0x40),  # a second neighbor in another byte
        (8, 0x0C),  # a second neighbor in the same byte
    ])
    def test_not_one_regular(self, col, byte):
        assert self._failures({(0, col): byte}) == self.NOT_COMPLEMENT

    def test_not_an_involution(self):
        # 0 -> 1 while 1 -> 68 still
        edits = {(0, 8): 0x00, (0, 0): 0x40}
        assert self._failures(edits) == self.NOT_COMPLEMENT

    def test_involution_that_is_not_the_complement(self):
        # J(6,3,0) pairs r with 19 - r; 0 <-> 18 and 1 <-> 19 is a perfect
        # matching and an involution, but not the complement pairing.
        edits = {(0, 2): 0x20, (18, 0): 0x80, (1, 2): 0x10, (19, 0): 0x40}
        assert self._failures(edits, (6, 3, 0)) == self.NOT_COMPLEMENT


class TestCheckComplements:
    @staticmethod
    def _result(v, k, i, girth, profile):
        return TripleResult(
            v, k, i, 1, "standard",
            measured=OracleReport(make_parameters(v, k, i), girth, girth, 2, profile, True),
        )

    def test_agreement(self):
        low = self._result(7, 4, 2, 3, {1: 2, 2: 1, 3: 2, 4: 0})
        high = self._result(7, 3, 1, 3, {0: 2, 1: 1, 2: 2, 3: 0})
        checked, failures = check_complements([low, high])
        assert checked == 1 and failures == []

    def test_mismatch_is_flagged(self):
        low = self._result(7, 4, 2, 4, {1: 2, 2: 1, 3: 2, 4: 0})
        high = self._result(7, 3, 1, 3, {0: 2, 1: 1, 2: 2, 3: 0})
        checked, failures = check_complements([low, high])
        assert checked == 1 and len(failures) == 1

    @pytest.mark.parametrize("high_profile", [
        {0: 2, 1: 1, 2: 1, 3: 0},  # differs at the normal form's x = 2, J(7,4,2)'s x = 3
        {1: 2, 2: 1, 3: 2, 4: 0},  # keyed by J(7,4,2)'s sizes 1..4, not shifted to 0..3
    ], ids=["one_x", "unshifted"])
    def test_profile_mismatch_is_flagged(self, high_profile):
        # Girth, odd girth and diameter agree; only the profiles differ.
        low = self._result(7, 4, 2, 3, {1: 2, 2: 1, 3: 2, 4: 0})
        high = self._result(7, 3, 1, 3, high_profile)
        checked, failures = check_complements([low, high])
        assert checked == 1 and failures == ["J(7,4,2) disagrees with its complement form"]

    def test_missing_partner_is_flagged(self):
        low = self._result(7, 4, 2, 3, {1: 2, 2: 1, 3: 2, 4: 0})
        _, failures = check_complements([low])
        assert failures and "missing" in failures[0]

    @pytest.mark.parametrize("unmeasured", ["low", "high", "both"])
    def test_missing_report_is_flagged(self, unmeasured):
        # A triple that failed before the oracle agreed has no report.
        low = self._result(7, 4, 2, 3, {1: 2, 2: 1, 3: 2, 4: 0})
        high = self._result(7, 3, 1, 3, {0: 2, 1: 1, 2: 2, 3: 0})
        for side, r in (("low", low), ("high", high)):
            if unmeasured in (side, "both"):
                r.measured = None
        checked, failures = check_complements([low, high])
        assert checked == 1 and len(failures) == 1
        assert "no oracle report" in failures[0]


def test_report_block_passes_the_quotient_up_to_32(monkeypatch):
    # The report block reads no graph, so the quotient's report passes it
    # on every non-degenerate triple with v <= 32, v < 2k and matchings
    # included; each class stands for all of its pairs with the root.
    # Measured at 1.4-1.5 s on a 2-vCPU VM.
    def no_graph(*args):
        raise AssertionError("the report block built a graph")

    monkeypatch.setattr(gjg.oracle, "build_graph", no_graph)
    start = time.perf_counter()
    triples = [p for v in range(33) for k in range(v + 1) for i in range(k + 1)
               if not (p := make_parameters(v, k, i)).is_degenerate]
    assert len(triples) == 2856
    failed, tallied = [], Counter()
    for p in triples:
        res = TripleResult(p.v, p.k, p.i, math.comb(p.v, p.k), p.graph_class.value)
        _check_report(res, scheme_report(p), 1)
        failed += res.failures
        tallied.update(res.checks.keys())
    elapsed = time.perf_counter() - start
    assert failed == []
    assert all(tallied[name] == 2856 for name in ("girth", "odd_girth", "diameter", "distance_profile"))
    assert tallied["witness"] > 0 and tallied["max_route"] > 0 and tallied["lower_bound"] > 0
    assert elapsed < 12, f"{elapsed:.1f} s"


def test_a_report_missing_a_class_fails_its_comparison_alone():
    # Every check after the comparison reads the classes the report
    # measured, so J(9,4,1)'s quotient without x = 2 fails one line.
    p = make_parameters(9, 4, 1)
    full = scheme_report(p)
    report = full._replace(distance_profile={x: d for x, d in full.distance_profile.items() if x != 2})
    res = TripleResult(9, 4, 1, 126, p.graph_class.value)
    _check_report(res, report, 1)
    assert res.failures == [
        "distance_profile: formula {0: 3, 1: 1, 2: 2, 3: 2, 4: 0}, oracle {0: 3, 1: 1, 3: 2, 4: 0}"]
    assert res.checks["witness"] == 4 + 2 and res.checks["max_route"] == 1


def test_interface_probes_run_under_default_config():
    checked, failures = check_interfaces(SweepConfig())
    assert checked >= 9 and failures == []


@pytest.mark.parametrize("jobs", [1, 2])
def test_empty_sweep_passes_with_no_results(jobs):
    out = run_sweep(SweepConfig(max_vertices=1, jobs=jobs))
    assert out.passed and out.results == [] and out.total_checks == 0


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, runs in-process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


# Chunks of 8 triples: v_max=3 has 4 triples, one chunk, which runs
# without a pool; v_max=4 has 10, two chunks; v_max=7 has 56, seven.
@pytest.mark.parametrize("v_max, jobs, pools", [
    (3, 64, []), (3, 2, []), (4, 64, [2]), (4, 2, [2]), (7, 64, [7]), (7, 3, [3]),
])
def test_pool_has_no_more_workers_than_chunks(monkeypatch, v_max, jobs, pools):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    cfg = SweepConfig(v_max=v_max, max_vertices=100, jobs=jobs)
    out = run_sweep(cfg)
    assert _RecordingPool.sizes == pools
    assert out.passed and [r.triple for r in out.results] == sweep_triples(cfg)


@pytest.mark.parametrize("jobs", [1, 2])
def test_progress_is_called_once_per_triple(jobs):
    cfg = SweepConfig(v_max=6, max_vertices=100, jobs=jobs)
    seen = []
    out = run_sweep(cfg, progress=lambda r: seen.append(r.triple))
    assert sorted(seen) == [r.triple for r in out.results] == sweep_triples(cfg)


def test_run_sweep_small_end_to_end():
    out = run_sweep(SweepConfig(v_max=6, max_vertices=100))
    assert out.passed
    assert len(out.results) == len(sweep_triples(SweepConfig(v_max=6, max_vertices=100)))
    assert out.total_checks > 0
    assert out.interface_checked > 0
