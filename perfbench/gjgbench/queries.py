"""query-mix: a seeded stream of closed-loop library queries from one client.

The stream is a fixed list of slots, each a query kind on a fixed triple;
for queries on vertices or ranks a slot holds VARIANTS relabelings of its
arguments.  ``--seed`` picks one variant per slot and the order of the
stream, so every seed asks about the same triples, with the same mix of
sizes and costs, but with different vertices and ranks.  The slots come
from POOL_SEED, and the answer digest of every variant was recorded at a
known-good commit.  Triples reach v = 256, far beyond the oracle: no
query builds a graph.

Kinds: invariant reports, distances, geodesics, shortest cycles, odd
closed walks and common neighbours (each walk followed by verify_walk),
rank/unrank round trips, and in-process ``cli.main`` calls with their
output captured.  Triples with v < 2k are lifted the way the CLI lifts
them: the normalized triple's witness, complemented back through
``witness.complement_walk``.  A fixed share of the stream ("long") is
geodesics of length 100 in the odd graph J(201,100,0), with a
verify_walk over 101 vertex sets of 100 elements: those take
milliseconds where the rest take tens of microseconds, so the p99 and
the p50 see different work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
from time import perf_counter

from gjg import cli, formulas, graphio, params, witness
from gjg.errors import DegenerateClass, Disconnected, NoCommonNeighbor

from .common import PassResult, load_expected

POOL_SEED = 2304_02864
# Slots of each kind in the stream (one pass).
STREAM = {
    "report": 160, "distance": 130, "geodesic": 180, "cycle": 130, "oddwalk": 130,
    "common": 160, "rank": 130, "cli": 90, "long": 50,
}
VARIANTS = 3
SMOKE_DIVISOR = 25
EXPECTED_ERRORS = (DegenerateClass, Disconnected, NoCommonNeighbor)
CLI_COMMANDS = ("invariants-text", "invariants-structured", "distance", "cycle",
                "oddwalk", "geodesic")


# --- the pool -------------------------------------------------------------

def _ground_size(rng: random.Random) -> int:
    return rng.randint(2, 48) if rng.random() < 0.75 else rng.randint(49, 256)


def _random_triple(rng: random.Random) -> tuple[int, int, int]:
    """A triple of one of four families, in fixed shares: degenerate (empty
    vertex set or edgeless), matching, v < 2k, and normalized."""
    roll = rng.random()
    if roll < 0.08:
        v = _ground_size(rng)
        if rng.random() < 0.5:  # empty vertex set: k = i, or v = k
            k = rng.randint(1, v)
            return (v, k, k) if rng.random() < 0.5 else (k, k, rng.randint(0, k - 1))
        k = rng.randint(2, min(v, 128))  # edgeless: v < 2k and i < 2k - v
        v = rng.randint(k + 1, 2 * k - 1)
        return v, k, rng.randint(0, 2 * k - v - 1)
    if roll < 0.16:
        k = rng.randint(1, 60)
        return 2 * k, k, 0
    while True:
        v = _ground_size(rng)
        if v < 3:
            continue
        if roll < 0.40:  # v < 2k, not degenerate: 2k - v <= i < k
            k = rng.randint(v // 2 + 1, v - 1)
            i = rng.randint(2 * k - v, k - 1)
        else:
            k = rng.randint(1, v // 2)
            i = rng.randint(0, k - 1)
        if (v, i) != (2 * k, 0):
            return v, k, i


def _pair(rng: random.Random, v: int, k: int, x: int) -> tuple[tuple, tuple]:
    perm = list(range(v))
    rng.shuffle(perm)
    return tuple(sorted(perm[:k])), tuple(sorted(perm[:x] + perm[k:2 * k - x]))


def _slot(rng: random.Random, kind: str) -> list[tuple]:
    """The variants of one stream position: a fixed triple and intersection
    size, with VARIANTS labelings when the query names vertices or ranks."""
    if kind == "long":
        return [("geodesic", 201, 100, 0, *_pair(rng, 201, 100, 50)) for _ in range(VARIANTS)]
    v, k, i = _random_triple(rng)
    xs = list(range(max(0, 2 * k - v), k + 1))
    if kind in ("report", "cycle", "oddwalk"):
        return [(kind, v, k, i)]
    if kind == "distance":
        return [(kind, v, k, i, rng.choice(xs))]
    if kind == "cli":
        return [("cli", v, k, i, rng.choice(CLI_COMMANDS), rng.choice(xs))]
    if kind == "rank":
        return [(kind, v, k, i, rng.randrange(math.comb(v, k))) for _ in range(VARIANTS)]
    # A common-neighbour query asks about distinct vertices, so a-c-b is a
    # path; only a degenerate triple leaves x = k as the one choice.
    x = rng.choice(xs) if kind == "geodesic" else rng.choice(xs[:-1] or xs)
    return [(kind, v, k, i, *_pair(rng, v, k, x)) for _ in range(VARIANTS)]


def build_pool() -> dict[str, list[list[tuple]]]:
    rng = random.Random(POOL_SEED)
    return {kind: [_slot(rng, kind) for _ in range(n)] for kind, n in STREAM.items()}


def pool_fingerprint(pool: dict[str, list[list[tuple]]]) -> str:
    return hashlib.sha256(repr(sorted(pool.items())).encode()).hexdigest()


# --- the queries: what one client asks, timed as one operation --------------

def _complement(p, s):
    members = set(s)
    return tuple(e for e in range(p.v) if e not in members)


def _lifted(p, build):
    """Witness on the normalized triple, complemented back when v < 2k."""
    q = params.normalize(p)
    if q is p:
        return build(q, lambda s: s)
    return witness.complement_walk(p, build(q, lambda s: _complement(p, s)))


def _cli_argv(spec) -> list[str]:
    _, v, k, i, command, x = spec
    argv = ["--v", str(v), "--k", str(k), "--i", str(i)]
    if command.startswith("invariants"):
        return ["invariants", *argv, "--emit", command.split("-")[1]]
    if command == "distance":
        return ["distance", *argv, "--x", str(x), "--witness"]
    if command == "geodesic":
        return ["witness", *argv, "geodesic", "--x", str(x)]
    return ["witness", *argv, command]


def _run_cli(argv: list[str]):
    # write_through keeps print() and direct writes to .buffer in order.
    out = io.TextIOWrapper(io.BytesIO(), "utf-8", write_through=True)
    err = io.TextIOWrapper(io.BytesIO(), "utf-8", write_through=True)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.detach().getvalue(), err.detach().getvalue()


def ask(spec):
    """Run one query; returns its answer.  Expected domain errors are
    answers too; anything else propagates."""
    kind, v, k, i = spec[:4]
    if kind == "cli":
        return _run_cli(_cli_argv(spec))
    p = params.make_parameters(v, k, i)
    try:
        if kind == "report":
            return formulas.invariant_report(p)
        if kind == "distance":
            q = params.normalize(p)
            # Complementing shifts intersection sizes by v - 2k.
            return formulas.distance_by_intersection(q, spec[4] + q.k - p.k)
        if kind == "geodesic":
            a, b = spec[4], spec[5]
            w = _lifted(p, lambda q, comp: witness.geodesic(q, comp(a), comp(b)))
        elif kind == "cycle":
            w = _lifted(p, lambda q, comp: witness.shortest_cycle(q))
        elif kind == "oddwalk":
            w = _lifted(p, lambda q, comp: witness.odd_closed_walk(q))
        elif kind == "common":
            a, b = spec[4], spec[5]
            c = _lifted(p, lambda q, comp: witness.Walk(
                (witness.common_neighbor(q, comp(a), comp(b)),), witness.WalkKind.PATH, 0))
            w = witness.Walk((a, c.vertices[0], b), witness.WalkKind.PATH, 2)
        else:  # rank
            s = graphio.unrank(p, spec[4])
            return s, graphio.rank(p, s)
    except EXPECTED_ERRORS as exc:
        return type(exc)
    return w, witness.verify_walk(p, w)


# --- correctness ------------------------------------------------------------

def _canonical(answer):
    if isinstance(answer, type):
        return answer.__name__
    if isinstance(answer, formulas.InvariantReport):
        return (answer.girth, answer.odd_girth, answer.diameter,
                sorted(answer.distance_profile.items()))
    if isinstance(answer, tuple) and answer and isinstance(answer[0], witness.Walk):
        w, verified = answer
        return (w.kind.value, w.claimed_length, w.vertices, verified)
    return answer


def digest(answer) -> str:
    return hashlib.sha256(repr(_canonical(answer)).encode()).hexdigest()[:16]


def _expect_walk(answer, length, kind) -> str | None:
    if not (isinstance(answer, tuple) and answer and isinstance(answer[0], witness.Walk)):
        return f"expected a {kind.value} of length {length}, got {_canonical(answer)!r:.120}"
    w, verified = answer
    if not verified:
        return "walk fails verify_walk"
    if w.kind is not kind or w.claimed_length != length:
        return f"{w.kind.value} of length {w.claimed_length}, formula {length}"
    return None


def _expect(answer, wanted) -> str | None:
    return None if answer == wanted else f"expected {wanted!r:.120}, got {_canonical(answer)!r:.120}"


def check(spec, answer) -> str | None:
    """Independent check of one answer against the formula predicates;
    returns a failure message or None."""
    kind, v, k, i = spec[:4]
    p = params.make_parameters(v, k, i)
    rep = formulas.invariant_report(p)
    if kind == "report":
        return _expect(answer, rep)
    if kind == "cli":
        command, x = spec[4], spec[5]
        if command.startswith("invariants"):
            ok = True
        elif command in ("distance", "geodesic"):
            ok = not p.is_degenerate and rep.distance_profile[x] != formulas.INFINITE
        else:
            ok = (rep.girth if command == "cycle" else rep.odd_girth) is not None
        want = cli.EXIT_OK if ok else cli.EXIT_DOMAIN
        return None if answer[0] == want else f"exit code {answer[0]}, expected {want}"
    if kind == "rank":
        return _expect(answer[1] if isinstance(answer, tuple) else answer, spec[4])
    if p.is_degenerate:
        return _expect(answer, DegenerateClass)
    if kind == "distance":
        return _expect(answer, rep.distance_profile[spec[4]])
    if kind == "geodesic":
        a, b = spec[4], spec[5]
        length = rep.distance_profile[len(set(a) & set(b))]
        if length == formulas.INFINITE:
            return _expect(answer, Disconnected)
        bad = _expect_walk(answer, length, witness.WalkKind.PATH)
        if bad is None and (answer[0].vertices[0], answer[0].vertices[-1]) != (a, b):
            bad = "geodesic does not join the asked pair"
        return bad
    if kind in ("cycle", "oddwalk"):
        length = rep.girth if kind == "cycle" else rep.odd_girth
        if length is None:
            return _expect(answer, DegenerateClass)
        walk_kind = witness.WalkKind.CYCLE if kind == "cycle" else witness.WalkKind.CLOSED_WALK
        return _expect_walk(answer, length, walk_kind)
    # common neighbour
    q = params.normalize(p)
    x = len(set(spec[4]) & set(spec[5]))
    if not formulas.has_common_neighbor(q, x + q.k - p.k):
        return _expect(answer, NoCommonNeighbor)
    return _expect_walk(answer, 2, witness.WalkKind.PATH)


# --- the workload ------------------------------------------------------------

class QueryMix:
    boundary_only = False
    speed_clock = True

    def __init__(self, seed: int, size: str) -> None:
        recorded = load_expected("queries.json")
        pool = build_pool()
        if pool_fingerprint(pool) != recorded["fingerprint"]:
            raise RuntimeError("the query pool differs from the recorded one; "
                               "record the expected answers again")
        rng = random.Random(seed)
        self.stream = []
        for kind, slots in pool.items():
            count = max(1, len(slots) // SMOKE_DIVISOR) if size == "smoke" else len(slots)
            for j, variants in enumerate(slots[:count]):
                n = rng.randrange(len(variants))
                self.stream.append((f"{kind}#{j}.{n}", variants[n], recorded["digests"][kind][j][n]))
        rng.shuffle(self.stream)

    def run_pass(self, tracer=None, clock=None) -> PassResult:
        answers, ops = [], []
        start = perf_counter()
        for query_id, spec, _ in self.stream:
            if tracer is not None:
                tracer.request = query_id
            t0 = perf_counter()
            try:
                answer = ask(spec)
            except Exception as exc:  # a crash fails this query, not the run
                answer = exc
            ops.append((t0, perf_counter()))
            answers.append(answer)
            if clock is not None:
                clock.checkpoint(force=False)
        return PassResult(start, perf_counter(), ops, len(self.stream), answers)

    def check(self, answers) -> list[str]:
        failures = []
        for (query_id, spec, recorded), answer in zip(self.stream, answers):
            if isinstance(answer, Exception):
                failures.append(f"{query_id} {spec[:4]}: {type(answer).__name__}: {answer}")
                continue
            bad = check(spec, answer)
            if bad is None and digest(answer) != recorded:
                bad = "answer differs from the recorded one"
            if bad is not None:
                failures.append(f"{query_id} {spec[:4]}: {bad}")
        return failures


def record() -> dict:
    pool = build_pool()
    digests: dict = {}
    for kind, slots in pool.items():
        digests[kind] = []
        for variants in slots:
            row = []
            for spec in variants:
                answer = ask(spec)
                bad = check(spec, answer)
                if bad is not None:
                    raise SystemExit(f"{kind} {spec[:4]}: {bad}; refusing to record it")
                row.append(digest(answer))
            digests[kind].append(row)
    return {"fingerprint": pool_fingerprint(pool), "digests": digests}
