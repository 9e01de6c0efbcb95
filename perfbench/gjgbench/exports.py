"""export: ``oracle.build_graph`` then ``graphio.export_graph`` in both
formats, on mid-size graphs each with its own (v,k) family, so every build
enumerates its family from scratch.  Payloads are gated by sha256: the
export format is documented as byte-identical across runs."""

from __future__ import annotations

import hashlib
import random
from time import perf_counter

from gjg import graphio, oracle, params

from .common import PassResult, load_expected

FORMATS = ("edgelist", "dimacs")
# One slot per graph.  The seed picks, per slot, a triple or its
# complement form J(v, v-k, v-2k+i): isomorphic, with the same vertex and
# edge counts and so the same cost, but a different family and payload.
SLOTS = [
    ((13, 6, 3), (13, 7, 4)),    # 1716 vertices, 600600 edges: serialisation-bound
    ((15, 6, 0), (15, 9, 3)),    # 5005 vertices, 210210 edges: family-build-bound
    ((15, 5, 0), (15, 10, 5)),   # 3003 vertices, 378378 edges
    ((14, 4, 1), (14, 10, 7)),   # 1001 vertices, 240240 edges
]
SMOKE_SLOTS = [((7, 3, 0), (7, 4, 1)), ((8, 3, 1), (8, 5, 3))]


class Export:
    boundary_only = False
    speed_clock = True

    def __init__(self, seed: int, size: str) -> None:
        recorded = load_expected("export.json")
        rng = random.Random(seed)
        # A fixed order: payloads stay alive until the pass is checked, so
        # the order would otherwise move the peak RSS.
        self.graphs = [rng.choice(pair) for pair in (SMOKE_SLOTS if size == "smoke" else SLOTS)]
        self.expected = {t: [recorded["%d,%d,%d" % t][fmt] for fmt in FORMATS] for t in self.graphs}

    def run_pass(self, tracer=None, clock=None) -> PassResult:
        ops, payloads = [], []
        start = perf_counter()
        for t in self.graphs:
            if tracer is not None:
                tracer.request = "J(%d,%d,%d)" % t
            t0 = perf_counter()
            g = oracle.build_graph(params.make_parameters(*t))
            out = []
            for fmt in FORMATS:
                # Calibration inside an operation is left out of its time.
                if clock is not None:
                    clock.checkpoint(force=False)
                out.append(graphio.export_graph(g, fmt))
            del g
            ops.append((t0, perf_counter()))
            payloads.append(out)
            if clock is not None:
                clock.checkpoint(force=False)
        return PassResult(start, perf_counter(), ops, len(self.graphs) * len(FORMATS), payloads)

    def check(self, payloads) -> list[str]:
        return [
            f"J{t} {fmt}: sha256 {got[:16]}, recorded {want[:16]}"
            for t, out in zip(self.graphs, payloads)
            for fmt, got, want in zip(FORMATS, (hashlib.sha256(b).hexdigest() for b in out),
                                      self.expected[t])
            if got != want
        ]


def record() -> dict:
    out = {}
    for pair in SLOTS + SMOKE_SLOTS:
        for t in pair:
            g = oracle.build_graph(params.make_parameters(*t))
            out["%d,%d,%d" % t] = {fmt: hashlib.sha256(graphio.export_graph(g, fmt)).hexdigest()
                                   for fmt in FORMATS}
    return out
