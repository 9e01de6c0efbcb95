"""Pieces shared by the workloads."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

EXPECTED_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "expected")


@dataclass
class PassResult:
    """One pass over a workload's fixed inputs, in raw perf_counter times.

    ``ops`` holds one (asked, answered) pair per operation; the harness
    turns them into latencies.  ``outputs`` are what the workload's
    ``check`` inspects once the pass is over, outside any trace; it
    returns one message per failed operation.  ``layers`` are per-layer
    figures the workload measures itself (counts from the results, worker
    CPU from rusage).
    """

    start: float
    end: float
    ops: list[tuple[float, float]]
    attempted: int
    outputs: object
    layers: dict[str, float] = field(default_factory=dict)


def load_expected(name: str) -> dict:
    with open(os.path.join(EXPECTED_DIR, name), encoding="utf-8") as fh:
        return json.load(fh)


def save_expected(name: str, data: dict) -> None:
    os.makedirs(EXPECTED_DIR, exist_ok=True)
    with open(os.path.join(EXPECTED_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
