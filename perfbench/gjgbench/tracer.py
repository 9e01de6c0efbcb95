"""In-memory spans around calls into gjg's public functions.

The tracer wraps a function at every name that a gjg module binds it
under, so a call is recorded whichever way its caller resolves it
(``sweep.invariant_report``, ``oracle.bfs_distances`` called from inside
``oracle_girth``, ...).  Spans are kept in a list and only summarized or
written out after a pass; nothing is traced inside the package itself.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One function to trace: ``module.attr`` recorded as span ``name``.

    ``observe(args, result, duration_ns)`` runs after each successful call
    and feeds counters; ``request_of(*args)`` names the request when the
    call is not nested in another traced call.
    """

    module: str
    attr: str
    name: str
    observe: Callable | None = None
    request_of: Callable | None = None


class Tracer:
    """Span recorder.  A span is (name, start_ns, end_ns, parent, request);
    parent is the index of the enclosing span or -1."""

    def __init__(self) -> None:
        self.spans: list = []
        self.request = None
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        name, observe, request_of = target.name, target.observe, target.request_of

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if request_of is not None and not stack:
                self.request = request_of(*args)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request)
            if observe is not None:
                observe(args, result, end - start)
            return result

        return traced

    def install(self, targets: list[Target]) -> None:
        """Replace each target at every gjg module attribute bound to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "gjg" or n.startswith("gjg."))]
        for target in targets:
            original = getattr(sys.modules[target.module], target.attr)
            wrapper = self._wrap(target, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            mod, key, original = self._patches.pop()
            setattr(mod, key, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def summarize(spans: list) -> dict[str, list[int]]:
    """Per span name: [calls, total_ns, self_ns].  Self time is a span's
    duration minus the durations of its direct children."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, list[int]] = {}
    for index, (name, start, end, _, _) in enumerate(spans):
        row = out.setdefault(name, [0, 0, 0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child_ns[index]
    return out


def write_spans(spans: list, path: str) -> None:
    """Tab-separated spans, one per line, times in ns from the first span."""
    origin = spans[0][1] if spans else 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index\tname\tstart_ns\tend_ns\tparent\trequest\n")
        for index, (name, start, end, parent, request) in enumerate(spans):
            fh.write(f"{index}\t{name}\t{start - origin}\t{end - origin}\t{parent}\t{request}\n")
