#!/usr/bin/env python3
"""Rewrite the benchmark's gates (perfbench/expected/*.json) from this checkout.

    python3 perfbench/record.py [sweep] [queries] [export]

The gates hold the outputs of a commit known to be correct: per-triple
check tallies and stage totals of the sweeps, answer digests of the query
pool, sha256 of every export payload.  Recording refuses outputs that
fail their own checks.  Run it only when a change alters outputs on
purpose, and say so where the change is described.  The sweep part runs
the whole desk sweep, about a minute and a half.
"""

from __future__ import annotations

import sys

from run import import_program


def main(argv: list[str]) -> int:
    import_program()
    from gjgbench import common, exports, queries, sweeps

    parts = {"sweep": sweeps.record, "queries": queries.record, "export": exports.record}
    for name in argv or list(parts):
        common.save_expected(f"{name}.json", parts[name]())
        print(f"recorded {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
