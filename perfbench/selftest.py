#!/usr/bin/env python3
"""Determinism self-test of the benchmark.

    python3 perfbench/selftest.py [--rounds 2] [--workload oo1 ...]

For each workload, runs a fixed number of rounds twice with one seed and
once with another.  Same seed: every deterministic counter delta and every
op key must be identical.  Other seed: the keys must differ while the
number of ops per class stays the same.  Exits non-zero on any mismatch.
"""

from __future__ import annotations

import argparse
import sys

import run as bench

#: Counters that one caller in a fixed interleave must repeat exactly.
DETERMINISTIC = (
    "query.plans", "query.plan_cache.", "query.rows_examined", "query.rows_matched",
    "query.index_probes", "query.executes", "pager.", "buffer.hits", "buffer.faults",
    "buffer.evictions", "wal.syncs", "wal.appends", "wal.append_bytes",
    "wal.page_image", "server.requests", "server.rows_streamed", "txn.snapshot.",
    "txn.commits", "locks.acquisitions", "index.",
)


def fingerprint(raw: dict) -> tuple:
    delta = {k: v for k, v in raw["delta"].items() if k.startswith(DETERMINISTIC)}
    classes = {c: len(v) for c, v in raw["untraced"].latencies.items()}
    return delta, classes, raw["workload"].keys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    bench._import_program()
    bench.pin_to_one_cpu()
    names = args.workload or sorted(bench.workloads())
    failures = 0
    for name in names:
        first, again, other = (
            fingerprint(bench.run(name, seed, 0.0, False, rounds=args.rounds))
            for seed in (1, 1, 2)
        )
        problems = []
        if first[0] != again[0]:
            diff = sorted(k for k in set(first[0]) | set(again[0])
                          if first[0].get(k) != again[0].get(k))
            problems.append("same seed, different counters: %s" % ", ".join(diff))
        if first[2] != again[2]:
            problems.append("same seed, different keys")
        if first[1] != other[1]:
            problems.append("other seed, different ops per class: %r vs %r" % (first[1], other[1]))
        if first[2] == other[2]:
            problems.append("other seed, same keys")
        print("%-10s %s (ops per class %r, %d counters compared)"
              % (name, "FAIL" if problems else "ok", first[1], len(first[0])))
        for problem in problems:
            print("    " + problem)
        failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
