#!/usr/bin/env python3
"""kimdb benchmark: one workload, one run.

    python3 perfbench/run.py --workload oo1 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; kimdb is imported from ``src/``.
Workloads: ``oo1``, ``fig1-scan``, ``wire-mvcc`` (see README.md).

``--trace 0`` measures untraced and reports the end-to-end metrics.
``--trace 1`` spends half the time untraced (counter deltas, base
throughput) and half traced (layer spans and probes), and reports the
per-layer metrics.  The last line of standard output is one JSON object;
the lines before it are the full report, with sample counts.  The exit
code is non-zero when an oracle or durability check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Calibration kernel samples before and after each set-up (the loaders
#: take one more after every load transaction).
CALIBRATION_TICKS = 5


def _import_program() -> None:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit("perfbench: kimdb sources not found under %s" % src)
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)


def pin_to_one_cpu() -> None:
    """Run every thread of the process on one CPU.

    The interpreter lock lets one thread run Python at a time anyway.  On
    one CPU, the calibration kernel on the generator thread times the same
    CPU that the server's worker threads run on, so time stolen from
    that CPU by other tenants scales both alike."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def workloads():
    from kb.fig1 import Fig1Scan
    from kb.oo1 import OO1
    from kb.wire import WireMVCC

    return {cls.name: cls for cls in (OO1, Fig1Scan, WireMVCC)}


def counters(db) -> dict:
    return {k: v for k, v in db.metrics.snapshot().items() if isinstance(v, (int, float))}


def run(name: str, seed: int, seconds: float, trace: bool, rounds=None) -> dict:
    """Set up ``SETUP_REPEATS`` times, measure on the last set-up, then
    check durability and stored bytes.  Returns the raw measurements."""
    from kb.common import Calibration, Spans, drive, timed

    cls = workloads()[name]
    base = os.path.join(ROOT, ".bench_work")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=name + "-", dir=base)
    inst = None
    try:
        setups, scaled_setups = [], []
        for attempt in range(SETUP_REPEATS):
            if inst is not None:
                inst.close()
                inst = None
            where = os.path.join(workdir, "setup%d" % attempt)
            os.makedirs(where)
            calibration = Calibration()
            for _ in range(CALIBRATION_TICKS):
                calibration.tick()
            elapsed, inst = timed(cls, seed, where, calibration.tick)
            for _ in range(CALIBRATION_TICKS):
                calibration.tick()
            setups.append(elapsed - calibration.spent)
            scaled_setups.append(calibration.scaled(elapsed))
        phase = seconds / 2.0 if trace else seconds
        before = counters(inst.db)
        untraced = drive(inst.round, phase, rounds)
        after = counters(inst.db)
        delta = {k: after[k] - before.get(k, 0) for k in after}
        traced = spans = text = None
        if trace:
            spans = Spans()
            inst.trace(spans)
            try:
                traced = drive(inst.round, phase, rounds)
            finally:
                inst.untrace()
            inst.storage_probes()
            text = inst.text_metrics(spans)
        stored = inst.finish()
        finished, inst = inst, None
        return {
            "workload": finished,
            "setups": setups,
            "scaled_setups": scaled_setups,
            "untraced": untraced,
            "traced": traced,
            "spans": spans,
            "delta": delta,
            "stored": stored,
            "text": text or {},
        }
    finally:
        if inst is not None:
            inst.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def end_to_end(raw: dict) -> dict:
    from kb.common import median, percentile

    inst, res = raw["workload"], raw["untraced"]
    reads = [s for c in inst.READ_CLASSES for s in res.scaled.get(c, ())]
    return {
        "setup_s": (median(raw["scaled_setups"]), "s"),
        "throughput_ops_s": (res.throughput(), "1/s"),
        "read_p50_ms": (1e3 * percentile(reads, 50), "ms"),
        "read_p90_ms": (1e3 * percentile(reads, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "bytes_per_user_byte": (raw["stored"] / inst.user_bytes, "ratio"),
    }


def per_layer(raw: dict) -> dict:
    from kb.common import median, ratio

    inst, delta, probes = raw["workload"], raw["delta"], raw["workload"].probes
    ops = raw["untraced"].completed()
    ledger = raw["spans"].ledger()
    unattributed = [u for entry in ledger.values() for u in entry["unattributed"]]

    def d(name):
        return delta.get(name, 0)

    def per_op(name):
        return ratio(d(name), ops)

    maintenance = sum(v for k, v in delta.items()
                      if k.startswith("index.") and k.endswith((".inserts", ".removes")))
    return {
        "query.front_ms": (1e3 * median(probes["front"]), "ms"),
        "query.check_ms": (1e3 * median(probes["check"]), "ms"),
        "plancache.validate_ms": (1e3 * median(probes["validate"]), "ms"),
        "plancache.hit_ratio": (ratio(d("query.plan_cache.hits"),
                                      d("query.plan_cache.hits") + d("query.plan_cache.misses")), "ratio"),
        "query.plans_per_op": (per_op("query.plans"), "count"),
        "executor.self_ms": (1e3 * median(probes["exec_self"]), "ms"),
        "query.rows_examined_per_row": (ratio(d("query.rows_examined"), d("query.rows_matched")), "ratio"),
        "query.index_probes_per_op": (per_op("query.index_probes"), "count"),
        "storage.load_us": (1e6 * median(probes["storage_load"]), "us"),
        "storage.scan_us_per_row": (median(probes["scan_us_per_row"]), "us"),
        "buffer.hit_ratio": (ratio(d("buffer.hits"), d("buffer.hits") + d("buffer.faults")), "ratio"),
        "pager.reads_per_op": (per_op("pager.reads"), "count"),
        "pager.writes_per_op": (per_op("pager.writes"), "count"),
        "index.lookup_eq_us": (1e6 * median(probes["index_eq"]), "us"),
        "index.maintenance_per_op": (ratio(maintenance, ops), "count"),
        "locks.acquisitions_per_op": (per_op("locks.acquisitions"), "count"),
        "locks.wait_s": (float(d("locks.wait_seconds")), "s"),
        "versions.index_plan_ratio": (ratio(sum(probes["index_plan"]), len(probes["index_plan"])), "ratio"),
        "versions.live_entries_max": (inst.live_entries_max, "count"),
        "versions.snapshot_reads_per_op": (per_op("txn.snapshot.reads"), "count"),
        "wal.syncs_per_op": (per_op("wal.syncs"), "count"),
        "wal.bytes_per_op": (per_op("wal.append_bytes"), "B"),
        "wal.page_image_bytes_per_op": (per_op("wal.page_image_bytes"), "B"),
        "trace.unattributed_ms": (1e3 * median(unattributed), "ms"),
        "trace.overhead_ratio": (ratio(raw["traced"].throughput(), raw["untraced"].throughput()), "ratio"),
    }


def text_report(raw: dict, trace: bool) -> list:
    """Every named metric, per op class, with units and sample counts."""
    from kb.common import median, percentile, ratio

    inst, res = raw["workload"], raw["untraced"]
    lines = ["# workload %s (%s)" % (inst.name, "traced run" if trace else "untraced run")]
    lines.append("(times at reference speed; measured wall-clock times in brackets)")
    lines.append("setup_s %.4f s [%.4f] (n=%d)" % (
        median(raw["scaled_setups"]), median(raw["setups"]), len(raw["setups"])))
    lines.append("throughput_ops_s %.3f 1/s [%.3f] (n=%d ops in %d rounds)" % (
        res.throughput(), res.throughput(scaled=False), res.completed(), len(res.rounds)))
    lines.append("error_rate %.4f (failed %d of %d attempted)"
                 % (ratio(res.failed, res.attempted), res.failed, res.attempted))
    lines.append("peak_rss_mb %.1f MB (n=1)"
                 % (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0))
    lines.append("bytes_per_user_byte %.4f (%d stored bytes / %d user bytes)"
                 % (raw["stored"] / inst.user_bytes, raw["stored"], inst.user_bytes))
    for op_class, samples in sorted(res.latencies.items()):
        scaled = res.scaled[op_class]
        n = len(samples)
        for pct in (50, 99 if n >= 1000 else 90):
            lines.append("%s_p%d_ms %.4f ms [%.4f] (n=%d)" % (
                op_class, pct, 1e3 * percentile(scaled, pct), 1e3 * percentile(samples, pct), n))
    if not trace:
        return lines
    delta = raw["delta"]
    commits = delta.get("txn.commits", 0)
    lookups = len(res.latencies.get("lookup", ()))
    spans = raw["spans"]
    writes = spans.durations("database.new") + spans.durations("database.update")
    extra = {
        "query.plans_per_lookup": ratio(delta.get("query.plans", 0), lookups) if lookups else None,
        "txn.commit_ms": 1e3 * median(spans.durations("txn.commit")) if commits else None,
        "txn.write_call_us": 1e6 * median(writes) if writes else None,
        "wal.syncs_per_commit": ratio(delta.get("wal.syncs", 0), commits) if commits else None,
        "wal.bytes_per_commit": ratio(delta.get("wal.append_bytes", 0), commits) if commits else None,
        "wal.page_image_bytes_per_commit":
            ratio(delta.get("wal.page_image_bytes", 0), commits) if commits else None,
        "server.requests_per_op": ratio(delta.get("server.requests", 0), res.completed()),
        "server.bytes_out_per_row": ratio(delta.get("server.bytes_out", 0),
                                          delta.get("server.rows_streamed", 0))
        if delta.get("server.rows_streamed") else None,
    }
    extra.update(raw["text"])
    for name, value in sorted(extra.items()):
        lines.append("%s %s" % (name, "n/a (no such ops in this workload)" if value is None
                                else "%.4f" % value))
    for op_class, entry in sorted(spans.ledger().items()):
        n = entry["ops"]
        lines.append("ledger %s: %d ops, p50 %.4f ms, unattributed p50 %.4f ms"
                     % (op_class, n, 1e3 * median(entry["durations"]), 1e3 * median(entry["unattributed"])))
        for layer, seconds in sorted(entry["layers"].items(), key=lambda kv: -kv[1]):
            lines.append("ledger %s: %-26s self %.4f ms/op" % (op_class, layer, 1e3 * seconds / n))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    pin_to_one_cpu()
    if args.workload not in workloads():
        parser.error("unknown workload %r (expected one of %s)"
                     % (args.workload, ", ".join(sorted(workloads()))))
    from kb.common import OracleError

    try:
        raw = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except OracleError as exc:
        print("ORACLE FAILURE: %s" % exc)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    for line in text_report(raw, bool(args.trace)):
        print(line)
    metrics = per_layer(raw) if args.trace else end_to_end(raw)
    attempted = raw["untraced"].attempted + (raw["traced"].attempted if raw["traced"] else 0)
    failed = raw["untraced"].failed + (raw["traced"].failed if raw["traced"] else 0)
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
