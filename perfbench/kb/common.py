"""Shared machinery: op results, the closed-loop runner, the span
recorder used by traced runs, and the small statistics helpers."""

from __future__ import annotations

import math
import os
import shutil
import statistics
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

from repro.core.oid import OID
from repro.errors import TransactionError
from repro.server.protocol import ServerError

#: Errors that mean "the system refused or failed this operation".  They
#: count against ``error_rate``; any other exception aborts the run.
REFUSED = (ServerError, TransactionError)


class OracleError(AssertionError):
    """An operation returned a wrong answer: the run fails."""


def check(condition: bool, message: str, *args: Any) -> None:
    if not condition:
        raise OracleError(message % args if args else message)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: List[float]) -> float:
    """The median (0 for an empty sample)."""
    return statistics.median(values) if values else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def user_bytes(values: Dict[str, Any]) -> int:
    """Bytes of user data in one record, counted from the generator's own
    values and independent of kimdb's record format: 8 per integer or
    reference, the UTF-8 length of a string, the sum over a list."""
    total = 0
    for value in values.values():
        if isinstance(value, str):
            total += len(value.encode("utf-8"))
        elif isinstance(value, (list, tuple)):
            total += user_bytes(dict(enumerate(value)))
        elif isinstance(value, (int, float, OID)):
            total += 8
    return total


# ----------------------------------------------------------------------
# machine-speed calibration
# ----------------------------------------------------------------------


class _Item:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def __lt__(self, other: "_Item") -> bool:
        return self.value < other.value


_ITEMS = [_Item((i * 7919) % 10007) for i in range(4500)]
_TABLE = {i: i * i for i in range(1024)}
_PIVOT = _Item(5003)
#: The calibration kernel's time on the reference machine.  Reported
#: times are scaled by ``KERNEL_REF_S / measured kernel time``.
KERNEL_REF_S = 0.001


def kernel() -> float:
    """Seconds for a fixed pure-Python loop: attribute reads, dict
    probes, arithmetic and a Python-level comparison per item.  It
    allocates no container, so the program's heap cannot make it trigger
    a garbage collection."""
    started = time.perf_counter()
    acc = 0
    table = _TABLE
    pivot = _PIVOT
    for item in _ITEMS:
        acc += table[item.value & 1023] ^ item.value
        if item < pivot:
            acc += 1
    return time.perf_counter() - started


class Calibration:
    """Kernel samples taken in between the steps of one timed stretch
    of work (a set-up), to scale its time to the reference speed."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent = 0.0

    def tick(self) -> None:
        seconds = kernel()
        self.samples.append(seconds)
        self.spent += seconds

    def scaled(self, elapsed: float) -> float:
        """``elapsed`` without the kernel's own time, at reference speed."""
        return (elapsed - self.spent) * KERNEL_REF_S / median(self.samples)


# ----------------------------------------------------------------------
# results of one measured phase
# ----------------------------------------------------------------------


class Results:
    """Latencies per op class plus the attempted/failed counts."""

    def __init__(self) -> None:
        self.latencies: Dict[str, List[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        #: (ops completed, seconds inside ops) of each finished round.
        self.rounds: List[tuple] = []
        #: Latencies scaled to the reference machine speed by the
        #: calibration kernel timed around each op.
        self.scaled: Dict[str, List[float]] = defaultdict(list)
        self.scaled_rounds: List[tuple] = []
        self._round_ops: List[tuple] = []
        self._round_kernel: List[float] = []

    def ok(self, op_class: str, seconds: float) -> None:
        self.attempted += 1
        self.latencies[op_class].append(seconds)
        self._round_ops.append((op_class, seconds))
        self._round_kernel.append(kernel())

    def refused(self) -> None:
        self.attempted += 1
        self.failed += 1

    def completed(self) -> int:
        return sum(len(v) for v in self.latencies.values())

    def end_round(self) -> None:
        self.rounds.append((len(self._round_ops), sum(s for _c, s in self._round_ops)))
        # Each op is scaled by the median kernel time of the samples
        # taken right before and after it, and after the next op: a
        # burst of contention that slowed the op slowed those too.
        kernels = self._round_kernel
        busy = 0.0
        for index, (op_class, seconds) in enumerate(self._round_ops):
            window = kernels[max(0, index - 1):index + 2]
            seconds *= KERNEL_REF_S / median(window)
            self.scaled[op_class].append(seconds)
            busy += seconds
        if self._round_ops:
            self.scaled_rounds.append((len(self._round_ops), busy))
        self._round_ops, self._round_kernel = [], []

    def throughput(self, scaled: bool = True) -> float:
        """Completed ops per second spent inside operations, at
        reference speed unless ``scaled`` is False.

        One caller in a closed loop: the generator's own oracle checks,
        probes and calibration run between operations and are not
        counted.  Only whole rounds count, so the op mix is exact."""
        rounds = self.scaled_rounds if scaled else self.rounds
        return ratio(sum(ops for ops, _ in rounds), sum(busy for _, busy in rounds))


def drive(step: Callable[[Results], None], seconds: float,
          rounds: Optional[int] = None) -> Results:
    """Run whole rounds of a workload's fixed interleave until
    ``seconds`` have passed (or exactly ``rounds`` rounds)."""
    results = Results()
    deadline = time.perf_counter() + seconds
    done = 0
    while (done < rounds) if rounds is not None else (time.perf_counter() < deadline):
        step(results)
        results.end_round()
        done += 1
    return results


# ----------------------------------------------------------------------
# outside-in tracing
# ----------------------------------------------------------------------


class Spans:
    """In-memory span recorder for the traced run.

    A span is ``[name, start, end, parent index, op id]``.  The load-
    generator thread keeps its own stack; a span opened on another thread (a
    server worker serving the generator's blocking request) nests under its
    own thread's stack, or under the generator's innermost open span."""

    def __init__(self) -> None:
        self.records: List[list] = []
        self.op_id = 0
        self.ops = 0
        self._generator = threading.get_ident()
        self._generator_stack: List[int] = []
        self._local = threading.local()
        self._mutex = threading.Lock()
        self._wrapped: List[tuple] = []
        #: Off while the benchmark runs its probes: probe calls go
        #: through the same wrappers but must not enter the ledger.
        self.recording = True

    def _stack(self) -> List[int]:
        if threading.get_ident() == self._generator:
            return self._generator_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Optional[list]:
        if not self.recording:
            return None
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._generator_stack:
            parent = self._generator_stack[-1]
        else:
            parent = None
        record = [name, time.perf_counter(), None, parent, self.op_id]
        with self._mutex:
            stack.append(len(self.records))
            self.records.append(record)
        return record

    def end(self, record: Optional[list]) -> None:
        if record is None:
            return
        record[2] = time.perf_counter()
        self._stack().pop()

    def op(self, op_class: str) -> "_Span":
        """The root span of one operation, under a new op id."""
        return _Span(self, "op." + op_class, op=True)

    def wrap(self, obj: Any, attr: str, name: Any, restore: bool = True) -> None:
        """Record a span around every call of ``obj.attr`` (a public
        method) by shadowing it with an instance attribute.  ``name`` is
        the span name, or a function of the call's arguments giving it;
        ``restore`` is False for objects that die with the operation."""
        inner = getattr(obj, attr)
        name_of = name if callable(name) else (lambda *_a, **_k: name)

        def traced(*args: Any, **kwargs: Any) -> Any:
            record = self.begin(name_of(*args, **kwargs))
            try:
                return inner(*args, **kwargs)
            finally:
                self.end(record)

        setattr(obj, attr, traced)
        if restore:
            self._wrapped.append((obj, attr))

    def unwrap_all(self) -> None:
        for obj, attr in reversed(self._wrapped):
            delattr(obj, attr)
        self._wrapped.clear()

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> List[float]:
        """Each span's duration minus the part its children cover."""
        children: Dict[int, List[int]] = defaultdict(list)
        for index, record in enumerate(self.records):
            if record[3] is not None:
                children[record[3]].append(index)
        out = []
        for index, record in enumerate(self.records):
            covered = _union([
                (self.records[c][1], self.records[c][2]) for c in children.get(index, ())
            ])
            out.append(max(0.0, (record[2] - record[1]) - covered))
        return out

    def ledger(self) -> Dict[str, Dict[str, Any]]:
        """Per op class: op count, op durations, unattributed time per op,
        and mean self time per op for every layer span name."""
        self_times = self.self_times()
        op_class_of: Dict[int, str] = {}
        out: Dict[str, Dict[str, Any]] = {}
        for index, record in enumerate(self.records):
            if record[0].startswith("op."):
                op_class = record[0][3:]
                op_class_of[record[4]] = op_class
                entry = out.setdefault(
                    op_class, {"ops": 0, "durations": [], "unattributed": [],
                               "layers": defaultdict(float)}
                )
                entry["ops"] += 1
                entry["durations"].append(record[2] - record[1])
                entry["unattributed"].append(self_times[index])
        for index, record in enumerate(self.records):
            op_class = op_class_of.get(record[4])
            if op_class is None or record[0].startswith("op."):
                continue
            out[op_class]["layers"][record[0]] += self_times[index]
        return out

    def durations(self, name: str) -> List[float]:
        return [r[2] - r[1] for r in self.records if r[0] == name and r[2] is not None]


class _Span:
    __slots__ = ("_spans", "_name", "_record", "_op")

    def __init__(self, spans: Spans, name: str, op: bool = False) -> None:
        self._spans = spans
        self._name = name
        self._op = op

    def __enter__(self) -> "_Span":
        if self._op:
            self._spans.ops += 1
            self._spans.op_id = self._spans.ops
        self._record = self._spans.begin(self._name)
        return self

    def __exit__(self, *exc: Any) -> bool:
        self._spans.end(self._record)
        if self._op:
            # Spans outside any operation (probes) carry op id 0.
            self._spans.op_id = 0
        return False


def _union(intervals: List[tuple]) -> float:
    total = 0.0
    end = -math.inf
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


def timed(fn: Callable[..., Any], *args: Any) -> tuple:
    """``(seconds, result)`` of one call."""
    started = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - started, result


def wrap_database(spans: Spans, db: Any) -> None:
    """The layer boundaries every workload's traced run records."""
    spans.wrap(db, "new", "database.new")
    spans.wrap(db, "update", "database.update")
    spans.wrap(db, "get_state", "database.get_state")
    spans.wrap(db.plan_cache, "get_source", "plancache.get_source")
    spans.wrap(db.plan_cache, "get", "plancache.get")
    spans.wrap(db.plan_cache, "put", "plancache.put")
    spans.wrap(db.planner, "plan", "planner.plan")
    spans.wrap(db._executor, "execute", "executor.execute")
    spans.wrap(db.storage, "load", "storage.load")
    spans.wrap(db.storage, "count_class", "storage.count_class")
    spans.wrap(db.indexes, "notify_insert", "index.notify_insert")
    spans.wrap(db.indexes, "notify_update", "index.notify_update")
    spans.wrap(db.locks, "acquire", "locks.acquire")
    spans.wrap(db.version_store, "record_before", "versions.record_before")
    spans.wrap(db.version_store, "open_snapshot", "versions.open_snapshot")
    spans.wrap(db.version_store, "close_snapshot", "versions.close_snapshot")
    spans.wrap(db.txns, "commit", "txn.commit")
    spans.wrap(db.wal, "log_commit", "wal.log_commit")
    for index in db.indexes.all_indexes():
        spans.wrap(index, "lookup_eq", "index.lookup_eq")


# ----------------------------------------------------------------------
# workload base
# ----------------------------------------------------------------------


class Workload:
    """One loaded database plus its seeded op generator and oracle.

    Subclasses load in ``__init__`` (the timed set-up), run one round of
    their fixed interleave in :meth:`round`, and check durability and
    measure stored bytes in :meth:`finish`."""

    name = ""
    #: Op classes whose latencies make up ``read_p50_ms``/``read_p90_ms``.
    READ_CLASSES = ("lookup", "navigate", "scan")
    #: The class hierarchy ``storage.scan_us_per_row`` scans.
    SCAN_ROOT = ""

    def __init__(self) -> None:
        self.db: Any = None
        self.spans: Optional[Spans] = None
        #: Probe samples from the traced run, by probe name.
        self.probes: Dict[str, List[float]] = defaultdict(list)
        self.live_entries_max = 0
        self.user_bytes = 0
        #: The generated keys, in op order (the determinism self-test).
        self.keys: List[Any] = []

    # -- ops -----------------------------------------------------------------

    def op(self, results: Results, op_class: str, fn: Callable[[], Any]) -> tuple:
        """Run and time one operation: ``(True, result)``, or
        ``(False, None)`` when the system refused it."""
        spans = self.spans
        started = time.perf_counter()
        try:
            if spans is not None:
                with spans.op(op_class):
                    out = fn()
            else:
                out = fn()
        except REFUSED:
            results.refused()
            return False, None
        results.ok(op_class, time.perf_counter() - started)
        entries = self.db.metrics.value("txn.snapshot.version_entries")
        if entries > self.live_entries_max:
            self.live_entries_max = entries
        return True, out

    def probe(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        """Time one public call outside the ledger; keeps the sample."""
        spans = self.spans
        if spans is not None:
            spans.recording = False
        try:
            seconds, out = timed(fn, *args)
        finally:
            if spans is not None:
                spans.recording = True
        self.probes[name].append(seconds)
        return out

    def probe_query(self, text: str) -> Any:
        """The query-layer probes on one text at the current state: the
        front half (``Database.plan``), ``Database.check``, the plan-cache
        fast path on the now-cached text, and ``Database.execute``."""
        plan = self.probe("front", self.db.plan, text)
        self.probes["index_plan"].append(
            1.0 if plan.access.description.startswith("index-") else 0.0
        )
        self.probe("check", self.db.check, text)
        self.probe("validate", self.db.plan_cache.get_source, text)
        self.probe("execute", self.db.execute, text)
        self.probes["exec_self"].append(self.probes["execute"][-1] - self.probes["validate"][-1])
        return plan

    # -- tracing ---------------------------------------------------------------

    def trace(self, spans: Spans) -> None:
        self.spans = spans
        wrap_database(spans, self.db)

    def untrace(self) -> None:
        if self.spans is not None:
            self.spans.unwrap_all()
            self.spans = None

    # -- subclass interface ----------------------------------------------------

    def round(self, results: Results) -> None:
        raise NotImplementedError

    def storage_probes(self) -> None:
        """``StorageManager.scan_class`` cost per row, once at the end."""
        self.probes["scan_us_per_row"].append(scan_us_per_row(self.db, self.SCAN_ROOT))

    def finish(self) -> int:
        """Check durability; return stored bytes after the final checkpoint."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def text_metrics(self, spans: Spans) -> Dict[str, Any]:
        """Workload-specific per-layer numbers for the text report."""
        return {}


#: The files of a durable database at ``path``: data, WAL, page-image
#: log and catalog.
DB_FILE_SUFFIXES = ("", ".wal", ".wal.pages", ".meta")


def file_bytes(path: str) -> int:
    """Data, WAL, page-image log and catalog bytes of a durable database."""
    total = 0
    for suffix in DB_FILE_SUFFIXES:
        if os.path.exists(path + suffix):
            total += os.path.getsize(path + suffix)
    return total


def crash_copy(path: str, dest: str) -> None:
    """Copy a live durable database's files as a crash would leave them:
    whatever reached the files, without a close or checkpoint."""
    for suffix in DB_FILE_SUFFIXES:
        if os.path.exists(path + suffix):
            shutil.copyfile(path + suffix, dest + suffix)


def scan_us_per_row(db: Any, root: str, repeats: int = 3) -> float:
    """``StorageManager.scan_class`` over a class hierarchy, per row."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        rows = 0
        for cls in db.schema.hierarchy_of(root):
            for _state in db.storage.scan_class(cls):
                rows += 1
        samples.append((time.perf_counter() - started) / max(1, rows))
    return median(samples) * 1e6
