"""``wire-mvcc``: the Figure-1 database, durable, served by
``repro.server.Server`` in this process and driven over two connections
by one thread in a fixed interleave."""

from __future__ import annotations

import os
import random
import time
from typing import Any, Callable, Dict

from repro import Database
from repro.server import Client, Server

from .common import (
    REFUSED,
    Results,
    Spans,
    Workload,
    check,
    crash_copy,
    file_bytes,
    median,
    ratio,
)
from .fig1 import VehicleModel

STREAM_TEXT = "SELECT a FROM Automobile a"
LOOKUP_TEXT = "SELECT v FROM Vehicle v WHERE v.price = %d"
BATCH = 64


class WireMVCC(Workload):
    name = "wire-mvcc"
    SCAN_ROOT = "Vehicle"

    def __init__(self, seed: int, workdir: str, tick: Callable[[], None]) -> None:
        super().__init__()
        self.workdir = workdir
        self.path = os.path.join(workdir, "fig1")
        self.rng = random.Random(seed)
        self.probe_rng = random.Random(seed ^ 0x5EED)
        self.db = db = Database(self.path)
        self.model = VehicleModel(db, seed, tick)
        self.user_bytes = self.model.user_bytes
        db.create_hierarchy_index("Vehicle", "price")
        db.analyze()
        db.checkpoint()
        self.server = Server(db, workers=2).start()
        try:
            host, port = self.server.address
            self.a = Client(host, port)
            self.b = Client(host, port)
            self.a.ping()
            self.b.ping()
            self.b.query(LOOKUP_TEXT % self.model.price(self.model.oids[0]))
        except BaseException:
            self.close()
            raise

    # -- ops ---------------------------------------------------------------------

    def round(self, results: Results) -> None:
        """One complete stream of ``Automobile`` on connection A, with a
        write and a lookup on connection B after every full batch.  The
        scan op's latency is the time A spent in its own calls."""
        stream = self.a.query_stream(STREAM_TEXT, batch=BATCH)
        seen = set()
        busy = 0.0
        # In the ledger each batch of the stream is one "fetch" op.
        span = self._fetch_span()
        try:
            while True:
                started = time.perf_counter()
                row = next(stream, None)
                busy += time.perf_counter() - started
                if row is None:
                    break
                seen.add(row["oid"])
                if len(seen) % BATCH == 0:
                    self._end(span)
                    self.write(results)
                    self.lookup(results)
                    span = self._fetch_span()
        except REFUSED:
            results.refused()
            return
        finally:
            self._end(span)
        results.ok("scan", busy)
        check(seen == self.model.automobiles,
              "wire-mvcc stream returned %d of %d automobiles", len(seen), len(self.model.automobiles))
        if self.spans is not None:
            self.probes["wire_scan"].append(busy)
            self.probe("inproc_scan", lambda: sum(1 for _ in self.db.select_iter(STREAM_TEXT)))

    def _fetch_span(self) -> Any:
        return self.spans.op("fetch").__enter__() if self.spans is not None else None

    @staticmethod
    def _end(span: Any) -> None:
        if span is not None:
            span.__exit__(None, None, None)

    def write(self, results: Results) -> None:
        b = self.b
        first, second = self.rng.sample(self.model.trucks, 2)
        prices = {first: 5000 + self.rng.randrange(95000), second: 5000 + self.rng.randrange(95000)}
        self.keys.append(sorted(prices.values()))

        def run():
            with b.transaction():
                for oid, price in prices.items():
                    b.update(oid, {"price": price})

        ok, _ = self.op(results, "write", run)
        if not ok:
            return
        for oid, price in prices.items():
            self.model.vehicles[oid][1]["price"] = price
            self.user_bytes += 8
            check(b.get(oid)["values"]["price"] == price, "wire-mvcc write did not read back")

    def lookup(self, results: Results) -> None:
        price = self.model.price(self.rng.choice(self.model.oids))
        text = LOOKUP_TEXT % price
        self.keys.append(price)
        if self.spans is not None:
            self.probe("ping", self.b.ping)
            fresh, probe_price = (self.model.price(self.probe_rng.choice(self.model.oids))
                                  for _ in range(2))
            self.probe("inproc_lookup", self.db.execute, LOOKUP_TEXT % fresh)
            self.probe_query(LOOKUP_TEXT % probe_price)
            self.probe("index_eq", self.db.indexes.get("ch_Vehicle_price").lookup_eq, probe_price)
        ok, rows = self.op(results, "lookup", lambda: self.b.query(text))
        if ok:
            expected = sorted(oid for oid in self.model.oids if self.model.price(oid) == price)
            check(sorted(rows) == expected, "wire-mvcc lookup of price %d returned %r", price, rows)
            if self.spans is not None:
                self.probes["wire_lookup"].append(results.latencies["lookup"][-1])
                for oid in expected:
                    self.probe("storage_load", self.db.storage.load, oid)

    # -- tracing -------------------------------------------------------------------

    def trace(self, spans: Spans) -> None:
        super().trace(spans)
        for client in (self.a, self.b):
            spans.wrap(client, "call", lambda op, **_params: "server." + op)

    # -- end of run ----------------------------------------------------------------

    def finish(self) -> int:
        """Stop serving, recover a crash image of the files and check
        every vehicle's acknowledged price, then close and measure."""
        self._stop()
        crashed = os.path.join(self.workdir, "crashed")
        crash_copy(self.path, crashed)
        recovered = Database(crashed)
        try:
            for oid in self.model.oids:
                check(recovered.get_state(oid).values["price"] == self.model.price(oid),
                      "wire-mvcc durability: price of %r lost", oid)
        finally:
            recovered.close()
        self.db.close()
        return file_bytes(self.path)

    def _stop(self) -> None:
        for client in (getattr(self, "a", None), getattr(self, "b", None)):
            if client is not None:
                client.close()
        self.server.stop()

    def close(self) -> None:
        self._stop()
        self.db.close()

    def text_metrics(self, spans: Spans) -> Dict[str, Any]:
        probes = self.probes
        return {
            "server.ping_ms": 1e3 * median(probes["ping"]),
            "server.wire_ratio.lookup": ratio(median(probes["wire_lookup"]), median(probes["inproc_lookup"])),
            "server.wire_ratio.scan": ratio(median(probes["wire_scan"]), median(probes["inproc_scan"])),
        }

