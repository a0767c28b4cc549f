"""Query-fingerprint statistics, ANALYZE, and trace propagation.

Covers the PR-9 observability tentpole end to end:

* the :class:`~repro.obs.querystats.QueryStats` accumulator (unit level
  and through the full parse -> analyze -> plan -> pipeline path into
  ``SysQueryStat``), including its invalidation contract — schema epoch
  and index epoch both purge accumulated rows;
* ``Database.analyze()`` and the :class:`~repro.obs.stats` catalog —
  equi-depth histograms, persistence across close/reopen, the
  ``SysClassStat`` / ``SysIndexStat`` views, and the planner's inert
  stats note;
* the Prometheus text rendering of latency histograms (``_bucket`` /
  ``_sum`` / ``_count`` series, label escaping);
* trace propagation — the tracer's thread-local trace context, and the
  wire-level contract that a client-stamped trace id appears verbatim
  in the server-side ``SysSlowOp`` row.
"""

import pytest

from repro import AttributeDef, Database
from repro.errors import QueryError, SemanticError
from repro.evolution import SchemaEvolution
from repro.obs import MetricsRegistry, Tracer
from repro.obs.export import render_prometheus
from repro.obs.querystats import QueryStats
from repro.obs.stats import StatisticsCatalog, equi_depth_boundaries
from repro.obs.waits import WaitProfiler
from repro.server import Client, Server
from repro.server import protocol
from repro.server.session import Session, SessionRegistry


REPEATED = "SELECT v FROM Vehicle v WHERE v.weight >= 920"


def _vehicle_db(**kwargs):
    db = Database(**kwargs)
    db.define_class(
        "Vehicle",
        attributes=[
            AttributeDef("weight", "Integer"),
            AttributeDef("color", "String", default="white"),
        ],
    )
    for i in range(40):
        db.new("Vehicle", {"weight": 900 + i, "color": ("red", "blue")[i % 2]})
    db.create_class_index("Vehicle", "weight")
    return db


def _stat(db, name):
    rows = db.select("SysStat where name = '%s'" % name)
    return rows[0]["value"] if rows else 0


# -- the accumulator, unit level ---------------------------------------------


class TestQueryStatsUnit:
    def test_same_fingerprint_accumulates_one_entry(self):
        qs = QueryStats()
        for _ in range(5):
            qs.record("fp1", "Vehicle", "q", 0.001, 40, 20, 0, False)
        assert len(qs) == 1
        entry = qs.get("fp1")
        assert entry.calls == 5
        assert entry.rows_examined == 200
        assert entry.rows_matched == 100
        assert entry.latency.count == 5

    def test_cache_hits_counted(self):
        qs = QueryStats()
        qs.record("fp", "V", None, 0.001, 1, 1, 0, cache_hit=False)
        qs.record("fp", "V", None, 0.001, 1, 1, 0, cache_hit=True)
        entry = qs.get("fp")
        assert entry.plan_cache_hits == 1
        assert "snapshot_downgrades" not in entry.row()

    def test_wait_kinds_roll_up_into_groups(self):
        qs = QueryStats()
        qs.record(
            "fp", "V", None, 0.1, 1, 1, 0, False,
            waits={"Lock": 0.05, "PageRead": 0.01, "WALFlush": 0.02, "Mystery": 9.0},
        )
        row = qs.get("fp").row()
        assert row["lock_wait"] == pytest.approx(0.05)
        assert row["io_wait"] == pytest.approx(0.01)
        assert row["wal_wait"] == pytest.approx(0.02)

    def test_epoch_change_purges_and_counts_invalidations(self):
        registry = MetricsRegistry()
        qs = QueryStats(registry)
        qs.record("a", "V", None, 0.001, 1, 1, 0, False, epoch_token=(1, 1))
        qs.record("b", "V", None, 0.001, 1, 1, 0, False, epoch_token=(1, 1))
        assert len(qs) == 2
        qs.record("c", "V", None, 0.001, 1, 1, 0, False, epoch_token=(2, 1))
        assert len(qs) == 1 and qs.get("c") is not None
        assert registry.value("query.stats.invalidations") == 2
        assert registry.value("query.stats.recorded") == 3

    def test_schema_change_listener_purges_without_double_count(self):
        registry = MetricsRegistry()
        qs = QueryStats(registry)
        qs.record("a", "V", None, 0.001, 1, 1, 0, False, epoch_token=(1, 1))
        qs.on_schema_change("V")
        assert len(qs) == 0
        assert registry.value("query.stats.invalidations") == 1
        # The next record under the *new* epoch must not purge again.
        qs.record("b", "V", None, 0.001, 1, 1, 0, False, epoch_token=(2, 1))
        assert registry.value("query.stats.invalidations") == 1

    def test_eviction_drops_coldest_entry_at_capacity(self):
        registry = MetricsRegistry()
        qs = QueryStats(registry, capacity=3)
        for fp, calls in (("hot", 5), ("warm", 3), ("cold", 1)):
            for _ in range(calls):
                qs.record(fp, "V", None, 0.001, 1, 1, 0, False)
        qs.record("new", "V", None, 0.001, 1, 1, 0, False)
        assert len(qs) == 3
        assert qs.get("cold") is None
        assert qs.get("hot") is not None
        assert registry.value("query.stats.evictions") == 1

    def test_entries_hottest_first(self):
        qs = QueryStats()
        for fp, calls in (("b", 1), ("a", 3), ("c", 3)):
            for _ in range(calls):
                qs.record(fp, "V", None, 0.001, 1, 1, 0, False)
        assert [e.fingerprint for e in qs.entries()] == ["a", "c", "b"]


class TestWaitCapture:
    def test_capture_attributes_waits_on_the_recording_thread(self):
        profiler = WaitProfiler()
        with profiler.capture() as waited:
            profiler.record("Lock", 0.25, target="oid:1")
            profiler.record("PageRead", 0.01)
        profiler.record("Lock", 9.0)  # after capture closed: not attributed
        assert waited == {"Lock": 0.25, "PageRead": 0.01}

    def test_captures_nest(self):
        profiler = WaitProfiler()
        with profiler.capture() as outer:
            profiler.record("Lock", 0.1)
            with profiler.capture() as inner:
                profiler.record("Lock", 0.2)
        assert inner == {"Lock": 0.2}
        assert outer["Lock"] == pytest.approx(0.3)


# -- through the full query path ---------------------------------------------


class TestSysQueryStat:
    def test_repeated_query_accumulates_one_fingerprint(self):
        db = _vehicle_db()
        for _ in range(5):
            db.execute(REPEATED)
        rows = db.select("SysQueryStat order by calls desc")
        assert len(rows) == 1
        row = rows[0]
        assert row["target"] == "Vehicle"
        assert row["calls"] == 5
        assert row["source"] == REPEATED
        # First build misses the plan cache, the other four hit.
        assert row["plan_cache_hits"] == 4
        assert row["rows_examined"] > 0 and row["rows_matched"] > 0
        assert row["p50"] > 0 and row["p95"] >= row["p50"]
        assert row["p99"] >= row["p95"]
        assert row["total_seconds"] >= row["mean_seconds"] > 0
        db.close()

    def test_structurally_equal_spellings_share_a_fingerprint(self):
        db = _vehicle_db()
        db.execute(
            "SELECT v FROM Vehicle v WHERE v.weight > 910 AND v.color = 'red'"
        )
        db.execute(
            "SELECT v FROM Vehicle v WHERE v.color = 'red' AND v.weight > 910"
        )
        rows = db.select("SysQueryStat")
        assert len(rows) == 1
        assert rows[0]["calls"] == 2
        db.close()

    def test_system_queries_are_never_recorded(self):
        db = _vehicle_db()
        db.execute(REPEATED)
        before = len(db.query_stats)
        db.select("SysQueryStat")
        db.select("SysStat order by name")
        assert len(db.query_stats) == before
        db.close()

    def test_schema_evolution_purges_accumulated_stats(self):
        db = _vehicle_db()
        db.execute(REPEATED)
        assert len(db.query_stats) == 1
        SchemaEvolution(db).add_attribute(
            "Vehicle", AttributeDef("maker", "String", default="acme")
        )
        assert len(db.query_stats) == 0
        assert _stat(db, "query.stats.invalidations") == 1
        db.close()

    def test_index_epoch_bump_purges_on_next_record(self):
        db = _vehicle_db()
        db.execute(REPEATED)
        db.execute("Vehicle where color = 'red'")
        assert len(db.query_stats) == 2
        db.create_class_index("Vehicle", "color")
        # The purge happens lazily, at the next record under the new epoch.
        db.execute(REPEATED)
        rows = db.select("SysQueryStat")
        assert len(rows) == 1
        assert rows[0]["calls"] == 1
        assert _stat(db, "query.stats.invalidations") == 2
        db.close()

    def test_streaming_query_records_at_close(self):
        db = _vehicle_db()
        with db.select_iter("Vehicle where weight >= 930") as stream:
            handles = list(stream)
        assert len(handles) == 10
        rows = db.select("SysQueryStat")
        assert len(rows) == 1
        assert rows[0]["calls"] == 1
        assert rows[0]["rows_matched"] == 10
        db.close()

    def test_stats_snapshot_carries_querystats(self):
        # The server "stats" op's payload, built by the session handler.
        db = _vehicle_db()
        db.execute(REPEATED)
        session = SessionRegistry(db).create()
        response = session.handle({"id": 1, "op": "stats"})
        assert response["result"]["querystats"][0]["calls"] == 1
        db.close()

    def test_semantic_gate_and_explain_on_sysquerystat(self):
        db = _vehicle_db()
        db.execute(REPEATED)
        with pytest.raises(SemanticError) as err:
            db.execute("SysQueryStat where wibble = 1")
        assert "ANA601" in str(err.value)
        with pytest.raises(SemanticError) as err:
            db.execute("SELECT count(*) FROM SysQueryStat s")
        assert "ANA602" in str(err.value)
        result = db.explain("SysQueryStat order by calls desc limit 5")
        assert "system-scan" in result.render()
        with pytest.raises(QueryError):
            list(db.select_iter("SysQueryStat"))
        db.close()

    def test_sysquerystat_scan_takes_no_locks(self):
        db = _vehicle_db()
        db.execute(REPEATED)
        acquisitions = _stat(db, "locks.acquisitions")
        db.select("SysQueryStat order by calls desc")
        assert _stat(db, "locks.acquisitions") == acquisitions
        db.close()


# -- ANALYZE -----------------------------------------------------------------


class TestEquiDepthBoundaries:
    def test_uniform_distribution_yields_full_bucket_count(self):
        pairs = [(k, 1) for k in range(64)]
        bounds = equi_depth_boundaries(pairs, buckets=16)
        assert len(bounds) == 16
        assert bounds[-1] == 63
        assert bounds == sorted(bounds)

    def test_heavy_key_widens_its_bucket_without_duplicates(self):
        pairs = [(1, 100), (2, 1), (3, 1), (4, 1)]
        bounds = equi_depth_boundaries(pairs, buckets=4)
        assert bounds == sorted(set(bounds))
        assert bounds[0] == 1  # the heavy key crosses every early quantile once
        assert bounds[-1] == 4

    def test_empty_input(self):
        assert equi_depth_boundaries([]) == []


class TestAnalyze:
    def test_catalog_contents(self):
        db = _vehicle_db()
        catalog = db.analyze()
        assert catalog is db.statistics
        cls = catalog.class_stats["Vehicle"]
        assert cls.rows == 40
        assert cls.avg_bytes > 0
        assert cls.total_bytes == pytest.approx(cls.avg_bytes * 40)
        (index,) = catalog.index_stats.values()
        assert index.target_class == "Vehicle"
        assert index.path == "weight"
        assert index.entries == 40
        assert index.distinct_keys == 40
        assert index.low == 900 and index.high == 939
        assert index.boundaries == sorted(index.boundaries)
        assert index.boundaries[-1] == 939
        db.close()

    def test_sysclassstat_and_sysindexstat_views(self):
        db = _vehicle_db()
        assert db.select("SysClassStat") == []
        assert db.select("SysIndexStat") == []
        db.analyze()
        (crow,) = db.select("SysClassStat where class_name = 'Vehicle'")
        assert crow["rows"] == 40
        (irow,) = db.select("SysIndexStat order by entries desc")
        assert irow["entries"] == 40
        assert irow["buckets"] == len(irow["histogram"].split("|"))
        assert irow["low"] == 900 and irow["high"] == 939
        db.close()

    def test_statistics_persist_across_reopen(self, tmp_path):
        path = str(tmp_path / "stats.kim")
        db = Database(path)
        db.define_class("Vehicle", attributes=[AttributeDef("weight", "Integer")])
        for i in range(12):
            db.new("Vehicle", {"weight": 100 + i})
        db.create_class_index("Vehicle", "weight")
        first = db.analyze().to_dict()
        db.close()

        db = Database(path)
        assert db.statistics is not None
        assert db.statistics.to_dict() == first
        (row,) = db.select("SysClassStat")
        assert row["rows"] == 12
        (irow,) = db.select("SysIndexStat")
        assert irow["distinct_keys"] == 12
        db.close()

    def test_stale_reason_reports_epoch_movement(self):
        catalog = StatisticsCatalog({}, {}, schema_version=3, index_epoch=7)
        assert catalog.stale_reason(3, 7) is None
        assert "schema version" in catalog.stale_reason(4, 7)
        assert "index epoch" in catalog.stale_reason(3, 8)

    def test_planner_notes_stats_but_results_are_unchanged(self):
        db = _vehicle_db()
        before = sorted(h.oid for h in db.select(REPEATED))
        plain = db.explain(REPEATED).render()
        assert "ANALYZE measured" not in plain
        db.analyze()
        # A cached plan predates the catalog and keeps its old notes (the
        # stats are inert facts, so the cached plan is still correct); a
        # freshly planned query records the measured cardinality.
        noted = db.explain("SELECT v FROM Vehicle v WHERE v.weight >= 921").render()
        assert "ANALYZE measured 40 row(s)" in noted
        after = sorted(h.oid for h in db.select(REPEATED))
        assert after == before
        db.close()


# -- Prometheus rendering ----------------------------------------------------


class TestPrometheusRendering:
    def test_registry_histogram_series(self):
        registry = MetricsRegistry()
        h = registry.histogram("op.seconds", bounds=(1.0, 10.0))
        for v in (0.5, 0.5, 5.0, 500.0):
            h.observe(v)
        text = render_prometheus(registry)
        lines = text.splitlines()
        assert "# TYPE kimdb_op_seconds histogram" in lines
        # Buckets are cumulative; +Inf carries the full count.
        assert 'kimdb_op_seconds_bucket{le="1"} 2' in lines
        assert 'kimdb_op_seconds_bucket{le="10"} 3' in lines
        assert 'kimdb_op_seconds_bucket{le="+Inf"} 4' in lines
        assert "kimdb_op_seconds_sum 506.0" in lines
        assert "kimdb_op_seconds_count 4" in lines
        assert text.endswith("\n")

    def test_querystats_render_as_labeled_family(self):
        registry = MetricsRegistry()
        qs = QueryStats(bounds=(0.1, 1.0))
        qs.record("abc123", "Vehicle", None, 0.05, 1, 1, 0, False)
        qs.record("abc123", "Vehicle", None, 0.5, 1, 1, 0, True)
        text = render_prometheus(registry, querystats=qs)
        lines = text.splitlines()
        assert "# TYPE kimdb_query_latency_seconds histogram" in lines
        prefix = 'kimdb_query_latency_seconds_bucket{fingerprint="abc123",target="Vehicle"'
        assert '%s,le="0.1"} 1' % prefix in lines
        assert '%s,le="1"} 2' % prefix in lines
        assert '%s,le="+Inf"} 2' % prefix in lines
        assert (
            'kimdb_query_latency_seconds_count{fingerprint="abc123",target="Vehicle"} 2'
            in lines
        )

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        qs = QueryStats()
        qs.record('fp"\\x\n', "Veh\"icle", None, 0.01, 1, 1, 0, False)
        text = render_prometheus(registry, querystats=qs)
        assert 'fingerprint="fp\\"\\\\x\\n"' in text
        assert 'target="Veh\\"icle"' in text

    def test_empty_querystats_emits_no_family(self):
        text = render_prometheus(MetricsRegistry(), querystats=QueryStats())
        assert "query_latency_seconds" not in text

    def test_monitor_demo_exports_querystat_family(self):
        from repro.tools.monitor import build_demo_database

        db = build_demo_database()
        try:
            text = render_prometheus(db.metrics, querystats=db.query_stats)
            assert "# TYPE kimdb_query_latency_seconds histogram" in text
            assert "kimdb_query_stats_recorded_total" in text
            assert "kimdb_analyze_runs_total" in text
        finally:
            db.close()


# -- trace context and propagation -------------------------------------------


class TestTraceContext:
    def test_trace_stamps_spans_and_restores(self):
        tracer = Tracer()
        assert tracer.current_trace is None
        with tracer.trace("t-outer"):
            assert tracer.current_trace == "t-outer"
            with tracer.span("work"):
                pass
            with tracer.trace("t-inner"):
                assert tracer.current_trace == "t-inner"
            assert tracer.current_trace == "t-outer"
        assert tracer.current_trace is None
        (span,) = tracer.spans("work")
        assert span.tags["trace"] == "t-outer"

    def test_trace_none_is_a_no_op(self):
        tracer = Tracer()
        with tracer.trace(None):
            assert tracer.current_trace is None
            with tracer.span("work"):
                pass
        (span,) = tracer.spans("work")
        assert "trace" not in span.tags

    def test_explicit_trace_tag_wins(self):
        tracer = Tracer()
        with tracer.trace("ambient"):
            with tracer.span("work", trace="explicit"):
                pass
        (span,) = tracer.spans("work")
        assert span.tags["trace"] == "explicit"

    def test_slow_op_carries_trace(self):
        db = _vehicle_db(slow_op_threshold=0.0)
        with db.tracer.trace("trace-xyz"):
            db.execute(REPEATED)
        rows = db.select("SysSlowOp where trace = 'trace-xyz'")
        assert rows and all(row["trace"] == "trace-xyz" for row in rows)
        db.close()

    def test_wait_rows_carry_last_trace_column(self):
        db = _vehicle_db()
        rows = db.select("SysWaitEvent order by total_wait desc limit 5")
        for row in rows:
            assert "last_trace" in row
        db.close()


class TestSessionTraceParsing:
    def test_valid_trace_adopted(self):
        assert Session._trace_id({"id": "abc123", "span": 7}) == "abc123"

    def test_bare_string_trace_accepted(self):
        assert Session._trace_id("abc123") == "abc123"

    @pytest.mark.parametrize(
        "trace",
        [None, 42, [], {}, {"id": 7}, {"id": ""}, {"id": "x" * 65}, "x" * 65],
    )
    def test_malformed_trace_dropped(self, trace):
        assert Session._trace_id(trace) is None


class TestWireTracePropagation:
    @pytest.fixture
    def served(self):
        db = _vehicle_db(slow_op_threshold=0.0)
        server = Server(db, port=0, workers=2, lock_timeout=0.5)
        server.start()
        yield db, server
        server.stop()
        db.close()

    def test_client_trace_id_lands_in_sysslowop(self, served):
        db, server = served
        client = Client(*server.address, trace_id="cafe0123deadbeef")
        try:
            rows = client.query("Vehicle where weight >= 930")
            assert len(rows) == 10
        finally:
            client.close()
        slow = db.select("SysSlowOp where trace = 'cafe0123deadbeef'")
        assert slow, "client trace id must appear verbatim in SysSlowOp"
        assert any(row["name"] == "server.request" for row in slow)

    def test_default_client_generates_a_trace_id(self, served):
        db, server = served
        client = Client(*server.address)
        try:
            assert isinstance(client.trace_id, str) and len(client.trace_id) == 16
            client.query("Vehicle limit 1")
        finally:
            client.close()
        traces = {row["trace"] for row in db.select("SysSlowOp")}
        assert client.trace_id in traces

    def test_malformed_wire_trace_is_ignored_not_an_error(self, served):
        _db, server = served
        client = Client(*server.address)
        try:
            protocol.send_frame(
                client._sock,
                {
                    "id": 99,
                    "op": "query",
                    "params": {"q": "Vehicle limit 1"},
                    "trace": [1, 2, 3],
                },
            )
            payload, _n = protocol.recv_frame(client._sock)
            assert payload["ok"] is True
            assert payload["id"] == 99
        finally:
            client.close()
