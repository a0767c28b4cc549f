"""The physical operator pipeline: protocol, top-K, early termination."""

import pytest

from repro import Database
from repro.bench.schemas import build_vehicle_schema, populate_vehicles
from repro.errors import QueryError
from repro.query.operators import LimitOp, PhysicalOperator
from repro.query.planner import ExtentScan, IndexOrderScan


class CountingSource(PhysicalOperator):
    """Leaf emitting 1..n, tracking pulls and close calls."""

    name = "counting"

    def __init__(self, n):
        super().__init__()
        self.n = n
        self.closes = 0
        self._emitted = 0

    def _next(self):
        if self._emitted >= self.n:
            return None
        self._emitted += 1
        return self._emitted

    def _on_close(self):
        self.closes += 1


class TestIteratorProtocol:
    def test_open_next_close_counts_rows(self):
        source = CountingSource(3)
        source.open()
        assert [source.next() for _ in range(4)] == [1, 2, 3, None]
        assert source.rows_out == 3
        source.close()
        assert source.closes == 1

    def test_elapsed_only_advances_when_timed(self):
        source = CountingSource(5)
        source.open()
        list(source.rows())
        assert source.elapsed == 0.0
        source.close()
        timed = CountingSource(5)
        timed.set_timed()
        timed.open()
        list(timed.rows())
        assert timed.elapsed > 0.0
        timed.close()

    def test_limit_stops_pulling_and_closes_subtree(self):
        source = CountingSource(100)
        limit = LimitOp(source, 5)
        limit.open()
        rows = list(limit.rows())
        assert rows == [1, 2, 3, 4, 5]
        # The 6th pull was never made: the quota check closed the
        # subtree before asking the child for another row.
        assert source.rows_out == 5
        assert source.closes >= 1
        limit.close()  # idempotent after the early close
        assert limit.rows_out == 5

    def test_limit_on_short_input(self):
        source = CountingSource(2)
        limit = LimitOp(source, 5)
        limit.open()
        assert list(limit.rows()) == [1, 2]
        limit.close()


class TestTopKParity:
    """ORDER BY ... LIMIT k must equal the full sort's first k rows."""

    CASES = [
        (order, desc, where, k)
        for order in ("v.weight", "v.manufacturer.name")
        for desc in (False, True)
        for where in ("", "WHERE v.weight > 7500 ")
        for k in (1, 7, 50, 200, 999)
    ]

    @pytest.mark.parametrize("order,desc,where,k", CASES)
    def test_limit_matches_full_sort_prefix(self, populated_db, order, desc, where, k):
        direction = " DESC" if desc else ""
        base = "SELECT v FROM Vehicle v %sORDER BY %s%s" % (where, order, direction)
        full = populated_db.execute(base)
        limited = populated_db.execute("%s LIMIT %d" % (base, k))
        assert limited.oids == full.oids[:k]

    def test_limit_without_order_matches_oid_prefix(self, populated_db):
        full = populated_db.execute("SELECT v FROM Vehicle v")
        limited = populated_db.execute("SELECT v FROM Vehicle v LIMIT 9")
        assert limited.oids == full.oids[:9]


@pytest.fixture(scope="module")
def big_indexed_db():
    """E1 vehicle fixture at N=5000 with a hierarchy index on weight."""
    database = Database()
    build_vehicle_schema(database)
    populate_vehicles(database, n_vehicles=5000, n_companies=25, seed=1990)
    database.create_hierarchy_index("Vehicle", "weight")
    return database


class TestOrderedIndexScan:
    """The acceptance scenario: ORDER BY + LIMIT stops the walk early."""

    QUERY = "SELECT v FROM Vehicle v ORDER BY v.weight LIMIT 10"

    def test_planner_chooses_index_order_scan(self, big_indexed_db):
        plan = big_indexed_db.plan(self.QUERY)
        assert isinstance(plan.access, IndexOrderScan)
        assert any("ordered index scan" in note for note in plan.notes)
        # Without a LIMIT there is nothing to terminate early; the
        # planner sticks to scan + sort.
        unlimited = big_indexed_db.plan("SELECT v FROM Vehicle v ORDER BY v.weight")
        assert isinstance(unlimited.access, ExtentScan)

    def test_results_match_full_sort(self, big_indexed_db):
        n = big_indexed_db.count("Vehicle")
        assert n >= 5000
        full = big_indexed_db.execute("SELECT v FROM Vehicle v ORDER BY v.weight")
        limited = big_indexed_db.execute(self.QUERY)
        assert limited.oids == full.oids[:10]

    def test_desc_results_match_full_sort(self, big_indexed_db):
        full = big_indexed_db.execute(
            "SELECT v FROM Vehicle v ORDER BY v.weight DESC"
        )
        limited = big_indexed_db.execute(
            "SELECT v FROM Vehicle v ORDER BY v.weight DESC LIMIT 10"
        )
        assert limited.oids == full.oids[:10]

    def test_examined_stays_below_extent_size(self, big_indexed_db):
        n = big_indexed_db.count("Vehicle")
        result = big_indexed_db.execute(self.QUERY)
        assert len(result.oids) == 10
        # The deref stage fed by the ordered walk stopped after the
        # LIMIT was satisfied — nowhere near the full extent.
        assert result.pipeline.examined < n
        assert result.pipeline.examined <= 20
        assert result.pipeline.source.rows_out == result.pipeline.examined

    def test_explain_analyze_reports_live_counters(self, big_indexed_db):
        n = big_indexed_db.count("Vehicle")
        explained = big_indexed_db.explain(self.QUERY)
        access = explained.root.find("index-order-scan")
        assert access is not None
        assert access.meta["access"] == "index-order"
        assert access.actual_rows < n
        assert access.actual_rows == explained.result.pipeline.source.rows_out
        limit = explained.root.find("limit")
        assert limit is not None and limit.actual_rows == 10
        assert explained.root.actual_seconds > 0
        assert "index-order-scan" in str(explained)

    def test_with_predicate_reexamines_until_quota(self, big_indexed_db):
        n = big_indexed_db.count("Vehicle")
        query = (
            "SELECT v FROM Vehicle v WHERE v.weight > 2000 "
            "ORDER BY v.weight LIMIT 10"
        )
        plan = big_indexed_db.plan(query)
        assert isinstance(plan.access, IndexOrderScan)
        full = big_indexed_db.execute(
            "SELECT v FROM Vehicle v WHERE v.weight > 2000 ORDER BY v.weight"
        )
        limited = big_indexed_db.execute(query)
        assert limited.oids == full.oids[:10]
        assert limited.pipeline.examined < n


class TestSelectIter:
    def test_streams_same_handles_as_select(self, populated_db):
        query = "SELECT v FROM Vehicle v WHERE v.weight > 7500"
        streamed = [h.oid for h in populated_db.select_iter(query)]
        assert streamed == populated_db.execute(query).oids

    def test_streaming_order_by_limit(self, big_indexed_db):
        query = "SELECT v FROM Vehicle v ORDER BY v.weight LIMIT 5"
        streamed = [h.oid for h in big_indexed_db.select_iter(query)]
        assert streamed == big_indexed_db.execute(query).oids

    def test_abandoning_the_iterator_is_clean(self, big_indexed_db):
        iterator = big_indexed_db.select_iter(
            "SELECT v FROM Vehicle v ORDER BY v.weight"
        )
        first = next(iterator)
        assert first.oid is not None
        iterator.close()  # generator close propagates to pipeline close

    def test_mid_stream_close_releases_snapshot_and_operators(self, populated_db):
        locks_before = populated_db.metrics.value("locks.acquisitions")
        stream = populated_db.select_iter("SELECT v FROM Vehicle v")
        next(stream)
        next(stream)
        # Snapshot reads: the stream runs lock-free against its begin
        # snapshot — no transaction, no scan locks, one live snapshot.
        assert populated_db.metrics.value("locks.acquisitions") == locks_before
        assert populated_db.txns.active_transactions() == []
        assert populated_db.version_store.live_snapshots()
        stream.close()
        assert stream.closed
        # Snapshot gone (GC horizon advanced), leaf scan operator closed.
        assert populated_db.version_store.live_snapshots() == []
        assert stream._pipeline.source._iter is None
        with pytest.raises(StopIteration):
            next(stream)
        stream.close()  # idempotent

    def test_mid_stream_close_with_locking_reads_holds_scan_locks(self):
        db = Database(snapshot_reads=False)
        build_vehicle_schema(db)
        populate_vehicles(db, n_vehicles=20, n_companies=2)
        try:
            stream = db.select_iter("SELECT v FROM Vehicle v")
            next(stream)
            # Legacy mode: the stream's implicit read transaction holds
            # the scan locks until close commits it.
            assert db.txns.active_transactions()
            assert db.locks.held_snapshot()
            stream.close()
            assert db.txns.active_transactions() == []
            assert db.locks.held_snapshot() == []
        finally:
            db.close()

    def test_mid_stream_close_under_explicit_txn_keeps_txn(self, populated_db):
        with populated_db.txns.begin() as txn:
            stream = populated_db.select_iter("SELECT v FROM Vehicle v")
            next(stream)
            stream.close()
            # The caller's transaction owns the stream's snapshot and
            # survives the stream; only commit/abort closes it.
            assert txn.is_active
            assert txn.snapshot is not None
            assert populated_db.version_store.live_snapshots()
        assert populated_db.version_store.live_snapshots() == []
        assert populated_db.locks.held_snapshot() == []

    def test_exhausted_stream_self_closes(self, populated_db):
        stream = populated_db.select_iter("Vehicle where weight > 7500")
        for _handle in stream:
            pass
        assert populated_db.txns.active_transactions() == []
        assert populated_db.locks.held_snapshot() == []
        assert populated_db.version_store.live_snapshots() == []

    def test_rejects_aggregates_and_projections(self, populated_db):
        with pytest.raises(QueryError):
            list(populated_db.select_iter("SELECT COUNT(v) FROM Vehicle v"))
        with pytest.raises(QueryError):
            list(populated_db.select_iter("SELECT v.weight FROM Vehicle v"))


class TestPipelineCounters:
    def test_operator_stats_expose_each_stage(self, populated_db):
        result = populated_db.execute(
            "SELECT v FROM Vehicle v WHERE v.weight > 7500 ORDER BY v.weight LIMIT 3"
        )
        stats = result.operator_stats()
        ops = [entry["op"] for entry in stats]
        assert ops == ["extent-scan", "filter", "sort", "limit"]
        by_op = {entry["op"]: entry for entry in stats}
        assert by_op["extent-scan"]["rows_out"] == result.pipeline.examined
        assert by_op["filter"]["rows_out"] == result.pipeline.matched
        assert by_op["limit"]["rows_out"] == 3

    def test_projection_streams_with_oids_aligned(self, populated_db):
        result = populated_db.execute(
            "SELECT v.weight FROM Vehicle v WHERE v.weight > 7500 LIMIT 4"
        )
        assert len(result.oids) == len(result.rows) == 4
        for oid, row in zip(result.oids, result.rows):
            state = populated_db.get(oid)
            assert row["weight"] == state["weight"]
