"""MVCC snapshot reads and group-commit WAL batching.

The snapshot contract: a read-only query sees exactly the database as of
its begin timestamp — repeatable across concurrent commits, lock-free
(zero scan locks), read-your-own-writes inside a transaction — and the
version store reclaims before-images once the last snapshot that could
need them closes.  The group-commit contract: concurrent committers
share WAL fsyncs without ever surfacing a commit whose covering fsync
did not complete.
"""

import contextlib
import os
import threading

import pytest

from repro import AttributeDef, Database
from repro.adt import attach, make_rect, register_rectangle_type, register_spatial_index
from repro.bench.schemas import build_vehicle_schema, populate_vehicles
from repro.core.obj import ObjectState
from repro.core.oid import OID
from repro.query.planner import (
    AdtIndexProbe,
    IndexEqProbe,
    IndexInProbe,
    IndexOrderScan,
    IndexRangeProbe,
)
from repro.txn import wal as wal_module
from repro.versions.store import VersionStore


def _vehicle_db(**kwargs):
    db = Database(**kwargs)
    db.define_class(
        "Vehicle",
        attributes=[
            AttributeDef("weight", "Integer"),
            AttributeDef("color", "String", default="white"),
        ],
    )
    for i in range(12):
        db.new("Vehicle", {"weight": 1000 + i, "color": ("red", "blue")[i % 2]})
    return db


def _weights(db):
    result = db.execute("select v.weight from Vehicle v where v.weight >= 0")
    return sorted(row["weight"] for row in result.rows)


def _in_thread(fn):
    """Run ``fn`` on a fresh thread (its own thread-local transaction)."""
    errors = []

    def runner():
        try:
            fn()
        except BaseException as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    thread = threading.Thread(target=runner)
    thread.start()
    thread.join()
    if errors:
        raise errors[0]


class TestSnapshotReads:
    def test_read_your_own_writes(self):
        db = _vehicle_db()
        try:
            with db.transaction():
                handle = db.new("Vehicle", {"weight": 5000})
                db.update(handle.oid, {"weight": 6000})
                result = db.execute("Vehicle where weight = 6000")
                assert result.oids == [handle.oid]
                # The pre-update value is the txn's own history, not a
                # visible version.
                assert db.execute("Vehicle where weight = 5000").oids == []
        finally:
            db.close()

    def test_repeatable_reads_across_concurrent_commit(self):
        db = _vehicle_db()
        try:
            with db.transaction():
                before = _weights(db)

                def writer():
                    db.new("Vehicle", {"weight": 9999})
                    victim = db.select("Vehicle where weight = 1000")[0]
                    db.update(victim.oid, {"weight": 8888})
                    gone = db.select("Vehicle where weight = 1001")[0]
                    db.delete(gone.oid)

                _in_thread(writer)
                # Same transaction, same snapshot: the concurrent
                # insert, update and delete are all invisible.
                assert _weights(db) == before
            # A fresh query after the transaction sees the new world.
            after = _weights(db)
            assert 9999 in after and 8888 in after
            assert 1000 not in after and 1001 not in after
        finally:
            db.close()

    def test_snapshot_reads_take_zero_scan_locks(self):
        db = _vehicle_db()
        try:
            baseline = db.metrics.value("locks.acquisitions")
            result = db.execute("Vehicle where weight > 1003")
            assert len(result) == 8
            assert db.metrics.value("locks.acquisitions") == baseline
            with db.select_iter("Vehicle where color = 'red'") as stream:
                assert sum(1 for _ in stream) == 6
            assert db.metrics.value("locks.acquisitions") == baseline
        finally:
            db.close()

    def test_snapshot_vs_lock_parity_oracle(self):
        """Single-threaded, the two read strategies are indistinguishable."""
        mvcc = _vehicle_db(snapshot_reads=True)
        locking = _vehicle_db(snapshot_reads=False)
        queries = [
            "Vehicle where weight > 1004",
            "Vehicle where color = 'blue' and weight < 1010",
            "select v.weight from Vehicle v where v.weight >= 1000",
            "SELECT v FROM Vehicle v ORDER BY v.weight LIMIT 5",
        ]
        try:
            for db in (mvcc, locking):
                victim = db.select("Vehicle where weight = 1002")[0]
                db.update(victim.oid, {"color": "green"})
                gone = db.select("Vehicle where weight = 1007")[0]
                db.delete(gone.oid)
                db.new("Vehicle", {"weight": 1042, "color": "red"})
            for q in queries:
                left, right = mvcc.execute(q), locking.execute(q)
                if left.rows is not None:
                    assert left.rows == right.rows, q
                else:
                    assert [str(o) for o in left.oids] == [
                        str(o) for o in right.oids
                    ], q
        finally:
            mvcc.close()
            locking.close()

    def test_open_stream_shields_reader_from_delete(self):
        db = _vehicle_db()
        try:
            stream = db.select_iter("Vehicle where weight >= 1000")
            first = next(stream)
            victim = db.select("Vehicle where weight = 1011")[0]
            db.delete(victim.oid)
            remaining = {h.oid for h in stream}
            # The deleted object is resurrected from its before-image.
            assert victim.oid in remaining | {first.oid}
            assert len(remaining) == 11
        finally:
            db.close()

    def test_gc_reclaims_after_last_snapshot_closes(self):
        db = _vehicle_db()
        try:
            reclaimed = db.metrics.counter("txn.snapshot.gc_reclaimed")
            stream = db.select_iter("Vehicle where weight >= 1000")
            next(stream)
            victim = db.select("Vehicle where weight = 1005")[0]
            db.update(victim.oid, {"weight": 7777})
            # The live stream snapshot pins the before-image.
            assert db.version_store.entry_count > 0
            before = reclaimed.value
            stream.close()
            assert db.version_store.entry_count == 0
            assert reclaimed.value > before
        finally:
            db.close()

    def test_index_probe_stays_exact_when_versions_live(self):
        db = _vehicle_db()
        db.create_class_index("Vehicle", "weight")
        try:
            with db.transaction():
                assert db.execute("Vehicle where weight = 1003").oids

                def writer():
                    victim = db.select("Vehicle where weight = 1003")[0]
                    db.update(victim.oid, {"weight": 4444})

                _in_thread(writer)
                # The index now points 1003 -> nothing; the probe adds
                # the changed object and resolves it through the
                # snapshot, so the row is still found by the probe.
                assert db.version_store.entry_count > 0
                result = db.execute("Vehicle where weight = 1003")
                assert len(result.oids) == 1
                assert isinstance(result.plan.access, IndexEqProbe)
                assert result.pipeline.index_probes == 1
                assert result.pipeline.examined == 1
                assert not any("downgrade" in note for note in result.plan.notes)
                assert db.execute("Vehicle where weight = 4444").oids == []
            assert "txn.snapshot.plan_downgrades" not in db.metrics.snapshot()
        finally:
            db.close()

    def test_plan_cached_while_versions_live_stays_an_index_plan(self):
        """A plan cached while a version entry is live is not a scan.

        Plans no longer depend on version-store state, so a point query
        planned (and cached) under a pinned snapshot keeps probing the
        index once the entries are reclaimed.
        """
        db = Database()
        db.define_class("Item", attributes=[AttributeDef("n", "Integer")])
        oids = [db.new("Item", {"n": n}).oid for n in range(400)]
        db.create_class_index("Item", "n")
        db.analyze()
        try:
            stream = db.select_iter("Item where n >= 0")
            next(stream)
            db.update(oids[0], {"n": -1})
            assert db.version_store.entry_count > 0
            pinned = db.execute("Item where n = 7")
            assert isinstance(pinned.plan.access, IndexEqProbe)
            stream.close()
            assert db.version_store.entry_count == 0
            result = db.execute("Item where n = 7")
            assert result.plan.cached
            assert isinstance(result.plan.access, IndexEqProbe)
            assert result.pipeline.examined == result.pipeline.matched == 1
        finally:
            db.close()

    def test_syssnapshot_view_reports_live_snapshots(self):
        db = _vehicle_db()
        try:
            with db.transaction():
                db.execute("Vehicle where weight > 1000")  # opens the snapshot
                rows = db.select("SysSnapshot")
                assert len(rows) == 1
                assert rows[0]["txn"] is not None
                assert rows[0]["ts"] >= 0
            assert db.select("SysSnapshot") == []
        finally:
            db.close()

    def test_snapshot_reads_off_restores_scan_locks(self):
        db = _vehicle_db(snapshot_reads=False)
        try:
            baseline = db.metrics.value("locks.acquisitions")
            with db.transaction():
                db.execute("Vehicle where weight > 1003")
                assert db.metrics.value("locks.acquisitions") > baseline
            assert db.version_store.entry_count == 0
        finally:
            db.close()


def test_version_store_installs_one_entry_per_oid_and_abort_unlinks_all():
    store = VersionStore()
    snapshot = store.open_snapshot(None)
    oids = [OID(n) for n in range(1, 501)]
    for round_no in range(3):
        for oid in oids:
            store.record_before(7, oid, "Item", ObjectState(oid, "Item", {"n": round_no}))
    assert store.entry_count == len(oids)
    # The first write's before-image is the one the snapshot sees.
    assert store.resolve(oids[3], snapshot, None).values["n"] == 0
    assert store.changed_oids(["Item"], snapshot) == set(oids)
    store.abort(7)
    assert store.entry_count == 0
    assert store.changed_oids(["Item"], snapshot) == set()
    assert store.resolve(oids[3], snapshot, None) is None
    store.close_snapshot(snapshot)


def test_changed_oids_are_the_ones_a_snapshot_sees_differently():
    store = VersionStore()
    old = store.open_snapshot(None)
    first, second = OID(1), OID(2)
    store.record_before(1, first, "Item", ObjectState(first, "Item", {}))
    store.commit(1)
    new = store.open_snapshot(None)
    writer = store.open_snapshot(2)
    store.record_before(2, second, "Item", ObjectState(second, "Item", {}))
    # Committed before ``new`` began: only ``old`` sees a different state.
    assert store.changed_oids(["Item"], old) == {first, second}
    assert store.changed_oids(["Item"], new) == {second}
    # A writer reads its own writes: its current state is its snapshot's.
    assert store.changed_oids(["Item"], writer) == set()
    assert store.changed_oids(["Other"], old) == set()


# -- snapshot repeatable reads on every index access path ---------------------


def _fig1_db(n_companies=8):
    """Figure 1 data with hierarchy, nested and price indexes.

    A few vehicles get marker weights 500-502 (the IN and range shapes)
    and every tenth a None price (the ordered shapes' None tail).
    """
    db = Database()
    build_vehicle_schema(db)
    populate_vehicles(db, n_vehicles=120, n_companies=n_companies, seed=1990)
    for position, oid in enumerate(_vehicles(db)):
        if position < 6:
            db.update(oid, {"weight": 500 + position % 3})
        if position % 10 == 9:
            db.update(oid, {"price": None})
    db.create_hierarchy_index("Vehicle", "weight")
    db.create_hierarchy_index("Vehicle", "price")
    db.create_nested_index("Vehicle", ["manufacturer", "location"])
    return db


def _nested_db():
    """Figure 1 data over 24 companies, so the nested index holds six
    locations: one location's vehicles are a small enough share of the
    extent for the nested probe to beat the scan."""
    return _fig1_db(n_companies=24)


def _ordered_db():
    """Figure 1 data plus 600 unpriced trucks behind the None tail.

    A ``LIMIT 115`` price walk still returns the same 108 keyed vehicles
    and 7 of the None tail, but now reads a sixth of the extent rather
    than nearly all of it, so the ordered walk beats scan + sort.
    """
    db = _fig1_db()
    for _ in range(600):
        db.new("Truck", {"price": None, "weight": 4321})
    return db


def _vehicles(db):
    return sorted(db.execute("SELECT v FROM Vehicle v").oids)


def _red_db():
    """Twelve red/blue vehicles among 48 in twelve other colours."""
    db = _vehicle_db()
    for i in range(48):
        db.new("Vehicle", {"weight": 2000 + i, "color": "shade-%d" % (i % 12)})
    db.create_class_index("Vehicle", "color")
    return db


def _cell_db():
    db = Database()
    register_rectangle_type(attach(db))
    db.define_class("Cell", attributes=[AttributeDef("shape", "Rectangle")])
    for n in range(150):
        x, y = (n * 37) % 200, (n * 53) % 200
        db.new("Cell", {"shape": make_rect(x, y, x + 3, y + 3)})
    register_spatial_index(db.adt, "Cell", "shape", cell_size=16)
    return db


def _move_keys(attribute, inside, outside, cls="Vehicle"):
    """Writer: move one match out, delete one, move one in, insert one."""

    def write(db, query):
        matching = db.execute(query).oids
        everything = db.execute("SELECT x FROM %s x" % cls).oids
        others = [oid for oid in everything if oid not in matching]
        db.update(matching[0], {attribute: outside})
        db.delete(matching[1])
        db.update(others[0], {attribute: inside})
        db.new(cls, {attribute: inside})

    return write


def _reorder_prices(db, query):
    """Writer: shuffle keys across the ordered walk's ends and None tail."""
    ordered = db.execute("SELECT v FROM Vehicle v ORDER BY v.price LIMIT 200").oids
    nones = [oid for oid in ordered if db.get_state(oid).values["price"] is None]
    db.update(ordered[0], {"price": None})
    db.update(nones[0], {"price": 1})
    db.update(ordered[len(ordered) - len(nones) - 1], {"price": 3})
    db.delete(ordered[1])
    db.new("Truck", {"price": 2, "weight": 4321})
    db.new("Truck", {"price": None, "weight": 4321})


def _move_company(db, query):
    """Writer: a Detroit company leaves, another company moves in."""
    companies = db.execute("SELECT c FROM Company c").oids
    detroit = [c for c in companies if db.get_state(c).values["location"] == "Detroit"]
    elsewhere = [c for c in companies if c not in detroit]
    with db.transaction():
        db.update(detroit[0], {"location": "Tokyo"})
        db.update(elsewhere[0], {"location": "Detroit"})


def _delete_company(db, query):
    """Writer: a Detroit company is deleted out from under its vehicles."""
    companies = db.execute("SELECT c FROM Company c WHERE c.location = 'Detroit'").oids
    db.delete(companies[0])


NESTED = "SELECT v FROM Vehicle v WHERE v.manufacturer.location = 'Detroit'"

INDEX_SHAPES = [
    ("class-eq", _red_db, "Vehicle where color = 'red'", IndexEqProbe,
     _move_keys("color", "red", "green")),
    ("hierarchy-in", _fig1_db, "SELECT v FROM Vehicle v WHERE v.weight IN (500, 501, 502)",
     IndexInProbe, _move_keys("weight", 501, 9000)),
    ("hierarchy-range", _fig1_db, "SELECT v FROM Vehicle v WHERE v.weight < 600",
     IndexRangeProbe, _move_keys("weight", 550, 9000)),
    ("order-asc", _ordered_db, "SELECT v FROM Vehicle v ORDER BY v.price LIMIT 115",
     IndexOrderScan, _reorder_prices),
    ("order-desc", _ordered_db, "SELECT v FROM Vehicle v ORDER BY v.price DESC LIMIT 115",
     IndexOrderScan, _reorder_prices),
    ("adt", _cell_db, "SELECT c FROM Cell c WHERE overlaps(c.shape, [10, 10, 40, 40])",
     AdtIndexProbe, _move_keys("shape", [20.0, 20.0, 21.0, 21.0], [150.0, 150.0, 151.0, 151.0], "Cell")),
    ("nested-intermediate-update", _nested_db, NESTED, IndexEqProbe, _move_company),
    ("nested-intermediate-delete", _nested_db, NESTED, IndexEqProbe, _delete_company),
]


@pytest.mark.parametrize(
    "build, query, access, write",
    [shape[1:] for shape in INDEX_SHAPES],
    ids=[shape[0] for shape in INDEX_SHAPES],
)
def test_snapshot_repeatable_reads_on_index_paths(build, query, access, write):
    """Inside one transaction an indexed query returns the same rows
    after a concurrent writer moved keys into and out of its predicate,
    inserted and deleted — and it still runs on the index path."""
    db = build()
    try:
        with db.transaction():
            first = db.execute(query)
            assert isinstance(first.plan.access, access)
            _in_thread(lambda: write(db, query))
            again = db.execute(query)
            assert isinstance(again.plan.access, access)
            assert again.oids == first.oids
        # The writer did change the answer for a fresh snapshot...
        fresh = db.execute(query)
        assert fresh.oids != first.oids
        assert isinstance(fresh.plan.access, access)
        # ...and that answer matches the lock-based (non-MVCC) reader.
        db.snapshot_reads = False
        assert db.execute(query).oids == fresh.oids
    finally:
        db.close()


def test_order_scan_merges_changed_keys_and_stops_early():
    db = _fig1_db()
    try:
        with db.transaction():
            top = db.execute("SELECT v FROM Vehicle v ORDER BY v.price LIMIT 3")
            _in_thread(lambda: _reorder_prices(db, None))
            again = db.execute("SELECT v FROM Vehicle v ORDER BY v.price LIMIT 3")
            assert again.oids == top.oids
            # The walk stopped after the LIMIT: nowhere near the extent.
            assert again.pipeline.examined <= 3 + db.version_store.entry_count
    finally:
        db.close()


def _move_around_cursor(db, before, pulled):
    """Writer: move keys across an open ordered walk's cursor.

    ``before`` is the walk's snapshot answer and ``pulled`` how many of
    its rows the reader has taken; keys are borrowed from objects at
    chosen positions so the moves work in either direction.
    """
    price = lambda oid: db.get_state(oid).values["price"]
    keyed = [oid for oid in before if price(oid) is not None]
    unkeyed = [oid for oid in before if price(oid) is None]
    ahead = keyed[pulled:]
    with db.transaction():
        db.update(before[2], {"price": price(ahead[50])})  # behind -> ahead
        db.update(ahead[30], {"price": price(before[0])})  # ahead -> behind
        db.update(ahead[40], {"price": price(ahead[60])})  # ahead -> further
        db.update(ahead[45], {"price": None})  # ahead -> None tail
        db.update(unkeyed[0], {"price": price(before[1])})  # None -> behind
        db.delete(ahead[35])
        db.new("Truck", {"price": price(ahead[20]), "weight": 4321})


@pytest.mark.parametrize("in_txn", [False, True], ids=["stream-snapshot", "txn-snapshot"])
@pytest.mark.parametrize("order", ["", " DESC"], ids=["asc", "desc"])
def test_open_order_scan_stream_stays_exact_across_commits(order, in_txn):
    """An ordered index walk left open across client pulls returns its
    snapshot answer while writers commit key moves around its cursor:
    nothing twice, nothing lost, everything at its snapshot key."""
    query = "SELECT v FROM Vehicle v ORDER BY v.price%s LIMIT 115" % order
    db = _ordered_db()
    try:
        with contextlib.ExitStack() as stack:
            if in_txn:
                stack.enter_context(db.transaction())
            before = db.execute(query)
            assert isinstance(before.plan.access, IndexOrderScan)
            pulled = 10
            stream = db.select_iter(query)
            got = [next(stream).oid for _ in range(pulled)]
            _in_thread(lambda: _move_around_cursor(db, before.oids, pulled))
            got.extend(handle.oid for handle in stream)
            assert got == before.oids
        assert db.execute(query).oids != before.oids
    finally:
        db.close()


def test_order_scan_rechecks_a_key_moved_and_rolled_back_during_a_read():
    """A writer moves a key into the group the walk is reading, then
    aborts: its entry is gone before the walk re-reads the changed set,
    so only the snapshot-key check keeps the object at its own key."""
    query = "SELECT v FROM Vehicle v ORDER BY v.price LIMIT 115"
    db = _ordered_db()
    try:
        before = db.execute(query)
        price = lambda oid: db.get_state(oid).values["price"]
        pulled = 10
        assert price(before.oids[pulled - 1]) != price(before.oids[pulled])
        victim = before.oids[60]
        moved, release = threading.Event(), threading.Event()

        def writer():
            txn = db.transaction()
            db.update(victim, {"price": price(before.oids[pulled])})
            moved.set()
            release.wait(5.0)
            txn.abort()

        thread = threading.Thread(target=writer)
        tree = before.plan.access.index.tree
        real_next_group = tree.next_group

        def next_group(after, descending=False):
            if thread.ident is None:  # the first read after the pulls
                thread.start()
                moved.wait(5.0)
                found = real_next_group(after, descending)
                release.set()
                thread.join()
                return found
            return real_next_group(after, descending)

        stream = db.select_iter(query)
        got = [next(stream).oid for _ in range(pulled)]
        tree.next_group = next_group
        try:
            got.extend(handle.oid for handle in stream)
        finally:
            del tree.next_group
        assert thread.ident is not None and db.version_store.entry_count == 0
        assert got == before.oids
    finally:
        db.close()



class TestGroupCommit:
    def test_concurrent_commits_share_fsyncs(self, tmp_path):
        db = Database(str(tmp_path / "gc.pages"))
        db.define_class("Item", attributes=[AttributeDef("n", "Integer")])
        started = threading.Event()
        release = threading.Event()
        real_fsync = wal_module.fsync_file

        def gated_fsync(handle):
            started.set()
            release.wait(5.0)
            real_fsync(handle)

        n_writers = 6
        batches = db.metrics.counter("wal.group_commit.batches")
        commits = db.metrics.counter("wal.group_commit.commits")
        batches_before, commits_before = batches.value, commits.value
        wal_module.fsync_file = gated_fsync
        try:
            threads = [
                threading.Thread(target=db.new, args=("Item", {"n": i}))
                for i in range(n_writers)
            ]
            for t in threads:
                t.start()
                started.wait(5.0)
            # All writers are appended (leader stuck in fsync, the rest
            # parked on the group-commit condition) before any sync
            # completes; release and let one fsync cover the stragglers.
            deadline = [t for t in threads]
            for _ in range(500):
                if len(db.wal._pending) >= n_writers:
                    break
                threading.Event().wait(0.01)
            release.set()
            for t in deadline:
                t.join(10.0)
        finally:
            wal_module.fsync_file = real_fsync
        assert commits.value - commits_before == n_writers
        assert 0 < batches.value - batches_before < n_writers
        assert db.count("Item") == n_writers
        db.close()

    def test_group_commit_off_syncs_each_commit(self, tmp_path):
        db = Database(str(tmp_path / "nogc.pages"), group_commit=False)
        db.define_class("Item", attributes=[AttributeDef("n", "Integer")])
        batches = db.metrics.counter("wal.group_commit.batches")
        syncs_before = db.metrics.counter("wal.syncs").value
        for i in range(4):
            db.new("Item", {"n": i})
        assert batches.value == 0
        assert db.metrics.counter("wal.syncs").value == syncs_before + 4
        db.close()

    def test_commit_not_durable_until_covering_fsync(self, tmp_path):
        """Crash between batch append and batch fsync: none of the
        batched transactions may replay as committed."""
        path = str(tmp_path / "batchcrash.pages")
        db = Database(path)
        db.define_class("Item", attributes=[AttributeDef("n", "Integer")])
        db.new("Item", {"n": 1})
        db.checkpoint()
        wal_path = path + ".wal"
        durable_size = os.path.getsize(wal_path)

        started = threading.Event()

        def failing_fsync(handle):
            started.set()
            raise OSError("injected: power lost before fsync")

        real_fsync = wal_module.fsync_file
        failures = []

        def writer(n):
            try:
                db.new("Item", {"n": n})
            except Exception as exc:
                failures.append(exc)

        wal_module.fsync_file = failing_fsync
        try:
            threads = [
                threading.Thread(target=writer, args=(100 + i,))
                for i in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(10.0)
        finally:
            wal_module.fsync_file = real_fsync
        # Every batched committer saw the failure — no false durability.
        assert len(failures) == 2
        # Crash without flushing dirty pages; whatever the WAL buffered
        # past the last completed fsync is lost with the page cache.
        db.storage.pager.close()
        db.wal.close()
        with open(wal_path, "r+b") as fh:
            fh.truncate(durable_size)

        reopened = Database(path)
        values = sorted(
            state.values["n"] for state in reopened.storage.scan_class("Item")
        )
        assert values == [1]
        reopened.close()


class TestHandleSnapshotReads:
    """Handle attribute reads (``h["attr"]``) follow the txn snapshot.

    PR-8 follow-up: queries inside a transaction read the begin
    snapshot, but ``h["attr"]`` used to chase current stored state — a
    read inside one transaction could watch a concurrent commit change
    an attribute between two accesses.  ``Database.read_state`` routes
    handle reads through ``Snapshot.resolve`` so both paths agree.
    """

    def test_handle_read_is_repeatable_across_concurrent_commit(self):
        db = _vehicle_db()
        try:
            handle = db.select("Vehicle where weight = 1000")[0]
            with db.transaction():
                assert handle["weight"] == 1000  # opens the txn snapshot

                def writer():
                    db.update(handle.oid, {"weight": 4444})

                _in_thread(writer)
                # The committed update is invisible to the handle read,
                # exactly as it is to a query in this transaction.
                assert handle["weight"] == 1000
                assert handle.state().values["weight"] == 1000
                assert handle.to_dict()["weight"] == 1000
                assert db.execute(
                    "Vehicle where weight = 4444"
                ).oids == []
            # Transaction over: the handle sees the new world.
            assert handle["weight"] == 4444
        finally:
            db.close()

    def test_handle_read_sees_own_writes(self):
        db = _vehicle_db()
        try:
            with db.transaction():
                handle = db.new("Vehicle", {"weight": 7000})
                assert handle["weight"] == 7000
                db.update(handle.oid, {"weight": 7001})
                assert handle["weight"] == 7001
        finally:
            db.close()

    def test_handle_read_survives_concurrent_delete(self):
        db = _vehicle_db()
        try:
            handle = db.select("Vehicle where weight = 1002")[0]
            with db.transaction():
                assert handle["weight"] == 1002

                def writer():
                    db.delete(handle.oid)

                _in_thread(writer)
                # Deleted under our feet, but our snapshot still has it.
                assert handle["weight"] == 1002
        finally:
            db.close()

    def test_get_state_still_reads_current_state(self):
        # The locking read path is unchanged: inside the same
        # transaction whose handle read sees the snapshot, get_state
        # returns the concurrently committed current state (and takes
        # its read lock).  The lock-conflict tests elsewhere depend on
        # this blocking behavior.
        db = _vehicle_db()
        try:
            handle = db.select("Vehicle where weight = 1004")[0]
            with db.transaction():
                assert handle["weight"] == 1004

                def writer():
                    db.update(handle.oid, {"weight": 5555})

                _in_thread(writer)
                assert handle["weight"] == 1004
                assert db.get_state(handle.oid).values["weight"] == 5555
        finally:
            db.close()

    def test_handle_read_outside_transaction_is_current(self):
        db = _vehicle_db()
        try:
            handle = db.select("Vehicle where weight = 1006")[0]
            db.update(handle.oid, {"weight": 3333})
            assert handle["weight"] == 3333
            assert db.read_state(handle.oid).values["weight"] == 3333
        finally:
            db.close()

    def test_handle_read_with_snapshots_off_matches_get_state(self):
        db = _vehicle_db(snapshot_reads=False)
        try:
            handle = db.select("Vehicle where weight = 1008")[0]
            with db.transaction():
                assert handle["weight"] == 1008
                db.update(handle.oid, {"weight": 2222})
                assert handle["weight"] == 2222
        finally:
            db.close()
