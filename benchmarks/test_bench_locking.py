"""E8: class-hierarchy granularity locking [GARZ88].

Two claims: (a) a class-wide operation under granular locking takes one
class lock instead of N object locks; (b) intention modes still allow
object-level writers to run concurrently.  Lock-acquisition counts and
conflict outcomes are reported alongside wall-clock costs.  The MVCC
variants (E8d, E8e) show snapshot readers taking no scan locks and
keeping their index plans while writers commit.
"""

import random
import threading
import time

import pytest
from conftest import emit_bench_artifact, print_table, timed

from repro import AttributeDef, Database
from repro.errors import LockTimeoutError
from repro.txn.locks import IX, S, X, LockManager, class_resource, object_resource

N_OBJECTS = 2000


@pytest.fixture(scope="module")
def part_db():
    db = Database()
    db.define_class("Part", attributes=[AttributeDef("n", "Integer")])
    oids = [db.new("Part", {"n": position}).oid for position in range(N_OBJECTS)]
    return db, oids


def class_level_scan(locks, oids, txn_id):
    locks.acquire(txn_id, ("database", None), "IS")
    locks.acquire(txn_id, class_resource("Part"), S)
    locks.release_all(txn_id)


def object_level_scan(locks, oids, txn_id):
    locks.acquire(txn_id, ("database", None), "IS")
    locks.acquire(txn_id, class_resource("Part"), "IS")
    for oid in oids:
        locks.acquire(txn_id, object_resource(oid), S)
    locks.release_all(txn_id)


def test_class_granularity_scan_locking(part_db, benchmark):
    _db, oids = part_db
    locks = LockManager()
    benchmark(lambda: class_level_scan(locks, oids, 1))


def test_object_granularity_scan_locking(part_db, benchmark):
    _db, oids = part_db
    locks = LockManager()
    benchmark(lambda: object_level_scan(locks, oids, 1))


def test_lock_count_summary(part_db):
    _db, oids = part_db
    coarse = LockManager()
    t_coarse, _ = timed(class_level_scan, coarse, oids, 1)
    fine = LockManager()
    t_fine, _ = timed(object_level_scan, fine, oids, 1)
    print_table(
        "E8a: locks acquired for a %d-object class scan" % N_OBJECTS,
        ("granularity", "acquisitions", "ms"),
        [
            ("class-level (S on class)", coarse.metrics.value("locks.acquisitions"), round(t_coarse * 1e3, 3)),
            ("object-level (S per object)", fine.metrics.value("locks.acquisitions"), round(t_fine * 1e3, 3)),
        ],
    )
    assert coarse.metrics.value("locks.acquisitions") == 2
    assert fine.metrics.value("locks.acquisitions") == N_OBJECTS + 2
    assert t_coarse < t_fine


def test_intention_modes_allow_concurrent_writers(part_db):
    """Two object writers coexist (IX at class); a class scanner blocks."""
    _db, oids = part_db
    locks = LockManager()
    locks.acquire(1, class_resource("Part"), IX)
    locks.acquire(1, object_resource(oids[0]), X)
    locks.acquire(2, class_resource("Part"), IX)  # compatible with IX
    locks.acquire(2, object_resource(oids[1]), X)
    with pytest.raises(LockTimeoutError):
        locks.acquire(3, class_resource("Part"), S, timeout=0.05)
    locks.release_all(1)
    locks.release_all(2)
    locks.acquire(3, class_resource("Part"), S)  # now grantable
    locks.release_all(3)


def test_lock_escalation_bounds_lock_table(part_db):
    """Ablation: a txn touching many objects escalates to one class lock."""
    db, oids = part_db
    db.lock_escalation_threshold = 64
    try:
        with db.transaction() as txn:
            for oid in oids[:500]:
                db.update(oid, {"n": 1})
            held = db.locks.locks_held(txn.txn_id)
            object_locks = sum(1 for resource, _m in held if resource[0] == "object")
            assert db.locks.holds(txn.txn_id, class_resource("Part"), X)
            assert object_locks < 500
            print_table(
                "E8b: lock escalation (threshold 64, 500 object writes)",
                ("metric", "value"),
                [
                    ("object locks held", object_locks),
                    ("class lock", "X (escalated)"),
                    ("total locks", len(held)),
                ],
            )
            txn.abort()
    finally:
        db.lock_escalation_threshold = 256


def test_concurrent_object_writers_throughput(part_db):
    """Disjoint writers under hierarchy locking never conflict."""
    db, oids = part_db
    errors = []
    done = []

    def worker(start):
        try:
            with db.transaction():
                for position in range(start, start + 50):
                    db.update(oids[position], {"n": position * 10})
            done.append(start)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(s,)) for s in (0, 50, 100, 150)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not errors
    assert len(done) == 4
    assert db.locks.lock_count() == 0


def test_wait_event_profile_artifact(part_db):
    """E8c: wait-event export — a real conflict lands in SysWaitEvent.

    A writer holds X on one object while a reader blocks on it; the
    profiled Lock wait (with blocker/blockee txn ids) is queried back
    through the SysWaitEvent system view and exported as a bench
    artifact alongside the engine metric snapshot.
    """
    db, oids = part_db
    writer = db.txns.begin()
    db.update(oids[0], {"n": -1})
    started = threading.Event()

    def blocked_reader():
        with db.transaction():
            started.set()
            db.get_state(oids[0])  # blocks until the writer commits

    thread = threading.Thread(target=blocked_reader)
    thread.start()
    started.wait()
    time.sleep(0.05)
    writer.commit()
    thread.join(timeout=30)

    rows = db.select(
        "SysWaitEvent where kind = 'Lock' order by total_wait desc limit 10"
    )
    assert rows and rows[0]["total_wait"] > 0
    assert rows[0]["last_blocker"] == writer.txn_id
    print_table(
        "E8c: top wait events",
        ("kind", "target", "count", "total_wait"),
        [
            (row["kind"], row["target"], row["count"], round(row["total_wait"], 4))
            for row in rows
        ],
    )
    emit_bench_artifact(
        "e8_lock_waits",
        {
            "wait_events": rows,
            "recent": [event.to_dict() for event in db.waits.recent(16)],
        },
        db=db,
    )


def test_snapshot_readers_scan_lock_free(part_db):
    """E8d: MVCC snapshot readers take zero scan locks and never block.

    While a writer holds X on an object (IX on the class), a lock-based
    class scan would block behind the intention lock; the snapshot
    reader instead resolves the locked row through its before-image —
    zero lock acquisitions, verified against both the lock-manager
    counters and the SysLock view.
    """
    db, oids = part_db
    writer = db.txns.begin()
    db.update(oids[0], {"n": -777})
    try:
        acquisitions_before = db.metrics.value("locks.acquisitions")
        waits_before = db.metrics.value("locks.waits")
        t_read, result = timed(db.execute, "Part where n > -100")
        assert len(result) >= N_OBJECTS - 1
        assert db.metrics.value("locks.acquisitions") == acquisitions_before
        assert db.metrics.value("locks.waits") == waits_before
        # Every lock in the table belongs to the writer; the reader
        # left no footprint.
        lock_rows = db.select("SysLock")
        assert lock_rows and all(
            row["txn"] == writer.txn_id for row in lock_rows
        )
        snapshot_reads = db.metrics.counter("txn.snapshot.reads").value
        print_table(
            "E8d: snapshot scan vs writer holding X",
            ("metric", "value"),
            [
                ("rows read", len(result)),
                ("reader lock acquisitions", 0),
                ("reader lock waits", 0),
                ("snapshot resolves", snapshot_reads),
                ("scan ms", round(t_read * 1e3, 3)),
            ],
        )
    finally:
        writer.abort()
    emit_bench_artifact(
        "e8_snapshot_reads",
        {
            "rows_read": len(result),
            "reader_lock_acquisitions": 0,
            "locks_held_by_writer": len(lock_rows),
        },
        db=db,
    )


def test_snapshot_index_plans_survive_concurrent_writers():
    """E8e: write-heavy MVCC — index plans survive a pinned snapshot.

    An open stream pins a reader snapshot, so every before-image the
    writer installs stays live, while the writer commits changes to
    indexed keys between point lookups.  Each lookup must still run as
    an index probe that examines only the rows it returns, and must
    return exactly what a lock-based (``snapshot_reads=False``) database
    given the same writes returns.  A second round runs the lookups
    inside the transaction that pins the snapshot: each probe then adds
    every OID moved since, and must answer with the keys as of the
    snapshot while examining no more than its matches plus those OIDs.
    """
    rounds = 300
    dbs = []
    for snapshot_reads in (True, False):
        db = Database(snapshot_reads=snapshot_reads)
        db.define_class("Part", attributes=[AttributeDef("n", "Integer")])
        oids = [db.new("Part", {"n": position}).oid for position in range(N_OBJECTS)]
        db.create_class_index("Part", "n")
        db.analyze()
        dbs.append(db)
    db, oracle = dbs
    keys = {oid: position for position, oid in enumerate(oids)}
    rng = random.Random(1990)
    stream = db.select_iter("Part where n >= 0")
    next(stream)
    probes_before = db.metrics.counter("query.index_probes").value
    examined = matched = 0
    started = time.perf_counter()
    for _ in range(rounds):
        moves = {oid: rng.randrange(N_OBJECTS) for oid in rng.sample(oids, 2)}
        for target in (db, oracle):
            _commit_moves(target, moves)
        keys.update(moves)
        text = "Part where n = %d" % keys[rng.choice(oids)]
        result = db.execute(text)
        assert result.plan.access.description.startswith("index-eq"), text
        assert [str(oid) for oid in result.oids] == [
            str(oid) for oid in oracle.execute(text).oids
        ], text
        examined += result.pipeline.examined
        matched += result.pipeline.matched
    elapsed = time.perf_counter() - started
    live_entries = db.version_store.entry_count
    stream.close()
    probes = db.metrics.counter("query.index_probes").value - probes_before
    assert live_entries >= rounds  # the pinned snapshot kept them live
    assert probes == rounds
    assert examined == matched

    # Pinned reader: the lookups run in the transaction that holds the
    # snapshot, so every probe adds the OIDs moved since it opened and
    # must still answer with the keys as of the snapshot.
    pinned_keys = dict(keys)
    pinned_examined = pinned_matched = 0
    with db.transaction():
        db.execute("Part where n = -1")  # opens the transaction's snapshot
        for _ in range(rounds):
            moves = {oid: rng.randrange(N_OBJECTS) for oid in rng.sample(oids, 2)}
            writer = threading.Thread(target=_commit_moves, args=(db, moves))
            writer.start()
            writer.join()
            key = pinned_keys[rng.choice(oids)]
            changed = len(db.version_store.changed_oids(["Part"], db.txns.current.snapshot))
            result = db.execute("Part where n = %d" % key)
            assert result.plan.access.description.startswith("index-eq")
            assert result.oids == sorted(
                oid for oid, value in pinned_keys.items() if value == key
            )
            assert result.pipeline.examined <= result.pipeline.matched + changed
            pinned_examined += result.pipeline.examined
            pinned_matched += result.pipeline.matched
        pinned_entries = db.version_store.entry_count
    assert pinned_entries >= rounds
    assert pinned_examined > pinned_matched  # the widened probes were exercised
    print_table(
        "E8e: point lookups while a pinned snapshot keeps versions live",
        ("metric", "value"),
        [
            ("lookups", rounds),
            ("index probes", probes),
            ("rows examined", examined),
            ("rows matched", matched),
            ("live version entries", live_entries),
            ("ms per round", round(elapsed * 1e3 / rounds, 3)),
            ("pinned-reader rows examined", pinned_examined),
            ("pinned-reader rows matched", pinned_matched),
            ("pinned-reader live entries", pinned_entries),
        ],
    )
    emit_bench_artifact(
        "e8_snapshot_index",
        {
            "lookups": rounds,
            "rows_examined": examined,
            "rows_matched": matched,
            "live_version_entries": live_entries,
            "ms_per_round": elapsed * 1e3 / rounds,
            "pinned_rows_examined": pinned_examined,
            "pinned_rows_matched": pinned_matched,
            "pinned_live_version_entries": pinned_entries,
        },
        db=db,
    )
    oracle.close()
    db.close()


def _commit_moves(db, moves):
    """Commit ``moves`` (OID -> new key) in one transaction."""
    with db.transaction():
        for oid, key in moves.items():
            db.update(oid, {"n": key})
