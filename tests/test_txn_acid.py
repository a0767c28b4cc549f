"""Transactions: atomicity, rollback, WAL, recovery, durability."""

import pytest

from repro import AttributeDef, Database
from repro.core.obj import ObjectState
from repro.core.oid import OID
from repro.errors import RecoveryError, TransactionError
from repro.storage.manager import StorageManager
from repro.txn.recovery import checkpoint, recover
from repro.txn.wal import COMMIT, INSERT, LogRecord, WriteAheadLog


@pytest.fixture
def adb():
    db = Database()
    db.define_class("Account", attributes=[AttributeDef("balance", "Integer")])
    return db


class TestTransactionLifecycle:
    def test_commit_persists(self, adb):
        with adb.transaction():
            account = adb.new("Account", {"balance": 100})
        assert adb.get(account.oid)["balance"] == 100

    def test_abort_rolls_back_insert(self, adb):
        txn = adb.transaction()
        account = adb.new("Account", {"balance": 100})
        txn.abort()
        assert not adb.exists(account.oid)

    def test_abort_rolls_back_update(self, adb):
        account = adb.new("Account", {"balance": 100})
        txn = adb.transaction()
        adb.update(account.oid, {"balance": 50})
        txn.abort()
        assert adb.get(account.oid)["balance"] == 100

    def test_abort_rolls_back_delete(self, adb):
        account = adb.new("Account", {"balance": 100})
        txn = adb.transaction()
        adb.delete(account.oid)
        txn.abort()
        assert adb.get(account.oid)["balance"] == 100

    def test_abort_restores_indexes(self, adb):
        index = adb.create_hierarchy_index("Account", "balance")
        account = adb.new("Account", {"balance": 100})
        txn = adb.transaction()
        adb.update(account.oid, {"balance": 50})
        adb.new("Account", {"balance": 75})
        txn.abort()
        assert account.oid in index.lookup_eq(100)
        assert index.lookup_eq(50) == []
        assert index.lookup_eq(75) == []

    def test_multi_operation_atomicity(self, adb):
        a = adb.new("Account", {"balance": 100})
        b = adb.new("Account", {"balance": 0})
        txn = adb.transaction()
        adb.update(a.oid, {"balance": 0})
        adb.update(b.oid, {"balance": 100})
        txn.abort()
        assert adb.get(a.oid)["balance"] == 100
        assert adb.get(b.oid)["balance"] == 0

    def test_context_manager_commits(self, adb):
        with adb.transaction():
            account = adb.new("Account", {"balance": 1})
        assert adb.exists(account.oid)

    def test_context_manager_aborts_on_exception(self, adb):
        with pytest.raises(RuntimeError):
            with adb.transaction():
                account = adb.new("Account", {"balance": 1})
                raise RuntimeError("boom")
        assert not adb.exists(account.oid)

    def test_nested_begin_rejected(self, adb):
        with adb.transaction():
            with pytest.raises(TransactionError):
                adb.transaction()

    def test_commit_twice_rejected(self, adb):
        txn = adb.transaction()
        txn.commit()
        with pytest.raises(TransactionError):
            txn.commit()

    def test_autocommit_single_op(self, adb):
        account = adb.new("Account", {"balance": 5})
        assert adb.metrics.value("txn.commits") >= 1
        assert adb.exists(account.oid)

    def test_locks_released_after_commit(self, adb):
        with adb.transaction():
            adb.new("Account", {"balance": 5})
        assert adb.locks.lock_count() == 0

    def test_abort_all_active(self, adb):
        adb.txns.begin()
        account = adb.new("Account", {"balance": 9})
        adb.txns.abort_all_active()
        assert not adb.exists(account.oid)
        assert adb.txns.active_transactions() == []


class TestWalFraming:
    def test_memory_log_roundtrip(self):
        wal = WriteAheadLog()
        wal.log_begin(1)
        state = ObjectState(OID(1), "A", {"x": 1})
        wal.log_insert(1, state)
        wal.log_commit(1)
        records = list(wal.replay())
        assert [r.record_type for r in records] == [1, INSERT, COMMIT]
        assert records[1].after.values == {"x": 1}

    def test_file_log_roundtrip(self, tmp_path):
        path = str(tmp_path / "log.wal")
        wal = WriteAheadLog(path)
        wal.log_begin(1)
        wal.log_insert(1, ObjectState(OID(1), "A", {"x": 1}))
        wal.log_commit(1)
        wal.close()
        reopened = WriteAheadLog(path)
        assert reopened.record_count == 3
        reopened.close()

    def test_torn_tail_tolerated(self, tmp_path):
        path = str(tmp_path / "log.wal")
        wal = WriteAheadLog(path)
        wal.log_begin(1)
        wal.log_insert(1, ObjectState(OID(1), "A", {"x": 1}))
        wal.log_commit(1)
        wal.close()
        with open(path, "ab") as handle:
            handle.write(b"\x00\x01\x02")  # torn frame
        reopened = WriteAheadLog(path)
        assert reopened.record_count == 3
        reopened.close()

    def test_mid_log_corruption_detected(self, tmp_path):
        path = str(tmp_path / "log.wal")
        wal = WriteAheadLog(path)
        wal.log_begin(1)
        wal.log_insert(1, ObjectState(OID(1), "A", {"x": "payload"}))
        wal.log_commit(1)
        wal.close()
        data = bytearray(open(path, "rb").read())
        data[20] ^= 0xFF  # flip a byte inside the first frames
        with open(path, "wb") as handle:
            handle.write(data)
        reopened = WriteAheadLog(path)
        with pytest.raises(RecoveryError):
            list(reopened.replay())
        reopened.close()

    def test_truncate(self):
        wal = WriteAheadLog()
        wal.log_begin(1)
        wal.truncate()
        assert wal.record_count == 0


class TestRecovery:
    def _storage_and_wal(self):
        return StorageManager(), WriteAheadLog()

    def test_committed_insert_redone(self):
        storage, wal = self._storage_and_wal()
        state = ObjectState(OID(1), "A", {"x": 1})
        wal.log_begin(1)
        wal.log_insert(1, state)
        wal.log_commit(1)
        report = recover(wal, storage)
        assert report.winners == {1}
        assert storage.load(OID(1)).values == {"x": 1}

    def test_loser_insert_undone(self):
        storage, wal = self._storage_and_wal()
        wal.log_begin(1)
        wal.log_insert(1, ObjectState(OID(1), "A", {"x": 1}))
        # no commit: loser
        report = recover(wal, storage)
        assert report.losers == {1}
        assert not storage.contains(OID(1))

    def test_loser_update_restores_before_image(self):
        storage, wal = self._storage_and_wal()
        before = ObjectState(OID(1), "A", {"x": 1})
        after = ObjectState(OID(1), "A", {"x": 2})
        wal.log_begin(1)
        wal.log_insert(1, before)
        wal.log_commit(1)
        wal.log_begin(2)
        wal.log_update(2, before, after)
        report = recover(wal, storage)
        assert report.losers == {2}
        assert storage.load(OID(1)).values == {"x": 1}

    def test_aborted_txn_with_logged_compensation_nets_out(self):
        storage, wal = self._storage_and_wal()
        state = ObjectState(OID(1), "A", {"x": 1})
        wal.log_begin(1)
        wal.log_insert(1, state)
        wal.log_delete(1, state)  # compensation logged by the abort path
        wal.log_abort(1)
        recover(wal, storage)
        assert not storage.contains(OID(1))

    def test_checkpoint_truncates(self):
        storage, wal = self._storage_and_wal()
        wal.log_begin(1)
        wal.log_insert(1, ObjectState(OID(1), "A", {"x": 1}))
        wal.log_commit(1)
        recover(wal, storage)
        checkpoint(wal, storage)
        assert wal.record_count == 0
        # Recovery over the empty log must keep the checkpointed data.
        recover(wal, storage)
        assert storage.contains(OID(1))

    def test_interleaved_winner_and_loser(self):
        storage, wal = self._storage_and_wal()
        wal.log_begin(1)
        wal.log_begin(2)
        wal.log_insert(1, ObjectState(OID(1), "A", {"who": "winner"}))
        wal.log_insert(2, ObjectState(OID(2), "A", {"who": "loser"}))
        wal.log_commit(1)
        report = recover(wal, storage)
        assert storage.contains(OID(1))
        assert not storage.contains(OID(2))
        assert report.redone == 2 and report.undone == 1


class TestDurability:
    def test_reopen_preserves_committed_data(self, durable_path):
        db = Database(durable_path)
        db.define_class("Account", attributes=[AttributeDef("balance", "Integer")])
        with db.transaction():
            account = db.new("Account", {"balance": 77})
        oid = account.oid
        db.close()

        reopened = Database(durable_path)
        assert reopened.get(oid)["balance"] == 77
        assert reopened.class_of(oid) == "Account"
        reopened.close()

    def test_crash_before_checkpoint_recovers_from_wal(self, durable_path):
        db = Database(durable_path)
        db.define_class("Account", attributes=[AttributeDef("balance", "Integer")])
        db.checkpoint()  # persist schema catalog
        with db.transaction():
            account = db.new("Account", {"balance": 123})
        oid = account.oid
        # Simulate crash: no close/checkpoint, just drop the handles.
        db.storage.pager.close()
        db.wal.close()

        reopened = Database(durable_path)
        assert reopened.get(oid)["balance"] == 123
        reopened.close()

    def test_uncommitted_work_lost_on_crash(self, durable_path):
        db = Database(durable_path)
        db.define_class("Account", attributes=[AttributeDef("balance", "Integer")])
        db.checkpoint()
        committed = db.new("Account", {"balance": 1})
        txn = db.transaction()
        uncommitted = db.new("Account", {"balance": 2})
        # Force uncommitted data pages to disk (steal), then crash.
        db.storage.buffer.flush_all()
        db.storage.save_metadata({"schema": db.schema.to_dict()})
        db.storage.pager.close()
        db.wal.close()
        del txn

        reopened = Database(durable_path)
        assert reopened.exists(committed.oid)
        assert not reopened.exists(uncommitted.oid)
        reopened.close()

    def test_oid_generator_resumes_past_stored(self, durable_path):
        db = Database(durable_path)
        db.define_class("Account", attributes=[AttributeDef("balance", "Integer")])
        first = db.new("Account", {"balance": 1})
        db.close()
        reopened = Database(durable_path)
        second = reopened.new("Account", {"balance": 2})
        assert second.oid.value > first.oid.value
        reopened.close()

    def test_schema_survives_reopen(self, durable_path):
        db = Database(durable_path)
        db.define_class("Base", attributes=[AttributeDef("x", "Integer")])
        db.define_class("Derived", superclasses=("Base",))
        db.close()
        reopened = Database(durable_path)
        assert reopened.schema.is_subclass("Derived", "Base")
        assert "x" in reopened.schema.attributes("Derived")
        reopened.close()
