"""Long-duration transactions: checkout/checkin workspaces."""

import pytest

from repro import AttributeDef, Database
from repro.errors import LockTimeoutError, TransactionError


@pytest.fixture
def ddb():
    db = Database()
    db.define_class(
        "Design",
        attributes=[
            AttributeDef("name", "String"),
            AttributeDef("revision", "Integer", default=0),
        ],
    )
    return db


class TestOptimisticWorkspace:
    def test_checkout_copies_state(self, ddb):
        design = ddb.new("Design", {"name": "chip", "revision": 1})
        workspace = ddb.workspace("alice")
        workspace.checkout([design.oid])
        workspace.update(design.oid, {"revision": 2})
        # Shared database untouched until checkin.
        assert ddb.get(design.oid)["revision"] == 1

    def test_checkin_writes_edits(self, ddb):
        design = ddb.new("Design", {"name": "chip", "revision": 1})
        workspace = ddb.workspace()
        workspace.checkout([design.oid])
        workspace.update(design.oid, {"revision": 2})
        report = workspace.checkin()
        assert report.ok
        assert report.written == [design.oid]
        assert ddb.get(design.oid)["revision"] == 2

    def test_unchanged_objects_not_rewritten(self, ddb):
        design = ddb.new("Design", {"name": "chip"})
        other = ddb.new("Design", {"name": "board"})
        workspace = ddb.workspace()
        workspace.checkout([design.oid, other.oid])
        workspace.update(design.oid, {"revision": 5})
        report = workspace.checkin()
        assert report.unchanged == [other.oid]
        assert report.written == [design.oid]

    def test_conflict_detected(self, ddb):
        design = ddb.new("Design", {"name": "chip", "revision": 1})
        workspace = ddb.workspace("alice")
        workspace.checkout([design.oid])
        workspace.update(design.oid, {"revision": 2})
        # Concurrent change in the shared database.
        ddb.update(design.oid, {"revision": 9})
        report = workspace.checkin()
        assert not report.ok
        assert report.conflicts[0].oid == design.oid
        assert report.conflicts[0].theirs.values["revision"] == 9
        # Nothing written on conflict.
        assert ddb.get(design.oid)["revision"] == 9

    def test_force_checkin_overwrites(self, ddb):
        design = ddb.new("Design", {"name": "chip", "revision": 1})
        workspace = ddb.workspace()
        workspace.checkout([design.oid])
        workspace.update(design.oid, {"revision": 2})
        ddb.update(design.oid, {"revision": 9})
        report = workspace.checkin(force=True)
        assert report.ok
        assert ddb.get(design.oid)["revision"] == 2

    def test_local_delete_checked_in(self, ddb):
        design = ddb.new("Design", {"name": "chip"})
        workspace = ddb.workspace()
        workspace.checkout([design.oid])
        workspace.delete(design.oid)
        report = workspace.checkin()
        assert report.deleted == [design.oid]
        assert not ddb.exists(design.oid)

    def test_edited_listing(self, ddb):
        a = ddb.new("Design", {"name": "a"})
        b = ddb.new("Design", {"name": "b"})
        workspace = ddb.workspace()
        workspace.checkout([a.oid, b.oid])
        workspace.update(b.oid, {"revision": 1})
        assert workspace.edited() == [b.oid]

    def test_workspace_validates_updates(self, ddb):
        design = ddb.new("Design", {"name": "chip"})
        workspace = ddb.workspace()
        workspace.checkout([design.oid])
        with pytest.raises(Exception):
            workspace.update(design.oid, {"revision": "not-an-int"})

    def test_closed_workspace_rejects_use(self, ddb):
        design = ddb.new("Design", {"name": "chip"})
        workspace = ddb.workspace()
        workspace.checkout([design.oid])
        workspace.release()
        with pytest.raises(TransactionError):
            workspace.get(design.oid)

    def test_not_checked_out_rejected(self, ddb):
        design = ddb.new("Design", {"name": "chip"})
        workspace = ddb.workspace()
        with pytest.raises(TransactionError):
            workspace.update(design.oid, {"revision": 1})

    def test_checkin_is_atomic(self, ddb):
        # Two edits land in one transaction.
        a = ddb.new("Design", {"name": "a"})
        b = ddb.new("Design", {"name": "b"})
        workspace = ddb.workspace()
        workspace.checkout([a.oid, b.oid])
        workspace.update(a.oid, {"revision": 1})
        workspace.update(b.oid, {"revision": 1})
        committed_before = ddb.metrics.value("txn.commits")
        workspace.checkin()
        assert ddb.metrics.value("txn.commits") == committed_before + 1


class TestPessimisticWorkspace:
    def test_persistent_lock_blocks_writers(self, ddb):
        design = ddb.new("Design", {"name": "chip", "revision": 1})
        workspace = ddb.workspace("alice", pessimistic=True)
        workspace.checkout([design.oid])
        # A short transaction on another "session" cannot write the object.
        txn = ddb.transaction()
        with pytest.raises(LockTimeoutError):
            ddb.locks.acquire(txn.txn_id, ("object", design.oid), "X", timeout=0.05)
        txn.abort()
        workspace.release()

    def test_no_conflicts_under_pessimism(self, ddb):
        design = ddb.new("Design", {"name": "chip", "revision": 1})
        workspace = ddb.workspace(pessimistic=True)
        workspace.checkout([design.oid])
        workspace.update(design.oid, {"revision": 2})
        report = workspace.checkin()
        assert report.ok
        assert ddb.get(design.oid)["revision"] == 2

    def test_release_frees_locks(self, ddb):
        design = ddb.new("Design", {"name": "chip"})
        workspace = ddb.workspace(pessimistic=True)
        workspace.checkout([design.oid])
        workspace.release()
        ddb.update(design.oid, {"revision": 3})  # no longer blocked
        assert ddb.get(design.oid)["revision"] == 3
