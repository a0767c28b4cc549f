"""Lock manager: compatibility, upgrades, blocking, deadlock detection."""

import threading
import time

import pytest

from repro.core.oid import OID
from repro.errors import DeadlockError, LockTimeoutError
from repro.txn.locks import (
    DATABASE,
    IS,
    IX,
    S,
    X,
    LockManager,
    class_resource,
    compatible,
    object_resource,
)


class TestCompatibilityMatrix:
    def test_is_compatible_with_everything_but_x(self):
        assert compatible(IS, IS) and compatible(IS, IX) and compatible(IS, S)
        assert not compatible(IS, X)

    def test_ix_blocks_s(self):
        assert compatible(IX, IX)
        assert not compatible(IX, S)

    def test_s_blocks_writers(self):
        assert compatible(S, S) and compatible(S, IS)
        assert not compatible(S, IX) and not compatible(S, X)

    def test_x_exclusive(self):
        for mode in (IS, IX, S, X):
            assert not compatible(X, mode)


class TestAcquisition:
    def test_reacquire_same_mode_is_noop(self):
        locks = LockManager()
        locks.acquire(1, DATABASE, IS)
        locks.acquire(1, DATABASE, IS)
        assert locks.metrics.value("locks.acquisitions") == 1

    def test_upgrade_s_to_x(self):
        locks = LockManager()
        resource = object_resource(OID(1))
        locks.acquire(1, resource, S)
        locks.acquire(1, resource, X)
        assert locks.holds(1, resource, X)
        assert locks.metrics.value("locks.upgrades") == 1

    def test_weaker_request_covered_by_stronger_hold(self):
        locks = LockManager()
        resource = class_resource("Vehicle")
        locks.acquire(1, resource, X)
        locks.acquire(1, resource, S)  # no-op: X covers S
        assert locks.holds(1, resource, X)

    def test_shared_holders(self):
        locks = LockManager()
        resource = class_resource("Vehicle")
        locks.acquire(1, resource, S)
        locks.acquire(2, resource, S)
        assert locks.holds(1, resource, S) and locks.holds(2, resource, S)

    def test_conflicting_request_times_out(self):
        locks = LockManager()
        resource = object_resource(OID(1))
        locks.acquire(1, resource, X)
        with pytest.raises(LockTimeoutError):
            locks.acquire(2, resource, S, timeout=0.05)
        assert locks.metrics.value("locks.waits") >= 1

    def test_release_all_unblocks_waiters(self):
        locks = LockManager()
        resource = object_resource(OID(1))
        locks.acquire(1, resource, X)
        acquired = threading.Event()

        def waiter():
            locks.acquire(2, resource, X, timeout=5)
            acquired.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        assert not acquired.is_set()
        locks.release_all(1)
        thread.join(timeout=5)
        assert acquired.is_set()

    def test_release_all_clears_bookkeeping(self):
        locks = LockManager()
        locks.acquire(1, DATABASE, IX)
        locks.acquire(1, class_resource("A"), IX)
        locks.release_all(1)
        assert locks.lock_count() == 0
        assert locks.locks_held(1) == []

    def test_locks_held_listing(self):
        locks = LockManager()
        locks.acquire(1, DATABASE, IS)
        locks.acquire(1, class_resource("A"), S)
        held = dict(locks.locks_held(1))
        assert held[DATABASE] == IS
        assert held[class_resource("A")] == S

    def test_unknown_mode_rejected(self):
        locks = LockManager()
        with pytest.raises(Exception):
            locks.acquire(1, DATABASE, "Z")


class TestHierarchyGranularity:
    def test_intention_locks_allow_fine_grain_concurrency(self):
        locks = LockManager()
        # txn 1 writes object 1, txn 2 writes object 2: both take IX at
        # class level (compatible), X at their own object.
        locks.acquire(1, class_resource("Part"), IX)
        locks.acquire(1, object_resource(OID(1)), X)
        locks.acquire(2, class_resource("Part"), IX)
        locks.acquire(2, object_resource(OID(2)), X)
        assert locks.lock_count() == 4

    def test_class_s_blocks_object_writer_at_class_level(self):
        locks = LockManager()
        locks.acquire(1, class_resource("Part"), S)  # class scan
        with pytest.raises(LockTimeoutError):
            locks.acquire(2, class_resource("Part"), IX, timeout=0.05)

    def test_class_scan_takes_one_lock_not_n(self):
        locks = LockManager()
        locks.acquire(1, DATABASE, IS)
        locks.acquire(1, class_resource("Part"), S)
        assert locks.lock_count() == 2


class TestDeadlock:
    def test_two_party_deadlock_detected(self):
        locks = LockManager()
        a, b = object_resource(OID(1)), object_resource(OID(2))
        locks.acquire(1, a, X)
        locks.acquire(2, b, X)
        errors = []

        def t1():
            try:
                locks.acquire(1, b, X, timeout=5)
            except DeadlockError as exc:
                errors.append(exc)
            finally:
                locks.release_all(1)

        thread = threading.Thread(target=t1)
        thread.start()
        time.sleep(0.1)  # let txn 1 block on b
        # txn 2 requesting a closes the cycle -> one side aborts.
        try:
            locks.acquire(2, a, X, timeout=5)
        except DeadlockError as exc:
            errors.append(exc)
        finally:
            locks.release_all(2)
        thread.join(timeout=5)
        assert len(errors) >= 1
        assert locks.metrics.value("locks.deadlocks") >= 1

    def test_self_conflict_is_not_deadlock(self):
        locks = LockManager()
        resource = object_resource(OID(1))
        locks.acquire(1, resource, S)
        locks.acquire(1, resource, X)  # upgrade, no other holders
        assert locks.holds(1, resource, X)
