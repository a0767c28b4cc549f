"""Lock manager with class-hierarchy granularity [GARZ88].

The lockable universe is a three-level granularity hierarchy mirroring
the data model::

    database  ->  class  ->  object

with the classic intention modes: a transaction reading one object takes
IS on the database and its class, then S on the object; a class scan
takes a single S at the class level instead of thousands of object locks
(experiment E8 measures exactly that trade).  Conflicts block on a
condition variable; a waits-for graph is checked on every block and the
requester is aborted with :class:`~repro.errors.DeadlockError` when it
would close a cycle.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Hashable, List, Optional, Set, Tuple

from ..errors import DeadlockError, LockTimeoutError, TransactionError
from ..obs.metrics import MetricsRegistry
from ..obs.waits import WaitProfiler

#: Lock modes, weakest to strongest (SIX = shared + intention exclusive).
IS, IX, S, SIX, X = "IS", "IX", "S", "SIX", "X"

_COMPATIBLE = {
    (IS, IS): True, (IS, IX): True, (IS, S): True, (IS, SIX): True, (IS, X): False,
    (IX, IS): True, (IX, IX): True, (IX, S): False, (IX, SIX): False, (IX, X): False,
    (S, IS): True, (S, IX): False, (S, S): True, (S, SIX): False, (S, X): False,
    (SIX, IS): True, (SIX, IX): False, (SIX, S): False, (SIX, SIX): False, (SIX, X): False,
    (X, IS): False, (X, IX): False, (X, S): False, (X, SIX): False, (X, X): False,
}

#: mode -> strictly stronger modes it can upgrade to.
_UPGRADES = {
    IS: (IX, S, SIX, X),
    IX: (SIX, X),
    S: (SIX, X),
    SIX: (X,),
    X: (),
}

_STRENGTH = {IS: 0, IX: 1, S: 2, SIX: 3, X: 4}

#: held mode + requested mode -> the combined mode actually taken
#: (the classic S/IX join: a scanner that also writes holds SIX).
_COMBINE = {(IX, S): SIX, (S, IX): SIX}

#: What privileges a held mode subsumes.
_COVERS = {
    IS: {IS},
    IX: {IS, IX},
    S: {IS, S},
    SIX: {IS, IX, S, SIX},
    X: {IS, IX, S, SIX, X},
}


def _covers(held: str, requested: str) -> bool:
    return requested in _COVERS[held]

Resource = Tuple[str, Hashable]

#: The whole-database resource.
DATABASE: Resource = ("database", None)


def class_resource(class_name: str) -> Resource:
    return ("class", class_name)


def object_resource(oid) -> Resource:
    return ("object", oid)


def resource_label(resource: Resource) -> str:
    """Human/queryable label for a resource: ``class:Vehicle``,
    ``object:123``, ``database``."""
    level, key = resource
    if key is None:
        return level
    return "%s:%s" % (level, key)


def compatible(held: str, requested: str) -> bool:
    return _COMPATIBLE[(held, requested)]


#: Sentinel distinguishing "use the manager's default" from an explicit
#: ``timeout=None`` (wait forever).
_DEFAULT_TIMEOUT = object()


class LockManager:
    """Mode-compatible, deadlock-detecting lock table."""

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        waits: Optional[WaitProfiler] = None,
        default_timeout: Optional[float] = 10.0,
    ) -> None:
        self._mutex = threading.Lock()
        self._condition = threading.Condition(self._mutex)
        #: resource -> {txn_id: mode}
        self._held: Dict[Resource, Dict[int, str]] = {}
        #: txn_id -> resources it holds (for release_all)
        self._by_txn: Dict[int, Set[Resource]] = {}
        #: txn_id -> (resource, mode) it is currently waiting for
        self._waiting: Dict[int, Tuple[Resource, str]] = {}
        #: Lock-table counters live in ``locks.*`` (``locks.waits``
        #: counts blocked acquisitions; the ``locks.wait_seconds``
        #: histogram records how long each one waited before being
        #: granted or giving up).  Without a registry the manager gets a
        #: private one.
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._m_acquisitions = self.metrics.counter("locks.acquisitions")
        self._m_upgrades = self.metrics.counter("locks.upgrades")
        self._m_waits = self.metrics.counter("locks.waits")
        self._m_deadlocks = self.metrics.counter("locks.deadlocks")
        self._m_wait_seconds = self.metrics.histogram("locks.wait_seconds")
        self.waits = waits
        #: Timeout applied when ``acquire`` is called without one.  The
        #: server front end shrinks it so a writer/writer conflict
        #: surfaces to a remote client as a typed error, not a long hang.
        self.default_timeout = default_timeout

    # -- acquisition -----------------------------------------------------------

    def acquire(
        self,
        txn_id: int,
        resource: Resource,
        mode: str,
        timeout: Any = _DEFAULT_TIMEOUT,
    ) -> None:
        """Acquire (or upgrade to) ``mode`` on ``resource`` for ``txn_id``."""
        if mode not in _STRENGTH:
            raise TransactionError("unknown lock mode %r" % (mode,))
        if timeout is _DEFAULT_TIMEOUT:
            timeout = self.default_timeout
        with self._condition:
            deadline = None
            wait_started = None
            first_blocker = None
            while True:
                current = self._held.get(resource, {}).get(txn_id)
                if current is not None:
                    if _covers(current, mode):
                        return  # already strong enough
                    mode = _COMBINE.get((current, mode), mode)
                if self._grantable(txn_id, resource, mode):
                    holders = self._held.setdefault(resource, {})
                    if txn_id in holders:
                        self._m_upgrades.inc()
                    holders[txn_id] = mode
                    self._by_txn.setdefault(txn_id, set()).add(resource)
                    self._waiting.pop(txn_id, None)
                    self._m_acquisitions.inc()
                    self._record_wait(txn_id, resource, wait_started, first_blocker)
                    return
                # Must wait: record the edge, check for deadlock.
                self._waiting[txn_id] = (resource, mode)
                if self._creates_deadlock(txn_id):
                    self._waiting.pop(txn_id, None)
                    self._m_deadlocks.inc()
                    self._record_wait(txn_id, resource, wait_started, first_blocker)
                    raise DeadlockError(
                        "transaction %d aborted: lock on %r would deadlock"
                        % (txn_id, resource)
                    )
                self._m_waits.inc()
                if wait_started is None:
                    wait_started = time.perf_counter()
                    blockers = self._blockers(txn_id, resource, mode)
                    first_blocker = min(blockers) if blockers else None
                if timeout is not None:
                    if deadline is None:
                        deadline = time.perf_counter() + timeout
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0 or not self._condition.wait(remaining):
                        self._waiting.pop(txn_id, None)
                        self._record_wait(txn_id, resource, wait_started, first_blocker)
                        raise LockTimeoutError(
                            "transaction %d timed out waiting for %r %s"
                            % (txn_id, resource, mode)
                        )
                else:
                    self._condition.wait()

    def _record_wait(
        self,
        txn_id: int,
        resource: Resource,
        wait_started: Optional[float],
        blocker: Optional[int],
    ) -> None:
        """Close out a blocked acquisition: histogram + wait event.

        Called with ``_condition`` held; the profiler's own mutex sits
        above it in the declared lattice.  No-op when the acquisition
        was granted immediately (``wait_started`` is None).
        """
        if wait_started is None:
            return
        waited = time.perf_counter() - wait_started
        self._m_wait_seconds.observe(waited)
        if self.waits is not None:
            self.waits.record(
                "Lock",
                waited,
                target=resource_label(resource),
                txn_id=txn_id,
                blocker=blocker,
            )

    def _blockers(self, txn_id: int, resource: Resource, mode: str) -> Set[int]:
        """Holders whose mode is incompatible with the request.

        Caller holds ``_condition``.
        """
        return {
            holder
            for holder, held_mode in self._held.get(resource, {}).items()
            if holder != txn_id and not compatible(held_mode, mode)
        }

    def _grantable(self, txn_id: int, resource: Resource, mode: str) -> bool:
        holders = self._held.get(resource, {})
        for other_txn, other_mode in holders.items():
            if other_txn == txn_id:
                continue
            if not compatible(other_mode, mode):
                return False
        current = holders.get(txn_id)
        if current is not None and mode not in _UPGRADES[current] and (
            _STRENGTH[mode] > _STRENGTH[current]
        ):
            # e.g. IX -> S is not a legal single-step upgrade; take X.
            return False
        return True

    # -- deadlock detection (waits-for cycle through held locks) ------------

    def _creates_deadlock(self, start_txn: int) -> bool:
        def blockers_of(txn: int) -> Set[int]:
            waiting_for = self._waiting.get(txn)
            if waiting_for is None:
                return set()
            resource, mode = waiting_for
            return self._blockers(txn, resource, mode)

        visited: Set[int] = set()
        stack = list(blockers_of(start_txn))
        while stack:
            txn = stack.pop()
            if txn == start_txn:
                return True
            if txn in visited:
                continue
            visited.add(txn)
            stack.extend(blockers_of(txn))
        return False

    # -- release ----------------------------------------------------------------

    def transfer(self, from_owner: int, to_owner: int) -> int:
        """Move all locks from one owner to another (checkin handover).

        A persistent workspace lock becomes the checkin transaction's
        lock so the write path does not conflict with the workspace's own
        holdings.  If the receiving owner already holds a resource, the
        stronger mode wins.  Returns the number of locks moved.
        """
        with self._condition:
            moved = 0
            for resource in list(self._by_txn.get(from_owner, ())):
                holders = self._held.get(resource, {})
                mode = holders.pop(from_owner, None)
                if mode is None:
                    continue
                current = holders.get(to_owner)
                if current is None or _STRENGTH[mode] > _STRENGTH[current]:
                    holders[to_owner] = mode
                self._by_txn.setdefault(to_owner, set()).add(resource)
                moved += 1
            self._by_txn.pop(from_owner, None)
            self._waiting.pop(from_owner, None)
            self._condition.notify_all()
            return moved

    def release_all(self, txn_id: int) -> None:
        with self._condition:
            for resource in self._by_txn.pop(txn_id, set()):
                holders = self._held.get(resource)
                if holders is not None:
                    holders.pop(txn_id, None)
                    if not holders:
                        del self._held[resource]
            self._waiting.pop(txn_id, None)
            self._condition.notify_all()

    # -- introspection -------------------------------------------------------------

    def holds(self, txn_id: int, resource: Resource, mode: Optional[str] = None) -> bool:
        with self._mutex:
            held = self._held.get(resource, {}).get(txn_id)
            if held is None:
                return False
            return mode is None or _covers(held, mode)

    def locks_held(self, txn_id: int) -> List[Tuple[Resource, str]]:
        with self._mutex:
            return sorted(
                (
                    (resource, self._held[resource][txn_id])
                    for resource in self._by_txn.get(txn_id, set())
                ),
                key=lambda item: repr(item[0]),
            )

    def lock_count(self) -> int:
        with self._mutex:
            return sum(len(holders) for holders in self._held.values())

    def waiting_edges(self) -> List[Dict[str, Any]]:
        """Live waits-for edges: one row per (waiter, blocker) pair.

        The edge set the deadlock detector walks, exposed for the
        ``SysLock``/``SysTransaction`` views and the monitor.
        """
        with self._mutex:
            edges = []
            for waiter, (resource, mode) in sorted(self._waiting.items()):
                for blocker in sorted(self._blockers(waiter, resource, mode)):
                    edges.append(
                        {
                            "waiter": waiter,
                            "blocker": blocker,
                            "resource": resource_label(resource),
                            "mode": mode,
                        }
                    )
            return edges

    def held_snapshot(self) -> List[Dict[str, Any]]:
        """Every lock-table entry: granted holds plus pending requests."""
        with self._mutex:
            rows = []
            for resource in sorted(self._held, key=resource_label):
                for txn_id, mode in sorted(self._held[resource].items()):
                    rows.append(
                        {
                            "resource": resource_label(resource),
                            "txn": txn_id,
                            "mode": mode,
                            "granted": True,
                        }
                    )
            for waiter, (resource, mode) in sorted(self._waiting.items()):
                rows.append(
                    {
                        "resource": resource_label(resource),
                        "txn": waiter,
                        "mode": mode,
                        "granted": False,
                    }
                )
            return rows
