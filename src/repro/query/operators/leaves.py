"""Leaf operators: where rows enter the pipeline.

``ExtentScanOp`` walks class extents, ``IndexProbeOp`` produces the
candidate OIDs of one index probe (eq/in/range/ADT), ``IndexOrderScanOp``
walks a B+-tree in key order (ORDER BY without a sort — the LIMIT above
it stops the walk early), and ``VirtualScanOp`` wraps a federation
adapter's ``scan`` so multidatabase queries run through the same
pipeline.
"""

from __future__ import annotations

import bisect
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ...core.obj import ObjectState
from ...core.oid import OID
from ...index.btree import normalize_key
from .base import PhysicalOperator

ScanClass = Callable[[str], Iterable[ObjectState]]

#: A normalized B+-tree key (see :func:`normalize_key`).
Key = Tuple[int, Any]

#: The tree key of a missing value (sorts before every present key).
_NONE_KEY = normalize_key(None)


class ExtentScanOp(PhysicalOperator):
    """Yield every direct instance of the scanned classes, in heap order."""

    name = "extent-scan"

    def __init__(self, scan_class: ScanClass, classes: Sequence[str]) -> None:
        super().__init__()
        self._scan_class = scan_class
        self.classes = tuple(classes)
        self.detail = "scan(%s)" % ", ".join(self.classes)
        self._iter: Optional[Iterator[ObjectState]] = None

    def _on_open(self) -> None:
        self._iter = self._states()

    def _states(self) -> Iterator[ObjectState]:
        for class_name in self.classes:
            for state in self._scan_class(class_name):
                yield state

    def _next(self) -> Optional[ObjectState]:
        if self._iter is None:
            return None
        return next(self._iter, None)

    def _on_close(self) -> None:
        self._iter = None


class EmptyScanOp(PhysicalOperator):
    """Produce nothing: the rewrite pass proved no object can match.

    The short-circuit leaf for provably-contradictory predicates — it
    never touches storage, probes no index and dereferences nothing, so
    a contradictory query's execution cost is exactly zero rows.
    """

    name = "empty-scan"

    def __init__(self, classes: Sequence[str], reason: str = "") -> None:
        super().__init__()
        self.classes = tuple(classes)
        self.reason = reason
        self.detail = "empty(%s)" % ", ".join(self.classes)

    def _next(self) -> None:
        return None


class IndexProbeOp(PhysicalOperator):
    """One index probe; yields the candidate OIDs it returned.

    ``fetch`` runs the probe at ``open()`` (a B+-tree probe is a single
    bulk lookup, not an incremental walk); ``probes`` counts runs.
    """

    def __init__(self, kind: str, fetch: Callable[[], Sequence[OID]], detail: str = "") -> None:
        super().__init__()
        self.kind = kind
        self.name = "adt-index-probe" if kind == "adt" else "index-%s-probe" % kind
        self.detail = detail
        self._fetch = fetch
        self.probes = 0
        self._iter: Optional[Iterator[OID]] = None

    def _on_open(self) -> None:
        self.probes += 1
        self._iter = iter(self._fetch())

    def _next(self) -> Optional[OID]:
        if self._iter is None:
            return None
        return next(self._iter, None)

    def _on_close(self) -> None:
        self._iter = None


class IndexOrderScanOp(PhysicalOperator):
    """Walk an index's B+-tree in key order, yielding in-scope OIDs.

    Produces exactly the executor's ORDER BY order for a direct
    single-valued attribute: key order, ties by OID, and objects with a
    None key — the index's representation of a missing value — deferred
    to the end regardless of direction.  Because rows are pulled lazily,
    a LIMIT above this leaf ends the walk after k matches: the
    early-termination path a sort can never offer.  The walk itself is
    an :class:`_OrderedWalk`.
    """

    name = "index-order-scan"

    def __init__(
        self, index, scope: Set[str], descending: bool = False, versions=None
    ) -> None:
        super().__init__()
        self.index = index
        self.scope = set(scope)
        self.descending = descending
        self.versions = versions
        self.detail = "%s%s" % (index.name, " desc" if descending else "")
        self.probes = 0
        self._walk: Optional[_OrderedWalk] = None

    def _on_open(self) -> None:
        self.probes += 1
        self._walk = _OrderedWalk(self.index, self.scope, self.descending, self.versions)

    def _next(self) -> Optional[OID]:
        if self._walk is None:
            return None
        return self._walk.next()

    def _on_close(self) -> None:
        self._walk = None


class _OrderedWalk:
    """One ordered index walk, exact under an MVCC snapshot while open.

    Each step resumes past the last key read (:meth:`BTree.next_group`),
    so tree splits between pulls cannot make the walk skip or repeat.

    Under a snapshot (``versions``) an object the snapshot sees
    differently from its current state — one in ``versions.changed`` —
    is *deferred*: skipped in the tree walk and queued under its
    snapshot key, from where it merges back in (key, OID) order.  Each
    key group read off the tree is checked against the version store's
    generation; if that moved since the changed set was last read, the
    set is read again, so commits between pulls are caught — an object
    that moved behind the cursor is still yielded at its snapshot key,
    and one already yielded is not yielded again — and each OID of the
    group is checked against its snapshot key, since a writer may have
    moved it and aborted without ever showing in the changed set.
    """

    def __init__(self, index, scope: Set[str], descending: bool, versions) -> None:
        self.tree = index.tree
        self.attribute = index.path[0]
        self.scope = scope
        self.descending = descending
        self.versions = versions
        #: The last tree key read; ascending walks start past the None key.
        self._cursor: Optional[Key] = None if descending else _NONE_KEY
        self._tree_done = False
        self._group_key: Key = _NONE_KEY
        #: In-scope OIDs of the current key group, next one last.
        self._group: List[OID] = []
        #: Deferred OIDs queued under their snapshot key, ascending.
        self._pending: List[Tuple[Key, OID]] = []
        self._pending_none: Set[OID] = set()
        #: Every OID ever deferred: never taken from the tree again.
        self._deferred: Set[OID] = set()
        self._yielded: Set[OID] = set()
        #: The None-key tail, next one last; built when the keys run out.
        self._tail: Optional[List[OID]] = None
        self._generation: Optional[int] = None
        self._refresh()

    def next(self) -> Optional[OID]:
        while True:
            oid = self._candidate()
            if oid is None or oid not in self._yielded:
                break
        if oid is not None:
            self._yielded.add(oid)
        return oid

    def _candidate(self) -> Optional[OID]:
        """The next OID in walk order (possibly one already yielded)."""
        while not self._group and not self._tree_done:
            self._read_group()
        head = (self._group_key, self._group[-1]) if self._group else None
        if self._pending:
            queued = self._pending[-1] if self.descending else self._pending[0]
            if head is None or (queued > head if self.descending else queued < head):
                return self._pending.pop(-1 if self.descending else 0)[1]
        if head is not None:
            return self._group.pop()
        if self._tail is None:
            self._tail = sorted(
                self._pending_none.union(self._read_oids(_NONE_KEY, self.tree.search(None))),
                reverse=not self.descending,
            )
        return self._tail.pop() if self._tail else None

    def _read_group(self) -> None:
        found = self.tree.next_group(self._cursor, self.descending)
        if found is None or found[0] == _NONE_KEY:
            self._tree_done = True
            return
        self._cursor = self._group_key = found[0]
        self._group = sorted(self._read_oids(*found), reverse=not self.descending)

    def _read_oids(self, key: Key, entries: List[Tuple[str, OID]]) -> List[OID]:
        """The in-scope, undeferred OIDs of one key group just read."""
        generation = self._generation
        oids = [oid for cls, oid in entries if cls in self.scope]
        if self.versions is not None and self.versions.generation() != generation:
            self._refresh()
            for oid in oids:
                if oid not in self._deferred:
                    snapshot_key = self._snapshot_key(oid)
                    if snapshot_key != key:
                        self._defer(oid, snapshot_key)
        return [oid for oid in oids if oid not in self._deferred]

    def _refresh(self) -> None:
        """Defer every OID the snapshot newly sees as changed."""
        if self.versions is None:
            return
        generation = self.versions.generation()
        if generation == self._generation:
            return
        self._generation = generation
        for oid in self.versions.changed(self.scope) - self._deferred:
            self._defer(oid, self._snapshot_key(oid))

    def _snapshot_key(self, oid: OID) -> Optional[Key]:
        """``oid``'s tree key as of the snapshot (None: not in its scope)."""
        state = self.versions.deref(oid)
        if state is None or state.class_name not in self.scope:
            return None
        return normalize_key(state.values.get(self.attribute))

    def _defer(self, oid: OID, snapshot_key: Optional[Key]) -> None:
        self._deferred.add(oid)
        if snapshot_key is None or oid in self._yielded:
            return
        if snapshot_key == _NONE_KEY:
            self._pending_none.add(oid)
        else:
            bisect.insort(self._pending, (snapshot_key, oid))


class VirtualScanOp(PhysicalOperator):
    """Yield the rows of one federated virtual class (adapter scan)."""

    name = "virtual-scan"

    def __init__(self, scan: Callable[[str], Iterator[Any]], class_name: str) -> None:
        super().__init__()
        self._scan = scan
        self.class_name = class_name
        self.detail = class_name
        self._iter: Optional[Iterator[Any]] = None

    def _on_open(self) -> None:
        self._iter = self._scan(self.class_name)

    def _next(self) -> Optional[Any]:
        if self._iter is None:
            return None
        return next(self._iter, None)

    def _on_close(self) -> None:
        self._iter = None
