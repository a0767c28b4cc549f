"""The object workspace: a virtual-memory object cache over a database.

"Object-oriented database systems which manage memory-resident objects
extend the capabilities of database systems to the virtual-memory
workspace for the applications" (Section 3.3).  The workspace loads
objects once, swizzles their references, serves repeated traversals from
memory, and writes dirty objects back through the database at flush so
queries, indexing and recovery remain correct.

Swizzling policies (the E5 ablation):

* ``"lazy"``  — references become :class:`~repro.workspace.swizzle.Fault`
  descriptors; the referenced object loads on first traversal (LOOM).
* ``"eager"`` — loading an object immediately loads the objects it
  references (one level; the closure materializes as a traversal runs).
* ``"none"``  — references stay OIDs and every traversal goes back
  through the database layer (the unswizzled baseline).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set

from ..core.oid import OID
from ..errors import KimDBError
from ..obs.metrics import MetricsRegistry
from .swizzle import Fault, MemoryObject

if TYPE_CHECKING:  # pragma: no cover
    from ..database import Database

_POLICIES = ("lazy", "eager", "none")


class WorkspaceStats:
    """Read-only ``hits``/``faults``/``loads`` over ``workspace.metrics``.

    Kept because ``perfbench/kb/oo1.py`` reads these three; everything
    else reads ``workspace.metrics.value("workspace.hits")`` and friends.
    """

    __slots__ = ("_metrics",)

    def __init__(self, metrics: MetricsRegistry) -> None:
        self._metrics = metrics

    @property
    def hits(self) -> int:
        return self._metrics.value("workspace.hits")

    @property
    def faults(self) -> int:
        return self._metrics.value("workspace.faults")

    @property
    def loads(self) -> int:
        return self._metrics.value("workspace.loads")


class ObjectWorkspace:
    """An application's private cache of memory-resident objects."""

    def __init__(self, db: "Database", policy: str = "lazy") -> None:
        if policy not in _POLICIES:
            raise KimDBError(
                "unknown swizzling policy %r (expected one of %s)"
                % (policy, ", ".join(_POLICIES))
            )
        self.db = db
        self.policy = policy
        self._resident: Dict[OID, MemoryObject] = {}
        #: Swizzle-cache counters, ``workspace.*``.  Each workspace owns a
        #: private registry: workspaces are per-application caches, and
        #: the E5 ablation compares several of them over one database, so
        #: their counts must not mix in the database-wide registry.
        self.metrics = MetricsRegistry()
        self._m_loads = self.metrics.counter("workspace.loads")
        self._m_hits = self.metrics.counter("workspace.hits")
        self._m_faults = self.metrics.counter("workspace.faults")
        self._m_writebacks = self.metrics.counter("workspace.writebacks")
        self.metrics.derived("workspace.hit_rate", self._hit_rate)
        self.stats = WorkspaceStats(self.metrics)

    def _hit_rate(self) -> float:
        hits = self._m_hits.value
        total = hits + self._m_faults.value
        return hits / total if total else 0.0

    # -- loading ------------------------------------------------------------

    def __contains__(self, oid: OID) -> bool:
        return oid in self._resident

    def __len__(self) -> int:
        return len(self._resident)

    def load(self, oid: OID) -> MemoryObject:
        """Fetch an object into the workspace (cache hit if resident).

        Under the eager policy, loading pulls the referenced objects in
        iteratively (breadth-first), so arbitrarily deep reference chains
        never hit the interpreter's recursion limit.
        """
        resident = self._resident.get(oid)
        if resident is not None:
            self._m_hits.inc()
            return resident
        memory_object = self._admit(oid)
        if self.policy == "eager":
            queue = [memory_object]
            while queue:
                for referenced in queue.pop()._pending_refs():
                    if referenced not in self._resident and self.db.exists(referenced):
                        queue.append(self._admit(referenced))
        return memory_object

    def _admit(self, oid: OID) -> MemoryObject:
        self._m_faults.inc()
        state = self.db.get_state(oid)
        self._m_loads.inc()
        memory_object = MemoryObject(state.oid, state.class_name, dict(state.values), self)
        self._resident[oid] = memory_object
        if self.policy != "none":
            self._swizzle(memory_object)
        return memory_object

    def load_many(self, oids: Iterable[OID]) -> List[MemoryObject]:
        return [self.load(oid) for oid in oids]

    def _swizzle(self, memory_object: MemoryObject) -> None:
        """Convert embedded OIDs to pointers/descriptors."""
        for name, value in list(memory_object.values.items()):
            if isinstance(value, OID):
                memory_object.values[name] = self._pointer_for(value)
            elif isinstance(value, list):
                memory_object.values[name] = [
                    self._pointer_for(element) if isinstance(element, OID) else element
                    for element in value
                ]

    def _pointer_for(self, oid: OID):
        resident = self._resident.get(oid)
        if resident is not None:
            return resident
        return Fault(oid, self)

    # -- traversal helpers -----------------------------------------------------

    def closure(
        self,
        roots: Iterable[OID],
        attributes: Iterable[str],
        max_depth: Optional[int] = None,
    ) -> List[MemoryObject]:
        """Transitive closure through the named reference attributes.

        The CAx access pattern of the paper: "traverse a large collection
        of objects, recursively from one object to other objects related
        to it."  Returns objects in first-visit order.
        """
        attribute_list = list(attributes)
        visited: Set[OID] = set()
        order: List[MemoryObject] = []
        frontier = [(self.load(oid), 0) for oid in roots]
        while frontier:
            memory_object, depth = frontier.pop()
            if memory_object.oid in visited:
                continue
            visited.add(memory_object.oid)
            order.append(memory_object)
            if max_depth is not None and depth >= max_depth:
                continue
            for attr in attribute_list:
                for neighbour in memory_object.refs(attr):
                    if neighbour.oid not in visited:
                        frontier.append((neighbour, depth + 1))
        return order

    # -- write-back --------------------------------------------------------------

    def dirty_objects(self) -> List[MemoryObject]:
        return [obj for obj in self._resident.values() if obj.dirty]

    def flush(self) -> int:
        """Write all dirty objects back through the database.

        Runs in one transaction so a workspace flush is atomic.  Returns
        the number of objects written.
        """
        dirty = self.dirty_objects()
        if not dirty:
            return 0
        with self.db._auto_txn():
            for memory_object in dirty:
                self.db.update(memory_object.oid, memory_object.to_state_values())
                memory_object.dirty = False
                self._m_writebacks.inc()
        return len(dirty)

    def evict(self, oid: OID) -> None:
        """Drop one object (must not be dirty)."""
        memory_object = self._resident.get(oid)
        if memory_object is None:
            return
        if memory_object.dirty:
            raise KimDBError("cannot evict dirty object %r; flush first" % (oid,))
        del self._resident[oid]

    def clear(self) -> None:
        """Drop everything (dirty objects lose their local edits)."""
        self._resident.clear()

    def __repr__(self) -> str:
        return "<ObjectWorkspace %s: %d resident, %d dirty>" % (
            self.policy,
            len(self._resident),
            len(self.dirty_objects()),
        )
