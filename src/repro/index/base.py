"""Shared machinery for kimdb secondary indexes.

The paper's Section 3.2 derives two OODB-specific index kinds from the
two hierarchies of the data model: *class-hierarchy indexes* along the
generalization hierarchy and *nested-attribute indexes* along the
aggregation hierarchy.  All kinds share the B+-tree substrate and a
common probe/maintenance interface defined here.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.obj import ObjectState
from ..core.oid import OID
from ..core.schema import Schema
from ..obs.metrics import MetricsRegistry
from .btree import BTree


class Index:
    """Base class for secondary indexes.

    Subclasses define which classes they *maintain* entries for
    (``maintained_classes``) and which query scopes they can *answer*
    (:meth:`covers`).  Probes return OIDs sorted for determinism.
    """

    kind = "abstract"

    def __init__(
        self,
        name: str,
        schema: Schema,
        target_class: str,
        path: Sequence[str],
        order: int = 64,
    ) -> None:
        self.name = name
        self.schema = schema
        self.target_class = target_class
        self.path: Tuple[str, ...] = tuple(path)
        self.tree = BTree(order=order)
        #: Probe/maintenance counters, ``index.<name>.*``.  A standalone
        #: index counts into a private registry until :meth:`bind_metrics`.
        self.bind_metrics(MetricsRegistry())

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        """Re-home this index's counters into a shared registry.

        Called by the index manager at registration time, before the
        initial build, so all of a database's indexes report into the
        database-wide registry under ``index.<name>.*``.
        """
        prefix = "index.%s." % self.name
        self.metrics = registry
        self._m_probes = registry.counter(prefix + "probes")
        self._m_inserts = registry.counter(prefix + "inserts")
        self._m_removes = registry.counter(prefix + "removes")
        self._m_recomputes = registry.counter(prefix + "recomputes")

    def unbind_metrics(self) -> None:
        """Take this index's counters out of its registry (on drop), so
        a later index of the same name starts from zero."""
        for counter in (
            self._m_probes, self._m_inserts, self._m_removes, self._m_recomputes
        ):
            self.metrics.remove(counter.name)

    # -- coverage ------------------------------------------------------------

    def maintained_classes(self) -> List[str]:
        """Classes whose instances feed this index."""
        raise NotImplementedError

    def covers(self, target_class: str, path: Sequence[str], scope: Set[str]) -> bool:
        """Can this index answer a predicate on ``path`` over ``scope``?"""
        raise NotImplementedError

    # -- probes ---------------------------------------------------------------

    def _filter(self, entries: Iterable[Tuple[str, OID]], scope: Optional[Set[str]]) -> List[OID]:
        if scope is None:
            return [oid for _cls, oid in entries]
        return [oid for cls, oid in entries if cls in scope]

    def lookup_eq(self, value: Any, scope: Optional[Set[str]] = None) -> List[OID]:
        self._m_probes.inc()
        return sorted(self._filter(self.tree.search(value), scope))

    def lookup_range(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
        scope: Optional[Set[str]] = None,
    ) -> List[OID]:
        self._m_probes.inc()
        out: List[OID] = []
        for _key, entries in self.tree.range(low, high, include_low, include_high):
            out.extend(self._filter(entries, scope))
        return sorted(set(out))

    def lookup_in(self, values: Iterable[Any], scope: Optional[Set[str]] = None) -> List[OID]:
        self._m_probes.inc()
        out: List[OID] = []
        for value in values:
            out.extend(self._filter(self.tree.search(value), scope))
        return sorted(set(out))

    # -- maintenance ---------------------------------------------------------

    def on_insert(self, state: ObjectState) -> None:
        raise NotImplementedError

    def on_delete(self, state: ObjectState) -> None:
        raise NotImplementedError

    def on_update(self, old: ObjectState, new: ObjectState) -> None:
        raise NotImplementedError

    def clear(self) -> None:
        self.tree.clear()

    def __len__(self) -> int:
        return len(self.tree)

    def __repr__(self) -> str:
        return "<%s %s on %s.%s (%d entries)>" % (
            type(self).__name__,
            self.name,
            self.target_class,
            ".".join(self.path),
            len(self.tree),
        )


def attribute_keys(state: ObjectState, attr_name: str) -> List[Any]:
    """Index keys contributed by one attribute of one object.

    A single-valued attribute contributes its value (including None so
    ``is null`` style probes work); a set-valued attribute contributes
    each element, and an empty set contributes nothing.
    """
    value = state.values.get(attr_name)
    if isinstance(value, list):
        return list(value)
    return [value]
