"""Index manager: registry, maintenance dispatch, and index selection.

The database calls the manager's ``notify_*`` hooks on every object
mutation; the manager fans the change out to affected indexes.  The query
planner calls :meth:`find_index` with a predicate's path and evaluation
scope; the manager returns the cheapest structure that *covers* the
probe, preferring an exact nested index over a class-hierarchy index over
a single-class index.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.obj import ObjectState
from ..core.oid import OID
from ..core.schema import Schema
from ..errors import SchemaError
from ..obs.metrics import MetricsRegistry
from .base import Index
from .class_hierarchy import ClassHierarchyIndex
from .nested import Deref, NestedAttributeIndex
from .single_class import SingleClassIndex

#: Provides all direct instances of a class for index builds.
ScanClass = Callable[[str], Iterable[ObjectState]]


class IndexManager:
    """Owns all secondary indexes of one database."""

    def __init__(
        self,
        schema: Schema,
        scan_class: ScanClass,
        deref: Deref,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.schema = schema
        self._scan_class = scan_class
        self._deref = deref
        self._indexes: Dict[str, Index] = {}
        self._registry = registry
        #: Monotonic index-set epoch: bumped whenever an index is created
        #: or dropped.  Cached plans capture the epoch they were built
        #: under; a mismatch invalidates them (a plan probing a dropped
        #: index, or missing a new one, must be replanned).
        self.epoch = 0

    # -- registry ------------------------------------------------------------

    def names(self) -> List[str]:
        return sorted(self._indexes)

    def get(self, name: str) -> Index:
        try:
            return self._indexes[name]
        except KeyError:
            raise SchemaError("no index named %r" % (name,)) from None

    def all_indexes(self) -> List[Index]:
        return [self._indexes[name] for name in sorted(self._indexes)]

    def drop_index(self, name: str) -> None:
        if name not in self._indexes:
            raise SchemaError("no index named %r" % (name,))
        self._indexes.pop(name).unbind_metrics()
        self.epoch += 1

    def _register(self, index: Index) -> Index:
        if index.name in self._indexes:
            raise SchemaError("index %r already exists" % (index.name,))
        if self._registry is not None:
            index.bind_metrics(self._registry)
        self._indexes[index.name] = index
        self.epoch += 1
        self._build(index)
        return index

    def _build(self, index: Index) -> None:
        index.clear()
        for class_name in index.maintained_classes():
            for state in self._scan_class(class_name):
                index.on_insert(state)

    def rebuild(self, name: str) -> None:
        """Rebuild one index from stored data (after heavy churn)."""
        self._build(self.get(name))

    # -- creation -----------------------------------------------------------

    def create_class_index(
        self, class_name: str, attribute: str, name: Optional[str] = None, order: int = 64
    ) -> SingleClassIndex:
        """Relational-style index over one class's direct instances."""
        index_name = name or "sc_%s_%s" % (class_name, attribute)
        return self._register(
            SingleClassIndex(index_name, self.schema, class_name, attribute, order=order)
        )  # type: ignore[return-value]

    def create_hierarchy_index(
        self, rooted_class: str, attribute: str, name: Optional[str] = None, order: int = 64
    ) -> ClassHierarchyIndex:
        """One index over a class and all its subclasses [KIM89b]."""
        index_name = name or "ch_%s_%s" % (rooted_class, attribute)
        return self._register(
            ClassHierarchyIndex(index_name, self.schema, rooted_class, attribute, order=order)
        )  # type: ignore[return-value]

    def create_nested_index(
        self,
        target_class: str,
        path: Sequence[str],
        name: Optional[str] = None,
        order: int = 64,
    ) -> NestedAttributeIndex:
        """Path index along the aggregation hierarchy [BERT89]."""
        index_name = name or "nx_%s_%s" % (target_class, "_".join(path))
        return self._register(
            NestedAttributeIndex(
                index_name, self.schema, target_class, path, self._deref, order=order
            )
        )  # type: ignore[return-value]

    # -- maintenance dispatch ---------------------------------------------------

    def notify_insert(self, state: ObjectState) -> None:
        for index in self._indexes.values():
            index.on_insert(state)

    def notify_delete(self, state: ObjectState) -> None:
        for index in self._indexes.values():
            index.on_delete(state)

    def notify_update(self, old: ObjectState, new: ObjectState) -> None:
        for index in self._indexes.values():
            index.on_update(old, new)

    # -- selection ------------------------------------------------------------

    _KIND_PREFERENCE = {"nested-attribute": 0, "class-hierarchy": 1, "single-class": 2}

    def find_index(
        self, target_class: str, path: Sequence[str], scope: Set[str]
    ) -> Optional[Index]:
        """Best index covering a probe on ``path`` over ``scope`` classes.

        Preference: nested (answers the whole path at once), then
        class-hierarchy, then single-class; ties broken by name for
        determinism.
        """
        candidates: List[Tuple[int, str, Index]] = []
        for index in self._indexes.values():
            if index.covers(target_class, path, scope):
                rank = self._KIND_PREFERENCE.get(index.kind, 99)
                candidates.append((rank, index.name, index))
        if not candidates:
            return None
        candidates.sort(key=lambda item: (item[0], item[1]))
        return candidates[0][2]

    def indexes_on(self, class_name: str) -> List[Index]:
        """Indexes whose maintained set includes ``class_name``."""
        return [
            index
            for index in self.all_indexes()
            if class_name in index.maintained_classes()
        ]

    def describe(self) -> List[Dict[str, object]]:
        """Catalog view for tools and tests."""
        return [
            {
                "name": index.name,
                "kind": index.kind,
                "class": index.target_class,
                "path": ".".join(index.path),
                "entries": len(index),
            }
            for index in self.all_indexes()
        ]
