"""Class-hierarchy indexes [KIM89b, MAIE86b].

"Since the indexed attribute is common to all classes in the class
hierarchy rooted at the user-specified target class, it makes sense to
maintain one index on the attribute for all the classes in the class
hierarchy rooted at the target class."

One B+-tree holds entries for the rooted class *and every subclass*; each
entry is tagged with its class, so a probe against any sub-scope of the
hierarchy filters the entry lists instead of consulting several trees.
The index tracks schema changes: defining a new subclass under the rooted
class automatically widens the maintained set.
"""

from __future__ import annotations

from typing import List, Sequence, Set

from ..core.obj import ObjectState
from ..core.schema import Schema
from ..errors import SchemaError
from .base import Index, attribute_keys


class ClassHierarchyIndex(Index):
    """Index over a class and all its (current and future) subclasses."""

    kind = "class-hierarchy"

    def __init__(self, name: str, schema: Schema, rooted_class: str, attribute: str, order: int = 64) -> None:
        if not schema.has_attribute(rooted_class, attribute):
            raise SchemaError(
                "class %s has no attribute %r to index" % (rooted_class, attribute)
            )
        super().__init__(name, schema, rooted_class, (attribute,), order=order)

    @property
    def attribute(self) -> str:
        return self.path[0]

    def maintained_classes(self) -> List[str]:
        return self.schema.hierarchy_of(self.target_class)

    def covers(self, target_class: str, path: Sequence[str], scope: Set[str]) -> bool:
        if tuple(path) != self.path:
            return False
        maintained = set(self.maintained_classes())
        return target_class in maintained and scope <= maintained

    def _maintains(self, class_name: str) -> bool:
        return self.schema.is_subclass(class_name, self.target_class)

    def on_insert(self, state: ObjectState) -> None:
        if not self._maintains(state.class_name):
            return
        for key in attribute_keys(state, self.attribute):
            self.tree.insert(key, state.class_name, state.oid)
            self._m_inserts.inc()

    def on_delete(self, state: ObjectState) -> None:
        if not self._maintains(state.class_name):
            return
        for key in attribute_keys(state, self.attribute):
            self.tree.remove(key, state.class_name, state.oid)
            self._m_removes.inc()

    def on_update(self, old: ObjectState, new: ObjectState) -> None:
        if (
            old.values.get(self.attribute) == new.values.get(self.attribute)
            and old.class_name == new.class_name
        ):
            return
        self.on_delete(old)
        self.on_insert(new)

    def per_class_counts(self) -> dict:
        """Entry counts per class — the 'key directory' view of [KIM89b]."""
        counts: dict = {}
        for _key, (cls, _oid) in self.tree.iter_entries():
            counts[cls] = counts.get(cls, 0) + 1
        return counts
