"""Single-class indexes — the relational technique, kept as the baseline.

"In relational database systems, one index is maintained on an attribute
... of one relation.  This technique, if applied directly to an
object-oriented database, will mean that one index is needed for an
attribute of each class."  Experiment E2 compares a forest of these
against one class-hierarchy index.
"""

from __future__ import annotations

from typing import List, Sequence, Set

from ..core.obj import ObjectState
from ..core.schema import Schema
from ..errors import SchemaError
from .base import Index, attribute_keys


class SingleClassIndex(Index):
    """Index over the *direct* instances of exactly one class."""

    kind = "single-class"

    def __init__(self, name: str, schema: Schema, target_class: str, attribute: str, order: int = 64) -> None:
        if not schema.has_attribute(target_class, attribute):
            raise SchemaError(
                "class %s has no attribute %r to index" % (target_class, attribute)
            )
        super().__init__(name, schema, target_class, (attribute,), order=order)

    @property
    def attribute(self) -> str:
        return self.path[0]

    def maintained_classes(self) -> List[str]:
        return [self.target_class]

    def covers(self, target_class: str, path: Sequence[str], scope: Set[str]) -> bool:
        return (
            tuple(path) == self.path
            and scope == {self.target_class}
        )

    def on_insert(self, state: ObjectState) -> None:
        if state.class_name != self.target_class:
            return
        for key in attribute_keys(state, self.attribute):
            self.tree.insert(key, state.class_name, state.oid)
            self._m_inserts.inc()

    def on_delete(self, state: ObjectState) -> None:
        if state.class_name != self.target_class:
            return
        for key in attribute_keys(state, self.attribute):
            self.tree.remove(key, state.class_name, state.oid)
            self._m_removes.inc()

    def on_update(self, old: ObjectState, new: ObjectState) -> None:
        if old.values.get(self.attribute) == new.values.get(self.attribute) and (
            old.class_name == new.class_name
        ):
            return
        self.on_delete(old)
        self.on_insert(new)
