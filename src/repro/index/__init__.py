"""Secondary indexing: B+-tree, single-class, class-hierarchy, nested."""

from .base import Index, attribute_keys
from .btree import BTree, normalize_key
from .class_hierarchy import ClassHierarchyIndex
from .manager import IndexManager
from .nested import NestedAttributeIndex
from .single_class import SingleClassIndex

__all__ = [
    "Index",
    "attribute_keys",
    "BTree",
    "normalize_key",
    "ClassHierarchyIndex",
    "IndexManager",
    "NestedAttributeIndex",
    "SingleClassIndex",
]
