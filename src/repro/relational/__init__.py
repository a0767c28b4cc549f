"""Relational baseline engine (tables, selections, joins)."""

from .engine import RelationalEngine
from .table import Column, Table

__all__ = ["RelationalEngine", "Column", "Table"]
