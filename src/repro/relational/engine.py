"""Relational engine: scans, selections and joins over tables.

Deliberately conventional: the point of this engine is to be the honest
baseline in the paper's comparisons — "if relational database systems are
used to manage objects for such applications, the applications have to
use joins to express the traversal from one object to other objects"
(experiment E4), and the OO1 relational variant (experiment E9).

Join methods: nested-loop (the worst case), index nested-loop (when the
inner column has an index) and hash join; :meth:`RelationalEngine.join`
picks automatically.  ``relational.rows_examined`` (with ``rows_joined``
and ``index_lookups``) counts work for deterministic comparisons.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..errors import KimDBError
from ..obs.metrics import MetricsRegistry
from .table import Column, Table

Row = Dict[str, Any]
Predicate = Callable[[Row], bool]


class RelationalEngine:
    """A catalog of tables plus query operators.

    Pass a :class:`~repro.storage.manager.StorageManager` to put tables
    on paged storage (rows decoded per access through a buffer pool),
    matching the storage costs the OODB side pays; without one, tables
    are idealized in-memory dicts.
    """

    def __init__(self, storage=None) -> None:
        self._tables: Dict[str, Table] = {}
        self.storage = storage
        #: Work counters, ``relational.*`` in a private registry.
        self.metrics = MetricsRegistry()
        self._m_rows_examined = self.metrics.counter("relational.rows_examined")
        self._m_rows_joined = self.metrics.counter("relational.rows_joined")
        self._m_index_lookups = self.metrics.counter("relational.index_lookups")

    # -- DDL ------------------------------------------------------------------

    def create_table(
        self,
        name: str,
        columns: Iterable,
        primary_key: Optional[str] = None,
    ) -> Table:
        """Create a table; columns are Column objects or (name, type) pairs."""
        if name in self._tables:
            raise KimDBError("table %r already exists" % (name,))
        column_objects = []
        for column in columns:
            if isinstance(column, Column):
                column_objects.append(column)
            elif isinstance(column, str):
                column_objects.append(Column(column))
            else:
                column_objects.append(Column(*column))
        table = Table(name, column_objects, primary_key, store=self.storage)
        self._tables[name] = table
        return table

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise KimDBError("no table named %r" % (name,))
        del self._tables[name]

    def table(self, name: str) -> Table:
        table = self._tables.get(name)
        if table is None:
            raise KimDBError("no table named %r" % (name,))
        return table

    def table_names(self) -> List[str]:
        return sorted(self._tables)

    # -- DML (thin delegation) ----------------------------------------------------

    def insert(self, table_name: str, row: Row) -> int:
        return self.table(table_name).insert(row)

    def insert_many(self, table_name: str, rows: Iterable[Row]) -> int:
        table = self.table(table_name)
        count = 0
        for row in rows:
            table.insert(row)
            count += 1
        return count

    # -- operators -------------------------------------------------------------------

    def scan(self, table_name: str) -> Iterator[Row]:
        for _row_id, row in self.table(table_name).scan():
            self._m_rows_examined.inc()
            yield row

    def select(self, table_name: str, predicate: Predicate) -> List[Row]:
        return [row for row in self.scan(table_name) if predicate(row)]

    def select_eq(self, table_name: str, column: str, value: Any) -> List[Row]:
        """Equality selection, using an index when one exists."""
        table = self.table(table_name)
        if table.has_index(column):
            self._m_index_lookups.inc()
            return table.index_lookup(column, value)
        if table.primary_key == column:
            self._m_index_lookups.inc()
            row = table.by_primary_key(value)
            return [row] if row is not None else []
        return [row for row in self.scan(table_name) if row.get(column) == value]

    @staticmethod
    def project(rows: Iterable[Row], columns: List[str]) -> List[Row]:
        return [{c: row.get(c) for c in columns} for row in rows]

    # -- joins -------------------------------------------------------------------------

    @staticmethod
    def _merge(left: Row, right: Row, right_prefix: str) -> Row:
        merged = dict(left)
        for key, value in right.items():
            if key in merged:
                merged["%s.%s" % (right_prefix, key)] = value
            else:
                merged[key] = value
        return merged

    def nested_loop_join(
        self,
        left_rows: Iterable[Row],
        left_col: str,
        right_table: str,
        right_col: str,
    ) -> List[Row]:
        """The O(n*m) baseline join."""
        right_all = list(self.scan(right_table))
        out = []
        for left in left_rows:
            self._m_rows_examined.inc()
            for right in right_all:
                self._m_rows_examined.inc()
                if left.get(left_col) == right.get(right_col) and left.get(left_col) is not None:
                    out.append(self._merge(left, right, right_table))
                    self._m_rows_joined.inc()
        return out

    def index_join(
        self,
        left_rows: Iterable[Row],
        left_col: str,
        right_table: str,
        right_col: str,
    ) -> List[Row]:
        """Index nested-loop join: probe the inner index per outer row."""
        table = self.table(right_table)
        use_pk = table.primary_key == right_col
        if not use_pk and not table.has_index(right_col):
            raise KimDBError(
                "index join requires an index on %s.%s" % (right_table, right_col)
            )
        out = []
        for left in left_rows:
            self._m_rows_examined.inc()
            key = left.get(left_col)
            if key is None:
                continue
            self._m_index_lookups.inc()
            if use_pk:
                row = table.by_primary_key(key)
                matches = [row] if row is not None else []
            else:
                matches = table.index_lookup(right_col, key)
            for right in matches:
                out.append(self._merge(left, right, right_table))
                self._m_rows_joined.inc()
        return out

    def hash_join(
        self,
        left_rows: Iterable[Row],
        left_col: str,
        right_table: str,
        right_col: str,
    ) -> List[Row]:
        """Build a hash table on the inner, probe with the outer."""
        buckets: Dict[Any, List[Row]] = {}
        for right in self.scan(right_table):
            buckets.setdefault(right.get(right_col), []).append(right)
        out = []
        for left in left_rows:
            self._m_rows_examined.inc()
            key = left.get(left_col)
            if key is None:
                continue
            for right in buckets.get(key, ()):
                out.append(self._merge(left, right, right_table))
                self._m_rows_joined.inc()
        return out

    def join(
        self,
        left_rows: Iterable[Row],
        left_col: str,
        right_table: str,
        right_col: str,
    ) -> List[Row]:
        """Pick the cheapest available join method (index > hash)."""
        table = self.table(right_table)
        if table.primary_key == right_col or table.has_index(right_col):
            return self.index_join(left_rows, left_col, right_table, right_col)
        return self.hash_join(left_rows, left_col, right_table, right_col)

    def __repr__(self) -> str:
        return "<RelationalEngine %d tables>" % len(self._tables)
