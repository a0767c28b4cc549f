"""Relational baseline: tables, constraints, joins."""

import pytest

from repro.errors import KimDBError
from repro.relational import Column, RelationalEngine


@pytest.fixture
def engine():
    engine = RelationalEngine()
    engine.create_table(
        "dept",
        [("dept_id", "int"), ("name", "str")],
        primary_key="dept_id",
    )
    engine.create_table(
        "emp",
        [("emp_id", "int"), ("name", "str"), ("dept_id", "int"), ("salary", "int")],
        primary_key="emp_id",
    )
    for dept_id, name in [(1, "eng"), (2, "sales")]:
        engine.insert("dept", {"dept_id": dept_id, "name": name})
    for emp_id, name, dept_id, salary in [
        (1, "alice", 1, 100),
        (2, "bob", 1, 90),
        (3, "carol", 2, 80),
    ]:
        engine.insert(
            "emp",
            {"emp_id": emp_id, "name": name, "dept_id": dept_id, "salary": salary},
        )
    return engine


class TestTables:
    def test_typed_columns_enforced(self, engine):
        with pytest.raises(KimDBError):
            engine.insert("emp", {"emp_id": 9, "name": 5, "dept_id": 1, "salary": 1})

    def test_not_null(self):
        engine = RelationalEngine()
        engine.create_table("t", [Column("a", "int", nullable=False)])
        with pytest.raises(KimDBError):
            engine.insert("t", {"a": None})

    def test_primary_key_uniqueness(self, engine):
        with pytest.raises(KimDBError):
            engine.insert("dept", {"dept_id": 1, "name": "dup"})

    def test_unknown_column_rejected(self, engine):
        with pytest.raises(KimDBError):
            engine.insert("dept", {"dept_id": 9, "ghost": 1})

    def test_update_row(self, engine):
        table = engine.table("emp")
        row_id = next(rid for rid, row in table.scan() if row["name"] == "alice")
        table.update(row_id, {"salary": 120})
        assert table.get(row_id)["salary"] == 120

    def test_update_pk_collision_rejected(self, engine):
        table = engine.table("emp")
        row_id = next(rid for rid, _row in table.scan())
        with pytest.raises(KimDBError):
            table.update(row_id, {"emp_id": 2})

    def test_delete_row(self, engine):
        table = engine.table("emp")
        row_id = next(rid for rid, _row in table.scan())
        table.delete(row_id)
        assert len(table) == 2

    def test_duplicate_table_rejected(self, engine):
        with pytest.raises(KimDBError):
            engine.create_table("emp", [("x", "int")])

    def test_pk_lookup(self, engine):
        assert engine.table("emp").by_primary_key(2)["name"] == "bob"
        assert engine.table("emp").by_primary_key(99) is None

    def test_secondary_index_maintained(self, engine):
        table = engine.table("emp")
        table.create_index("salary")
        assert [r["name"] for r in table.index_lookup("salary", 90)] == ["bob"]
        row_id = next(rid for rid, row in table.scan() if row["name"] == "bob")
        table.update(row_id, {"salary": 95})
        assert table.index_lookup("salary", 90) == []
        assert [r["name"] for r in table.index_lookup("salary", 95)] == ["bob"]
        table.delete(row_id)
        assert table.index_lookup("salary", 95) == []


class TestOperators:
    def test_scan_counts_rows(self, engine):
        engine.metrics.reset()
        rows = list(engine.scan("emp"))
        assert len(rows) == 3
        assert engine.metrics.value("relational.rows_examined") == 3

    def test_select_predicate(self, engine):
        rich = engine.select("emp", lambda row: row["salary"] >= 90)
        assert sorted(r["name"] for r in rich) == ["alice", "bob"]

    def test_select_eq_uses_pk(self, engine):
        engine.metrics.reset()
        rows = engine.select_eq("emp", "emp_id", 2)
        assert rows[0]["name"] == "bob"
        assert engine.metrics.value("relational.index_lookups") == 1
        assert engine.metrics.value("relational.rows_examined") == 0

    def test_select_eq_falls_back_to_scan(self, engine):
        engine.metrics.reset()
        rows = engine.select_eq("emp", "name", "carol")
        assert rows[0]["dept_id"] == 2
        assert engine.metrics.value("relational.rows_examined") == 3

    def test_project(self, engine):
        rows = RelationalEngine.project(engine.scan("emp"), ["name"])
        assert all(set(row) == {"name"} for row in rows)


class TestJoins:
    def equal_results(self, engine, join_fn):
        left = list(engine.scan("emp"))
        joined = join_fn(left, "dept_id", "dept", "dept_id")
        return sorted((row["name"], row["dept.name"] if "dept.name" in row else row["name"]) for row in joined)

    def test_all_join_methods_agree(self, engine):
        left = list(engine.scan("emp"))
        nested = engine.nested_loop_join(left, "dept_id", "dept", "dept_id")
        hashed = engine.hash_join(left, "dept_id", "dept", "dept_id")
        indexed = engine.index_join(left, "dept_id", "dept", "dept_id")

        def key(rows):
            return sorted((row["emp_id"], row["dept_id"]) for row in rows)

        assert key(nested) == key(hashed) == key(indexed)
        assert len(nested) == 3

    def test_join_merges_columns(self, engine):
        left = list(engine.scan("emp"))
        joined = engine.hash_join(left, "dept_id", "dept", "dept_id")
        row = next(r for r in joined if r["emp_id"] == 1)
        # emp's "name" kept; dept's colliding "name" prefixed.
        assert row["name"] == "alice"
        assert row["dept.name"] == "eng"

    def test_index_join_requires_index(self, engine):
        left = list(engine.scan("dept"))
        with pytest.raises(KimDBError):
            engine.index_join(left, "dept_id", "emp", "dept_id")

    def test_auto_join_prefers_index(self, engine):
        engine.metrics.reset()
        left = list(engine.scan("emp"))
        engine.join(left, "dept_id", "dept", "dept_id")
        assert engine.metrics.value("relational.index_lookups") == 3  # one PK probe per outer row

    def test_null_keys_do_not_join(self, engine):
        engine.insert("emp", {"emp_id": 9, "name": "nodept", "dept_id": None, "salary": 1})
        left = list(engine.scan("emp"))
        joined = engine.hash_join(left, "dept_id", "dept", "dept_id")
        assert all(row["emp_id"] != 9 for row in joined)

    def test_nested_loop_cost_quadratic(self, engine):
        engine.metrics.reset()
        left = list(engine.scan("emp"))
        engine.metrics.reset()
        engine.nested_loop_join(left, "dept_id", "dept", "dept_id")
        # 3 outer * 2 inner + inner scan for materialization.
        assert engine.metrics.value("relational.rows_examined") >= 3 * 2
