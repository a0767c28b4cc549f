"""Single-class, class-hierarchy and nested-attribute indexes."""

import pytest

from repro import AttributeDef, Database
from repro.bench.schemas import build_vehicle_schema, populate_vehicles
from repro.errors import SchemaError


@pytest.fixture
def vdb():
    db = Database()
    build_vehicle_schema(db)
    populate_vehicles(db, n_vehicles=120, n_companies=8, seed=7)
    return db


def weights_by_scan(db, classes):
    out = {}
    for cls in classes:
        for state in db.storage.scan_class(cls):
            out.setdefault(state.values["weight"], []).append(state.oid)
    return out


class TestSingleClassIndex:
    def test_only_direct_instances_indexed(self, vdb):
        index = vdb.create_class_index("Vehicle", "weight")
        direct = sum(1 for _ in vdb.storage.scan_class("Vehicle"))
        assert len(index) == direct

    def test_lookup_eq(self, vdb):
        index = vdb.create_class_index("Truck", "weight")
        state = next(iter(vdb.storage.scan_class("Truck")))
        oids = index.lookup_eq(state.values["weight"])
        assert state.oid in oids

    def test_covers_only_exact_scope(self, vdb):
        index = vdb.create_class_index("Vehicle", "weight")
        assert index.covers("Vehicle", ("weight",), {"Vehicle"})
        assert not index.covers("Vehicle", ("weight",), {"Vehicle", "Truck"})
        assert not index.covers("Vehicle", ("color",), {"Vehicle"})

    def test_maintenance_on_update(self, vdb):
        index = vdb.create_class_index("Vehicle", "weight")
        handle = vdb.new("Vehicle", {"weight": 111})
        assert handle.oid in index.lookup_eq(111)
        vdb.update(handle.oid, {"weight": 222})
        assert handle.oid not in index.lookup_eq(111)
        assert handle.oid in index.lookup_eq(222)

    def test_maintenance_on_delete(self, vdb):
        index = vdb.create_class_index("Vehicle", "weight")
        handle = vdb.new("Vehicle", {"weight": 333})
        vdb.delete(handle.oid)
        assert handle.oid not in index.lookup_eq(333)

    def test_unknown_attribute_rejected(self, vdb):
        with pytest.raises(SchemaError):
            vdb.create_class_index("Vehicle", "bogus")

    def test_noop_update_skips_maintenance(self, vdb):
        index = vdb.create_class_index("Vehicle", "weight")
        handle = vdb.new("Vehicle", {"weight": 444, "color": "red"})
        inserts_before = vdb.metrics.value("index.sc_Vehicle_weight.inserts")
        vdb.update(handle.oid, {"color": "blue"})
        assert vdb.metrics.value("index.sc_Vehicle_weight.inserts") == inserts_before


class TestClassHierarchyIndex:
    def test_indexes_whole_hierarchy(self, vdb):
        index = vdb.create_hierarchy_index("Vehicle", "weight")
        total = vdb.count("Vehicle", hierarchy=True)
        assert len(index) == total

    def test_scope_filtering(self, vdb):
        index = vdb.create_hierarchy_index("Vehicle", "weight")
        all_weights = weights_by_scan(
            vdb, ["Vehicle", "Automobile", "DomesticAutomobile", "Truck"]
        )
        weight = next(iter(all_weights))
        trucks_only = index.lookup_eq(weight, scope={"Truck"})
        for oid in trucks_only:
            assert vdb.class_of(oid) == "Truck"

    def test_covers_subscope(self, vdb):
        index = vdb.create_hierarchy_index("Vehicle", "weight")
        assert index.covers("Vehicle", ("weight",), {"Vehicle", "Truck"})
        assert index.covers("Automobile", ("weight",), {"Automobile", "DomesticAutomobile"})
        assert not index.covers("Company", ("weight",), {"Company"})

    def test_new_subclass_automatically_maintained(self, vdb):
        index = vdb.create_hierarchy_index("Vehicle", "weight")
        vdb.define_class("Motorcycle", superclasses=("Vehicle",))
        moto = vdb.new("Motorcycle", {"weight": 555})
        assert moto.oid in index.lookup_eq(555)
        assert "Motorcycle" in index.maintained_classes()

    def test_range_lookup_matches_scan(self, vdb):
        index = vdb.create_hierarchy_index("Vehicle", "weight")
        via_index = index.lookup_range(low=7500, include_low=False)
        via_scan = sorted(
            state.oid
            for cls in vdb.schema.hierarchy_of("Vehicle")
            for state in vdb.storage.scan_class(cls)
            if state.values["weight"] > 7500
        )
        assert via_index == via_scan

    def test_per_class_counts(self, vdb):
        index = vdb.create_hierarchy_index("Vehicle", "weight")
        counts = index.per_class_counts()
        assert set(counts) == {"Vehicle", "Automobile", "DomesticAutomobile", "Truck"}
        assert sum(counts.values()) == len(index)


class TestNestedAttributeIndex:
    def test_requires_multi_step_path(self, vdb):
        with pytest.raises(SchemaError):
            vdb.create_nested_index("Vehicle", ["weight"])

    def test_invalid_path_rejected(self, vdb):
        with pytest.raises(SchemaError):
            vdb.create_nested_index("Vehicle", ["manufacturer", "bogus"])

    def test_terminal_key_lookup(self, vdb):
        index = vdb.create_nested_index("Vehicle", ["manufacturer", "location"])
        via_index = index.lookup_eq("Detroit")
        expected = sorted(
            state.oid
            for cls in vdb.schema.hierarchy_of("Vehicle")
            for state in vdb.storage.scan_class(cls)
            if state.values.get("manufacturer")
            and vdb.get_state(state.values["manufacturer"]).values["location"] == "Detroit"
        )
        assert via_index == expected

    def test_intermediate_update_fixes_keys(self, vdb):
        index = vdb.create_nested_index("Vehicle", ["manufacturer", "location"])
        company = vdb.new("Company", {"name": "mover", "location": "Austin"})
        vehicle = vdb.new("Vehicle", {"weight": 1, "manufacturer": company.oid})
        assert vehicle.oid in index.lookup_eq("Austin")
        vdb.update(company.oid, {"location": "Tokyo"})
        assert vehicle.oid not in index.lookup_eq("Austin")
        assert vehicle.oid in index.lookup_eq("Tokyo")

    def test_target_first_step_update(self, vdb):
        index = vdb.create_nested_index("Vehicle", ["manufacturer", "location"])
        c1 = vdb.new("Company", {"name": "a", "location": "Austin"})
        c2 = vdb.new("Company", {"name": "b", "location": "Tokyo"})
        vehicle = vdb.new("Vehicle", {"weight": 1, "manufacturer": c1.oid})
        vdb.update(vehicle.oid, {"manufacturer": c2.oid})
        assert vehicle.oid not in index.lookup_eq("Austin")
        assert vehicle.oid in index.lookup_eq("Tokyo")

    def test_target_delete_removes_keys(self, vdb):
        index = vdb.create_nested_index("Vehicle", ["manufacturer", "location"])
        company = vdb.new("Company", {"name": "c", "location": "Austin"})
        vehicle = vdb.new("Vehicle", {"weight": 1, "manufacturer": company.oid})
        vdb.delete(vehicle.oid)
        assert vehicle.oid not in index.lookup_eq("Austin")

    def test_intermediate_delete_drops_dependents(self, vdb):
        index = vdb.create_nested_index("Vehicle", ["manufacturer", "location"])
        company = vdb.new("Company", {"name": "d", "location": "Austin"})
        vehicle = vdb.new("Vehicle", {"weight": 1, "manufacturer": company.oid})
        vdb.delete(company.oid)
        assert vehicle.oid not in index.lookup_eq("Austin")

    def test_broken_chain_contributes_no_key(self, vdb):
        index = vdb.create_nested_index("Vehicle", ["manufacturer", "location"])
        vehicle = vdb.new("Vehicle", {"weight": 1})  # no manufacturer
        assert vehicle.oid not in index.lookup_eq(None)

    def test_dependency_counting(self, vdb):
        index = vdb.create_nested_index("Vehicle", ["manufacturer", "location"])
        assert index.dependency_count() > 0


class TestIndexManager:
    def test_describe_catalog(self, vdb):
        vdb.create_hierarchy_index("Vehicle", "weight")
        vdb.create_nested_index("Vehicle", ["manufacturer", "location"])
        catalog = vdb.indexes.describe()
        kinds = {entry["kind"] for entry in catalog}
        assert kinds == {"class-hierarchy", "nested-attribute"}

    def test_duplicate_name_rejected(self, vdb):
        vdb.create_hierarchy_index("Vehicle", "weight", name="w")
        with pytest.raises(SchemaError):
            vdb.create_class_index("Vehicle", "weight", name="w")

    def test_drop_index(self, vdb):
        vdb.create_hierarchy_index("Vehicle", "weight", name="w")
        vdb.indexes.drop_index("w")
        assert "w" not in vdb.indexes.names()
        with pytest.raises(SchemaError):
            vdb.indexes.drop_index("w")

    def test_drop_index_takes_its_counters_along(self):
        db = Database()
        db.define_class("Row", attributes=[AttributeDef("n", "Integer")])
        for n in range(50):
            db.new("Row", {"n": n})
        db.create_class_index("Row", "n", name="ix")
        assert db.metrics.value("index.ix.inserts") == 50
        db.indexes.drop_index("ix")
        assert not db.metrics.snapshot("index.ix.")
        assert not db.select("SysStat where name = 'index.ix.inserts'")
        for n in range(50, 60):
            db.new("Row", {"n": n})
        index = db.create_class_index("Row", "n", name="ix")
        # A re-created index of the same name counts from zero.
        assert len(index) == 60
        assert db.metrics.value("index.ix.inserts") == 60

    def test_selection_prefers_nested_over_hierarchy(self, vdb):
        vdb.create_hierarchy_index("Vehicle", "weight")
        nested = vdb.create_nested_index("Vehicle", ["manufacturer", "location"])
        scope = set(vdb.schema.hierarchy_of("Vehicle"))
        chosen = vdb.indexes.find_index("Vehicle", ("manufacturer", "location"), scope)
        assert chosen is nested

    def test_selection_prefers_hierarchy_over_single(self, vdb):
        single = vdb.create_class_index("Vehicle", "weight")
        hierarchy = vdb.create_hierarchy_index("Vehicle", "weight")
        assert (
            vdb.indexes.find_index("Vehicle", ("weight",), {"Vehicle"}) is hierarchy
        )
        # But single-class still usable when it is the only cover.
        vdb.indexes.drop_index(hierarchy.name)
        assert vdb.indexes.find_index("Vehicle", ("weight",), {"Vehicle"}) is single

    def test_no_cover_returns_none(self, vdb):
        assert vdb.indexes.find_index("Vehicle", ("color",), {"Vehicle"}) is None

    def test_rebuild_restores_dropped_state(self, vdb):
        index = vdb.create_hierarchy_index("Vehicle", "weight")
        size = len(index)
        index.clear()
        assert len(index) == 0
        vdb.indexes.rebuild(index.name)
        assert len(index) == size
