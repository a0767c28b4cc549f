"""Schema evolution: taxonomy operations, invariants, lazy coercion."""

import pytest

from repro import AttributeDef, Database, MethodDef
from repro.errors import SchemaEvolutionError
from repro.evolution import SchemaEvolution, check_all
from repro.evolution.invariants import check_domain_compatibility_invariant


@pytest.fixture
def edb():
    db = Database()
    db.define_class("Company", attributes=[AttributeDef("name", "String")])
    db.define_class("AutoCompany", superclasses=("Company",))
    db.define_class(
        "Vehicle",
        attributes=[
            AttributeDef("weight", "Integer"),
            AttributeDef("maker", "Company"),
        ],
    )
    db.define_class("Truck", superclasses=("Vehicle",))
    return db


@pytest.fixture
def evo(edb):
    return SchemaEvolution(edb)


class TestAttributeChanges:
    def test_add_attribute_metadata_only(self, edb, evo):
        vehicle = edb.new("Vehicle", {"weight": 1})
        stored_before = edb.storage.load(vehicle.oid).values
        evo.add_attribute("Vehicle", AttributeDef("color", "String", default="grey"))
        # Stored record untouched; loaded view coerced with the default.
        assert "color" not in edb.storage.load(vehicle.oid).values
        assert edb.get(vehicle.oid)["color"] == "grey"
        assert edb.storage.load(vehicle.oid).values == stored_before

    def test_added_attribute_inherited_by_subclasses(self, edb, evo):
        truck = edb.new("Truck", {"weight": 5})
        evo.add_attribute("Vehicle", AttributeDef("color", "String", default="grey"))
        assert edb.get(truck.oid)["color"] == "grey"

    def test_add_attribute_writable_after(self, edb, evo):
        vehicle = edb.new("Vehicle", {"weight": 1})
        evo.add_attribute("Vehicle", AttributeDef("color", "String"))
        edb.update(vehicle.oid, {"color": "red"})
        assert edb.get(vehicle.oid)["color"] == "red"

    def test_index_after_reopen_sees_added_defaults(self, tmp_path):
        """An index built after a reopen keys stored instances by their
        coerced values, as a scan reads them."""
        path = str(tmp_path / "evolved.pages")
        db = Database(path)
        db.define_class("Item", attributes=[AttributeDef("n", "Integer")])
        for i in range(5):
            db.new("Item", {"n": i})
        SchemaEvolution(db).add_attribute("Item", AttributeDef("m", "Integer", default=7))
        db.close()
        db = Database(path)
        index = db.create_class_index("Item", "m")
        assert len(index.lookup_eq(7)) == 5
        assert index.lookup_eq(None) == []
        db.close()

    def test_drop_attribute_lazy(self, edb, evo):
        vehicle = edb.new("Vehicle", {"weight": 42})
        evo.drop_attribute("Vehicle", "weight")
        assert "weight" not in edb.schema.attributes("Vehicle")
        # Stored value remains but is invisible through the schema.
        assert "weight" in edb.storage.load(vehicle.oid).values
        assert "weight" not in edb.get_state(vehicle.oid).values

    def test_drop_inherited_attribute_rejected(self, evo):
        with pytest.raises(SchemaEvolutionError):
            evo.drop_attribute("Truck", "weight")

    def test_drop_indexed_attribute_rejected(self, edb, evo):
        edb.create_hierarchy_index("Vehicle", "weight")
        with pytest.raises(SchemaEvolutionError):
            evo.drop_attribute("Vehicle", "weight")

    def test_rename_attribute_rewrites_instances(self, edb, evo):
        vehicle = edb.new("Vehicle", {"weight": 42})
        count = evo.rename_attribute("Vehicle", "weight", "mass")
        assert count >= 1
        assert edb.get(vehicle.oid)["mass"] == 42
        assert "weight" not in edb.schema.attributes("Vehicle")
        assert "mass" in edb.schema.attributes("Truck")

    def test_change_default(self, edb, evo):
        evo.add_attribute("Vehicle", AttributeDef("color", "String", default="grey"))
        evo.change_default("Vehicle", "color", "black")
        vehicle = edb.new("Vehicle", {"weight": 1})
        assert vehicle["color"] == "black"

    def test_redefinition_must_specialize_domain(self, edb, evo):
        # Truck redefines maker with an unrelated domain: invariant violated.
        with pytest.raises(SchemaEvolutionError):
            evo.add_attribute("Truck", AttributeDef("maker", "Vehicle"))
        # The rollback leaves the schema unchanged.
        assert edb.schema.attribute("Truck", "maker").domain == "Company"
        check_all(edb.schema)

    def test_redefinition_with_subdomain_allowed(self, edb, evo):
        evo.add_attribute("Truck", AttributeDef("maker", "AutoCompany"))
        assert edb.schema.attribute("Truck", "maker").domain == "AutoCompany"
        check_domain_compatibility_invariant(edb.schema)


class TestMethodChanges:
    def test_add_and_drop_method(self, edb, evo):
        evo.add_method("Vehicle", MethodDef("honk", lambda recv: "beep"))
        vehicle = edb.new("Vehicle", {"weight": 1})
        assert vehicle.send("honk") == "beep"
        evo.drop_method("Vehicle", "honk")
        with pytest.raises(Exception):
            vehicle.send("honk")

    def test_drop_missing_method_rejected(self, evo):
        with pytest.raises(SchemaEvolutionError):
            evo.drop_method("Vehicle", "ghost")


class TestEdgeChanges:
    def test_add_superclass_brings_attributes(self, edb, evo):
        edb.define_class("Electric", attributes=[AttributeDef("range_km", "Integer", default=300)])
        evo.add_superclass("Truck", "Electric")
        truck = edb.new("Truck", {"weight": 1})
        assert truck["range_km"] == 300

    def test_add_superclass_cycle_rejected(self, evo):
        with pytest.raises(Exception):
            evo.add_superclass("Vehicle", "Truck")

    def test_drop_superclass_reroots_at_object(self, edb, evo):
        evo.drop_superclass("Truck", "Vehicle")
        assert edb.schema.get_class("Truck").superclasses == ["Object"]
        assert "weight" not in edb.schema.attributes("Truck")

    def test_drop_superclass_keeps_other_edges(self, edb, evo):
        edb.define_class("Toy")
        evo.add_superclass("Truck", "Toy")
        evo.drop_superclass("Truck", "Toy")
        assert edb.schema.is_subclass("Truck", "Vehicle")

    def test_hierarchy_index_follows_edge_change(self, edb, evo):
        index = edb.create_hierarchy_index("Vehicle", "weight")
        truck = edb.new("Truck", {"weight": 9})
        assert truck.oid in index.lookup_eq(9)
        evo.drop_superclass("Truck", "Vehicle")
        assert truck.oid not in index.lookup_eq(9)


class TestNodeChanges:
    def test_drop_leaf_class_deletes_instances(self, edb, evo):
        truck = edb.new("Truck", {"weight": 1})
        count = evo.drop_class("Truck")
        assert count == 1
        assert not edb.exists(truck.oid)
        assert not edb.schema.has_class("Truck")

    def test_drop_class_with_subclasses_rejected(self, evo):
        with pytest.raises(SchemaEvolutionError):
            evo.drop_class("Vehicle")

    def test_drop_class_with_migration(self, edb, evo):
        truck = edb.new("Truck", {"weight": 7})
        evo.drop_class("Truck", migrate_to="Vehicle")
        assert edb.class_of(truck.oid) == "Vehicle"
        assert edb.get(truck.oid)["weight"] == 7

    def test_rename_class(self, edb, evo):
        truck = edb.new("Truck", {"weight": 7})
        evo.rename_class("Truck", "Lorry")
        assert edb.class_of(truck.oid) == "Lorry"
        assert edb.schema.is_subclass("Lorry", "Vehicle")
        assert not edb.schema.has_class("Truck")
        assert len(edb.select("SELECT l FROM Lorry l")) == 1

    def test_rename_class_fixes_domains(self, edb, evo):
        evo.rename_class("Company", "Corporation")
        assert edb.schema.attribute("Vehicle", "maker").domain == "Corporation"

    def test_migrate_instance_coerces_values(self, edb, evo):
        truck = edb.new("Truck", {"weight": 7})
        evo.migrate_instance(truck.oid, "Company")
        assert edb.class_of(truck.oid) == "Company"
        state = edb.get_state(truck.oid)
        assert "weight" not in state.values
        assert "name" in state.values

    def test_migration_maintains_indexes(self, edb, evo):
        index = edb.create_hierarchy_index("Vehicle", "weight")
        truck = edb.new("Truck", {"weight": 7})
        evo.migrate_instance(truck.oid, "Company")
        assert truck.oid not in index.lookup_eq(7)

    def test_audit_log_records_operations(self, edb, evo):
        evo.add_attribute("Vehicle", AttributeDef("color", "String"))
        evo.rename_attribute("Vehicle", "color", "paint")
        assert any("add_attribute" in entry for entry in evo.log)
        assert any("rename_attribute" in entry for entry in evo.log)
