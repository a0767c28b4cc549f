"""Memory-resident object management: swizzling, faulting, write-back."""

import pytest

from repro import AttributeDef, Database
from repro.core.oid import OID
from repro.errors import KimDBError
from repro.workspace.cache import ObjectWorkspace
from repro.workspace.swizzle import Fault, MemoryObject


@pytest.fixture
def graph_db():
    db = Database()
    db.define_class(
        "Node",
        attributes=[
            AttributeDef("label", "String"),
            AttributeDef("next", "Node"),
            AttributeDef("links", "Node", multi=True),
        ],
    )
    return db


def make_chain(db, length):
    previous = None
    oids = []
    for position in reversed(range(length)):
        handle = db.new(
            "Node",
            {"label": "n%d" % position, "next": previous, "links": []},
        )
        previous = handle.oid
        oids.append(handle.oid)
    oids.reverse()
    return oids


class TestLoadingAndPolicies:
    def test_load_caches(self, graph_db):
        oids = make_chain(graph_db, 2)
        workspace = ObjectWorkspace(graph_db)
        first = workspace.load(oids[0])
        again = workspace.load(oids[0])
        assert first is again
        assert workspace.metrics.value("workspace.hits") == 1
        assert workspace.metrics.value("workspace.faults") == 1

    def test_lazy_policy_installs_fault_descriptors(self, graph_db):
        oids = make_chain(graph_db, 2)
        workspace = ObjectWorkspace(graph_db, policy="lazy")
        root = workspace.load(oids[0])
        assert isinstance(root.values["next"], Fault)
        assert len(workspace) == 1  # referenced node not loaded yet

    def test_eager_policy_loads_referenced(self, graph_db):
        oids = make_chain(graph_db, 3)
        workspace = ObjectWorkspace(graph_db, policy="eager")
        workspace.load(oids[0])
        # Eager pulls the closure (each load swizzles its own refs eagerly).
        assert len(workspace) == 3

    def test_none_policy_keeps_oids(self, graph_db):
        oids = make_chain(graph_db, 2)
        workspace = ObjectWorkspace(graph_db, policy="none")
        root = workspace.load(oids[0])
        assert isinstance(root.values["next"], OID)

    def test_unknown_policy_rejected(self, graph_db):
        with pytest.raises(KimDBError):
            ObjectWorkspace(graph_db, policy="telepathic")


class TestTraversal:
    def test_ref_faults_then_pointers(self, graph_db):
        oids = make_chain(graph_db, 3)
        workspace = ObjectWorkspace(graph_db, policy="lazy")
        root = workspace.load(oids[0])
        middle = root.ref("next")
        assert isinstance(middle, MemoryObject)
        assert middle["label"] == "n1"
        # After the first traversal the slot holds a direct pointer.
        assert root.values["next"] is middle
        faults_before = workspace.metrics.value("workspace.faults")
        assert root.ref("next") is middle
        assert workspace.metrics.value("workspace.faults") == faults_before

    def test_refs_multi(self, graph_db):
        targets = [graph_db.new("Node", {"label": "t%d" % i}) for i in range(3)]
        hub = graph_db.new("Node", {"links": [t.oid for t in targets]})
        workspace = ObjectWorkspace(graph_db)
        node = workspace.load(hub.oid)
        assert [n["label"] for n in node.refs("links")] == ["t0", "t1", "t2"]

    def test_closure(self, graph_db):
        oids = make_chain(graph_db, 5)
        workspace = ObjectWorkspace(graph_db)
        order = workspace.closure([oids[0]], ["next"])
        assert [m["label"] for m in order] == ["n0", "n1", "n2", "n3", "n4"]

    def test_closure_max_depth(self, graph_db):
        oids = make_chain(graph_db, 5)
        workspace = ObjectWorkspace(graph_db)
        order = workspace.closure([oids[0]], ["next"], max_depth=2)
        assert len(order) == 3

    def test_closure_handles_cycles(self, graph_db):
        a = graph_db.new("Node", {"label": "a"})
        b = graph_db.new("Node", {"label": "b", "next": a.oid})
        graph_db.update(a.oid, {"next": b.oid})
        workspace = ObjectWorkspace(graph_db)
        order = workspace.closure([a.oid], ["next"])
        assert len(order) == 2

    def test_dangling_reference_returns_none(self, graph_db):
        target = graph_db.new("Node", {"label": "gone"})
        source = graph_db.new("Node", {"label": "src", "next": target.oid})
        graph_db.delete(target.oid)
        workspace = ObjectWorkspace(graph_db)
        node = workspace.load(source.oid)
        assert node.ref("next") is None


class TestWriteBack:
    def test_set_marks_dirty_and_flush_persists(self, graph_db):
        node = graph_db.new("Node", {"label": "x"})
        workspace = ObjectWorkspace(graph_db)
        memory_object = workspace.load(node.oid)
        memory_object.set("label", "y")
        assert memory_object.dirty
        assert workspace.flush() == 1
        assert graph_db.get(node.oid)["label"] == "y"
        assert not memory_object.dirty

    def test_flush_unswizzles_pointers(self, graph_db):
        oids = make_chain(graph_db, 2)
        other = graph_db.new("Node", {"label": "other"})
        workspace = ObjectWorkspace(graph_db)
        root = workspace.load(oids[0])
        root.ref("next")  # swizzle to a direct pointer
        root.set("next", workspace.load(other.oid))  # pointer-valued write
        workspace.flush()
        assert graph_db.get_state(oids[0]).values["next"] == other.oid

    def test_flush_empty_is_zero(self, graph_db):
        assert ObjectWorkspace(graph_db).flush() == 0

    def test_database_features_still_apply_on_writeback(self, graph_db):
        # The paper's point: workspace writes go through the database, so
        # indexes stay consistent.
        index = graph_db.create_hierarchy_index("Node", "label")
        node = graph_db.new("Node", {"label": "before"})
        workspace = ObjectWorkspace(graph_db)
        memory_object = workspace.load(node.oid)
        memory_object.set("label", "after")
        workspace.flush()
        assert node.oid in index.lookup_eq("after")
        assert node.oid not in index.lookup_eq("before")

    def test_evict_dirty_rejected(self, graph_db):
        node = graph_db.new("Node", {"label": "x"})
        workspace = ObjectWorkspace(graph_db)
        memory_object = workspace.load(node.oid)
        memory_object.set("label", "y")
        with pytest.raises(KimDBError):
            workspace.evict(node.oid)
        workspace.flush()
        workspace.evict(node.oid)
        assert node.oid not in workspace
