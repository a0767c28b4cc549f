"""Physical clustering: placement policies and fault-count effects."""

import pytest

from repro import AttributeDef, Database
from repro.bench.workloads import build_assembly, define_assembly_schema
from repro.storage.clustering import (
    AttributeClustering,
    CompositeClustering,
    NoClustering,
)


def traversal_faults(db, root_oid):
    """Cold-cache page faults for a full composite traversal."""
    db.storage.drop_cache()
    db.metrics.reset("buffer.")
    stack = [root_oid]
    seen = set()
    while stack:
        oid = stack.pop()
        if oid in seen:
            continue
        seen.add(oid)
        state = db.storage.load(oid)
        for child in state.values.get("subassemblies", []):
            stack.append(child)
    return db.metrics.value("buffer.faults"), len(seen)


class TestPolicies:
    def test_no_clustering_returns_none(self):
        db = Database(clustering=NoClustering())
        define_assembly_schema(db)
        child = db.new("Assembly", {"label": "c", "subassemblies": []})
        state = db.get_state(child.oid)
        assert NoClustering().neighbour_for(db.schema, state) is None

    def test_composite_policy_nominates_part(self):
        db = Database()
        define_assembly_schema(db)
        child = db.new("Assembly", {"label": "c", "subassemblies": []})
        parent_state_values = {
            "label": "p",
            "mass": 1,
            "subassemblies": [child.oid],
        }
        from repro.core.obj import ObjectState
        from repro.core.oid import OID

        state = ObjectState(OID(999), "Assembly", parent_state_values)
        assert CompositeClustering().neighbour_for(db.schema, state) == child.oid

    def test_attribute_policy_scoped_to_class(self):
        db = Database()
        db.define_class("T", attributes=[AttributeDef("ref", "T")])
        db.define_class("U", attributes=[AttributeDef("ref", "T")])
        target = db.new("T")
        policy = AttributeClustering("T", "ref")
        from repro.core.obj import ObjectState
        from repro.core.oid import OID

        t_state = ObjectState(OID(100), "T", {"ref": target.oid})
        u_state = ObjectState(OID(101), "U", {"ref": target.oid})
        assert policy.neighbour_for(db.schema, t_state) == target.oid
        assert policy.neighbour_for(db.schema, u_state) is None


def build_interleaved_chains(db, groups=8, length=48, label_size=180):
    """Round-robin creation of ``groups`` composite chains.

    Object j of group i is created at time ``j * groups + i``, so without
    clustering the heap pages hold stripes of every group; with
    :class:`CompositeClustering` each object is placed near the chain
    predecessor it references.  Returns the head OID of each chain.
    """
    previous = [None] * groups
    for position in range(length):
        for group in range(groups):
            subassemblies = [previous[group]] if previous[group] is not None else []
            handle = db.new(
                "Assembly",
                {
                    "label": "g%d-%d-%s" % (group, position, "x" * label_size),
                    "mass": 1,
                    "subassemblies": subassemblies,
                },
            )
            previous[group] = handle.oid
    return previous  # chain heads (each references the whole chain)


class TestClusteringEffect:
    def test_clustered_traversal_touches_fewer_pages(self):
        clustered = Database(clustering=CompositeClustering(), buffer_capacity=4)
        define_assembly_schema(clustered)
        heads_c = build_interleaved_chains(clustered)

        scattered = Database(clustering=NoClustering(), buffer_capacity=4)
        define_assembly_schema(scattered)
        heads_s = build_interleaved_chains(scattered)

        faults_clustered, visited_c = traversal_faults(clustered, heads_c[0])
        faults_scattered, visited_s = traversal_faults(scattered, heads_s[0])
        assert visited_c == visited_s == 48
        # One chain lives on a fraction of the pages when clustered.
        assert faults_clustered < faults_scattered / 2

    def test_deep_assembly_tree_clusters(self):
        clustered = Database(clustering=CompositeClustering(), buffer_capacity=4)
        define_assembly_schema(clustered)
        root = build_assembly(clustered, depth=5, fanout=2, seed=1)
        faults, visited = traversal_faults(clustered, root)
        assert visited == 2 ** 6 - 1
        # The whole tree should occupy only a handful of pages.
        assert faults <= clustered.storage.heap_for("Assembly").page_count

    def test_explicit_near_hint_wins(self):
        db = Database()
        define_assembly_schema(db)
        anchor = db.new("Assembly", {"label": "anchor"})
        # Fill unrelated pages.
        db.define_class("Noise", attributes=[AttributeDef("filler", "String")])
        for _ in range(20):
            db.new("Noise", {"filler": "x" * 100})
        friend = db.new("Assembly", {"label": "friend"}, near=anchor.oid)
        anchor_rid = db.storage.directory.lookup(anchor.oid).rid
        friend_rid = db.storage.directory.lookup(friend.oid).rid
        assert anchor_rid.page_id == friend_rid.page_id
