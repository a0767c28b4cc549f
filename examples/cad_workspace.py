"""CAx scenario: composite assemblies, versions, long transactions.

The workload the paper's introduction motivates: a design team working
on a recursive assembly, with

* composite objects (exclusive, dependent parts) and clustering,
* memory-resident traversal through a swizzling workspace,
* versions with promote/derive and change notification,
* a long-duration checkout/checkin session with conflict detection.

Run:  python examples/cad_workspace.py
"""

from repro import AttributeDef, Database
from repro.composite import attach as attach_composites
from repro.storage.clustering import CompositeClustering
from repro.versions import attach as attach_versions
from repro.versions import attach_notifications
from repro.workspace import ObjectWorkspace


def build_schema(db: Database) -> None:
    db.define_class(
        "Assembly",
        attributes=[
            AttributeDef("name", "String", required=True),
            AttributeDef("mass_g", "Integer", default=0),
            AttributeDef(
                "parts",
                "Assembly",
                multi=True,
                composite=True,
                exclusive=True,
                dependent=True,
            ),
        ],
        versionable=True,
    )


def build_gearbox(db: Database):
    def assembly(name, mass, parts=()):
        return db.new(
            "Assembly",
            {"name": name, "mass_g": mass, "parts": [p.oid for p in parts]},
        )

    gears = [assembly("gear-%d" % i, 120) for i in range(4)]
    shafts = [assembly("shaft-%d" % i, 300) for i in range(2)]
    gear_train = assembly("gear-train", 0, gears)
    housing = assembly("housing", 2500)
    return assembly("gearbox", 0, [gear_train, housing] + shafts)


def main() -> None:
    db = Database(clustering=CompositeClustering())
    attach_composites(db)
    attach_notifications(db)
    attach_versions(db)
    build_schema(db)

    gearbox = build_gearbox(db)
    print("gearbox parts (transitive):", len(db.composites.parts_of(gearbox.oid)))

    # -- swizzled traversal: total mass via direct pointers ---------------
    workspace = ObjectWorkspace(db, policy="lazy")

    def total_mass(memory_object):
        return memory_object["mass_g"] + sum(
            total_mass(part) for part in memory_object.refs("parts")
        )

    root = workspace.load(gearbox.oid)
    metrics = workspace.metrics
    print("total mass: %d g (faults: %d)" % (total_mass(root), metrics.value("workspace.faults")))
    # Second pass is pure pointer chasing.
    metrics.reset("workspace.")
    total_mass(root)
    print("second pass faults:", metrics.value("workspace.faults"))

    # -- versions: derive a lightweight variant -----------------------------
    versioned = db.versions.create_versioned(
        "Assembly", {"name": "gearbox-design", "mass_g": 4000, "parts": []}
    )
    events = []
    db.notifications.subscribe(versioned, lambda *args: events.append(args))
    db.versions.promote(versioned)  # transient -> working (frozen)
    variant = db.versions.derive(versioned, {"mass_g": 3200})
    print("\nversion history:", db.versions.history(variant))
    print("derivation notifications:", [e[0] for e in events])
    print("default version binds to:", db.versions.resolve_generic(
        db.versions.generic_of(variant)))

    # -- long transaction: two designers, one conflict ----------------------
    alice = db.workspace("alice")
    bob = db.workspace("bob")
    target = db.composites.parts_of(gearbox.oid)[0]
    alice.checkout([target])
    bob.checkout([target])
    alice.update(target, {"mass_g": 111})
    print("\nalice checkin:", alice.checkin())
    bob.update(target, {"mass_g": 222})
    report = bob.checkin()
    print("bob checkin (conflict expected):", report)
    if not report.ok:
        print("  conflicting object:", report.conflicts[0].oid)
        print("  shared value now:", db.get(target)["mass_g"])

    # -- composite delete propagation ---------------------------------------
    before = db.count("Assembly")
    db.delete(gearbox.oid)
    print("\nassemblies before/after deleting the gearbox: %d -> %d"
          % (before, db.count("Assembly")))


if __name__ == "__main__":
    main()
