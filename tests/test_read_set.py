"""Read-set execution: a plan's scan and dereferences decode only the
attributes the plan reads, and the partial states that makes never leave
``Executor.execute``.

The oracle is the same plan run with whole objects (read set None), so
any difference is the read set's doing: coercion defaults, subclass-only
attributes, overflow records, MVCC before-images, nested ORDER BY,
projections and aggregates all have to come out identical.
"""

import copy
import random
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import AttributeDef, Database
from repro.core.method import MethodDef
from repro.evolution import SchemaEvolution
from repro.query.algebra import read_set
from repro.query.parser import parse_query
from repro.workspace.cache import ObjectWorkspace

CITIES = ("Detroit", "Tokyo", "Turin")
COLORS = ("red", "blue", "white")
TAGS = ("fast", "cheap", "old")


def _heavy(receiver):
    return receiver["weight"] > 6000


def build(db, seed=0, vehicles=60):
    """Companies and a Vehicle hierarchy with lists, Nones, overflow
    records and two schema-evolution steps over stored instances."""
    rng = random.Random(seed)
    db.define_class(
        "Company",
        attributes=[AttributeDef("name", "String"), AttributeDef("location", "String")],
    )
    db.define_class(
        "Vehicle",
        attributes=[
            AttributeDef("weight", "Integer"),
            AttributeDef("color", "String"),
            AttributeDef("tags", "String", multi=True),
            AttributeDef("manufacturer", "Company"),
            AttributeDef("note", "String"),
            AttributeDef("blob", "String"),
            AttributeDef("legacy", "Integer"),
        ],
        methods=[MethodDef("is_heavy", _heavy)],
    )
    db.define_class(
        "Truck", superclasses=("Vehicle",), attributes=[AttributeDef("payload", "Integer")]
    )
    db.define_class(
        "Automobile", superclasses=("Vehicle",), attributes=[AttributeDef("doors", "Integer")]
    )
    companies = [
        db.new("Company", {"name": "company-%d" % i, "location": CITIES[i % 3]}).oid
        for i in range(8)
    ]
    for position in range(vehicles):
        cls = ("Vehicle", "Truck", "Automobile")[position % 3]
        values = {
            "weight": rng.randrange(1000, 12000),
            "color": rng.choice(COLORS),
            "tags": rng.sample(TAGS, rng.randrange(len(TAGS) + 1)),
            "manufacturer": rng.choice(companies) if position % 7 else None,
            "note": None if position % 2 else "n%d" % position,
            # Every eleventh record is longer than a page: an overflow chain.
            "blob": ("x" * 6000 + str(position)) if position % 11 == 0 else "b%d" % position,
            "legacy": position,
        }
        if cls == "Truck":
            values["payload"] = rng.randrange(100, 5000)
        elif cls == "Automobile":
            values["doors"] = rng.choice((2, 4))
        db.new(cls, values)
    evolution = SchemaEvolution(db)
    evolution.add_attribute("Vehicle", AttributeDef("rating", "Integer", default=3))
    evolution.drop_attribute("Vehicle", "legacy")
    for position in range(6):
        db.new("Truck", {"weight": 500 * position, "rating": position, "payload": 7})
    return db


@pytest.fixture(scope="module")
def rdb():
    return build(Database())


def full_decode(db, text):
    """The oracle: ``text``'s own plan, run on whole objects."""
    plan = copy.copy(db.plan(text))
    plan._read_set = None
    plan.predicate = None
    snapshot = db._open_query_snapshot(plan)
    try:
        return db._executor.execute(plan, snapshot=snapshot)
    finally:
        db._close_query_snapshot(snapshot)


def assert_parity(db, text):
    result = db.execute(text)
    oracle = full_decode(db, text)
    assert result.oids == oracle.oids, text
    assert result.rows == oracle.rows, text
    return result


# -- query generation ---------------------------------------------------------

def _quote(value):
    return "'%s'" % value if isinstance(value, str) else str(value)


INT_PATHS = ("v.weight", "v.payload", "v.doors", "v.rating")
STR_PATHS = {
    "v.color": COLORS,
    "v.note": ("n4", "n10", "n0"),
    "v.blob": ("b3", "b14"),
    "v.manufacturer.location": CITIES,
    "v.manufacturer.name": ("company-1", "company-5"),
}

int_comparisons = st.builds(
    lambda path, op, value: "%s %s %d" % (path, op, value),
    st.sampled_from(INT_PATHS),
    st.sampled_from(("=", "!=", "<", "<=", ">", ">=")),
    st.integers(-1, 12000),
)
str_comparisons = st.sampled_from(sorted(STR_PATHS)).flatmap(
    lambda path: st.one_of(
        st.builds(
            lambda op, value: "%s %s %s" % (path, op, _quote(value)),
            st.sampled_from(("=", "!=")),
            st.sampled_from(STR_PATHS[path]),
        ),
        st.builds(
            lambda values: "%s IN (%s)" % (path, ", ".join(_quote(v) for v in values)),
            st.lists(st.sampled_from(STR_PATHS[path]), min_size=1, max_size=2),
        ),
        st.just("%s LIKE '%s%%'" % (path, STR_PATHS[path][0][:1])),
    )
)
tag_comparisons = st.builds(
    lambda tag: "v.tags CONTAINS %s" % _quote(tag), st.sampled_from(TAGS)
)
comparisons = st.one_of(int_comparisons, str_comparisons, tag_comparisons)
predicates = st.recursive(
    comparisons,
    lambda inner: st.one_of(
        st.builds(lambda a, b: "(%s AND %s)" % (a, b), inner, inner),
        st.builds(lambda a, b: "(%s OR %s)" % (a, b), inner, inner),
        st.builds(lambda a: "NOT %s" % a, inner),
    ),
    max_leaves=4,
)
ORDER_PATHS = ("v.weight", "v.manufacturer.location", "v.manufacturer.name", "v.note", "v.rating")
PROJECTIONS = ("v.weight", "v.tags", "v.manufacturer.location", "v.payload", "v.blob", "v.rating")
TARGETS = ("Vehicle v", "ONLY Vehicle v", "Truck v", "Automobile v")


@st.composite
def queries(draw):
    target = draw(st.sampled_from(TARGETS))
    where = draw(st.one_of(st.none(), predicates))
    tail = " WHERE %s" % where if where else ""
    form = draw(st.sampled_from(("objects", "projection", "aggregate", "group")))
    if form == "aggregate":
        return "SELECT COUNT(v), SUM(v.weight), MIN(v.manufacturer.name) FROM %s%s" % (
            target, tail,
        )
    if form == "group":
        group = draw(st.sampled_from(("v.color", "v.manufacturer.location", "v.rating")))
        return "SELECT %s, COUNT(v), MAX(v.weight) FROM %s%s GROUP BY %s" % (
            group, target, tail, group,
        )
    if form == "projection":
        paths = draw(st.lists(st.sampled_from(PROJECTIONS), min_size=1, max_size=3, unique=True))
        head = ", ".join(paths)
    else:
        head = "v"
    order = draw(st.one_of(st.none(), st.sampled_from(ORDER_PATHS)))
    if order:
        tail += " ORDER BY %s%s" % (order, draw(st.sampled_from(("", " DESC"))))
    limit = draw(st.one_of(st.none(), st.integers(1, 12)))
    if limit:
        tail += " LIMIT %d" % limit
    return "SELECT %s FROM %s%s" % (head, target, tail)


class TestReadSetParity:
    @given(text=queries())
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_generated_queries_match_full_decode(self, rdb, text):
        if not rdb.check(text).ok:
            return  # ill-typed for this target: nothing to compare
        result = assert_parity(rdb, text)
        assert result.plan.read_set is not None

    @pytest.mark.parametrize(
        "text",
        [
            "SELECT v FROM Truck v WHERE v.payload > 1000",
            "SELECT v FROM Vehicle v WHERE v.rating = 3",
            "SELECT v FROM Vehicle v WHERE v.note = 'n4' OR v.tags CONTAINS 'old'",
            "SELECT v FROM Vehicle v WHERE v.blob LIKE 'xxx%'",
            "SELECT v.blob, v.rating FROM Truck v ORDER BY v.rating DESC",
            "SELECT v FROM Vehicle v ORDER BY v.manufacturer.location DESC LIMIT 9",
            "SELECT v.manufacturer.location, COUNT(v), AVG(v.weight) FROM Vehicle v "
            "GROUP BY v.manufacturer.location",
            "SELECT COUNT(v) FROM Vehicle v",
        ],
    )
    def test_targeted_shapes(self, rdb, text):
        assert rdb.check(text).ok, text
        assert_parity(rdb, text)

    def test_read_set_is_the_plans_attribute_names(self):
        query = parse_query(
            "SELECT v.color, COUNT(v), SUM(v.weight) FROM Vehicle v "
            "WHERE v.manufacturer.location = 'Detroit' GROUP BY v.color"
        )
        assert read_set(query) == {"color", "weight", "manufacturer", "location"}
        assert read_set(parse_query("SELECT v FROM Vehicle v")) == frozenset()

    def test_method_and_adt_predicates_read_whole_objects(self, rdb):
        text = "SELECT v FROM Vehicle v WHERE v.is_heavy() AND v.weight < 9000"
        assert read_set(parse_query(text)) is None
        result = assert_parity(rdb, text)
        assert result.oids
        assert read_set(
            parse_query("SELECT c FROM Cell c WHERE overlaps(c.shape, [0, 0, 1, 1])")
        ) is None

    def test_scans_and_derefs_decode_only_the_read_set(self, rdb, monkeypatch):
        seen = []
        load, scan = rdb.storage.load, rdb.storage.scan_class

        def spy_load(oid, read=None):
            seen.append(("load", read))
            return load(oid, read)

        def spy_scan(class_name, read=None):
            seen.append(("scan", read))
            return scan(class_name, read)

        monkeypatch.setattr(rdb.storage, "load", spy_load)
        monkeypatch.setattr(rdb.storage, "scan_class", spy_scan)
        rdb.execute(
            "SELECT v FROM Vehicle v WHERE v.weight > 100 "
            "AND v.manufacturer.location = 'Detroit'"
        )
        wanted = {"weight", "manufacturer", "location"}
        assert {kind for kind, _read in seen} == {"load", "scan"}
        assert all(read == wanted for _kind, read in seen)


class TestSnapshotBeforeImages:
    def test_before_images_inside_a_snapshot_transaction(self):
        db = build(Database(), seed=3)
        texts = [
            "SELECT v FROM Vehicle v WHERE v.weight > 5000 AND v.rating = 3",
            "SELECT v.weight, v.manufacturer.location FROM Vehicle v "
            "WHERE v.manufacturer.location = 'Tokyo' ORDER BY v.weight",
            "SELECT v.color, COUNT(v), SUM(v.weight) FROM Vehicle v GROUP BY v.color",
            "SELECT v FROM Truck v ORDER BY v.payload DESC LIMIT 5",
        ]
        trucks = [h.oid for h in db.select("SELECT t FROM Truck t")]
        companies = [h.oid for h in db.select("SELECT c FROM Company c")]
        with db.transaction():
            before = {text: assert_parity(db, text) for text in texts}

            def writer():
                for oid in trucks[:8]:
                    db.update(oid, {"weight": 11999, "payload": 1})
                db.update(companies[0], {"location": "Tokyo"})
                db.delete(trucks[9])

            thread = threading.Thread(target=writer)
            thread.start()
            thread.join()
            for text in texts:
                # The writer's commits are invisible: the same answers,
                # now read through full before-images cut to the read set.
                result = assert_parity(db, text)
                assert result.oids == before[text].oids
                assert result.rows == before[text].rows
            assert set(trucks[:8] + trucks[9:10]) <= set(db.version_store._chains)


class TestPartialStatesStayInside:
    TEXT = "SELECT v FROM Vehicle v WHERE v.weight > 0 ORDER BY v.weight"

    def full_names(self, db, state):
        return set(db.schema.attributes(state.class_name))

    def test_every_surface_sees_full_states(self):
        db = build(Database(), seed=5)
        result = db.execute(self.TEXT)
        assert result.plan.read_set == {"weight"}
        assert result.rows is None  # oids only: no state leaves
        oid = result.oids[0]

        state = db.get_state(oid)
        assert set(state.values) == self.full_names(db, state)

        with db.select_iter(self.TEXT) as stream:
            streamed = stream.next_state()
        assert set(streamed.values) == self.full_names(db, streamed)

        workspace = ObjectWorkspace(db)
        resident = workspace.load(oid)
        assert set(resident.values) == self.full_names(db, state)

        with db.transaction():
            db.execute(self.TEXT)
            db.update(oid, {"weight": 1})
            images = [entry.before for entry in db.version_store._chains[oid]]
        assert images and all(
            set(image.values) == self.full_names(db, image) for image in images
        )
        logged = [r for r in db.wal._records if r.before is not None]
        assert set(logged[-1].before.values) == set(state.values)
        assert set(logged[-1].after.values) == set(state.values)
