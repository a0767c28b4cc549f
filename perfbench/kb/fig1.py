"""The Figure-1 vehicle schema: the in-memory read-only ``fig1-scan``
workload, and the loader the durable ``wire-mvcc`` workload shares."""

from __future__ import annotations

import random
from typing import Any, Callable, Dict

from repro import Database
from repro.bench.schemas import (
    CITIES,
    DRIVETRAIN_TYPES,
    FIG1_QUERY,
    VEHICLE_CLASSES,
    build_vehicle_schema,
)

from .common import Results, Workload, check, median, user_bytes

N_VEHICLES = 2000
N_COMPANIES = 40
#: Objects per load transaction.
LOAD_BATCH = 500

#: The repeated scan shapes, in their fixed round-robin order.
SHAPES = {
    "fig1-path": FIG1_QUERY,
    "weight-range": "SELECT v FROM Vehicle v WHERE v.weight >= 4000 AND v.weight < 4400",
    "drivetrain-path": "SELECT v FROM Vehicle v WHERE v.drivetrain.horsepower > 440",
    "price-top10": "SELECT v FROM Vehicle v ORDER BY v.price LIMIT 10",
    "truck-count": "SELECT COUNT(t) FROM Truck t",
}


class VehicleModel:
    """Generator-side copy of every vehicle's values, with the loader.

    Follows :func:`repro.bench.schemas.populate_vehicles`' distribution,
    but loads through bounded transactions and keeps the values so the
    oracle can answer every query by brute force."""

    def __init__(self, db: Database, seed: int, tick: Callable[[], None]) -> None:
        rng = random.Random(seed)
        build_vehicle_schema(db)
        self.user_bytes = 0
        company_classes = ("Company", "AutoCompany", "TruckCompany", "JapaneseAutoCompany")
        n_detroit = N_COMPANIES // 4
        companies = []
        for position in range(N_COMPANIES):
            location = "Detroit" if position < n_detroit else CITIES[1 + rng.randrange(len(CITIES) - 1)]
            companies.append((company_classes[position % 4],
                              {"name": "company-%d" % position, "location": location}))
        rows = []
        for position in range(N_VEHICLES):
            cls = VEHICLE_CLASSES[position % len(VEHICLE_CLASSES)]
            drivetrain = {"type": DRIVETRAIN_TYPES[position % len(DRIVETRAIN_TYPES)],
                          "horsepower": 80 + rng.randrange(400)}
            values = {
                "weight": 1000 + rng.randrange(11001),
                "color": ("red", "blue", "white", "black")[position % 4],
                "price": 5000 + rng.randrange(95000),
                "manufacturer": rng.randrange(N_COMPANIES),
            }
            if cls in ("Automobile", "DomesticAutomobile"):
                values["doors"] = 2 + 2 * (position % 2)
            elif cls == "Truck":
                values["payload"] = 1000 + rng.randrange(20000)
            rows.append((cls, drivetrain, values))

        self.company_location: Dict[Any, str] = {}
        company_oids = []
        with db.transaction():
            for cls, values in companies:
                oid = db.new(cls, values).oid
                company_oids.append(oid)
                self.company_location[oid] = values["location"]
                self.user_bytes += user_bytes(values)
        #: oid -> (class, values with OID references, horsepower)
        self.vehicles: Dict[Any, tuple] = {}
        for start in range(0, len(rows), LOAD_BATCH):
            with db.transaction():
                for cls, drivetrain, values in rows[start:start + LOAD_BATCH]:
                    values = dict(values, manufacturer=company_oids[values["manufacturer"]])
                    values["drivetrain"] = db.new("VehicleDrivetrain", drivetrain).oid
                    oid = db.new(cls, values).oid
                    self.vehicles[oid] = (cls, values, drivetrain["horsepower"])
                    self.user_bytes += user_bytes(values) + user_bytes(drivetrain)
            tick()
        self.oids = sorted(self.vehicles)
        self.trucks = [oid for oid in self.oids if self.vehicles[oid][0] == "Truck"]
        self.automobiles = {oid for oid in self.oids
                            if self.vehicles[oid][0] in ("Automobile", "DomesticAutomobile")}

    def price(self, oid: Any) -> int:
        return self.vehicles[oid][1]["price"]

    def expected(self, shape: str) -> Any:
        """The brute-force answer of one scan shape."""
        items = [(oid, cls, values, hp) for oid, (cls, values, hp) in sorted(self.vehicles.items())]
        if shape == "fig1-path":
            return sorted(oid for oid, _c, v, _h in items
                          if v["weight"] > 7500
                          and self.company_location[v["manufacturer"]] == "Detroit")
        if shape == "weight-range":
            return sorted(oid for oid, _c, v, _h in items if 4000 <= v["weight"] < 4400)
        if shape == "drivetrain-path":
            return sorted(oid for oid, _c, _v, hp in items if hp > 440)
        if shape == "price-top10":
            return sorted(v["price"] for _o, _c, v, _h in items)[:10]
        return sum(1 for _o, cls, _v, _h in items if cls == "Truck")


def scan_answer(db: Database, shape: str, result: Any) -> Any:
    """A scan result in the oracle's form (read outside the timed op)."""
    if shape == "price-top10":
        return [db.get_state(oid).values["price"] for oid in result.oids]
    if shape == "truck-count":
        return list(result.rows[0].values())[0]
    return sorted(result.oids)


class Fig1Scan(Workload):
    name = "fig1-scan"
    SCAN_ROOT = "Vehicle"

    def __init__(self, seed: int, workdir: str, tick: Callable[[], None]) -> None:
        super().__init__()
        self.rng = random.Random(seed)
        self.db = db = Database()
        self.model = VehicleModel(db, seed, tick)
        self.user_bytes = self.model.user_bytes
        db.create_hierarchy_index("Vehicle", "price")
        db.analyze()
        self.answers = {shape: self.model.expected(shape) for shape in SHAPES}
        for text in SHAPES.values():
            db.execute(text)

    def round(self, results: Results) -> None:
        db = self.db
        for shape, text in SHAPES.items():
            if self.spans is not None:
                self.probe_query(text)
                self.probes["exec_self." + shape].append(self.probes["exec_self"][-1])
                price = self.model.price(self.rng.choice(self.model.oids))
                self.probe("index_eq", db.indexes.get("ch_Vehicle_price").lookup_eq, price)
            ok, result = self.op(results, "scan", lambda: db.execute(text))
            if not ok:
                continue
            answer = scan_answer(db, shape, result)
            self.keys.append(answer)
            check(answer == self.answers[shape], "fig1-scan %s: wrong answer", shape)
            if self.spans is not None and result.oids:
                for oid in result.oids[:16]:
                    self.probe("storage_load", db.storage.load, oid)

    def finish(self) -> int:
        """In memory: stored bytes are the allocated data pages."""
        pager = self.db.storage.pager
        return pager.page_count * self.db.storage.buffer.page_size

    def close(self) -> None:
        self.db.close()

    def text_metrics(self, spans) -> Dict[str, Any]:
        return {
            "executor.self_ms." + shape: 1e3 * median(self.probes["exec_self." + shape])
            for shape in SHAPES
        }
