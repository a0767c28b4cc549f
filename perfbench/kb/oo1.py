"""``oo1``: Cattell's OO1 on a durable, file-backed database whose data
file (about 6.5 MB) is larger than the 1 MB buffer pool."""

from __future__ import annotations

import os
import random
from collections import defaultdict
from typing import Any, Callable, Dict, List, Set

from repro import Database
from repro.bench.oo1 import CONNECTION_TYPES, PART_TYPES, TRAVERSAL_DEPTH, OO1Data
from repro.core.attribute import AttributeDef
from repro.workspace.cache import ObjectWorkspace

from .common import (
    Results,
    Spans,
    Workload,
    check,
    crash_copy,
    file_bytes,
    median,
    ratio,
    user_bytes,
)

N_PARTS = 5000
#: Objects per load transaction (the stock one-transaction loader is
#: quadratic in transaction size).
LOAD_BATCH = 500
#: The fixed interleave of one round: 14 lookups, 3 navigates, 3 writes.
ROUND = "LLLLNLLWLLLNLLWLLNLW"
LOOKUP_TEXT = "SELECT p FROM Part p WHERE p.part_id = %d"
#: OIDs per navigate whose ``StorageManager.load`` the traced run times.
LOAD_PROBES = 64


class OO1(Workload):
    name = "oo1"
    SCAN_ROOT = "Part"

    def __init__(self, seed: int, workdir: str, tick: Callable[[], None]) -> None:
        super().__init__()
        self.path = os.path.join(workdir, "oo1")
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.probe_rng = random.Random(seed ^ 0x5EED)
        data = OO1Data(N_PARTS, seed=seed)
        #: Generator-side model: part id -> targets, part id -> build.
        self.targets: Dict[int, List[int]] = defaultdict(list)
        for from_id, to_id, _ctype, _length in data.connections:
            self.targets[from_id].append(to_id)
        self.build = {pid: part[3] for pid, part in enumerate(data.parts, start=1)}
        self.next_id = N_PARTS + 1
        #: Acknowledged writes: new part id -> its values.
        self.written: Dict[int, Dict[str, Any]] = {}
        self.db = db = Database(self.path)
        db.define_class(
            "Connection2",
            attributes=[
                AttributeDef("ctype", "String"),
                AttributeDef("length", "Integer"),
                AttributeDef("target", "Any"),
            ],
        )
        db.define_class(
            "Part",
            attributes=[
                AttributeDef("part_id", "Integer", required=True),
                AttributeDef("ptype", "String"),
                AttributeDef("x", "Integer"),
                AttributeDef("y", "Integer"),
                AttributeDef("build", "Integer"),
                AttributeDef("to", "Connection2", multi=True),
            ],
        )
        self.part_oids: Dict[int, Any] = {}
        parts = [
            (pid, {"part_id": pid, "ptype": p[0], "x": p[1], "y": p[2], "build": p[3], "to": []})
            for pid, p in enumerate(data.parts, start=1)
        ]
        for batch in _batches(parts):
            with db.transaction():
                for pid, values in batch:
                    self.part_oids[pid] = db.new("Part", values).oid
                    self.user_bytes += user_bytes(values)
            tick()
        outgoing: Dict[int, List[Any]] = defaultdict(list)
        for batch in _batches(data.connections):
            with db.transaction():
                for from_id, to_id, ctype, length in batch:
                    values = {"ctype": ctype, "length": length, "target": self.part_oids[to_id]}
                    outgoing[from_id].append(db.new("Connection2", values).oid)
                    self.user_bytes += user_bytes(values)
            tick()
        for batch in _batches(sorted(outgoing.items())):
            with db.transaction():
                for from_id, oids in batch:
                    db.update(self.part_oids[from_id], {"to": oids})
                    self.user_bytes += 8 * len(oids)
            tick()
        db.create_hierarchy_index("Part", "part_id")
        db.analyze()
        db.checkpoint()
        warm = random.Random(seed ^ 0x3A3)
        for _ in range(3):
            db.select(LOOKUP_TEXT % warm.randrange(1, N_PARTS + 1))
        self._traverse(ObjectWorkspace(db, policy="lazy"), warm.randrange(1, N_PARTS + 1))

    # -- ops ---------------------------------------------------------------------

    def round(self, results: Results) -> None:
        for code in ROUND:
            if code == "L":
                self.lookup(results)
            elif code == "N":
                self.navigate(results)
            else:
                self.write(results)

    def lookup(self, results: Results) -> None:
        db = self.db
        key = self.rng.randrange(1, N_PARTS + 1)
        self.keys.append(key)
        if self.spans is not None:
            probe_key = self.probe_rng.randrange(1, N_PARTS + 1)
            self.probe_query(LOOKUP_TEXT % probe_key)
            self.probe("index_eq", db.indexes.get("ch_Part_part_id").lookup_eq, probe_key)

        def run():
            return [(h.oid, h["part_id"], h["build"]) for h in db.select(LOOKUP_TEXT % key)]

        ok, rows = self.op(results, "lookup", run)
        if ok:
            check(rows == [(self.part_oids[key], key, self.build[key])],
                  "oo1 lookup %d returned %r", key, rows)

    def navigate(self, results: Results) -> None:
        root = self.rng.randrange(1, N_PARTS + 1)
        self.keys.append(root)
        workspace = ObjectWorkspace(self.db, policy="lazy")
        if self.spans is not None:
            self.spans.wrap(workspace, "load", "workspace.load", restore=False)
        ok, out = self.op(results, "navigate", lambda: self._traverse(workspace, root))
        if not ok:
            return
        visits, seen = out
        expected_visits, expected_seen = self._closure(root)
        check(visits == expected_visits and seen == expected_seen,
              "oo1 navigate from %d: %d visits over %d parts, expected %d over %d",
              root, visits, len(seen), expected_visits, len(expected_seen))
        if self.spans is not None:
            stats = workspace.stats
            self.probes["ws_hit_ratio"].append(ratio(stats.hits, stats.hits + stats.faults))
            self.probes["ws_objects"].append(stats.loads)
            touched = sorted(seen)
            step = max(1, len(touched) // LOAD_PROBES)
            for pid in touched[::step][:LOAD_PROBES]:
                self.probe("storage_load", self.db.storage.load, self.part_oids[pid])

    def _traverse(self, workspace: ObjectWorkspace, root: int) -> tuple:
        """OO1 depth-7 traversal; visits count repeats, as OO1 does."""
        visits = 0
        seen: Set[int] = set()

        def walk(part, level: int) -> None:
            nonlocal visits
            visits += 1
            seen.add(part["part_id"])
            if level == 0:
                return
            for connection in part.refs("to"):
                target = connection.ref("target")
                if target is not None:
                    walk(target, level - 1)

        walk(workspace.load(self.part_oids[root]), TRAVERSAL_DEPTH)
        return visits, seen

    def _closure(self, root: int) -> tuple:
        """Visit count and distinct parts of the traversal, from the model."""
        seen = {root}
        frontier = {root}
        for _level in range(TRAVERSAL_DEPTH):
            frontier = {t for pid in frontier for t in self.targets[pid]}
            seen |= frontier
        return _visits(self.targets, root, TRAVERSAL_DEPTH, {}), seen

    def write(self, results: Results) -> None:
        db = self.db
        rng = self.rng
        part_id = self.next_id
        self.next_id += 1
        values = {
            "part_id": part_id,
            "ptype": PART_TYPES[part_id % len(PART_TYPES)],
            "x": rng.randrange(100000),
            "y": rng.randrange(100000),
            "build": rng.randrange(10000),
            "to": [],
        }
        links = [
            {"ctype": CONNECTION_TYPES[0], "length": rng.randrange(1000),
             "target": self.part_oids[rng.randrange(1, N_PARTS + 1)]}
            for _ in range(3)
        ]
        updated = rng.randrange(1, N_PARTS + 1)
        build = rng.randrange(10000)
        self.keys.append((updated, build))

        def run():
            with db.transaction():
                oid = db.new("Part", values).oid
                connections = [db.new("Connection2", link).oid for link in links]
                db.update(oid, {"to": connections})
                db.update(self.part_oids[updated], {"build": build})
            return oid, connections

        ok, out = self.op(results, "write", run)
        if not ok:
            return
        oid, connections = out
        self.part_oids[part_id] = oid
        self.build[updated] = build
        self.written[part_id] = dict(values, to=connections)
        self.user_bytes += user_bytes(values) + sum(map(user_bytes, links)) + 8 * 3 + 8
        self._check_written(db, part_id)
        check(db.get_state(self.part_oids[updated]).values["build"] == build,
              "oo1 write: build of part %d did not read back", updated)

    def _check_written(self, db: Database, part_id: int) -> None:
        state = db.get_state(self.part_oids[part_id])
        expected = self.written[part_id]
        check(all(state.values[k] == v for k, v in expected.items()),
              "oo1 write: part %d did not read back", part_id)

    # -- end of run ----------------------------------------------------------------

    def finish(self) -> int:
        """Recover a crash image of the files and read every acknowledged
        write back, then close (final checkpoint) and measure the files."""
        crashed = os.path.join(self.workdir, "crashed")
        crash_copy(self.path, crashed)
        recovered = Database(crashed)
        try:
            for part_id in sorted(self.written):
                self._check_written(recovered, part_id)
            for part_id, build in sorted(self.build.items()):
                check(recovered.get_state(self.part_oids[part_id]).values["build"] == build,
                      "oo1 durability: build of part %d lost", part_id)
        finally:
            recovered.close()
        self.db.close()
        return file_bytes(self.path)

    def close(self) -> None:
        self.db.close()

    def text_metrics(self, spans: Spans) -> Dict[str, Any]:
        probes = self.probes
        return {
            "workspace.load_us": 1e6 * median(spans.durations("workspace.load")),
            "workspace.hit_ratio": median(probes["ws_hit_ratio"]),
            "workspace.objects_per_navigate": median(probes["ws_objects"]),
        }


def _batches(items: List[Any]) -> List[List[Any]]:
    items = list(items)
    return [items[i:i + LOAD_BATCH] for i in range(0, len(items), LOAD_BATCH)]


def _visits(targets: Dict[int, List[int]], pid: int, level: int, memo: Dict) -> int:
    if level == 0:
        return 1
    key = (pid, level)
    if key not in memo:
        memo[key] = 1 + sum(_visits(targets, t, level - 1, memo) for t in targets[pid])
    return memo[key]
