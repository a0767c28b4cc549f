"""E16: static rewrite throughput and plan-cache hit behavior.

Two phases over the Figure 1 population:

1. **rewrite sweep** — a generated battery of distinct queries, each
   carrying at least one rewritable shape (implied conjuncts, double
   negation, redundant IN lists), driven through the full front end.
   This exercises the ``rewrite.*`` counters the benchgate now gates:
   more rewrite work for the same battery is a regression.

2. **hot query** — one FIG1-style query executed repeatedly.  The first
   execution pays parse/analyze/rewrite/plan and populates the plan
   cache; every subsequent execution must be a deterministic cache hit
   (asserted exactly: N-1 hits for N runs, zero additional parses) with
   results identical to the first.  The contradiction variant runs with
   zero objects examined through the EmptyScan short circuit.

The emitted ``BENCH_rewrite`` artifact carries cold/hot timings plus the
engine metric snapshot (``query.plan_cache.*``, ``rewrite.*``), so perf
PRs diff cache behavior rather than stdout tables.
"""

import pytest
from conftest import emit_bench_artifact, print_table, timed

from repro import Database
from repro.bench.schemas import build_vehicle_schema, populate_vehicles

N_VEHICLES = 500
SWEEP_QUERIES = 120
HOT_RUNS = 200

HOT_QUERY = (
    "SELECT v FROM Vehicle v "
    "WHERE v.weight > 7500 AND v.manufacturer.location = 'Detroit'"
)
CONTRADICTION = (
    "SELECT v FROM Vehicle v WHERE v.weight > 7500 AND v.weight < 7500"
)


@pytest.fixture(scope="module")
def bench_db():
    db = Database()
    build_vehicle_schema(db)
    populate_vehicles(db, n_vehicles=N_VEHICLES, n_companies=20, seed=1990)
    yield db
    db.close()


def _sweep_query(i):
    """A distinct query whose WHERE always has something to rewrite."""
    low = 1000 + i * 37
    high = low - 1 if i % 10 == 0 else low + 4000  # every 10th: contradiction
    return (
        "SELECT v FROM Vehicle v WHERE v.weight > %d AND v.weight > %d "
        "AND v.weight < %d AND NOT NOT (v.color IN ('red', 'blue', 'red'))"
        % (low - 500, low, high)
    )


def test_rewrite_sweep_and_hot_query_cache(bench_db):
    db = bench_db

    # -- phase 1: rewrite sweep over distinct queries ----------------------
    sweep_seconds, _ = timed(
        lambda: [db.plan(_sweep_query(i)) for i in range(SWEEP_QUERIES)]
    )
    snap = db.metrics.snapshot()
    assert snap["rewrite.queries"] >= SWEEP_QUERIES
    assert snap["rewrite.rules_applied"] >= SWEEP_QUERIES
    assert snap["rewrite.contradictions"] == SWEEP_QUERIES // 10

    # -- phase 2: repeated hot query ---------------------------------------
    cold_seconds, first = timed(db.execute, HOT_QUERY)
    first_oids = list(first.oids)
    assert first_oids, "Detroit heavyweights exist by construction"
    hits_before = db.metrics.snapshot()["query.plan_cache.hits"]
    parses_before = db.metrics.snapshot()["query.parses"]

    hot_total = 0.0
    for _run in range(HOT_RUNS - 1):
        seconds, result = timed(db.execute, HOT_QUERY)
        hot_total += seconds
        assert list(result.oids) == first_oids

    after = db.metrics.snapshot()
    # Deterministic hit behavior: every re-execution is a cache hit on
    # the source fast path — no re-parse, no re-plan.
    assert after["query.plan_cache.hits"] - hits_before == HOT_RUNS - 1
    assert after["query.parses"] == parses_before
    hot_seconds = hot_total / (HOT_RUNS - 1)

    # -- contradiction short circuit ---------------------------------------
    empty_seconds, empty = timed(db.execute, CONTRADICTION)
    assert list(empty.oids) == []
    assert empty.pipeline.examined == 0

    rows = [
        ("rewrite sweep (%d queries)" % SWEEP_QUERIES, "%.1f" % (sweep_seconds * 1e3)),
        ("hot query, cold", "%.3f" % (cold_seconds * 1e3)),
        ("hot query, cached (avg)", "%.3f" % (hot_seconds * 1e3)),
        ("contradiction (empty scan)", "%.3f" % (empty_seconds * 1e3)),
    ]
    print_table("E16 rewrite & plan cache", ("phase", "ms"), rows)

    emit_bench_artifact(
        "rewrite",
        {
            "series": [
                {"plan": "sweep", "ms": sweep_seconds * 1e3},
                {"plan": "hot-cold", "ms": cold_seconds * 1e3},
                {"plan": "hot-cached", "ms": hot_seconds * 1e3},
                {"plan": "contradiction", "ms": empty_seconds * 1e3},
            ],
            "sweep_queries": SWEEP_QUERIES,
            "hot_runs": HOT_RUNS,
            "cache_hits": after["query.plan_cache.hits"] - hits_before,
            "cache_entries": len(db.plan_cache),
        },
        db,
    )
