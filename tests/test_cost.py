"""The statistics-driven cost model (``repro.query.cost``).

Covers the PR-10 optimizer tentpole:

* selectivity estimation — equality via distinct-key counts, ranges via
  the equi-depth histogram with *provable* bounds (hypothesis checks
  ``floor <= true <= ceiling`` on randomized distributions);
* access-path choice — selective probes win, unselective predicates
  fall back to the scan even with an index available, ORDER BY + LIMIT
  walks the index only when the limit is small enough to pay off;
* oracle parity — the cost model may change *plans* but never query
  *results* (hypothesis compares against a forced extent scan);
* live statistics — without a fresh catalog the same model costs from
  maintained counts, which equal what ANALYZE would measure (hypothesis
  over random inserts, updates and deletes);
* the staleness contract — a moved schema version or index epoch sends
  the model to live counts, with the EXPLAIN warning and the ``stale``
  column on SysClassStat / SysIndexStat;
* the plan-cache re-cost protocol — a fresh ANALYZE re-costs cached
  entries, keeping stable winners and invalidating flipped ones;
* the ``query.cost.*`` metric family and the EXPLAIN ``-- cost --``
  section (estimated vs. SysQueryStat-observed rows);
* the ``python -m repro.tools.analyze --demo --explain`` CI smoke.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AttributeDef, Database
from repro.obs.stats import IndexStat, equi_depth_histogram
from repro.query.ast import And, Comparison, Const, Path, Query
from repro.query.cost import (
    CostModel,
    equality_rows,
    range_estimate,
)
from repro.query.planner import (
    ExtentScan,
    IndexEqProbe,
    IndexOrderScan,
    IndexRangeProbe,
)


def _stat_for(values, buckets=8):
    counts = sorted(Counter(values).items())
    boundaries, depths = equi_depth_histogram(counts, buckets)
    return IndexStat(
        "idx",
        "single-class",
        "C",
        "a",
        len(values),
        len(counts),
        boundaries,
        min(values),
        max(values),
        depths=depths,
    )


def _db(rows, index=True, **kwargs):
    db = Database(use_locks=False, **kwargs)
    db.define_class(
        "Item",
        attributes=[
            AttributeDef("a", "Integer"),
            AttributeDef("b", "Integer", default=0),
        ],
    )
    for row in rows:
        db.new("Item", row if isinstance(row, dict) else {"a": row})
    if index:
        db.create_class_index("Item", "a")
    return db


# -- histogram estimates (property) ------------------------------------------


class TestHistogramProperties:
    @given(
        values=st.lists(st.integers(-500, 500), min_size=1, max_size=300),
        buckets=st.integers(2, 16),
        bound_a=st.integers(-600, 600),
        bound_b=st.integers(-600, 600),
        include_low=st.booleans(),
        include_high=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_true_count_within_floor_and_ceiling(
        self, values, buckets, bound_a, bound_b, include_low, include_high
    ):
        low, high = min(bound_a, bound_b), max(bound_a, bound_b)
        stat = _stat_for(values, buckets)
        estimate = range_estimate(stat, low, include_low, high, include_high)
        true = sum(
            1
            for v in values
            if (v > low or (include_low and v == low))
            and (v < high or (include_high and v == high))
        )
        assert estimate.floor - 1e-9 <= true <= estimate.ceiling + 1e-9
        assert estimate.rows == pytest.approx(
            (estimate.floor + estimate.ceiling) / 2.0
        )

    @given(values=st.lists(st.integers(-100, 100), min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_whole_domain_estimate_is_exact(self, values):
        stat = _stat_for(values)
        estimate = range_estimate(stat, None, True, None, True)
        assert estimate.floor == estimate.ceiling == len(values)
        assert estimate.rows == len(values)

    def test_equality_average_duplication_and_domain_clamp(self):
        stat = _stat_for([1, 1, 2, 2, 3, 3])
        assert equality_rows(stat, 2) == pytest.approx(2.0)
        assert equality_rows(stat, 99) == 0.0  # above the indexed domain
        assert equality_rows(stat, -1) == 0.0  # below it


# -- oracle parity (property): plan choice never changes results -------------


class TestOracleParity:
    @given(
        values=st.lists(st.integers(0, 30), min_size=1, max_size=60),
        op=st.sampled_from(["=", "!=", "<", "<=", ">", ">=", "in"]),
        constant=st.integers(-2, 32),
        second=st.one_of(st.none(), st.integers(0, 32)),
    )
    @settings(max_examples=25, deadline=None)
    def test_cost_model_plans_match_forced_scan(
        self, values, op, constant, second
    ):
        db = _db(values)
        db.analyze()
        const = [constant, constant + 3] if op == "in" else constant
        where = Comparison(op, Path(("a",)), Const(const))
        if second is not None:
            where = And([where, Comparison(">=", Path(("a",)), Const(second))])
        query = Query("Item", where=where)
        plan = db.plan(query)
        # Contradictions may be rewritten away before costing; every
        # query that *does* reach the planner must be stats-costed.
        assert plan.cost is None or plan.cost.mode == "statistics"
        chosen = db.execute(query)
        forced_plan = db.planner.plan(Query("Item", where=where))
        forced_plan.access = ExtentScan(sorted(forced_plan.scope))
        forced_plan.residual = where
        forced = db._executor.execute(forced_plan)
        assert sorted(chosen.oids) == sorted(forced.oids)
        db.close()


# -- access-path decisions ---------------------------------------------------


class TestCostDecisions:
    def test_selective_equality_probes_the_index(self):
        db = _db(list(range(200)))
        db.analyze()
        plan = db.plan("SELECT i FROM Item i WHERE i.a = 7")
        assert isinstance(plan.access, IndexEqProbe)
        assert plan.cost.mode == "statistics"
        assert plan.cost.chosen.kind == "index-eq"
        assert len(plan.cost.candidates) == 2

    def test_unselective_equality_prefers_scan_despite_index(self):
        db = _db([5] * 200)  # every row has a = 5
        db.analyze()
        plan = db.plan("SELECT i FROM Item i WHERE i.a = 5")
        assert isinstance(plan.access, ExtentScan)
        assert plan.cost.mode == "statistics"
        by_kind = {c.kind: c for c in plan.cost.candidates}
        assert by_kind["extent-scan"].total < by_kind["index-eq"].total

    def test_narrow_range_probes_wide_range_scans(self):
        db = _db(list(range(400)))
        db.analyze()
        narrow = db.plan("SELECT i FROM Item i WHERE i.a >= 395")
        wide = db.plan("SELECT i FROM Item i WHERE i.a >= 5")
        assert isinstance(narrow.access, IndexRangeProbe)
        assert isinstance(wide.access, ExtentScan)

    def test_ordered_walk_only_when_limit_is_small(self):
        db = _db(list(range(300)))
        db.analyze()
        small = db.plan("SELECT i FROM Item i ORDER BY i.a LIMIT 5")
        large = db.plan("SELECT i FROM Item i ORDER BY i.a LIMIT 300")
        assert isinstance(small.access, IndexOrderScan)
        assert isinstance(large.access, ExtentScan)

    def test_no_statistics_means_no_decision(self):
        """No ANALYZE, no statistics decision: the model costs live counts."""
        db = _db(list(range(50)))
        explain = db.explain("SELECT i FROM Item i WHERE i.a = 7")
        decision = explain.plan.cost
        assert decision.mode == "live"
        assert decision.reason == "no ANALYZE statistics"
        assert decision.stale_reason is None
        assert isinstance(explain.plan.access, IndexEqProbe)
        # 50 entries over 50 distinct keys: one expected match.
        assert decision.chosen.rows == pytest.approx(1.0)
        text = explain.render()
        assert "model: live counts (no ANALYZE statistics" in text
        assert "run Database.analyze()" in text

    def test_missing_class_stat_falls_back(self):
        """A scope class absent from the catalog is costed from live counts."""
        db = _db(list(range(50)))
        db.analyze()
        del db.statistics.class_stats["Item"]
        explain = db.explain("SELECT i FROM Item i WHERE i.a = 7")
        decision = explain.plan.cost
        assert decision.mode == "live"
        assert decision.reason == "Item missing from the ANALYZE catalog"
        assert decision.stale_reason is None
        assert isinstance(explain.plan.access, IndexEqProbe)
        text = explain.render()
        assert "Item missing from the ANALYZE catalog" in text
        assert "run Database.analyze()" in text

    def test_conjunction_uses_independence_product(self):
        db = _db([{"a": i, "b": i % 2} for i in range(100)])
        db.analyze()
        model = CostModel(db.schema, db.indexes, db.statistics)
        where = And(
            [
                Comparison("=", Path(("a",)), Const(5)),
                Comparison("=", Path(("b",)), Const(1)),
            ]
        )
        decision = model.decide(Query("Item", where=where), {"Item"})
        # sel(a=5) = 1/100; sel(b=1) has no index -> default 0.1.
        assert decision.estimated_rows == pytest.approx(100 * 0.01 * 0.1)

    def test_live_version_entries_keep_the_index_plan(self):
        db = _db(list(range(100)))
        db.analyze()
        with db.transaction():
            items = db.select("Item where a = 0")
            db.update(items[0].oid, {"a": 7})
            # Version entries are live inside the transaction; the plan
            # does not depend on them: the probe still wins on its cost.
            assert db.version_store.entry_count > 0
            db.plan_cache.clear()
            plan = db.plan("SELECT i FROM Item i WHERE i.a = 7")
            assert isinstance(plan.access, IndexEqProbe)
            probe = [c for c in plan.cost.candidates if c.kind == "index-eq"][0]
            scan = [c for c in plan.cost.candidates if c.kind == "extent-scan"][0]
            assert probe.total < scan.total
            assert not probe.note
            # Read-your-own-writes through the probe: both a = 7 rows.
            result = db.execute("SELECT i FROM Item i WHERE i.a = 7")
            assert isinstance(result.plan.access, IndexEqProbe)
            assert sorted(db.get_state(oid).values["a"] for oid in result.oids) == [7, 7]
            assert result.stats.examined == 2


# -- live statistics (property) ----------------------------------------------


_VALUES = st.one_of(st.none(), st.integers(-20, 20))
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.sampled_from(["Base", "Sub"]), _VALUES),
        st.tuples(st.just("update"), st.integers(0, 1000), _VALUES),
        st.tuples(st.just("delete"), st.integers(0, 1000), st.none()),
    ),
    max_size=40,
)


class TestLiveStatistics:
    @given(ops=_OPS)
    @settings(max_examples=60, deadline=None)
    def test_live_facts_equal_analyze(self, ops):
        db = Database(use_locks=False)
        db.define_class("Base", attributes=[AttributeDef("a", "Integer")])
        db.define_class("Sub", superclasses=("Base",))
        db.create_hierarchy_index("Base", "a")
        db.create_class_index("Sub", "a")
        oids = []
        for kind, target, value in ops:
            if kind == "insert":
                oids.append(db.new(target, {"a": value}).oid)
            elif oids:
                oid = oids[target % len(oids)]
                if kind == "update":
                    db.update(oid, {"a": value})
                else:
                    db.delete(oid)
                    oids.remove(oid)
        live = db.planner.live
        catalog = db.analyze()
        for name, stat in catalog.class_stats.items():
            assert live.class_stats.get(name).rows == stat.rows
            assert live.class_rows(name) == stat.rows
        assert len(catalog.index_stats) == 2
        for name, stat in catalog.index_stats.items():
            got = live.index_stats.get(name)
            assert (got.entries, got.distinct_keys, got.low, got.high) == (
                stat.entries,
                stat.distinct_keys,
                stat.low,
                stat.high,
            )
        db.close()


# -- staleness ---------------------------------------------------------------


class TestStaleness:
    def test_index_epoch_move_falls_back_with_explain_warning(self):
        """A stale catalog is bypassed for live counts, with a warning."""
        db = _db(list(range(100)))
        db.analyze()
        db.create_class_index("Item", "b")  # bumps the index epoch
        explain = db.explain("SELECT i FROM Item i WHERE i.a = 7")
        decision = explain.plan.cost
        assert decision.mode == "live"
        assert decision.stale_reason == "index epoch moved 1 -> 2"
        assert decision.reason == "statistics are stale (index epoch moved 1 -> 2)"
        assert isinstance(explain.plan.access, IndexEqProbe)
        text = explain.render()
        assert "-- cost --" in text
        assert "WARNING: statistics are stale (index epoch moved 1 -> 2)" in text
        assert "re-run Database.analyze()" in text

    def test_sysviews_surface_stale_reason(self):
        db = _db(list(range(50)))
        db.analyze()
        fresh = db.select("SysClassStat")
        assert fresh and fresh[0]["stale"] == ""
        db.create_class_index("Item", "b")
        stale_rows = db.select("SysClassStat")
        assert "index epoch moved" in stale_rows[0]["stale"]
        index_rows = db.select("SysIndexStat")
        assert all("index epoch moved" in row["stale"] for row in index_rows)

    def test_reanalyze_clears_staleness(self):
        db = _db(list(range(50)))
        db.analyze()
        db.create_class_index("Item", "b")
        db.analyze()
        plan = db.plan("SELECT i FROM Item i WHERE i.a = 7")
        assert plan.cost.mode == "statistics"
        assert db.select("SysClassStat")[0]["stale"] == ""


# -- plan-cache re-cost protocol ---------------------------------------------


class TestPlanCacheRecost:
    SOURCE = "SELECT i FROM Item i WHERE i.a = 5"

    def test_stable_winner_survives_reanalyze(self):
        db = _db(list(range(100)))
        db.analyze()
        plan = db.plan(self.SOURCE)
        assert isinstance(plan.access, IndexEqProbe)
        db.analyze()  # nothing changed: the entry must survive
        assert db.metrics.counter("query.cost.plan_cache_recosts").value >= 1
        assert db.metrics.counter("query.cost.plan_cache_flips").value == 0
        again = db.plan(self.SOURCE)
        assert again.cached and isinstance(again.access, IndexEqProbe)

    def test_flipped_winner_is_invalidated(self):
        db = _db([5] * 100)
        db.analyze()
        plan = db.plan(self.SOURCE)
        assert isinstance(plan.access, ExtentScan)  # a=5 matches everything
        # Make the column selective, then re-ANALYZE: the winner flips
        # to the index probe and the cached scan entry must be dropped.
        for position, item in enumerate(db.select("Item")):
            db.update(item.oid, {"a": position})
        db.analyze()
        assert db.metrics.counter("query.cost.plan_cache_flips").value >= 1
        fresh = db.plan(self.SOURCE)
        assert not fresh.cached
        assert isinstance(fresh.access, IndexEqProbe)
        assert db.execute(self.SOURCE).stats.matched == 1

    def test_sysplancache_reports_cost_mode(self):
        db = _db(list(range(50)))
        db.analyze()
        db.plan(self.SOURCE)
        rows = db.select("SysPlanCache")
        assert rows and rows[0]["cost_mode"] == "statistics"

    def test_sysplancache_reports_live_cost_mode(self):
        db = _db(list(range(50)))
        db.plan(self.SOURCE)
        rows = db.select("SysPlanCache")
        assert rows and rows[0]["cost_mode"] == "live"


# -- metrics and EXPLAIN feedback --------------------------------------------


class TestCostObservability:
    def test_query_cost_metric_family(self):
        db = _db(list(range(100)))
        db.execute("SELECT i FROM Item i WHERE i.a = 7")
        assert db.metrics.counter("query.cost.decisions_live").value == 1
        assert db.metrics.counter("query.cost.decisions_statistics").value == 0
        assert db.metrics.counter("query.cost.candidates").value == 2
        # Estimated-vs-actual rows measure the ANALYZE catalog only.
        assert db.metrics.counter("query.cost.estimated_rows").value == 0
        db.analyze()
        db.execute("SELECT i FROM Item i WHERE i.a = 8")
        assert db.metrics.counter("query.cost.decisions_statistics").value == 1
        assert db.metrics.counter("query.cost.candidates").value == 4
        assert db.metrics.counter("query.cost.estimated_rows").value == 1
        assert db.metrics.counter("query.cost.actual_rows").value == 1
        db.create_class_index("Item", "b")
        explain = db.explain("SELECT i FROM Item i WHERE i.a = 9")
        assert db.metrics.counter("query.cost.stale_fallbacks").value == 1
        assert db.metrics.counter("query.cost.decisions_live").value == 2
        assert explain.plan.cost.stale_reason == "index epoch moved 1 -> 2"
        assert "re-run Database.analyze()" in explain.render()

    def test_explain_shows_estimated_vs_observed(self):
        db = _db(list(range(80)))
        db.analyze()
        source = "SELECT i FROM Item i WHERE i.a < 4"
        db.execute(source)
        text = db.explain(source).render()
        assert "-- cost --" in text
        assert "model: statistics" in text
        assert "<- chosen" in text
        assert "observed (SysQueryStat" in text
        assert "estimated/observed rows:" in text

    def test_explain_without_stats_names_the_remedy(self):
        db = _db(list(range(10)))
        explain = db.explain("SELECT i FROM Item i WHERE i.a = 1")
        assert explain.plan.cost.mode == "live"
        assert explain.plan.cost.stale_reason is None
        text = explain.render()
        assert "-- cost --" in text
        assert "model: live counts (no ANALYZE statistics" in text
        assert "run Database.analyze()" in text
        assert "<- chosen" in text


# -- the CI plan-quality smoke ----------------------------------------------


class TestAnalyzeExplainSmoke:
    def test_demo_smoke_passes_and_writes_output(self, tmp_path):
        from repro.tools.analyze import main

        out = tmp_path / "plan-quality.txt"
        assert main(["--demo", "--explain", str(out)]) == 0
        text = out.read_text()
        assert "-- cost --" in text
        assert "model: statistics" in text
        assert "index-eq(" in text

    def test_explain_requires_demo(self, tmp_path):
        from repro.tools.analyze import main

        with pytest.raises(SystemExit):
            main(["--path", str(tmp_path / "x.kim"), "--explain", "out.txt"])
