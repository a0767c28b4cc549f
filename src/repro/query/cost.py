"""Statistics-driven cost model for access-path selection.

The paper names query optimization as a core open research direction
for OODBs; this module is kimdb's System-R answer [SELI79] built on the
engine's own measurements.  ``Database.analyze()`` distills extents and
indexes into a :class:`~repro.obs.stats.StatisticsCatalog` (per-class
row counts and byte sizes, per-index distinct-key counts and equi-depth
histograms); :class:`CostModel` turns those facts into a
:class:`CostDecision` — every candidate access path costed in
*estimated pages read* plus *rows examined*, cheapest wins.

Selectivity estimation:

- equality / ``contains``: ``1 / distinct_keys`` (average duplication),
  clamped to zero when the probe value falls outside the indexed
  ``[low, high]`` domain;
- ``in``: the sum of the member equality estimates, capped at 1;
- ranges: equi-depth histogram bucket classification.  Buckets provably
  inside the interval contribute their full depth to both the floor and
  the ceiling of the estimate; buckets that merely overlap contribute
  only to the ceiling; the estimate is the midpoint, so the true row
  count always lies in ``[floor, ceiling]`` (the property the hypothesis
  suite checks);
- conjunctions: the product of conjunct selectivities (the classical
  independence assumption);
- disjunctions: inclusion-exclusion under the same assumption;
- class-hierarchy fan-in: scope cardinality is the *sum* of per-class
  ANALYZE row counts, so a hierarchy query is costed over every extent
  it will actually touch.

Cost units: one sequential page read costs :data:`PAGE_COST` row
examinations; an index match is a random object fetch (one page touch
per row) after :data:`BTREE_DESCEND_PAGES` to walk the tree.

The model is the planner's only way to pick an access path.  It never
runs on facts it cannot trust: when the catalog is missing, when
``stale_reason`` fires (schema version or index epoch moved since
ANALYZE), or when a scope class is absent from it, the planner hands
the model :class:`~repro.obs.stats.LiveStatistics` instead — the same
reads, answered from maintained counts, with uniform buckets in place
of histograms.  The resulting :class:`CostDecision` (``statistics`` or
``live``, with every candidate's numbers) rides on the plan for
EXPLAIN's ``-- cost --`` section and the plan cache's re-cost protocol.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from .ast import AdtPredicate, And, Comparison, Expr, Not, Or, Query, conjuncts

#: One sequential page read costs this many row examinations.
PAGE_COST = 4.0

#: Pages touched descending the B+-tree root-to-leaf per probe.
BTREE_DESCEND_PAGES = 2.0

#: Fallback selectivities for predicates with no covering index stat.
DEFAULT_EQ_SELECTIVITY = 0.1
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_LIKE_SELECTIVITY = 0.25
DEFAULT_OPAQUE_SELECTIVITY = 0.5


def _clamp(fraction: float) -> float:
    return min(1.0, max(0.0, fraction))


class RangeEstimate:
    """Histogram range estimate with provable bounds.

    ``floor`` counts entries in buckets wholly inside the interval,
    ``ceiling`` adds every bucket the interval merely overlaps, so the
    true match count always satisfies ``floor <= true <= ceiling``;
    ``rows`` is the midpoint.
    """

    __slots__ = ("rows", "floor", "ceiling")

    def __init__(self, rows: float, floor: float, ceiling: float) -> None:
        self.rows = rows
        self.floor = floor
        self.ceiling = ceiling

    def __repr__(self) -> str:
        return "<RangeEstimate %.1f in [%.1f, %.1f]>" % (
            self.rows,
            self.floor,
            self.ceiling,
        )


def equality_rows(stat: Any, value: Any) -> float:
    """Estimated entries matched by an equality probe on one index."""
    if stat.entries <= 0 or stat.distinct_keys <= 0:
        return 0.0
    try:
        if stat.low is not None and value < stat.low:
            return 0.0
        if stat.high is not None and value > stat.high:
            return 0.0
    except TypeError:
        # Probe value incomparable with the indexed domain (mixed
        # types): keep the average-duplication estimate.
        pass
    return stat.entries / float(stat.distinct_keys)


def _bucket_versus_interval(
    lo_edge: Any,
    lo_inclusive: bool,
    hi_edge: Any,
    low: Any,
    include_low: bool,
    high: Any,
    include_high: bool,
) -> str:
    """Classify one histogram bucket against a query interval.

    The bucket holds keys ``k`` with ``lo_edge < k <= hi_edge``
    (``lo_edge <= k`` for the first bucket, whose edge is the index
    minimum).  Returns ``"inside"``, ``"outside"`` or ``"partial"`` —
    conservative: only provable containment/exclusion, everything else
    is partial.
    """
    # Provably below the interval: every key <= hi_edge fails k >= low.
    if low is not None and (
        hi_edge < low or (hi_edge == low and not include_low)
    ):
        return "outside"
    # Provably above the interval: every key > / >= lo_edge fails k <= high.
    if high is not None and lo_edge is not None:
        if lo_inclusive:
            if lo_edge > high or (lo_edge == high and not include_high):
                return "outside"
        elif lo_edge >= high:
            return "outside"
    lower_ok = low is None or (
        lo_edge is not None
        and (
            (lo_edge > low or (lo_edge == low and include_low))
            if lo_inclusive
            else lo_edge >= low
        )
    )
    upper_ok = high is None or hi_edge < high or (
        hi_edge == high and include_high
    )
    if lower_ok and upper_ok:
        return "inside"
    return "partial"


def range_estimate(
    stat: Any,
    low: Any,
    include_low: bool,
    high: Any,
    include_high: bool,
) -> RangeEstimate:
    """Estimated entries in ``[low, high]`` from the equi-depth histogram."""
    entries = float(stat.entries)
    if entries <= 0:
        return RangeEstimate(0.0, 0.0, 0.0)
    boundaries = list(stat.boundaries)
    if not boundaries:
        return RangeEstimate(entries * DEFAULT_RANGE_SELECTIVITY, 0.0, entries)
    depths: List[float] = [float(d) for d in stat.depths]
    if len(depths) != len(boundaries):
        # Live uniform buckets, or a catalog that predates per-bucket
        # depths: assume uniform depth.
        depths = [entries / float(len(boundaries))] * len(boundaries)
    floor = 0.0
    ceiling = 0.0
    try:
        for i, (bound, depth) in enumerate(zip(boundaries, depths)):
            if i == 0:
                lo_edge, lo_inclusive = stat.low, True
            else:
                lo_edge, lo_inclusive = boundaries[i - 1], False
            kind = _bucket_versus_interval(
                lo_edge, lo_inclusive, bound, low, include_low, high, include_high
            )
            if kind == "inside":
                floor += depth
                ceiling += depth
            elif kind == "partial":
                ceiling += depth
    except TypeError:
        # Query bound incomparable with histogram keys: magic constant.
        return RangeEstimate(entries * DEFAULT_RANGE_SELECTIVITY, 0.0, entries)
    return RangeEstimate((floor + ceiling) / 2.0, floor, ceiling)


class CandidateCost:
    """One costed access-path alternative."""

    __slots__ = (
        "kind",
        "access",
        "pages",
        "rows",
        "selectivity",
        "residual",
        "rank",
        "chosen",
        "note",
    )

    def __init__(
        self,
        kind: str,
        access: Any,
        pages: float,
        rows: float,
        selectivity: float,
        residual: Optional[List[Expr]],
        rank: int,
        note: str = "",
    ) -> None:
        self.kind = kind
        self.access = access
        self.pages = pages
        self.rows = rows
        self.selectivity = selectivity
        #: Residual conjuncts to re-check above the access path; ``None``
        #: means "the full WHERE clause".
        self.residual = residual
        #: Tie-break preference (lower wins at equal total); the extent
        #: scan ranks first so equal-cost decisions stay boring.
        self.rank = rank
        self.chosen = False
        self.note = note

    @property
    def total(self) -> float:
        return self.pages * PAGE_COST + self.rows

    def describe(self) -> str:
        text = "%s: pages=%.1f rows=%.1f total=%.1f" % (
            self.access.description,
            self.pages,
            self.rows,
            self.total,
        )
        if self.note:
            text += " (%s)" % self.note
        return text


class CostDecision:
    """The outcome of one costing run: every candidate and the winner."""

    __slots__ = (
        "mode",
        "reason",
        "stale_reason",
        "candidates",
        "chosen",
        "estimated_rows",
        "schema_version",
        "index_epoch",
    )

    def __init__(
        self,
        mode: str,
        reason: str,
        candidates: List[CandidateCost],
        chosen: CandidateCost,
        estimated_rows: float,
        schema_version: int,
        index_epoch: int,
        stale_reason: Optional[str] = None,
    ) -> None:
        #: ``"statistics"`` when costed from a fresh ANALYZE catalog,
        #: ``"live"`` when from live counts (``reason`` says why).
        self.mode = mode
        self.reason = reason
        #: Set when a stale catalog was bypassed: what moved since ANALYZE.
        self.stale_reason = stale_reason
        self.candidates = candidates
        self.chosen = chosen
        self.estimated_rows = estimated_rows
        self.schema_version = schema_version
        self.index_epoch = index_epoch

    def __repr__(self) -> str:
        return "<CostDecision %s %s total=%.1f>" % (
            self.mode,
            self.chosen.access.description,
            self.chosen.total,
        )


class CostModel:
    """Costs every candidate access path for one query.

    ``stats`` is an ANALYZE :class:`~repro.obs.stats.StatisticsCatalog`
    or a :class:`~repro.obs.stats.LiveStatistics`; it must cover every
    class of the scope it is asked to cost.
    """

    def __init__(
        self,
        schema: Any,
        indexes: Any,
        stats: Any,
        page_size: int = 4096,
        adt_registry: Any = None,
    ) -> None:
        self.schema = schema
        self.indexes = indexes
        self.stats = stats
        self.page_size = max(1, int(page_size))
        self.adt_registry = adt_registry
        #: Index stats read by the current :meth:`decide` call.
        self._index_stats: Dict[str, Any] = {}

    # -- public API --------------------------------------------------------

    def decide(
        self,
        query: Query,
        scope: Set[str],
        facts: Any = None,
        ordered: Any = None,
    ) -> CostDecision:
        """Cost every candidate and pick the cheapest.

        ``ordered`` is the planner's (already soundness-checked)
        :class:`~repro.query.planner.IndexOrderScan` candidate or None.
        """
        self._index_stats = {}
        total_rows = 0.0
        scan_pages = 0.0
        for cls in sorted(scope):
            stat = self.stats.class_stats.get(cls)
            total_rows += stat.rows
            if stat.rows:
                scan_pages += max(
                    1.0, math.ceil(stat.total_bytes / float(self.page_size))
                )

        predicates = conjuncts(query.where)
        selectivities = [
            self._selectivity(query, predicate, scope) for predicate in predicates
        ]
        output_sel = 1.0
        for sel in selectivities:
            output_sel *= _clamp(sel)
        estimated_out = total_rows * output_sel

        candidates: List[CandidateCost] = [
            CandidateCost(
                "extent-scan",
                _extent_scan(sorted(scope)),
                scan_pages,
                total_rows,
                output_sel,
                None,
                rank=0,
            )
        ]
        for position, predicate in enumerate(predicates):
            candidate = self._probe_candidate(
                query, position, predicate, predicates, scope
            )
            if candidate is not None:
                candidates.append(candidate)
        for steps, bounds in (facts.ranges if facts is not None else {}).items():
            candidate = self._facts_candidate(query, steps, bounds, predicates, scope)
            if candidate is not None:
                candidates.append(candidate)
        if ordered is not None and query.limit is not None:
            need = float(query.limit)
            expected = min(
                total_rows,
                need / max(output_sel, 1e-9) if predicates else need,
            )
            candidates.append(
                CandidateCost(
                    "index-order",
                    ordered,
                    BTREE_DESCEND_PAGES + expected,
                    expected,
                    output_sel,
                    None,
                    rank=2,
                    note="ordered index scan stops after ~%.0f row(s) "
                    "for LIMIT %d"
                    % (expected, query.limit),
                )
            )

        chosen = min(
            candidates,
            key=lambda c: (c.total, c.rank, c.access.description),
        )
        chosen.chosen = True
        return CostDecision(
            self.stats.mode,
            "",
            candidates,
            chosen,
            estimated_out,
            self.stats.schema_version,
            self.stats.index_epoch,
        )

    # -- selectivity -------------------------------------------------------

    def _selectivity(self, query: Query, expr: Expr, scope: Set[str]) -> float:
        if isinstance(expr, Comparison):
            return self._comparison_selectivity(query, expr, scope)
        if isinstance(expr, And):
            sel = 1.0
            for child in expr.operands:
                sel *= _clamp(self._selectivity(query, child, scope))
            return sel
        if isinstance(expr, Or):
            miss = 1.0
            for child in expr.operands:
                miss *= 1.0 - _clamp(self._selectivity(query, child, scope))
            return 1.0 - miss
        if isinstance(expr, Not):
            return 1.0 - _clamp(self._selectivity(query, expr.operand, scope))
        if isinstance(expr, AdtPredicate) and self.adt_registry is not None:
            probe = self.adt_registry.access_method(
                expr.name, query.target_class, expr.path.steps, expr.args
            )
            if probe is not None:
                total = sum(
                    (self.stats.class_rows(cls) or 0) for cls in scope
                )
                if total > 0:
                    return _clamp(probe.estimated_matches() / float(total))
        return DEFAULT_OPAQUE_SELECTIVITY

    def _comparison_selectivity(
        self, query: Query, predicate: Comparison, scope: Set[str]
    ) -> float:
        stat = self._index_stat_for(query, predicate.path.steps, scope)
        op = predicate.op
        value = predicate.const.value
        if op in ("=", "contains"):
            if stat is not None and stat.entries > 0:
                return _clamp(equality_rows(stat, value) / float(stat.entries))
            return DEFAULT_EQ_SELECTIVITY
        if op == "in":
            try:
                members = list(value)
            except TypeError:
                members = [value]
            if stat is not None and stat.entries > 0:
                matched = sum(equality_rows(stat, v) for v in members)
                return _clamp(matched / float(stat.entries))
            return _clamp(len(members) * DEFAULT_EQ_SELECTIVITY)
        if op == "!=":
            if stat is not None and stat.entries > 0:
                return _clamp(
                    1.0 - equality_rows(stat, value) / float(stat.entries)
                )
            return 1.0 - DEFAULT_EQ_SELECTIVITY
        if op in ("<", "<=", ">", ">="):
            if stat is not None and stat.entries > 0:
                low, include_low, high, include_high = _one_sided_bounds(op, value)
                estimate = range_estimate(stat, low, include_low, high, include_high)
                return _clamp(estimate.rows / float(stat.entries))
            return DEFAULT_RANGE_SELECTIVITY
        if op == "like":
            return DEFAULT_LIKE_SELECTIVITY
        return DEFAULT_OPAQUE_SELECTIVITY

    def _index_stat_for(
        self, query: Query, steps: Sequence[str], scope: Set[str]
    ) -> Optional[Any]:
        index = self.indexes.find_index(query.target_class, steps, scope)
        if index is None:
            return None
        return self._index_stat(index.name)

    def _index_stat(self, name: str) -> Optional[Any]:
        """``stats.index_stats.get(name)``, read at most once per
        :meth:`decide` call: a live stat walks the index's tree."""
        if name not in self._index_stats:
            self._index_stats[name] = self.stats.index_stats.get(name)
        return self._index_stats[name]

    # -- candidates --------------------------------------------------------

    def _probe_candidate(
        self,
        query: Query,
        position: int,
        predicate: Expr,
        predicates: List[Expr],
        scope: Set[str],
    ) -> Optional[CandidateCost]:
        from .planner import (
            AdtIndexProbe,
            IndexEqProbe,
            IndexInProbe,
            IndexRangeProbe,
        )

        residual = predicates[:position] + predicates[position + 1 :]
        if isinstance(predicate, AdtPredicate) and self.adt_registry is not None:
            probe = self.adt_registry.access_method(
                predicate.name, query.target_class, predicate.path.steps,
                predicate.args,
            )
            if probe is None:
                return None
            matched = float(probe.estimated_matches())
            return CandidateCost(
                "adt-index",
                AdtIndexProbe(predicate, probe.run),
                BTREE_DESCEND_PAGES + matched,
                matched,
                _clamp(self._selectivity(query, predicate, scope)),
                residual,
                rank=3,
            )
        if not isinstance(predicate, Comparison):
            return None
        index = self.indexes.find_index(
            query.target_class, predicate.path.steps, scope
        )
        if index is None:
            return None
        stat = self._index_stat(index.name)
        if stat is None:
            # An index the catalog has never seen would mean the epoch
            # moved, which the staleness gate catches first; be safe.
            return None
        value = predicate.const.value
        entries = float(max(stat.entries, 1))
        if predicate.op in ("=", "contains"):
            matched = equality_rows(stat, value)
            return CandidateCost(
                "index-eq",
                IndexEqProbe(index, value),
                BTREE_DESCEND_PAGES + matched,
                matched,
                _clamp(matched / entries),
                residual,
                rank=1,
            )
        if predicate.op == "in":
            try:
                members = list(value)
            except TypeError:
                members = [value]
            matched = min(
                float(stat.entries),
                sum(equality_rows(stat, v) for v in members),
            )
            return CandidateCost(
                "index-in",
                IndexInProbe(index, members),
                len(members) * BTREE_DESCEND_PAGES + matched,
                matched,
                _clamp(matched / entries),
                residual,
                rank=1,
            )
        if predicate.op in ("<", "<=", ">", ">="):
            low, include_low, high, include_high = _one_sided_bounds(
                predicate.op, value
            )
            estimate = range_estimate(stat, low, include_low, high, include_high)
            return CandidateCost(
                "index-range",
                IndexRangeProbe(index, low, high, include_low, include_high),
                BTREE_DESCEND_PAGES + estimate.rows,
                estimate.rows,
                _clamp(estimate.rows / entries),
                residual,
                rank=2,
                note="histogram bounds [%.0f, %.0f]"
                % (estimate.floor, estimate.ceiling),
            )
        return None

    def _facts_candidate(
        self,
        query: Query,
        steps: Tuple[str, ...],
        bounds: Tuple[Any, bool, Any, bool],
        predicates: List[Expr],
        scope: Set[str],
    ) -> Optional[CandidateCost]:
        from .planner import IndexRangeProbe

        index = self.indexes.find_index(query.target_class, steps, scope)
        if index is None:
            return None
        stat = self._index_stat(index.name)
        if stat is None:
            return None
        low, include_low, high, include_high = bounds
        estimate = range_estimate(stat, low, include_low, high, include_high)
        entries = float(max(stat.entries, 1))
        # The probe enforces both bounds but the filter above rechecks
        # the full predicate, so the residual keeps every conjunct.
        return CandidateCost(
            "index-range",
            IndexRangeProbe(index, low, high, include_low, include_high),
            BTREE_DESCEND_PAGES + estimate.rows,
            estimate.rows,
            _clamp(estimate.rows / entries),
            list(predicates),
            rank=2,
            note="rewrite-derived interval; histogram bounds [%.0f, %.0f]"
            % (estimate.floor, estimate.ceiling),
        )


def _one_sided_bounds(op: str, value: Any) -> Tuple[Any, bool, Any, bool]:
    if op == "<":
        return None, True, value, False
    if op == "<=":
        return None, True, value, True
    if op == ">":
        return value, False, None, True
    return value, True, None, True


def _extent_scan(classes: Sequence[str]) -> Any:
    from .planner import ExtentScan

    return ExtentScan(classes)
