"""EXPLAIN ANALYZE: plan trees annotated from live operator counters.

The planner's :class:`~repro.query.planner.Plan` records *what* it
chose (access path, residual, cost estimate); a timed execution leaves
actual row counts and wall-clock on the physical operators themselves
(:mod:`repro.query.operators`).  :func:`operator_tree` reads those
counters off the executed pipeline into a :class:`PlanNode` tree — no
separate annotation pass instruments the run.  ``Database.explain(query)``
returns the :class:`ExplainResult`: structured data (``.tree``) for
tools and a rendered string (``.render()``) for humans, closing the
Section 2.2 feedback loop between the optimizer's estimates and
observed work.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional


class PlanNode:
    """One pipeline stage of a plan, annotated with estimates + actuals."""

    __slots__ = ("op", "detail", "estimated_rows", "actual_rows", "actual_seconds", "meta", "children")

    def __init__(
        self,
        op: str,
        detail: str = "",
        estimated_rows: Optional[float] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.op = op
        self.detail = detail
        self.estimated_rows = estimated_rows
        self.actual_rows: Optional[int] = None
        self.actual_seconds: Optional[float] = None
        self.meta = meta or {}
        self.children: List["PlanNode"] = []

    def add(self, child: "PlanNode") -> "PlanNode":
        self.children.append(child)
        return child

    def annotate(self, rows: Optional[int] = None, seconds: Optional[float] = None) -> None:
        if rows is not None:
            self.actual_rows = (self.actual_rows or 0) + rows
        if seconds is not None:
            self.actual_seconds = (self.actual_seconds or 0.0) + seconds

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"op": self.op, "detail": self.detail}
        if self.estimated_rows is not None:
            out["estimated_rows"] = self.estimated_rows
        if self.actual_rows is not None:
            out["actual_rows"] = self.actual_rows
        if self.actual_seconds is not None:
            out["actual_seconds"] = self.actual_seconds
        if self.meta:
            out["meta"] = dict(self.meta)
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    def render(self, depth: int = 0) -> str:
        parts = []
        if self.estimated_rows is not None:
            parts.append("est=%.1f" % self.estimated_rows)
        if self.actual_rows is not None:
            parts.append("rows=%d" % self.actual_rows)
        if self.actual_seconds is not None:
            parts.append("time=%.3fms" % (self.actual_seconds * 1e3))
        parts.extend("%s=%s" % kv for kv in sorted(self.meta.items()))
        annotation = " (%s)" % " ".join(parts) if parts else ""
        prefix = "%s-> " % ("  " * depth) if depth else ""
        detail = " [%s]" % self.detail if self.detail else ""
        lines = ["%s%s%s%s" % (prefix, self.op, detail, annotation)]
        lines.extend(child.render(depth + 1) for child in self.children)
        return "\n".join(lines)

    def find(self, op: str) -> Optional["PlanNode"]:
        """First node with the given op, depth-first from this node."""
        if self.op == op:
            return self
        for child in self.children:
            found = child.find(op)
            if found is not None:
                return found
        return None

    def __repr__(self) -> str:
        return "<PlanNode %s rows=%r>" % (self.op, self.actual_rows)


def operator_tree(plan, pipeline) -> PlanNode:
    """The executed pipeline's live counters as a PlanNode tree.

    Reads ``rows_out``/``elapsed`` straight off the physical operators
    (the pipeline must have run, normally timed).  Per-node seconds are
    *exclusive* — an operator's inclusive clock minus its input's — so
    stages add up to the root's total.  Imported lazily where needed so
    the query layer stays importable without obs loaded first.
    """
    from ..query.planner import (
        AdtIndexProbe,
        EmptyScan,
        ExtentScan,
        IndexEqProbe,
        IndexInProbe,
        IndexOrderScan,
        IndexRangeProbe,
        SystemScan,
    )

    query = plan.query
    root = PlanNode(
        "query",
        "%s%s" % (query.target_class, "" if query.hierarchy else " (ONLY)"),
        estimated_rows=plan.estimated_cost,
        meta={"scope": ",".join(sorted(plan.scope))},
    )
    root.annotate(rows=pipeline.root.rows_out, seconds=pipeline.root.elapsed)

    access = plan.access
    if isinstance(access, ExtentScan):
        op, access_kind = "extent-scan", "scan"
    elif isinstance(access, EmptyScan):
        op, access_kind = "empty-scan", "empty"
    elif isinstance(access, IndexEqProbe):
        op, access_kind = "index-eq-probe", "index"
    elif isinstance(access, IndexInProbe):
        op, access_kind = "index-in-probe", "index"
    elif isinstance(access, IndexRangeProbe):
        op, access_kind = "index-range-probe", "index"
    elif isinstance(access, AdtIndexProbe):
        op, access_kind = "adt-index-probe", "index"
    elif isinstance(access, IndexOrderScan):
        op, access_kind = "index-order-scan", "index-order"
    elif isinstance(access, SystemScan):
        op, access_kind = "system-scan", "system"
    else:  # future access paths degrade gracefully
        op, access_kind = type(access).__name__, "unknown"
    source = pipeline.source
    access_node = root.add(
        PlanNode(
            op,
            access.description,
            estimated_rows=plan.estimated_cost,
            meta={"access": access_kind},
        )
    )
    access_node.annotate(rows=source.rows_out, seconds=source.elapsed)
    if pipeline.probe is not None:
        access_node.meta["probe_rows"] = pipeline.probe.rows_out

    def stage(node_op: str, detail: str, operator) -> None:
        node = root.add(PlanNode(node_op, detail))
        upstream = operator.child.elapsed if operator.child is not None else 0.0
        node.annotate(
            rows=operator.rows_out,
            seconds=max(0.0, operator.elapsed - upstream),
        )

    if query.where is not None and pipeline.filter is not None:
        stage("filter", repr(query.where), pipeline.filter)
    if pipeline.aggregate is not None:
        stage("aggregate", pipeline.aggregate.detail, pipeline.aggregate)
    if pipeline.sort is not None:
        stage("sort", pipeline.sort.detail, pipeline.sort)
    if pipeline.limit is not None:
        stage("limit", pipeline.limit.detail, pipeline.limit)
    if pipeline.project is not None:
        stage("project", pipeline.project.detail, pipeline.project)
    return root


class ExplainResult:
    """What ``Database.explain`` returns: tree + stats + rendering."""

    def __init__(
        self, plan, root: PlanNode, result, diagnostics=None, querystats=None
    ) -> None:
        self.plan = plan
        self.root = root
        self.result = result
        #: The :class:`~repro.analysis.diagnostics.DiagnosticReport` from
        #: the semantic-analysis pass (None when analysis was skipped).
        self.diagnostics = diagnostics
        #: The query's accumulated SysQueryStat entry (duck-typed
        #: :class:`~repro.obs.querystats.QueryStatEntry` or None): the
        #: observed-rows side of the ``-- cost --`` section.
        self.querystats = querystats

    @property
    def tree(self) -> Dict[str, Any]:
        """The annotated plan as plain nested dicts (JSON-ready)."""
        return self.root.to_dict()

    def render(self) -> str:
        pipeline = self.result.pipeline
        lines = [self.plan.explain(), "-- execution --"]
        lines.append("objects examined: %d" % pipeline.examined)
        lines.append("objects matched: %d" % pipeline.matched)
        lines.append("index probes: %d" % pipeline.index_probes)
        if self.plan.estimated_cost:
            lines.append(
                "estimate accuracy: %.2fx (examined/estimated)"
                % (pipeline.examined / self.plan.estimated_cost)
            )
        lines.append("-- plan --")
        lines.append(self.root.render())
        lines.extend(self._cost_lines())
        rewrite = getattr(self.plan, "rewrite", None)
        if rewrite is not None and (rewrite.rules or getattr(self.plan, "cached", False)):
            lines.append("-- rewrite --")
            if getattr(self.plan, "cached", False):
                lines.append("plan cache: hit")
            for name, detail in rewrite.rules:
                lines.append("%s: %s" % (name, detail) if detail else name)
        if self.diagnostics is not None and len(self.diagnostics):
            lines.append("-- analysis --")
            lines.append(self.diagnostics.render())
        return "\n".join(lines)

    def _cost_lines(self) -> List[str]:
        """The ``-- cost --`` section: the decision, every candidate's
        pages/rows totals, and estimated vs. SysQueryStat-observed rows."""
        decision = getattr(self.plan, "cost", None)
        lines = ["-- cost --"]
        if decision is None:
            lines.append(
                "model: none (%s has no alternative to cost)"
                % self.plan.access.description
            )
        else:
            if decision.mode == "statistics":
                lines.append(
                    "model: statistics (ANALYZE schema v%d, index epoch %d)"
                    % (decision.schema_version, decision.index_epoch)
                )
            else:
                lines.append(
                    "model: live counts (%s — run Database.analyze() for "
                    "histogram estimates)" % decision.reason
                )
            if decision.stale_reason is not None:
                lines.append(
                    "WARNING: statistics are stale (%s) — costed from live "
                    "counts; re-run Database.analyze()" % decision.stale_reason
                )
            for candidate in decision.candidates:
                marker = "  <- chosen" if candidate.chosen else ""
                lines.append("candidate %s%s" % (candidate.describe(), marker))
            lines.append("estimated rows: %.1f" % decision.estimated_rows)
        entry = self.querystats
        if entry is not None and entry.calls:
            avg_examined = entry.rows_examined / float(entry.calls)
            avg_matched = entry.rows_matched / float(entry.calls)
            lines.append(
                "observed (SysQueryStat, %d call(s)): avg examined %.1f, "
                "avg matched %.1f" % (entry.calls, avg_examined, avg_matched)
            )
            if (
                decision is not None
                and decision.mode == "statistics"
                and avg_matched > 0
            ):
                lines.append(
                    "estimated/observed rows: %.2fx"
                    % (decision.estimated_rows / avg_matched)
                )
        return lines

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return "<ExplainResult %s rows=%r>" % (
            self.plan.access.description,
            self.root.actual_rows,
        )
