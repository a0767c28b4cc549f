"""Query executor: a thin driver over the physical operator pipeline.

A :class:`~repro.query.planner.Plan` is compiled (see
:mod:`repro.query.operators`) into a pull pipeline — leaf access path,
full-predicate re-check, sort/aggregate, limit, projection — and this
module merely drains it, collecting OIDs and projected rows in one
streaming pass.  Execution statistics are no longer counted here: they
*are* the operators' live ``rows_out`` counters, read off
``ResultSet.pipeline`` (``examined``, ``matched``, ``index_probes``) and
rolled up into the database :class:`~repro.obs.metrics.MetricsRegistry`
after each run.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional

from ..core.obj import ObjectState
from ..core.oid import OID
from ..obs.metrics import MetricsRegistry
from .ast import AdtPredicate, Query
from .operators import ObjectKernel, Pipeline, compile_plan
from .planner import Plan

ScanClass = Callable[[str], Iterable[ObjectState]]
Sender = Callable[..., Any]


class ResultSet:
    """Query results.

    ``oids`` is always populated (in result order).  For projection
    queries ``rows`` holds dicts keyed by dotted path; otherwise callers
    materialize handles through the database.  ``pipeline`` keeps the
    executed operator chain, so ``pipeline.examined``/``matched``/
    ``index_probes`` (and EXPLAIN ANALYZE) read its live counters.
    """

    def __init__(
        self,
        query: Query,
        plan: Plan,
        oids: List[OID],
        rows: Optional[List[Dict[str, Any]]],
        pipeline: Pipeline,
    ) -> None:
        self.query = query
        self.plan = plan
        self.oids = oids
        self.rows = rows
        self.pipeline = pipeline
        #: Annotated PlanNode root when executed under EXPLAIN ANALYZE.
        self.analysis = None
        #: True for system statistics views (rows are generated dicts;
        #: ``oids`` is empty and there is nothing to materialize).
        self.system = False

    def operator_stats(self) -> List[Dict[str, Any]]:
        """Per-operator counters, leaf first (bench artifacts)."""
        return self.pipeline.operator_stats()

    def __len__(self) -> int:
        return len(self.rows) if self.rows is not None else len(self.oids)

    def __repr__(self) -> str:
        return "<ResultSet %d results via %s>" % (len(self), self.plan.access.description)


class Executor:
    """Compiles plans to operator pipelines and drains them."""

    def __init__(
        self,
        deref: Callable[..., Optional[ObjectState]],
        scan_class: Callable[..., Iterable[ObjectState]],
        send: Optional[Sender] = None,
        adt_eval: Optional[Callable[[AdtPredicate, ObjectState], bool]] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        #: ``deref(oid, read)`` and ``scan_class(class_name, read)``:
        #: storage reads that decode only the attributes named in
        #: ``read`` (None: whole objects).
        self._deref = deref
        self._scan_class = scan_class
        self._send = send
        self._adt_eval = adt_eval
        registry = metrics if metrics is not None else MetricsRegistry(enabled=False)
        self._m_examined = registry.counter("query.rows_examined")
        self._m_matched = registry.counter("query.rows_matched")
        self._m_probes = registry.counter("query.index_probes")

    def pipeline(self, plan: Plan, snapshot=None, read=None) -> Pipeline:
        """Compile (but do not open) the physical pipeline for a plan.

        With a :class:`~repro.versions.store.SnapshotView`, the leaf
        scan and every dereference resolve through the snapshot instead
        of current storage, and index access paths widen their
        candidates so they stay exact under it (see
        :func:`~repro.query.operators.compile_plan`).  With a ``read``
        set, the scan and every dereference decode only the attributes
        it names, so the rows are partial states: only :meth:`execute`,
        which keeps them inside, passes one.
        """
        if snapshot is None:
            deref, scan = self._deref, self._scan_class
        else:
            deref, scan = snapshot.deref, snapshot.scan
        if read is not None:
            full_deref, full_scan = deref, scan
            deref = lambda oid: full_deref(oid, read)  # noqa: E731
            scan = lambda class_name: full_scan(class_name, read)  # noqa: E731
        kernel = ObjectKernel(deref, self._send, self._adt_eval)
        return compile_plan(plan, kernel, scan, versions=snapshot)

    def execute(
        self, plan: Plan, timed: bool = False, snapshot=None
    ) -> ResultSet:
        """Run a plan.  With ``timed``, operators also accumulate
        per-stage wall-clock (EXPLAIN ANALYZE reads it off the chain).

        The scan and dereferences decode only the plan's read set; the
        partial states this makes never leave this method — the result
        holds OIDs and projected or aggregated rows.
        """
        pipeline = self.pipeline(plan, snapshot=snapshot, read=plan.read_set)
        query = plan.query
        if timed:
            pipeline.set_timed()
        oids: List[OID] = []
        rows: Optional[List[Dict[str, Any]]] = None
        pipeline.open()
        try:
            if query.aggregates:
                rows = [row for row in pipeline.rows()]
            elif query.projections is not None:
                rows = []
                for state, projected in pipeline.rows():
                    oids.append(state.oid)
                    rows.append(projected)
            else:
                for state in pipeline.rows():
                    oids.append(state.oid)
        finally:
            pipeline.close()
        self._m_examined.inc(pipeline.examined)
        self._m_matched.inc(pipeline.matched)
        self._m_probes.inc(pipeline.index_probes)
        return ResultSet(query, plan, oids, rows, pipeline)

    def execute_rows(
        self, plan: Plan, kernel, scan: ScanClass, timed: bool = False
    ) -> ResultSet:
        """Run a plan whose rows are plain dicts (system views).

        Same compile-and-drain path as :meth:`execute`, but over a
        caller-supplied row kernel and scan callable instead of the
        object kernel — this is how SysWaitEvent & co. flow through the
        standard Volcano pipeline.  ``oids`` is always empty; ``rows``
        holds the (possibly projected) dicts in result order.
        """
        pipeline = compile_plan(plan, kernel, scan)
        if timed:
            pipeline.set_timed()
        query = plan.query
        rows: List[Dict[str, Any]] = []
        pipeline.open()
        try:
            if query.projections is not None:
                rows = [projected for _row, projected in pipeline.rows()]
            else:
                rows = [row for row in pipeline.rows()]
        finally:
            pipeline.close()
        self._m_examined.inc(pipeline.examined)
        self._m_matched.inc(pipeline.matched)
        result = ResultSet(query, plan, [], rows, pipeline)
        result.system = True
        return result
