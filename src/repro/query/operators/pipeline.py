"""Plan -> physical operator pipeline compilation.

``compile_plan`` turns the planner's logical :class:`~repro.query.planner.Plan`
into an operator chain and wraps it in a :class:`Pipeline`, which keeps
named handles on the interesting stages so the executor's legacy
counters (examined/matched/index probes) and EXPLAIN ANALYZE read live
operator state instead of re-instrumenting the run.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ...core.oid import OID
from ...errors import QueryError
from ...index.nested import NestedAttributeIndex
from ..planner import (
    AdtIndexProbe,
    EmptyScan,
    ExtentScan,
    IndexEqProbe,
    IndexInProbe,
    IndexOrderScan,
    IndexRangeProbe,
    Plan,
    SystemScan,
)
from .base import PhysicalOperator
from .leaves import (
    EmptyScanOp,
    ExtentScanOp,
    IndexOrderScanOp,
    IndexProbeOp,
    VirtualScanOp,
)
from .unary import (
    AggregateOp,
    DerefOp,
    FilterOp,
    GroupByOp,
    LimitOp,
    ProjectOp,
    SortOp,
)


class Pipeline:
    """A compiled operator chain plus named handles on its stages."""

    def __init__(
        self,
        plan: Plan,
        root: PhysicalOperator,
        source: PhysicalOperator,
        probe: Optional[PhysicalOperator] = None,
        filter: Optional[FilterOp] = None,
        sort: Optional[SortOp] = None,
        limit: Optional[LimitOp] = None,
        aggregate: Optional[AggregateOp] = None,
        project: Optional[ProjectOp] = None,
    ) -> None:
        self.plan = plan
        #: Top of the chain — what the driver pulls from.
        self.root = root
        #: The operator producing candidate *states* (scan, or the deref
        #: above a probe); its ``rows_out`` is the classic ``examined``.
        self.source = source
        self.probe = probe
        self.filter = filter
        self.sort = sort
        self.limit = limit
        self.aggregate = aggregate
        self.project = project

    # -- lifecycle ---------------------------------------------------------

    def open(self) -> None:
        self.root.open()

    def close(self) -> None:
        self.root.close()

    def set_timed(self, timed: bool = True) -> None:
        self.root.set_timed(timed)

    def rows(self) -> Iterator[Any]:
        return self.root.rows()

    # -- live counters -----------------------------------------------------

    @property
    def examined(self) -> int:
        return self.source.rows_out

    @property
    def matched(self) -> int:
        return self.filter.rows_out if self.filter is not None else 0

    @property
    def index_probes(self) -> int:
        return self.probe.probes if self.probe is not None else 0

    def operators(self) -> List[PhysicalOperator]:
        """The chain, bottom (leaf) first."""
        chain: List[PhysicalOperator] = []
        op: Optional[PhysicalOperator] = self.root
        while op is not None:
            chain.append(op)
            op = op.child
        chain.reverse()
        return chain

    def operator_stats(self) -> List[Dict[str, Any]]:
        """Per-operator counters, leaf first (bench artifacts)."""
        return [op.stats() for op in self.operators()]

    def __repr__(self) -> str:
        return "<Pipeline %s>" % " -> ".join(op.name for op in self.operators())


def snapshot_candidates(
    fetch: Callable[[], Sequence[OID]], scope: Set[str], versions, index=None
) -> Callable[[], Sequence[OID]]:
    """Wrap an index probe so its candidates are exact under a snapshot.

    An index holds current values, which is the snapshot state of every
    object without an invisible version entry.  The others — the OIDs
    ``versions.changed(scope)`` names — are added to the probe's result;
    each candidate then resolves through the snapshot and the filter
    re-checks the full predicate, so no plan is rewritten to a scan.

    A nested-attribute index keys each target by its whole path, so
    targets whose path runs through a changed intermediate are added
    too: the index's dependents of every changed object in the path's
    intermediate classes.  When such an intermediate is gone from
    storage its former dependents are unknown, and that probe's
    candidates become every OID the snapshot sees in scope.

    The added set is read before and after the probe, so a writer that
    installs (or aborts and unlinks) a version entry while the probe
    runs is caught by one of the two reads.
    """
    if versions is None:
        return fetch

    def added() -> Optional[Set[OID]]:
        extra = versions.changed(scope)
        if isinstance(index, NestedAttributeIndex):
            for oid in versions.changed(index.intermediate_classes()):
                if not versions.exists(oid):
                    return None
                extra |= index.dependents(oid)
        return extra

    def run() -> Sequence[OID]:
        before = added()
        found = fetch()
        after = added()
        if before is None or after is None:
            return [
                state.oid
                for cls in sorted(scope)
                for state in versions.scan(cls, frozenset())
            ]
        if not before and not after:
            return found
        return sorted(before.union(found, after))

    return run


def compile_plan(plan: Plan, kernel, scan_class, versions=None) -> Pipeline:
    """Compile a plan into a pipeline over ``kernel``-typed rows.

    ``versions`` is the query's
    :class:`~repro.versions.store.SnapshotView` when it reads from an
    MVCC snapshot: every index access path then stays exact under it
    (:func:`snapshot_candidates`, :class:`IndexOrderScanOp`).
    """
    query = plan.query
    access = plan.access
    scope = plan.scope
    probe: Optional[PhysicalOperator] = None

    if isinstance(access, ExtentScan):
        source: PhysicalOperator = ExtentScanOp(scan_class, access.classes)
    elif isinstance(access, EmptyScan):
        source = EmptyScanOp(access.classes, access.reason)
    elif isinstance(access, SystemScan):
        # System views scan generated rows; ``scan_class`` here is the
        # system catalog's row producer, not the storage extent walker.
        source = VirtualScanOp(scan_class, access.view)
    elif isinstance(access, IndexOrderScan):
        probe = IndexOrderScanOp(access.index, scope, access.descending, versions)
        source = DerefOp(probe, kernel.deref)
    else:
        kind, fetch = _probe_fetch(access, scope)
        probe = IndexProbeOp(
            kind,
            snapshot_candidates(fetch, scope, versions, getattr(access, "index", None)),
            access.description,
        )
        source = DerefOp(probe, kernel.deref)

    # The FULL predicate is re-checked — index probes give candidates,
    # not answers; current state decides.  It is compiled once per plan.
    predicate = plan.predicate
    if predicate is None and query.where is not None:
        predicate = plan.predicate = kernel.compile(query.where)
    filter_op = FilterOp(source, kernel, scope, query.where, predicate)
    root: PhysicalOperator = filter_op

    if query.aggregates:
        op_type = GroupByOp if query.group_by is not None else AggregateOp
        aggregate_op = op_type(root, kernel, query)
        return Pipeline(
            plan, aggregate_op, source, probe=probe, filter=filter_op,
            aggregate=aggregate_op,
        )

    sort_op: Optional[SortOp] = None
    if not isinstance(access, IndexOrderScan):
        steps = query.order_by.steps if query.order_by is not None else None
        if steps is not None or getattr(kernel, "has_default_order", True):
            sort_op = SortOp(root, kernel, steps, query.descending, limit=query.limit)
            root = sort_op

    limit_op: Optional[LimitOp] = None
    if query.limit is not None:
        limit_op = LimitOp(root, query.limit)
        root = limit_op

    project_op: Optional[ProjectOp] = None
    if query.projections is not None:
        project_op = ProjectOp(
            root, kernel, [path.steps for path in query.projections]
        )
        root = project_op

    return Pipeline(
        plan, root, source, probe=probe, filter=filter_op, sort=sort_op,
        limit=limit_op, project=project_op,
    )


def _probe_fetch(access, scope: Set[str]) -> Tuple[str, Callable[[], Sequence[OID]]]:
    """(probe kind, candidate fetch) of an index or ADT access path."""
    if isinstance(access, IndexEqProbe):
        return "eq", lambda: access.index.lookup_eq(access.value, scope)
    if isinstance(access, IndexInProbe):
        return "in", lambda: access.index.lookup_in(access.values, scope)
    if isinstance(access, IndexRangeProbe):
        return "range", lambda: access.index.lookup_range(
            access.low, access.high, access.include_low, access.include_high, scope
        )
    if isinstance(access, AdtIndexProbe):
        return "adt", lambda: sorted(
            {oid for oid in access.probe() if isinstance(oid, OID)}
        )
    raise QueryError("unknown access path %r" % (access,))
