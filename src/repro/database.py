"""The kimdb database facade.

Ties the subsystems together into the paper's definition of an OODB: "a
persistent and sharable repository and manager of an object-oriented
database" supporting the core data model *and* all conventional database
features with object-consistent semantics — declarative queries with
optimization, secondary indexing, transactions with locking and WAL
recovery, authorization, schema evolution, versions, composite objects
and views (each implemented in its own subpackage and reachable from
here).
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Union

from .analysis.diagnostics import DiagnosticReport
from .analysis.plancache import PlanCache
from .analysis.rewrite import RewriteResult, rewrite_query
from .analysis.semantic import SemanticAnalyzer
from .core.attribute import AttributeDef
from .core.klass import ClassDef
from .core.method import MethodDef
from .core.obj import ObjectHandle, ObjectState
from .core.oid import OID, OIDGenerator
from .core.schema import Schema
from .errors import ObjectNotFoundError, QueryError, SemanticError, TransactionError
from .index.manager import IndexManager
from .obs.explain import ExplainResult, operator_tree
from .obs.metrics import MetricsRegistry
from .obs.querystats import QueryStats
from .obs.tracing import Tracer
from .obs.waits import WaitProfiler
from .query.ast import AdtPredicate, Query
from .query.executor import Executor, ResultSet
from .query.parser import parse_query
from .query.planner import EmptyScan, Plan, Planner
from .storage.clustering import ClusteringPolicy, NoClustering
from .storage.manager import StorageManager
from .txn.locks import (
    DATABASE,
    IS,
    IX,
    S,
    X,
    LockManager,
    class_resource,
    object_resource,
)
from .txn.long_tx import PrivateWorkspace
from .txn.recovery import checkpoint as _checkpoint
from .txn.recovery import recover as _recover
from .txn.transaction import Transaction, TransactionManager
from .txn.wal import WriteAheadLog
from .versions.store import SnapshotView, VersionStore


class QueryStream:
    """A closable handle over a streaming query (:meth:`Database.select_iter`).

    Pulls the Volcano pipeline lazily and applies per-object
    authorization/MAC filtering as rows stream past.  ``close()`` is the
    whole point of the class: it deterministically closes every pipeline
    operator (stopping the underlying scans) and, when the stream opened
    its own read transaction to hold scan locks, commits it so those
    locks are released — an abandoned stream (a disconnected client) can
    never strand locks until garbage collection happens to run.
    """

    def __init__(
        self,
        db: "Database",
        pipeline,
        txn,
        was_view: bool,
        snapshot=None,
        plan=None,
        source=None,
    ) -> None:
        self._db = db
        self._pipeline = pipeline
        #: The prepared plan and query text, kept so close() can fold
        #: the stream's counters into the fingerprint statistics.
        self._plan = plan
        self._source = source
        self._started = time.perf_counter()
        #: The stream's own read transaction (None when the caller's
        #: explicit transaction holds the scan locks instead, or when
        #: the stream reads from an MVCC snapshot and needs no locks).
        self._txn = txn
        self._was_view = was_view
        #: The stream's :class:`~repro.versions.store.SnapshotView`
        #: (None when snapshot reads are off).  Ephemeral snapshots are
        #: closed by :meth:`close`, which moves the version GC horizon.
        self._snapshot = snapshot
        self._rows = pipeline.rows()
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def __iter__(self) -> "QueryStream":
        return self

    def _advance(self) -> ObjectState:
        if self._closed:
            raise StopIteration
        for state in self._rows:
            oid = state.oid
            if (
                self._db.authz is not None
                and not self._was_view
                and not self._db.authz.read_allowed(oid)
            ):
                continue
            if self._db.mac is not None and not self._db.mac.read_allowed(oid):
                continue
            return state
        self.close()
        raise StopIteration

    def __next__(self) -> ObjectHandle:
        return ObjectHandle(self._db, self._advance().oid)

    def next_state(self) -> ObjectState:
        """Next visible row as its :class:`ObjectState` (server fetch path).

        Same filtering as iteration, but returns the snapshot-resolved
        state itself instead of a live handle — a handle read would see
        the *current* stored value, not the stream's snapshot.
        """
        return self._advance()

    def close(self) -> None:
        """Close pipeline operators and release stream-held resources.

        Idempotent.  Locks taken under a caller-provided transaction are
        left alone (strict two-phase locking: they belong to that
        transaction until it ends); only the stream's own implicit read
        transaction is finished here, and only an ephemeral snapshot —
        not one bound to the caller's transaction — is closed.
        """
        if self._closed:
            return
        self._closed = True
        self._pipeline.close()
        if self._txn is not None and self._txn.is_active:
            # Read-only by construction; commit just releases its locks.
            self._txn.commit()
        self._db._close_query_snapshot(self._snapshot)
        if self._plan is not None:
            # Elapsed covers open-to-close: for a stream, the client's
            # pull pace *is* the query's latency as the server sees it.
            self._db._record_query_stats(
                self._plan,
                self._pipeline,
                self._source,
                time.perf_counter() - self._started,
            )

    def __enter__(self) -> "QueryStream":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


class Database:
    """An object-oriented database.

    Parameters
    ----------
    path:
        Base path for durable databases (``<path>`` holds data pages,
        ``<path>.meta`` the catalog, ``<path>.wal`` the log).  ``None``
        creates an ephemeral in-memory database.
    clustering:
        A :class:`~repro.storage.clustering.ClusteringPolicy`; defaults
        to no clustering.
    use_locks:
        Disable to skip lock acquisition entirely (single-threaded
        benchmarks isolating other costs).
    sync_on_commit:
        fsync the WAL on commit (durable databases only).
    group_commit:
        Batch concurrent commit fsyncs: one WAL sync covers every
        transaction whose commit record it flushed (default on; the
        ``--no-group-commit`` server flag disables it).
    snapshot_reads:
        Run read-only queries against an MVCC begin snapshot instead of
        taking scan locks (default on).  Writers still use strict 2PL.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        page_size: int = 4096,
        buffer_capacity: int = 256,
        clustering: Optional[ClusteringPolicy] = None,
        use_locks: bool = True,
        sync_on_commit: bool = True,
        recover_on_open: bool = True,
        metrics_enabled: bool = True,
        slow_op_threshold: Optional[float] = None,
        group_commit: bool = True,
        snapshot_reads: bool = True,
    ) -> None:
        self.path = path
        #: The database-wide observability registry: every subsystem's
        #: counters (buffer.*, pager.*, wal.*, locks.*, index.*,
        #: query.*) report here; ``db.metrics.snapshot()`` is the one
        #: place to read them all.
        self.metrics = MetricsRegistry(enabled=metrics_enabled)
        self.tracer = Tracer(
            capacity=512, slow_threshold=slow_op_threshold, registry=self.metrics
        )
        #: Wait-event profiler: every stall (lock waits, buffer misses,
        #: page I/O, WAL flushes) lands here, tagged with the waiting
        #: transaction; queryable through the SysWaitEvent system view.
        self.waits = WaitProfiler(registry=self.metrics)
        self.storage = StorageManager(
            path, page_size, buffer_capacity, self.metrics, waits=self.waits
        )
        self.schema = Schema()
        self.locks = LockManager(self.metrics, waits=self.waits)
        self.wal = WriteAheadLog(
            path + ".wal" if path else None,
            sync_on_commit=sync_on_commit,
            registry=self.metrics,
            waits=self.waits,
            tracer=self.tracer,
            group_commit=group_commit,
        )
        # Torn-page protection: the buffer pool logs a durable full-page
        # image into the WAL before every dirty page write-back, so
        # recovery can re-image a page whose write a crash tore.
        if path is not None:
            self.storage.buffer.attach_page_image_log(
                self.wal.log_page_image, self.wal.sync
            )
        #: MVCC before-image store: writers install pre-mutation states
        #: here (keyed by OID + commit timestamp) so snapshot readers can
        #: reconstruct the database as of their begin timestamp without
        #: blocking or being blocked by writers.
        self.version_store = VersionStore(self.metrics)
        #: Snapshot-read knob: when False, read queries fall back to
        #: scan locks (strict 2PL for readers and writers alike).
        self.snapshot_reads = snapshot_reads
        self.txns = TransactionManager(
            self.wal, self.locks, registry=self.metrics,
            version_store=self.version_store,
        )
        self.waits.current_txn = self._current_txn_id
        self.clustering = clustering or NoClustering()
        self.use_locks = use_locks
        self._oids = OIDGenerator()
        self.indexes = IndexManager(
            self.schema, self._scan_coerced, self._deref, self.metrics
        )
        # Imported here, not at module top: sysviews pulls in the multidb
        # and query layers, which import repro.obs — an eager import from
        # the obs package initializer would cycle through storage.buffer.
        from .obs.sysviews import SystemCatalog

        #: System statistics views (SysStat, SysWaitEvent, SysLock, ...),
        #: queryable like any class through the standard pipeline.
        self.syscat = SystemCatalog(self)
        self.planner = Planner(
            self.schema, self.indexes, self.storage, system_catalog=self.syscat
        )
        #: Normalized-plan cache: hot queries skip parse/analyze/plan.
        #: Eagerly purged on schema evolution via the schema listener;
        #: index create/drop and extent-size doubling invalidate lazily
        #: through the entry's epoch token.
        self.plan_cache = PlanCache(
            self.schema, self.indexes, self._extent_count, self.metrics
        )
        self.schema.on_change(self.plan_cache.on_schema_change)
        #: Per-query-fingerprint statistics accumulator (SysQueryStat);
        #: recorded at executor close, purged on schema evolution like
        #: the plan cache — stale fingerprints describe a dead world.
        self.query_stats = QueryStats(self.metrics)
        self.schema.on_change(self.query_stats.on_schema_change)
        #: ANALYZE output (:class:`~repro.obs.stats.StatisticsCatalog`):
        #: per-class row counts/sizes and per-index histograms, set by
        #: :meth:`analyze` (or reloaded from the catalog on reopen) and
        #: costed against by the planner while it is fresh.
        self.statistics = None
        # Waits recorded on a request thread inherit its trace context,
        # so SysWaitEvent rows link back to the client's trace id.
        self.waits.current_trace = lambda: self.tracer.current_trace
        #: Per-operator counters of the last *user* query (system-view
        #: queries never overwrite it — observing must not perturb the
        #: observed); served by the SysOperator view.
        self.last_operator_stats: Optional[List[Dict[str, Any]]] = None
        self._executor = Executor(
            self._deref, self._scan_coerced, self.send, self._adt_eval,
            metrics=self.metrics,
        )
        self._m_parses = self.metrics.counter("query.parses")
        self._m_checks = self.metrics.counter("query.checks")
        self._m_plans = self.metrics.counter("query.plans")
        self._m_executes = self.metrics.counter("query.executes")
        self._m_query_rows = self.metrics.counter("query.rows")
        self._m_query_seconds = self.metrics.histogram("query.seconds")
        self._m_rewrites = self.metrics.counter("rewrite.queries")
        self._m_rewrite_rules = self.metrics.counter("rewrite.rules_applied")
        self._m_rewrite_contradictions = self.metrics.counter(
            "rewrite.contradictions"
        )
        # Cost-model decision family (benchgate-gated): how often the
        # model costed from ANALYZE statistics vs. live counts (and how
        # often a stale catalog was bypassed for live counts), how many
        # candidates were weighed, and the estimated-vs-actual row totals
        # that expose systematic mis-estimation.
        self._m_cost_stats_decisions = self.metrics.counter(
            "query.cost.decisions_statistics"
        )
        self._m_cost_live_decisions = self.metrics.counter(
            "query.cost.decisions_live"
        )
        self._m_cost_stale_fallbacks = self.metrics.counter(
            "query.cost.stale_fallbacks"
        )
        self._m_cost_candidates = self.metrics.counter("query.cost.candidates")
        self._m_cost_estimated_rows = self.metrics.counter(
            "query.cost.estimated_rows"
        )
        self._m_cost_actual_rows = self.metrics.counter("query.cost.actual_rows")
        #: True while a transaction rollback is replaying compensations;
        #: cascading side-effects (composite delete propagation) are
        #: suppressed — each mutation has its own compensation.
        self._in_rollback = False
        #: Mutation hooks: fn(kind, old_state, new_state); kind in
        #: {"insert", "update", "delete"}.  Pre-hooks may raise to veto.
        self._pre_hooks: List[Callable[[str, Optional[ObjectState], Optional[ObjectState]], None]] = []
        self._post_hooks: List[Callable[[str, Optional[ObjectState], Optional[ObjectState]], None]] = []
        #: Optional subsystem managers, attached by their modules.
        self.authz = None  # set by repro.authz.attach()
        self.mac = None  # set by repro.authz.mandatory.attach_mandatory()
        self.adt = None  # set by repro.adt.attach()
        self.versions = None  # set by repro.versions.attach()
        self.composites = None  # set by repro.composite.attach()
        self.notifications = None  # set by repro.versions.notify.attach()
        self.views = None  # set by repro.views.attach()
        self.roles = None  # set by repro.semantics.attach_roles()
        self.temporal = None  # set by repro.semantics.attach_temporal()
        self.sessions = None  # set by repro.server.Server (SysSession source)
        self._closed = False

        if path is not None:
            self._bootstrap_durable(recover_on_open)

    # ------------------------------------------------------------------
    # bootstrap / lifecycle
    # ------------------------------------------------------------------

    def _bootstrap_durable(self, recover_on_open: bool) -> None:
        extra = self.storage.load_extra_metadata()
        catalog = extra.get("schema")
        if catalog:
            self.schema = Schema.from_dict(catalog)
            # Rewire everything that captured the old schema.
            self.indexes = IndexManager(
                self.schema, self.storage.scan_class, self._deref, self.metrics
            )
            self.planner = Planner(
                self.schema, self.indexes, self.storage, system_catalog=self.syscat
            )
            self.plan_cache = PlanCache(
                self.schema, self.indexes, self._extent_count, self.metrics
            )
            self.schema.on_change(self.plan_cache.on_schema_change)
            self.schema.on_change(self.query_stats.on_schema_change)
        stats_payload = extra.get("statistics")
        if stats_payload:
            from .obs.stats import StatisticsCatalog

            self.statistics = StatisticsCatalog.from_dict(stats_payload)
        if recover_on_open:
            _recover(self.wal, self.storage, registry=self.metrics)
        self._oids.advance_past(self.storage.directory.max_oid_value())

    def checkpoint(self) -> None:
        """Flush data pages, persist the catalog, truncate the WAL."""
        extra: Dict[str, Any] = {"schema": self.schema.to_dict()}
        if self.statistics is not None:
            extra["statistics"] = self.statistics.to_dict()
        self.storage.save_metadata(extra)
        _checkpoint(self.wal, self.storage)

    def analyze(self):
        """ANALYZE: collect per-class and per-index statistics.

        Scans every user class extent (row counts, average encoded
        object size) and walks every index (entry/distinct-key counts,
        equi-depth value histograms), installs the resulting
        :class:`~repro.obs.stats.StatisticsCatalog` as ``db.statistics``
        — where ``SysClassStat``/``SysIndexStat`` and the planner's
        ``stats=`` argument read it — and, on a durable database,
        persists it in the storage catalog so it survives close/reopen.
        Returns the catalog.
        """
        # Imported lazily like sysviews: keeps repro.obs importable on
        # its own (the collector itself only needs callables we pass).
        from .obs.stats import collect_statistics
        from .storage.serializer import encode_object

        with self.tracer.span("database.analyze"):
            catalog = collect_statistics(
                self.schema,
                self._scan_coerced,
                self.indexes,
                lambda state: len(encode_object(state)),
                metrics=self.metrics,
            )
        self.statistics = catalog
        # Fresh statistics can flip a cached plan's winning access path:
        # re-cost every cached entry against the new catalog, keeping the
        # ones whose choice stands and dropping the ones that flipped.
        self.plan_cache.on_statistics_change(self._recost_cached_plan)
        if self.path is not None:
            self.storage.save_metadata({"statistics": catalog.to_dict()})
        return catalog

    def _recost_cached_plan(self, entry):
        """Re-plan one cached query against the current statistics."""
        pruned = ()
        if entry.report is not None:
            pruned = tuple(entry.report.pruned_classes)
        facts = None
        rewrite = getattr(entry.plan, "rewrite", None)
        if rewrite is not None:
            facts = rewrite.facts
        plan = self.planner.plan(
            entry.plan.query,
            exclude_classes=pruned,
            facts=facts,
            stats=self.statistics,
        )
        plan.rewrite = rewrite
        return plan

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Shut the database down; safe to call more than once.

        Idempotence matters to the server front end, whose shutdown path
        may race an explicit ``close()`` with the ``with``-statement
        ``__exit__`` — the second call is a no-op instead of flushing
        through already-closed files.
        """
        if self._closed:
            return
        self._closed = True
        self.txns.abort_all_active()
        if self.path is not None:
            self.checkpoint()
        self.storage.close()
        self.wal.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # schema definition (delegates, plus heap/locking awareness)
    # ------------------------------------------------------------------

    def define_class(
        self,
        name: str,
        superclasses: Sequence[str] = ("Object",),
        attributes: Sequence[AttributeDef] = (),
        methods: Sequence[MethodDef] = (),
        abstract: bool = False,
        doc: str = "",
        versionable: bool = False,
    ) -> ClassDef:
        return self.schema.define_class(
            name,
            superclasses=superclasses,
            attributes=attributes,
            methods=methods,
            abstract=abstract,
            doc=doc,
            versionable=versionable,
        )

    # Index creation (delegation kept here so applications rarely need
    # to touch the manager directly).

    def create_class_index(self, class_name: str, attribute: str, name: Optional[str] = None):
        return self.indexes.create_class_index(class_name, attribute, name)

    def create_hierarchy_index(self, rooted_class: str, attribute: str, name: Optional[str] = None):
        return self.indexes.create_hierarchy_index(rooted_class, attribute, name)

    def create_nested_index(self, target_class: str, path: Sequence[str], name: Optional[str] = None):
        return self.indexes.create_nested_index(target_class, path, name)

    # ------------------------------------------------------------------
    # internal plumbing
    # ------------------------------------------------------------------

    def _coerce(self, state: ObjectState) -> ObjectState:
        """Lazy schema-evolution coercion [BANE87].

        Stored records written under an older class definition are
        adjusted on load: missing declared attributes take their default,
        values for dropped attributes disappear.  The stored record is
        untouched (metadata-only evolution, experiment E12)."""
        declared = self.schema.attributes(state.class_name)
        if state.values.keys() == declared.keys():
            return state
        values = {
            name: value for name, value in state.values.items() if name in declared
        }
        for name, attr in declared.items():
            if name not in values:
                values[name] = attr.default_value()
        return ObjectState(state.oid, state.class_name, values)

    def _deref(self, oid: OID) -> Optional[ObjectState]:
        try:
            return self._coerce(self.storage.load(oid))
        except ObjectNotFoundError:
            return None

    def _scan_coerced(self, class_name: str) -> Iterator[ObjectState]:
        for state in self.storage.scan_class(class_name):
            yield self._coerce(state)

    def _deref_class(self, oid: OID) -> Optional[str]:
        entry = self.storage.directory.try_lookup(oid)
        return entry.class_name if entry else None

    def _extent_count(self, class_name: str) -> int:
        return self.storage.count_class(class_name)

    def _current_txn_id(self) -> Optional[int]:
        """Wait-profiler provider: the calling thread's transaction id."""
        current = self.txns.current
        return current.txn_id if current is not None else None

    def _adt_eval(self, predicate: AdtPredicate, state: ObjectState) -> bool:
        if self.adt is None:
            raise TransactionError(
                "ADT predicate %r used but no ADT registry attached" % predicate.name
            )
        return self.adt.evaluate(predicate, state, self._deref)

    @contextlib.contextmanager
    def _auto_txn(self) -> Iterator[Transaction]:
        """Use the current transaction, or wrap the operation in one."""
        current = self.txns.current
        if current is not None:
            yield current
            return
        txn = self.txns.begin()
        try:
            yield txn
        except Exception:
            if txn.is_active:
                txn.abort()
            raise
        else:
            if txn.is_active:
                txn.commit()

    #: Object locks per (txn, class) before escalating to a class lock.
    #: The classic granularity trade: thousands of object locks cost more
    #: than one class lock once fine-grain concurrency no longer pays.
    lock_escalation_threshold: int = 256

    def _lock(self, txn: Transaction, oid: Optional[OID], class_name: str, write: bool) -> None:
        if not self.use_locks:
            return
        top, mid, leaf = (IX, IX, X) if write else (IS, IS, S)
        self.locks.acquire(txn.txn_id, DATABASE, top)
        escalated = txn.escalated_classes.get(class_name)
        if escalated is not None and (not write or escalated == X):
            return  # the class lock already covers this access
        self.locks.acquire(txn.txn_id, class_resource(class_name), mid)
        if oid is None:
            return
        count = txn.object_lock_counts.get(class_name, 0) + 1
        txn.object_lock_counts[class_name] = count
        if count >= self.lock_escalation_threshold:
            mode = X if write else S
            self.locks.acquire(txn.txn_id, class_resource(class_name), mode)
            txn.escalated_classes[class_name] = mode
            return
        self.locks.acquire(txn.txn_id, object_resource(oid), leaf)

    def _lock_class_scan(self, txn: Transaction, class_name: str) -> None:
        if not self.use_locks:
            return
        self.locks.acquire(txn.txn_id, DATABASE, IS)
        self.locks.acquire(txn.txn_id, class_resource(class_name), S)

    def _run_hooks(self, hooks, kind: str, old: Optional[ObjectState], new: Optional[ObjectState]) -> None:
        for hook in hooks:
            hook(kind, old, new)

    def add_pre_hook(self, hook) -> None:
        self._pre_hooks.append(hook)

    def add_post_hook(self, hook) -> None:
        self._post_hooks.append(hook)

    def _check_authz(self, action: str, class_name: str, oid: Optional[OID] = None) -> None:
        if self.authz is not None:
            self.authz.check(action, class_name, oid)
        if self.mac is not None and (oid is not None or action != "read"):
            # Class-level reads (queries) are filtered per object instead
            # of denied outright — no covert existence channel.
            self.mac.check(action, class_name, oid)

    # ------------------------------------------------------------------
    # object lifecycle
    # ------------------------------------------------------------------

    def new(
        self,
        class_name: str,
        values: Optional[Dict[str, Any]] = None,
        near: Optional[OID] = None,
    ) -> ObjectHandle:
        """Create and store a new instance of ``class_name``.

        Missing attributes take their declared defaults; the state is
        validated against the schema (domains, multiplicity, required).
        ``near`` overrides the clustering policy's placement hint.
        """
        self._check_authz("create", class_name)
        values = dict(values or {})
        state_values = self.schema.default_state(class_name)
        state_values.update(values)
        self.schema.validate_state(class_name, state_values, self._deref_class)
        oid = self._oids.next(class_name)
        state = ObjectState(oid, class_name, state_values)
        with self._auto_txn() as txn:
            self._lock(txn, oid, class_name, write=True)
            self._run_hooks(self._pre_hooks, "insert", None, state)
            hint = near
            if hint is None:
                hint = self.clustering.neighbour_for(self.schema, state)
            if self.snapshot_reads:
                # Before-image first (None = "did not exist"), then the
                # storage mutation: a snapshot reader that sees the new
                # stored state must also see the entry that hides it.
                self.version_store.record_before(txn.txn_id, oid, class_name, None)
            self.storage.store_new(state, near=hint)
            self.indexes.notify_insert(state)
            self.wal.log_insert(txn.txn_id, state)
            txn.record_undo(lambda: self._undo_insert(txn, state))
            self._run_hooks(self._post_hooks, "insert", None, state)
        return ObjectHandle(self, oid)

    def _undo_insert(self, txn: Transaction, state: ObjectState) -> None:
        self._in_rollback = True
        try:
            self._undo_insert_body(txn, state)
        finally:
            self._in_rollback = False

    def _undo_insert_body(self, txn: Transaction, state: ObjectState) -> None:
        if self.storage.contains(state.oid):
            self.storage.remove(state.oid)
            self.indexes.notify_delete(state)
            self.wal.log_delete(txn.txn_id, state)
            # Compensations notify post-hooks (composite links, spatial
            # grids, temporal history, ...) but never pre-hooks — a
            # rollback cannot be vetoed.
            self._run_hooks(self._post_hooks, "delete", state, None)

    def get(self, oid: OID) -> ObjectHandle:
        """Handle for an existing object (raises if absent)."""
        self.storage.directory.lookup(oid)
        return ObjectHandle(self, oid)

    def get_state(self, oid: OID) -> ObjectState:
        """Current stored state (read-locked under the active txn)."""
        class_name = self.storage.class_of(oid)
        self._check_authz("read", class_name, oid)
        current = self.txns.current
        if current is not None:
            self._lock(current, oid, class_name, write=False)
        return self._coerce(self.storage.load(oid))

    def read_state(self, oid: OID) -> ObjectState:
        """Transaction-consistent state: the handle-read path.

        Inside a transaction with snapshot reads on, resolves the object
        through the transaction's begin snapshot (opened lazily, like
        the query path) — so ``h["attr"]`` agrees with what the same
        transaction's queries see, including its own uncommitted writes
        (the version store short-circuits the reader's own chain).
        Outside a transaction, or with ``snapshot_reads=False``, this is
        exactly :meth:`get_state` with its locking semantics.
        """
        current = self.txns.current
        if current is None or not self.snapshot_reads:
            return self.get_state(oid)
        if current.snapshot is None:
            current.snapshot = self.version_store.open_snapshot(current.txn_id)
        # The current stored state may already be gone (a concurrent
        # committed delete) while the snapshot still sees the object, so
        # resolve through the version store before deciding existence.
        state = self.version_store.resolve(oid, current.snapshot, self._deref(oid))
        if state is None:
            raise ObjectNotFoundError(
                "object %r is not visible to this transaction's snapshot" % (oid,)
            )
        self._check_authz("read", state.class_name, oid)
        return self._coerce(state)

    def exists(self, oid: OID) -> bool:
        return self.storage.contains(oid)

    def class_of(self, oid: OID) -> str:
        return self.storage.class_of(oid)

    def update(self, oid: OID, changes: Dict[str, Any]) -> ObjectHandle:
        """Apply a partial update to one object."""
        old = self._coerce(self.storage.load(oid))
        self._check_authz("write", old.class_name, oid)
        self.schema.validate_state(
            old.class_name, changes, self._deref_class, partial=True
        )
        new = old.copy()
        new.values.update(changes)
        self._apply_update(old, new)
        return ObjectHandle(self, oid)

    def put_state(self, state: ObjectState) -> None:
        """Replace an object's full state (checkin, migration paths)."""
        old = self.storage.load(state.oid)
        self._check_authz("write", state.class_name, state.oid)
        self.schema.validate_state(state.class_name, state.values, self._deref_class)
        self._apply_update(old, state.copy())

    def _apply_update(self, old: ObjectState, new: ObjectState) -> None:
        with self._auto_txn() as txn:
            self._lock(txn, old.oid, old.class_name, write=True)
            self._run_hooks(self._pre_hooks, "update", old, new)
            if self.snapshot_reads:
                self.version_store.record_before(
                    txn.txn_id, old.oid, old.class_name, old.copy()
                )
            self.storage.overwrite(new)
            self.indexes.notify_update(old, new)
            self.wal.log_update(txn.txn_id, old, new)
            txn.record_undo(lambda: self._undo_update(txn, old, new))
            self._run_hooks(self._post_hooks, "update", old, new)

    def _undo_update(self, txn: Transaction, old: ObjectState, new: ObjectState) -> None:
        self._in_rollback = True
        try:
            self._undo_update_body(txn, old, new)
        finally:
            self._in_rollback = False

    def _undo_update_body(self, txn: Transaction, old: ObjectState, new: ObjectState) -> None:
        self.storage.overwrite(old)
        self.indexes.notify_update(new, old)
        self.wal.log_update(txn.txn_id, new, old)
        self._run_hooks(self._post_hooks, "update", new, old)

    def delete(self, oid: OID) -> None:
        """Delete an object (composite dependents cascade via hooks)."""
        state = self.storage.load(oid)
        self._check_authz("delete", state.class_name, oid)
        with self._auto_txn() as txn:
            self._lock(txn, oid, state.class_name, write=True)
            self._run_hooks(self._pre_hooks, "delete", state, None)
            if self.snapshot_reads:
                self.version_store.record_before(
                    txn.txn_id, oid, state.class_name, state.copy()
                )
            self.storage.remove(oid)
            self.indexes.notify_delete(state)
            self.wal.log_delete(txn.txn_id, state)
            txn.record_undo(lambda: self._undo_delete(txn, state))
            self._run_hooks(self._post_hooks, "delete", state, None)

    def _undo_delete(self, txn: Transaction, state: ObjectState) -> None:
        self._in_rollback = True
        try:
            self._undo_delete_body(txn, state)
        finally:
            self._in_rollback = False

    def _undo_delete_body(self, txn: Transaction, state: ObjectState) -> None:
        if not self.storage.contains(state.oid):
            self.storage.store_new(state)
            self.indexes.notify_insert(state)
            self.wal.log_insert(txn.txn_id, state)
            self._run_hooks(self._post_hooks, "insert", None, state)

    # ------------------------------------------------------------------
    # behavior
    # ------------------------------------------------------------------

    def send(self, oid: OID, selector: str, *args: Any, **kwargs: Any) -> Any:
        """Message passing with late binding (core concept 6)."""
        class_name = self.storage.class_of(oid)
        meth = self.schema.resolve_method(class_name, selector)
        return meth.invoke(ObjectHandle(self, oid), *args, **kwargs)

    # ------------------------------------------------------------------
    # extents and queries
    # ------------------------------------------------------------------

    def instances(self, class_name: str, hierarchy: bool = True) -> Iterator[ObjectHandle]:
        """All instances, physically ordered per class."""
        classes = (
            self.schema.hierarchy_of(class_name) if hierarchy else [class_name]
        )
        current = self.txns.current
        for cls in classes:
            if current is not None:
                self._lock_class_scan(current, cls)
            for state in self.storage.scan_class(cls):
                yield ObjectHandle(self, state.oid)

    def count(self, class_name: str, hierarchy: bool = True) -> int:
        classes = (
            self.schema.hierarchy_of(class_name) if hierarchy else [class_name]
        )
        return sum(self.storage.count_class(cls) for cls in classes)

    def _parse(self, query: Union[str, Query]) -> Query:
        if isinstance(query, str):
            with self.tracer.span("query.parse"):
                query = parse_query(query)
            self._m_parses.inc()
        return query

    def check(self, query: Union[str, Query]) -> DiagnosticReport:
        """Semantic analysis only: type-check without planning or running.

        Returns the full :class:`~repro.analysis.diagnostics.DiagnosticReport`
        (truthy when the query is well-typed).  The same analysis gates
        :meth:`plan`, :meth:`execute` and :meth:`explain` — an ill-typed
        query raises :class:`~repro.errors.SemanticError` before the
        planner sees it.
        """
        source = query if isinstance(query, str) else None
        parsed = self._parse(query)
        if self.syscat.is_system(parsed.target_class):
            return self.syscat.check(parsed, source)
        if self.views is not None:
            parsed = self.views.rewrite(parsed)
        report = self._analyze(parsed, source)
        if report.ok:
            # Static rewrite analysis rides along: REW diagnostics
            # (proven contradictions, eliminated tautologies, derived
            # sargable ranges) are informational, never errors.
            self._rewrite(parsed, report)
        return report

    def _analyze(self, query: Query, source: Optional[str]) -> DiagnosticReport:
        with self.tracer.span("query.check", target=query.target_class):
            report = SemanticAnalyzer(self.schema, self.adt).check(
                query, source=source
            )
        self._m_checks.inc()
        return report

    def _semantic_gate(self, query: Query, source: Optional[str]) -> DiagnosticReport:
        """Fail fast: raise before planning when analysis found errors."""
        report = self._analyze(query, source)
        if not report.ok:
            raise SemanticError(
                report.render(), report.diagnostics, source=report.source
            )
        return report

    def _system_gate(self, query: Query, source: Optional[str]) -> DiagnosticReport:
        """The system-view counterpart of :meth:`_semantic_gate`."""
        with self.tracer.span("query.check", target=query.target_class):
            report = self.syscat.check(query, source)
        self._m_checks.inc()
        if not report.ok:
            raise SemanticError(
                report.render(), report.diagnostics, source=report.source
            )
        return report

    def _rewrite(self, query: Query, report: DiagnosticReport) -> RewriteResult:
        """The static analysis pass between check() and plan().

        Normalizes the WHERE clause and runs interval/type-domain
        analysis; the resulting facts (proven contradiction, sargable
        ranges) feed the planner.  REW diagnostics are appended to the
        semantic report so every downstream consumer (EXPLAIN, the
        server's error payloads, ``check()``) sees them.
        """
        with self.tracer.span("query.rewrite", target=query.target_class):
            rewritten = rewrite_query(
                self.schema, query, exclude_classes=report.pruned_classes
            )
        self._m_rewrites.inc()
        if rewritten.rules:
            self._m_rewrite_rules.inc(len(rewritten.rules))
        if rewritten.facts.contradiction:
            self._m_rewrite_contradictions.inc()
        report.diagnostics.extend(rewritten.diagnostics)
        return rewritten

    def _plan_user_query(
        self,
        query: Query,
        report: DiagnosticReport,
        source: Optional[str],
        cacheable: bool = True,
    ) -> Plan:
        """Rewrite, consult the plan cache, and plan on a miss."""
        rewritten = self._rewrite(query, report)
        if cacheable:
            entry = self.plan_cache.get(rewritten.fingerprint, source=source)
            if entry is not None:
                entry.plan.cached = True
                return entry.plan
        with self.tracer.span("query.plan", target=query.target_class):
            plan = self.planner.plan(
                rewritten.query,
                exclude_classes=report.pruned_classes,
                facts=rewritten.facts,
                stats=self.statistics,
            )
        plan.rewrite = rewritten
        self._m_plans.inc()
        self._record_cost_decision(plan)
        if cacheable:
            digest = (
                "contradiction"
                if rewritten.facts.contradiction
                else ";".join(
                    ".".join(steps) for steps in sorted(rewritten.facts.ranges)
                )
            )
            self.plan_cache.put(
                rewritten.fingerprint, plan, report, digest, source=source
            )
        return plan

    def _record_cost_decision(self, plan: Plan) -> None:
        """Count one fresh planning decision under ``query.cost.*``."""
        decision = plan.cost
        if decision is None:
            return
        self._m_cost_candidates.inc(len(decision.candidates))
        if decision.mode == "statistics":
            self._m_cost_stats_decisions.inc()
        else:
            self._m_cost_live_decisions.inc()
            if decision.stale_reason is not None:
                self._m_cost_stale_fallbacks.inc()

    def plan(self, query: Union[str, Query]) -> Plan:
        source = query if isinstance(query, str) else None
        query = self._parse(query)
        if self.syscat.is_system(query.target_class):
            self._system_gate(query, source)
            self._m_plans.inc()
            return self.planner.plan(query)
        report = self._semantic_gate(query, source)
        return self._plan_user_query(query, report, source)

    def execute(self, query: Union[str, Query]) -> ResultSet:
        """Plan and run a query, returning the full result set object."""
        result, _report = self._execute(query, analyze=False)
        return result

    def _prepare_query(self, query: Union[str, Query]):
        """Shared front half of every query path: parse, authorize the
        *named* target (granting read on a view and not its base class
        is the paper's content-based authorization), rewrite views, run
        the semantic gate, plan, and open the read snapshot (or, when
        snapshot reads are off, take the class scan locks).  Returns
        ``(query, plan, report, was_view, snapshot)``."""
        source = query if isinstance(query, str) else None
        if source is not None:
            # Repeated identical query text: skip even parsing.  Authz,
            # snapshots and scan locks are NOT cached — they are
            # per-caller and per-transaction, so all re-run on every hit.
            entry = self.plan_cache.get_source(source)
            if entry is not None:
                plan = entry.plan
                plan.cached = True
                self._check_authz("read", plan.query.target_class)
                snapshot = self._open_query_snapshot(plan)
                if snapshot is None:
                    self._take_scan_locks(plan)
                return plan.query, plan, entry.report, False, snapshot
        query = self._parse(query)
        if self.syscat.is_system(query.target_class):
            # System views are observability metadata, not stored objects:
            # no authorization named target, no view rewrite, no scan
            # locks (reading statistics must never block on user data).
            report = self._system_gate(query, source)
            with self.tracer.span("query.plan", target=query.target_class):
                plan = self.planner.plan(query)
            self._m_plans.inc()
            return query, plan, report, False, None
        self._check_authz("read", query.target_class)
        was_view = self.views is not None and self.views.is_view(query.target_class)
        if self.views is not None:
            query = self.views.rewrite(query)
        report = self._semantic_gate(query, source)
        # View-targeted queries are planned fresh each time: a view
        # redefinition would not bump the schema epoch the cache keys on.
        plan = self._plan_user_query(query, report, source, cacheable=not was_view)
        snapshot = self._open_query_snapshot(plan)
        if snapshot is None:
            self._take_scan_locks(plan)
        return plan.query, plan, report, was_view, snapshot

    def _take_scan_locks(self, plan: Plan) -> None:
        """Shared scan locks over the plan's scope, under the current txn.

        A plan the rewrite pass proved contradictory executes through
        :class:`~repro.query.operators.leaves.EmptyScanOp` without ever
        touching storage — so it takes no locks at all.  Snapshot reads
        never reach here: a query with a begin snapshot resolves
        visibility through the version store instead of locking (see
        :meth:`_open_query_snapshot`).
        """
        if isinstance(plan.access, EmptyScan):
            return
        current = self.txns.current
        if current is not None:
            for cls in plan.scope:
                self._lock_class_scan(current, cls)

    def _open_query_snapshot(self, plan: Plan) -> Optional[SnapshotView]:
        """The MVCC read path: a snapshot view for this query, or None.

        None (fall back to scan locks) when snapshot reads are disabled
        or the plan is a proven-empty scan that touches nothing anyway.
        Inside a transaction the snapshot is opened once at the first
        read and reused — repeatable reads across the whole transaction;
        outside one the snapshot is ephemeral and the query path closes
        it when the query (or stream) finishes.
        """
        if not self.snapshot_reads or isinstance(plan.access, EmptyScan):
            return None
        current = self.txns.current
        if current is not None:
            if current.snapshot is None:
                current.snapshot = self.version_store.open_snapshot(
                    current.txn_id
                )
            snap = current.snapshot
            ephemeral = False
        else:
            snap = self.version_store.open_snapshot(None)
            ephemeral = True
        return SnapshotView(
            self.version_store,
            snap,
            self._deref,
            self._scan_coerced,
            self._coerce,
            self.storage.contains,
            ephemeral=ephemeral,
        )

    def _close_query_snapshot(self, snapshot: Optional[SnapshotView]) -> None:
        """Release an ephemeral query snapshot (moves the GC horizon).

        Transaction-bound snapshots are left alone — the transaction
        manager closes them when the transaction finishes.
        """
        if snapshot is not None and snapshot.ephemeral:
            self.version_store.close_snapshot(snapshot.snapshot)

    def _record_query_stats(
        self,
        plan: Plan,
        pipeline,
        source: Optional[str],
        seconds: float,
        waits: Optional[Dict[str, float]] = None,
    ) -> None:
        """Fold one finished execution into the fingerprint accumulator.

        Keyed on the rewrite fingerprint the plan cache uses, so
        structurally equal queries share a SysQueryStat row.  System
        views and hand-built plans carry no rewrite and are skipped —
        observing the statistics must not perturb them.
        """
        rewrite = getattr(plan, "rewrite", None)
        if rewrite is None or pipeline is None:
            return
        self.query_stats.record(
            rewrite.fingerprint,
            plan.query.target_class,
            source,
            seconds,
            pipeline.examined,
            pipeline.matched,
            pipeline.index_probes,
            cache_hit=bool(plan.cached),
            waits=waits,
            epoch_token=(self.schema.version, self.indexes.epoch),
        )
        # Estimated-vs-actual row totals: the ratio of these counters is
        # the cost model's aggregate estimation error (EXPLAIN shows the
        # per-query version via SysQueryStat).
        cost = getattr(plan, "cost", None)
        if cost is not None and cost.mode == "statistics":
            self._m_cost_estimated_rows.inc(int(round(cost.estimated_rows)))
            self._m_cost_actual_rows.inc(pipeline.matched)

    def _execute(self, query: Union[str, Query], analyze: bool):
        source = query if isinstance(query, str) else None
        with self.tracer.span("query.execute"), self._m_query_seconds.time():
            query, plan, report, was_view, snapshot = self._prepare_query(query)
            is_system = self.syscat.is_system(query.target_class)
            elapsed = 0.0
            waited: Optional[Dict[str, float]] = None
            try:
                with self.tracer.span("query.run", access=plan.access.description):
                    if is_system:
                        result = self._executor.execute_rows(
                            plan,
                            self.syscat.kernel(query.target_class),
                            self.syscat.scan,
                            timed=analyze,
                        )
                    else:
                        with self.waits.capture() as waited:
                            started = time.perf_counter()
                            result = self._executor.execute(
                                plan, timed=analyze, snapshot=snapshot
                            )
                            elapsed = time.perf_counter() - started
            finally:
                self._close_query_snapshot(snapshot)
            if analyze:
                result.analysis = operator_tree(result.plan, result.pipeline)
            if is_system:
                # Statistics rows carry no OIDs: nothing to filter, and
                # querying the observer must not overwrite the observed
                # last-user-query operator stats below.
                self._m_executes.inc()
                self._m_query_rows.inc(len(result))
                return result, report
            self.last_operator_stats = result.operator_stats()
            self._record_query_stats(plan, result.pipeline, source, elapsed, waited)
            if self.authz is not None and not was_view:
                # Per-object content filtering; view queries skip it because
                # the right to the view *is* the content-based authorization.
                result = self.authz.filter_result(result)
            if self.mac is not None:
                # Mandatory filtering applies to every result, views included
                # (discretionary rights never override classification).
                result = self.mac.filter_result(result)
            self._m_executes.inc()
            self._m_query_rows.inc(len(result))
            return result, report

    def explain(self, query: Union[str, Query]) -> ExplainResult:
        """EXPLAIN ANALYZE: run the query, return the annotated plan.

        The result carries the per-node plan tree (rows produced and
        elapsed time read off the live operator counters, index-vs-scan
        access path) as structured data (``.tree``) and as a rendered
        string (``.render()`` / ``str()``) — the Section 2.2 feedback
        loop between the optimizer's estimates and observed work, made
        auditable.
        """
        with self.tracer.span("query.explain"):
            result, report = self._execute(query, analyze=True)
        rewrite = getattr(result.plan, "rewrite", None)
        entry = (
            self.query_stats.get(rewrite.fingerprint)
            if rewrite is not None
            else None
        )
        return ExplainResult(
            result.plan,
            result.analysis,
            result,
            diagnostics=report,
            querystats=entry,
        )

    def explain_analyze(self, query: Union[str, Query]) -> str:
        """Compatibility wrapper: the rendered form of :meth:`explain`."""
        return self.explain(query).render()

    def select(self, query: Union[str, Query]) -> List[Any]:
        """Convenience: run a query and return handles (no projections).

        System-view queries (``db.select("SysWaitEvent where ...")``)
        return the statistics row dicts directly — there are no objects
        behind them to hand out.
        """
        result = self.execute(query)
        if result.system:
            return list(result.rows or [])
        return [ObjectHandle(self, oid) for oid in result.oids]

    def select_iter(self, query: Union[str, Query]) -> QueryStream:
        """Stream query results as handles, one at a time.

        The Volcano pipeline is pulled lazily: nothing is materialized,
        and abandoning the stream (or a LIMIT upstream) stops the
        underlying scan early.  Aggregates and projections need the
        materializing :meth:`execute` path and are rejected here.
        Per-object authorization and mandatory filtering apply as the
        rows stream past, exactly as :meth:`execute` filters its result.

        Returns a :class:`QueryStream` (iterable, context manager).
        Under snapshot reads (the default) the stream runs lock-free
        against its begin snapshot, which is closed — moving the version
        GC horizon — when the stream is exhausted or closed.  With
        ``snapshot_reads=False`` and no transaction active on the
        calling thread, the stream begins its own read transaction so
        the scan locks taken during planning actually protect the scan;
        the transaction is detached from the thread immediately (later
        operations on this thread still autocommit independently) and is
        committed — releasing the scan locks — when the stream is
        exhausted or closed.
        """
        source = query if isinstance(query, str) else None
        implicit: Optional[Transaction] = None
        if self.txns.current is None and not self.snapshot_reads:
            implicit = self.txns.begin()
        snapshot = None
        try:
            prepared, plan, _report, was_view, snapshot = self._prepare_query(query)
            if self.syscat.is_system(prepared.target_class):
                raise QueryError(
                    "select_iter yields object handles; system views have "
                    "none — use execute() or select()"
                )
            if prepared.aggregates:
                raise QueryError("select_iter does not support aggregate queries")
            if prepared.projections is not None:
                raise QueryError("select_iter does not support projection queries")
            pipeline = self._executor.pipeline(plan, snapshot=snapshot)
            pipeline.open()
        except BaseException:
            if implicit is not None and implicit.is_active:
                implicit.abort()
            self._close_query_snapshot(snapshot)
            raise
        finally:
            if implicit is not None:
                self.txns.detach()
        return QueryStream(
            self, pipeline, implicit, was_view, snapshot=snapshot,
            plan=plan, source=source,
        )

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    _UNSET = object()

    def configure_observability(
        self,
        slow_threshold: Any = _UNSET,
        tracing: Optional[bool] = None,
        wait_profiling: Optional[bool] = None,
    ) -> None:
        """Adjust the observability layer at runtime.

        ``slow_threshold`` (seconds, or None to disable the slow log)
        forwards to :meth:`~repro.obs.tracing.Tracer.set_slow_threshold`;
        ``tracing`` and ``wait_profiling`` toggle span recording and the
        wait-event profiler.  Omitted arguments leave settings untouched.
        """
        if slow_threshold is not Database._UNSET:
            self.tracer.set_slow_threshold(slow_threshold)
        if tracing is not None:
            self.tracer.enabled = bool(tracing)
        if wait_profiling is not None:
            self.waits.enabled = bool(wait_profiling)

    # ------------------------------------------------------------------
    # transactions & workspaces
    # ------------------------------------------------------------------

    def transaction(self) -> Transaction:
        """Begin an explicit transaction (usable as a context manager)."""
        return self.txns.begin()

    def workspace(self, name: str = "", pessimistic: bool = False) -> PrivateWorkspace:
        """A private database for long-duration (checkout/checkin) work."""
        return PrivateWorkspace(self, name=name, pessimistic=pessimistic)

    def __repr__(self) -> str:
        return "<Database %s: %d classes, %d objects>" % (
            self.path or "memory",
            sum(1 for _ in self.schema.user_classes()),
            len(self.storage.directory),
        )
