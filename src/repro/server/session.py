"""Server sessions: one connected client's view of the database.

A :class:`Session` is the unit of transaction scope on the wire — the
paper's "sharable repository" requirement means many clients, each with
at most one open transaction.  Sessions bridge the engine's thread-local
transaction tracking and the server's thread pool: a transaction begun
by a session is immediately *detached* from the worker thread that
created it and parked on the session; every later request re-attaches
it (``TransactionManager.bound``) on whichever pool thread happens to
serve that request.

Lifecycle (see DESIGN.md for the full state diagram)::

    connect -> IDLE --begin--> IN_TXN --commit/rollback--> IDLE
    any state --disconnect/idle-timeout--> RELEASED
                (open transaction rolled back, cursors closed,
                 locks freed, session removed from the registry)

``release()`` is idempotent and is the single cleanup path for normal
close, client crash, and reaper-forced eviction alike, which is what
makes "kill a client mid-transaction leaves no stranded locks" a
structural property rather than a best-effort one.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional

from ..core.oid import OID
from ..database import Database, QueryStream
from ..errors import DeadlockError
from .protocol import (
    SessionError,
    error_response,
    from_wire,
    ok_response,
    to_wire,
)

#: Session states as reported by the SysSession view.
IDLE = "idle"
IN_TXN = "in_txn"
RELEASED = "released"


class Session:
    """One client connection's server-side state.

    Requests for a session are serialized by ``_session_mutex`` (a
    client sends one request at a time anyway; the mutex makes that a
    guarantee rather than an assumption).  The mutex sits *below* every
    engine lock in the ordering lattice: a request handler acquires it
    first and only then calls into the engine.
    """

    def __init__(
        self,
        session_id: int,
        db: Database,
        registry: "SessionRegistry",
        client: str = "?",
    ) -> None:
        self.session_id = session_id
        self.db = db
        self.client = client
        self._registry = registry
        self._session_mutex = threading.Lock()
        self._txn = None  # parked Transaction, attached per request
        self._cursors: Dict[int, QueryStream] = {}
        self._next_cursor = 1
        self._released = False
        #: True while a request is executing (the idle reaper skips
        #: sessions that are merely slow, not idle).
        self.busy = False
        self.requests = 0
        self.rows_streamed = 0
        self._created_clock = time.perf_counter()
        self._last_active_clock = self._created_clock

    # -- introspection (SysSession) ----------------------------------------

    @property
    def state(self) -> str:
        if self._released:
            return RELEASED
        return IN_TXN if self._txn is not None else IDLE

    @property
    def age_seconds(self) -> float:
        return time.perf_counter() - self._created_clock

    @property
    def idle_seconds(self) -> float:
        if self.busy:
            return 0.0
        return time.perf_counter() - self._last_active_clock

    @property
    def txn_id(self) -> Optional[int]:
        return self._txn.txn_id if self._txn is not None else None

    # -- request dispatch --------------------------------------------------

    def handle(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Execute one decoded request frame, returning the response dict.

        All engine exceptions become typed error frames here; nothing a
        client sends can take the connection handler down.
        """
        request_id = payload.get("id")
        op = payload.get("op")
        params = payload.get("params") or {}
        trace_id = self._trace_id(payload.get("trace"))
        self.busy = True
        try:
            with self._session_mutex:
                if self._released:
                    raise SessionError(
                        "session %d is released" % self.session_id
                    )
                self.requests += 1
                self.db.metrics.counter("server.requests").inc()
                handler = self._op_table().get(op)
                if handler is None:
                    raise SessionError("unknown op %r" % op)
                if not isinstance(params, dict):
                    raise SessionError("params must be an object")
                # Adopt the client's trace context for the whole request:
                # the server.request span, every nested engine span, wait
                # events and slow-op entries recorded on this thread all
                # carry the id the client stamped into the frame.
                with self.db.tracer.trace(trace_id):
                    with self.db.tracer.span("server.request", target=str(op)):
                        result = handler(params)
            return ok_response(request_id, result)
        except DeadlockError as exc:
            # The engine chose this transaction as the deadlock victim;
            # its locks must go away *now*, not when the client decides
            # to send a rollback.
            self._abort_parked_txn()
            self.db.metrics.counter("server.errors").inc()
            return error_response(request_id, exc)
        except Exception as exc:
            self.db.metrics.counter("server.errors").inc()
            return error_response(request_id, exc)
        finally:
            self._last_active_clock = time.perf_counter()
            self.busy = False

    @staticmethod
    def _trace_id(trace: Any) -> Optional[str]:
        """Sanitize the optional request-frame trace field.

        Accepts ``{"id": ..., "span": ...}`` (the client's format) or a
        bare string; anything else — or an oversized id, this is
        client-controlled input landing in server-side views — is
        dropped rather than rejected: tracing is observability, not
        validation, and an untraced request must still succeed.
        """
        if isinstance(trace, dict):
            trace = trace.get("id")
        if not isinstance(trace, str) or not trace or len(trace) > 64:
            return None
        return trace

    def _op_table(self) -> Dict[str, Callable[[Dict[str, Any]], Any]]:
        return {
            "ping": self._op_ping,
            "begin": self._op_begin,
            "commit": self._op_commit,
            "rollback": self._op_rollback,
            "query": self._op_query,
            "query_stream": self._op_query_stream,
            "fetch": self._op_fetch,
            "close_cursor": self._op_close_cursor,
            "new": self._op_new,
            "get": self._op_get,
            "update": self._op_update,
            "delete": self._op_delete,
            "stats": self._op_stats,
        }

    def _bound(self):
        """Context running the block under this session's transaction.

        Without an open transaction the engine's per-operation
        autocommit applies, exactly as in embedded use.
        """
        if self._txn is not None:
            return self.db.txns.bound(self._txn)
        return _NULL_CONTEXT

    def _abort_parked_txn(self) -> None:
        txn = self._txn
        self._txn = None
        if txn is not None and txn.is_active:
            txn.abort()

    # -- transaction ops ---------------------------------------------------

    def _op_ping(self, params: Dict[str, Any]) -> str:
        return "pong"

    def _op_begin(self, params: Dict[str, Any]) -> Dict[str, Any]:
        if self._txn is not None:
            raise SessionError(
                "session %d already has open transaction %d"
                % (self.session_id, self._txn.txn_id)
            )
        txn = self.db.txns.begin()
        # Park it: the worker thread returns to the pool, the session
        # owns the transaction until commit/rollback/release.
        self.db.txns.detach()
        self._txn = txn
        return {"txn": txn.txn_id}

    def _require_txn(self):
        if self._txn is None:
            raise SessionError(
                "session %d has no open transaction" % self.session_id
            )
        return self._txn

    def _op_commit(self, params: Dict[str, Any]) -> Dict[str, Any]:
        txn = self._require_txn()
        self._close_cursors()
        try:
            txn.commit()
        except Exception:
            # A failed commit (WAL append error, injected fault) must not
            # strand the transaction on the session: roll it back so its
            # locks die with the request, then surface the typed error.
            if txn.is_active:
                txn.abort()
            raise
        finally:
            self._txn = None
        return {"txn": txn.txn_id}

    def _op_rollback(self, params: Dict[str, Any]) -> Dict[str, Any]:
        txn = self._require_txn()
        self._close_cursors()
        self._txn = None
        txn.abort()
        return {"txn": txn.txn_id}

    # -- query ops ---------------------------------------------------------

    def _op_query(self, params: Dict[str, Any]) -> Dict[str, Any]:
        q = self._str_param(params, "q")
        want_values = bool(params.get("values"))
        with self._bound():
            result = self.db.execute(q)
            if result.system or result.rows is not None:
                rows: List[Any] = [to_wire(row) for row in result.rows or []]
            elif want_values:
                rows = [self._materialize(oid) for oid in result.oids]
            else:
                rows = [to_wire(oid) for oid in result.oids]
        return {"rows": rows, "count": len(rows)}

    def _op_query_stream(self, params: Dict[str, Any]) -> Dict[str, Any]:
        q = self._str_param(params, "q")
        with self._bound():
            stream = self.db.select_iter(q)
        cursor_id = self._next_cursor
        self._next_cursor += 1
        self._cursors[cursor_id] = stream
        self.db.metrics.gauge("server.cursors").set(len(self._cursors))
        return {"cursor": cursor_id}

    def _op_fetch(self, params: Dict[str, Any]) -> Dict[str, Any]:
        cursor_id = params.get("cursor")
        limit = int(params.get("n") or 64)
        if limit < 1:
            raise SessionError("fetch size must be positive")
        stream = self._cursors.get(cursor_id)
        if stream is None:
            raise SessionError("unknown cursor %r" % cursor_id)
        rows: List[Any] = []
        done = False
        with self._bound():
            while len(rows) < limit:
                try:
                    # The stream's own visible state, not a re-read of
                    # current storage: under snapshot reads the cursor
                    # must keep serving its begin snapshot even while
                    # writers commit between fetch batches.
                    state = stream.next_state()
                except StopIteration:
                    done = True
                    break
                rows.append(
                    {
                        "oid": to_wire(state.oid),
                        "class": state.class_name,
                        "values": to_wire(dict(state.values)),
                    }
                )
        if done:
            stream.close()
            self._cursors.pop(cursor_id, None)
            self.db.metrics.gauge("server.cursors").set(len(self._cursors))
        self.rows_streamed += len(rows)
        self.db.metrics.counter("server.rows_streamed").inc(len(rows))
        return {"rows": rows, "done": done}

    def _op_close_cursor(self, params: Dict[str, Any]) -> Dict[str, Any]:
        cursor_id = params.get("cursor")
        stream = self._cursors.pop(cursor_id, None)
        if stream is None:
            raise SessionError("unknown cursor %r" % cursor_id)
        stream.close()
        self.db.metrics.gauge("server.cursors").set(len(self._cursors))
        return {"closed": cursor_id}

    # -- object ops ----------------------------------------------------------

    def _op_new(self, params: Dict[str, Any]) -> Dict[str, Any]:
        class_name = self._str_param(params, "class")
        values = params.get("values") or {}
        if not isinstance(values, dict):
            raise SessionError("values must be an object")
        with self._bound():
            handle = self.db.new(class_name, from_wire(values))
        return {"oid": to_wire(handle.oid)}

    def _op_get(self, params: Dict[str, Any]) -> Dict[str, Any]:
        oid = self._oid_param(params)
        with self._bound():
            return self._materialize(oid)

    def _op_update(self, params: Dict[str, Any]) -> Dict[str, Any]:
        oid = self._oid_param(params)
        changes = params.get("changes")
        if not isinstance(changes, dict):
            raise SessionError("changes must be an object")
        with self._bound():
            self.db.update(oid, from_wire(changes))
        return {"oid": to_wire(oid)}

    def _op_delete(self, params: Dict[str, Any]) -> Dict[str, Any]:
        oid = self._oid_param(params)
        with self._bound():
            self.db.delete(oid)
        return {"oid": to_wire(oid)}

    def _op_stats(self, params: Dict[str, Any]) -> Dict[str, Any]:
        return to_wire(
            {
                "objects": len(self.db.storage.directory),
                "metrics": self.db.metrics.snapshot(),
                "querystats": self.db.query_stats.rows(),
            }
        )

    # -- param / row helpers -------------------------------------------------

    def _str_param(self, params: Dict[str, Any], key: str) -> str:
        value = params.get(key)
        if not isinstance(value, str) or not value:
            raise SessionError("op requires a non-empty %r string" % key)
        return value

    def _oid_param(self, params: Dict[str, Any]) -> OID:
        oid = from_wire(params.get("oid"))
        if not isinstance(oid, OID):
            raise SessionError("op requires an 'oid' reference")
        return oid

    def _materialize(self, oid) -> Dict[str, Any]:
        state = self.db.get_state(oid)
        return {
            "oid": to_wire(oid),
            "class": state.class_name,
            "values": to_wire(dict(state.values)),
        }

    # -- teardown ------------------------------------------------------------

    def _close_cursors(self) -> None:
        cursors, self._cursors = self._cursors, {}
        for stream in cursors.values():
            stream.close()
        self.db.metrics.gauge("server.cursors").set(0)

    def release(self) -> None:
        """Tear the session down: cursors closed, transaction rolled
        back, registry entry removed.  Idempotent; runs on clean close,
        client crash and reaper eviction alike."""
        with self._session_mutex:
            if self._released:
                return
            self._released = True
            self._close_cursors()
            self._abort_parked_txn()
        self._registry.remove(self)

    def __repr__(self) -> str:
        return "<Session %d %s client=%s>" % (
            self.session_id,
            self.state,
            self.client,
        )


class _NullContext:
    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


class SessionRegistry:
    """All live sessions of one server; the SysSession row source.

    The server attaches its registry as ``db.sessions``, which is all
    the wiring the system catalog needs — ``SysSession`` then flows
    through the same parse/plan/pipeline path as every other view.
    """

    def __init__(self, db: Database) -> None:
        self.db = db
        self._sessions_mutex = threading.Lock()
        self._sessions: Dict[int, Session] = {}
        self._next_id = 1
        self._m_sessions = db.metrics.gauge("server.sessions")

    def create(self, client: str = "?") -> Session:
        with self._sessions_mutex:
            session_id = self._next_id
            self._next_id += 1
            session = Session(session_id, self.db, self, client=client)
            self._sessions[session_id] = session
            self._m_sessions.set(len(self._sessions))
        return session

    def remove(self, session: Session) -> None:
        with self._sessions_mutex:
            self._sessions.pop(session.session_id, None)
            self._m_sessions.set(len(self._sessions))

    def snapshot(self) -> List[Session]:
        with self._sessions_mutex:
            return [self._sessions[sid] for sid in sorted(self._sessions)]

    def __len__(self) -> int:
        with self._sessions_mutex:
            return len(self._sessions)

    def release_all(self) -> None:
        for session in self.snapshot():
            session.release()

    def rows(self) -> Iterator[Dict[str, Any]]:
        """SysSession rows (fresh snapshot per scan)."""
        for session in self.snapshot():
            yield {
                "session": session.session_id,
                "client": session.client,
                "state": session.state,
                "txn": session.txn_id,
                "age": session.age_seconds,
                "idle": session.idle_seconds,
                "requests": session.requests,
                "rows_streamed": session.rows_streamed,
                "cursors": len(session._cursors),
            }
