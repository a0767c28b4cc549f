"""The network front end: wire protocol, sessions, isolation, cleanup.

Covers the repro.server subsystem end to end over real sockets: frame
and OID codecs, typed error frames, session-scoped transactions
(read-your-writes, writer/writer conflict as a typed error rather than
a hang, rollback-and-release on disconnect), cursor streaming, the
idle-session reaper, the SysSession view, and the connection pool.
"""

import threading
import time

import pytest

from repro import AttributeDef, Database
from repro.core.oid import OID
from repro.errors import (
    DeadlockError,
    LockTimeoutError,
    ObjectNotFoundError,
    QuerySyntaxError,
    TransactionError,
)
from repro.server import Client, ConnectionPool, ProtocolError, Server, ServerError
from repro.server import protocol


def _wait_until(predicate, timeout=5.0):
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def _make_db():
    db = Database()
    db.define_class(
        "Vehicle",
        attributes=[
            AttributeDef("weight", "Integer"),
            AttributeDef("color", "String", default="white"),
        ],
    )
    for i in range(24):
        db.new("Vehicle", {"weight": 1000 + i, "color": ("red", "blue")[i % 2]})
    return db


@pytest.fixture
def served():
    """(db, server) with a short lock timeout so conflicts fail fast."""
    db = _make_db()
    server = Server(db, port=0, workers=4, lock_timeout=0.5)
    server.start()
    yield db, server
    server.stop()
    db.close()


@pytest.fixture
def client(served):
    _db, server = served
    c = Client(*server.address)
    yield c
    c.close()


class TestProtocol:
    def test_frame_round_trip(self):
        payload = {"id": 7, "op": "query", "params": {"q": "Vehicle"}}
        frame = protocol.encode_frame(payload)
        length = protocol.frame_length(frame[:4])
        assert length == len(frame) - 4
        assert protocol.decode_payload(frame[4:]) == payload

    def test_oversized_announced_frame_rejected(self):
        import struct

        header = struct.pack(">I", protocol.MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError):
            protocol.frame_length(header)

    def test_malformed_body_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.decode_payload(b"not json at all {")
        with pytest.raises(ProtocolError):
            protocol.decode_payload(b"[1, 2, 3]")  # not an object

    def test_oid_survives_wire_round_trip(self):
        oid = OID(42, "Vehicle")
        revived = protocol.from_wire(protocol.to_wire({"ref": oid, "n": [1, oid]}))
        assert revived["n"][1] == oid
        assert revived["ref"].hint == "Vehicle"

    def test_unencodable_value_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.to_wire(object())

    def test_error_codes_most_specific_first(self):
        assert protocol.error_code(DeadlockError("x")) == "DEADLOCK"
        assert protocol.error_code(LockTimeoutError("x")) == "LOCK_TIMEOUT"
        assert protocol.error_code(TransactionError("x")) == "TRANSACTION"
        assert protocol.error_code(QuerySyntaxError("x")) == "SYNTAX"
        assert protocol.error_code(ObjectNotFoundError("x")) == "NOT_FOUND"
        assert protocol.error_code(ValueError("x")) == "INTERNAL"


class TestBasicOps:
    def test_ping(self, client):
        assert client.ping()

    def test_object_lifecycle_over_the_wire(self, client):
        oid = client.new("Vehicle", {"weight": 7600, "color": "green"})
        assert isinstance(oid, OID)
        fetched = client.get(oid)
        assert fetched["class"] == "Vehicle"
        assert fetched["values"]["weight"] == 7600
        client.update(oid, {"color": "black"})
        assert client.get(oid)["values"]["color"] == "black"
        client.delete(oid)
        with pytest.raises(ServerError) as err:
            client.get(oid)
        assert err.value.code == "NOT_FOUND"

    def test_query_returns_oids_or_values(self, client):
        oids = client.query("Vehicle where color = 'red'")
        assert oids and all(isinstance(o, OID) for o in oids)
        rows = client.query("Vehicle where color = 'red'", values=True)
        assert len(rows) == len(oids)
        assert all(row["values"]["color"] == "red" for row in rows)

    def test_syntax_error_is_typed(self, client):
        with pytest.raises(ServerError) as err:
            client.query("SELEKT banana FROM nowhere")
        assert err.value.code == "SYNTAX"

    def test_unknown_op_is_session_error(self, client):
        with pytest.raises(ServerError) as err:
            client.call("frobnicate")
        assert err.value.code == "SESSION"

    def test_protocol_error_closes_connection(self, served):
        _db, server = served
        c = Client(*server.address)
        # A length prefix announcing more than MAX_FRAME_BYTES.
        import struct

        c._sock.sendall(struct.pack(">I", protocol.MAX_FRAME_BYTES + 1))
        payload, _n = protocol.recv_frame(c._sock)
        assert payload["ok"] is False
        assert payload["error"]["code"] == "PROTOCOL"
        with pytest.raises(ConnectionError):
            protocol.recv_frame(c._sock)  # server hung up
        c.close()

    def test_stats_op(self, client):
        snapshot = client.stats()
        assert snapshot["objects"] >= 24
        # Counters travel by registry name; there are no per-subsystem
        # copies beside the metrics snapshot.
        assert snapshot["metrics"]["buffer.hits"] > 0
        assert snapshot["metrics"]["txn.commits"] >= 24
        assert isinstance(snapshot["querystats"], list)
        assert not {"buffer", "pager", "locks", "transactions"} & set(snapshot)


class TestSessionTransactions:
    def test_read_your_writes_then_rollback(self, served):
        db, server = served
        target = db.select("Vehicle where color = 'red' limit 1")[0].oid
        with Client(*server.address) as c1:
            c1.begin()
            c1.update(target, {"color": "purple"})
            # The writer sees its own uncommitted write...
            assert c1.get(target)["values"]["color"] == "purple"
            c1.rollback()
            # ...and rollback restores the committed state for everyone.
            with Client(*server.address) as c2:
                assert c2.get(target)["values"]["color"] == "red"

    def test_commit_is_visible_to_other_sessions(self, served):
        db, server = served
        target = db.select("Vehicle where color = 'blue' limit 1")[0].oid
        with Client(*server.address) as c1, Client(*server.address) as c2:
            c1.begin()
            c1.update(target, {"weight": 31337})
            c1.commit()
            assert c2.get(target)["values"]["weight"] == 31337

    def test_writer_writer_conflict_is_typed_error_not_hang(self, served):
        db, server = served
        target = db.select("Vehicle limit 1")[0].oid
        with Client(*server.address) as c1, Client(*server.address) as c2:
            c1.begin()
            c1.update(target, {"color": "held"})
            c2.begin()
            started = time.perf_counter()
            with pytest.raises(ServerError) as err:
                c2.update(target, {"color": "contender"})
            elapsed = time.perf_counter() - started
            assert err.value.code == "LOCK_TIMEOUT"
            assert elapsed < 5.0  # bounded by the server's lock_timeout
            c1.rollback()
            # The loser's transaction is still usable after the timeout.
            c2.update(target, {"color": "contender"})
            c2.commit()
        assert db.select("Vehicle where color = 'contender' limit 1")

    def test_nested_begin_rejected(self, client):
        client.begin()
        with pytest.raises(ServerError) as err:
            client.call("begin")
        assert err.value.code == "SESSION"
        client.rollback()

    def test_commit_without_begin_rejected(self, client):
        with pytest.raises(ServerError) as err:
            client.call("commit")
        assert err.value.code == "SESSION"

    def test_disconnect_mid_txn_rolls_back_and_frees_locks(self, served):
        db, server = served
        target = db.select("Vehicle limit 1")[0].oid
        victim = Client(*server.address)
        victim.begin()
        victim.update(target, {"color": "doomed"})
        assert db.txns.active_transactions()
        victim.kill()
        assert _wait_until(lambda: len(server.sessions) == 0)
        assert _wait_until(lambda: not db.txns.active_transactions())
        # SysLock and SysSession agree: nothing is held, nobody is home.
        assert db.select("SysLock") == []
        assert db.select("SysSession") == []
        # And a fresh client can write the object immediately.
        with Client(*server.address) as c:
            c.update(target, {"color": "survivor"})
            assert c.get(target)["values"]["color"] == "survivor"

    def test_deadlock_victim_gets_typed_error_and_loses_txn(self, served):
        db, server = served
        vehicles = db.select("Vehicle limit 2")
        oid_a, oid_b = vehicles[0].oid, vehicles[1].oid
        errors = []
        with Client(*server.address) as c1, Client(*server.address) as c2:
            c1.begin()
            c1.update(oid_a, {"weight": 1})
            c2.begin()
            c2.update(oid_b, {"weight": 2})

            def cross():
                try:
                    c1.update(oid_b, {"weight": 3})
                except ServerError as exc:
                    errors.append(exc)

            thread = threading.Thread(target=cross)
            thread.start()
            try:
                c2.update(oid_a, {"weight": 4})
            except ServerError as exc:
                errors.append(exc)
            thread.join(timeout=30)
        assert errors, "one of the two writers must fail"
        assert all(e.code in ("DEADLOCK", "LOCK_TIMEOUT") for e in errors)
        # Whatever happened, disconnecting both cleaned everything up.
        assert _wait_until(lambda: not db.txns.active_transactions())
        assert db.select("SysLock") == []

    def test_commit_time_error_surfaces_typed_and_ends_txn(self, served):
        db, server = served
        real_log_commit = db.wal.log_commit

        def failing_log_commit(txn_id):
            raise TransactionError("injected commit failure")

        with Client(*server.address) as c:
            c.begin()
            oid = c.new("Vehicle", {"weight": 123, "color": "doomed"})
            db.wal.log_commit = failing_log_commit
            try:
                with pytest.raises(ServerError) as err:
                    c.commit()
            finally:
                db.wal.log_commit = real_log_commit
            # The failure reaches the caller with its typed wire code —
            # not swallowed by a pool rollback on a dead transaction.
            assert err.value.code == "TRANSACTION"
            assert not c.in_txn
            # Server side: the transaction was rolled back, not stranded.
            assert db.txns.active_transactions() == []
            assert db.select("SysLock") == []
            assert db.select("Vehicle where color = 'doomed'") == []
            # The connection is still usable for a fresh transaction.
            c.begin()
            c.new("Vehicle", {"weight": 124, "color": "phoenix"})
            c.commit()
            assert len(db.select("Vehicle where color = 'phoenix'")) == 1

    def test_transaction_context_propagates_commit_error(self, served):
        db, server = served
        real_log_commit = db.wal.log_commit

        def failing_log_commit(txn_id):
            raise TransactionError("injected commit failure")

        with Client(*server.address) as c:
            try:
                with pytest.raises(ServerError) as err:
                    with c.transaction():
                        c.new("Vehicle", {"weight": 9, "color": "ghost"})
                        db.wal.log_commit = failing_log_commit
            finally:
                db.wal.log_commit = real_log_commit
            assert err.value.code == "TRANSACTION"
            assert not c.in_txn
            assert db.txns.active_transactions() == []


class TestStreaming:
    def test_query_stream_yields_all_rows(self, client):
        rows = list(client.query_stream("Vehicle where color = 'red'", batch=5))
        assert len(rows) == 12
        assert all(row["values"]["color"] == "red" for row in rows)

    def test_abandoned_stream_releases_server_state(self, served):
        db, server = served
        with Client(*server.address) as c:
            stream = c.query_stream("Vehicle", batch=4)
            next(stream)
            next(stream)
            stream.close()  # generator finally -> close_cursor round trip
            # The cursor is gone server-side and its read txn released.
            assert _wait_until(lambda: not db.txns.active_transactions())
            rows = db.select("SysSession")
            assert len(rows) == 1 and rows[0]["cursors"] == 0

    def test_fetch_unknown_cursor(self, client):
        with pytest.raises(ServerError) as err:
            client.call("fetch", cursor=999)
        assert err.value.code == "SESSION"

    def test_stream_under_session_txn_sees_own_writes(self, client):
        client.begin()
        oid = client.new("Vehicle", {"weight": 50000, "color": "cerise"})
        seen = [
            row
            for row in client.query_stream("Vehicle where color = 'cerise'")
            if row["oid"] == oid
        ]
        assert len(seen) == 1
        client.rollback()


class TestSysSession:
    def test_sessions_visible_while_connected(self, served):
        db, server = served
        with Client(*server.address) as c:
            assert c.ping()
            rows = db.select("SysSession")
            assert len(rows) == 1
            row = rows[0]
            assert row["state"] == "idle"
            assert row["requests"] >= 1
            c.begin()
            row = db.select("SysSession")[0]
            assert row["state"] == "in_txn"
            assert row["txn"] == db.txns.active_transactions()[0]
            c.rollback()
        assert _wait_until(lambda: db.select("SysSession") == [])

    def test_syssession_queryable_over_the_wire(self, served):
        _db, server = served
        with Client(*server.address) as c:
            rows = c.query("SysSession")
            assert len(rows) == 1
            assert rows[0]["client"].startswith("127.0.0.1:")


class TestIdleReaper:
    def test_idle_session_is_evicted_and_rolled_back(self):
        db = _make_db()
        target = db.select("Vehicle limit 1")[0].oid
        with Server(db, port=0, workers=2, idle_timeout=0.3) as server:
            c = Client(*server.address)
            c.begin()
            c.update(target, {"color": "sleepy"})
            assert _wait_until(lambda: len(server.sessions) == 0, timeout=10.0)
            assert not db.txns.active_transactions()
            assert db.select("SysLock") == []
            assert db.metrics.counter("server.idle_evictions").value >= 1
            with pytest.raises((ConnectionError, OSError)):
                c.ping()
            c.close()
        db.close()


class TestConnectionPool:
    def test_pooled_connection_is_reused(self, served):
        _db, server = served
        with ConnectionPool(*server.address, size=2) as pool:
            c1 = pool.acquire()
            pool.release(c1)
            c2 = pool.acquire()
            assert c2 is c1
            pool.release(c2)

    def test_release_rolls_back_open_txn(self, served):
        db, server = served
        target = db.select("Vehicle limit 1")[0].oid
        with ConnectionPool(*server.address, size=2) as pool:
            c = pool.acquire()
            c.begin()
            c.update(target, {"color": "leaky"})
            pool.release(c)
            assert not c.in_txn
            assert not db.txns.active_transactions()

    def test_dead_pooled_connection_replaced(self, served):
        _db, server = served
        with ConnectionPool(*server.address, size=2) as pool:
            c = pool.acquire()
            pool.release(c)
            c._sock.close()  # the server side of the pool entry died
            fresh = pool.acquire()
            assert fresh.ping()
            pool.release(fresh)


class TestServerLifecycle:
    def test_stop_is_idempotent_and_detaches_registry(self):
        db = _make_db()
        server = Server(db, port=0)
        server.start()
        assert db.sessions is server.sessions
        server.stop()
        server.stop()
        assert db.sessions is None
        db.close()

    def test_database_close_is_idempotent(self, tmp_path):
        db = Database(str(tmp_path / "kimdb.pages"))
        db.define_class("Thing", attributes=[AttributeDef("n", "Integer")])
        db.new("Thing", {"n": 1})
        db.close()
        assert db.closed
        db.close()  # second close is a no-op, not a crash
        assert db.closed

    def test_in_memory_double_close(self):
        db = Database()
        db.close()
        db.close()
        assert db.closed


class TestSemanticErrorPayload:
    """Semantic/rewrite diagnostics must survive the wire with their
    source spans intact: the remote client gets the same line/column and
    caret snippet a local caller sees in the rendered message."""

    def test_semantic_error_keeps_span_over_the_wire(self, client):
        query = "SELECT v FROM Vehicle v WHERE v.bogus = 1"
        with pytest.raises(ServerError) as err:
            client.query(query)
        exc = err.value
        assert exc.code == "SEMANTIC"
        assert exc.diagnostics, "SEMANTIC error frame lost its diagnostics"
        diag = exc.diagnostics[0]
        assert diag["code"] == "ANA101"
        assert diag["severity"] == "error"
        # The span is the character range of `v.bogus` in the query text.
        start, end = diag["span"]
        assert query[start:end] == "v.bogus"
        assert diag["line"] == 1
        assert diag["column"] == start + 1
        caret_line, caret = diag["caret"].split("\n")
        assert caret_line == query
        assert caret.index("^") == start
        assert caret.count("^") == end - start

    def test_rewrite_info_diagnostics_do_not_fail_queries(self, client):
        # A provably-empty query is still a *successful* query: REW001 is
        # informational, the server returns an empty result, not an error.
        oids = client.query("Vehicle where weight > 10 and weight < 5")
        assert oids == []
