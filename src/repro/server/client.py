"""The network driver: ``repro.client.connect("repro://host:port")``.

A :class:`RemoteConnection` / :class:`RemoteCursor` pair built on the
in-process PEP-249 surface of :mod:`repro.sqldb.connection`: the cursor
(fetch family, ``description``, ``rowcount``, ``result``) and the
connection's ``cursor``/``execute``/context manager are the same code,
and only the backend differs - each statement or batch is one request -
so code written against ``repro.connect()`` ports to the server by
swapping the connect call::

    conn = repro.client.connect("repro://127.0.0.1:5433", token="s3cret")
    cur = conn.cursor()
    cur.execute("SELECT model_id, model_name FROM fmus WHERE model_id = $1", [1])
    cur.fetchall()

Differences from the in-process driver, all forced by the wire:

* results are fully materialized on the server and shipped in the response
  (no driver-side streaming; the frame cap bounds a single result);
* :meth:`RemoteConnection.cancel` opens a *second* TCP connection carrying
  the session's ``cancel_key`` (out-of-band, PostgreSQL-style), because
  this connection's socket is blocked waiting for the statement's reply;
* server-side errors arrive as ``{"ok": false, "error": ...}`` responses
  and re-raise locally as the matching :class:`~repro.errors.ReproError`
  subclass (falling back to :class:`~repro.errors.ServerError` for types
  this client does not know).

One request is in flight per connection at a time (a mutex enforces it),
matching the simple request/response protocol.  Use one connection per
thread for parallelism - connections are cheap, sessions are isolated.
"""

from __future__ import annotations

import socket
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

import repro.errors as _errors
from repro.errors import ProtocolError, ReproError, ServerError
from repro.server import protocol
from repro.sqldb.connection import BaseConnection, Cursor
from repro.sqldb.result import ResultSet

#: PEP-249 module attributes, matching the in-process driver.
apilevel = "2.0"
threadsafety = 2
paramstyle = "numeric_dollar"


def connect(
    url: str,
    token: Optional[str] = None,
    statement_timeout: Optional[float] = None,
    connect_timeout: float = 10.0,
) -> "RemoteConnection":
    """Open a session on a :class:`~repro.server.server.ReproServer`.

    ``url`` is ``repro://host:port`` (``host:port`` is accepted too).
    ``token`` authenticates against the server's configured tokens; leave
    it None for an open server.  ``statement_timeout`` seeds the session's
    per-statement deadline (server-side, changeable later through
    :attr:`RemoteConnection.statement_timeout`).
    """
    host, port = _parse_url(url)
    sock = socket.create_connection((host, port), timeout=connect_timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    try:
        hello: Dict[str, Any] = {"op": "hello", "token": token}
        if statement_timeout is not None:
            hello["options"] = {"statement_timeout": statement_timeout}
        protocol.send_message(sock, hello)
        reply = protocol.recv_message(sock)
        if reply is None:
            raise ProtocolError("server closed the connection during the handshake")
        if not reply.get("ok"):
            raise _error_from_response(reply)
        sock.settimeout(None)  # statements may legitimately run for a while
        return RemoteConnection(sock, host, port, reply)
    except BaseException:
        _close_quietly(sock)
        raise


class RemoteCursor(Cursor):
    """A DB-API-style cursor over a :class:`RemoteConnection`.

    The shared :class:`~repro.sqldb.connection.Cursor` with the network
    backend bound: the full result of each statement arrives with its
    response, and the fetch family walks that local buffer.
    """

    def _run(self, sql: str, params: Optional[Sequence[Any]]) -> ResultSet:
        return _result_of(
            self._connection._roundtrip(
                {"op": "execute", "sql": sql, "params": _params_list(params)}
            )
        )

    def _run_many(self, sql: str, seq_of_params: Sequence[Sequence[Any]]) -> ResultSet:
        # The whole batch ships as one request and runs server-side under
        # the in-process driver's all-or-nothing contract.
        return _result_of(
            self._connection._roundtrip(
                {
                    "op": "executemany",
                    "sql": sql,
                    "params_seq": [_params_list(params) or [] for params in seq_of_params],
                }
            )
        )


class RemoteConnection(BaseConnection):
    """One session on a repro server; mirrors the in-process Connection."""

    _cursor_class = RemoteCursor
    _error = ServerError

    def __init__(self, sock: socket.socket, host: str, port: int, hello: Dict[str, Any]):
        self._sock: Optional[socket.socket] = sock
        self._host = host
        self._port = port
        self.session_id: int = hello["session"]
        self.cancel_key: str = hello["cancel_key"]
        self.user: str = hello.get("user", "anonymous")
        self.protocol_version: int = hello.get("protocol", protocol.PROTOCOL_VERSION)
        self._began = False
        self._request_mutex = threading.Lock()

    # ------------------------------------------------------------------ #
    # Requests
    # ------------------------------------------------------------------ #
    def _roundtrip(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request and wait for its response (serialized)."""
        with self._request_mutex:
            sock = self._sock
            if sock is None:
                raise ServerError("connection is closed")
            try:
                protocol.send_message(sock, request)
                response = protocol.recv_message(sock)
            except OSError as exc:
                self._abandon()
                raise ServerError(f"connection to the server was lost: {exc}") from exc
            if response is None:
                self._abandon()
                raise ServerError("server closed the connection")
        if not response.get("ok"):
            raise _error_from_response(response)
        return response

    def explain(self, sql: str, params: Optional[Sequence[Any]] = None) -> str:
        """The server-side query plan for ``sql``, as rendered text."""
        self._check_open()
        response = self._roundtrip(
            {"op": "explain", "sql": sql, "params": _params_list(params)}
        )
        return response["text"]

    def ping(self) -> bool:
        """A server round-trip confirming the session is alive."""
        self._check_open()
        return bool(self._roundtrip({"op": "ping"}).get("ok"))

    # ------------------------------------------------------------------ #
    # Cancellation (out-of-band, through a fresh connection)
    # ------------------------------------------------------------------ #
    def cancel(self, timeout: float = 10.0) -> bool:
        """Cancel the statement currently running on *this* session.

        Opens a second short-lived connection (this one is blocked waiting
        for the statement's reply) carrying the session id and secret
        ``cancel_key``.  Safe from any thread; returns True when the server
        found and cancelled a running statement.
        """
        cancel_sock = socket.create_connection((self._host, self._port), timeout=timeout)
        try:
            protocol.send_message(
                cancel_sock,
                {
                    "op": "cancel",
                    "session": self.session_id,
                    "cancel_key": self.cancel_key,
                },
            )
            reply = protocol.recv_message(cancel_sock)
            return bool(reply and reply.get("cancelled"))
        finally:
            _close_quietly(cancel_sock)

    # ------------------------------------------------------------------ #
    # Transactions
    # ------------------------------------------------------------------ #
    def begin(self) -> None:
        """Leave autocommit: start an explicit transaction on the session."""
        self._check_open()
        self._roundtrip({"op": "begin"})
        self._began = True

    def commit(self) -> None:
        """Commit the transaction this session began (no-op otherwise)."""
        self._check_open()
        if self._began:
            self._roundtrip({"op": "commit"})
            self._began = False

    def rollback(self) -> None:
        """Roll back the transaction this session began (no-op otherwise)."""
        self._check_open()
        if self._began:
            self._roundtrip({"op": "rollback"})
            self._began = False

    @property
    def in_transaction(self) -> bool:
        return self._began

    # ------------------------------------------------------------------ #
    # Statement timeout (server-side, per session)
    # ------------------------------------------------------------------ #
    @property
    def statement_timeout(self) -> Optional[float]:
        """This session's per-statement deadline in seconds (None disables).

        Both reads and writes round-trip to the server - the authoritative
        value lives with the session, exactly like ``SET statement_timeout``
        in PostgreSQL.
        """
        self._check_open()
        return self._roundtrip({"op": "set"}).get("statement_timeout")

    @statement_timeout.setter
    def statement_timeout(self, value: Optional[float]) -> None:
        self._check_open()
        self._roundtrip({"op": "set", "statement_timeout": value})

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        return self._sock is None

    def close(self) -> None:
        """Say goodbye and drop the socket; the server rolls back any open
        transaction when the session closes.  Idempotent."""
        with self._request_mutex:
            sock = self._sock
            if sock is None:
                return
            self._sock = None
            try:
                protocol.send_message(sock, {"op": "close"})
                protocol.recv_message(sock)
            except (OSError, ProtocolError):
                pass  # the server notices EOF and cleans the session up
            finally:
                self._began = False
                _close_quietly(sock)

    def _abandon(self) -> None:
        """Drop a broken socket without the goodbye handshake."""
        sock, self._sock = self._sock, None
        self._began = False
        if sock is not None:
            _close_quietly(sock)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else "open"
        return f"RemoteConnection({state}, repro://{self._host}:{self._port}, session={self.session_id})"


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #
def _parse_url(url: str) -> Tuple[str, int]:
    """``repro://host:port`` (or bare ``host:port``) -> ``(host, port)``."""
    rest = url
    if "//" in rest:
        scheme, _, rest = rest.partition("//")
        scheme = scheme.rstrip(":")
        if scheme and scheme != "repro":
            raise ProtocolError(f"unsupported URL scheme {scheme!r} (expected repro://)")
    rest = rest.rstrip("/")
    host, sep, port_text = rest.rpartition(":")
    if not sep or not host:
        raise ProtocolError(f"malformed server URL {url!r} (expected repro://host:port)")
    try:
        port = int(port_text)
    except ValueError:
        raise ProtocolError(f"malformed port in server URL {url!r}") from None
    return host, port


def _params_list(params: Optional[Sequence[Any]]) -> Optional[List[Any]]:
    if params is None:
        return None
    return list(params)


def _result_of(response: Dict[str, Any]) -> ResultSet:
    """The response's result, holding the decoded rows as they are: they
    are fresh lists already, so the per-row copy of ``ResultSet`` is skipped."""
    result = ResultSet(response.get("columns") or [], [], response.get("rowcount", -1))
    result.rows = response.get("rows") or []
    return result


def _error_from_response(response: Dict[str, Any]) -> ReproError:
    """The typed exception a ``{"ok": false}`` response stands for."""
    error = response.get("error")
    if not isinstance(error, dict):
        return ServerError("server reported an error without details")
    name = error.get("type", "")
    message = error.get("message", "server error")
    exc_type = getattr(_errors, str(name), None)
    if isinstance(exc_type, type) and issubclass(exc_type, ReproError):
        return exc_type(message)
    return ServerError(f"{name}: {message}" if name else message)


def _close_quietly(sock: socket.socket) -> None:
    try:
        sock.close()
    except OSError:
        pass
