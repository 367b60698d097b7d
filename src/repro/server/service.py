"""Sessions, token authentication, and request dispatch.

One :class:`ReproService` wraps one shared :class:`~repro.sqldb.Database`.
Every client connection gets a :class:`SessionState`: its own driver-layer
:class:`~repro.sqldb.connection.Connection` (so cancel tokens, transaction
ownership and ``statement_timeout`` are all per session), a numeric session
id, and a random ``cancel_key`` that authorizes out-of-band cancellation -
the same shape as PostgreSQL's ``BackendKeyData`` + ``CancelRequest``.

Authentication is token-based: the service is configured with a mapping of
user names to secret tokens (or a bare iterable of tokens).  The first
message of a connection carries the token; comparisons are constant-time.
With no tokens configured the service is open (every hello is accepted as
``anonymous``) - convenient for tests and localhost tooling, explicit
enough not to happen by accident in a configured deployment.

Dispatch is deliberately a plain request/response mapping: ``execute``,
``executemany``, ``explain``, ``begin``/``commit``/``rollback``, ``set``,
``ping``.  Engine errors never kill the session - they serialize into
``{"ok": false, "error": {...}}`` responses and the client re-raises them
as the matching typed :class:`~repro.errors.ReproError` subclass.
"""

from __future__ import annotations

import hmac
import itertools
import secrets
import threading
from typing import Any, Dict, Iterable, Mapping, Optional, Union

from repro.errors import AuthError, ProtocolError, ReproError
from repro.sqldb.connection import Connection, Cursor
from repro.sqldb.database import Database


class SessionState:
    """One authenticated client session on the service."""

    __slots__ = ("id", "user", "cancel_key", "connection")

    def __init__(self, session_id: int, user: str, connection: Connection):
        self.id = session_id
        self.user = user
        #: Secret authorizing out-of-band cancellation of this session.
        self.cancel_key = secrets.token_hex(16)
        self.connection = connection


def error_response(exc: BaseException) -> Dict[str, Any]:
    """The wire form of a failed request."""
    return {
        "ok": False,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }


class ReproService:
    """Session registry + auth + dispatch over one shared database.

    Parameters
    ----------
    database:
        The engine every session shares.  Statement-level isolation comes
        from the database's statement lock (SELECTs share, writes
        serialize) and per-connection cancel tokens.
    tokens:
        ``{user: token}`` credentials, a bare iterable of accepted tokens
        (users are then named ``client``), or None for an open service.
    """

    def __init__(
        self,
        database: Optional[Database] = None,
        tokens: Union[Mapping[str, str], Iterable[str], None] = None,
    ):
        self.database = database if database is not None else Database()
        if tokens is None:
            self._tokens: Optional[Dict[str, str]] = None
        elif isinstance(tokens, Mapping):
            self._tokens = dict(tokens)
        else:
            token_list = list(tokens)
            if len(token_list) == 1:
                self._tokens = {"client": token_list[0]}
            else:
                self._tokens = {
                    f"client{i}": token for i, token in enumerate(token_list)
                }
        self._sessions: Dict[int, SessionState] = {}
        self._sessions_mutex = threading.Lock()
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------ #
    # Authentication and session lifecycle
    # ------------------------------------------------------------------ #
    def authenticate(self, token: Optional[str]) -> str:
        """The user a token belongs to; raises :class:`AuthError` otherwise."""
        if self._tokens is None:
            return "anonymous"
        if isinstance(token, str):
            for user, expected in self._tokens.items():
                if hmac.compare_digest(expected.encode(), token.encode()):
                    return user
        raise AuthError("authentication failed: unknown or missing token")

    def open_session(
        self, token: Optional[str], options: Optional[Mapping[str, Any]] = None
    ) -> SessionState:
        """Authenticate and create a session with its own connection."""
        user = self.authenticate(token)
        connection = Connection(self.database)
        session = SessionState(next(self._ids), user, connection)
        for key, value in dict(options or {}).items():
            if key == "statement_timeout":
                connection.statement_timeout = _timeout_value(value)
            else:
                raise ProtocolError(f"unknown session option {key!r}")
        with self._sessions_mutex:
            self._sessions[session.id] = session
        return session

    def close_session(self, session: SessionState) -> None:
        """Tear a session down: its open transaction rolls back, its
        statement-lock hold (if any) releases with it."""
        with self._sessions_mutex:
            self._sessions.pop(session.id, None)
        session.connection.close()

    def session_count(self) -> int:
        with self._sessions_mutex:
            return len(self._sessions)

    def cancel(self, session_id: Any, cancel_key: Any) -> bool:
        """Out-of-band cancel: flip the target session's active statement.

        Requires the session's ``cancel_key``; a wrong key (or an unknown
        session) reports False without revealing which of the two it was.
        Returns True when a running statement was told to cancel.
        """
        with self._sessions_mutex:
            session = self._sessions.get(session_id)
        if session is None or not isinstance(cancel_key, str):
            return False
        if not hmac.compare_digest(session.cancel_key.encode(), cancel_key.encode()):
            return False
        return session.connection.cancel()

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def dispatch(self, session: SessionState, request: Mapping[str, Any]) -> Dict[str, Any]:
        """Serve one request; engine errors become error responses."""
        try:
            return self._dispatch(session, request)
        except ReproError as exc:
            return error_response(exc)
        except Exception as exc:  # noqa: BLE001 - the session must survive
            return error_response(ReproError(f"internal server error: {exc}"))

    def _dispatch(self, session: SessionState, request: Mapping[str, Any]) -> Dict[str, Any]:
        op = request.get("op")
        connection = session.connection
        if op == "execute":
            cursor = connection.cursor().execute(
                _sql_field(request), request.get("params")
            )
            return _rows_response(cursor)
        if op == "executemany":
            params_seq = request.get("params_seq")
            if not isinstance(params_seq, list):
                raise ProtocolError("executemany requires a params_seq list")
            return _rows_response(
                connection.cursor().executemany(_sql_field(request), params_seq)
            )
        if op == "explain":
            return {
                "ok": True,
                "text": connection.explain(_sql_field(request), request.get("params")),
            }
        if op == "begin":
            connection.begin()
            return {"ok": True}
        if op == "commit":
            connection.commit()
            return {"ok": True}
        if op == "rollback":
            connection.rollback()
            return {"ok": True}
        if op == "set":
            if "statement_timeout" in request:
                connection.statement_timeout = _timeout_value(
                    request["statement_timeout"]
                )
            return {"ok": True, "statement_timeout": connection.statement_timeout}
        if op == "ping":
            return {"ok": True, "user": session.user, "session": session.id}
        raise ProtocolError(f"unknown operation {op!r}")


def _rows_response(cursor: Cursor) -> Dict[str, Any]:
    """The response to a statement or batch: its result and rowcount."""
    result = cursor.result
    return {
        "ok": True,
        "columns": result.columns,
        "rows": result.rows,
        "rowcount": cursor.rowcount,
    }


def _sql_field(request: Mapping[str, Any]) -> str:
    sql = request.get("sql")
    if not isinstance(sql, str):
        raise ProtocolError("request is missing its sql string")
    return sql


def _timeout_value(value: Any) -> Optional[float]:
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError("statement_timeout must be a number of seconds or null")
    return float(value)
