"""PEP-249-style driver layer over the in-memory SQL engine.

This is the lowest of the three public API layers: a DB-API-like
:class:`Connection` / :class:`Cursor` pair so that callers (and tooling)
can talk to the engine the way they would talk to any Python database
driver::

    import repro

    with repro.connect() as conn:
        cur = conn.cursor()
        cur.execute("CREATE TABLE m (time double precision, x double precision)")
        cur.executemany("INSERT INTO m VALUES ($1, $2)", [[0.0, 20.7], [1.0, 20.9]])
        cur.execute("SELECT * FROM m WHERE x > $1", [20.8])
        for row in cur:
            print(row)

Differences from a networked driver, all deliberate:

* parameters use PostgreSQL's positional ``$1`` placeholders (declared as
  ``paramstyle = "numeric_dollar"``, the de-facto extension style newer
  drivers use; PEP-249's plain ``numeric`` ``:1`` form is NOT accepted);
* the connection is in autocommit mode until :meth:`Connection.begin` starts
  an explicit transaction; ``commit``/``rollback`` delegate to the engine's
  copy-on-write snapshot transactions
  (:meth:`repro.sqldb.database.Database.begin`) - a rollback also restores
  secondary indexes and the index catalogue to their pre-BEGIN state;
* closing the connection is cheap and only invalidates the handle - the
  underlying :class:`~repro.sqldb.database.Database` object stays usable.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.errors import SqlExecutionError
from repro.sqldb.database import Database
from repro.sqldb.result import ResultSet

#: PEP-249 module attributes.  Threads may share the module and connections
#: (level 2): statements serialize through the engine's statement lock, and
#: cancellation/timeouts are keyed per connection.
apilevel = "2.0"
threadsafety = 2
paramstyle = "numeric_dollar"  # positional placeholders, PostgreSQL-style: $1, $2, ...

#: Sentinel: "this connection has no statement_timeout override".
_UNSET = object()


class Cursor:
    """A DB-API-style cursor bound to a driver connection.

    Supports ``execute``/``executemany``, the ``fetchone``/``fetchmany``/
    ``fetchall`` family, iteration, and a PEP-249 ``description``/
    ``rowcount`` pair.  Cursors are cheap; create one per logical statement
    stream::

        cur = conn.cursor()
        cur.execute("SELECT * FROM m WHERE x > $1", [20.8])
        cur.description          # [('time', None, ...), ('x', None, ...)]
        for row in cur:          # or cur.fetchone() / fetchmany() / fetchall()
            ...

    ``execute`` returns the cursor, so one-liners chain:
    ``conn.cursor().execute("SELECT 1").fetchone()``.  Beyond PEP-249, the
    :attr:`result` property exposes the underlying
    :class:`~repro.sqldb.result.ResultSet` (column names, ``to_text()``,
    ``scalar()``).

    This class is the whole cursor for every driver.  A driver binds its
    backend by overriding :meth:`_run` and :meth:`_run_many` (the network
    driver's :class:`~repro.server.client.RemoteCursor` does); misuse
    raises the connection's error type.
    """

    def __init__(self, connection: "BaseConnection"):
        self._connection = connection
        self._result: Optional[ResultSet] = None
        self._position = 0
        self._closed = False
        self.arraysize = 1

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def connection(self) -> "BaseConnection":
        return self._connection

    @property
    def description(self) -> Optional[List[Tuple]]:
        """PEP-249 column descriptions (name first, remaining fields None)."""
        if self._result is None or not self._result.columns:
            return None
        return [(name, None, None, None, None, None, None) for name in self._result.columns]

    @property
    def rowcount(self) -> int:
        """Rows affected (DML; summed over an ``executemany`` batch) or
        returned; -1 before any statement and after a failed one."""
        return -1 if self._result is None else self._result.rowcount

    @property
    def result(self) -> Optional[ResultSet]:
        """The :class:`ResultSet` of the last ``execute`` (driver extension)."""
        return self._result

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def execute(self, sql: str, params: Optional[Sequence[Any]] = None) -> "Cursor":
        """Execute one statement; returns the cursor for chaining."""
        self._clear()
        self._result = self._run(sql, params)
        return self

    def cancel(self) -> None:
        """Request cancellation of the statement executing on *this
        connection* (not whatever statement happens to be running anywhere
        on the shared engine - cancel tokens are keyed per connection).

        Safe to call from another thread; cancellation is cooperative, so
        the running statement unwinds with a typed
        :class:`~repro.errors.CancelledError` at its next check point
        (executor dispatch, solver step, plan operator, or while queued on
        the statement lock).  A no-op when this connection has nothing
        executing.  The network driver sends the cancel out of band (see
        :meth:`repro.server.client.RemoteConnection.cancel`).
        """
        self._connection.cancel()

    def executemany(self, sql: str, seq_of_params: Sequence[Sequence[Any]]) -> "Cursor":
        """Execute the same statement once per parameter set, atomically.

        ``rowcount`` accumulates across all executions (the DB-API contract
        for batched DML); the result rows exposed afterwards are those of the
        last execution.  An empty parameter sequence executes nothing and
        leaves an empty result (not a "never executed" cursor).

        Outside an explicit transaction the whole batch runs inside an
        implicit one: a failing parameter set rolls back every set before
        it, so the batch is all-or-nothing.  Inside an explicit transaction
        the statements simply join it (the caller's ``commit``/``rollback``
        decides their fate).
        """
        self._clear()
        self._result = self._run_many(sql, seq_of_params)
        return self

    def _clear(self) -> None:
        # Drop the previous result before running: a failing statement must
        # leave the cursor empty, not silently serving the prior query's rows.
        self._check_open()
        self._result = None
        self._position = 0

    def _run(self, sql: str, params: Optional[Sequence[Any]]) -> ResultSet:
        """Run one statement on the in-process engine."""
        connection = self._connection
        if connection._statement_timeout is _UNSET:
            return connection.database.execute(sql, params, owner=connection)
        return connection.database.execute(
            sql, params, owner=connection, timeout=connection._statement_timeout
        )

    def _run_many(self, sql: str, seq_of_params: Sequence[Sequence[Any]]) -> ResultSet:
        """Run a batch in process, inside an implicit transaction unless an
        explicit one is open; the last result carries the summed rowcount."""
        database = self._connection.database
        result, total = ResultSet([], [], rowcount=0), 0
        implicit = not database.in_transaction
        if implicit:
            database.begin()
        try:
            for params in seq_of_params:
                result = self._run(sql, params)
                total += result.rowcount
            if implicit:
                database.commit()
        except BaseException:
            # All-or-nothing: the implicit transaction undoes earlier sets.
            if implicit and database.in_transaction:
                database.rollback()
            raise
        result.rowcount = total
        return result

    # ------------------------------------------------------------------ #
    # Fetching
    # ------------------------------------------------------------------ #
    def fetchone(self) -> Optional[List[Any]]:
        rows = self._rows()
        if self._position >= len(rows):
            return None
        row = rows[self._position]
        self._position += 1
        return row

    def fetchmany(self, size: Optional[int] = None) -> List[List[Any]]:
        count = self.arraysize if size is None else int(size)
        rows = self._rows()[self._position : self._position + count]
        self._position += len(rows)
        return rows

    def fetchall(self) -> List[List[Any]]:
        rows = self._rows()
        remaining = rows[self._position :]
        self._position = len(rows)
        return remaining

    def __iter__(self) -> Iterator[List[Any]]:
        return self

    def __next__(self) -> List[Any]:
        row = self.fetchone()
        if row is None:
            raise StopIteration
        return row

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        self._closed = True
        self._result = None

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise self._connection._error("cursor is closed")
        self._connection._check_open()

    def _rows(self) -> List[List[Any]]:
        self._check_open()
        if self._result is None:
            raise self._connection._error("no query has been executed on this cursor")
        return self._result.rows


class BaseConnection:
    """What every driver connection shares: cursors, the :meth:`execute`
    convenience, the open check, and the context manager.

    A driver names its cursor class and misuse error type and supplies
    ``closed``, ``in_transaction``, ``commit``, ``rollback`` and ``close``;
    ``_began`` records whether *this* connection opened the transaction.
    """

    _cursor_class = Cursor
    _error = SqlExecutionError

    def cursor(self) -> Cursor:
        self._check_open()
        return self._cursor_class(self)

    def execute(self, sql: str, params: Optional[Sequence[Any]] = None) -> Cursor:
        """Convenience: create a cursor and execute one statement on it."""
        return self.cursor().execute(sql, params)

    def __enter__(self):
        self._check_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Commit on success, roll back on error - only a transaction this
        connection began - then close."""
        try:
            if not self.closed and self._began and self.in_transaction:
                if exc_type is None:
                    self.commit()
                else:
                    self.rollback()
        finally:
            self.close()

    def _check_open(self) -> None:
        if self.closed:
            raise self._error("connection is closed")


class Connection(BaseConnection):
    """A DB-API-style connection over a :class:`~repro.sqldb.database.Database`.

    Obtained from :func:`repro.connect` (full pgFMU session) or
    :func:`repro.sqldb.connect` (bare engine).  Supports cursors
    (:meth:`cursor`, or the :meth:`execute` convenience), explicit
    transactions (:meth:`begin` / :meth:`commit` / :meth:`rollback`;
    autocommit otherwise), :meth:`explain` for query plans, and the
    context-manager protocol (``with ... as conn:`` commits on success,
    rolls back on error, then closes).

    ``session`` optionally carries the pgFMU object layer
    (:class:`repro.core.session.Session`) so driver users can reach handles:
    ``conn.session.create(...)``.  Connections created by
    :func:`repro.connect` always have it; bare engine connections
    (``sqldb.connect()``) leave it ``None``.
    """

    def __init__(self, database: Optional[Database] = None, session: Any = None):
        self.database = database if database is not None else Database()
        self.session = session
        self._closed = False
        self._began = False
        self._statement_timeout: Any = _UNSET

    def cancel(self) -> bool:
        """Cancel the statement currently executing on this connection.

        Keyed per connection: a second connection sharing the database is
        never affected.  Returns True when a statement was told to cancel.
        Safe to call from any thread, also on a closed connection.
        """
        return self.database.cancel_statement(owner=self)

    def explain(self, sql: str, params: Optional[Sequence[Any]] = None) -> str:
        """The query plan the engine would use, as rendered text.

        Equivalent to ``cur.execute("EXPLAIN <sql>")`` and joining the
        returned rows; a driver extension mirroring ``EXPLAIN`` in psql.
        """
        self._check_open()
        return self.database.explain(sql, params)

    # ------------------------------------------------------------------ #
    # Transactions (delegated to the engine's snapshot transactions)
    # ------------------------------------------------------------------ #
    def begin(self) -> None:
        """Leave autocommit: start an explicit transaction."""
        self._check_open()
        self.database.begin()
        self._began = True

    def commit(self) -> None:
        """Commit the transaction this connection began (no-op otherwise -
        like :meth:`close`, it never touches a transaction another connection
        on the shared database owns)."""
        self._check_open()
        if self._began:
            self.database.commit()
            self._began = False

    def rollback(self) -> None:
        """Roll back the transaction this connection began (no-op otherwise)."""
        self._check_open()
        if self._began:
            self.database.rollback()
            self._began = False

    @property
    def in_transaction(self) -> bool:
        return self.database.in_transaction

    # ------------------------------------------------------------------ #
    # Statement timeout (per-connection override of the database default)
    # ------------------------------------------------------------------ #
    @property
    def statement_timeout(self) -> Optional[float]:
        """Per-statement deadline in seconds (None disables).

        Reads the database-wide default until set on this connection; once
        set, the value is a *per-connection* override - like a session-level
        ``SET statement_timeout`` in PostgreSQL - so concurrent connections
        sharing the engine each keep their own deadline.
        """
        if self._statement_timeout is _UNSET:
            return self.database.statement_timeout
        return self._statement_timeout

    @statement_timeout.setter
    def statement_timeout(self, value: Optional[float]) -> None:
        self._statement_timeout = value

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Close the connection; a transaction *this connection* started is
        rolled back (one begun by another connection on the shared database
        is left untouched)."""
        if self._closed:
            return
        if self._began and self.database.in_transaction:
            self.database.rollback()
        self._began = False
        self._closed = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"Connection({state}, tables={len(self.database.table_names())})"


def connect(
    database: Optional[Database] = None,
    path: Optional[str] = None,
    fsync: bool = True,
    statement_timeout: Optional[float] = None,
) -> Connection:
    """Open a driver-layer connection to a (possibly fresh) bare database.

    With ``path`` the database is durable: a
    :class:`~repro.sqldb.storage.StorageEngine` is attached at ``path``
    (page store) and ``path + ".wal"`` (write-ahead log), existing state is
    recovered, and every committed transaction survives process death::

        with repro.sqldb.connect(path="fleet.db") as conn:
            conn.execute("CREATE TABLE m (t double precision, x double precision)")

    Without ``path`` the database is purely in-memory (the default,
    behaviorally unchanged).  This is the engine-level entry point;
    :func:`repro.connect` is the application-level one that also boots the
    pgFMU session and extensions.
    """
    if path is not None:
        if database is not None:
            raise SqlExecutionError(
                "pass either an existing database or a storage path, not both"
            )
        from repro.sqldb.storage import StorageEngine

        database = Database(storage=StorageEngine(path, fsync=fsync))
    connection = Connection(database)
    if statement_timeout is not None:
        connection.statement_timeout = statement_timeout
    return connection
