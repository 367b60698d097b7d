"""One PEP-249 contract, run against both drivers.

The in-process driver (:func:`repro.sqldb.connect`) and the network
driver (:func:`repro.client.connect` against a live server) share one
cursor and one connection base; this suite pins that they behave the
same: the fetch family with ``arraysize`` and iteration, ``description``
and ``rowcount``, an empty cursor after a failed statement, each
driver's own error type for misuse, the commit-or-rollback context
manager, and ``.result``.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple

import pytest

import repro.client
from repro import sqldb
from repro.errors import ReproError, ServerError, SqlExecutionError
from repro.server import serve
from repro.sqldb import Database, ResultSet


class Driver(NamedTuple):
    open: Callable[[], object]
    error: type


@pytest.fixture(params=["in-process", "remote"])
def driver(request):
    opened: List[object] = []
    server = None
    if request.param == "in-process":
        database = Database()
        connect, error = (lambda: sqldb.connect(database)), SqlExecutionError
    else:
        server = serve(Database())
        connect, error = (lambda: repro.client.connect(server.url)), ServerError

    def open_connection():
        connection = connect()
        opened.append(connection)
        return connection

    yield Driver(open_connection, error)
    for connection in opened:
        connection.close()
    if server is not None:
        server.shutdown()


@pytest.fixture()
def conn(driver):
    connection = driver.open()
    connection.execute("CREATE TABLE p (id integer PRIMARY KEY, x double precision)")
    connection.cursor().executemany(
        "INSERT INTO p VALUES ($1, $2)", [[i, i / 2] for i in range(5)]
    )
    return connection


def _count(connection) -> int:
    return connection.execute("SELECT count(*) FROM p").fetchone()[0]


def test_fetch_family_honours_arraysize_and_iteration(conn):
    cur = conn.execute("SELECT id FROM p ORDER BY id")
    assert cur.arraysize == 1
    assert cur.fetchmany() == [[0]]
    cur.arraysize = 2
    assert cur.fetchmany() == [[1], [2]]
    assert cur.fetchone() == [3]
    assert list(cur) == [[4]]
    assert cur.fetchone() is None
    assert cur.fetchmany(3) == []
    assert cur.fetchall() == []
    assert conn.execute("SELECT id FROM p WHERE id > $1 ORDER BY id", [2]).fetchall() == [
        [3],
        [4],
    ]


def test_description_and_rowcount(conn):
    fresh = conn.cursor()
    assert fresh.description is None and fresh.rowcount == -1
    cur = conn.execute("SELECT id, x FROM p")
    assert [d[0] for d in cur.description] == ["id", "x"]
    assert all(len(d) == 7 and d[1:] == (None,) * 6 for d in cur.description)
    assert cur.rowcount == 5
    assert cur.execute("UPDATE p SET x = 0 WHERE id < $1", [3]).rowcount == 3
    assert cur.execute("DELETE FROM p WHERE id = 4").rowcount == 1
    cur.executemany("INSERT INTO p VALUES ($1, $2)", [[10, 1.0], [11, 2.0]])
    assert cur.rowcount == 2
    cur.executemany("INSERT INTO p VALUES ($1, $2)", [])
    assert cur.rowcount == 0 and cur.fetchall() == [] and cur.description is None


def test_failed_execute_leaves_cursor_empty(driver, conn):
    cur = conn.execute("SELECT id FROM p ORDER BY id")
    assert cur.fetchone() == [0]
    with pytest.raises(ReproError):
        cur.execute("SELECT bogus FROM p")
    assert cur.rowcount == -1 and cur.description is None and cur.result is None
    with pytest.raises(driver.error):
        cur.fetchall()
    # A failing batch too - and it is all-or-nothing.
    with pytest.raises(ReproError):
        cur.executemany("INSERT INTO p VALUES ($1, $2)", [[20, 1.0], [0, 2.0]])
    assert cur.rowcount == -1 and cur.result is None
    assert _count(conn) == 5


def test_closed_cursor_and_connection_raise_driver_error(driver, conn):
    cur = conn.cursor()
    cur.close()
    for misuse in (lambda: cur.execute("SELECT 1"), cur.fetchone):
        with pytest.raises(driver.error) as excinfo:
            misuse()
        assert excinfo.type is driver.error
    with conn.cursor() as scoped:
        scoped.execute("SELECT 1")
    with pytest.raises(driver.error):
        scoped.fetchall()

    live = conn.execute("SELECT id FROM p")
    conn.close()
    assert conn.closed
    conn.close()  # idempotent
    for misuse in (conn.cursor, lambda: conn.execute("SELECT 1"), live.fetchall):
        with pytest.raises(driver.error) as excinfo:
            misuse()
        assert excinfo.type is driver.error


def test_context_manager_commits_on_success_and_rolls_back_on_error(driver, conn):
    with driver.open() as writer:
        writer.begin()
        writer.execute("INSERT INTO p VALUES (10, 1.0)")
    assert writer.closed
    assert _count(conn) == 6

    with pytest.raises(RuntimeError):
        with driver.open() as writer:
            writer.begin()
            writer.execute("INSERT INTO p VALUES (11, 1.0)")
            raise RuntimeError("boom")
    assert writer.closed
    assert _count(conn) == 6


def test_result_exposes_the_result_set(conn):
    cur = conn.execute("SELECT id, x FROM p WHERE id < 2 ORDER BY id")
    result = cur.result
    assert isinstance(result, ResultSet)
    assert result.columns == ["id", "x"]
    assert result.rows == [[0, 0.0], [1, 0.5]]
    assert result.column("x") == [0.0, 0.5]
    assert conn.execute("SELECT count(*) FROM p").result.scalar() == 5
    # Fetching walks the same rows without consuming the result set.
    assert cur.fetchall() == result.rows
