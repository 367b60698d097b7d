"""Tests for the in-memory SQL engine: types, schema, parsing, execution, UDFs."""

from __future__ import annotations

import datetime as dt
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    SqlCatalogError,
    SqlExecutionError,
    SqlIntegrityError,
    SqlSyntaxError,
    SqlTypeError,
)
from repro.sqldb import ColumnDefinition, Database, ForeignKey, SqlType, TableSchema, Variant
from repro.sqldb.arrays import format_array_literal, parse_array_literal
from repro.sqldb.parser import parse_sql
from repro.sqldb.ast_nodes import SelectStatement
from repro.sqldb.tokenizer import tokenize
from repro.sqldb.types import coerce, infer_type, parse_timestamp


# --------------------------------------------------------------------------- #
# Types
# --------------------------------------------------------------------------- #
class TestTypes:
    def test_type_aliases(self):
        assert SqlType.parse("varchar(255)") is SqlType.TEXT
        assert SqlType.parse("double precision") is SqlType.DOUBLE
        assert SqlType.parse("INT") is SqlType.INTEGER
        assert SqlType.parse("bool") is SqlType.BOOLEAN

    def test_unknown_type_rejected(self):
        with pytest.raises(SqlTypeError):
            SqlType.parse("geometry")

    def test_coerce_basic(self):
        assert coerce("42", SqlType.INTEGER) == 42
        assert coerce(3, SqlType.DOUBLE) == pytest.approx(3.0)
        assert coerce(1.0, SqlType.TEXT) == "1.0"
        assert coerce("true", SqlType.BOOLEAN) is True
        assert coerce(None, SqlType.INTEGER) is None

    def test_coerce_lossy_integer_rejected(self):
        with pytest.raises(SqlTypeError):
            coerce(1.5, SqlType.INTEGER)

    def test_timestamp_parsing(self):
        assert parse_timestamp("2015-02-01 01:00") == dt.datetime(2015, 2, 1, 1, 0)
        assert parse_timestamp(dt.date(2015, 2, 1)) == dt.datetime(2015, 2, 1)

    def test_variant_wrap_preserves_type(self):
        wrapped = Variant.wrap(1.5)
        assert wrapped.original_type is SqlType.DOUBLE
        assert Variant.wrap("abc").original_type is SqlType.TEXT
        assert Variant.wrap(wrapped) is wrapped

    def test_infer_type(self):
        assert infer_type(True) is SqlType.BOOLEAN
        assert infer_type(3) is SqlType.INTEGER
        assert infer_type("x") is SqlType.TEXT
        assert infer_type(None) is None


# --------------------------------------------------------------------------- #
# Schema and table storage
# --------------------------------------------------------------------------- #
class TestSchemaAndTable:
    def _schema(self):
        return TableSchema(
            name="t",
            columns=[
                ColumnDefinition("id", SqlType.INTEGER, not_null=True),
                ColumnDefinition("label", SqlType.TEXT),
            ],
            primary_key=["id"],
        )

    def test_duplicate_column_rejected(self):
        with pytest.raises(SqlCatalogError):
            TableSchema("t", [ColumnDefinition("a", SqlType.TEXT), ColumnDefinition("a", SqlType.TEXT)])

    def test_primary_key_must_exist(self):
        with pytest.raises(SqlCatalogError):
            TableSchema("t", [ColumnDefinition("a", SqlType.TEXT)], primary_key=["b"])

    def test_insert_and_pk_lookup(self, database):
        table = database.create_table(self._schema())
        table.insert([1, "one"])
        table.insert([2, "two"])
        assert table.lookup_pk([2])["label"] == "two"
        assert len(table) == 2

    def test_duplicate_pk_rejected(self, database):
        table = database.create_table(self._schema())
        table.insert([1, "one"])
        with pytest.raises(SqlIntegrityError):
            table.insert([1, "again"])

    def test_not_null_enforced(self, database):
        table = database.create_table(self._schema())
        with pytest.raises(SqlTypeError):
            table.insert([None, "x"])

    def test_update_and_delete(self, database):
        table = database.create_table(self._schema())
        table.extend([[1, "one"], [2, "two"], [3, "three"]])
        updated = table.update_where(lambda r: r["id"] >= 2, lambda r: {"label": "big"})
        assert updated == 2
        deleted = table.delete_where(lambda r: r["label"] == "big")
        assert deleted == 2
        assert len(table) == 1

    def test_foreign_key_enforced(self, database):
        database.create_table(self._schema())
        child = TableSchema(
            name="child",
            columns=[ColumnDefinition("id", SqlType.INTEGER), ColumnDefinition("t_id", SqlType.INTEGER)],
            primary_key=["id"],
            foreign_keys=[ForeignKey(columns=["t_id"], referenced_table="t", referenced_columns=["id"])],
        )
        database.create_table(child)
        database.execute("INSERT INTO t VALUES (1, 'one')")
        database.execute("INSERT INTO child VALUES (10, 1)")
        with pytest.raises(SqlIntegrityError):
            database.execute("INSERT INTO child VALUES (11, 99)")


# --------------------------------------------------------------------------- #
# Tokenizer and parser
# --------------------------------------------------------------------------- #
class TestTokenizerParser:
    def test_tokenize_operators_and_strings(self):
        tokens = tokenize("SELECT a || 'it''s', b::text FROM t WHERE x >= $1;")
        values = [t.value for t in tokens]
        assert "||" in values and "::" in values and ">=" in values
        assert any(t.kind == "string" and t.value == "it's" for t in tokens)
        assert any(t.kind == "param" for t in tokens)

    def test_comments_skipped(self):
        tokens = tokenize("SELECT 1 -- line comment\n /* block */ + 2")
        assert [t.value for t in tokens if t.kind == "number"] == ["1", "2"]

    def test_unterminated_string_rejected(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("SELECT 'oops")

    def test_parse_select_structure(self):
        statement = parse_sql(
            "SELECT a, count(*) AS n FROM t WHERE a > 1 GROUP BY a HAVING count(*) > 2 "
            "ORDER BY n DESC LIMIT 5 OFFSET 1"
        )
        assert isinstance(statement, SelectStatement)
        assert len(statement.items) == 2
        assert statement.where is not None
        assert len(statement.group_by) == 1
        assert statement.having is not None
        assert statement.order_by[0].ascending is False
        assert statement.limit is not None and statement.offset is not None

    def test_parse_errors(self):
        with pytest.raises(SqlSyntaxError):
            parse_sql("SELECT FROM")
        with pytest.raises(SqlSyntaxError):
            parse_sql("")
        with pytest.raises(SqlSyntaxError):
            parse_sql("SELECT 1 extra garbage stuff")

    def test_parse_create_table(self):
        statement = parse_sql(
            "CREATE TABLE m (id text PRIMARY KEY, v double precision NOT NULL, "
            "ref text REFERENCES other(code))"
        )
        assert statement.name == "m"
        assert statement.columns[0].primary_key
        assert statement.columns[1].not_null
        assert statement.columns[2].references == ("other", "code")

    def test_parse_insert_update_delete(self):
        insert = parse_sql("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
        assert insert.columns == ["a", "b"] and len(insert.values) == 2
        update = parse_sql("UPDATE t SET a = a + 1 WHERE b = 'x'")
        assert update.assignments[0][0] == "a"
        delete = parse_sql("DELETE FROM t WHERE a IN (1, 2)")
        assert delete.table == "t"


# --------------------------------------------------------------------------- #
# Query execution
# --------------------------------------------------------------------------- #
@pytest.fixture()
def people_db():
    db = Database()
    db.execute("CREATE TABLE people (id integer PRIMARY KEY, name text, age double precision, city text)")
    rows = [
        (1, "ann", 34.0, "aalborg"),
        (2, "bob", 28.0, "aarhus"),
        (3, "cat", 41.0, "aalborg"),
        (4, "dan", 23.0, "odense"),
        (5, "eve", None, "aalborg"),
    ]
    for row in rows:
        db.execute("INSERT INTO people VALUES ($1, $2, $3, $4)", list(row))
    return db


class TestSelectExecution:
    def test_projection_and_aliases(self, people_db):
        result = people_db.execute("SELECT name AS who, age * 2 AS double_age FROM people WHERE id = 1")
        assert result.columns == ["who", "double_age"]
        assert result.rows == [["ann", 68.0]]

    def test_where_with_null_semantics(self, people_db):
        result = people_db.execute("SELECT name FROM people WHERE age > 30")
        assert sorted(r[0] for r in result.rows) == ["ann", "cat"]
        nulls = people_db.execute("SELECT name FROM people WHERE age IS NULL")
        assert nulls.rows == [["eve"]]

    def test_order_by_limit_offset(self, people_db):
        result = people_db.execute("SELECT name FROM people ORDER BY age DESC LIMIT 2 OFFSET 1")
        assert [r[0] for r in result.rows] == ["ann", "bob"]

    def test_group_by_aggregates(self, people_db):
        result = people_db.execute(
            "SELECT city, count(*) AS n, avg(age) AS mean_age FROM people GROUP BY city ORDER BY n DESC"
        )
        top = result.first()
        assert top["city"] == "aalborg"
        assert top["n"] == 3
        assert top["mean_age"] == pytest.approx((34 + 41) / 2)

    def test_having_filters_groups(self, people_db):
        result = people_db.execute(
            "SELECT city, count(*) FROM people GROUP BY city HAVING count(*) > 1"
        )
        assert [r[0] for r in result.rows] == ["aalborg"]

    def test_aggregates_without_group_by(self, people_db):
        row = people_db.execute(
            "SELECT count(*), count(age), min(age), max(age), sum(age), stddev(age) FROM people"
        ).rows[0]
        assert row[0] == 5 and row[1] == 4
        assert row[2] == pytest.approx(23.0) and row[3] == pytest.approx(41.0)

    def test_distinct(self, people_db):
        result = people_db.execute("SELECT DISTINCT city FROM people ORDER BY city")
        assert [r[0] for r in result.rows] == ["aalborg", "aarhus", "odense"]

    def test_case_in_like_between(self, people_db):
        result = people_db.execute(
            "SELECT name, CASE WHEN age >= 40 THEN 'senior' WHEN age IS NULL THEN 'unknown' "
            "ELSE 'junior' END AS band FROM people WHERE name LIKE '%a%' OR name IN ('eve') "
            "ORDER BY name"
        )
        bands = dict(result.rows)
        assert bands["cat"] == "senior" and bands["ann"] == "junior" and bands["eve"] == "unknown"
        between = people_db.execute("SELECT count(*) FROM people WHERE age BETWEEN 25 AND 35")
        assert between.scalar() == 2

    def test_string_concat_and_cast(self, people_db):
        result = people_db.execute("SELECT name || '-' || id::text FROM people WHERE id = 2")
        assert result.scalar() == "bob-2"

    def test_scalar_functions(self, people_db):
        row = people_db.execute(
            "SELECT abs(-2), round(3.14159, 2), upper('abc'), coalesce(NULL, 'x'), length('hello')"
        ).rows[0]
        assert row == [2, 3.14, "ABC", "x", 5]

    def test_join_and_left_join(self, people_db):
        people_db.execute("CREATE TABLE cities (city text PRIMARY KEY, region text)")
        people_db.execute("INSERT INTO cities VALUES ('aalborg', 'north'), ('odense', 'south')")
        joined = people_db.execute(
            "SELECT p.name, c.region FROM people p JOIN cities c ON p.city = c.city ORDER BY p.name"
        )
        assert len(joined) == 4
        left = people_db.execute(
            "SELECT p.name, c.region FROM people p LEFT JOIN cities c ON p.city = c.city "
            "WHERE c.region IS NULL"
        )
        assert [r[0] for r in left.rows] == ["bob"]

    def test_subqueries(self, people_db):
        scalar = people_db.execute(
            "SELECT name FROM people WHERE age = (SELECT max(age) FROM people)"
        )
        assert scalar.rows == [["cat"]]
        in_subquery = people_db.execute(
            "SELECT count(*) FROM people WHERE city IN (SELECT city FROM people WHERE id = 4)"
        )
        assert in_subquery.scalar() == 1
        derived = people_db.execute(
            "SELECT avg(n) FROM (SELECT city, count(*) AS n FROM people GROUP BY city) AS g"
        )
        assert derived.scalar() == pytest.approx(5 / 3)

    def test_generate_series_and_lateral(self, people_db):
        series = people_db.execute("SELECT * FROM generate_series(1, 4) AS i")
        assert [r[0] for r in series.rows] == [1, 2, 3, 4]
        people_db.register_table_udf(
            "repeat_name",
            lambda _db, name, n: [[name, i] for i in range(int(n))],
            columns=["name", "copy"],
            min_args=2,
            max_args=2,
        )
        lateral = people_db.execute(
            "SELECT i, f.copy FROM generate_series(1, 2) AS i, "
            "LATERAL repeat_name('p' || i::text, i) AS f"
        )
        assert len(lateral) == 3  # 1 copy for i=1, 2 copies for i=2

    def test_select_without_from(self, database):
        assert database.execute("SELECT 1 + 2").scalar() == 3

    def test_group_by_position_and_alias(self, people_db):
        by_position = people_db.execute("SELECT city AS c, count(*) FROM people GROUP BY 1 ORDER BY 2 DESC")
        by_alias = people_db.execute("SELECT city AS c, count(*) FROM people GROUP BY c ORDER BY 2 DESC")
        assert by_position.rows == by_alias.rows

    def test_unknown_column_and_table_errors(self, people_db):
        with pytest.raises(SqlCatalogError):
            people_db.execute("SELECT ghost FROM people")
        with pytest.raises(SqlCatalogError):
            people_db.execute("SELECT * FROM ghosts")
        with pytest.raises(SqlCatalogError):
            people_db.execute("SELECT nonexistent_function(1)")

    def test_division_by_zero(self, people_db):
        with pytest.raises(SqlExecutionError):
            people_db.execute("SELECT 1 / 0")


class TestInNullSemantics:
    """``IN``/``NOT IN`` follow SQL three-valued logic; stdlib ``sqlite3``
    (which agrees with PostgreSQL here) is the independent oracle."""

    @staticmethod
    def _both(statements, query):
        db, oracle = Database(), sqlite3.connect(":memory:")
        for statement in statements:
            db.execute(statement)
            oracle.execute(statement)
        ours = db.execute(query).rows[0][0]
        theirs = oracle.execute(query).fetchone()[0]
        oracle.close()
        return ours, theirs

    @pytest.mark.parametrize(
        "query, expected",
        [
            ("SELECT 1 IN (2, NULL)", None),
            ("SELECT 3 NOT IN (1, NULL)", None),
            ("SELECT 1 IN (1, NULL)", True),
            ("SELECT 1 NOT IN (1, NULL)", False),
            ("SELECT NULL IN (1, 2)", None),
            ("SELECT 3 NOT IN (1, 2)", True),
        ],
    )
    def test_list_matches_sqlite(self, query, expected):
        ours, theirs = self._both([], query)
        assert ours == expected
        assert ours == (None if theirs is None else bool(theirs))

    @pytest.mark.parametrize(
        "query, expected",
        [
            ("SELECT count(*) FROM t WHERE a NOT IN (SELECT a FROM u)", 0),
            ("SELECT count(*) FROM t WHERE a IN (SELECT a FROM u)", 1),
            ("SELECT count(*) FROM t WHERE NOT (a IN (SELECT a FROM u))", 0),
            ("SELECT count(*) FROM t WHERE a NOT IN (SELECT a FROM empty)", 8),
        ],
    )
    def test_subquery_matches_sqlite(self, query, expected):
        setup = ["CREATE TABLE t (a integer)", "CREATE TABLE u (a integer)",
                 "CREATE TABLE empty (a integer)"]
        setup += [f"INSERT INTO t VALUES ({v})" for v in (1, 2, 3, 4, 5, 6, 7, "NULL")]
        setup += ["INSERT INTO u VALUES (7)", "INSERT INTO u VALUES (NULL)"]
        assert self._both(setup, query) == (expected, expected)


class TestDmlAndDdl:
    def test_insert_select(self, people_db):
        people_db.execute("CREATE TABLE seniors (id integer, name text)")
        people_db.execute("INSERT INTO seniors SELECT id, name FROM people WHERE age > 30")
        assert people_db.execute("SELECT count(*) FROM seniors").scalar() == 2

    def test_update_with_expression(self, people_db):
        affected = people_db.execute("UPDATE people SET age = age + 1 WHERE city = 'aalborg' AND age IS NOT NULL")
        assert affected.rowcount == 2
        assert people_db.execute("SELECT age FROM people WHERE id = 1").scalar() == pytest.approx(35.0)

    def test_delete(self, people_db):
        people_db.execute("DELETE FROM people WHERE city = 'odense'")
        assert people_db.execute("SELECT count(*) FROM people").scalar() == 4

    def test_create_if_not_exists_and_drop(self, database):
        database.execute("CREATE TABLE t (a integer)")
        database.execute("CREATE TABLE IF NOT EXISTS t (a integer)")
        with pytest.raises(SqlCatalogError):
            database.execute("CREATE TABLE t (a integer)")
        database.execute("DROP TABLE t")
        database.execute("DROP TABLE IF EXISTS t")
        with pytest.raises(SqlCatalogError):
            database.execute("DROP TABLE t")

    def test_default_values(self, database):
        database.execute("CREATE TABLE d (a integer, status text DEFAULT 'new')")
        database.execute("INSERT INTO d (a) VALUES (1)")
        assert database.execute("SELECT status FROM d").scalar() == "new"


class TestPreparedAndUdfs:
    def test_prepared_statements(self, people_db):
        people_db.prepare("by_city", "SELECT count(*) FROM people WHERE city = $1")
        assert people_db.execute_prepared("by_city", ["aalborg"]).scalar() == 3
        assert people_db.execute_prepared("by_city", ["odense"]).scalar() == 1
        people_db.deallocate("by_city")
        with pytest.raises(SqlCatalogError):
            people_db.execute_prepared("by_city", ["odense"])

    def test_missing_parameter_value(self, people_db):
        with pytest.raises(SqlExecutionError):
            people_db.execute("SELECT $1 + $2", [1])

    def test_scalar_udf_arity_checked(self, database):
        database.register_scalar_udf("twice", lambda _db, v: 2 * v, min_args=1, max_args=1)
        assert database.execute("SELECT twice(21)").scalar() == 42
        with pytest.raises(SqlCatalogError):
            database.execute("SELECT twice(1, 2)")

    def test_nested_udf_calls(self, database):
        database.register_scalar_udf("twice", lambda _db, v: 2 * v, min_args=1, max_args=1)
        assert database.execute("SELECT twice(twice(10))").scalar() == 40

    def test_table_udf_column_aliases(self, database):
        database.register_table_udf(
            "pairs", lambda _db: [[1, "a"], [2, "b"]], columns=["num", "label"]
        )
        result = database.execute("SELECT p.n FROM pairs() AS p (n, l) WHERE p.l = 'b'")
        assert result.rows == [[2]]

    def test_insert_dicts_helper(self, database):
        database.execute("CREATE TABLE h (a integer, b text)")
        database.insert_dicts("h", [{"a": 1, "b": "x"}, {"b": "y", "a": 2}])
        assert database.execute("SELECT count(*) FROM h").scalar() == 2


class TestArrayLiterals:
    def test_parse_simple(self):
        assert parse_array_literal("{A, B}") == ["A", "B"]
        assert parse_array_literal("A") == ["A"]
        assert parse_array_literal(None) == []
        assert parse_array_literal(["x", 1]) == ["x", "1"]

    def test_parse_with_nested_queries(self):
        text = "{SELECT * FROM m WHERE x IN (1,2), SELECT * FROM m2}"
        assert parse_array_literal(text) == [
            "SELECT * FROM m WHERE x IN (1,2)",
            "SELECT * FROM m2",
        ]

    def test_parse_quoted_elements(self):
        assert parse_array_literal('{"a, b", c}') == ["a, b", "c"]

    def test_format_round_trip(self):
        items = ["plain", "has, comma"]
        assert parse_array_literal(format_array_literal(items)) == items


# --------------------------------------------------------------------------- #
# Property-based round trips
# --------------------------------------------------------------------------- #
class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=30
        )
    )
    def test_insert_select_roundtrip_and_aggregates(self, values):
        db = Database()
        db.execute("CREATE TABLE v (i integer PRIMARY KEY, x double precision)")
        for i, value in enumerate(values):
            db.execute("INSERT INTO v VALUES ($1, $2)", [i, value])
        fetched = db.execute("SELECT x FROM v ORDER BY i").column("x")
        assert fetched == pytest.approx(values)
        assert db.execute("SELECT count(*) FROM v").scalar() == len(values)
        assert db.execute("SELECT sum(x) FROM v").scalar() == pytest.approx(sum(values), rel=1e-9, abs=1e-6)
        assert db.execute("SELECT min(x) FROM v").scalar() == pytest.approx(min(values))
        assert db.execute("SELECT max(x) FROM v").scalar() == pytest.approx(max(values))

    @settings(max_examples=30, deadline=None)
    @given(
        texts=st.lists(
            st.text(alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")), min_size=0, max_size=12),
            min_size=1,
            max_size=15,
        )
    )
    def test_text_roundtrip_and_order(self, texts):
        db = Database()
        db.execute("CREATE TABLE s (i integer PRIMARY KEY, t text)")
        for i, text in enumerate(texts):
            db.execute("INSERT INTO s VALUES ($1, $2)", [i, text])
        ordered = db.execute("SELECT t FROM s ORDER BY t").column("t")
        assert ordered == sorted(texts)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(min_value=1, max_value=200), step=st.integers(min_value=1, max_value=7))
    def test_generate_series_length(self, n, step):
        db = Database()
        rows = db.execute(f"SELECT count(*) FROM generate_series(1, {n}, {step})").scalar()
        expected = (n - 1) // step + 1
        assert rows == expected
