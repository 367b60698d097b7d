"""Row storage with primary-key, secondary-index and foreign-key support."""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import SqlCatalogError, SqlIntegrityError
from repro.sqldb.schema import TableSchema
from repro.sqldb.stats import TableStats
from repro.sqldb.types import SqlType, Variant

#: Column types an ordered (``USING BTREE``) index may cover: types whose
#: coerced Python values form a total order within one column.
ORDERABLE_TYPES = (
    SqlType.INTEGER,
    SqlType.DOUBLE,
    SqlType.TEXT,
    SqlType.BOOLEAN,
    SqlType.TIMESTAMP,
)


def _key_of(value: Any) -> Any:
    """Normalize a value for use inside a uniqueness or index key."""
    if isinstance(value, Variant):
        value = value.value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


class SecondaryIndex:
    """A non-unique hash index over one or more columns of a table.

    The map goes from normalized key tuples to row positions (in insertion
    order), which gives O(1) point lookups for ``col = const`` predicates -
    the planner's :class:`~repro.sqldb.planner.nodes.IndexLookup` node reads
    it directly.
    """

    kind = "hash"

    __slots__ = ("name", "columns", "positions", "map")

    def __init__(self, name: str, columns: Sequence[str], positions: Sequence[int]):
        self.name = name.lower()
        self.columns = [c.lower() for c in columns]
        self.positions = list(positions)
        self.map: Dict[Tuple, List[int]] = {}

    def key_for_row(self, row: Sequence[Any]) -> Tuple:
        return tuple(_key_of(row[i]) for i in self.positions)

    def add(self, row: Sequence[Any], position: int) -> None:
        self.map.setdefault(self.key_for_row(row), []).append(position)

    def discard(self, row: Sequence[Any], position: int) -> None:
        """Undo a prior :meth:`add` of this exact row/position."""
        positions = self.map.get(self.key_for_row(row))
        if positions and position in positions:
            positions.remove(position)
            if not positions:
                del self.map[self.key_for_row(row)]

    def rebuild(self, rows: Sequence[Sequence[Any]]) -> None:
        fresh: Dict[Tuple, List[int]] = {}
        for position, row in enumerate(rows):
            fresh.setdefault(self.key_for_row(row), []).append(position)
        self.map = fresh

    def rebuilt(self, rows: Sequence[Sequence[Any]]) -> "SecondaryIndex":
        """A fresh index over ``rows`` with the same definition."""
        fresh = SecondaryIndex(self.name, self.columns, self.positions)
        fresh.rebuild(rows)
        return fresh

    def lookup(self, key_values: Sequence[Any]) -> List[int]:
        key = tuple(_key_of(v) for v in key_values)
        return self.map.get(key, [])


def build_index(
    name: str, columns: Sequence[str], positions: Sequence[int], kind: str = "hash"
):
    """Construct an (empty) secondary index of the requested ``kind``."""
    if kind == "btree":
        # Imported lazily: the storage package pulls in the WAL/pager stack,
        # which this module must not load just to define tables.
        from repro.sqldb.storage.btree import OrderedIndex

        return OrderedIndex(name.lower(), [c.lower() for c in columns], positions)
    if kind == "hash":
        return SecondaryIndex(name, columns, positions)
    raise SqlCatalogError(f"unknown index kind {kind!r}")


class Table:
    """An in-memory heap table with a primary-key index and secondary indexes.

    The table owns its rows (lists aligned with the schema's column order)
    and maintains a hash index over the primary key for O(1) uniqueness
    checks and point lookups - the same role a B-tree PK index plays in
    PostgreSQL for the model catalogue tables.  User-created secondary hash
    indexes (``CREATE INDEX``) are maintained incrementally on insert and
    rebuilt on delete/update/rollback.

    ``write_hook`` (when set by the owning database) is invoked before any
    mutation; the database uses it to take lazy copy-on-write transaction
    snapshots, so a transaction only pays for the tables it actually writes.
    A snapshot is O(1) thanks to an invariant every mutator must keep: the
    only in-place change to the row list is an append (:meth:`insert`, and
    its ``pop`` of that row when an index write fails); other mutators
    install a new list, and rows themselves are never mutated.  WAL replay
    sets rows in place (``REC_UPDATE``), but only while storage attaches,
    before any transaction exists.

    ``log_sink`` (set when the owning database has durable storage attached)
    receives one logical record *after* each successful mutation - the
    coerced inserted row, the deleted row positions, the ``(position, new
    row)`` update pairs - which the storage engine appends to the
    write-ahead log.  Replay of those records against the same starting
    state reproduces the exact row array, so recovery needs neither
    coercion nor constraint re-checks.
    """

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self._rows: List[list] = []
        self._pk_index: Dict[Tuple, int] = {}
        self.indexes: Dict[str, Any] = {}
        self.write_hook: Optional[Callable[["Table"], None]] = None
        self.log_sink: Optional[Any] = None
        # Advisory planner statistics; None until ANALYZE has run.
        self.stats: Optional[TableStats] = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def column_names(self) -> List[str]:
        return self.schema.column_names

    def __len__(self) -> int:
        return len(self._rows)

    def rows(self) -> Iterator[list]:
        """Iterate over copies of all rows."""
        for row in self._rows:
            yield list(row)

    def raw_rows(self) -> List[list]:
        """The internal row storage (read-only; do not mutate)."""
        return self._rows

    def to_dicts(self) -> List[Dict[str, Any]]:
        """All rows as dictionaries keyed by column name."""
        names = self.column_names
        return [dict(zip(names, row)) for row in self._rows]

    # ------------------------------------------------------------------ #
    # Primary key helpers
    # ------------------------------------------------------------------ #
    def _pk_positions(self) -> List[int]:
        return [self.schema.column_position(c) for c in self.schema.primary_key]

    def _pk_key(self, row: Sequence[Any]) -> Optional[Tuple]:
        positions = self._pk_positions()
        if not positions:
            return None
        return tuple(_key_of(row[i]) for i in positions)

    def _pk_index_over(self, rows: Sequence[Sequence[Any]]) -> Dict[Tuple, int]:
        """The primary-key map of ``rows``; raises on a duplicate key."""
        pk_index: Dict[Tuple, int] = {}
        for i, row in enumerate(rows):
            key = self._pk_key(row)
            if key is None:
                continue
            if key in pk_index:
                raise SqlIntegrityError(
                    f"duplicate primary key {key!r} in table {self.name!r}"
                )
            pk_index[key] = i
        return pk_index

    def _rebuild_pk_index(self) -> None:
        self._pk_index = self._pk_index_over(self._rows)

    def lookup_pk(self, key_values: Sequence[Any]) -> Optional[Dict[str, Any]]:
        """Point lookup by primary key; returns a dict row or None."""
        key = tuple(_key_of(v) for v in key_values)
        index = self._pk_index.get(key)
        if index is None:
            return None
        return dict(zip(self.column_names, self._rows[index]))

    def pk_positions_for(self, key_values: Sequence[Any]) -> List[int]:
        """Row positions matching a full primary-key value (0 or 1 entries)."""
        key = tuple(_key_of(v) for v in key_values)
        index = self._pk_index.get(key)
        return [] if index is None else [index]

    # ------------------------------------------------------------------ #
    # Secondary indexes
    # ------------------------------------------------------------------ #
    def add_index(self, name: str, columns: Sequence[str], kind: str = "hash"):
        """Create and populate a secondary index (hash or btree) over ``columns``."""
        name = name.lower()
        if name in self.indexes:
            raise SqlCatalogError(f"index {name!r} already exists on table {self.name!r}")
        if kind == "btree":
            if len(columns) != 1:
                raise SqlCatalogError(
                    "USING BTREE indexes cover exactly one column "
                    f"(got {len(columns)} on table {self.name!r})"
                )
            column_type = self.schema.column(columns[0]).sql_type
            if column_type not in ORDERABLE_TYPES:
                raise SqlCatalogError(
                    f"column {columns[0]!r} of type {column_type.value!r} "
                    "cannot back an ordered index"
                )
        positions = [self.schema.column_position(c) for c in columns]
        self._before_write()
        index = build_index(name, columns, positions, kind)
        index.rebuild(self._rows)
        self.indexes[name] = index
        return index

    def remove_index(self, name: str) -> None:
        name = name.lower()
        if name not in self.indexes:
            raise SqlCatalogError(f"index {name!r} does not exist on table {self.name!r}")
        self._before_write()
        del self.indexes[name]

    def index_for_columns(self, columns: Sequence[str]) -> Optional[SecondaryIndex]:
        """An index whose key columns are exactly ``columns`` (any order), or None."""
        wanted = sorted(c.lower() for c in columns)
        for index in self.indexes.values():
            if sorted(index.columns) == wanted:
                return index
        return None

    def _rebuild_secondary_indexes(self) -> None:
        for index in self.indexes.values():
            index.rebuild(self._rows)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def _before_write(self) -> None:
        if self.write_hook is not None:
            self.write_hook(self)

    def insert(
        self,
        values: Sequence[Any],
        column_names: Optional[Sequence[str]] = None,
        fk_check: Optional[Callable[[Any], None]] = None,
    ) -> list:
        """Insert one row (after type coercion and constraint checks)."""
        row = self.schema.coerce_row(values, column_names)
        key = self._pk_key(row)
        if key is not None:
            if any(part is None for part in key):
                raise SqlIntegrityError(
                    f"primary key of table {self.name!r} must not contain NULL"
                )
            if key in self._pk_index:
                raise SqlIntegrityError(
                    f"duplicate primary key {key!r} in table {self.name!r}"
                )
        if fk_check is not None:
            fk_check(dict(zip(self.column_names, row)))
        self._before_write()
        self._rows.append(row)
        position = len(self._rows) - 1
        if key is not None:
            self._pk_index[key] = position
        added = []
        try:
            for index in self.indexes.values():
                index.add(row, position)
                added.append(index)
        except BaseException:
            # Keep the table self-consistent when an index write fails (for
            # example a chaos fault on a btree node write): undo the partial
            # insert so the typed error surfaces with no visible mutation.
            for index in added:
                index.discard(row, position)
            if key is not None:
                self._pk_index.pop(key, None)
            self._rows.pop()
            raise
        if self.stats is not None:
            self.stats.note_insert(row, self.column_names)
        if self.log_sink is not None:
            self.log_sink.log_insert(self.name, row)
        return list(row)

    def delete_where(
        self,
        predicate: Callable[[Dict[str, Any]], bool],
        candidate_positions: Optional[Sequence[int]] = None,
    ) -> int:
        """Delete all rows matching ``predicate``; returns the count removed.

        ``candidate_positions`` (when not None) restricts the rows that are
        even *tested* against the predicate - the executor passes index
        lookup results for point predicates so a selective DELETE skips the
        per-row dict construction and expression evaluation of a full scan.
        """
        names = self.column_names
        if candidate_positions is not None:
            candidates = set(candidate_positions)
            if not candidates:
                return 0
        else:
            candidates = None
        kept = []
        removed_positions: List[int] = []
        for position, row in enumerate(self._rows):
            if (candidates is None or position in candidates) and predicate(
                dict(zip(names, row))
            ):
                removed_positions.append(position)
            else:
                kept.append(row)
        if removed_positions:
            self._before_write()
            # Rebuild replacement indexes before touching any table state so
            # a failed index write (chaos fault) leaves the table untouched.
            rebuilt = {name: index.rebuilt(kept) for name, index in self.indexes.items()}
            self._rows = kept
            self._rebuild_pk_index()
            self.indexes = rebuilt
            if self.stats is not None:
                self.stats.note_removed(len(removed_positions))
            if self.log_sink is not None:
                self.log_sink.log_delete(self.name, removed_positions)
        return len(removed_positions)

    def update_where(
        self,
        predicate: Callable[[Dict[str, Any]], bool],
        updater: Callable[[Dict[str, Any]], Dict[str, Any]],
        candidate_positions: Optional[Sequence[int]] = None,
    ) -> int:
        """Update all rows matching ``predicate``; returns the count updated.

        ``updater`` receives the current row as a dict and returns a dict of
        column -> new value for the columns to change.
        ``candidate_positions`` restricts which rows are tested, exactly as
        in :meth:`delete_where`.
        """
        names = self.column_names
        if candidate_positions is not None:
            candidates = set(candidate_positions)
            if not candidates:
                return 0
        else:
            candidates = None
        updated_pairs: List[Tuple[int, list]] = []
        new_rows: List[list] = []
        for position, row in enumerate(self._rows):
            if candidates is not None and position not in candidates:
                new_rows.append(row)
                continue
            row_dict = dict(zip(names, row))
            if predicate(row_dict):
                changes = updater(row_dict)
                for column_name, new_value in changes.items():
                    column = self.schema.column(column_name)
                    row_dict[column_name.lower()] = column.coerce(new_value)
                new_row = [row_dict[name] for name in names]
                new_rows.append(new_row)
                updated_pairs.append((position, new_row))
            else:
                new_rows.append(row)
        if updated_pairs:
            self._before_write()
            # Check keys first: a colliding UPDATE leaves the table untouched.
            pk_index = self._pk_index_over(new_rows)
            rebuilt = {
                name: index.rebuilt(new_rows) for name, index in self.indexes.items()
            }
            self._rows = new_rows
            self._pk_index = pk_index
            self.indexes = rebuilt
            if self.log_sink is not None:
                self.log_sink.log_update(self.name, updated_pairs)
        return len(updated_pairs)

    # ------------------------------------------------------------------ #
    # Transaction support
    # ------------------------------------------------------------------ #
    def snapshot(self) -> "TableState":
        """Capture the contents for rollback in O(1): by the append-only
        invariant, the live list's first ``row_count`` rows never change."""
        return TableState(
            schema=self.schema,
            rows=self._rows,
            row_count=len(self._rows),
            index_defs=[
                (index.name, list(index.columns), index.kind)
                for index in self.indexes.values()
            ],
            stats=self.stats.copy() if self.stats is not None else None,
        )

    def restore(self, state: "TableState") -> None:
        """Restore contents captured by :meth:`snapshot` (all indexes rebuilt)."""
        self.schema = state.schema
        self._rows = state.rows[: state.row_count]
        self._rebuild_pk_index()
        self.indexes = {}
        for name, columns, kind in state.index_defs:
            positions = [self.schema.column_position(c) for c in columns]
            index = build_index(name, columns, positions, kind)
            index.rebuild(self._rows)
            self.indexes[name] = index
        self.stats = state.stats.copy() if state.stats is not None else None

    def extend(self, rows: Iterable[Sequence[Any]]) -> int:
        """Bulk insert; returns the number of rows inserted."""
        count = 0
        for row in rows:
            self.insert(row)
            count += 1
        return count


class TableState:
    """A table's pre-image for transaction rollback (see :meth:`Table.snapshot`)."""

    __slots__ = ("schema", "rows", "row_count", "index_defs", "stats")

    def __init__(
        self,
        schema: TableSchema,
        rows: List[list],
        row_count: int,
        index_defs: Optional[List[Tuple[str, List[str], str]]] = None,
        stats: Optional[TableStats] = None,
    ):
        self.schema = schema
        self.rows = rows
        self.row_count = row_count
        self.index_defs = index_defs or []
        self.stats = stats
