"""Durable storage engine: insert throughput and recovery latency (not a paper table).

Quantifies what ``repro.connect(path=...)`` costs and buys:

* **Insert throughput** - the same batched-transaction load (50k rows,
  1000-row transactions) against the in-memory engine, the WAL-attached
  engine (every commit fsyncs), and the WAL engine followed by a
  ``CHECKPOINT`` (snapshot + log reset).
* **Reopen latency** - recovering those 50k rows on the next open, once by
  replaying the full WAL (no checkpoint taken) and once from the page-store
  snapshot a checkpoint left behind.  The gap is why checkpoints exist: the
  snapshot load is bounded by table size, the replay by *history* size.
* **INSERT scaling** - the median latency of a one-row autocommit INSERT
  into a durable table of 20k rows over that into one of 500 rows.  Every
  such INSERT runs in a statement-level transaction, so the ratio stays
  near 1 only while a transaction's pre-image is O(1) in the table size;
  both run paths fail when it exceeds 3x.

Run with:  pytest benchmarks/bench_storage_wal.py
      or:  python benchmarks/bench_storage_wal.py [--smoke]

``--smoke`` loads 2k rows instead of 50k for the throughput and reopen
figures (used by CI to exercise the durable path on every push without
timing flakiness) but keeps the INSERT-scaling sizes and gate; it still
writes ``BENCH_storage_wal.json``, flagged with ``"smoke": true``.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

if __name__ == "__main__":  # pragma: no cover - direct invocation path
    _SRC = Path(__file__).resolve().parent.parent / "src"
    if str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))

from repro.sqldb import Database
from repro.sqldb.storage import StorageEngine

RECORD_PATH = Path(__file__).resolve().parent / "BENCH_storage_wal.json"

ROWS = 50_000
BATCH = 1_000
SCHEMA = "CREATE TABLE m (id integer PRIMARY KEY, v double precision, tag text)"

#: Table sizes and sample count of the INSERT-scaling gate.  The gate is a
#: ratio, not seconds, so it holds on any host.
SCALING_SMALL_ROWS = 500
SCALING_LARGE_ROWS = 20_000
SCALING_INSERTS = 60
MAX_INSERT_SCALING_X = 3.0


def _rows(count: int):
    return [[i, i * 0.5, f"tag{i % 7}"] for i in range(count)]


def _load(db: Database, rows) -> float:
    """Insert all rows in BATCH-row transactions; returns elapsed seconds."""
    db.execute(SCHEMA)
    started = time.perf_counter()
    for start in range(0, len(rows), BATCH):
        db.begin()
        db.insert_rows("m", rows[start : start + BATCH])
        db.commit()
    return time.perf_counter() - started


def _count(db: Database) -> int:
    return db.execute("SELECT count(*) FROM m").scalar()


def _insert_medians_s(workdir: Path) -> tuple:
    """Median latencies of single-row autocommit INSERTs into a durable table
    of SCALING_SMALL_ROWS and one of SCALING_LARGE_ROWS rows.  The two are
    sampled alternately, so a change in host speed hits both alike.  fsync
    is off: the gate measures the work done under the write lock, not the
    disk."""
    sizes = (SCALING_SMALL_ROWS, SCALING_LARGE_ROWS)
    dbs = []
    try:
        for rows in sizes:
            engine = StorageEngine(workdir / f"scaling_{rows}.db", fsync=False)
            dbs.append(Database(storage=engine))
            _load(dbs[-1], _rows(rows))
        samples = ([], [])
        for step in range(SCALING_INSERTS):
            for db, rows, timings in zip(dbs, sizes, samples):
                started = time.perf_counter()
                db.execute("INSERT INTO m VALUES ($1, $2, $3)", [rows + step, 0.5, "new"])
                timings.append(time.perf_counter() - started)
        for db, rows in zip(dbs, sizes):
            assert _count(db) == rows + SCALING_INSERTS, "autocommit INSERTs lost rows"
    finally:
        for db in dbs:
            db.storage.close()
    return tuple(statistics.median(timings) for timings in samples)


def measure_storage_wal(rows: int = ROWS) -> dict:
    """Time the three insert paths and the two recovery paths."""
    data = _rows(rows)
    workdir = Path(tempfile.mkdtemp(prefix="bench_storage_wal_"))
    try:
        memory_s = _load(Database(), data)

        # WAL only: durability per commit, recovery replays the full log.
        wal_path = workdir / "wal_only.db"
        db = Database(storage=StorageEngine(wal_path))
        wal_s = _load(db, data)
        wal_bytes = db.storage.wal_size()
        db.storage.close()
        started = time.perf_counter()
        db = Database(storage=StorageEngine(wal_path))
        replay_open_s = time.perf_counter() - started
        assert _count(db) == rows, "WAL replay lost rows"
        db.storage.close()

        # WAL + CHECKPOINT: snapshot to the page store, reset the log.
        ckpt_path = workdir / "checkpointed.db"
        db = Database(storage=StorageEngine(ckpt_path))
        ckpt_load_s = _load(db, data)
        started = time.perf_counter()
        db.checkpoint()
        checkpoint_s = time.perf_counter() - started
        wal_bytes_after_ckpt = db.storage.wal_size()
        db.storage.close()
        started = time.perf_counter()
        db = Database(storage=StorageEngine(ckpt_path))
        snapshot_open_s = time.perf_counter() - started
        assert _count(db) == rows, "snapshot recovery lost rows"
        db.storage.close()

        small_s, large_s = _insert_medians_s(workdir)

        return {
            "benchmark": "storage_wal",
            "rows": rows,
            "batch_rows": BATCH,
            "insert_memory_s": round(memory_s, 6),
            "insert_wal_s": round(wal_s, 6),
            "insert_wal_plus_checkpoint_s": round(ckpt_load_s + checkpoint_s, 6),
            "checkpoint_s": round(checkpoint_s, 6),
            "rows_per_s_memory": round(rows / memory_s),
            "rows_per_s_wal": round(rows / wal_s),
            "wal_overhead_x": round(wal_s / memory_s, 2),
            "wal_bytes": wal_bytes,
            "wal_bytes_after_checkpoint": wal_bytes_after_ckpt,
            "reopen_replay_s": round(replay_open_s, 6),
            "reopen_snapshot_s": round(snapshot_open_s, 6),
            "replay_vs_snapshot_x": round(replay_open_s / snapshot_open_s, 2),
            "insert_scaling_rows": [SCALING_SMALL_ROWS, SCALING_LARGE_ROWS],
            "insert_p50_small_us": round(small_s * 1e6, 1),
            "insert_p50_large_us": round(large_s * 1e6, 1),
            "insert_scaling_x": round(large_s / small_s, 2),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def write_record(record: dict) -> Path:
    RECORD_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return RECORD_PATH


def assert_insert_scaling(record: dict) -> None:
    assert record["insert_scaling_x"] <= MAX_INSERT_SCALING_X, (
        f"a one-row INSERT into {SCALING_LARGE_ROWS} rows costs "
        f"{record['insert_scaling_x']}x one into {SCALING_SMALL_ROWS} rows "
        f"(limit {MAX_INSERT_SCALING_X}x): a transaction pre-image grew with the table"
    )


def test_storage_wal_benchmark():
    record = measure_storage_wal()
    write_record(record)
    print()
    print(json.dumps(record, indent=2, sort_keys=True))
    # Sanity floors, not tight perf assertions: a checkpoint must actually
    # shrink the log, and both recovery paths already proved row counts.
    assert record["wal_bytes_after_checkpoint"] < record["wal_bytes"]
    assert_insert_scaling(record)


def smoke() -> dict:
    record = measure_storage_wal(rows=2_000)
    record["smoke"] = True
    write_record(record)
    assert_insert_scaling(record)
    return record


if __name__ == "__main__":  # pragma: no cover
    result = smoke() if "--smoke" in sys.argv[1:] else None
    if result is None:
        record = measure_storage_wal()
        write_record(record)
        result = record
    print(json.dumps(result, indent=2, sort_keys=True))
