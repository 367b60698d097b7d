"""The ``served_mix`` workload: two closed-loop TCP clients, one durable server.

The server runs in its own process (``server_main.py``) so the clients'
interpreter lock never contends with it.  It serves a durable engine,
``repro.connect(path=...)`` with fsync on (the default), holding 168 h of
HP1 measurements, one HP1 instance and a ``readings`` table with a hash
index on ``sensor`` and a B-tree index on ``time``.

Each client waits for every reply before sending its next statement (a
closed loop: analysts and dashboards wait).  Its statements come from its
own seeded stream, so a seed fixes the op sequence:

* 40 % point SELECTs on ``sensor`` with a ``$1`` parameter;
* 25 % single-row autocommit INSERTs;
* 15 % ``time BETWEEN`` range aggregates over the B-tree index;
* 10 % 24 h ``fmu_simulate ... GROUP BY`` (takes the write lock);
* 10 % ad-hoc statements with inline literals, all distinct, so they miss
  the engine's 512-entry statement cache.

Every reply is checked against what the clients know was committed.  After
the run, every acknowledged INSERT must be readable over the wire and again
after the server process is gone and the store is reopened.
"""

from __future__ import annotations

import bisect
import json
import math
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List

from common import ROOT, SETUPS, median, percentile
from speed import SpeedSampler

HOURS = 168
SENSORS = 2000
INITIAL_ROWS = 40000
INSERT_ID_BASE = 10_000_000
MIX = (("point", 0.40), ("insert", 0.25), ("range", 0.15), ("simulate", 0.10), ("adhoc", 0.10))
CLIENTS = 2
#: Completed statements per served "pass" (the unit of ``pass_s``).
BLOCK = 100
#: Statements before this many seconds are not measured (the first seconds
#: of a fresh server run measurably slower).
WARMUP_S = 3.0
RANGE_HOURS = 0.25
SIMULATE_SQL = (
    "SELECT varname, count(*), avg(value) FROM fmu_simulate('HP1Inst', "
    "'SELECT * FROM measurements', {t0!r}, {t1!r}) GROUP BY varname"
)


def _measurements(seed: int):
    from repro.data.generators import generate_dataset_for

    return generate_dataset_for("HP1", hours=HOURS, seed=seed)


def initial_readings(seed: int) -> List[list]:
    """The ``readings`` rows the server starts with."""
    import numpy as np

    rng = np.random.default_rng([seed, 1])
    sensors = rng.integers(0, SENSORS, INITIAL_ROWS)
    times = rng.uniform(0.0, HOURS, INITIAL_ROWS)
    values = rng.normal(20.0, 3.0, INITIAL_ROWS)
    return [
        [i + 1, int(s), float(t), float(v)]
        for i, (s, t, v) in enumerate(zip(sensors, times, values))
    ]


def build_engine(conn, seed: int, storage: str) -> None:
    """Load the served engine's data (runs in the server process)."""
    from repro.data.loaders import load_dataset
    from repro.models.registry import get_model_spec

    load_dataset(conn.database, _measurements(seed), table_name="measurements")
    archive = str(Path(storage) / "HP1.fmu")
    get_model_spec("HP1").builder().write(archive)
    conn.execute("SELECT fmu_create($1, 'HP1Inst')", [archive])
    conn.execute(
        "CREATE TABLE readings (id integer, sensor integer, time double precision, "
        "value double precision)"
    )
    conn.execute("CREATE INDEX readings_sensor ON readings USING HASH (sensor)")
    conn.execute("CREATE INDEX readings_time ON readings USING BTREE (time)")
    conn.cursor().executemany(
        "INSERT INTO readings VALUES ($1, $2, $3, $4)", initial_readings(seed)
    )


class ServerProcess:
    """One ``server_main.py`` process and its command pipe."""

    def __init__(self, work: Path, seed: int, name: str):
        self.spans_path = work / f"{name}.spans.json"
        self.db_path = work / f"{name}.db"
        storage = work / f"{name}.fmus"
        storage.mkdir()
        self.storage = storage
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "server_main.py"),
             "--db", str(self.db_path), "--storage", str(storage), "--seed", str(seed),
             "--spans", str(self.spans_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=str(ROOT),
        )
        try:
            port, share, spent = self._expect("ready", 3)
        except BaseException:
            self.kill()
            raise
        wall = time.perf_counter() - started
        #: Spawn to listening: wall time, and in full-speed seconds.
        self.setup = {"wall": wall, "full_speed": (wall - float(spent)) * float(share),
                      "share": float(share)}
        self.url = f"repro://127.0.0.1:{int(port)}"

    def _expect(self, word: str, fields: int = 1) -> List[str]:
        line = self.proc.stdout.readline().split()
        if len(line) != fields + 1 or line[0] != word:
            raise RuntimeError(f"server process said {line!r}, expected {word!r}")
        return line[1:]

    def command(self, text: str, reply: str, fields: int = 1) -> List[str]:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self._expect(reply, fields)

    def stop(self) -> int:
        """Stop the process (no graceful shutdown) and return its WAL size."""
        try:
            return int(self.command("stop", "stopped")[0])
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=60)
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass


class Knowledge:
    """What the clients know about ``readings``: committed and in-flight rows."""

    def __init__(self, rows: List[list]):
        self.mutex = threading.Lock()
        self.acked_by_sensor: Dict[int, set] = defaultdict(set)
        self.all_by_sensor: Dict[int, set] = defaultdict(set)
        for rid, sensor, _t, _v in rows:
            self.acked_by_sensor[sensor].add(rid)
            self.all_by_sensor[sensor].add(rid)
        self.acked_times: List[float] = sorted(r[2] for r in rows)
        self.all_times: List[float] = list(self.acked_times)
        self.acked_ids: List[int] = []

    def pending(self, rid: int, sensor: int, t: float) -> None:
        with self.mutex:
            self.all_by_sensor[sensor].add(rid)
            bisect.insort(self.all_times, t)

    def acked(self, rid: int, sensor: int, t: float) -> None:
        with self.mutex:
            self.acked_by_sensor[sensor].add(rid)
            bisect.insort(self.acked_times, t)
            self.acked_ids.append(rid)

    @staticmethod
    def count_between(times: List[float], lo: float, hi: float) -> int:
        return bisect.bisect_right(times, hi) - bisect.bisect_left(times, lo)


class Client:
    """One closed-loop client with its own seeded statement stream."""

    def __init__(self, index: int, url: str, seed: int, knowledge: Knowledge, grid):
        import numpy as np
        import repro.client

        self.index = index
        self.conn = repro.client.connect(url)
        self.cursor = self.conn.cursor()
        self.rng = np.random.default_rng([seed, 100 + index])
        self.knowledge = knowledge
        self.grid = grid
        self.next_id = INSERT_ID_BASE + index * 1_000_000
        self.records: List[tuple] = []  # (phase, kind, sent, done, ok)
        self.errors: List[str] = []
        self.adhoc = 0

    def _kind(self) -> str:
        draw = self.rng.random()
        for kind, share in MIX:
            if draw < share:
                return kind
            draw -= share
        return MIX[-1][0]

    def run_until(self, deadline: float, phase: str) -> None:
        while time.perf_counter() < deadline:
            kind = self._kind()
            op = getattr(self, f"_op_{kind}")()
            sql, params, check = op
            sent = time.perf_counter()
            try:
                self.cursor.execute(sql, params)
                rows, rowcount = self.cursor.fetchall(), self.cursor.rowcount
                ok = True
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                ok, rows, rowcount = False, None, None
                self.errors.append(f"{kind} failed: {type(exc).__name__}: {exc}")
            done = time.perf_counter()
            if ok:
                try:
                    problem = check(rows, rowcount)
                except (IndexError, TypeError, ValueError) as exc:
                    problem = f"malformed reply {rows!r}: {exc}"
                if problem:
                    self.errors.append(f"{kind}: {problem}")
            self.records.append((phase, kind, sent, done, ok))

    # Each _op_* draws its parameters and returns (sql, params, check).
    def _op_point(self):
        sensor = int(self.rng.integers(0, SENSORS))
        with self.knowledge.mutex:
            before = set(self.knowledge.acked_by_sensor[sensor])

        def check(rows, _rc):
            ids = {r[0] for r in rows}
            with self.knowledge.mutex:
                possible = self.knowledge.all_by_sensor[sensor]
                if not before <= ids or not ids <= possible:
                    return f"sensor {sensor}: got {len(ids)} ids, missing or unknown rows"
            return None

        return "SELECT id, value FROM readings WHERE sensor = $1", [sensor], check

    def _op_insert(self):
        rid = self.next_id
        self.next_id += 1
        sensor = int(self.rng.integers(0, SENSORS))
        t = float(self.rng.uniform(0.0, HOURS))
        value = float(self.rng.normal(20.0, 3.0))
        self.knowledge.pending(rid, sensor, t)

        def check(_rows, rowcount):
            if rowcount != 1:
                return f"INSERT reported rowcount {rowcount}"
            self.knowledge.acked(rid, sensor, t)
            return None

        return "INSERT INTO readings VALUES ($1, $2, $3, $4)", [rid, sensor, t, value], check

    def _op_range(self):
        lo = float(self.rng.uniform(0.0, HOURS - RANGE_HOURS))
        hi = lo + RANGE_HOURS
        with self.knowledge.mutex:
            least = Knowledge.count_between(self.knowledge.acked_times, lo, hi)

        def check(rows, _rc):
            count = rows[0][0]
            with self.knowledge.mutex:
                most = Knowledge.count_between(self.knowledge.all_times, lo, hi)
            if not least <= count <= most:
                return f"range count {count} outside [{least}, {most}]"
            return None

        return (
            "SELECT count(*), avg(value) FROM readings WHERE time BETWEEN $1 AND $2",
            [lo, hi],
            check,
        )

    def _op_simulate(self):
        # Whole days inside the measured campaign (the last one ends at 167 h).
        day = int(self.rng.integers(0, HOURS // 24 - 1))
        t0, t1 = 24.0 * day, 24.0 * day + 24.0
        expected = int(((self.grid >= t0) & (self.grid <= t1)).sum())

        def check(rows, _rc):
            got = sorted((r[0], r[1]) for r in rows)
            if got != [("x", expected), ("y", expected)]:
                return f"simulate day {day}: {got!r}, expected x and y with {expected} rows"
            return None

        return SIMULATE_SQL.format(t0=t0, t1=t1), None, check

    def _op_adhoc(self):
        sensor = int(self.rng.integers(0, SENSORS))
        threshold = float(self.rng.normal(20.0, 3.0))
        self.adhoc += 1
        # The trailing comparison makes every text distinct even if two
        # thresholds collide, so each ad-hoc statement is parsed afresh.
        sql = (
            f"SELECT count(*) FROM readings WHERE sensor = {sensor} "
            f"AND value < {threshold:.9f} AND id <> -{self.index * 10**7 + self.adhoc}"
        )

        def check(rows, _rc):
            count = rows[0][0]
            with self.knowledge.mutex:
                most = len(self.knowledge.all_by_sensor[sensor])
            if not 0 <= count <= most:
                return f"ad-hoc count {count} outside [0, {most}]"
            return None

        return sql, None, check


def _run_phase(clients: List[Client], seconds: float, phase: str) -> float:
    """Run every client for ``seconds``; returns the phase start time."""
    started = time.perf_counter()
    deadline = started + seconds
    threads = [
        threading.Thread(target=c.run_until, args=(deadline, phase), name=f"client{c.index}")
        for c in clients
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return started


def _phase_figures(clients: List[Client], phase: str, started: float) -> Dict[str, Any]:
    records = sorted(
        (r for c in clients for r in c.records if r[0] == phase), key=lambda r: r[3]
    )
    latencies: Dict[str, List[float]] = defaultdict(list)
    for _phase, kind, sent, done, ok in records:
        latencies[kind].append(1e3 * (done - sent) if ok else math.inf)
    blocks = []
    previous = started
    for k in range(len(records) // BLOCK):
        blocks.append(records[(k + 1) * BLOCK - 1][3] - previous)
        previous = records[(k + 1) * BLOCK - 1][3]
    window = (records[-1][3] - started) if records else math.nan
    return {
        "records": records,
        "latencies": latencies,
        # At the window's mean rate: the mix of a few blocks varies too much.
        "pass_s": BLOCK * window / len(records) if records else math.nan,
        "blocks": len(blocks),
        "block_times_s": blocks,
        "stmt_per_s": len(records) / window if records else math.nan,
        "window_s": window,
    }


def _durable_ids(query) -> set:
    return {row[0] for row in query("SELECT id FROM readings WHERE id >= $1", [INSERT_ID_BASE])}


def run_served(seed: int, seconds: float, trace: bool, work: Path) -> Dict[str, Any]:
    import repro
    import spans

    grid = _measurements(seed).time
    knowledge = Knowledge(initial_readings(seed))
    checks: List[str] = []
    servers: List[ServerProcess] = []
    clients: List[Client] = []
    result: Dict[str, Any] = {}
    try:
        for attempt in range(SETUPS):
            if servers:
                servers[-1].stop()
            servers.append(ServerProcess(work, seed, f"served{attempt}"))
        server = servers[-1]
        clients = [Client(i, server.url, seed, knowledge, grid) for i in range(CLIENTS)]
        _run_phase(clients, WARMUP_S, "warmup")
        # Untraced, both processes sample host speed while measured.
        sampler = SpeedSampler()
        if not trace:
            server.command("sample", "sampling")
            sampler.start()
        try:
            started = _run_phase(clients, seconds / 2 if trace else seconds, "measure")
        finally:
            sampler.stop()
        measured = _phase_figures(clients, "measure", started)
        if not trace:
            remote_n, remote_share = server.command("sampled", "sampled", 2)
            local_n, remote_n = len(sampler.samples), int(remote_n)
            measured["speed_share"] = (
                local_n * sampler.full_speed_share() + remote_n * float(remote_share)
            ) / (local_n + remote_n)
            measured["speed_samples"] = local_n + remote_n
        if trace:
            tracer = spans.Tracer()
            wal_before = int(server.command("trace", "traced")[0])
            spans.install_client(tracer)
            acked_before = len(knowledge.acked_ids)
            try:
                traced = _phase_figures(
                    clients, "traced", _run_phase(clients, seconds / 2, "traced")
                )
            finally:
                tracer.uninstall()
            acked_traced = len(knowledge.acked_ids) - acked_before

        # Every acknowledged INSERT is visible over the wire...
        acked = set(knowledge.acked_ids)
        seen = _durable_ids(lambda sql, p: clients[0].cursor.execute(sql, p).fetchall())
        if not acked <= seen:
            checks.append(f"{len(acked - seen)} acknowledged INSERTs not visible at the end")
        for c in clients:
            c.conn.close()
        wal_after = server.stop()
        # ... and survives the server process, read back from the store.
        reopened = repro.connect(path=str(server.db_path), storage_dir=str(server.storage),
                                 register_ml=False)
        try:
            kept = _durable_ids(lambda sql, p: reopened.execute(sql, p).fetchall())
        finally:
            reopened.close()
        if not acked <= kept:
            checks.append(f"{len(acked - kept)} acknowledged INSERTs lost after reopening")
        if trace:
            remote = json.loads(server.spans_path.read_text())
            layers = spans.layer_metrics(
                tracer, passes=len(traced["records"]) / BLOCK,
                remote_spans=remote["spans"], remote_counts=remote["counts"],
                wal_bytes_per_row=(wal_after - wal_before) / acked_traced if acked_traced else 0.0,
            )
            layers["trace.overhead_pct"] = 100.0 * (traced["pass_s"] / measured["pass_s"] - 1.0)
            result["layers"] = layers
            result["spans"] = {"clients": tracer.spans, "server": remote["spans"]}
            traced_details = {
                "lock_wait_ms_by_op": _lock_wait_by_op(clients, remote["spans"]),
                "traced_summary": {k: traced[k] for k in ("pass_s", "stmt_per_s", "blocks")},
            }
    finally:
        for c in clients:
            c.conn.close()
        for s in servers:
            s.kill()

    for c in clients:
        checks.extend(c.errors)
    records = [r for c in clients for r in c.records]
    failed = sum(1 for r in records if not r[4])
    lat = measured["latencies"]
    setup_times = [s.setup for s in servers]
    setup_s = median([t["full_speed"] for t in setup_times])

    def figure(kind, q):
        return (percentile(lat.get(kind, []), q), len(lat.get(kind, [])))

    result.update(
        setup_s=setup_s,
        setup_times=setup_times,
        attempted=len(records),
        failed=failed,
        checks=checks,
        end_to_end={"pass_s": measured["pass_s"] * measured.get("speed_share", math.nan)},
        stamp={"fsync": True, "clients": CLIENTS, "loop": "closed"},
        report={
            "setup_s": (setup_s, len(setup_times)),
            "setup_wall_s": (median([t["wall"] for t in setup_times]), len(setup_times)),
            "pass_s": (measured["pass_s"] * measured.get("speed_share", math.nan),
                       len(measured["records"])),
            "speed_share": (measured.get("speed_share"), measured.get("speed_samples", 0)),
            "workflow_s": (measured["pass_s"], len(measured["records"])),
            "stmt_per_s": (measured["stmt_per_s"], len(measured["records"])),
            "point_p50_ms": figure("point", 50),
            "point_p95_ms": figure("point", 95),
            "insert_p50_ms": figure("insert", 50),
            "insert_p95_ms": figure("insert", 95),
            "range_p50_ms": figure("range", 50),
            "simulate_p50_ms": figure("simulate", 50),
            "adhoc_p50_ms": figure("adhoc", 50),
            "failed_ratio": (failed / len(records) if records else 0.0, len(records)),
            "p95_ms_by_op": {k: percentile(v, 95) for k, v in lat.items()},
            "samples_by_op": {k: len(v) for k, v in lat.items()},
            "block_statements": BLOCK,
            "measured_window_s": measured["window_s"],
            "pass_times_s": measured["block_times_s"],
            **(traced_details if trace else {}),
        },
    )
    return result


def _lock_wait_by_op(clients: List[Client], server_spans: List[list]) -> Dict[str, float]:
    """Mean statement-lock wait per op type in the traced phase."""
    import spans

    kind_of = {}
    for c in clients:
        kinds = [r[1] for r in c.records if r[0] == "traced"]
        for n, kind in enumerate(kinds, start=1):
            kind_of[f"{c.conn.session_id}:{n}"] = kind
    table = spans.SpanTable(server_spans)
    waits: Dict[str, List[float]] = defaultdict(list)
    for rid, names in table.by_request.items():
        if rid in kind_of:
            waits[kind_of[rid]].append(names.get("sqldb.lock", 0) * 1e-6)
    return {k: sum(v) / len(v) for k, v in sorted(waits.items())}
