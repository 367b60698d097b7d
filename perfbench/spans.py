"""Span recorder and per-layer metrics for the traced benchmark run.

The benchmark times each layer from the outside: :func:`install_engine`,
:func:`install_server` and :func:`install_client` wrap public functions of
the ``repro`` modules with a recorder that keeps one span per call (name,
start, end, parent, request id) in memory.  Nothing in ``src/`` knows about
it.  A span's self time is its duration minus the durations of its direct
children; all spans of one top-level call (one SQL statement, one server
request) share that call's request id.

A traced run installs the wrappers after its untraced half, so one process
measures the tracing overhead.  The server process of ``served_mix``
installs the engine and server wrappers itself (``server_main.py``) and
ships its spans back as JSON when it stops.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional

#: ``(index of the innermost open span, request id)`` for the current thread.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)

LAYERS = ("server", "sqldb", "storage", "core", "fmi", "solvers", "estimation")


class Tracer:
    """In-memory spans and counters of one process.

    ``spans`` holds ``[name, start_ns, end_ns, parent, request]`` lists;
    ``parent`` is an index into ``spans`` (-1 for a top-level call).
    ``counts`` accumulates integers read from call results.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._mutex = threading.Lock()  # server handler threads share a tracer
        self._ids = itertools.count(1)
        self._patched: List[tuple] = []

    def add(self, key: str, amount: int = 1) -> None:
        with self._mutex:
            self.counts[key] += int(amount)

    def _open(self, name: str, request_id: Optional[Callable[[tuple], str]], args: tuple):
        outer = _CURRENT.get()
        if outer is None:
            rid = request_id(args) if request_id else f"r{next(self._ids)}"
            parent = -1
        else:
            parent, rid = outer
        record = [name, 0, 0, parent, rid]
        with self._mutex:
            self.spans.append(record)
            index = len(self.spans) - 1
        token = _CURRENT.set((index, rid))
        record[1] = time.perf_counter_ns()
        return record, token

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_result: Optional[Callable[["Tracer", tuple, Any], None]] = None,
        request_id: Optional[Callable[[tuple], str]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``on_result(tracer, args, result)`` reads counters from a call's
        result; ``request_id(args)`` names a top-level call's request
        (top-level calls are numbered otherwise).
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            record, token = self._open(name, request_id, args)
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = time.perf_counter_ns()
                _CURRENT.reset(token)
            if on_result is not None:
                on_result(self, args, result)
            return result

        static = isinstance(inspect.getattr_static(owner, attr), staticmethod)
        self.patch(owner, attr, staticmethod(traced) if static else traced)

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`uninstall`."""
        self._patched.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, latest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


# --------------------------------------------------------------------------- #
# Installing the wrappers
# --------------------------------------------------------------------------- #
def _count_solution(prefix: str):
    def on_result(tracer: Tracer, _args: tuple, solution: Any) -> None:
        steps = int(sum(_as_ints(solution.n_steps)))
        rejected = int(sum(_as_ints(solution.n_rejected)))
        tracer.add(f"{prefix}.row_steps", steps + rejected)
        tracer.add("solvers.steps", steps)
        tracer.add("solvers.rejected", rejected)
        tracer.add("solvers.rhs_evals", int(solution.n_rhs_evals))

    return on_result


def _as_ints(value: Any) -> Iterable[int]:
    if value is None:
        return [0]
    try:
        return [int(v) for v in value]
    except TypeError:
        return [int(value)]


def _count_estimation(tracer: Tracer, _args: tuple, result: Any) -> None:
    tracer.add("estimation.evaluations", result.n_evaluations)
    tracer.add("estimation.cache_hits", result.n_cache_hits)
    tracer.add("estimation.ga_us", round(result.global_time * 1e6))
    tracer.add("estimation.local_us", round(result.local_time * 1e6))


def _count_parest(tracer: Tracer, _args: tuple, outcomes: Any) -> None:
    tracer.add("core.parest_instances", len(outcomes))
    tracer.add("core.mi_hits", sum(1 for o in outcomes if o.used_mi_optimization))


def _count_batch(tracer: Tracer, args: tuple, _result: Any) -> None:
    tracer.add("fmi.batch_rows", len(args[0]))


def _count_grouped(tracer: Tracer, args: tuple, _result: Any) -> None:
    tracer.add("sqldb.agg_input_rows", len(args[3]))


def _count_frame_bytes(tracer: Tracer) -> None:
    """Count the bytes of every encoded wire frame (no span: the encoding
    time is part of the wire time)."""
    from repro.server import protocol

    original = protocol.encode_message

    @functools.wraps(original)
    def encode_message(message):
        frame = original(message)
        tracer.add("server.bytes", len(frame))
        return frame

    tracer.patch(protocol, "encode_message", encode_message)


def install_engine(tracer: Tracer) -> None:
    """Wrap the engine layers: sqldb, storage, core, fmi, solvers, estimation."""
    from repro.core import catalog, parest, simulate
    from repro.estimation import estimator
    from repro.fmi import model
    from repro.solvers import retry, rk4, rk45
    from repro.sqldb import connection, database, executor, locks
    from repro.sqldb.planner import builder
    from repro.sqldb.storage import engine, wal

    tracer.wrap(connection.Cursor, "execute", "sqldb.cursor_execute")
    tracer.wrap(database.Database, "execute", "sqldb.execute")
    tracer.wrap(database, "parse_sql", "sqldb.parse")
    tracer.wrap(builder, "build_select_plan", "sqldb.plan")
    tracer.wrap(locks.StatementLock, "acquire_read", "sqldb.lock")
    tracer.wrap(locks.StatementLock, "acquire_write", "sqldb.lock")
    tracer.wrap(executor.Executor, "_execute_grouped", "sqldb.aggregate", _count_grouped)
    tracer.wrap(engine.StorageEngine, "commit", "storage.commit")
    tracer.wrap(wal.WalWriter, "sync", "storage.sync")
    tracer.wrap(simulate.Simulator, "simulate_rows_many", "core.simulate")
    tracer.wrap(simulate.Simulator, "prepare_inputs", "core.input_query")
    tracer.wrap(parest.ParameterEstimator, "load_measurements", "core.input_query")
    tracer.wrap(parest.ParameterEstimator, "estimate", "core.parest", _count_parest)
    tracer.wrap(catalog.ModelCatalog, "runtime_model", "core.runtime_model")
    tracer.wrap(model.FmuModel, "simulate", "fmi.simulate")
    tracer.wrap(model.FmuModel, "simulate_batch", "fmi.simulate_batch", _count_batch)
    tracer.wrap(rk4.RungeKutta4Solver, "solve", "solvers.rk4", _count_solution("solvers.rk4"))
    tracer.wrap(
        rk4.RungeKutta4Solver, "solve_batch", "solvers.rk4_batch",
        _count_solution("solvers.rk4_batch"),
    )
    tracer.wrap(
        rk45.DormandPrince45Solver, "solve", "solvers.rk45", _count_solution("solvers.rk45")
    )
    tracer.wrap(
        rk45.DormandPrince45Solver, "solve_batch", "solvers.rk45_batch",
        _count_solution("solvers.rk45_batch"),
    )
    tracer.wrap(estimator.Estimation, "estimate", "estimation.estimate", _count_estimation)

    # The retry ladder returns the first rung that succeeds; count the rungs
    # it tried beyond the first by counting calls of the callable it runs.
    original_run = retry.RetryPolicy.run

    @functools.wraps(original_run)
    def run(policy, simulate_fn, *args, **kwargs):
        calls = [0]

        def counted(*a, **k):
            calls[0] += 1
            return simulate_fn(*a, **k)

        try:
            return original_run(policy, counted, *args, **kwargs)
        finally:
            tracer.add("solvers.retries", max(calls[0] - 1, 0))

    tracer.patch(retry.RetryPolicy, "run", run)


def wrap_udfs(tracer: Tracer, database: Any) -> None:
    """Wrap the SQL entry points of the pgFMU UDFs registered in ``database``."""
    for name in ("fmu_simulate",):
        tracer.wrap(database.udfs.table(name), "func", f"core.udf.{name}")
    for name in ("fmu_parest", "fmu_create", "fmu_copy"):
        tracer.wrap(database.udfs.scalar(name), "func", f"core.udf.{name}")


def install_server(tracer: Tracer) -> None:
    """Wrap the server side of the wire: dispatch and frame encoding.

    A request's id is ``<session id>:<n>`` for the session's n-th request
    since installation, which is how client spans find their server half.
    """
    from repro.server import service

    counters: Dict[int, Any] = defaultdict(lambda: itertools.count(1))

    def rid(args: tuple) -> str:
        session = args[1]
        return f"{session.id}:{next(counters[session.id])}"

    tracer.wrap(service.ReproService, "dispatch", "server.dispatch", request_id=rid)
    _count_frame_bytes(tracer)


def install_client(tracer: Tracer) -> None:
    """Wrap the client driver: one span per statement round trip."""
    from repro.server import client

    counters: Dict[int, Any] = defaultdict(lambda: itertools.count(1))

    def rid(args: tuple) -> str:
        session_id = args[0].connection.session_id
        return f"{session_id}:{next(counters[session_id])}"

    tracer.wrap(client.RemoteCursor, "execute", "server.client_execute", request_id=rid)
    _count_frame_bytes(tracer)


# --------------------------------------------------------------------------- #
# From spans to per-layer metrics
# --------------------------------------------------------------------------- #
class SpanTable:
    """Durations and self times (ns) of one process's spans, by name."""

    def __init__(self, spans: List[list]):
        self.spans = spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _rid in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self.duration: Dict[str, List[int]] = defaultdict(list)
        self.self_ns: Dict[str, List[int]] = defaultdict(list)
        self.by_request: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for index, (name, start, end, parent, rid) in enumerate(spans):
            self.duration[name].append(end - start)
            self.self_ns[name].append(end - start - child_ns[index])
            self.by_request[rid][name] += end - start

    def total(self, *names: str) -> int:
        return sum(sum(self.duration.get(n, ())) for n in names)

    def count(self, *names: str) -> int:
        return sum(len(self.duration.get(n, ())) for n in names)

    def self_total(self, *names: str) -> int:
        return sum(sum(self.self_ns.get(n, ())) for n in names)

    def layer_self_ns(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for name, values in self.self_ns.items():
            out[name.split(".", 1)[0]] += sum(values)
        return out

    def under(self, ancestor: str, names: Iterable[str]) -> int:
        """Number of spans named in ``names`` with an ``ancestor`` span above."""
        wanted = set(names)
        hits = 0
        for name, _s, _e, parent, _rid in self.spans:
            if name not in wanted:
                continue
            while parent >= 0:
                if self.spans[parent][0] == ancestor:
                    hits += 1
                    break
                parent = self.spans[parent][3]
        return hits


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    local: Tracer,
    passes: float,
    remote_spans: Optional[List[list]] = None,
    remote_counts: Optional[Dict[str, int]] = None,
    wal_bytes_per_row: float = 0.0,
) -> Dict[str, float]:
    """Per-layer metrics from the traced half of a run.

    ``local`` is this process's tracer; ``remote_*`` are the server
    process's spans and counts for ``served_mix``, whose server also
    reports ``wal_bytes_per_row``.  ``passes`` is the number of passes (or
    served blocks) the traced half completed.  Time metrics
    that a workload never exercises read 0.
    """
    counts: Dict[str, int] = defaultdict(int, local.counts)
    for key, value in (remote_counts or {}).items():
        counts[key] += value
    client = SpanTable(local.spans)
    engine = SpanTable(remote_spans) if remote_spans is not None else client
    per_pass = 1.0 / passes if passes else 0.0
    us, ms = 1e-3, 1e-6

    # Wire time: a client round trip minus the server's dispatch of it.
    wire = []
    for rid, names in client.by_request.items():
        if "server.client_execute" in names and rid in engine.by_request:
            dispatch_ns = engine.by_request[rid].get("server.dispatch", 0)
            if dispatch_ns:
                wire.append(names["server.client_execute"] - dispatch_ns)
    statements = client.count("server.client_execute") or engine.count("sqldb.cursor_execute")
    top_level = sum(
        1 for s in engine.spans
        if s[0] == "sqldb.execute" and s[3] >= 0 and engine.spans[s[3]][0] == "sqldb.cursor_execute"
    )

    layer_self = engine.layer_self_ns()
    if remote_spans is not None:
        layer_self["server"] = layer_self.get("server", 0) + sum(wire)

    solver_names = ("solvers.rk4", "solvers.rk4_batch", "solvers.rk45", "solvers.rk45_batch")
    metrics = {
        "server.wire_us": _ratio(sum(wire), len(wire)) * us,
        "server.dispatch_us": _ratio(engine.self_total("server.dispatch"),
                                     engine.count("server.dispatch")) * us,
        "server.bytes_per_stmt": _ratio(counts["server.bytes"], statements),
        "sqldb.parse_us": _ratio(engine.total("sqldb.parse"), engine.count("sqldb.parse")) * us,
        "sqldb.stmt_cache_hit_ratio": 1.0 - _ratio(engine.count("sqldb.parse"),
                                                   engine.count("sqldb.execute")),
        "sqldb.plan_us": _ratio(engine.total("sqldb.plan"), engine.count("sqldb.plan")) * us,
        "sqldb.lock_wait_ms": _ratio(engine.total("sqldb.lock"), top_level) * ms,
        "sqldb.exec_self_ms": _ratio(engine.self_total("sqldb.execute"),
                                     engine.count("sqldb.execute")) * ms,
        "sqldb.agg_input_rows": _ratio(counts["sqldb.agg_input_rows"],
                                       engine.count("sqldb.aggregate")),
        "storage.commit_us": _ratio(engine.total("storage.commit"),
                                    engine.count("storage.commit")) * us,
        "storage.syncs_per_commit": _ratio(engine.count("storage.sync"),
                                           engine.count("storage.commit")),
        "storage.wal_bytes_per_row": wal_bytes_per_row,
        "core.udf_us": _ratio(engine.self_total("core.udf.fmu_simulate"),
                              engine.count("core.udf.fmu_simulate")) * us,
        "core.input_query_ms": engine.total("core.input_query") * ms * per_pass,
        "core.runtime_model_ms": engine.total("core.runtime_model") * ms * per_pass,
        "core.mi_hit_ratio": _ratio(counts["core.mi_hits"], counts["core.parest_instances"]),
        "fmi.simulate_self_ms": engine.self_total("fmi.simulate", "fmi.simulate_batch")
        * ms * per_pass,
        "fmi.batch_rows": _ratio(counts["fmi.batch_rows"], engine.count("fmi.simulate_batch")),
        "solvers.rk4.step_us": _ratio(engine.total("solvers.rk4"),
                                      counts["solvers.rk4.row_steps"]) * us,
        "solvers.rk4.batch_row_step_us": _ratio(engine.total("solvers.rk4_batch"),
                                                counts["solvers.rk4_batch.row_steps"]) * us,
        "solvers.rk45.step_us": _ratio(engine.total("solvers.rk45"),
                                       counts["solvers.rk45.row_steps"]) * us,
        "solvers.rk45.batch_row_step_us": _ratio(engine.total("solvers.rk45_batch"),
                                                 counts["solvers.rk45_batch.row_steps"]) * us,
        "solvers.steps": counts["solvers.steps"] * per_pass,
        "solvers.rejected": counts["solvers.rejected"] * per_pass,
        "solvers.rhs_evals": counts["solvers.rhs_evals"] * per_pass,
        "solvers.retries": counts["solvers.retries"] * per_pass,
        "estimation.evaluations": counts["estimation.evaluations"] * per_pass,
        "estimation.cache_hit_ratio": _ratio(counts["estimation.cache_hits"],
                                             counts["estimation.evaluations"]),
        "estimation.ga_s": counts["estimation.ga_us"] * 1e-6 * per_pass,
        "estimation.local_s": counts["estimation.local_us"] * 1e-6 * per_pass,
        "estimation.solver_invocations": engine.under("estimation.estimate", solver_names)
        * per_pass,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = layer_self.get(layer, 0) * ms * per_pass
    return metrics
