"""The in-process workloads: ``si_workflow`` (Table 8) and ``mi_fleet`` (Fig. 7).

Both drive pgFMU only through SQL on one ``repro.connect()`` connection and
repeat passes until the timed window is over.  Every pass creates fresh,
uncalibrated instances, so passes do identical work for a given seed.

``setup_s`` is timed on fresh processes: ``python3 perfbench/workflows.py
--setup <workload> --seed N --work DIR`` imports ``repro``, builds the
inputs, connects, loads the data, writes the FMU archives, runs
``fmu_create`` and exits.  The run itself sets up once more, untimed.

Both ``setup_s`` and ``pass_s`` are full-speed seconds: wall times scaled
by the share of full host speed that a ``speed.SpeedSampler`` measured in
the same process while they ran (see ``speed.py``).  The statement figures
of the report line are plain wall times.
"""

from __future__ import annotations

import argparse
import math
import os
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from common import ROOT, SETUPS, Clock, median, use_checkout_sources
from speed import SpeedSampler

#: The Table 8 models, in the order a pass runs them.
SI_MODELS = ("HP0", "HP1", "Classroom")
HOURS = 168
TRAINING_FRACTION = 0.75
#: Calibration must close at least this share of the gap between the
#: uncalibrated model's full-window RMSE on its observed series and the RMSE
#: the generator's true parameters achieve on the same noisy data.
#: Parameter recovery itself is reported, not checked: at the scenarios'
#: default budget (GA 16x10, 40 local iterations) HP0's Cp is not
#: identifiable from its constant-rating data (seed 13: Cp 0.26 for a true
#: 1.53 at an equally good fit), and the GA sometimes settles Classroom in a
#: local optimum (seed 12: shgc 8.5 for a true 3.2, 94 % of the gap closed).
FIT_GAP_SHARE = 0.9
MI_INSTANCES = 32
MI_MODEL = "HP1"


class Statements:
    """Runs SQL on one cursor, timing each statement by kind.

    A statement that raises counts as failed and enters the latency samples
    as ``inf`` (it misses every limit); the pass goes on.
    """

    def __init__(self, connection):
        self.cursor = connection.cursor()
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.times: Dict[str, List[float]] = defaultdict(list)

    def run(self, kind: str, sql: str, params: Optional[list] = None) -> Optional[list]:
        from repro.errors import ReproError

        self.attempted += 1
        started = time.perf_counter()
        try:
            rows = self.cursor.execute(sql, params).fetchall()
        except ReproError as exc:
            self.times[kind].append(math.inf)
            self.failed += 1
            self.errors.append(f"{kind} failed: {type(exc).__name__}: {exc}")
            return None
        self.times[kind].append(time.perf_counter() - started)
        return rows

    def take_times(self) -> Dict[str, List[float]]:
        times, self.times = self.times, defaultdict(list)
        return times


def _array(values) -> str:
    return "{" + ", ".join(str(v) for v in values) + "}"


def _errors_of(literal: Any) -> List[float]:
    text = str(literal).strip()
    if not (text.startswith("{") and text.endswith("}")):
        return []
    return [float(v) for v in text[1:-1].split(",") if v.strip()]


def _connect(storage: Path):
    """A connection with the scenarios' default calibration settings.

    The GA seed is part of those settings; the benchmark's seed drives the
    data, so one seed fixes every input.
    """
    import repro
    from repro.workflows.scenarios import ScenarioSettings

    settings = ScenarioSettings()
    return repro.connect(
        storage_dir=str(storage),
        register_ml=False,
        ga_options=settings.ga_options,
        local_options=settings.local_options,
        seed=settings.seed,
    )


def _reported_variables(spec) -> List[str]:
    """The variables ``fmu_simulate`` reports for a model: states, then outputs."""
    names = list(spec.observed)
    return names + [n for n in spec.outputs if n not in names]


def _drop_instances(sql: "Statements", ids: List[str]) -> None:
    """Delete a pass's instances, untimed, so every pass starts from the same
    catalogue (its lookups slow down as instances accumulate)."""
    for iid in ids:
        sql.cursor.execute("SELECT fmu_delete_instance($1)", [iid])


def time_setups(name: str, seed: int, work: Path) -> List[Dict[str, float]]:
    """``SETUPS`` fresh set-up processes: wall time spawn to exit, and that
    time in full-speed seconds (the share is measured in the process)."""
    times = []
    for attempt in range(SETUPS):
        directory = work / f"setup{attempt}"
        directory.mkdir()
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup", name,
             "--seed", str(seed), "--work", str(directory)],
            cwd=str(ROOT), capture_output=True, text=True, timeout=120,
        )
        wall = time.perf_counter() - started
        reply = proc.stdout.split()
        if proc.returncode != 0 or len(reply) != 3 or reply[0] != "ready":
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-2000:]}")
        share, spent = float(reply[1]), float(reply[2])
        times.append({"wall": wall, "full_speed": (wall - spent) * share, "share": share})
    return times


def run_passes(do_pass: Callable[[int], Dict[str, Any]], clock: Clock, first: int = 0,
               minimum: int = 3) -> List[Dict[str, Any]]:
    """Passes until the clock's window is over (at least ``minimum``)."""
    passes = []
    clock.start()
    while len(passes) < minimum or not clock.expired():
        passes.append(do_pass(first + len(passes)))
    return passes


# --------------------------------------------------------------------------- #
# si_workflow
# --------------------------------------------------------------------------- #
def si_setup(seed: int, work: Path) -> Dict[str, Any]:
    """Inputs and a ready connection for the SI workflow."""
    from repro.data.generators import generate_dataset_for
    from repro.data.loaders import load_dataset
    from repro.models.registry import get_model_spec

    specs = {m: get_model_spec(m) for m in SI_MODELS}
    datasets = {m: generate_dataset_for(m, hours=HOURS, seed=seed) for m in SI_MODELS}
    conn = _connect(work / "fmus")
    paths = {}
    for m in SI_MODELS:
        load_dataset(conn.database, datasets[m], table_name=f"meas_{m.lower()}")
        paths[m] = str(work / f"{m}.fmu")
        specs[m].builder().write(paths[m])
        conn.execute("SELECT fmu_create($1, $2)", [paths[m], f"{m}_ref"])
    return {"conn": conn, "paths": paths, "specs": specs, "datasets": datasets}


def si_workflow(seed: int, work: Path, sampler: SpeedSampler) -> Dict[str, Any]:
    """The SI workflow's connection and one-pass function."""
    state = si_setup(seed, work)
    specs, datasets = state["specs"], state["datasets"]
    sql = Statements(state["conn"])
    checks: List[str] = []
    # Untimed reference fits: the uncalibrated model and the true parameters.
    reference = {}
    for m in SI_MODELS:
        cursor = state["conn"].cursor()
        cursor.execute(f"SELECT fmu_copy('{m}_ref', '{m}_true')")
        for name, value in specs[m].true_parameters.items():
            cursor.execute(f"SELECT fmu_set_initial('{m}_true', '{name}', {value!r})")
        reference[m] = {
            which: _rmse(
                cursor.execute(
                    f"SELECT * FROM fmu_simulate('{iid}', 'SELECT * FROM meas_{m.lower()}')"
                ).fetchall(),
                specs[m].observed[0], datasets[m],
            )
            for which, iid in (("nominal", f"{m}_ref"), ("true", f"{m}_true"))
        }
    recovery: Dict[str, float] = {}

    def do_pass(index: int) -> Dict[str, Any]:
        outputs = {}
        window = sampler.window()
        for m in SI_MODELS:
            table, iid = f"meas_{m.lower()}", f"{m}_{index}"
            created = sql.run("create", "SELECT fmu_create($1, $2)", [state["paths"][m], iid])
            bounds = sql.run("bounds", f"SELECT min(time), max(time), count(*) FROM {table}")
            if not bounds:
                outputs[m] = None
                continue
            t0, t1, _ = bounds[0]
            split = t0 + TRAINING_FRACTION * (t1 - t0)
            pars = _array(specs[m].estimated_parameters)
            parest = sql.run(
                "parest",
                f"SELECT fmu_parest('{{{iid}}}', "
                f"'{{SELECT * FROM {table} WHERE time <= {split!r}}}', '{pars}')",
            )
            validate = sql.run(
                "simulate",
                f"SELECT * FROM fmu_simulate('{iid}', 'SELECT * FROM {table} WHERE time >= {split!r}')",
            )
            full = sql.run("simulate", f"SELECT * FROM fmu_simulate('{iid}', 'SELECT * FROM {table}')")
            analysis = sql.run(
                "analysis",
                "SELECT varname, count(*), avg(value), min(value), max(value) "
                f"FROM fmu_simulate('{iid}', 'SELECT * FROM {table}') GROUP BY varname",
            )
            outputs[m] = (iid, created, bounds, split, parest, validate, full, analysis)
        window.close()
        errors = _check_si_pass(outputs, specs, datasets, reference, recovery, sql, checks)
        _drop_instances(sql, [f"{m}_{index}" for m in SI_MODELS])
        return {"wall": window.wall, "full_speed": window.normalized,
                "share": window.share, "times": sql.take_times(), "calib": errors}

    details = {"reference_rmse": reference, "max_parameter_error": recovery}
    return {"do_pass": do_pass, "sql": sql, "checks": checks, "conn": state["conn"],
            "details": details}


def _rmse(rows: Optional[list], observed: str, dataset) -> float:
    """RMSE of ``fmu_simulate`` rows against the measured ``observed`` series."""
    measured = dict(zip(dataset.time.tolist(), dataset.series[observed].tolist()))
    residuals = [r[3] - measured[r[0]] for r in rows or () if r[2] == observed and r[0] in measured]
    if not residuals:
        return math.nan
    return math.sqrt(sum(e * e for e in residuals) / len(residuals))


def _check_si_pass(outputs, specs, datasets, reference, recovery, sql: Statements,
                   checks: List[str]) -> List[float]:
    """Check one pass's outputs; return its calibration errors."""
    errors = []
    for m, output in outputs.items():
        if output is None:
            checks.append(f"{m}: bounds query failed")
            continue
        iid, created, bounds, split, parest, validate, full, analysis = output
        grid = datasets[m].time
        names = _reported_variables(specs[m])
        if created != [[iid]]:
            checks.append(f"{m}: fmu_create returned {created!r}")
        if bounds[0][2] != len(grid) or bounds[0][0] != grid[0] or bounds[0][1] != grid[-1]:
            checks.append(f"{m}: bounds {bounds[0]!r} do not match the loaded data")
        values = _errors_of(parest[0][0]) if parest else []
        if len(values) != 1 or not math.isfinite(values[0]):
            checks.append(f"{m}: fmu_parest returned {parest!r}")
        else:
            errors.append(values[0])
        n_validate = int((grid >= split).sum())
        for label, rows, n in (("validation", validate, n_validate), ("full", full, len(grid))):
            if rows is None or len(rows) != n * len(names) or len(
                {(r[0], r[2]) for r in rows}
            ) != len(rows):
                checks.append(f"{m}: {label} fmu_simulate gave {None if rows is None else len(rows)}"
                              f" rows, expected {n} x {len(names)}")
        if analysis is None or sorted(r[0] for r in analysis) != sorted(names) or any(
            r[1] != len(grid) for r in analysis
        ):
            checks.append(f"{m}: GROUP BY over fmu_simulate gave {analysis!r}")
        fit = _rmse(full, specs[m].observed[0], datasets[m])
        ref = reference[m]
        limit = ref["true"] + (1.0 - FIT_GAP_SHARE) * (ref["nominal"] - ref["true"])
        if not fit <= limit:
            checks.append(f"{m}: calibrated RMSE {fit:.4g} closes less than "
                          f"{FIT_GAP_SHARE:.0%} of the gap from {ref['nominal']:.4g} "
                          f"(uncalibrated) to {ref['true']:.4g} (true parameters)")
        # Untimed: the estimates written back to the catalogue.
        estimates = {
            row[0]: row[1]
            for row in sql.cursor.execute(
                f"SELECT varname, initialvalue FROM fmu_variables('{iid}')"
            ).fetchall()
        }
        missing = [n for n in specs[m].estimated_parameters if estimates.get(n) is None]
        if missing:
            checks.append(f"{m}: no estimate for {missing}")
            continue
        truth = specs[m].true_parameters
        recovery[m] = max(
            abs(float(estimates[n]) - truth[n]) / abs(truth[n])
            for n in specs[m].estimated_parameters
        )
    return errors


# --------------------------------------------------------------------------- #
# mi_fleet
# --------------------------------------------------------------------------- #
def mi_setup(seed: int, work: Path) -> Dict[str, Any]:
    """Inputs and a ready connection for the MI fleet workflow."""
    from repro.data.generators import generate_dataset_for
    from repro.data.loaders import load_dataset
    from repro.data.synthetic import synthetic_family
    from repro.models.registry import get_model_spec

    spec = get_model_spec(MI_MODEL)
    base = generate_dataset_for(MI_MODEL, hours=HOURS, seed=seed)
    family = synthetic_family(base, MI_INSTANCES, seed=seed + 1)
    conn = _connect(work / "fmus")
    for i, member in enumerate(family):
        load_dataset(conn.database, member, table_name=f"meas_{i + 1}")
    path = str(work / f"{MI_MODEL}.fmu")
    spec.builder().write(path)
    conn.execute("SELECT fmu_create($1, $2)", [path, f"{MI_MODEL}_ref"])
    return {"conn": conn, "path": path, "spec": spec, "grid": base.time}


def mi_fleet(seed: int, work: Path, sampler: SpeedSampler) -> Dict[str, Any]:
    """The MI fleet workflow's connection and one-pass function."""
    from repro.core.parest import ParameterEstimator

    state = mi_setup(seed, work)
    spec, grid = state["spec"], state["grid"]
    names = _reported_variables(spec)
    sql = Statements(state["conn"])
    checks: List[str] = []
    queries = _array(f"SELECT * FROM meas_{i + 1}" for i in range(MI_INSTANCES))
    pars = _array(spec.estimated_parameters)

    # SQL returns only the errors; whether the MI optimization warm-started
    # an instance is read from the estimator's outcomes (one call per pass).
    outcomes: List[Any] = []
    original_estimate = ParameterEstimator.estimate

    def capturing_estimate(self, *args, **kwargs):
        result = original_estimate(self, *args, **kwargs)
        outcomes.append(result)
        return result

    ParameterEstimator.estimate = capturing_estimate

    def do_pass(index: int) -> Dict[str, Any]:
        ids = [f"{MI_MODEL}_{index}_{i + 1}" for i in range(MI_INSTANCES)]
        outcomes.clear()
        window = sampler.window()
        created = [sql.run("create", "SELECT fmu_create($1, $2)", [state["path"], ids[0]])]
        for iid in ids[1:]:
            created.append(sql.run("create", "SELECT fmu_copy($1, $2)", [ids[0], iid]))
        parest = sql.run("parest", f"SELECT fmu_parest('{_array(ids)}', '{queries}', '{pars}')")
        fleet = sql.run(
            "analysis",
            "SELECT instanceid, varname, count(*), avg(value) "
            f"FROM fmu_simulate('{_array(ids)}', 'SELECT * FROM meas_1') "
            "GROUP BY instanceid, varname",
        )
        window.close()
        errors = _errors_of(parest[0][0]) if parest else []
        hits = sum(1 for o in (outcomes[-1] if outcomes else []) if o.used_mi_optimization)
        if created != [[[iid]] for iid in ids]:
            checks.append(f"pass {index}: fmu_create/fmu_copy did not return the new ids")
        if len(errors) != MI_INSTANCES or not all(math.isfinite(e) for e in errors):
            checks.append(f"pass {index}: fmu_parest returned {len(errors)} errors, "
                          f"expected {MI_INSTANCES} finite ones")
        if not hits:
            checks.append(f"pass {index}: the MI optimization warm-started no instance")
        expected = {(iid, name) for iid in ids for name in names}
        if fleet is None or {(r[0], r[1]) for r in fleet} != expected or len(fleet) != len(
            expected
        ) or any(r[2] != len(grid) for r in fleet):
            checks.append(f"pass {index}: fleet GROUP BY gave "
                          f"{None if fleet is None else len(fleet)} groups, expected "
                          f"{MI_INSTANCES} x {len(names)} of {len(grid)} rows")
        _drop_instances(sql, ids)
        return {"wall": window.wall, "full_speed": window.normalized,
                "share": window.share, "times": sql.take_times(), "calib": errors}

    def restore() -> None:
        ParameterEstimator.estimate = original_estimate

    return {"do_pass": do_pass, "sql": sql, "checks": checks, "conn": state["conn"],
            "restore": restore}


# --------------------------------------------------------------------------- #
# Shared runner for both in-process workloads
# --------------------------------------------------------------------------- #
def summarize(passes: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Per-pass medians of the workflow's end-to-end figures."""

    def per_pass(kinds):
        if not any(k in p["times"] for p in passes for k in kinds):
            return None  # the workload issues no such statement
        return median([sum(sum(p["times"].get(k, ())) for k in kinds) for p in passes])

    calib = [sum(p["calib"]) / len(p["calib"]) for p in passes if p["calib"]]
    return {
        "pass_s": median([p["full_speed"] for p in passes]),
        "speed_share": median([p["share"] for p in passes]),
        "workflow_s": median([p["wall"] for p in passes]),
        "parest_s": per_pass(["parest"]),
        "simulate_s": per_pass(["simulate"]),
        "analysis_s": per_pass(["analysis"]),
        "calib_rmse": median(calib) if calib else math.nan,
        "passes": len(passes),
    }


def run_workflow(name: str, seed: int, seconds: float, trace: bool, work: Path) -> Dict[str, Any]:
    """Set up, run passes for ``seconds``, and gather metrics and checks.

    A traced run spends its first half untraced and its second half with
    the span wrappers installed; the per-layer metrics come from the second
    half and the overhead compares the halves' median wall times per pass.
    The speed sampler runs only in untraced runs.
    """
    import spans

    setup_times = time_setups(name, seed, work)
    sampler = SpeedSampler()
    workload = {"si_workflow": si_workflow, "mi_fleet": mi_fleet}[name](seed, work, sampler)
    try:
        clock = Clock(seconds / 2 if trace else seconds)
        if trace:
            passes = run_passes(workload["do_pass"], clock)
        else:
            with sampler:
                passes = run_passes(workload["do_pass"], clock)
        result: Dict[str, Any] = {"summary": summarize(passes)}
        if trace:
            tracer = spans.Tracer()
            spans.install_engine(tracer)
            spans.wrap_udfs(tracer, workload["conn"].database)
            try:
                traced = run_passes(workload["do_pass"], clock, first=len(passes))
            finally:
                tracer.uninstall()
            result["traced_summary"] = summarize(traced)
            layers = spans.layer_metrics(tracer, passes=len(traced))
            layers["trace.overhead_pct"] = 100.0 * (
                result["traced_summary"]["workflow_s"] / result["summary"]["workflow_s"] - 1.0
            )
            result["layers"] = layers
            result["spans"] = {"benchmark": tracer.spans}
            passes = passes + traced
    finally:
        if "restore" in workload:
            workload["restore"]()
        workload["conn"].close()
    sql = workload["sql"]
    summary = result["summary"]
    n = summary["passes"]
    setup_s = median([t["full_speed"] for t in setup_times])
    result.update(
        setup_s=setup_s,
        setup_times=setup_times,
        attempted=sql.attempted,
        failed=sql.failed,
        checks=workload["checks"] + sql.errors,
        end_to_end={"pass_s": summary["pass_s"]},
        report={
            "setup_s": (setup_s, len(setup_times)),
            "setup_wall_s": (median([t["wall"] for t in setup_times]), len(setup_times)),
            "pass_s": (summary["pass_s"], n),
            "speed_share": (summary["speed_share"], n),
            "workflow_s": (summary["workflow_s"], n),
            **{
                figure: (summary[figure], n)
                for figure in ("parest_s", "simulate_s", "analysis_s", "calib_rmse")
                if summary[figure] is not None
            },
            "failed_ratio": (sql.failed / sql.attempted if sql.attempted else 0.0, sql.attempted),
            "pass_times_s": [p["wall"] for p in passes],
            "pass_full_speed_s": [p["full_speed"] for p in passes],
            "traced_summary": result.get("traced_summary"),
            **workload.get("details", {}),
        },
    )
    return result


def _setup_main() -> None:
    """Entry point of one timed set-up process."""
    parser = argparse.ArgumentParser(description="one fresh set-up of a workload")
    parser.add_argument("--setup", required=True, choices=("si_workflow", "mi_fleet"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args()
    sampler = SpeedSampler().start()
    use_checkout_sources()
    {"si_workflow": si_setup, "mi_fleet": mi_setup}[args.setup](args.seed, Path(args.work))
    sampler.stop()
    sys.stdout.write(f"ready {sampler.full_speed_share()!r} {sampler.spent!r}\n")
    sys.stdout.flush()
    os._exit(0)  # the state is discarded; skip interpreter teardown


if __name__ == "__main__":
    _setup_main()
