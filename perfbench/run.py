"""pgFMU benchmark: one command for every workload, end to end and per layer.

Usage (from the root of a repo checkout)::

    python3 perfbench/run.py --workload si_workflow --seed 1 --seconds 30 --trace 0

Workloads: ``si_workflow`` (Table 8 calibrate-then-simulate on HP0, HP1 and
Classroom), ``mi_fleet`` (Fig. 7 pgFMU+ with 32 HP1 instances) and
``served_mix`` (two closed-loop TCP clients against a durable server in its
own process).  See ``perfbench/README.md`` for what each stresses.

The second-to-last line of standard output is a JSON report: the stamp
(commit, versions, nproc, seed, fsync policy, the speed reference of
``speed.py``), every end-to-end figure the
workload has with its sample counts, and the failed output checks.  The last
line is the result: ``correct``, ``attempted``, ``failed`` and ``metrics``,
the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0`` or its
per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from common import ROOT, stamp, use_checkout_sources, work_dir
from speed import INTERVAL_S, REFERENCE_S

WORKLOADS = ("si_workflow", "mi_fleet", "served_mix")

#: Every end-to-end figure a workload may report, with its unit.  Only the
#: ones all workloads share are gated metrics in ``BENCHMARK.json``; the
#: rest are printed in the report line with their sample counts.
FIGURES = {
    "setup_s": "s",
    "workflow_s": "s",
    "parest_s": "s",
    "simulate_s": "s",
    "analysis_s": "s",
    "calib_rmse": "1",
    "stmt_per_s": "1/s",
    "point_p50_ms": "ms",
    "point_p95_ms": "ms",
    "insert_p50_ms": "ms",
    "insert_p95_ms": "ms",
    "range_p50_ms": "ms",
    "simulate_p50_ms": "ms",
    "adhoc_p50_ms": "ms",
    "failed_ratio": "1",
}


def _declared_metrics(trace: bool) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_checkout_sources()
    trace = bool(args.trace)
    declared = _declared_metrics(trace)

    with work_dir() as work:
        if args.workload == "served_mix":
            from served import run_served

            result = run_served(args.seed, args.seconds, trace, work)
        else:
            from workflows import run_workflow

            result = run_workflow(args.workload, args.seed, args.seconds, trace, work)

    if trace:
        values = result["layers"]
        # The raw spans ([name, start ns, end ns, parent index, request id]
        # per process) outlive the run for inspection.
        out = ROOT / "perfbench" / ".work" / f"spans-{args.workload}-{args.seed}.json"
        out.write_text(json.dumps(result["spans"]))
    else:
        values = {"setup_s": result["setup_s"], **result["end_to_end"]}
    checks = list(result["checks"])
    for name in declared:
        value = values.get(name)
        if value is None or not math.isfinite(value):
            checks.append(f"metric {name} is not a finite number: {value!r}")

    figures = result["report"]
    report = {
        "workload": args.workload,
        "trace": trace,
        "stamp": stamp(args.seed, {**result.get("stamp", {}), "timing": "full-speed seconds",
                                   "reference_s": REFERENCE_S, "speed_interval_s": INTERVAL_S}),
        "figures": {
            name: {"value": figures[name][0], "unit": unit, "n": figures[name][1]}
            if name in figures else {"value": None, "unit": unit, "n": 0, "note": "n/a"}
            for name, unit in FIGURES.items()
        },
        "details": {k: v for k, v in figures.items() if k not in FIGURES},
        "setup_times_s": result["setup_times"],
        "checks_failed": checks[:20],
    }
    print(json.dumps(_clean(report)))
    final = {
        "correct": not checks,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": values.get(name), "unit": unit} for name, unit in declared.items()
        },
    }
    print(json.dumps(_clean(final)))
    return 0


def _clean(value):
    """JSON-safe copy: non-finite floats become null, numpy scalars plain."""
    if isinstance(value, dict):
        return {str(k): _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    if hasattr(value, "item"):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


if __name__ == "__main__":
    sys.exit(main())
