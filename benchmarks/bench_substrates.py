"""Micro-benchmarks (ablations) for the substrates pgFMU is built on.

These are not tied to a specific table of the paper; they quantify the cost
of the building blocks that DESIGN.md calls out as design choices: the SQL
engine's query processing, the expression-based FMU simulation, the two
calibration stages (global vs local search), and catalogue operations.
"""

from __future__ import annotations

import numpy as np

from repro.core import Session
from repro.data import generate_hp1_dataset, load_dataset
from repro.estimation import Estimation
from repro.fmi import load_fmu
from repro.models import build_hp1_archive, hp1_source
from repro.sqldb import Database


def _populated_database(rows: int = 2000) -> Database:
    db = Database()
    db.execute(
        "CREATE TABLE readings (id integer PRIMARY KEY, sensor text, value double precision)"
    )
    sensors = ["s1", "s2", "s3", "s4"]
    db.insert_rows(
        "readings",
        [[i, sensors[i % 4], float(np.sin(i / 10.0))] for i in range(rows)],
    )
    return db


def test_sql_engine_filtered_aggregate(benchmark):
    db = _populated_database()
    query = (
        "SELECT sensor, count(*), avg(value) FROM readings "
        "WHERE value > 0 GROUP BY sensor ORDER BY sensor"
    )
    result = benchmark(lambda: db.execute(query))
    assert len(result) == 4


def test_sql_engine_point_insert(benchmark):
    db = _populated_database(10)
    counter = {"next": 100000}

    def insert_one():
        counter["next"] += 1
        db.execute("INSERT INTO readings VALUES ($1, 's1', 0.5)", [counter["next"]])

    benchmark(insert_one)


def test_fmu_simulation_one_week(benchmark):
    model = load_fmu(build_hp1_archive())
    t = np.arange(0.0, 168.0, 1.0)
    u = 0.4 + 0.3 * np.sin(t / 12.0)

    result = benchmark(
        lambda: model.simulate(inputs={"u": (t, np.clip(u, 0, 1))}, output_times=t)
    )
    assert len(result) == len(t)


def test_global_search_cost_dominates_local(benchmark):
    """The G-vs-LO cost asymmetry that the MI optimization exploits."""
    dataset = generate_hp1_dataset(hours=72, seed=8)
    measurement_set = dataset.to_measurement_set()

    def run_both():
        full = Estimation(
            load_fmu(build_hp1_archive()),
            measurement_set,
            parameters=["Cp", "R"],
            ga_options={"population_size": 12, "generations": 8},
            seed=4,
        ).estimate("global+local")
        warm = Estimation(
            load_fmu(build_hp1_archive()),
            measurement_set,
            parameters=["Cp", "R"],
            seed=4,
        ).estimate("local", initial_values=full.parameters)
        return full, warm

    full, warm = benchmark.pedantic(run_both, rounds=1, iterations=1)
    assert full.n_evaluations > 3 * warm.n_evaluations


def test_fmu_create_catalogue_cost(benchmark):
    """Cost of registering a model instance in the catalogue (fmu_create)."""
    session = Session(register_ml=False)
    dataset = generate_hp1_dataset(hours=24, seed=9)
    load_dataset(session.database, dataset, table_name="measurements")
    counter = {"next": 0}

    def create_instance():
        counter["next"] += 1
        return session.create(hp1_source(), f"Bench{counter['next']}")

    instance = benchmark(create_instance)
    assert instance.startswith("Bench")
