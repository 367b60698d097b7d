"""Shared fixtures: small models, datasets, sessions and the random-model
factory behind the equivalence corpora, all sized for fast tests."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import Session
from repro.data.loaders import load_dataset
from repro.data.nist import generate_hp1_dataset
from repro.fmi import load_fmu
from repro.fmi.dynamics import OdeSystem, OutputEquation, StateEquation
from repro.fmi.model import FmuModel
from repro.models.heatpump import build_hp1_archive, hp1_source
from repro.sqldb import Database

#: Calibration budget small enough for unit tests (a run takes well under a second).
FAST_GA_OPTIONS = {"population_size": 8, "generations": 4, "patience": 3}
FAST_LOCAL_OPTIONS = {"max_iterations": 15}


# --------------------------------------------------------------------------- #
# Random-model factory (shared by the kernel, batch and estimation corpora)
# --------------------------------------------------------------------------- #
def _leaf(rng: random.Random, names) -> str:
    if rng.random() < 0.55 and names:
        return rng.choice(names)
    if rng.random() < 0.15:
        return rng.choice(["pi", "e"])
    return f"{rng.uniform(-2.0, 2.0):.4f}"


def _expr(rng: random.Random, names, depth: int) -> str:
    """A random, numerically tame expression over the given names.

    Divisors are bounded away from zero and growth is damped with tanh so
    random systems never diverge over the simulated window.
    """
    if depth <= 0:
        return _leaf(rng, names)
    a = _expr(rng, names, depth - 1)
    b = _expr(rng, names, depth - 1)
    form = rng.randrange(14)
    if form == 0:
        return f"({a} + {b})"
    if form == 1:
        return f"({a} - {b})"
    if form == 2:
        return f"(0.5 * {a} * tanh({b}))"
    if form == 3:
        return f"({a} / (1.5 + abs({b})))"
    if form == 4:
        fn = rng.choice(["sin", "cos", "tanh"])
        return f"{fn}({a})"
    if form == 5:
        fn = rng.choice(["sqrt", "log", "log10"])
        return f"{fn}(1.0 + abs({a}))"
    if form == 6:
        return f"exp(-abs({a}))"
    if form == 7:
        return f"min({a}, {b}, 1.5)" if rng.random() < 0.5 else f"max({a}, {b})"
    if form == 8:
        return f"({a} if {b} > 0.1 else -0.5 * {b})"
    if form == 9:
        return f"(1.0 if {a} > 0 and {b} < 1 else 0.25)"
    if form == 10:
        return f"(0.5 if -1 < {a} < 1 else sign({a}))"
    if form == 11:
        fn = rng.choice(["floor", "ceil"])
        return f"(0.1 * {fn}({a}))"
    if form == 12:
        return f"({a} % 3.7)"
    return f"(-{a}) ** 2 % 2.5"


def make_random_system(seed: int) -> OdeSystem:
    """A random ODE system exercising every whitelisted construct."""
    rng = random.Random(seed)
    n_states = rng.randint(1, 3)
    n_inputs = rng.randint(0, 2)
    n_params = rng.randint(1, 3)
    n_outputs = rng.randint(1, 3)
    state_names = [f"x{i}" for i in range(n_states)]
    input_names = [f"u{i}" for i in range(n_inputs)]
    param_names = [f"p{i}" for i in range(n_params)]
    names = state_names + input_names + param_names + ["time"]
    states = [
        StateEquation(
            name=name,
            # Bounded drive plus linear damping keeps every trajectory finite.
            derivative=f"tanh({_expr(rng, names, 3)}) - 0.3 * {name}",
            start=rng.uniform(-1.0, 1.0),
        )
        for name in state_names
    ]
    outputs = [
        OutputEquation(name=f"y{i}", expression=_expr(rng, names, 3))
        for i in range(n_outputs)
    ]
    return OdeSystem(
        states=states,
        outputs=outputs,
        inputs=input_names,
        parameters={name: rng.uniform(0.5, 2.0) for name in param_names},
    )


def make_random_archive(name: str, system: OdeSystem):
    """Wrap a raw OdeSystem into a loadable FMU archive."""
    from repro.fmi.archive import FmuArchive
    from repro.fmi.model_description import DefaultExperiment, ModelDescription
    from repro.fmi.variables import ScalarVariable

    description = ModelDescription(
        model_name=name,
        default_experiment=DefaultExperiment(
            start_time=0.0, stop_time=2.0, step_size=0.05
        ),
    )
    for state in system.states:
        description.add_variable(
            ScalarVariable(name=state.name, causality="local", start=state.start)
        )
    for output in system.outputs:
        description.add_variable(ScalarVariable(name=output.name, causality="output"))
    for input_name in system.inputs:
        description.add_variable(
            ScalarVariable(name=input_name, causality="input", start=0.0)
        )
    for param, value in system.parameters.items():
        description.add_variable(
            ScalarVariable(name=param, causality="parameter", start=value)
        )
    return FmuArchive(model_description=description, ode_system=system)


def make_random_fleet(system: OdeSystem, archive, n_rows: int, seed: int):
    """N instances of one archive with randomized parameters and starts."""
    rng = random.Random(seed)
    models = []
    for i in range(n_rows):
        model = FmuModel(archive, instance_name=f"row{i}")
        for name in system.parameters:
            model.set(name, rng.uniform(0.5, 2.0))
        for name in system.state_names:
            model.set(name, rng.uniform(-1.0, 1.0))
        models.append(model)
    return models


def make_corpus_inputs(system: OdeSystem):
    """Deterministic measured input series covering the corpus window."""
    return {
        name: (np.linspace(0.0, 2.0, 21), np.sin(np.linspace(0.0, 6.0, 21) + i))
        for i, name in enumerate(system.inputs)
    } or None


@pytest.fixture(scope="session")
def random_system():
    """Factory fixture: ``random_system(seed) -> OdeSystem``."""
    return make_random_system


@pytest.fixture(scope="session")
def random_archive():
    """Factory fixture: ``random_archive(name, system) -> FmuArchive``."""
    return make_random_archive


@pytest.fixture(scope="session")
def random_fleet():
    """Factory fixture: ``random_fleet(system, archive, n_rows, seed) -> [FmuModel]``."""
    return make_random_fleet


@pytest.fixture(scope="session")
def corpus_inputs():
    """Factory fixture: ``corpus_inputs(system) -> input series dict (or None)``."""
    return make_corpus_inputs


@pytest.fixture(scope="session")
def hp1_archive():
    """The HP1 FMU archive with nominal parameter values."""
    return build_hp1_archive()


@pytest.fixture()
def hp1_model(hp1_archive):
    """A fresh HP1 runtime model."""
    return load_fmu(hp1_archive)


@pytest.fixture(scope="session")
def hp1_dataset():
    """A two-day HP1 measurement dataset (49 hourly rows)."""
    return generate_hp1_dataset(hours=48, seed=3)


@pytest.fixture(scope="session")
def hp1_week_dataset():
    """A four-day HP1 measurement dataset used by calibration tests."""
    return generate_hp1_dataset(hours=96, seed=4)


@pytest.fixture()
def database():
    """An empty SQL database."""
    return Database()


@pytest.fixture()
def measurements_db(hp1_dataset):
    """A database with the HP1 dataset loaded as ``measurements``."""
    db = Database()
    load_dataset(db, hp1_dataset, table_name="measurements")
    return db


@pytest.fixture()
def session(tmp_path):
    """A pgFMU session with a fast calibration budget."""
    return Session(
        storage_dir=str(tmp_path / "fmu_storage"),
        ga_options=dict(FAST_GA_OPTIONS),
        local_options=dict(FAST_LOCAL_OPTIONS),
        seed=2,
    )


@pytest.fixture()
def session_with_data(session, hp1_week_dataset, tmp_path):
    """A session with HP1 measurements loaded and an HP1Instance1 created."""
    load_dataset(session.database, hp1_week_dataset, table_name="measurements")
    mo_path = tmp_path / "hp1.mo"
    mo_path.write_text(hp1_source())
    session.create(str(mo_path), "HP1Instance1")
    return session


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(123)
