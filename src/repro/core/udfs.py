"""The ``pgfmu`` extension: every ``fmu_*`` function packaged for install.

The public API has three layers (see :mod:`repro.core.session`); this module
is the **extension layer** for the pgFMU core.  Each UDF is declared with
the :func:`~repro.sqldb.udf.scalar_udf` / :func:`~repro.sqldb.udf.table_udf`
decorators and bundled into an :class:`~repro.sqldb.udf.Extension` by
:func:`pgfmu_extension`, which sessions install via
``database.install_extension(...)`` - the same way PostgreSQL installs pgFMU
itself (and the way the MADlib-style pack in :mod:`repro.ml.udfs` installs).

Every function from Section 5-7 of the paper is exposed so the paper's SQL
queries run verbatim against the engine:

Scalar UDFs
    ``fmu_create``, ``fmu_copy``, ``fmu_delete_instance``, ``fmu_delete_model``,
    ``fmu_set_initial``, ``fmu_set_minimum``, ``fmu_set_maximum``, ``fmu_reset``,
    ``fmu_parest`` (returns the estimation errors as an array literal) and
    ``fmu_calibrate`` (a composition-friendly variant returning the instance
    id, used to express the paper's single-query workflow).

Set-returning UDFs
    ``fmu_variables``, ``fmu_get``, ``fmu_simulate``, ``fmu_models``,
    ``fmu_instances``, and ``fmu_extensions`` (installed extensions; an
    fmu-namespace alias of the engine's built-in ``installed_extensions()``).

``fmu_simulate`` additionally accepts an **array literal of instance ids**
(``SELECT * FROM fmu_simulate('{A, B, C}', ...)``): the batch overload runs
the measurement query through the executor once and reuses the bound input
series for every instance instead of re-running it N times.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.errors import PgFmuError, SqlTypeError
from repro.sqldb.arrays import format_array_literal, parse_array_literal
from repro.sqldb.types import SqlType, coerce
from repro.sqldb.udf import Extension, register_extension_factory, scalar_udf, table_udf
from repro.core.parest import DEFAULT_SIMILARITY_THRESHOLD

#: Version reported by ``fmu_extensions()`` for the pgFMU core pack.
PGFMU_EXTENSION_VERSION = "1.1"


def parse_boolean_argument(value: Any, name: str) -> Optional[bool]:
    """Coerce a SQL-surface boolean argument (or None) for a pgFMU UDF.

    Delegates to the engine's own boolean coercion so the accepted literal
    spellings cannot diverge from every other boolean in the SQL layer.
    """
    if value is None:
        return None
    try:
        return coerce(value, SqlType.BOOLEAN)
    except SqlTypeError:
        raise PgFmuError(f"invalid boolean {value!r} for {name}") from None


def parse_parest_arguments(instance_ids: Any, input_sqls: Any) -> tuple:
    """Parse and validate the array-literal arguments of ``fmu_parest``.

    One measurement query is broadcast over all instances; otherwise the two
    lists must be the same length.  Mismatches are rejected here, before any
    query executes, with a message that names both lengths *and* the
    broadcast form - the estimator's own length check fires later and cannot
    mention the array-literal syntax.
    """
    ids = parse_array_literal(instance_ids)
    queries = parse_array_literal(input_sqls)
    if len(queries) == 1 and len(ids) > 1:
        queries = queries * len(ids)
    elif len(queries) != len(ids):
        raise PgFmuError(
            f"fmu_parest received {len(ids)} instance id(s) but {len(queries)} "
            f"measurement quer(y/ies); pass one query per instance, or a "
            f"single query to share across all instances"
        )
    return ids, queries


def pgfmu_extension(session) -> Extension:
    """Build the ``pgfmu`` extension bound to a :class:`~repro.core.session.Session`.

    The UDFs close over the session's managers (catalogue, estimator,
    simulator), so installing the returned bundle on the session's database
    wires the paper's whole SQL surface.
    """

    # ------------------------------------------------------------------ #
    # Scalar UDFs
    # ------------------------------------------------------------------ #
    @scalar_udf(min_args=1, max_args=2,
                description="Load or compile an FMU/Modelica model and create an instance")
    def fmu_create(_db, model_ref: str, instance_id: Optional[str] = None) -> str:
        return str(session.create(model_ref, instance_id))

    @scalar_udf(min_args=1, max_args=2,
                description="Copy a model instance (values included)")
    def fmu_copy(_db, instance_id: str, new_instance_id: Optional[str] = None) -> str:
        return str(session.instances.copy(instance_id, new_instance_id))

    @scalar_udf(min_args=1, max_args=1, description="Delete one model instance")
    def fmu_delete_instance(_db, instance_id: str) -> str:
        return session.instances.delete_instance(instance_id)

    @scalar_udf(min_args=1, max_args=1,
                description="Delete a model and all of its instances")
    def fmu_delete_model(_db, model_id: str) -> str:
        return session.instances.delete_model(model_id)

    @scalar_udf(min_args=3, max_args=3,
                description="Set the per-instance initial value of a variable")
    def fmu_set_initial(_db, instance_id: str, var_name: str, value: Any) -> str:
        return session.instances.set_initial(instance_id, var_name, value)

    @scalar_udf(min_args=3, max_args=3,
                description="Set the minimum bound of a model variable")
    def fmu_set_minimum(_db, instance_id: str, var_name: str, value: Any) -> str:
        return session.instances.set_minimum(instance_id, var_name, value)

    @scalar_udf(min_args=3, max_args=3,
                description="Set the maximum bound of a model variable")
    def fmu_set_maximum(_db, instance_id: str, var_name: str, value: Any) -> str:
        return session.instances.set_maximum(instance_id, var_name, value)

    @scalar_udf(min_args=1, max_args=1,
                description="Reset a model instance to its initial values")
    def fmu_reset(_db, instance_id: str) -> str:
        return session.instances.reset(instance_id)

    @scalar_udf(min_args=2, max_args=5,
                description="Estimate model instance parameters from measurements (SI and MI)")
    def fmu_parest(
        _db,
        instance_ids: str,
        input_sqls: str,
        parameters: Optional[str] = None,
        threshold: Optional[float] = None,
        batch_enabled: Any = None,
    ) -> str:
        ids, queries = parse_parest_arguments(instance_ids, input_sqls)
        pars = parse_array_literal(parameters) or None
        outcomes = session.parest(
            ids,
            queries,
            parameters=pars,
            threshold=threshold if threshold is not None else DEFAULT_SIMILARITY_THRESHOLD,
            batch_enabled=parse_boolean_argument(batch_enabled, "fmu_parest batch_enabled"),
        )
        return format_array_literal([round(o.error, 6) for o in outcomes])

    @scalar_udf(min_args=2, max_args=4,
                description="Calibrate one instance and return its id (for nested queries)")
    def fmu_calibrate(
        _db,
        instance_id: str,
        input_sql: str,
        parameters: Optional[str] = None,
        threshold: Optional[float] = None,
    ) -> str:
        """Calibrate one instance and return its id (composition-friendly)."""
        pars = parse_array_literal(parameters) or None
        session.parest(
            [instance_id],
            [input_sql],
            parameters=pars,
            threshold=threshold if threshold is not None else DEFAULT_SIMILARITY_THRESHOLD,
        )
        return instance_id

    # ------------------------------------------------------------------ #
    # Set-returning UDFs
    # ------------------------------------------------------------------ #
    @table_udf(columns=["instanceid", "varname", "vartype", "initialvalue", "minvalue", "maxvalue"],
               min_args=1, max_args=1,
               description="Variables and parameters of a model instance")
    def fmu_variables(_db, instance_id: str) -> List[List[Any]]:
        return [
            [
                row["instanceid"],
                row["varname"],
                row["vartype"],
                row["initialvalue"],
                row["minvalue"],
                row["maxvalue"],
            ]
            for row in session.instances.variables(instance_id)
        ]

    @table_udf(columns=["initialvalue", "minvalue", "maxvalue"], min_args=2, max_args=2,
               description="Initial/min/max values of one variable")
    def fmu_get(_db, instance_id: str, var_name: str) -> List[List[Any]]:
        values = session.instances.get(instance_id, var_name)
        return [[values["initialvalue"], values["minvalue"], values["maxvalue"]]]

    @table_udf(columns=["simulationtime", "instanceid", "varname", "value"],
               min_args=1, max_args=4,
               description="Simulate one instance, or an array literal of instances in one shared pass")
    def fmu_simulate(
        _db,
        instance_id: str,
        input_sql: Optional[str] = None,
        time_from: Optional[float] = None,
        time_to: Optional[float] = None,
    ) -> List[List[Any]]:
        text = str(instance_id)
        stripped = text.strip()
        # Braces mark the batch overload - unless an instance literally has
        # that id, in which case the single-instance path wins (ids are
        # unvalidated strings, so '{house}' is a legal instance name).
        if (
            stripped.startswith("{")
            and stripped.endswith("}")
            and not session.catalog.has_instance(text)
        ):
            ids = parse_array_literal(stripped)
            if not ids:
                raise PgFmuError("fmu_simulate received an empty instance array")
            return session.simulator.simulate_rows_many(ids, input_sql, time_from, time_to)
        return session.simulator.simulate_rows(text, input_sql, time_from, time_to)

    @table_udf(columns=["modelid", "modelname", "fmureference", "defaultstarttime", "defaultendtime"],
               min_args=0, max_args=0,
               description="All models registered in the catalogue")
    def fmu_models(_db) -> List[List[Any]]:
        rows = session.database.table("model").to_dicts()
        return [
            [r["modelid"], r["modelname"], r["fmureference"], r["defaultstarttime"], r["defaultendtime"]]
            for r in rows
        ]

    @table_udf(columns=["instanceid", "modelid"], min_args=0, max_args=0,
               description="All model instances registered in the catalogue")
    def fmu_instances(_db) -> List[List[Any]]:
        rows = session.database.table("modelinstance").to_dicts()
        return [[r["instanceid"], r["modelid"]] for r in rows]

    @table_udf(columns=["extname", "extversion", "n_udfs", "description"],
               min_args=0, max_args=0,
               description="All extensions installed on this database")
    def fmu_extensions(db) -> List[List[Any]]:
        # fmu_-namespace alias: delegate to the engine's builtin so the row
        # shape cannot diverge.
        return db.udfs.table("installed_extensions").func(db)

    return Extension.from_functions(
        "pgfmu",
        (
            fmu_create,
            fmu_copy,
            fmu_delete_instance,
            fmu_delete_model,
            fmu_set_initial,
            fmu_set_minimum,
            fmu_set_maximum,
            fmu_reset,
            fmu_parest,
            fmu_calibrate,
            fmu_variables,
            fmu_get,
            fmu_simulate,
            fmu_models,
            fmu_instances,
            fmu_extensions,
        ),
        version=PGFMU_EXTENSION_VERSION,
        description="In-DBMS storage, simulation and calibration of FMU models",
    )


def _pgfmu_factory(database, **options) -> Extension:
    """Factory behind ``database.install_extension("pgfmu")``.

    Installing pgFMU on a bare database boots a full session around it
    (catalogue tables, FMU storage, managers), whose constructor installs the
    bundle; the factory just hands that bundle back.
    """
    from repro.core.session import Session

    options.setdefault("register_ml", False)
    Session(database=database, **options)
    return database.extension("pgfmu")


register_extension_factory("pgfmu", _pgfmu_factory)
