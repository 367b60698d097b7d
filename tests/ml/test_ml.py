"""Tests for the MADlib-style ML substrate: ARIMA, logistic, linear, SQL UDFs."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MlError
from repro.ml import ArimaModel, ArimaOrder, LinearRegression, LogisticRegression
from repro.sqldb import Database


# --------------------------------------------------------------------------- #
# ARIMA
# --------------------------------------------------------------------------- #
def ar1_series(n=300, phi=0.8, mean=20.0, sigma=0.3, seed=0):
    rng = np.random.default_rng(seed)
    values = [mean]
    for _ in range(n - 1):
        values.append(mean * (1 - phi) + phi * values[-1] + rng.normal(0, sigma))
    return np.asarray(values)


class TestArima:
    def test_invalid_order_rejected(self):
        with pytest.raises(MlError):
            ArimaOrder(p=-1)
        with pytest.raises(MlError):
            ArimaOrder(p=0, q=0)

    def test_short_series_rejected(self):
        with pytest.raises(MlError):
            ArimaModel(ArimaOrder(1, 0, 1)).fit([1.0, 2.0, 3.0])

    def test_fit_recovers_ar1_behaviour(self):
        series = ar1_series()
        model = ArimaModel(ArimaOrder(1, 0, 1)).fit(series)
        forecast = model.forecast(5)
        # Forecasts of a mean-reverting AR(1) stay near the long-run mean.
        assert np.all(np.abs(forecast - 20.0) < 2.0)

    def test_in_sample_predictions_beat_mean_baseline(self):
        series = ar1_series(phi=0.9)
        model = ArimaModel(ArimaOrder(2, 0, 1)).fit(series)
        predictions = model.predict_in_sample()
        residual = np.sqrt(np.mean((series - predictions) ** 2))
        baseline = np.std(series)
        assert residual < baseline

    def test_differencing_handles_trend(self):
        t = np.arange(200.0)
        series = 0.5 * t + np.sin(t / 5.0)
        model = ArimaModel(ArimaOrder(1, 1, 1)).fit(series)
        forecast = model.forecast(3)
        # A d=1 model extrapolates the trend rather than collapsing to the mean.
        assert forecast[0] > series[-1] - 2.0

    def test_forecast_requires_fit(self):
        with pytest.raises(MlError):
            ArimaModel().forecast(3)

    def test_coefficients_payload(self):
        model = ArimaModel(ArimaOrder(1, 0, 1)).fit(ar1_series(n=100))
        payload = model.coefficients()
        assert payload["p"] == 1 and payload["q"] == 1
        assert len(payload["ar"]) == 1 and len(payload["ma"]) == 1


# --------------------------------------------------------------------------- #
# Logistic regression
# --------------------------------------------------------------------------- #
def separable_data(n=200, seed=1):
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, size=(n, 2))
    logits = 2.0 * x[:, 0] - 1.5 * x[:, 1] + 0.3
    y = (logits + rng.normal(0, 0.5, size=n) > 0).astype(float)
    return x, y


class TestLogisticRegression:
    def test_fit_and_accuracy(self):
        x, y = separable_data()
        model = LogisticRegression().fit(x, y)
        assert model.accuracy(x, y) > 0.85

    def test_probabilities_in_unit_interval(self):
        x, y = separable_data()
        model = LogisticRegression().fit(x, y)
        probabilities = model.predict_proba(x)
        assert np.all((probabilities >= 0) & (probabilities <= 1))

    def test_non_binary_labels_rejected(self):
        with pytest.raises(MlError):
            LogisticRegression().fit([[1.0], [2.0], [3.0]], [0.0, 1.0, 2.0])

    def test_feature_count_mismatch_rejected(self):
        x, y = separable_data(50)
        model = LogisticRegression().fit(x, y)
        with pytest.raises(MlError):
            model.predict([[1.0, 2.0, 3.0]])

    def test_coefficient_map(self):
        x, y = separable_data(80)
        model = LogisticRegression().fit(x, y)
        coefficients = model.coefficient_map(["a", "b"])
        assert set(coefficients) == {"intercept", "a", "b"}
        assert coefficients["a"] > 0 and coefficients["b"] < 0

    def test_predict_requires_fit(self):
        with pytest.raises(MlError):
            LogisticRegression().predict([[0.0, 0.0]])

    def test_informative_feature_improves_accuracy(self):
        rng = np.random.default_rng(3)
        hidden = rng.normal(0, 1, size=300)
        noise_feature = rng.normal(0, 1, size=300)
        labels = (hidden > 0).astype(float)
        weak = LogisticRegression().fit(noise_feature.reshape(-1, 1), labels)
        strong = LogisticRegression().fit(np.column_stack([noise_feature, hidden]), labels)
        assert strong.accuracy(np.column_stack([noise_feature, hidden]), labels) > weak.accuracy(
            noise_feature.reshape(-1, 1), labels
        )


class TestLinearRegression:
    def test_recovers_known_coefficients(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1, size=(200, 2))
        y = 3.0 + 2.0 * x[:, 0] - 1.0 * x[:, 1] + rng.normal(0, 0.01, size=200)
        model = LinearRegression().fit(x, y)
        coefficients = model.coefficient_map(["a", "b"])
        assert coefficients["intercept"] == pytest.approx(3.0, abs=0.05)
        assert coefficients["a"] == pytest.approx(2.0, abs=0.05)
        assert coefficients["b"] == pytest.approx(-1.0, abs=0.05)
        assert model.r_squared > 0.99

    def test_predict_shape_and_requires_fit(self):
        with pytest.raises(MlError):
            LinearRegression().predict([[1.0]])

    @settings(max_examples=20, deadline=None)
    @given(
        slope=st.floats(min_value=-5, max_value=5),
        intercept=st.floats(min_value=-5, max_value=5),
    )
    def test_exact_fit_on_noiseless_line(self, slope, intercept):
        x = np.linspace(-2, 2, 30).reshape(-1, 1)
        y = slope * x[:, 0] + intercept
        model = LinearRegression().fit(x, y)
        predicted = model.predict([[0.5]])[0]
        assert predicted == pytest.approx(slope * 0.5 + intercept, abs=1e-8)


# --------------------------------------------------------------------------- #
# SQL UDFs
# --------------------------------------------------------------------------- #
@pytest.fixture()
def ml_db():
    db = Database()
    db.install_extension("madlib")
    return db


class TestMlUdfs:
    def _load_series(self, db, values):
        db.execute("CREATE TABLE series (time double precision PRIMARY KEY, value double precision)")
        for i, value in enumerate(values):
            db.execute("INSERT INTO series VALUES ($1, $2)", [float(i), float(value)])

    def test_arima_train_and_forecast(self, ml_db):
        self._load_series(ml_db, ar1_series(n=150))
        output = ml_db.execute(
            "SELECT arima_train('series', 'series_model', 'time', 'value')"
        ).scalar()
        assert output == "series_model"
        assert ml_db.has_table("series_model")
        forecast = ml_db.execute("SELECT * FROM arima_forecast('series_model', 4)")
        assert len(forecast) == 4
        assert all(abs(row[1] - 20.0) < 3.0 for row in forecast.rows)

    def test_arima_predict_in_sample(self, ml_db):
        self._load_series(ml_db, ar1_series(n=120))
        ml_db.execute("SELECT arima_train('series', 'series_model', 'time', 'value')")
        predictions = ml_db.execute("SELECT count(*) FROM arima_predict('series_model')")
        assert predictions.scalar() == 120

    def test_arima_forecast_requires_arima_table(self, ml_db):
        ml_db.execute("CREATE TABLE notmodel (key text PRIMARY KEY, value text)")
        ml_db.execute("INSERT INTO notmodel VALUES ('model_type', 'other')")
        with pytest.raises(MlError):
            ml_db.execute("SELECT * FROM arima_forecast('notmodel', 2)")

    def _load_labelled(self, db):
        db.execute(
            "CREATE TABLE labelled (id integer PRIMARY KEY, f1 double precision, "
            "f2 double precision, label integer)"
        )
        x, y = separable_data(150, seed=4)
        for i, (features, label) in enumerate(zip(x, y)):
            db.execute(
                "INSERT INTO labelled VALUES ($1, $2, $3, $4)",
                [i, float(features[0]), float(features[1]), int(label)],
            )

    def test_logregr_train_predict_accuracy(self, ml_db):
        self._load_labelled(ml_db)
        ml_db.execute("SELECT logregr_train('labelled', 'damper_model', 'label', '{f1, f2}')")
        accuracy = ml_db.execute(
            "SELECT logregr_accuracy('damper_model', 'labelled', 'label')"
        ).scalar()
        assert accuracy > 0.85
        predictions = ml_db.execute("SELECT * FROM logregr_predict('damper_model', 'labelled')")
        assert len(predictions) == 150
        assert set(row[2] for row in predictions.rows) <= {0, 1}

    def test_logregr_requires_features(self, ml_db):
        self._load_labelled(ml_db)
        with pytest.raises(MlError):
            ml_db.execute("SELECT logregr_train('labelled', 'm', 'label', '{}')")

    def test_linregr_train_stores_coefficients(self, ml_db):
        ml_db.execute(
            "CREATE TABLE lin (id integer PRIMARY KEY, x double precision, y double precision)"
        )
        for i in range(50):
            ml_db.execute("INSERT INTO lin VALUES ($1, $2, $3)", [i, float(i), 2.0 * i + 1.0])
        ml_db.execute("SELECT linregr_train('lin', 'lin_model', 'y', '{x}')")
        entries = {row["key"]: row["value"] for row in ml_db.table("lin_model").to_dicts()}
        assert entries["model_type"] == "linregr"
        coefficients = [float(v) for v in entries["coefficients"].split(",")]
        assert coefficients[0] == pytest.approx(1.0, abs=1e-6)
        assert coefficients[1] == pytest.approx(2.0, abs=1e-6)
