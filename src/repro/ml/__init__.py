"""In-DBMS machine learning routines (MADlib substrate).

The paper combines pgFMU with MADlib twice (Section 8.2):

* an ARIMA model trained with ``arima_train`` predicts the classroom
  occupancy that the FMU then consumes, improving the FMU's RMSE by up to
  21.1 %;
* a logistic regression classifying the ventilation damper position gains
  5.9 % accuracy when the FMU-simulated indoor temperature is added to its
  feature vector.

MADlib is not available offline, so this subpackage implements the needed
algorithms from scratch and exposes them through the same kind of SQL UDFs:

* :mod:`repro.ml.arima` - ARIMA(p, d, q) via conditional-sum-of-squares
  fitting and multi-step forecasting.
* :mod:`repro.ml.logistic` - logistic regression fitted with
  iteratively-reweighted least squares (IRLS).
* :mod:`repro.ml.linear` - ordinary least squares linear regression.
* :mod:`repro.ml.udfs` - ``arima_train`` / ``arima_forecast`` /
  ``logregr_train`` / ``logregr_predict`` / ``linregr_train`` UDFs, bundled
  as the ``"madlib"`` extension
  (``database.install_extension("madlib")`` registers them all).
"""

from repro.ml.arima import ArimaModel, ArimaOrder
from repro.ml.linear import LinearRegression
from repro.ml.logistic import LogisticRegression
from repro.ml.udfs import MADLIB_EXTENSION

__all__ = [
    "ArimaModel",
    "ArimaOrder",
    "LinearRegression",
    "LogisticRegression",
    "MADLIB_EXTENSION",
]
