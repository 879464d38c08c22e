"""Treatment-effect containers and the plain (naive) ATE."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PositivityError

__all__ = ["ATEEstimate", "Z_94", "naive_ate"]

# standard-normal quantile at 0.97 (central 94% interval half-width in SDs)
Z_94 = 1.8807936081512509


@dataclass
class ATEEstimate:
    """Point estimate plus a central 94% interval for one estimand: posterior
    quantiles (:func:`from_draws`) or a normal approximation."""

    point: float
    interval: tuple[float, float]
    estimand: str

    def to_dict(self) -> dict:
        return {
            "point": float(self.point),
            "interval_94": [float(self.interval[0]), float(self.interval[1])],
            "estimand": self.estimand,
        }


def from_draws(draws, estimand: str) -> ATEEstimate:
    """The posterior mean and the 3% and 97% quantiles of ``draws``. A skewed
    posterior's mean may fall outside that interval."""
    draws = np.asarray(draws, dtype=float)
    lo, hi = np.quantile(draws, [0.03, 0.97])
    return ATEEstimate(point=float(np.mean(draws)), interval=(float(lo), float(hi)),
                       estimand=estimand)


def naive_ate(t, y) -> ATEEstimate:
    """Unadjusted treated-minus-control mean difference with a two-sample
    94% normal interval."""
    t = np.asarray(t).astype(int)
    y = np.asarray(y, dtype=float)
    if not np.any(t == 1) or not np.any(t == 0):
        raise PositivityError("need both treated and control units")
    y_t, y_c = y[t == 1], y[t == 0]
    point = float(np.mean(y_t) - np.mean(y_c))
    se = float(
        np.sqrt(
            np.var(y_t, ddof=1) / y_t.size + np.var(y_c, ddof=1) / y_c.size
        )
    ) if y_t.size > 1 and y_c.size > 1 else 0.0
    return ATEEstimate(
        point=point,
        interval=(point - Z_94 * se, point + Z_94 * se),
        estimand="ate",
    )
