"""Bayesian difference-in-differences.

The two-period panel is stacked long (one row per unit-period) and fitted
as y ~ alpha + treated + post + treated*post + covariates + noise. The
treated*post interaction coefficient is the DID effect; its posterior is
the ATE_DID estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .effects import ATEEstimate, from_draws
from .errors import ContractError, InsufficientDataError
from .nuts import PosteriorSamples, SamplerConfig, sample
from .pipeline import DesignMatrix, reject_non_finite
from .prob_core import ModelSpec, PriorSpec

__all__ = [
    "PanelDataset",
    "fit_did",
    "ate_did_from_means",
    "ate_did",
    "parallel_trend_check",
]

INTERACTION = "theta_interaction"


@dataclass
class PanelDataset:
    """Each unit observed in both periods, with a group label."""

    unit_ids: np.ndarray
    y_pre: np.ndarray
    y_post: np.ndarray
    treated: np.ndarray
    X_pre: np.ndarray | None = None
    X_post: np.ndarray | None = None
    covariate_names: list[str] | None = None

    def __post_init__(self):
        self.unit_ids = np.asarray(self.unit_ids)
        self.y_pre = np.asarray(self.y_pre, dtype=float)
        self.y_post = np.asarray(self.y_post, dtype=float)
        self.treated = np.asarray(self.treated)
        if self.treated.dtype.kind == "f":
            reject_non_finite("treated", self.treated)
        bad = np.flatnonzero(~np.isin(self.treated, (0, 1)))
        if bad.size:
            value = self.treated[bad[0]].item()
            raise ContractError(f"treated: non-binary value {value!r} at row {bad[0]}")
        self.treated = self.treated.astype(bool)
        n = len(self.unit_ids)
        if not (len(self.y_pre) == len(self.y_post) == len(self.treated) == n):
            raise ContractError("panel columns must all have one entry per unit")
        if not np.any(self.treated) or np.all(self.treated):
            raise ContractError("both groups must be non-empty")
        if (self.X_pre is None) != (self.X_post is None):
            raise ContractError("covariates must be given for both periods or neither")
        for name in ("y_pre", "y_post", "X_pre", "X_post"):
            reject_non_finite(name, getattr(self, name), self.covariate_names)


def _long_format(panel: PanelDataset) -> DesignMatrix:
    n = len(panel.unit_ids)
    t = np.concatenate([panel.treated, panel.treated]).astype(int)
    tau = np.concatenate([np.zeros(n), np.ones(n)])
    y = np.concatenate([panel.y_pre, panel.y_post])
    if panel.X_pre is not None:
        X = np.vstack([np.asarray(panel.X_pre, float), np.asarray(panel.X_post, float)])
        names = list(panel.covariate_names or [f"x{j}" for j in range(X.shape[1])])
    else:
        X = np.empty((2 * n, 0))
        names = []
    ids = np.concatenate([panel.unit_ids, panel.unit_ids])
    return DesignMatrix(
        unit_ids=ids, X=X, t=t, y=y, covariate_names=names, tau=tau
    )


def fit_did(
    panel: PanelDataset, priors: PriorSpec = None, cfg: SamplerConfig = None
) -> PosteriorSamples:
    """Posterior over the long-format DID regression parameters."""
    data = _long_format(panel)
    model = ModelSpec("did_linear", priors or PriorSpec())
    return sample(model, data, cfg=cfg or SamplerConfig())


def ate_did_from_means(mean_pre_c, mean_post_c, mean_pre_t, mean_post_t) -> float:
    """Treatment-group change minus control-group change."""
    return (mean_post_t - mean_pre_t) - (mean_post_c - mean_pre_c)


def ate_did(posterior: PosteriorSamples) -> ATEEstimate:
    """The interaction coefficient's posterior as the DID effect."""
    if INTERACTION not in posterior.param_names:
        raise ContractError(
            f"posterior has no {INTERACTION!r} parameter; was it fit with fit_did?"
        )
    return from_draws(posterior.pooled(INTERACTION), estimand="ate_did")


def parallel_trend_check(
    control_means, treatment_means, tolerance: float = None
) -> dict:
    """Compare pre-intervention least-squares slopes of the two groups.

    Inputs are group-mean outcomes at >= 2 pre-intervention time points.
    Default tolerance: 25% of the pooled standard deviation of the pre
    values.
    """
    yc = np.asarray(control_means, dtype=float)
    yt = np.asarray(treatment_means, dtype=float)
    if yc.size < 2 or yt.size < 2:
        raise InsufficientDataError("need at least two pre-intervention points per group")
    if yc.size != yt.size:
        raise ContractError("groups must be observed at the same time points")
    time = np.arange(yc.size, dtype=float)
    slope_c = float(np.polyfit(time, yc, 1)[0])
    slope_t = float(np.polyfit(time, yt, 1)[0])
    if tolerance is None:
        tolerance = 0.25 * float(np.std(np.concatenate([yc, yt])))
    gap = abs(slope_t - slope_c)
    return {
        "slope_c": slope_c,
        "slope_t": slope_t,
        "abs_slope_gap": gap,
        "tolerance": tolerance,
        "pass": gap <= tolerance,
    }
