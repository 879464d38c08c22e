"""Bayesian difference-in-differences.

The two-period panel is stacked long (one row per unit-period), and this
module builds the regressors [treated, post, treated*post, covariates] of
the linear model y ~ alpha + theta_treat*treated + theta_period*post
+ theta_interaction*treated*post + covariates + noise. The interaction
coefficient is the DID effect; its posterior is the ATE_DID estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .effects import ATEEstimate, from_draws
from .errors import ContractError, InsufficientDataError
from .nuts import PosteriorSamples, SamplerConfig, sample
from .pipeline import DesignMatrix, reject_non_binary, reject_non_finite
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
        reject_non_binary("treated", self.treated)
        self.treated = np.asarray(self.treated).astype(bool)
        n = len(self.unit_ids)
        if not (len(self.y_pre) == len(self.y_post) == len(self.treated) == n):
            raise ContractError("panel columns must all have one entry per unit")
        if not np.any(self.treated) or np.all(self.treated):
            raise ContractError("both groups must be non-empty")
        if (self.X_pre is None) != (self.X_post is None):
            raise ContractError("covariates must be given for both periods or neither")
        if self.X_pre is not None:
            width = np.shape(self.X_pre)[1] if np.ndim(self.X_pre) == 2 else "k"
            for name in ("X_pre", "X_post"):
                if np.shape(getattr(self, name)) != (n, width):
                    raise ContractError(f"{name} has shape {np.shape(getattr(self, name))}, "
                                        f"expected ({n}, {width})")
            names = self.covariate_names
            if names is not None and len(names) != width:
                raise ContractError(f"covariate_names has {len(names)} names for {width} columns")
        for name in ("y_pre", "y_post", "X_pre", "X_post"):
            reject_non_finite(name, getattr(self, name), self.covariate_names)


def _long_format(panel: PanelDataset) -> DesignMatrix:
    n = len(panel.unit_ids)
    t = np.concatenate([panel.treated, panel.treated]).astype(float)
    post = np.concatenate([np.zeros(n), np.ones(n)])
    y = np.concatenate([panel.y_pre, panel.y_post])
    if panel.X_pre is not None:
        X = np.vstack([np.asarray(panel.X_pre, float), np.asarray(panel.X_post, float)])
        covariates = panel.covariate_names or [f"x{j}" for j in range(X.shape[1])]
    else:
        X, covariates = np.empty((2 * n, 0)), []
    ids = np.concatenate([panel.unit_ids, panel.unit_ids])
    names = ["theta_treat", "theta_period", INTERACTION, *(f"beta_{c}" for c in covariates)]
    return DesignMatrix(unit_ids=ids, X=np.column_stack([t, post, t * post, X]), t=t, y=y,
                        covariate_names=names)


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


def parallel_trend_check(control_means, treatment_means) -> dict:
    """Compare pre-intervention least-squares slopes of the two groups.

    Inputs are group-mean outcomes at >= 2 pre-intervention time points.
    The slopes pass when they differ by at most the tolerance, 25% of the
    pooled standard deviation of the pre values.
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
    tolerance = 0.25 * float(np.std(np.concatenate([yc, yt])))
    gap = abs(slope_t - slope_c)
    return {
        "slope_c": slope_c,
        "slope_t": slope_t,
        "abs_slope_gap": gap,
        "tolerance": tolerance,
        "pass": gap <= tolerance,
    }
