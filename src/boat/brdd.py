"""Bayesian sharp regression discontinuity design.

The model is fit on cutoff-centered coordinates:

    y ~ alpha + b_slope*(x - c) + b_treat*t + b_slope_treat*(x - c)*t
        [+ b_z*z] + noise,  t = 1(x >= c)

so the treatment coefficient is the vertical gap of the two fitted lines
at the cutoff, which is the local treatment effect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .effects import ATEEstimate, from_draws
from .errors import ContractError, EstimationError, InsufficientDataError
from .nuts import PosteriorSamples, SamplerConfig, sample, summarize
from .pipeline import DesignMatrix
from .prob_core import ModelSpec, PriorSpec

__all__ = [
    "RddDataset",
    "default_rdd_priors",
    "fit_rdd",
    "ate_rdd",
    "predict_lines",
    "density_continuity_check",
]

TREAT_COEF = "beta_treat"


@dataclass
class RddDataset:
    """Sharp design: treatment is assignment >= cutoff, nothing else."""

    assignment: np.ndarray
    y: np.ndarray
    cutoff: float
    z: np.ndarray | None = None
    unit_ids: np.ndarray | None = None

    def __post_init__(self):
        self.assignment = np.asarray(self.assignment, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.z is not None:
            self.z = np.asarray(self.z, dtype=float)
            if len(self.z) != len(self.assignment):
                raise ContractError("z length mismatch")
        if len(self.y) != len(self.assignment):
            raise ContractError("y length mismatch")
        if self.unit_ids is None:
            self.unit_ids = np.arange(len(self.y))
        else:
            self.unit_ids = np.asarray(self.unit_ids)

    @property
    def t(self) -> np.ndarray:
        return (self.assignment >= self.cutoff).astype(int)

    def filtered(self, mask) -> "RddDataset":
        mask = np.asarray(mask, dtype=bool)
        return RddDataset(
            assignment=self.assignment[mask],
            y=self.y[mask],
            cutoff=self.cutoff,
            z=self.z[mask] if self.z is not None else None,
            unit_ids=self.unit_ids[mask],
        )


def default_rdd_priors() -> PriorSpec:
    return PriorSpec(alpha_scale=1.0, beta_scales=0.5, noise_prior=("half_cauchy", 5.0))


def fit_rdd(
    data: RddDataset, priors: PriorSpec = None, cfg: SamplerConfig = None
) -> PosteriorSamples:
    """Posterior over (alpha, slopes, treatment gap, z coefficient, log sigma).

    Internally the regression runs on min-max-scaled y and a standardized
    centered assignment. The rescaling is kept because the default priors
    (and the sampler's U(-2, 2) inits) are sized in those units; it is no
    longer needed for conditioning, since the sampler adapts a dense
    metric to the correlated intercept, slopes and gap during warm-up.
    The returned draws are transformed back to the raw coordinates; the
    scaled-space metadata is kept in diagnostics["_scaling"], and
    ``chain_stats`` stays in the scaled coordinates.
    """
    t = data.t
    if not np.any(t == 1) or not np.any(t == 0):
        raise EstimationError(
            "all observations fall on one side of the cutoff; effect not identified"
        )
    xc = data.assignment - data.cutoff
    x_scale = float(np.std(xc))
    if x_scale == 0.0:
        raise EstimationError("assignment variable is constant")
    y_min, y_max = float(np.min(data.y)), float(np.max(data.y))
    y_range = y_max - y_min
    if y_range == 0.0:
        raise EstimationError("target variable is constant")

    dm = DesignMatrix(
        unit_ids=data.unit_ids,
        X=np.empty((len(data.y), 0)),
        t=t,
        y=(data.y - y_min) / y_range,
        covariate_names=[],
        assignment=xc / x_scale,
        z=data.z,
    )
    model = ModelSpec("rdd_linear", priors or default_rdd_priors(), cutoff=0.0)
    out = sample(model, dm, cfg=cfg or SamplerConfig())

    # map draws back to raw units: y = y_min + y_range * y_scaled,
    # slope coefficients additionally divide by x_scale
    idx = {name: j for j, name in enumerate(out.param_names)}
    draws = out.draws
    draws[:, :, idx["alpha"]] = y_min + y_range * draws[:, :, idx["alpha"]]
    draws[:, :, idx["beta_slope"]] *= y_range / x_scale
    draws[:, :, idx[TREAT_COEF]] *= y_range
    draws[:, :, idx["beta_slope_treat"]] *= y_range / x_scale
    if "beta_z" in idx:
        draws[:, :, idx["beta_z"]] *= y_range
    draws[:, :, idx["log_sigma"]] += np.log(y_range)
    out.diagnostics["_n_rows"] = len(data.y)
    out.diagnostics["_scaling"] = {
        "y_min": y_min, "y_max": y_max, "x_scale": x_scale
    }
    return out


def ate_rdd(posterior: PosteriorSamples) -> ATEEstimate:
    """Local effect at the cutoff: the treatment coefficient's posterior."""
    if TREAT_COEF not in posterior.param_names:
        raise ContractError(
            f"posterior has no {TREAT_COEF!r} parameter; was it fit with fit_rdd?"
        )
    return from_draws(posterior.pooled(TREAT_COEF), estimand="ate_rdd")


def predict_lines(
    posterior: PosteriorSamples, xs, cutoff: float, z_fixed: float = 0.0
) -> dict:
    """Both regression lines at the posterior-mean parameters.

    The vertical gap at x = cutoff equals the ate_rdd point estimate
    exactly by construction.
    """
    xs = np.asarray(xs, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise ValueError("xs must be finite")
    means = {n: s["mean"] for n, s in summarize(posterior).items()}
    xc = xs - cutoff
    bz = means.get("beta_z", 0.0)
    y_control = means["alpha"] + means["beta_slope"] * xc + bz * z_fixed
    y_treated = (
        means["alpha"]
        + means[TREAT_COEF]
        + (means["beta_slope"] + means["beta_slope_treat"]) * xc
        + bz * z_fixed
    )
    return {"x": xs, "y_control": y_control, "y_treated": y_treated}


def _binom_two_sided_p(k: int, n: int) -> float:
    """Exact two-sided binomial p-value against p = 0.5."""
    logpmf = [
        math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1) - n * math.log(2)
        for i in range(n + 1)
    ]
    obs = logpmf[k]
    p = sum(math.exp(lp) for lp in logpmf if lp <= obs + 1e-12)
    return min(1.0, p)


def density_continuity_check(assignment, cutoff: float, bandwidth: float) -> dict:
    """Count-balance test around the cutoff (bunching detection).

    Compares observation counts in (c - bw, c) vs [c, c + bw) with an
    exact two-sided binomial test against a 0.5 split. ``ratio`` (right
    over left) is None when the left window is empty.
    """
    if bandwidth <= 0:
        raise ValueError("bandwidth must be > 0")
    x = np.asarray(assignment, dtype=float)
    left = int(np.sum((x > cutoff - bandwidth) & (x < cutoff)))
    right = int(np.sum((x >= cutoff) & (x < cutoff + bandwidth)))
    n = left + right
    if n == 0:
        raise InsufficientDataError("no observations within the bandwidth window")
    p_value = _binom_two_sided_p(right, n)
    return {
        "left_count": left,
        "right_count": right,
        "ratio": right / left if left else None,
        "p_value": p_value,
        "pass": p_value >= 0.05,
    }
