"""Bayesian sharp regression discontinuity design.

The model is the local-linear regression on cutoff-centered coordinates:

    y ~ alpha + b_slope*(x - c) + b_treat*t + b_slope_treat*(x - c)*t
        [+ b_z*z] + noise,  t = 1(x >= c)

so the treatment coefficient is the vertical gap of the two fitted lines
at the cutoff, which is the local treatment effect. :func:`fit_rdd` builds
these regressors itself and fits them as a plain linear model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .effects import ATEEstimate, from_draws
from .errors import ContractError, EstimationError, InsufficientDataError, SchemaError
from .nuts import PosteriorSamples, SamplerConfig, sample, summarize
from .pipeline import DesignMatrix, reject_non_finite
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

    def __post_init__(self):
        self.assignment = np.asarray(self.assignment, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.z is not None:
            self.z = np.asarray(self.z, dtype=float)
            if len(self.z) != len(self.assignment):
                raise ContractError("z length mismatch")
        if len(self.y) != len(self.assignment):
            raise ContractError("y length mismatch")
        for name in ("assignment", "y", "z"):
            reject_non_finite(name, getattr(self, name))
        if not np.isfinite(self.cutoff):
            raise SchemaError(f"cutoff: non-finite value {self.cutoff}")

    @property
    def t(self) -> np.ndarray:
        return (self.assignment >= self.cutoff).astype(int)

    def check_both_sides(self) -> None:
        """EstimationError unless observations lie on both sides of the cutoff."""
        if self.t.all() or not self.t.any():
            raise EstimationError(
                "all observations fall on one side of the cutoff; effect not identified"
            )


def default_rdd_priors() -> PriorSpec:
    return PriorSpec(alpha_scale=1.0, beta_scale=0.5)


def fit_rdd(
    data: RddDataset, priors: PriorSpec = None, cfg: SamplerConfig = None
) -> PosteriorSamples:
    """Posterior over (alpha, slopes, treatment gap, z coefficient, log sigma).

    Internally the regression runs on min-max-scaled y with the regressors
    [xs, t, xs*t] and z when given, where xs = (x - c) / std(x - c). The
    rescaling is kept because the default priors (and the sampler's
    U(-2, 2) inits) are sized in those units; it is no longer needed for
    conditioning, since the sampler adapts a dense metric to the
    correlated intercept, slopes and gap during warm-up.
    The returned draws are transformed back to the raw coordinates;
    ``chain_stats`` stays in the scaled coordinates.
    """
    data.check_both_sides()
    t = data.t
    xc = data.assignment - data.cutoff
    with np.errstate(over="ignore"):  # an overflow is rejected below
        x_scale = float(np.std(xc))
    if x_scale == 0.0:
        raise EstimationError("assignment variable is constant")
    if not np.isfinite(x_scale):
        raise EstimationError("assignment variable's spread around the cutoff overflows")
    y_min, y_max = float(np.min(data.y)), float(np.max(data.y))
    y_range = y_max - y_min
    if y_range == 0.0:
        raise EstimationError("target variable is constant")
    if not np.isfinite(y_range):
        raise EstimationError("target variable's range overflows")

    xs, tf = xc / x_scale, t.astype(float)
    cols, names = [xs, tf, xs * tf], ["beta_slope", TREAT_COEF, "beta_slope_treat"]
    if data.z is not None:
        cols.append(data.z)
        names.append("beta_z")
    dm = DesignMatrix(unit_ids=np.arange(len(t)), X=np.column_stack(cols), t=t,
                      y=(data.y - y_min) / y_range, covariate_names=names)
    model = ModelSpec("rdd_linear", priors or default_rdd_priors())
    out = sample(model, dm, cfg=cfg or SamplerConfig())

    # map draws back to raw units: y = y_min + y_range * y_scaled, and the
    # slope coefficients also divide by x_scale
    draws = out.draws
    draws[:, :, 0] = y_min + y_range * draws[:, :, 0]
    scale = [y_range / x_scale, y_range, y_range / x_scale, y_range][: len(names)]
    draws[:, :, 1:-1] *= np.array(scale)
    draws[:, :, -1] += np.log(y_range)
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
    if not bandwidth > 0:  # also rejects NaN
        raise ValueError(f"bandwidth must be > 0, got {bandwidth}")
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
