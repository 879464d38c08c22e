"""Synthetic fleet studies with known ground truth.

Three scenarios mirror the three study designs: a confounded treatment
assignment (for matching), a two-period panel with an unobserved common
shock (for difference-in-differences), and a deterministic cutoff on a
running variable (for regression discontinuity). Each returns the
dataset plus a truth record sufficient to compute the estimand in closed
form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bdid import PanelDataset
from .brdd import RddDataset
from .pipeline import DesignMatrix
from .prob_core import sigmoid

__all__ = [
    "ScenarioSpec",
    "simulate_confounded",
    "simulate_seasonal_panel",
    "simulate_discontinuity",
]

N_COVARIATES = 2  # confounded_psm's covariates x1, x2, ...
Z_COEF = 0.5  # cutoff_rdd's coefficient on z
MIXED_TRIES = 1000  # confounded_psm's draws of t before it gives up


@dataclass(frozen=True)
class ScenarioSpec:
    """One study's settings; each ``simulate_*`` function reads those of its
    own scenario."""

    n_control: int = 200
    n_treated: int = 40
    true_ate: float = -0.3
    confound_strength: float = 0.0
    seasonal_amplitude: float = 0.0
    cutoff: float = 60.0
    slope: float = 0.5
    noise_sd: float = 0.5
    seed: int = 0

    def __post_init__(self):
        for name in ("true_ate", "confound_strength", "seasonal_amplitude", "cutoff", "slope",
                     "noise_sd"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.n_control < 2 or self.n_treated < 2:
            raise ValueError("group sizes must be >= 2")
        if self.noise_sd <= 0:
            raise ValueError("noise_sd must be > 0")


def simulate_confounded(spec: ScenarioSpec) -> tuple[DesignMatrix, dict]:
    """Covariate-driven treatment assignment with a confounded outcome.

    The first covariate drives both the treatment propensity (slope =
    confound_strength) and the outcome baseline, so the naive contrast is
    biased whenever confound_strength > 0.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n_control + spec.n_treated
    X = rng.uniform(0.0, 1.0, size=(n, N_COVARIATES))
    # intercept chosen so the expected treated share matches the spec
    share = spec.n_treated / n
    alpha = np.log(share / (1.0 - share)) - spec.confound_strength * 0.5
    propensity = sigmoid(alpha + spec.confound_strength * X[:, 0])
    for _ in range(MIXED_TRIES):
        t = (rng.uniform(size=n) < propensity).astype(int)
        if t.any() and not t.all():
            break
    else:
        raise ValueError(f"could not draw a mixed treatment assignment in {MIXED_TRIES} tries at "
                         f"n_control={spec.n_control}, n_treated={spec.n_treated}, "
                         f"confound_strength={spec.confound_strength!r}, seed={spec.seed}")
    baseline = spec.confound_strength * X[:, 0]
    y = baseline + spec.true_ate * t + rng.normal(0.0, spec.noise_sd, size=n)
    data = DesignMatrix(
        unit_ids=np.arange(n),
        X=X,
        t=t,
        y=y,
        covariate_names=[f"x{j + 1}" for j in range(N_COVARIATES)],
    )
    truth = {"true_ate": spec.true_ate, "true_propensity": propensity}
    return data, truth


def simulate_seasonal_panel(spec: ScenarioSpec) -> tuple[PanelDataset, dict]:
    """Two-period panel with an unobserved shock common to both groups.

    The groups start from different baselines (confound_strength sets the
    gap), both shift by seasonal_amplitude between periods, and the
    treated group additionally shifts by true_ate.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n_control + spec.n_treated
    treated = np.concatenate(
        [np.zeros(spec.n_control, dtype=bool), np.ones(spec.n_treated, dtype=bool)]
    )
    base = spec.confound_strength * treated.astype(float)
    y_pre = base + rng.normal(0.0, spec.noise_sd, size=n)
    y_post = (
        base
        + spec.seasonal_amplitude
        + spec.true_ate * treated.astype(float)
        + rng.normal(0.0, spec.noise_sd, size=n)
    )
    panel = PanelDataset(
        unit_ids=np.arange(n), y_pre=y_pre, y_post=y_post, treated=treated
    )
    truth = {"true_ate": spec.true_ate, "seasonal_shift": spec.seasonal_amplitude}
    return panel, truth


def simulate_discontinuity(spec: ScenarioSpec) -> tuple[RddDataset, dict]:
    """Sharp cutoff on a uniform running variable.

    y = 2 + slope*(x - c) + true_ate*t + Z_COEF*z + noise, with
    t = 1(x >= c) and z independent.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n_control + spec.n_treated
    c = spec.cutoff
    x = rng.uniform(c - 20.0, c + 20.0, size=n)
    t = (x >= c).astype(float)
    z = rng.uniform(0.0, 1.0, size=n)
    xc = x - c
    y = (
        2.0
        + spec.slope * xc
        + spec.true_ate * t
        + Z_COEF * z
        + rng.normal(0.0, spec.noise_sd, size=n)
    )
    data = RddDataset(assignment=x, y=y, cutoff=c, z=z)
    truth = {"true_ate": spec.true_ate}
    return data, truth

