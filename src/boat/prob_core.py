"""Differentiable log-posteriors for the three model families.

Everything downstream (the sampler, the estimators) treats a model as an
opaque pair of callables: log_posterior and log_posterior_grad over an
unconstrained parameter vector. The linear families' noise scale is
stored as log(sigma), with its Jacobian term in the posterior.

Each design builds its own regressors and passes them as ``data.X`` with
their names in ``data.covariate_names``; this module only fits them. The
two linear families (``did_linear``, ``rdd_linear``) are two labels for
one path, y ~ alpha + X b + noise, kept apart so that evaluations can be
counted per design.

A fit first reduces its data once with :func:`prepare`, the one place that
reads the family; the :class:`PreparedLogistic` or :class:`PreparedLinear`
it returns evaluates without looking at it again. Each computes the
log-density and its gradient in one pass (``_logp_and_grad``), sharing the
work the two have in common, and keeps the last point's pair in a one-slot
memo keyed on the bytes of the parameter vector. ``logp`` and ``grad``
read that memo: the sampler asks for the gradient and then the density at
each leaf, and the two calls cost one evaluation. The sampler still calls
:func:`log_posterior` and :func:`log_posterior_grad` once each per point,
so a wrapper on those sees every evaluation, and each value is the one a
separate computation would give, bit for bit.

For the linear path the likelihood depends on the data only through a
few sufficient statistics. With D = [1, X] (n rows), a least-squares
solution b_hat and its residual r0 = y - D b_hat, the normal equations
give D^T r0 = 0, so for any coefficient vector b

    RSS(b) = ||y - D b||^2 = RSS0 + (b - b_hat)^T G (b - b_hat),
    D^T (y - D b) = -G (b - b_hat),

with G = D^T D and RSS0 = ||r0||^2. An evaluation then costs O(k^2)
whatever n is. RSS0 is summed row by row once, so this form keeps the
accuracy that y^T y - 2 b^T D^T y + b^T G b loses when y has a large
offset. b_hat from ``lstsq`` also covers a rank-deficient D.

The ``logistic`` family is O(n k) per evaluation; its density and gradient
share p = sigmoid(alpha + X beta):

- :func:`sigmoid` takes one exponential per element: with e = exp(-|z|)
  and d = 1 + e it is 1/d where z >= 0 and e/d elsewhere. Neither branch
  can overflow, and each element gets the same float operations as the
  masked two-branch form 1/(1 + exp(-z)), exp(z)/(1 + exp(z)).
- The log-likelihood sums where(t == 1, log p, log1p(-p)) with p clipped
  into [PROB_FLOOR, 1 - PROB_FLOOR]. The clip keeps both logs finite, so
  this equals t log p + (1 - t) log1p(-p) bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError

__all__ = [
    "PriorSpec",
    "ModelSpec",
    "sigmoid",
    "PreparedModel",
    "prepare",
    "param_names",
    "log_posterior",
    "log_posterior_grad",
]

# Likelihood probabilities are clamped into this range before taking logs.
PROB_FLOOR = 1e-12


# The scale of the half-Cauchy prior the linear families put on sigma.
NOISE_SCALE = 5.0


@dataclass(frozen=True)
class PriorSpec:
    """Zero-mean Gaussian prior scales: ``alpha_scale`` for the intercept and
    ``beta_scale`` for every coefficient. Each must be finite and > 0."""

    alpha_scale: float = 1.0
    beta_scale: float = 1.0

    def __post_init__(self):
        for name in ("alpha_scale", "beta_scale"):
            value = getattr(self, name)
            if not 0 < value < math.inf:  # also rejects NaN
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")

    def beta_scale_vector(self, k: int) -> np.ndarray:
        return np.full(k, float(self.beta_scale))


@dataclass(frozen=True)
class ModelSpec:
    """Which regression family to fit and with which priors.

    family:
        "logistic"    -- propensity model, Bernoulli(t | sigmoid(a + X b))
        "did_linear"  -- y ~ a + X b + noise, X the regressors of the DID
        "rdd_linear"  -- the same linear model, X the regressors of the RDD
    """

    family: str
    priors: PriorSpec = field(default_factory=PriorSpec)

    def __post_init__(self):
        if self.family not in ("logistic", "did_linear", "rdd_linear"):
            raise ValueError(f"unknown model family: {self.family!r}")


def sigmoid(z):
    """Numerically stable logistic function, elementwise (see the module
    docstring for its form)."""
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    out = np.where(z >= 0, 1.0 / d, e / d)
    return out if out.ndim else float(out)


class PreparedModel:
    """A model with its data reduced once to what an evaluation reads. This
    base holds the model, the parameter ``names``, the Gaussian coefficient
    prior (alpha first), the parameter vector's shape check and a one-slot
    memo of the last evaluation. Each family implements
    ``_logp_and_grad(params)``, one pass that returns both values."""

    def __init__(self, model: ModelSpec, names: tuple, prior_scales: np.ndarray):
        self.model, self.names = model, names
        self.prior_var = prior_scales**2
        self.prior_lognorm = -0.5 * np.log(2.0 * np.pi) - np.log(prior_scales)
        self._memo = None  # (parameter bytes, logp, read-only grad); replaced whole

    def _evaluate(self, params):
        params = np.asarray(params, dtype=float)
        if params.shape != (len(self.names),):
            raise ContractError(f"parameter vector has shape {params.shape}, "
                                f"expected ({len(self.names)},)")
        key = params.tobytes()
        memo = self._memo
        if memo is None or memo[0] != key:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                logp, grad = self._logp_and_grad(params)
            grad.flags.writeable = False
            self._memo = memo = (key, logp if math.isfinite(logp) else -np.inf, grad)
        return memo

    def logp(self, params) -> float:
        return self._evaluate(params)[1]

    def grad(self, params) -> np.ndarray:
        return self._evaluate(params)[2].copy()

    def _coef_prior(self, b) -> float:
        lp = self.prior_lognorm - b**2 / (2.0 * self.prior_var)
        return float(lp[0] + float(lp[1:].sum()))


class PreparedLogistic(PreparedModel):
    """``logistic``: the predictor matrix ``X``, ``t`` as floats and the
    mask ``t_mask`` = (t == 1)."""

    def __init__(self, model, names, prior_scales, X, t):
        super().__init__(model, names, prior_scales)
        self.X, self.t, self.t_mask = X, t, t == 1.0

    def _logp_and_grad(self, b):
        logp, g = self._coef_prior(b), -b / self.prior_var
        if self.t.size:
            p = sigmoid(b[0] + self.X @ b[1:])
            clipped = p.clip(PROB_FLOOR, 1.0 - PROB_FLOOR)
            logp += float(np.where(self.t_mask, np.log(clipped), np.log1p(-clipped)).sum())
            resid = self.t - p
            g[0] += float(resid.sum())
            g[1:] += self.X.T @ resid
        return logp, g


class PreparedLinear(PreparedModel):
    """``did_linear`` and ``rdd_linear``: the row count ``n``, the Gram
    matrix ``gram`` = D^T D of D = [1, X], a least-squares solution
    ``b_hat``, its residual sum of squares ``rss0``, and the half-Cauchy
    prior's ``noise_scale`` (``NOISE_SCALE`` when prepared). The last
    parameter is log sigma."""

    def __init__(self, model, names, prior_scales, n, gram, b_hat, rss0):
        super().__init__(model, names, prior_scales)
        self.n, self.gram, self.b_hat, self.rss0 = n, gram, b_hat, rss0
        self.noise_scale = NOISE_SCALE
        self.noise_lognorm = np.log(2.0) - np.log(np.pi) - np.log(self.noise_scale)
        self.half_log_2pi = 0.5 * np.log(2.0 * np.pi)

    def _logp_and_grad(self, params):
        b, log_sigma = params[:-1], params[-1]
        s = self.noise_scale
        sigma = np.exp(log_sigma)
        sigma2 = sigma**2
        # half-Cauchy on sigma plus the log-Jacobian of sigma = exp(log_sigma),
        # and its derivative in log_sigma
        logp = self._coef_prior(b) + (
            self.noise_lognorm - np.log1p((sigma / s) ** 2) + log_sigma)
        g, g_ls = -b / self.prior_var, 1.0 - 2.0 * sigma2 / (s**2 + sigma2)
        if self.n:
            d = b - self.b_hat
            gd = self.gram @ d
            rss = self.rss0 + float(d @ gd)
            if 0.0 < sigma < np.inf:
                logp += -self.n * (self.half_log_2pi + log_sigma) - rss / (2.0 * sigma2)
            else:
                logp = -np.inf
            g -= gd / sigma2
            g_ls += -self.n + rss / sigma2
        return logp, np.concatenate((g, [g_ls]))


def prepare(model: ModelSpec, data) -> PreparedModel:
    """Reduce ``data`` to its family's :class:`PreparedModel`: one O(n k^2) pass."""
    names = tuple(param_names(model, data))
    n_coef = len(names) - (1 if model.family == "logistic" else 2)
    priors = model.priors
    scales = np.concatenate(([priors.alpha_scale], priors.beta_scale_vector(n_coef)))
    X = np.asarray(data.X, dtype=float)
    if X.shape[1] != n_coef:
        raise ContractError(f"{X.shape[1]} regressor columns but {n_coef} coefficient names")
    if model.family == "logistic":
        t = np.asarray(data.t)
        if not np.all((t == 0) | (t == 1)):
            raise ValueError("t must be 0 or 1")
        if not np.all(np.isfinite(X)):
            raise ContractError("model data contain non-finite values")
        return PreparedLogistic(model, names, scales, X, t.astype(float))
    y = np.asarray(data.y, dtype=float)
    D = np.column_stack([np.ones(len(y)), X])
    if not (np.all(np.isfinite(D)) and np.all(np.isfinite(y))):
        raise ContractError("model data contain non-finite values")
    b_hat = np.linalg.lstsq(D, y, rcond=None)[0]
    resid = y - D @ b_hat
    return PreparedLinear(model, names, scales, len(y), D.T @ D, b_hat, float(resid @ resid))


def _as_prepared(model: ModelSpec, data) -> PreparedModel:
    if not isinstance(data, PreparedModel):
        return prepare(model, data)
    if data.model is not model and data.model != model:
        raise ContractError("data were prepared for a different model")
    return data


def param_names(model: ModelSpec, data) -> list[str]:
    """Names of the unconstrained parameter vector, in storage order."""
    if isinstance(data, PreparedModel):
        return list(data.names)
    if model.family == "logistic":
        return ["alpha"] + [f"beta_{c}" for c in data.covariate_names]
    return ["alpha", *data.covariate_names, "log_sigma"]


def log_posterior(model: ModelSpec, data, params) -> float:
    """Unnormalised log-posterior in the unconstrained parameterization.

    ``data`` is raw data or a :class:`PreparedModel`; raw data are
    prepared on the spot. Returns -inf for points the floating-point
    likelihood cannot represent (e.g. exp(log_sigma) overflows); the
    sampler treats those as divergent leapfrog states.
    """
    return _as_prepared(model, data).logp(params)


def log_posterior_grad(model: ModelSpec, data, params) -> np.ndarray:
    """Analytic gradient of :func:`log_posterior`."""
    return _as_prepared(model, data).grad(params)
