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
so a wrapper on those sees every evaluation.

For the linear path the likelihood depends on the data only through a
few sufficient statistics. With D = [1, X] (n rows), a least-squares
solution b_hat and its residual r0 = y - D b_hat, the normal equations
give D^T r0 = 0, so for any coefficient vector b

    RSS(b) = ||y - D b||^2 = RSS0 + (b - b_hat)^T G (b - b_hat),
    D^T (y - D b) = -G (b - b_hat),

with G = D^T D and RSS0 = ||r0||^2. An evaluation then costs O(k^2)
whatever n is. RSS0 is summed row by row once, so this form keeps the
accuracy that y^T y - 2 b^T D^T y + b^T G b loses when y has a large
offset. b_hat from ``lstsq`` also covers a rank-deficient D. The scalar
terms in sigma are Python floats, which overflow, underflow and turn NaN
where the elementwise numpy form does, without raising.

The ``logistic`` family is O(n k) per evaluation. With D = [1, X] and s =
D^T t from ``prepare``, eta = D b and e = exp(-|eta|) (one exponential per
row, which cannot overflow),

    l(b) = s^T b - sum(max(eta, 0) + log1p(e)),   grad = s - D^T p,

with sum max(eta, 0) = (sum eta + sum |eta|) / 2 and p = sigmoid(eta) as
1 / (1 + e) where eta >= 0 and e / (1 + e) elsewhere. There is no clip:
with p clipped into [PROB_FLOOR, 1 - PROB_FLOOR], as :func:`sigmoid`'s
callers in ``bpsm`` do, a row's log-likelihood would stop at log(1e-12) =
-27.6, so the two forms differ for rows with |eta| beyond about 27.6.
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

# Propensity scores are clipped into [PROB_FLOOR, 1 - PROB_FLOOR]
# (bpsm.propensity_scores); no likelihood here clips its probabilities.
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
    """Numerically stable logistic function, elementwise: with e = exp(-|z|),
    1 / (1 + e) where z >= 0 and e / (1 + e) elsewhere."""
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
        self.prior_const = float(np.sum(-0.5 * np.log(2.0 * np.pi) - np.log(prior_scales)))
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

    def _coef_prior(self, b):
        """The coefficient prior's log-density and minus its gradient."""
        w = b / self.prior_var
        return self.prior_const - 0.5 * float(b @ w), w


class PreparedLogistic(PreparedModel):
    """``logistic``: the design ``D`` = [1, X] (``X`` is a view of it), ``t``
    as floats and the sufficient statistic ``s`` = D^T t."""

    def __init__(self, model, names, prior_scales, D, t):
        super().__init__(model, names, prior_scales)
        self.D, self.X, self.t, self.s = D, D[:, 1:], t, D.T @ t

    def _logp_and_grad(self, b):
        logp, w = self._coef_prior(b)
        eta = self.D @ b
        abs_eta = np.abs(eta)
        e = np.exp(-abs_eta)
        # sum max(eta, 0) = (sum eta + sum |eta|) / 2; p = 1 / (1 + e^-eta)
        logp += (float(self.s @ b) - 0.5 * (float(eta.sum()) + float(abs_eta.sum()))
                 - float(np.log1p(e).sum()))
        return logp, self.s - self.D.T @ (np.where(eta >= 0.0, 1.0, e) / (1.0 + e)) - w


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
        # the half-Cauchy's log(2 / (pi s)) joins the coefficient prior's constant
        self.prior_const += math.log(2.0 / math.pi) - math.log(self.noise_scale)
        self.half_log_2pi = 0.5 * math.log(2.0 * math.pi)

    def _logp_and_grad(self, params):
        b, log_sigma = params[:-1], float(params[-1])
        s = self.noise_scale
        try:
            sigma = math.exp(log_sigma)
        except OverflowError:
            sigma = math.inf
        # sigma**2 overflows at log_sigma > 354.9, (sigma / s)**2 only later
        sigma2, u = sigma * sigma, sigma / s
        # half-Cauchy on sigma and the log-Jacobian of sigma = exp(log_sigma)
        logp, w = self._coef_prior(b)
        logp += log_sigma - math.log1p(u * u)
        g = np.empty(len(params))
        np.negative(w, out=g[:-1])
        g[-1] = 1.0 - 2.0 * sigma2 / (s * s + sigma2)
        if self.n:
            d = b - self.b_hat
            gd = self.gram @ d
            rss = self.rss0 + float(d @ gd)
            inv = 1.0 / sigma2 if sigma2 else math.inf
            logp -= self.n * (self.half_log_2pi + log_sigma) + 0.5 * rss * inv
            g[:-1] -= gd * inv
            g[-1] += rss * inv - self.n
        return logp, g


def prepare(model: ModelSpec, data) -> PreparedModel:
    """Reduce ``data`` to its family's :class:`PreparedModel`: one O(n k^2) pass."""
    names = tuple(param_names(model, data))
    n_coef = len(names) - (1 if model.family == "logistic" else 2)
    scales = np.array([model.priors.alpha_scale] + [model.priors.beta_scale] * n_coef, dtype=float)
    X = np.asarray(data.X, dtype=float)
    if X.shape[1] != n_coef:
        raise ContractError(f"{X.shape[1]} regressor columns but {n_coef} coefficient names")
    D = np.column_stack([np.ones(len(X)), X])
    if model.family == "logistic":
        t = np.asarray(data.t)
        if not np.all((t == 0) | (t == 1)):
            raise ValueError("t must be 0 or 1")
        if not np.all(np.isfinite(X)):
            raise ContractError("model data contain non-finite values")
        return PreparedLogistic(model, names, scales, D, t.astype(float))
    y = np.asarray(data.y, dtype=float)
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
