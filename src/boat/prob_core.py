"""Differentiable log-posteriors for the three model families.

Everything downstream (the sampler, the estimators) treats a model as an
opaque pair of callables: log_posterior and log_posterior_grad over an
unconstrained parameter vector. The noise scale, when present, is stored
as log(sigma) with the matching Jacobian term included in the posterior.

Each design builds its own regressors and passes them as ``data.X`` with
their names in ``data.covariate_names``; this module only fits them. The
two linear families (``did_linear``, ``rdd_linear``) are two labels for
one path, y ~ alpha + X b + noise, kept apart so that evaluations can be
counted per design.

A fit first reduces its data once with :func:`prepare`. For the linear
path the likelihood depends on the data only through a few sufficient
statistics. With D = [1, X] (n rows), a least-squares solution b_hat and its
residual r0 = y - D b_hat, the normal equations give D^T r0 = 0, so for
any coefficient vector b

    RSS(b) = ||y - D b||^2 = RSS0 + (b - b_hat)^T G (b - b_hat),
    D^T (y - D b) = -G (b - b_hat),

with G = D^T D and RSS0 = ||r0||^2. An evaluation then costs O(k^2)
whatever n is. RSS0 is summed row by row once, so this form keeps the
accuracy that y^T y - 2 b^T D^T y + b^T G b loses when y has a large
offset. b_hat from ``lstsq`` also covers a rank-deficient D.

The ``logistic`` family is O(n k) per evaluation and shares its work
between the two callables:

- :func:`sigmoid` takes one exponential per element: with e = exp(-|z|)
  and d = 1 + e it is 1/d where z >= 0 and e/d elsewhere. Neither branch
  can overflow, and each element gets the same float operations as the
  masked two-branch form 1/(1 + exp(-z)), exp(z)/(1 + exp(z)).
- The log-likelihood sums where(t == 1, log p, log1p(-p)) with p clipped
  into [PROB_FLOOR, 1 - PROB_FLOOR]. The clip keeps both logs finite, so
  this equals t log p + (1 - t) log1p(-p) bit for bit.
- The probabilities p = sigmoid(alpha + X beta) are memoised on the
  prepared model, one slot keyed on the bytes of the parameter vector.
  The sampler asks for the gradient and then the density at the same
  leaf, so the second call skips the O(n k) product and the sigmoid. The
  memo, not a fused density-and-gradient function, keeps both values
  bit-identical while the sampler still calls the two functions apart.
"""

from __future__ import annotations

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
    "param_dim",
    "log_posterior",
    "log_posterior_grad",
]

# Likelihood probabilities are clamped into this range before taking logs.
PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class PriorSpec:
    """Zero-mean Gaussian prior scales plus an optional noise-scale prior.

    ``beta_scales`` may be a scalar (shared across coefficients) or a
    sequence with one scale per coefficient. ``noise_prior`` is either
    ``("half_cauchy", scale)`` or ``None`` (flat on log sigma).
    """

    alpha_scale: float = 1.0
    beta_scales: float | tuple[float, ...] = 1.0
    noise_prior: tuple[str, float] | None = ("half_cauchy", 5.0)

    def __post_init__(self):
        if self.alpha_scale <= 0:
            raise ValueError("alpha_scale must be > 0")
        scales = np.atleast_1d(np.asarray(self.beta_scales, dtype=float))
        if np.any(scales <= 0):
            raise ValueError("beta_scales must all be > 0")
        if self.noise_prior is not None:
            kind, scale = self.noise_prior
            if kind != "half_cauchy":
                raise ValueError(f"unsupported noise prior: {kind!r}")
            if scale <= 0:
                raise ValueError("noise prior scale must be > 0")

    def beta_scale_vector(self, k: int) -> np.ndarray:
        scales = np.atleast_1d(np.asarray(self.beta_scales, dtype=float))
        if scales.size == 1:
            return np.full(k, scales[0])
        if scales.size != k:
            raise ContractError(
                f"expected {k} beta scales, got {scales.size}"
            )
        return scales.copy()


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


@dataclass(eq=False)
class PreparedModel:
    """A model with its data reduced once to what an evaluation reads.

    ``logistic`` keeps the predictor matrix ``X``, ``t`` as floats, the mask
    ``t_mask`` = (t == 1) and a one-slot memo of the last probabilities
    (:func:`_probabilities`). The linear families keep no per-row array:
    the row count ``n``, the Gram matrix ``gram`` = D^T D of D = [1, X], a
    least-squares solution ``b_hat`` and its residual sum of squares ``rss0``.
    """

    model: ModelSpec
    names: tuple[str, ...]
    prior_scales: np.ndarray  # alpha first, then one per coefficient
    n: int
    X: np.ndarray | None = None
    t: np.ndarray | None = None
    gram: np.ndarray | None = None
    b_hat: np.ndarray | None = None
    rss0: float = 0.0
    # (parameter bytes, read-only p); replaced whole, never mutated
    _memo: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.t_mask = None if self.t is None else self.t == 1.0
        self.prior_var = self.prior_scales**2
        self.prior_lognorm = -0.5 * np.log(2.0 * np.pi) - np.log(self.prior_scales)
        noise = None if self.model.family == "logistic" else self.model.priors.noise_prior
        self.noise_scale = None if noise is None else noise[1]
        if self.noise_scale is not None:
            self.noise_lognorm = np.log(2.0) - np.log(np.pi) - np.log(self.noise_scale)


def prepare(model: ModelSpec, data) -> PreparedModel:
    """Reduce ``data`` to a :class:`PreparedModel`: one O(n k^2) pass."""
    names = tuple(param_names(model, data))
    n_coef = len(names) - (1 if model.family == "logistic" else 2)
    scales = np.concatenate(
        ([model.priors.alpha_scale], model.priors.beta_scale_vector(n_coef))
    )
    X = np.asarray(data.X, dtype=float)
    if X.shape[1] != n_coef:
        raise ContractError(f"{X.shape[1]} regressor columns but {n_coef} coefficient names")
    if model.family == "logistic":
        t = np.asarray(data.t)
        if not np.all((t == 0) | (t == 1)):
            raise ValueError("t must be 0 or 1")
        if not np.all(np.isfinite(X)):
            raise ContractError("model data contain non-finite values")
        return PreparedModel(model, names, scales, X.shape[0], X=X, t=t.astype(float))
    y = np.asarray(data.y, dtype=float)
    D = np.column_stack([np.ones(len(y)), X])
    if not (np.all(np.isfinite(D)) and np.all(np.isfinite(y))):
        raise ContractError("model data contain non-finite values")
    b_hat = np.linalg.lstsq(D, y, rcond=None)[0]
    resid = y - D @ b_hat
    return PreparedModel(
        model, names, scales, len(y),
        gram=D.T @ D, b_hat=b_hat, rss0=float(resid @ resid),
    )


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


def param_dim(model: ModelSpec, data) -> int:
    return len(param_names(model, data))


def _split(prep: PreparedModel, params):
    """(coefficients with alpha first, log_sigma or None)."""
    params = np.asarray(params, dtype=float)
    if params.shape != (len(prep.names),):
        raise ContractError(
            f"parameter vector has shape {params.shape}, expected ({len(prep.names)},)"
        )
    if prep.model.family == "logistic":
        return params, None
    return params[:-1], params[-1]


def _prior_logdensity(prep: PreparedModel, b, log_sigma) -> float:
    lp = prep.prior_lognorm - b**2 / (2.0 * prep.prior_var)
    total = lp[0] + float(np.sum(lp[1:]))
    if log_sigma is not None and prep.noise_scale is not None:
        sigma = np.exp(log_sigma)
        # half-Cauchy on sigma plus the log-Jacobian of sigma = exp(log_sigma)
        total += prep.noise_lognorm - np.log1p((sigma / prep.noise_scale) ** 2) + log_sigma
    return float(total)


def _probabilities(prep: PreparedModel, b) -> np.ndarray:
    """sigmoid(alpha + X beta) for the logistic coefficients ``b``, reused
    when the previous call on ``prep`` had the same parameter bytes."""
    key = b.tobytes()
    memo = prep._memo
    if memo is not None and memo[0] == key:
        return memo[1]
    p = sigmoid(b[0] + prep.X @ b[1:])
    p.flags.writeable = False
    prep._memo = (key, p)
    return p


def log_posterior(model: ModelSpec, data, params) -> float:
    """Unnormalised log-posterior in the unconstrained parameterization.

    ``data`` is raw data or a :class:`PreparedModel`; raw data are
    prepared on the spot. Returns -inf for points the floating-point
    likelihood cannot represent (e.g. exp(log_sigma) overflows); the
    sampler treats those as divergent leapfrog states.
    """
    prep = _as_prepared(model, data)
    b, log_sigma = _split(prep, params)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        total = _prior_logdensity(prep, b, log_sigma)
        if prep.n == 0:
            return total if np.isfinite(total) else -np.inf
        if log_sigma is None:
            p = np.clip(_probabilities(prep, b), PROB_FLOOR, 1.0 - PROB_FLOOR)
            total += float(np.where(prep.t_mask, np.log(p), np.log1p(-p)).sum())
        else:
            sigma = np.exp(log_sigma)
            if not np.isfinite(sigma) or sigma == 0.0:
                return -np.inf
            d = b - prep.b_hat
            rss = prep.rss0 + float(d @ (prep.gram @ d))
            total += -prep.n * (0.5 * np.log(2.0 * np.pi) + log_sigma) - rss / (2.0 * sigma**2)
    return total if np.isfinite(total) else -np.inf


def log_posterior_grad(model: ModelSpec, data, params) -> np.ndarray:
    """Analytic gradient of :func:`log_posterior`."""
    prep = _as_prepared(model, data)
    b, log_sigma = _split(prep, params)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g = -b / prep.prior_var
        if log_sigma is None:
            if prep.n:
                resid = prep.t - _probabilities(prep, b)
                g[0] += float(np.sum(resid))
                g[1:] += prep.X.T @ resid
            return g
        sigma = np.exp(log_sigma)
        g_ls = 0.0
        if prep.noise_scale is not None:
            s = prep.noise_scale
            # d/dlog_sigma [half-cauchy log-density + Jacobian]
            g_ls += 1.0 - 2.0 * sigma**2 / (s**2 + sigma**2)
        if prep.n:
            d = b - prep.b_hat
            gd = prep.gram @ d
            g -= gd / sigma**2
            g_ls += -prep.n + (prep.rss0 + float(d @ gd)) / sigma**2
        return np.append(g, g_ls)
