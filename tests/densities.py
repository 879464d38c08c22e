"""Reference densities the log-posterior tests compare against.

The package computes its log-posteriors in closed form and needs none of
these; they stay here, written out term by term, as oracles.
"""

import numpy as np

from boat.prob_core import PROB_FLOOR


def normal_logpdf(x, mu, sigma):
    """Gaussian log-density; sigma must be strictly positive."""
    if np.any(np.asarray(sigma) <= 0):
        raise ValueError("sigma must be > 0")
    x = np.asarray(x, dtype=float)
    val = -0.5 * np.log(2.0 * np.pi) - np.log(sigma) - (x - mu) ** 2 / (2.0 * sigma**2)
    return val if val.ndim else float(val)


def bernoulli_logpmf(t, p):
    """Bernoulli log-mass; p is clamped into [1e-12, 1 - 1e-12]."""
    t = np.asarray(t)
    if not np.all((t == 0) | (t == 1)):
        raise ValueError("t must be 0 or 1")
    t = t.astype(float)
    p = np.clip(np.asarray(p, dtype=float), PROB_FLOOR, 1.0 - PROB_FLOOR)
    val = t * np.log(p) + (1.0 - t) * np.log1p(-p)
    return val if val.ndim else float(val)


def half_cauchy_logpdf(x, scale):
    """Half-Cauchy log-density on [0, inf)."""
    if np.any(np.asarray(x) < 0):
        raise ValueError("x must be >= 0")
    if scale <= 0:
        raise ValueError("scale must be > 0")
    x = np.asarray(x, dtype=float)
    val = np.log(2.0) - np.log(np.pi) - np.log(scale) - np.log1p((x / scale) ** 2)
    return val if val.ndim else float(val)
