"""Reference computations the benchmark checks boat's outputs against.

Each function here is written apart from boat and imports nothing from
it: sampler diagnostics after Vehtari et al. (arXiv:1903.08008), the
greedy matching rule, least-squares fits for the linear designs, a
Newton-method MAP for the logistic propensity model, and a per-vehicle
aggregator over the trip generator's own arrays.
"""

from __future__ import annotations

from statistics import NormalDist

import numpy as np

_INV_CDF = np.vectorize(NormalDist().inv_cdf)


# ---------------------------------------------------------------- diagnostics


def _split(chains: np.ndarray) -> np.ndarray:
    """[chain][draw] -> [2*chain][draw//2], dropping a middle draw if odd."""
    half = chains.shape[1] // 2
    return np.concatenate([chains[:, :half], chains[:, -half:]])


def _rank_normalize(chains: np.ndarray) -> np.ndarray:
    flat = chains.reshape(-1)
    order = np.argsort(flat, kind="stable")
    ranks = np.empty(flat.size)
    ranks[order] = np.arange(1, flat.size + 1)
    # average ranks over ties
    _, inverse, counts = np.unique(flat, return_inverse=True, return_counts=True)
    sums = np.bincount(inverse, weights=ranks)
    ranks = sums[inverse] / counts[inverse]
    return _INV_CDF((ranks - 0.375) / (flat.size + 0.25)).reshape(chains.shape)


def _ess(chains: np.ndarray) -> float:
    """Effective sample size of [chain][draw] with Geyer's initial
    monotone sequence over the multi-chain autocorrelation."""
    m, n = chains.shape
    centred = chains - chains.mean(axis=1, keepdims=True)
    size = 2 ** int(np.ceil(np.log2(2 * n)))
    spec = np.fft.rfft(centred, n=size, axis=1)
    acov = np.fft.irfft(spec * np.conj(spec), n=size, axis=1)[:, :n] / n
    chain_var = acov[:, 0] * n / (n - 1.0)
    mean_var = chain_var.mean()
    var_plus = mean_var * (n - 1.0) / n
    if m > 1:
        var_plus += chains.mean(axis=1).var(ddof=1)
    if var_plus == 0.0:
        return float("nan")
    rho = np.zeros(n)
    rho[0] = 1.0
    rho_even = 1.0
    rho_odd = 1.0 - (mean_var - acov[:, 1].mean()) / var_plus
    rho[1] = rho_odd
    t = 1
    while t < n - 3 and rho_even + rho_odd > 0.0:
        rho_even = 1.0 - (mean_var - acov[:, t + 1].mean()) / var_plus
        rho_odd = 1.0 - (mean_var - acov[:, t + 2].mean()) / var_plus
        if rho_even + rho_odd >= 0.0:
            rho[t + 1] = rho_even
            rho[t + 2] = rho_odd
        t += 2
    max_t = t - 2
    if rho_even > 0.0:
        rho[max_t + 1] = rho_even
    t = 1
    while t <= max_t - 2:
        if rho[t + 1] + rho[t + 2] > rho[t - 1] + rho[t]:
            rho[t + 1] = rho[t + 2] = (rho[t - 1] + rho[t]) / 2.0
        t += 2
    total = m * n
    tau = -1.0 + 2.0 * rho[: max_t + 1].sum() + rho[max_t + 1 : max_t + 2].sum()
    return float(total / max(tau, 1.0 / np.log10(total)))


def _rhat(split_chains: np.ndarray) -> float:
    n = split_chains.shape[1]
    w = split_chains.var(axis=1, ddof=1).mean()
    b_over_n = split_chains.mean(axis=1).var(ddof=1)
    return float(np.sqrt(((n - 1.0) / n * w + b_over_n) / w))


def ess_bulk(chains) -> float:
    """Bulk ESS: ESS of the rank-normalised split chains."""
    return _ess(_rank_normalize(_split(np.asarray(chains, dtype=float))))


def ess_tail(chains) -> float:
    """Tail ESS: the smaller ESS of the 5% and 95% quantile indicators."""
    split = _split(np.asarray(chains, dtype=float))
    q05, q95 = np.quantile(split, [0.05, 0.95])
    return min(_ess((split <= q05).astype(float)), _ess((split <= q95).astype(float)))


def rank_rhat(chains) -> float:
    """Rank-normalised split R-hat: the larger of the bulk and folded values."""
    split = _split(np.asarray(chains, dtype=float))
    folded = np.abs(split - np.median(split))
    return max(_rhat(_rank_normalize(split)), _rhat(_rank_normalize(folded)))


def diagnostics(draws: np.ndarray) -> dict:
    """Worst-case diagnostics over the parameters of [chain][draw][param]."""
    per_param = [draws[:, :, j] for j in range(draws.shape[2])]
    return {
        "ess_bulk_min": min(ess_bulk(c) for c in per_param),
        "ess_tail_min": min(ess_tail(c) for c in per_param),
        "rhat_max": max(rank_rhat(c) for c in per_param),
    }


# ------------------------------------------------------------------- matching


def greedy_match(id_rank, scores, treated, caliper=None):
    """Greedy 1:1 matching without replacement, as positions into the inputs.

    Treated units go in descending score order, ties to the lower unit
    id; each takes the nearest unused control, equal distances going to
    the lower control id. ``id_rank`` orders the unit ids. A treated
    unit whose nearest control lies beyond ``caliper`` stays unmatched.
    Returns ([(treated_pos, control_pos, distance)], [unmatched_pos]).
    """
    id_rank = np.asarray(id_rank)
    scores = np.asarray(scores, dtype=float)
    treated = np.asarray(treated, dtype=bool)
    t_pos = np.flatnonzero(treated)
    c_pos = np.flatnonzero(~treated)
    order = t_pos[np.lexsort((id_rank[t_pos], -scores[t_pos]))]
    c_scores, c_rank = scores[c_pos], id_rank[c_pos]
    free = np.ones(c_pos.size, dtype=bool)
    pairs, unmatched = [], []
    for i in order:
        dist = np.abs(scores[i] - c_scores)
        best = np.where(free, dist, np.inf).min()
        if not np.isfinite(best) or (caliper is not None and best > caliper):
            unmatched.append(int(i))
            continue
        tied = np.flatnonzero(free & (dist == best))
        j = tied[np.argmin(c_rank[tied])]
        free[j] = False
        pairs.append((int(i), int(c_pos[j]), float(best)))
    return pairs, unmatched


def id_ranks(ids) -> np.ndarray:
    """Rank of each id in the ids' own sort order (strings sort as text)."""
    ids = np.asarray(ids)
    ranks = np.empty(ids.size, dtype=int)
    ranks[np.argsort(ids, kind="stable")] = np.arange(ids.size)
    return ranks


# ------------------------------------------------------------- linear models


def ols(design, y) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares coefficients and their classical standard errors."""
    design = np.asarray(design, dtype=float)
    y = np.asarray(y, dtype=float)
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        raise ValueError("design matrix is rank deficient")
    resid = y - design @ coef
    sigma2 = float(resid @ resid) / (design.shape[0] - design.shape[1])
    cov = sigma2 * np.linalg.inv(design.T @ design)
    return coef, np.sqrt(np.diag(cov))


def did_design(treated, X_pre=None, X_post=None):
    """Long-format DID design [1, t, post, t*post, X] and the row order of y."""
    treated = np.asarray(treated, dtype=float)
    n = treated.size
    t = np.concatenate([treated, treated])
    post = np.concatenate([np.zeros(n), np.ones(n)])
    cols = [np.ones(2 * n), t, post, t * post]
    if X_pre is not None:
        cols.extend(np.vstack([X_pre, X_post]).T)
    return np.column_stack(cols)


def rdd_design(x, cutoff, z):
    """Sharp RDD design [1, x-c, t, (x-c)*t, z]."""
    xc = np.asarray(x, dtype=float) - cutoff
    t = (xc >= 0).astype(float)
    return np.column_stack([np.ones(xc.size), xc, t, xc * t, np.asarray(z, dtype=float)])


def cell_mean_did(y_pre, y_post, treated) -> float:
    treated = np.asarray(treated, dtype=bool)
    y_pre, y_post = np.asarray(y_pre, float), np.asarray(y_post, float)
    return float(
        (np.mean(y_post[treated]) - np.mean(y_pre[treated]))
        - (np.mean(y_post[~treated]) - np.mean(y_pre[~treated]))
    )


def logistic_map(X, t, alpha_scale=1.0, beta_scale=1.0, tol=1e-10):
    """Newton-method MAP of Bernoulli(t | sigmoid(a + X b)) under zero-mean
    Gaussian priors; returns (mode, posterior SD from the Hessian)."""
    X = np.asarray(X, dtype=float)
    t = np.asarray(t, dtype=float)
    design = np.column_stack([np.ones(X.shape[0]), X])
    prec = np.r_[1.0 / alpha_scale**2, np.full(X.shape[1], 1.0 / beta_scale**2)]
    w = np.zeros(design.shape[1])
    for _ in range(100):
        p = 1.0 / (1.0 + np.exp(-(design @ w)))
        grad = design.T @ (t - p) - prec * w
        hess = (design * (p * (1.0 - p))[:, None]).T @ design + np.diag(prec)
        step = np.linalg.solve(hess, grad)
        w = w + step
        if np.max(np.abs(step)) < tol:
            break
    else:
        raise RuntimeError("Newton iteration did not converge")
    return w, np.sqrt(np.diag(np.linalg.inv(hess)))


# ----------------------------------------------------------------- telemetry


def aggregate_vehicles(trips: dict, n_vehicles: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-vehicle covariates (14 columns, boat's COVARIATE_NAMES order) and
    fuel-per-km targets from the generator's arrays of kept trips.

    ``trips`` holds equal-length arrays: vehicle (index), weekday (bool),
    distance_km, duration_h, fuel_g (0 where absent), soc_start, soc_end,
    temp, starts, trailer (bool), hybrid (bool), max_speed.
    """
    v = trips["vehicle"]
    count = np.bincount(v, minlength=n_vehicles).astype(float)

    def total(values):
        return np.bincount(v, weights=np.asarray(values, dtype=float), minlength=n_vehicles)

    def extreme(values, ufunc, start):
        out = np.full(n_vehicles, start)
        ufunc.at(out, v, values)
        return out

    dist = total(trips["distance_km"])
    weekday = total(trips["weekday"])
    cov = np.column_stack([
        total(trips["soc_start"] > 80.0) / count,
        total(trips["soc_end"] < 21.0) / count,
        weekday,
        count - weekday,
        dist / count,
        extreme(trips["distance_km"], np.maximum, -np.inf),
        dist / total(trips["duration_h"]),
        extreme(trips["max_speed"], np.maximum, -np.inf),
        total(np.where(trips["hybrid"], trips["distance_km"], 0.0)) / dist,
        total(trips["trailer"]) / count,
        total(trips["starts"]) / count,
        total(trips["temp"]) / count,
        extreme(trips["temp"], np.minimum, np.inf),
        extreme(trips["temp"], np.maximum, -np.inf),
    ])
    return cov, total(trips["fuel_g"]) / dist
