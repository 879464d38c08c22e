"""No-U-Turn sampler: leapfrog dynamics, dual-averaging step-size
adaptation, windowed dense-metric adaptation, multi-chain driver, and
split-chain R-hat diagnostics.

The tree construction follows the multinomial variant: candidate states
are weighted by their joint density exp(logp - |p|^2/2) and the proposal
is drawn progressively as subtrees are merged.

Warm-up follows Stan's windows (Hoffman & Gelman, arXiv:1111.4246;
Betancourt, arXiv:1701.02434): an initial buffer with the identity
metric, slow windows of doubling length, then a terminal buffer. At the
end of each slow window a chain estimates the covariance Sigma of its own
draws in that window, shrunk toward its diagonal, and from then on samples
z with q = L z, L = chol(Sigma): the tree sees z -> logp(L z) and
z -> L^T grad logp(L z), which is HMC on q with the dense mass matrix
Sigma^-1. The step size is found again and dual averaging restarts after
each window.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, InitializationError
from .prob_core import ModelSpec, log_posterior, log_posterior_grad, prepare

__all__ = [
    "SamplerConfig",
    "PosteriorSamples",
    "ChainStats",
    "Target",
    "leapfrog",
    "nuts_step",
    "DualAveraging",
    "adapt_step_size",
    "sample",
    "r_hat",
    "summarize",
]

DIVERGENCE_THRESHOLD = 1000.0

# Warm-up window lengths (iterations), as in Stan for warm-up >= 150.
INIT_BUFFER = 75
TERM_BUFFER = 50
BASE_WINDOW = 25
# Stan regularises a window's covariance as (n S + 5e-3 I) / (n + 5). Here
# the 1e-3 is relative to S's own diagonal, so the regularisation does not
# depend on parameter scale: with posterior SDs near 0.005 an absolute 1e-3
# would swamp S.
SHRINK_DRAWS = 5
SHRINK_WEIGHT = 1e-3


@dataclass(frozen=True)
class Target:
    """A bare differentiable log-density, for sampling outside the three
    regression families (diagnostics, calibration targets)."""

    logp: object
    grad: object
    names: tuple


def _model_functions(model, data):
    """(logp_fn, grad_fn, param_names) for a ModelSpec or a bare Target.

    A ModelSpec's data are prepared once here, so each evaluation reads
    the reduced form instead of rebuilding the design from ``data``.
    """
    if isinstance(model, Target):
        return model.logp, model.grad, list(model.names)
    prepared = prepare(model, data)
    logp_fn = lambda q: log_posterior(model, prepared, q)
    grad_fn = lambda q: log_posterior_grad(model, prepared, q)
    return logp_fn, grad_fn, list(prepared.names)


@dataclass(frozen=True)
class SamplerConfig:
    """Run-length and tuning knobs for :func:`sample`.

    ``draws`` counts total iterations per chain including the ``warmup``
    iterations that are used for adaptation and then discarded.
    """

    draws: int = 2000
    warmup: int = 200
    chains: int = 2
    seed: int = 0
    target_accept: float = 0.8
    max_tree_depth: int = 10

    def __post_init__(self):
        if self.draws < 1 or self.chains < 1:
            raise ValueError("draws and chains must be >= 1")
        if not 0 <= self.warmup < self.draws:
            raise ValueError("warmup must satisfy 0 <= warmup < draws")
        if not 0 < self.target_accept < 1:
            raise ValueError("target_accept must be in (0, 1)")
        if self.max_tree_depth < 1:
            raise ValueError("max_tree_depth must be >= 1")


@dataclass(frozen=True)
class ChainStats:
    """Sampler statistics of one chain over its post-warm-up transitions.

    ``step_size`` and ``metric_diag`` (the diagonal of the adapted
    covariance metric, ones when no window ran) are in the coordinates the
    sampler saw. ``tree_depths[d]`` counts transitions of tree depth d;
    ``saturated`` counts those that reached ``max_tree_depth``. ``e_bfmi``
    is None when the energies do not vary.
    """

    step_size: float
    metric_diag: tuple
    leapfrog_steps: int
    tree_depths: tuple
    saturated: int
    mean_accept: float
    divergences: int
    e_bfmi: float | None


@dataclass
class PosteriorSamples:
    """Post-warm-up draws organised as [chain][iteration][parameter]."""

    param_names: list[str]
    draws: np.ndarray
    diagnostics: dict = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    chain_stats: list[ChainStats] = field(default_factory=list)

    @property
    def n_chains(self) -> int:
        return self.draws.shape[0]

    def pooled(self, name: str) -> np.ndarray:
        """All draws of one parameter, chains concatenated."""
        idx = self.param_names.index(name)
        return self.draws[:, :, idx].reshape(-1)

    def to_csv(self, path) -> None:
        """One row per chain-iteration, one column per parameter."""
        flat = self.draws.reshape(-1, self.draws.shape[2])
        header = ",".join(self.param_names)
        np.savetxt(path, flat, delimiter=",", header=header, comments="")

    def summary_json(self, path) -> None:
        """Write :func:`summarize` as strict JSON (a non-finite R-hat is null)."""
        text = json.dumps(summarize(self), indent=2, allow_nan=False)
        with open(path, "w") as fh:
            fh.write(text)


def leapfrog(position, momentum, step, grad_fn):
    """One leapfrog step: half-kick, drift, half-kick. Time-reversible."""
    q = np.asarray(position, dtype=float)
    p = np.asarray(momentum, dtype=float)
    q, p, _ = _leapfrog_cached(q, p, np.asarray(grad_fn(q), dtype=float), step, grad_fn)
    return q, p


def _leapfrog_cached(q, p, grad, step, grad_fn):
    """Leapfrog reusing the gradient at the start point."""
    p = p + 0.5 * step * grad
    q = q + step * p
    grad_new = np.asarray(grad_fn(q), dtype=float)
    p = p + 0.5 * step * grad_new
    return q, p, grad_new


class _Tree:
    """Recursive multinomial NUTS tree construction for one transition."""

    def __init__(self, logp_fn, grad_fn, step, logw0, rng):
        self.logp_fn = logp_fn
        self.grad_fn = grad_fn
        self.step = step
        self.logw0 = logw0
        self.rng = rng
        self.accept_sum = 0.0
        self.n_leaves = 0
        self.diverged = False

    def _leaf(self, q, p, grad, direction):
        q1, p1, g1 = _leapfrog_cached(q, p, grad, direction * self.step, self.grad_fn)
        if np.all(np.isfinite(q1)) and np.all(np.isfinite(g1)):
            logp1 = self.logp_fn(q1)
        else:
            logp1 = -np.inf
        logw = logp1 - 0.5 * float(p1 @ p1) if np.isfinite(logp1) else -np.inf
        energy_error = self.logw0 - logw
        diverged = (not np.isfinite(logw)) or energy_error > DIVERGENCE_THRESHOLD
        self.diverged = self.diverged or diverged
        self.accept_sum += min(1.0, np.exp(min(0.0, -energy_error)))
        self.n_leaves += 1
        # (q-, p-, g-, q+, p+, g+, proposal, logsumw, stop)
        return (q1, p1, g1, q1, p1, g1, q1, logw, diverged)

    def build(self, q, p, grad, depth, direction):
        if depth == 0:
            return self._leaf(q, p, grad, direction)
        qm, pm, gm, qp, pp, gp, prop, logw1, stop = self.build(
            q, p, grad, depth - 1, direction
        )
        if stop:
            return qm, pm, gm, qp, pp, gp, prop, logw1, True
        if direction == 1:
            qm2, pm2, gm2, qp, pp, gp, prop2, logw2, stop2 = self.build(
                qp, pp, gp, depth - 1, direction
            )
        else:
            qm, pm, gm, qp2, pp2, gp2, prop2, logw2, stop2 = self.build(
                qm, pm, gm, depth - 1, direction
            )
        logw = np.logaddexp(logw1, logw2)
        if np.isfinite(logw2) and np.log(self.rng.uniform()) < logw2 - logw:
            prop = prop2
        stop = stop2 or _is_turning(qm, pm, qp, pp)
        return qm, pm, gm, qp, pp, gp, prop, logw, stop


def _is_turning(q_minus, p_minus, q_plus, p_plus) -> bool:
    dq = q_plus - q_minus
    return float(dq @ p_minus) < 0 or float(dq @ p_plus) < 0


def _nuts_transition(q0, logp0, grad0, step, rng, logp_fn, grad_fn, max_tree_depth):
    """One NUTS transition; returns (q, logp, grad, accept_stat, depth,
    diverged, leapfrog steps, Hamiltonian at the start)."""
    p0 = rng.standard_normal(q0.shape[0])
    logw0 = logp0 - 0.5 * float(p0 @ p0)
    tree = _Tree(logp_fn, grad_fn, step, logw0, rng)

    qm, pm, gm = q0, p0, grad0
    qp, pp, gp = q0, p0, grad0
    prop = q0
    logw = logw0
    depth = 0
    while depth < max_tree_depth:
        direction = 1 if rng.uniform() < 0.5 else -1
        if direction == 1:
            _, _, _, qp, pp, gp, prop2, logw2, stop = tree.build(
                qp, pp, gp, depth, direction
            )
        else:
            qm, pm, gm, _, _, _, prop2, logw2, stop = tree.build(
                qm, pm, gm, depth, direction
            )
        if stop:
            break
        # biased progressive sampling favouring the new subtree
        if np.isfinite(logw2) and np.log(rng.uniform()) < logw2 - logw:
            prop = prop2
        logw = np.logaddexp(logw, logw2)
        depth += 1
        if _is_turning(qm, pm, qp, pp):
            break

    accept_stat = tree.accept_sum / max(tree.n_leaves, 1)
    stats = (accept_stat, depth, tree.diverged, tree.n_leaves, -logw0)
    if prop is q0:
        return (q0, logp0, grad0, *stats)
    logp = logp_fn(prop)
    grad = np.asarray(grad_fn(prop), dtype=float)
    return (prop, logp, grad, *stats)


def nuts_step(current, step_size, rng, model: ModelSpec, data, max_tree_depth=10):
    """One transition of the NUTS kernel over a model's log-posterior."""
    if step_size <= 0:
        raise ValueError("step_size must be > 0")
    logp_fn, grad_fn, _ = _model_functions(model, data)
    q0 = np.asarray(current, dtype=float)
    q, _, _, accept_stat, depth, diverged, _, _ = _nuts_transition(
        q0, logp_fn(q0), np.asarray(grad_fn(q0), dtype=float),
        step_size, rng, logp_fn, grad_fn, max_tree_depth,
    )
    return q, accept_stat, depth, diverged


class DualAveraging:
    """Nesterov dual-averaging step-size adaptation (warm-up only)."""

    def __init__(self, initial_step, target_accept=0.8, gamma=0.05, t0=10.0, kappa=0.75):
        self.mu = np.log(initial_step)
        self.target = target_accept
        self.gamma = gamma
        self.t0 = t0
        self.kappa = kappa
        self.h_bar = 0.0
        self.log_step_bar = np.log(initial_step)
        self.log_step = np.log(initial_step)
        self.m = 0

    def update(self, accept_stat) -> float:
        """Feed one acceptance statistic; returns the next step size."""
        self.m += 1
        frac = 1.0 / (self.m + self.t0)
        self.h_bar = (1.0 - frac) * self.h_bar + frac * (self.target - accept_stat)
        self.log_step = self.mu - np.sqrt(self.m) / self.gamma * self.h_bar
        eta = self.m**-self.kappa
        self.log_step_bar = eta * self.log_step + (1.0 - eta) * self.log_step_bar
        return float(np.exp(self.log_step))

    def finalized_step(self) -> float:
        """Averaged iterate; the step size frozen after warm-up."""
        return float(np.exp(self.log_step_bar))


def adapt_step_size(accept_stats, target_accept, initial_step=1.0) -> float:
    """Replay a history of acceptance statistics through dual averaging."""
    da = DualAveraging(initial_step, target_accept)
    step = initial_step
    for a in accept_stats:
        step = da.update(a)
    return step


def _find_reasonable_step(q, logp_fn, grad_fn, rng) -> float:
    """Heuristic initial step: double/halve until accept prob crosses 0.5."""
    step = 1.0
    p = rng.standard_normal(q.shape[0])
    # trial steps can explode before the halving kicks in
    with np.errstate(over="ignore", invalid="ignore"):
        logw = logp_fn(q) - 0.5 * float(p @ p)
        grad = np.asarray(grad_fn(q), dtype=float)
        q1, p1, _ = _leapfrog_cached(q, p, grad, step, grad_fn)
        logw1 = (
            logp_fn(q1) - 0.5 * float(p1 @ p1) if np.all(np.isfinite(q1)) else -np.inf
        )
        direction = 1.0 if logw1 - logw > np.log(0.5) else -1.0
        for _ in range(64):
            if direction * (logw1 - logw) <= direction * np.log(0.5):
                break
            step *= 2.0**direction
            q1, p1, _ = _leapfrog_cached(q, p, grad, step, grad_fn)
            logw1 = (
                logp_fn(q1) - 0.5 * float(p1 @ p1)
                if np.all(np.isfinite(q1))
                else -np.inf
            )
    return step


def _adaptation_windows(warmup: int) -> list[tuple[int, int]]:
    """Slow warm-up windows ``[start, stop)`` in which the metric is estimated.

    The initial buffer, min(INIT_BUFFER, warmup // 2), lets a chain started
    from the overdispersed U(-2, 2) inits reach the typical set before its
    draws are used; Stan's 15% of a short warm-up leaves that transient in
    the first window. The terminal buffer, min(TERM_BUFFER, warmup // 10),
    tunes the step size for the last metric. Windows double from
    BASE_WINDOW, and one whose successor would overrun the terminal buffer
    takes the rest. There is no window when less than BASE_WINDOW fits.
    """
    start = min(INIT_BUFFER, warmup // 2)
    end = warmup - min(TERM_BUFFER, warmup // 10)
    windows = []
    size = BASE_WINDOW
    while end - start >= size:
        stop = start + size
        if end - stop < 2 * size:
            stop = end
        windows.append((start, stop))
        start, size = stop, 2 * size
    return windows


def _dense_metric(window_draws):
    """Cholesky factor of the draws' covariance shrunk toward its diagonal;
    None when that is not positive definite (a parameter that never moved)."""
    n = window_draws.shape[0]
    centred = window_draws - window_draws.mean(axis=0)
    cov = centred.T @ centred / (n - 1)
    ridge = SHRINK_DRAWS * SHRINK_WEIGHT * np.diag(np.diag(cov))
    shrunk = (n * cov + ridge) / (n + SHRINK_DRAWS)
    try:
        return np.linalg.cholesky(shrunk)
    except np.linalg.LinAlgError:
        return None


def _linear_map(logp_fn, grad_fn, chol):
    """Log-density and gradient in z for q = chol @ z."""

    def logp(z):
        return logp_fn(chol @ z)

    def grad(z):
        return chol.T @ np.asarray(grad_fn(chol @ z), dtype=float)

    return logp, grad


def _e_bfmi(energy) -> float | None:
    """Energy Bayesian fraction of missing information (Betancourt,
    arXiv:1604.00695) from each transition's starting Hamiltonian."""
    var = float(np.var(energy))
    if var == 0.0:
        return None
    return float(np.mean(np.diff(energy) ** 2) / var)


def _run_chain(logp_fn, grad_fn, dim, cfg: SamplerConfig, chain_seed):
    rng = np.random.Generator(np.random.PCG64(chain_seed))

    q = None
    for _ in range(100):
        cand = rng.uniform(-2.0, 2.0, size=dim)
        if np.isfinite(logp_fn(cand)):
            q = cand
            break
    if q is None:
        raise InitializationError("no finite initial log-posterior found")

    # the chain moves in z; until the first window closes, z = q
    chol = None
    f, g = logp_fn, grad_fn
    z = q
    step = _find_reasonable_step(z, f, g, rng)
    da = DualAveraging(step, cfg.target_accept)
    logp = f(z)
    grad = np.asarray(g(z), dtype=float)

    window_start = {stop: start for start, stop in _adaptation_windows(cfg.warmup)}
    warm = np.empty((cfg.warmup, dim))
    n_kept = cfg.draws - cfg.warmup
    kept = np.empty((n_kept, dim))
    accept = np.empty(n_kept)
    energy = np.empty(n_kept)
    depths = np.zeros(cfg.max_tree_depth + 1, dtype=int)
    leapfrogs = divergences = 0
    for i in range(cfg.draws):
        z, logp, grad, accept_stat, depth, diverged, n_leaves, h0 = _nuts_transition(
            z, logp, grad, step, rng, f, g, cfg.max_tree_depth
        )
        q = z if chol is None else chol @ z
        if i < cfg.warmup:
            warm[i] = q
            step = da.update(accept_stat)
            if i + 1 in window_start:
                new_chol = _dense_metric(warm[window_start[i + 1] : i + 1])
                if new_chol is not None:
                    chol = new_chol
                    f, g = _linear_map(logp_fn, grad_fn, chol)
                    z = np.linalg.solve(chol, q)
                    logp = f(z)
                    grad = np.asarray(g(z), dtype=float)
                    step = _find_reasonable_step(z, f, g, rng)
                    # Stan's restart: shrink toward 10x the found step
                    da = DualAveraging(10.0 * step, cfg.target_accept)
            if i == cfg.warmup - 1:
                step = da.finalized_step()
        else:
            j = i - cfg.warmup
            kept[j] = q
            accept[j] = accept_stat
            energy[j] = h0
            depths[depth] += 1
            leapfrogs += n_leaves
            divergences += diverged

    metric_diag = np.ones(dim) if chol is None else np.sum(chol**2, axis=1)
    stats = ChainStats(
        step_size=float(step),
        metric_diag=tuple(float(v) for v in metric_diag),
        leapfrog_steps=int(leapfrogs),
        tree_depths=tuple(int(c) for c in depths),
        saturated=int(depths[cfg.max_tree_depth]),
        mean_accept=float(np.mean(accept)),
        divergences=int(divergences),
        e_bfmi=_e_bfmi(energy),
    )
    return kept, stats


def sample(model: ModelSpec, data, priors=None, cfg: SamplerConfig = None) -> PosteriorSamples:
    """Run independent NUTS chains and attach split R-hat diagnostics.

    Deterministic given (seed, chains, config, data): each chain draws its
    own RNG stream spawned from cfg.seed. The chains run one after another
    on one model preparation. Each chain adapts its own step size and
    dense metric during warm-up; ``chain_stats`` reports them with the
    post-warm-up tree statistics.
    """
    if cfg is None:
        cfg = SamplerConfig()
    if priors is not None and isinstance(model, ModelSpec):
        model = ModelSpec(model.family, priors, model.cutoff)

    logp_fn, grad_fn, names = _model_functions(model, data)
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.chains)
    results = [_run_chain(logp_fn, grad_fn, len(names), cfg, s) for s in seeds]

    draws = np.stack([kept for kept, _ in results])
    out = PosteriorSamples(
        param_names=names, draws=draws, chain_stats=[stats for _, stats in results]
    )
    for j, name in enumerate(names):
        out.diagnostics[name] = {"rhat": r_hat([draws[c, :, j] for c in range(cfg.chains)])}
    kept_n = cfg.draws - cfg.warmup
    for c, stats in enumerate(out.chain_stats):
        if stats.divergences / kept_n > 0.10:
            out.warnings.append(
                f"chain {c}: {stats.divergences}/{kept_n} divergent transitions (>10%)"
            )
        if stats.saturated / kept_n > 0.10:
            out.warnings.append(
                f"chain {c}: {stats.saturated}/{kept_n} transitions reached "
                f"max_tree_depth={cfg.max_tree_depth} (>10%)"
            )
        if stats.e_bfmi is not None and stats.e_bfmi < 0.3:
            out.warnings.append(f"chain {c}: E-BFMI {stats.e_bfmi:.3f} (<0.3)")
    out.diagnostics["_divergences"] = [stats.divergences for stats in out.chain_stats]
    return out


def r_hat(chains_of_draws) -> float:
    """Split-chain potential scale reduction factor.

    Each chain is halved; the estimator compares between- and within-half
    variances. Returns +inf when every half has zero variance.
    """
    halves = []
    for chain in chains_of_draws:
        chain = np.asarray(chain, dtype=float)
        n2 = chain.shape[0] // 2
        if n2 < 2:
            raise ContractError("each chain needs at least 4 draws")
        halves.append(chain[:n2])
        halves.append(chain[n2 : 2 * n2])
    n = min(h.shape[0] for h in halves)
    seqs = np.stack([h[:n] for h in halves])
    w = float(np.mean(np.var(seqs, axis=1, ddof=1)))
    if w == 0.0:
        warnings.warn("zero within-chain variance; R-hat undefined", RuntimeWarning)
        return float("inf")
    means = np.mean(seqs, axis=1)
    b_over_n = float(np.var(means, ddof=1))
    var_hat = (n - 1) / n * w + b_over_n
    return float(np.sqrt(var_hat / w))


def summarize(samples: PosteriorSamples) -> dict:
    """Pooled mean/std, central 94% interval and R-hat per parameter; a
    non-finite R-hat (zero within-chain variance) is None."""
    if samples.draws.size == 0:
        raise ValueError("empty samples")
    out = {}
    for j, name in enumerate(samples.param_names):
        pooled = samples.draws[:, :, j].reshape(-1)
        lo, hi = np.quantile(pooled, [0.03, 0.97])
        rhat = samples.diagnostics.get(name, {}).get("rhat")
        out[name] = {
            "mean": float(np.mean(pooled)),
            "std": float(np.std(pooled)),
            "interval_94": [float(lo), float(hi)],
            "rhat": rhat if rhat is None or np.isfinite(rhat) else None,
        }
    return out
