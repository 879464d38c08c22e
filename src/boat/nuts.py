"""No-U-Turn sampler: leapfrog dynamics, dual-averaging step-size
adaptation, multi-chain driver, and split-chain R-hat diagnostics.

The tree construction follows the multinomial variant: candidate states
are weighted by their joint density exp(logp - |p|^2/2) and the proposal
is drawn progressively as subtrees are merged. Identity mass matrix
throughout; parameters are expected to be O(1) (scaled covariates).
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


@dataclass
class PosteriorSamples:
    """Post-warm-up draws organised as [chain][iteration][parameter]."""

    param_names: list[str]
    draws: np.ndarray
    diagnostics: dict = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

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
        with open(path, "w") as fh:
            json.dump(summarize(self), fh, indent=2)


def leapfrog(position, momentum, step, grad_fn):
    """One leapfrog step: half-kick, drift, half-kick. Time-reversible."""
    q = np.asarray(position, dtype=float)
    p = np.asarray(momentum, dtype=float)
    p = p + 0.5 * step * np.asarray(grad_fn(q), dtype=float)
    q = q + step * p
    p = p + 0.5 * step * np.asarray(grad_fn(q), dtype=float)
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
    """One NUTS transition; returns (q, logp, grad, accept_stat, depth, diverged)."""
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
    if prop is q0:
        return q0, logp0, grad0, accept_stat, depth, tree.diverged
    logp = logp_fn(prop)
    grad = np.asarray(grad_fn(prop), dtype=float)
    return prop, logp, grad, accept_stat, depth, tree.diverged


def nuts_step(current, step_size, rng, model: ModelSpec, data, max_tree_depth=10):
    """One transition of the NUTS kernel over a model's log-posterior."""
    if step_size <= 0:
        raise ValueError("step_size must be > 0")
    logp_fn, grad_fn, _ = _model_functions(model, data)
    q0 = np.asarray(current, dtype=float)
    q, _, _, accept_stat, depth, diverged = _nuts_transition(
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

    step = _find_reasonable_step(q, logp_fn, grad_fn, rng)
    da = DualAveraging(step, cfg.target_accept)
    logp = logp_fn(q)
    grad = np.asarray(grad_fn(q), dtype=float)

    kept = np.empty((cfg.draws - cfg.warmup, dim))
    divergences = 0
    for i in range(cfg.draws):
        q, logp, grad, accept_stat, _, diverged = _nuts_transition(
            q, logp, grad, step, rng, logp_fn, grad_fn, cfg.max_tree_depth
        )
        if i < cfg.warmup:
            step = da.update(accept_stat)
            if i == cfg.warmup - 1:
                step = da.finalized_step()
        else:
            kept[i - cfg.warmup] = q
            if diverged:
                divergences += 1
    return kept, divergences


def sample(model: ModelSpec, data, priors=None, cfg: SamplerConfig = None) -> PosteriorSamples:
    """Run independent NUTS chains and attach split R-hat diagnostics.

    Deterministic given (seed, chains, config, data): each chain draws its
    own RNG stream spawned from cfg.seed. The chains run one after another
    on one model preparation.
    """
    if cfg is None:
        cfg = SamplerConfig()
    if priors is not None and isinstance(model, ModelSpec):
        model = ModelSpec(model.family, priors, model.cutoff)

    logp_fn, grad_fn, names = _model_functions(model, data)
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.chains)
    results = [_run_chain(logp_fn, grad_fn, len(names), cfg, s) for s in seeds]

    draws = np.stack([kept for kept, _ in results])
    out = PosteriorSamples(param_names=names, draws=draws)
    for j, name in enumerate(names):
        out.diagnostics[name] = {"rhat": r_hat([draws[c, :, j] for c in range(cfg.chains)])}
    kept_n = cfg.draws - cfg.warmup
    for c, (_, ndiv) in enumerate(results):
        if kept_n and ndiv / kept_n > 0.10:
            out.warnings.append(
                f"chain {c}: {ndiv}/{kept_n} divergent transitions (>10%)"
            )
    out.diagnostics["_divergences"] = [ndiv for _, ndiv in results]
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
    """Pooled mean/std and central 94% interval per parameter."""
    if samples.draws.size == 0:
        raise ValueError("empty samples")
    out = {}
    for j, name in enumerate(samples.param_names):
        pooled = samples.draws[:, :, j].reshape(-1)
        lo, hi = np.quantile(pooled, [0.03, 0.97])
        out[name] = {
            "mean": float(np.mean(pooled)),
            "std": float(np.std(pooled)),
            "interval_94": [float(lo), float(hi)],
            "rhat": samples.diagnostics.get(name, {}).get("rhat"),
        }
    return out
