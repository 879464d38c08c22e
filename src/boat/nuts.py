"""No-U-Turn sampler: leapfrog dynamics, dual-averaging step-size
adaptation, windowed dense-metric adaptation, multi-chain driver, and
split-chain R-hat diagnostics.

The sampler sees one type, :class:`Target`: a log-density, its gradient
and the parameter names. :func:`sample` compiles a ``ModelSpec`` and its
data into a Target once (``_compile``), or takes a Target as it is. Below
it, the chain, the tree and the step search see one function per metric,
``evaluate(z) -> (logp, grad)`` (``_evaluator``): each point costs one
gradient call and then one log-density call on the Target, and a compiled
model answers the second from the memo the first filled.

The tree is the multinomial variant: each leaf is weighted by its joint
density exp(logp - |p|^2/2). A subtree is a leaf, or two halves and a
merge; a transition doubles its trajectory, one subtree at a time, with
the same merge. Each merge draws the proposal progressively: uniformly
within a subtree, and biased toward the new subtree at the top. A leaf's
and a merge's scalars are Python floats in ``math``, which never warn.

Warm-up follows Stan's windows (Hoffman & Gelman, arXiv:1111.4246;
Betancourt, arXiv:1701.02434): an initial buffer with the identity
metric, slow windows of doubling length, then a terminal buffer. At the
end of each slow window a chain estimates the covariance Sigma of its own
draws in that window, shrunk toward its diagonal, and from then on samples
z with q = L z, L = chol(Sigma): its ``evaluate`` gives logp(L z) and
L^T grad logp(L z), which is HMC on q with the dense mass matrix
Sigma^-1. A chain's ``_Warmup`` holds this state: the windows, L and its
``evaluate``, the dual averaging and the step. It finds the step and
starts dual averaging at the chain's start, and again after each window.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ContractError, InitializationError
from .prob_core import ModelSpec, log_posterior, log_posterior_grad, prepare

__all__ = [
    "SamplerConfig",
    "PosteriorSamples",
    "ChainStats",
    "Target",
    "leapfrog",
    "DualAveraging",
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
# Dual averaging's shrinkage, iteration offset and averaging decay, as in Stan.
DA_GAMMA = 0.05
DA_T0 = 10.0
DA_KAPPA = 0.75
# The accept statistic dual averaging aims at, and the deepest tree.
TARGET_ACCEPT = 0.8
MAX_TREE_DEPTH = 10


@dataclass(frozen=True)
class Target:
    """What the sampler sees: ``logp(q)``, ``grad(q)`` and the parameter
    names. Build one directly to sample a bare differentiable log-density
    (diagnostics, calibration targets); :func:`sample` compiles a
    ``ModelSpec`` into one."""

    logp: object
    grad: object
    names: tuple


def _compile(model: ModelSpec, data) -> Target:
    """A model's Target. The data are prepared once here, so each
    evaluation reads the reduced form instead of rebuilding the design.
    ``log_posterior`` and ``log_posterior_grad`` are looked up in this
    module at call time, so a wrapper installed there sees every call."""
    prepared = prepare(model, data)
    return Target(
        logp=lambda q: log_posterior(model, prepared, q),
        grad=lambda q: log_posterior_grad(model, prepared, q),
        names=tuple(prepared.names),
    )


@dataclass(frozen=True)
class SamplerConfig:
    """Run length of :func:`sample`: ``draws`` iterations per chain, of
    which the first ``warmup`` adapt the sampler and are discarded, in
    ``chains`` chains whose RNG streams are spawned from ``seed``."""

    draws: int = 2000
    warmup: int = 200
    chains: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.chains < 1:
            raise ValueError("chains must be >= 1")
        if not 0 <= self.warmup <= self.draws - 4:  # r_hat needs 4 kept draws per chain
            raise ValueError("warmup must satisfy 0 <= warmup <= draws - 4")


@dataclass(frozen=True)
class ChainStats:
    """Sampler statistics of one chain over its post-warm-up transitions,
    and the leapfrog steps of its warm-up ones.

    ``step_size`` and ``metric_diag`` (the diagonal of the adapted
    covariance metric, ones when no window ran) are in the coordinates the
    sampler saw. ``tree_depths[d]`` counts transitions of tree depth d;
    ``saturated`` counts those that reached ``MAX_TREE_DEPTH``. ``e_bfmi``
    is None when the energies do not vary.
    """

    step_size: float
    metric_diag: tuple
    warmup_leapfrog_steps: int
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

    def pooled(self, name: str) -> np.ndarray:
        """All draws of one parameter, chains concatenated."""
        idx = self.param_names.index(name)
        return self.draws[:, :, idx].reshape(-1)


def leapfrog(q, p, grad, step, evaluate):
    """One leapfrog step from (q, p) with ``grad`` the gradient at q:
    half-kick, drift, half-kick. ``evaluate(q)`` returns (logp, gradient);
    the step returns (q, p, logp, gradient) at the new q. Time-reversible."""
    p = p + 0.5 * step * grad
    q = q + step * p
    logp_new, grad_new = evaluate(q)
    p = p + 0.5 * step * grad_new
    return q, p, logp_new, grad_new


class _Subtree(NamedTuple):
    """A stretch of trajectory: its two edges, each a (q, p, grad) triple,
    the proposal drawn from it as (q, logp, grad), the log of its summed
    weights, and whether it must stop growing."""

    minus: tuple
    plus: tuple
    proposal: tuple
    logw: float
    stop: bool


class _Tree:
    """Recursive multinomial NUTS tree construction for one transition."""

    def __init__(self, evaluate, step, logw0, rng):
        self.evaluate = evaluate
        self.step = step
        self.logw0 = logw0
        self.rng = rng
        self.accept_sum = 0.0
        self.n_leaves = 0
        self.diverged = False

    def _leaf(self, q, p, grad, direction):
        q1, p1, logp1, g1 = leapfrog(q, p, grad, direction * self.step, self.evaluate)
        logw = logp1 - 0.5 * float(p1 @ p1) if math.isfinite(logp1) else -np.inf
        energy_error = self.logw0 - logw
        diverged = (not math.isfinite(logw)) or energy_error > DIVERGENCE_THRESHOLD
        self.diverged = self.diverged or diverged
        self.accept_sum += math.exp(min(0.0, -energy_error))
        self.n_leaves += 1
        edge = (q1, p1, g1)
        return _Subtree(edge, edge, (q1, logp1, g1), logw, diverged)

    def build(self, edge, depth, direction) -> _Subtree:
        """2**depth leaves from ``edge`` in ``direction``: a leaf, or two
        halves and a merge; a half that stops ends the subtree."""
        if depth == 0:
            return self._leaf(*edge, direction)
        first = self.build(edge, depth - 1, direction)
        if first.stop:
            return first
        second = self.build(first.plus if direction == 1 else first.minus, depth - 1, direction)
        return self.merge(first, second, direction, biased=False)

    def merge(self, old, new, direction, biased) -> _Subtree:
        """Join ``new`` onto ``old``'s ``direction`` side. New's proposal is
        taken with probability w_new / (w_old + w_new), or min(1, w_new / w_old)
        if ``biased``, with no draw when w_new is 0. Stops on new.stop or a U-turn."""
        minus, plus = (old.minus, new.plus) if direction == 1 else (new.minus, old.plus)
        hi, lo = (old.logw, new.logw) if old.logw >= new.logw else (new.logw, old.logw)
        logw = hi + math.log1p(math.exp(lo - hi)) if lo > -math.inf else hi
        proposal = old.proposal
        against = old.logw if biased else logw
        if math.isfinite(new.logw) and self.rng.random() < math.exp(min(0.0, new.logw - against)):
            proposal = new.proposal
        stop = new.stop or _is_turning(minus, plus)
        return _Subtree(minus, plus, proposal, logw, stop)


def _is_turning(minus, plus) -> bool:
    dq = plus[0] - minus[0]
    return float(dq @ minus[1]) < 0 or float(dq @ plus[1]) < 0


def _nuts_transition(q0, logp0, grad0, step, rng, evaluate):
    """One NUTS transition from q0, whose log-density and gradient are
    logp0 and grad0, evaluating new points with ``evaluate``; returns (q,
    logp, grad, accept_stat, depth, diverged, leapfrog steps, Hamiltonian at
    the start)."""
    p0 = rng.standard_normal(q0.shape[0])
    logw0 = logp0 - 0.5 * float(p0 @ p0)
    tree = _Tree(evaluate, step, logw0, rng)
    start = (q0, p0, grad0)
    whole = _Subtree(start, start, (q0, logp0, grad0), logw0, False)
    depth = 0
    while depth < MAX_TREE_DEPTH and not whole.stop:
        direction = 1 if rng.random() < 0.5 else -1
        new = tree.build(whole.plus if direction == 1 else whole.minus, depth, direction)
        if new.stop:
            break
        whole = tree.merge(whole, new, direction, biased=True)
        depth += 1
    accept_stat = tree.accept_sum / max(tree.n_leaves, 1)
    return (*whole.proposal, accept_stat, depth, tree.diverged, tree.n_leaves, -logw0)


class DualAveraging:
    """Nesterov dual-averaging step-size adaptation (warm-up only)."""

    def __init__(self, initial_step):
        self.mu = self.log_step = self.log_step_bar = np.log(initial_step)
        self.h_bar = 0.0
        self.m = 0

    def update(self, accept_stat) -> float:
        """Feed one acceptance statistic; returns the next step size."""
        self.m += 1
        frac = 1.0 / (self.m + DA_T0)
        self.h_bar = (1.0 - frac) * self.h_bar + frac * (TARGET_ACCEPT - accept_stat)
        self.log_step = self.mu - np.sqrt(self.m) / DA_GAMMA * self.h_bar
        eta = self.m**-DA_KAPPA
        self.log_step_bar = eta * self.log_step + (1.0 - eta) * self.log_step_bar
        return float(np.exp(self.log_step))

    def finalized_step(self) -> float:
        """Averaged iterate; the step size frozen after warm-up."""
        return float(np.exp(self.log_step_bar))


def _find_reasonable_step(q, logp, grad, evaluate, rng) -> float:
    """Heuristic initial step from q (log-density logp, gradient grad):
    double/halve until the accept prob of one leapfrog step crosses 0.5."""
    p = rng.standard_normal(q.shape[0])
    logw = logp - 0.5 * float(p @ p)

    def trial(step):
        q1, p1, logp1, _ = leapfrog(q, p, grad, step, evaluate)
        logw1 = logp1 - 0.5 * float(p1 @ p1)
        # NaN (logp1 = -inf with a NaN momentum) counts as -inf, so it ends the doubling
        return -np.inf if math.isnan(logw1) else logw1

    step = 1.0
    # trial steps can explode before the halving kicks in
    with np.errstate(over="ignore", invalid="ignore"):
        logw1 = trial(step)
        direction = 1.0 if logw1 - logw > np.log(0.5) else -1.0
        for _ in range(64):
            if direction * (logw1 - logw) <= direction * np.log(0.5):
                break
            step *= 2.0**direction
            logw1 = trial(step)
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


def _evaluator(target: Target, chol=None):
    """``evaluate(z) -> (logp, grad_z)`` of the target in z, q = chol @ z
    (q = z without chol): one gradient and then one log-density call at q.
    logp is -inf, with no log-density call, when z or the gradient is not
    finite; such a leaf diverges. A finite sum of the entries, as Python
    floats, shows that all are finite, without the entrywise test."""

    def evaluate(z):
        q = z if chol is None else chol @ z
        grad = np.asarray(target.grad(q), dtype=float)
        if chol is not None:
            grad = chol.T @ grad
        if math.isfinite(sum(z.tolist()) + sum(grad.tolist())) or (
                np.isfinite(z).all() and np.isfinite(grad).all()):
            return target.logp(q), grad
        return -np.inf, grad

    return evaluate


def _e_bfmi(energy) -> float | None:
    """Energy Bayesian fraction of missing information (Betancourt,
    arXiv:1604.00695) from each transition's starting Hamiltonian."""
    var = float(np.var(energy))
    if var == 0.0:
        return None
    return float(np.mean(np.diff(energy) ** 2) / var)


class _Warmup:
    """A chain's warm-up state: the metric windows, the Cholesky factor
    ``chol`` (None for the identity) with its ``evaluate``, the dual
    averaging and the current ``step``."""

    def __init__(self, target, warmup, rng):
        self.target, self.rng, self.last = target, rng, warmup - 1
        self.window_start = {stop: start for start, stop in _adaptation_windows(warmup)}
        self.chol, self.evaluate = None, _evaluator(target)

    def restart(self, z, logp, grad, scale):
        """Find a step from z; dual averaging shrinks toward scale times it."""
        self.step = _find_reasonable_step(z, logp, grad, self.evaluate, self.rng)
        self.da = DualAveraging(scale * self.step)

    def update(self, i, draws, z, logp, grad, accept_stat):
        """Adapt after warm-up transition i, whose q is draws[i]; returns
        the chain's (z, logp, grad) in the metric from then on."""
        self.step = self.da.update(accept_stat)
        if i + 1 in self.window_start:
            chol = _dense_metric(draws[self.window_start[i + 1] : i + 1])
            if chol is not None:
                self.chol, self.evaluate = chol, _evaluator(self.target, chol)
                z = np.linalg.solve(chol, draws[i])
                logp, grad = self.evaluate(z)
                self.restart(z, logp, grad, 10.0)  # Stan's restart
        if i == self.last:
            self.step = self.da.finalized_step()
        return z, logp, grad


def _run_chain(target: Target, cfg: SamplerConfig, chain_seed):
    rng = np.random.Generator(np.random.PCG64(chain_seed))
    dim = len(target.names)

    for _ in range(100):
        q = rng.uniform(-2.0, 2.0, size=dim)
        logp = target.logp(q)
        if np.isfinite(logp):
            break
    else:
        raise InitializationError("no finite initial log-posterior found")

    # the chain moves in z, q = chol @ z; until the first window closes, z = q
    warmup = _Warmup(target, cfg.warmup, rng)
    z, grad = q, np.asarray(target.grad(q), dtype=float)
    warmup.restart(z, logp, grad, 1.0)
    draws = np.empty((cfg.draws, dim))
    # per transition: accept statistic, depth, diverged, leapfrog steps, energy
    record = np.empty((cfg.draws, 5))
    for i in range(cfg.draws):
        z, logp, grad, *record[i] = _nuts_transition(
            z, logp, grad, warmup.step, rng, warmup.evaluate
        )
        draws[i] = z if warmup.chol is None else warmup.chol @ z
        if i < cfg.warmup:
            z, logp, grad = warmup.update(i, draws, z, logp, grad, record[i, 0])

    accept, depth, diverged, leaves, energy = record[cfg.warmup :].T
    depths = np.bincount(depth.astype(int), minlength=MAX_TREE_DEPTH + 1)
    metric_diag = np.ones(dim) if warmup.chol is None else np.sum(warmup.chol**2, axis=1)
    stats = ChainStats(
        step_size=float(warmup.step),
        metric_diag=tuple(float(v) for v in metric_diag),
        warmup_leapfrog_steps=int(record[: cfg.warmup, 3].sum()),
        leapfrog_steps=int(leaves.sum()),
        tree_depths=tuple(int(c) for c in depths),
        saturated=int(depths[MAX_TREE_DEPTH]),
        mean_accept=float(np.mean(accept)),
        divergences=int(diverged.sum()),
        e_bfmi=_e_bfmi(energy),
    )
    return draws[cfg.warmup :], stats


def sample(model: ModelSpec | Target, data, cfg: SamplerConfig = None) -> PosteriorSamples:
    """Run independent NUTS chains and attach split R-hat diagnostics.

    A ``ModelSpec`` is compiled with ``data`` into a Target once; a Target
    is sampled as it is. Deterministic given (seed, chains, config, data):
    each chain draws its own RNG stream spawned from cfg.seed, and the
    chains run one after another on the one Target. Each chain adapts its
    own step size and dense metric during warm-up; ``chain_stats`` reports
    them with the post-warm-up tree statistics.
    """
    if cfg is None:
        cfg = SamplerConfig()
    target = model if isinstance(model, Target) else _compile(model, data)
    names = list(target.names)
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.chains)
    results = [_run_chain(target, cfg, s) for s in seeds]

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
                f"max_tree_depth={MAX_TREE_DEPTH} (>10%)"
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
