"""Bayesian propensity-score matching.

Fits the logistic propensity model with the NUTS sampler, computes scores
at the posterior mean (with optional per-draw scores for uncertainty
bands), matches control to treated units greedily, and estimates the
matched treatment effect.

Greedy matching goes through treated units by descending score, ties to
the lower unit id, and gives each the unused control at the smallest
float64 ``abs(s_t - s_c)``, equal distances to the lower control id; with
a caliper, a unit whose nearest control lies beyond it stays unmatched.
The controls are sorted once and each treated score is bisected into
them, with path-compressed "next available" links skipping used controls,
so a matching takes O((n_t + n_c) log n_c) time, not O(n_t n_c).
"""

from __future__ import annotations

import warnings
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from . import effects
from .effects import ATEEstimate
from .errors import ContractError, EstimationError, PositivityError
from .nuts import PosteriorSamples, SamplerConfig, sample
from .pipeline import DesignMatrix
from .prob_core import PROB_FLOOR, ModelSpec, PriorSpec, param_names, sigmoid

__all__ = [
    "PropensityScores",
    "MatchResult",
    "fit_propensity",
    "propensity_scores",
    "caliper_match",
    "check_caliper",
    "nn_match_1to1",
    "balance_report",
    "positivity_check",
    "ate_psm",
]

DEFAULT_CALIPER = 0.05
POSITIVITY_BINS = 10  # equal-width score bins of positivity_check


@dataclass
class PropensityScores:
    unit_ids: np.ndarray
    mean_score: np.ndarray
    treated: np.ndarray
    draw_scores: np.ndarray | None = None  # [draw][unit]

    def __post_init__(self):
        self.unit_ids = np.asarray(self.unit_ids)
        self.mean_score = np.asarray(self.mean_score, dtype=float)
        self.treated = np.asarray(self.treated).astype(bool)
        if not (len(self.unit_ids) == len(self.mean_score) == len(self.treated)):
            raise ContractError("inconsistent lengths in PropensityScores")
        if not np.all((self.mean_score > 0) & (self.mean_score < 1)):  # NaN too
            raise ContractError("propensity scores must be strictly in (0, 1)")


@dataclass
class MatchResult:
    """(treated_id, control_id, score distance) pairs plus leftovers."""

    pairs: list[tuple]
    unmatched_treated: list
    method: str

    def control_ids(self):
        return [c for _, c, _ in self.pairs]

    def treated_ids(self):
        return [t for t, _, _ in self.pairs]


def fit_propensity(
    data: DesignMatrix, priors: PriorSpec = None, cfg: SamplerConfig = None
) -> PosteriorSamples:
    """Posterior over the logistic propensity model (alpha, beta_j)."""
    t = np.asarray(data.t)
    if not np.any(t == 1) or not np.any(t == 0):
        raise PositivityError(
            "treatment column is constant: propensity model is not identified"
        )
    if data.X.size and (data.X.min() < 0 or data.X.max() > 1):
        warnings.warn(
            "covariates are not scaled to [0, 1]; priors assume scaled inputs",
            UserWarning,
        )
    model = ModelSpec("logistic", priors or PriorSpec())
    return sample(model, data, cfg=cfg or SamplerConfig())


def propensity_scores(
    posterior: PosteriorSamples,
    data: DesignMatrix,
    n_uncertainty_draws: int = 0,
    seed: int = 0,
) -> PropensityScores:
    """Scores at the posterior-mean parameters, plus optional draw bands."""
    names = param_names(ModelSpec("logistic"), data)
    if posterior.param_names != names:
        raise ContractError(
            f"posterior parameters {posterior.param_names} do not match "
            f"data columns {names}"
        )
    flat = posterior.draws.reshape(-1, posterior.draws.shape[2])
    mean_params = flat.mean(axis=0)

    def scores_at(params):
        eta = params[0] + data.X @ params[1:]
        return np.clip(sigmoid(eta), PROB_FLOOR, 1 - PROB_FLOOR)

    draw_scores = None
    if n_uncertainty_draws:
        rng = np.random.default_rng(seed)
        idx = rng.choice(flat.shape[0], size=n_uncertainty_draws, replace=False)
        draw_scores = np.stack([scores_at(flat[i]) for i in idx])
    return PropensityScores(
        unit_ids=data.unit_ids,
        mean_score=scores_at(mean_params),
        treated=data.t == 1,
        draw_scores=draw_scores,
    )


def _find(links, k):
    """Root of ``k`` in a "next available" forest, halving the path walked."""
    while links[k] != k:
        links[k] = links[links[k]]
        k = links[k]
    return k


def _greedy_match(scores: PropensityScores, caliper: float | None):
    """Greedy nearest-control matching without replacement.

    Treated units are processed in descending score order, ties to the
    lower unit id. Each takes the unused control at the smallest
    ``abs(s_t - s_c)`` as rounded in float64; equal distances go to the
    lower control id, whether the tie is between a control on each side
    or between same-side scores whose rounded distances coincide. With a
    caliper, a treated unit whose nearest control lies beyond it stays
    unmatched and no farther control is tried.

    The controls are sorted by (score, unit id) once, so every run of
    equal scores is ordered by id. Two path-compressed link arrays
    (Tarjan, JACM 22:215, 1975) find the next unused control at or right
    of a sorted position and at or left of it; using a control links past
    it. A treated score is bisected into the order: the first unused
    control at or right of it is the lowest-id one of its run, and the
    lowest-id unused control of the nearest run on the left is found by
    jumping to that run's start, so runs of tied scores are never walked.
    Further runs are visited only while their rounded distance equals the
    nearest one. That makes O((n_t + n_c) log n_c) time, for n_t treated
    and n_c controls, plus one step per extra run at a tied distance,
    which needs scores within a rounding unit of each other.
    """
    treated_idx = np.where(scores.treated)[0]
    control_idx = np.where(~scores.treated)[0]
    if treated_idx.size == 0 or control_idx.size == 0:
        raise ContractError("both groups must be non-empty")

    ids = scores.unit_ids
    score = scores.mean_score.tolist()
    uid = ids.tolist()
    controls = sorted(control_idx.tolist(), key=lambda j: (score[j], uid[j]))
    c_score = [score[j] for j in controls]
    c_uid = [uid[j] for j in controls]
    n = len(controls)
    # [run_start[k], run_end[k]) is the run of scores equal to c_score[k]
    run_start, run_end = [0] * n, [n] * n
    for k in range(1, n):
        run_start[k] = run_start[k - 1] if c_score[k] == c_score[k - 1] else k
    for k in range(n - 2, -1, -1):
        run_end[k] = run_end[k + 1] if c_score[k] == c_score[k + 1] else k + 1
    # _find(right, k): first unused position >= k, or n.
    # _find(left, k + 1) - 1: last unused position <= k, or -1.
    right = list(range(n + 1))
    left = list(range(n + 1))

    order = sorted(treated_idx.tolist(), key=lambda i: (-score[i], uid[i]))
    pairs, unmatched = [], []
    for i in order:
        s = score[i]
        pos = bisect_left(c_score, s)  # a run start: c_score[pos - 1] < s
        best = dist = None
        k = _find(right, pos)
        if k < n:
            best, dist = k, abs(s - c_score[k])
            k = _find(right, run_end[k])
            while k < n and abs(s - c_score[k]) == dist:
                if c_uid[k] < c_uid[best]:
                    best = k
                k = _find(right, run_end[k])
        k = _find(left, pos) - 1
        if k >= 0 and (best is None or abs(s - c_score[k]) <= dist):
            d = abs(s - c_score[k])
            cand = _find(right, run_start[k])
            k = _find(left, run_start[k]) - 1
            while k >= 0 and abs(s - c_score[k]) == d:
                lowest = _find(right, run_start[k])
                if c_uid[lowest] < c_uid[cand]:
                    cand = lowest
                k = _find(left, run_start[k]) - 1
            if best is None or d < dist or c_uid[cand] < c_uid[best]:
                best, dist = cand, d
        if best is None or (caliper is not None and dist > caliper):
            unmatched.append(ids[i])
            continue
        right[best] = best + 1
        left[best + 1] = best
        pairs.append((ids[i], ids[controls[best]], dist))
    return pairs, unmatched


def check_caliper(caliper: float) -> None:
    """Raise ValueError unless the caliper is a positive number."""
    if not caliper > 0:  # also rejects NaN
        raise ValueError(f"caliper must be > 0, got {caliper}")


def caliper_match(scores: PropensityScores, caliper: float = DEFAULT_CALIPER) -> MatchResult:
    """Greedy matching that discards treated units beyond the caliper."""
    check_caliper(caliper)
    pairs, unmatched = _greedy_match(scores, caliper)
    return MatchResult(pairs=pairs, unmatched_treated=unmatched, method=f"caliper({caliper})")


def nn_match_1to1(scores: PropensityScores) -> MatchResult:
    """Greedy 1:1 nearest-neighbour matching; every treated unit matched."""
    n_treated = int(np.sum(scores.treated))
    n_control = int(np.sum(~scores.treated))
    if n_control < n_treated:
        raise EstimationError(
            f"1:1 matching infeasible: {n_control} controls < {n_treated} treated"
        )
    pairs, unmatched = _greedy_match(scores, caliper=None)
    assert not unmatched
    return MatchResult(pairs=pairs, unmatched_treated=[], method="nn_1to1")


def _rows_for_ids(data: DesignMatrix, ids):
    lookup = {uid: i for i, uid in enumerate(data.unit_ids.tolist())}
    try:
        return np.array([lookup[i] for i in ids], dtype=int)
    except KeyError as exc:
        raise ContractError(f"unknown unit id: {exc.args[0]!r}") from None


def balance_report(match: MatchResult, data: DesignMatrix) -> dict:
    """Covariate balance over the matched units vs the unmatched pool."""
    if not match.pairs:
        raise EstimationError("empty match result")
    rows_t = _rows_for_ids(data, match.treated_ids())
    rows_c = _rows_for_ids(data, match.control_ids())
    report = {}
    for j, name in enumerate(data.covariate_names):
        col = data.X[:, j]
        xt, xc = col[rows_t], col[rows_c]
        matched = np.concatenate([xt, xc])
        var_matched = float(np.var(matched))
        var_pool = float(np.var(col))
        report[name] = {
            "mean_c": float(np.mean(xc)),
            "mean_t": float(np.mean(xt)),
            "std_c": float(np.std(xc)),
            "std_t": float(np.std(xt)),
            "variance_reduction_vs_unmatched": (
                1.0 - var_matched / var_pool if var_pool > 0 else 0.0
            ),
        }
    return report


def positivity_check(scores: PropensityScores) -> dict:
    """Flag score-histogram bins (``POSITIVITY_BINS`` of them) occupied by
    only one group."""
    bins = POSITIVITY_BINS
    edges = np.linspace(0.0, 1.0, bins + 1)
    which = np.clip(np.digitize(scores.mean_score, edges) - 1, 0, bins - 1)
    violating = []
    overlap_units = 0
    for b in range(bins):
        in_bin = which == b
        n_t = int(np.sum(in_bin & scores.treated))
        n_c = int(np.sum(in_bin & ~scores.treated))
        if (n_t == 0) != (n_c == 0):
            violating.append(b)
        if n_t > 0 and n_c > 0:
            overlap_units += n_t + n_c
    total = len(scores.mean_score)
    return {
        "violating_bins": violating,
        "overlap_fraction": overlap_units / total if total else 0.0,
        "bins": bins,
    }


def ate_psm(match: MatchResult, y) -> ATEEstimate:
    """Matched treated-minus-control mean difference.

    ``y`` maps unit id to outcome. The interval is a paired-difference
    94% normal interval over the matched pairs.
    """
    if not match.pairs:
        raise EstimationError("no matched pairs")
    try:
        diffs = np.array([y[tid] - y[cid] for tid, cid, _ in match.pairs], dtype=float)
    except (KeyError, IndexError) as exc:
        raise ContractError(f"unit id missing from y: {exc.args[0]!r}") from None
    point = float(np.mean(diffs))
    se = float(np.std(diffs, ddof=1) / np.sqrt(diffs.size)) if diffs.size > 1 else 0.0
    return ATEEstimate(
        point=point,
        interval=(point - effects.Z_94 * se, point + effects.Z_94 * se),
        estimand="ate_psm",
    )

