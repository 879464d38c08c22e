"""Bayesian propensity-score matching.

Fits the logistic propensity model with the NUTS sampler, computes scores
at the posterior mean (with optional per-draw scores for uncertainty
bands), matches control to treated units greedily, and estimates the
matched treatment effect.

Greedy matching goes through treated units by descending score, ties to
the lower unit id, and gives each the unused control at the smallest
float64 ``abs(s_t - s_c)``, equal distances to the lower control id; with
a caliper, a unit whose nearest control lies beyond it stays unmatched.
The unused controls are kept sorted by score and each treated score is
bisected into them: O(log n_c) bisects per treated unit, plus one list
deletion per pair, which moves at most n_c pointers.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left, bisect_right
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


def _greedy_match(scores: PropensityScores, caliper: float | None):
    """Greedy nearest-control matching without replacement.

    Treated units go in descending score order, ties to the lower unit id.
    Each takes the unused control at the smallest ``abs(s_t - s_c)`` as
    rounded in float64; equal distances go to the lower control id, whether
    the tie is between a control on each side or between same-side scores
    whose rounded distances coincide. With a caliper, a treated unit whose
    nearest control lies beyond it stays unmatched.

    The unused controls stay sorted by (score, unit id), so each run of
    equal scores starts at its lowest id. Bisecting a treated score finds
    the nearest run on the right, and a second bisect jumps to the start of
    the nearest run on the left; further runs are visited only while their
    rounded distance stays equal. That is O(log n_c) bisects per treated
    unit, plus one list deletion per pair, which moves at most n_c pointers.
    """
    treated_idx = np.where(scores.treated)[0]
    control_idx = np.where(~scores.treated)[0]
    if treated_idx.size == 0 or control_idx.size == 0:
        raise ContractError("both groups must be non-empty")

    ids = scores.unit_ids
    score = scores.mean_score.tolist()
    uid = ids.tolist()
    # the unused controls sorted by (score, unit id): positions, scores, ids
    controls = sorted(control_idx.tolist(), key=lambda j: (score[j], uid[j]))
    cs = [score[j] for j in controls]
    cu = [uid[j] for j in controls]

    order = sorted(treated_idx.tolist(), key=lambda i: (-score[i], uid[i]))
    pairs, unmatched = [], []
    for i in order:
        s = score[i]
        pos = bisect_left(cs, s)  # cs[pos - 1] < s <= cs[pos]
        best = dist = None
        if pos < len(cs):
            best, dist = pos, abs(s - cs[pos])
            k = bisect_right(cs, cs[pos], pos)
            while k < len(cs) and abs(s - cs[k]) == dist:
                if cu[k] < cu[best]:
                    best = k
                k = bisect_right(cs, cs[k], k)
        if pos > 0 and (best is None or abs(s - cs[pos - 1]) <= dist):
            d = abs(s - cs[pos - 1])
            k = cand = bisect_left(cs, cs[pos - 1], 0, pos)
            while k > 0 and abs(s - cs[k - 1]) == d:
                k = bisect_left(cs, cs[k - 1], 0, k)
                if cu[k] < cu[cand]:
                    cand = k
            if best is None or d < dist or cu[cand] < cu[best]:
                best, dist = cand, d
        if best is None or (caliper is not None and dist > caliper):
            unmatched.append(ids[i])
            continue
        pairs.append((ids[i], ids[controls[best]], dist))
        del controls[best], cs[best], cu[best]
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
    n_t = np.bincount(which[scores.treated], minlength=bins)
    n_c = np.bincount(which[~scores.treated], minlength=bins)
    overlap_units = int(np.sum((n_t + n_c)[(n_t > 0) & (n_c > 0)]))
    total = len(scores.mean_score)
    return {
        "violating_bins": np.flatnonzero((n_t > 0) != (n_c > 0)).tolist(),
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

