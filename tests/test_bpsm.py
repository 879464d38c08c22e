import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from boat import bpsm
from boat.bpsm import (
    MatchResult,
    PropensityScores,
    ate_psm,
    balance_report,
    caliper_match,
    fit_propensity,
    nn_match_1to1,
    positivity_check,
    propensity_scores,
)
from boat.cli import main
from boat.effects import Z_94, from_draws, naive_ate
from boat.errors import ContractError, EstimationError, PositivityError
from boat.nuts import PosteriorSamples, SamplerConfig
from boat.pipeline import DesignMatrix


def make_scores(treated_scores, control_scores):
    scores = list(treated_scores) + list(control_scores)
    n_t = len(treated_scores)
    return PropensityScores(
        unit_ids=np.arange(len(scores)),
        mean_score=np.array(scores),
        treated=np.array([True] * n_t + [False] * len(control_scores)),
    )


def _neighbours(v):
    below, above = np.nextafter(v, 0.0), np.nextafter(v, 1.0)
    return [float(x) for x in (np.nextafter(below, 0.0), below, v, above, np.nextafter(above, 1.0))]


# Scores from a small set plus their nearest floats, so that ties are common:
# equal scores, a control on each side at one distance (0.25 and 0.75 around
# 0.5), and distinct scores whose rounded distances coincide on either side
# (0.2 to 0.75 and to the float above it are both 0.55).
TIE_POOL = [x for v in (0.06, 0.1, 0.2, 0.25, 0.5, 0.75, 0.9) for x in _neighbours(v)]


def greedy_oracle(treated, control, caliper):
    """Brute-force greedy re-implementation used as the matching oracle."""
    t_order = sorted(range(len(treated)), key=lambda i: (-treated[i][1], treated[i][0]))
    available = {cid: s for cid, s in control}
    pairs, unmatched = [], []
    for i in t_order:
        tid, ts = treated[i]
        if not available:
            unmatched.append(tid)
            continue
        best = min(available, key=lambda cid: (abs(ts - available[cid]), cid))
        d = abs(ts - available[best])
        if caliper is not None and d > caliper:
            unmatched.append(tid)
            continue
        pairs.append((tid, best, d))
        del available[best]
    return pairs, unmatched


class TestCaliperMatch:
    def test_single_feasible(self):
        scores = make_scores([0.5], [0.48, 0.9])
        m = caliper_match(scores, 0.05)
        assert m.pairs == [(0, 1, pytest.approx(0.02))]
        assert m.unmatched_treated == []

    def test_caliper_excludes(self):
        scores = make_scores([0.5], [0.6])
        m = caliper_match(scores, 0.05)
        assert m.pairs == []
        assert m.unmatched_treated == [0]

    def test_distance_equal_to_caliper_is_matched(self):
        # 0.5 - 0.25 is exactly 0.25: only a distance beyond the caliper excludes
        m = caliper_match(make_scores([0.5], [0.25]), 0.25)
        assert m.pairs == [(0, 1, 0.25)]
        assert m.unmatched_treated == []

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            n_t = rng.integers(1, 11)
            n_c = rng.integers(1, 15)
            ts = rng.uniform(0.05, 0.95, n_t)
            cs = rng.uniform(0.05, 0.95, n_c)
            scores = make_scores(ts, cs)
            m = caliper_match(scores, 0.1)
            treated = [(i, ts[i]) for i in range(n_t)]
            control = [(n_t + j, cs[j]) for j in range(n_c)]
            pairs, unmatched = greedy_oracle(treated, control, 0.1)
            assert m.pairs == pairs
            assert m.unmatched_treated == unmatched

    @pytest.mark.parametrize("caliper", [float("nan"), 0.0, -0.1])
    def test_non_positive_or_nan_caliper_rejected(self, caliper):
        scores = make_scores([0.9], [0.5])
        with pytest.raises(ValueError, match="caliper"):
            caliper_match(scores, caliper)

    def test_empty_group_rejected(self):
        scores = make_scores([0.5], [])
        with pytest.raises(ContractError):
            caliper_match(scores, 0.05)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_every_distance_within_caliper(self, seed):
        rng = np.random.default_rng(seed)
        scores = make_scores(rng.uniform(0.01, 0.99, 8), rng.uniform(0.01, 0.99, 12))
        m = caliper_match(scores, 0.07)
        assert all(d <= 0.07 for _, _, d in m.pairs)


class TestNNMatch:
    def test_nearest(self):
        scores = make_scores([0.9], [0.1, 0.85])
        m = nn_match_1to1(scores)
        assert m.pairs == [(0, 2, pytest.approx(0.05))]

    def test_symmetric_perfect(self):
        scores = make_scores([0.4, 0.6], [0.4, 0.6])
        m = nn_match_1to1(scores)
        assert sum(d for _, _, d in m.pairs) == pytest.approx(0.0)
        assert len(m.pairs) == 2

    def test_infeasible(self):
        scores = make_scores([0.4, 0.6], [0.5])
        with pytest.raises(EstimationError):
            nn_match_1to1(scores)

    def test_controls_unique(self):
        rng = np.random.default_rng(4)
        scores = make_scores(rng.uniform(0.2, 0.8, 10), rng.uniform(0.2, 0.8, 20))
        m = nn_match_1to1(scores)
        controls = m.control_ids()
        assert len(controls) == len(set(controls)) == 10

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n_t = int(rng.integers(1, 11))
            n_c = int(rng.integers(n_t, n_t + 15))
            ts = rng.uniform(0.05, 0.95, n_t)
            cs = rng.uniform(0.05, 0.95, n_c)
            scores = make_scores(ts, cs)
            m = nn_match_1to1(scores)
            treated = [(i, ts[i]) for i in range(n_t)]
            control = [(n_t + j, cs[j]) for j in range(n_c)]
            pairs, unmatched = greedy_oracle(treated, control, None)
            assert m.pairs == pairs
            assert m.unmatched_treated == unmatched == []

    def test_matches_everyone_when_feasible(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            scores = make_scores(rng.uniform(0.1, 0.9, 6), rng.uniform(0.1, 0.9, 12))
            m = nn_match_1to1(scores)
            assert len(m.pairs) == 6
            assert m.unmatched_treated == []

    def test_same_side_rounding_ties_go_to_lower_id(self):
        # distinct control scores on one side of the treated score whose
        # rounded distances are equal: the lower control id wins
        for t, c in ((0.2, 0.75), (0.9, 0.1)):
            c_next = float(np.nextafter(c, 1.0))
            assert c != c_next and abs(t - c) == abs(t - c_next)
            for c_id, c_next_id in ((1, 2), (2, 1)):
                scores = PropensityScores(
                    unit_ids=np.array([0, c_id, c_next_id]),
                    mean_score=np.array([t, c, c_next]),
                    treated=np.array([True, False, False]),
                )
                assert nn_match_1to1(scores).pairs == [(0, 1, abs(t - c))]

    def test_left_right_tie_goes_to_lower_id(self):
        for left_id, right_id in ((1, 2), (2, 1)):
            scores = PropensityScores(
                unit_ids=np.array([0, left_id, right_id]),
                mean_score=np.array([0.5, 0.25, 0.75]),
                treated=np.array([True, False, False]),
            )
            assert nn_match_1to1(scores).pairs == [(0, 1, 0.25)]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_tied_scores_match_oracle(self, data):
        ts = data.draw(st.lists(st.sampled_from(TIE_POOL), min_size=1, max_size=10))
        cs = data.draw(st.lists(st.sampled_from(TIE_POOL), min_size=1, max_size=14))
        # 0.25 and 0.55 are tie distances themselves; 1e-9 often matches nothing
        caliper = data.draw(st.sampled_from([None, 0.25, 0.55, 1e-9]))
        assume(caliper is not None or len(cs) >= len(ts))
        ids = data.draw(st.permutations(range(len(ts) + len(cs))))
        if data.draw(st.booleans()):
            ids = [f"u{i}" for i in ids]
        scores = PropensityScores(
            unit_ids=np.array(ids),
            mean_score=np.array(ts + cs),
            treated=np.array([True] * len(ts) + [False] * len(cs)),
        )
        m = nn_match_1to1(scores) if caliper is None else caliper_match(scores, caliper)
        want_pairs, want_unmatched = greedy_oracle(
            list(zip(ids, ts)), list(zip(ids[len(ts):], cs)), caliper
        )
        assert m.pairs == want_pairs
        assert m.unmatched_treated == want_unmatched

    @pytest.mark.parametrize("treated_score", [0.5, 0.75, 0.25])
    def test_one_shared_score_at_scale(self, treated_score):
        # 20,000 treated units on one score and 20,000 controls on one score,
        # the same one or to either side: treated go by id, each taking the
        # lowest unused control id. Quadratic tie handling would take minutes.
        n = 20_000
        ids = np.random.default_rng(13).permutation(2 * n)
        scores = PropensityScores(
            unit_ids=ids,
            mean_score=np.where(np.arange(2 * n) < n, treated_score, 0.5),
            treated=np.arange(2 * n) < n,
        )
        m = nn_match_1to1(scores)
        assert m.treated_ids() == sorted(ids[:n].tolist())
        assert m.control_ids() == sorted(ids[n:].tolist())
        assert {d for _, _, d in m.pairs} == {abs(treated_score - 0.5)}

    def test_random_scores_at_scale(self):
        n = 20_000
        rng = np.random.default_rng(14)
        ids = rng.permutation(2 * n)
        s = rng.uniform(0.01, 0.99, 2 * n)
        scores = PropensityScores(unit_ids=ids, mean_score=s, treated=np.arange(2 * n) < n)
        m = nn_match_1to1(scores)
        score_of = dict(zip(ids.tolist(), s.tolist()))
        assert sorted(m.treated_ids()) == sorted(ids[:n].tolist())
        assert sorted(m.control_ids()) == sorted(ids[n:].tolist())
        t_scores = [score_of[t] for t in m.treated_ids()]
        assert t_scores == sorted(t_scores, reverse=True)
        assert all(d == abs(score_of[t] - score_of[c]) for t, c, d in m.pairs)


class TestPropensityScores:
    def point_mass_posterior(self, names, values, n=100):
        draws = np.tile(np.asarray(values, dtype=float), (1, n, 1))
        return PosteriorSamples(param_names=names, draws=draws)

    def test_zero_params_give_half(self):
        dm = DesignMatrix(
            unit_ids=np.arange(4),
            X=np.random.default_rng(0).uniform(0, 1, (4, 1)),
            t=np.array([1, 0, 1, 0]),
            y=np.zeros(4),
            covariate_names=["x"],
        )
        post = self.point_mass_posterior(["alpha", "beta_x"], [0.0, 0.0])
        s = propensity_scores(post, dm)
        np.testing.assert_allclose(s.mean_score, 0.5)

    def test_sigmoid_identity(self):
        dm = DesignMatrix(
            unit_ids=np.array([0, 1]), X=np.array([[1.0], [1.0]]),
            t=np.array([1, 0]), y=np.zeros(2), covariate_names=["x"],
        )
        post = self.point_mass_posterior(["alpha", "beta_x"], [0.0, np.log(3.0)])
        s = propensity_scores(post, dm)
        assert s.mean_score[0] == pytest.approx(0.75)

    def test_nan_score_rejected(self):
        with pytest.raises(ContractError):
            PropensityScores(
                unit_ids=np.arange(2), mean_score=np.array([0.5, np.nan]),
                treated=np.array([True, False]),
            )

    def test_name_mismatch(self):
        dm = DesignMatrix(
            unit_ids=np.array([0]), X=np.array([[1.0]]), t=np.array([1]),
            y=np.zeros(1), covariate_names=["x"],
        )
        post = self.point_mass_posterior(["alpha", "beta_other"], [0.0, 0.0])
        with pytest.raises(ContractError):
            propensity_scores(post, dm)

    def test_uncertainty_draws_shape(self):
        dm = DesignMatrix(
            unit_ids=np.arange(3), X=np.random.default_rng(1).uniform(0, 1, (3, 1)),
            t=np.array([1, 0, 0]), y=np.zeros(3), covariate_names=["x"],
        )
        post = self.point_mass_posterior(["alpha", "beta_x"], [0.2, -0.4])
        s = propensity_scores(post, dm, n_uncertainty_draws=25)
        assert s.draw_scores.shape == (25, 3)


class TestFitPropensity:
    def test_separation_error(self):
        dm = DesignMatrix(
            unit_ids=np.arange(4), X=np.random.default_rng(0).uniform(0, 1, (4, 2)),
            t=np.ones(4, dtype=int), y=np.zeros(4), covariate_names=["a", "b"],
        )
        with pytest.raises(PositivityError):
            fit_propensity(dm)

    def test_unscaled_covariates_warn(self):
        rng = np.random.default_rng(0)
        dm = DesignMatrix(
            unit_ids=np.arange(20), X=rng.uniform(0, 50, (20, 1)),
            t=rng.permutation([0, 1] * 10), y=np.zeros(20), covariate_names=["x"],
        )
        with pytest.warns(UserWarning):
            fit_propensity(dm, cfg=SamplerConfig(draws=20, warmup=10, chains=1, seed=0))

    def test_uninformative_covariate_beta_near_prior(self):
        rng = np.random.default_rng(5)
        n = 200
        dm = DesignMatrix(
            unit_ids=np.arange(n), X=np.zeros((n, 1)),
            t=rng.permutation([0, 1] * (n // 2)), y=np.zeros(n),
            covariate_names=["x"],
        )
        post = fit_propensity(dm, cfg=SamplerConfig(draws=800, warmup=200, chains=2, seed=3))
        beta = post.pooled("beta_x")
        assert abs(beta.mean()) < 0.2


class TestBalanceAndPositivity:
    def test_identical_matched_groups_zero_diff(self):
        X = np.array([[0.1], [0.5], [0.1], [0.5]])
        dm = DesignMatrix(
            unit_ids=np.arange(4), X=X, t=np.array([1, 1, 0, 0]),
            y=np.zeros(4), covariate_names=["x"],
        )
        match = MatchResult(pairs=[(0, 2, 0.0), (1, 3, 0.0)], unmatched_treated=[], method="nn_1to1")
        report = balance_report(match, dm)
        assert report["x"]["mean_c"] == report["x"]["mean_t"]

    def test_overlap_identical(self):
        scores = make_scores([0.2, 0.5, 0.8], [0.2, 0.5, 0.8])
        assert positivity_check(scores)["overlap_fraction"] == 1.0

    def test_disjoint_supports(self):
        rng = np.random.default_rng(6)
        scores = make_scores(rng.uniform(0.7, 0.99, 20), rng.uniform(0.01, 0.3, 20))
        report = positivity_check(scores)
        assert report["overlap_fraction"] == 0.0
        occupied = set(np.clip((np.concatenate([scores.mean_score]) * 10).astype(int), 0, 9))
        assert set(report["violating_bins"]) == occupied

    def test_flags_match_direct_oracle(self, monkeypatch):
        rng = np.random.default_rng(7)
        scores = make_scores(rng.uniform(0, 1, 30), rng.uniform(0, 1, 30))
        bins = 8
        monkeypatch.setattr(bpsm, "POSITIVITY_BINS", bins)
        report = positivity_check(scores)
        assert report["bins"] == bins
        edges = np.linspace(0, 1, bins + 1)
        expected = []
        for b in range(bins):
            lo, hi = edges[b], edges[b + 1]
            in_bin = (scores.mean_score >= lo) & (
                (scores.mean_score < hi) if b < bins - 1 else (scores.mean_score <= hi)
            )
            n_t = np.sum(in_bin & scores.treated)
            n_c = np.sum(in_bin & ~scores.treated)
            if (n_t == 0) != (n_c == 0):
                expected.append(b)
        assert report["violating_bins"] == expected


class TestAtePsm:
    def test_reported_group_means(self):
        # one pair with the reported group means reproduces the arithmetic
        match = MatchResult(pairs=[("t0", "c0", 0.0)], unmatched_treated=[], method="nn_1to1")
        est = ate_psm(match, {"t0": 0.355, "c0": 0.391})
        assert est.point == pytest.approx(-0.036, abs=1e-12)

    def test_identical_outcomes_zero(self):
        match = MatchResult(
            pairs=[(0, 10, 0.0), (1, 11, 0.0)], unmatched_treated=[], method="nn_1to1"
        )
        y = {0: 2.0, 1: 3.0, 10: 2.0, 11: 3.0}
        assert ate_psm(match, y).point == 0.0

    def test_hand_arithmetic(self):
        match = MatchResult(
            pairs=[(0, 3, 0.0), (1, 4, 0.0), (2, 5, 0.0)],
            unmatched_treated=[], method="nn_1to1",
        )
        y = {0: 1.0, 1: 2.0, 2: 6.0, 3: 0.0, 4: 1.0, 5: 2.0}
        est = ate_psm(match, y)
        assert est.point == pytest.approx((9 - 3) / 3)

    def test_self_matched_exactly_zero(self):
        match = MatchResult(
            pairs=[(i, i, 0.0) for i in range(5)], unmatched_treated=[], method="nn_1to1"
        )
        y = {i: float(i) ** 1.5 for i in range(5)}
        assert ate_psm(match, y).point == 0.0

    def test_empty_pairs(self):
        with pytest.raises(EstimationError):
            ate_psm(MatchResult([], [], "nn_1to1"), {})

    def test_missing_id(self):
        match = MatchResult(pairs=[(0, 1, 0.0)], unmatched_treated=[], method="nn_1to1")
        with pytest.raises(ContractError):
            ate_psm(match, {0: 1.0})


class TestNaiveAte:
    def test_hand_arithmetic(self):
        est = naive_ate([1, 0, 1, 0], [3.0, 1.0, 5.0, 2.0])
        # means 4 and 1.5; se = sqrt(2 / 2 + 0.5 / 2)
        assert est.point == 2.5
        assert est.interval == pytest.approx((2.5 - Z_94 * 1.25**0.5, 2.5 + Z_94 * 1.25**0.5))
        assert est.estimand == "ate"

    def test_single_arm(self):
        with pytest.raises(PositivityError):
            naive_ate([1, 1], [1.0, 2.0])


def test_from_draws_keeps_a_skewed_posterior_mean():
    # 2% of the draws far out: the mean, 20, lies above both quantiles
    est = from_draws(np.r_[np.zeros(980), np.full(20, 1e3)], "ate_did")
    assert est.point == 20.0
    assert est.interval == (0.0, 0.0)


class TestMatchExport:
    def test_csv(self, tmp_path, monkeypatch):
        # the matches.csv of `boat bpsm`: a pair's ids as read, then the
        # distance's repr, which reads back exactly; the first distance is
        # set to 0.25 to pin the line format
        matches = []

        def match_with_a_round_distance(scores):
            match = nn_match_1to1(scores)
            match.pairs[0] = (*match.pairs[0][:2], 0.25)
            matches.append(match)
            return match

        monkeypatch.setattr(bpsm, "nn_match_1to1", match_with_a_round_distance)
        sim, out = tmp_path / "sim", tmp_path / "run"
        assert main(["simulate", "--scenario", "confounded_psm", "--n-control", "30",
                     "--n-treated", "10", "--out", str(sim)]) == 0
        assert main(["bpsm", "--data", str(sim / "units.csv"), "--covariates", "x1,x2",
                     "--match", "nn", "--draws", "40", "--warmup", "10",
                     "--out", str(out)]) == 0
        (match,) = matches
        lines = (out / "matches.csv").read_text().splitlines()
        assert lines[0] == "treated_id,control_id,distance"
        tid, cid, _ = match.pairs[0]
        assert lines[1] == f"{tid},{cid},0.25"
        assert lines[1:] == [f"{t},{c},{d!r}" for t, c, d in match.pairs]
        assert [float(line.split(",")[2]) for line in lines[1:]] == [d for _, _, d in match.pairs]
