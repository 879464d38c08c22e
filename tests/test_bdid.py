import numpy as np
import pytest

from boat import bdid
from boat.bdid import (
    PanelDataset,
    ate_did,
    ate_did_from_means,
    fit_did,
    parallel_trend_check,
)
from boat.errors import ContractError, InsufficientDataError, SchemaError
from boat.nuts import PosteriorSamples, SamplerConfig
from boat.prob_core import param_names

FAST = SamplerConfig(draws=1200, warmup=300, chains=2, seed=0)


def make_panel(seed=0, n=60, effect=1.0, shock=0.5):
    rng = np.random.default_rng(seed)
    treated = np.zeros(n, dtype=bool)
    treated[: n // 3] = True
    base = rng.normal(0, 1, n) * 0 + 0.5 * treated
    y_pre = base + rng.normal(0, 0.3, n)
    y_post = base + shock + effect * treated + rng.normal(0, 0.3, n)
    return PanelDataset(
        unit_ids=np.arange(n), y_pre=y_pre, y_post=y_post, treated=treated
    )


class TestCellMeanArithmetic:
    def test_reported_fleet_means(self):
        # control 205.30 -> 218.93, treatment 190.45 -> 204.36
        v = ate_did_from_means(205.30, 218.93, 190.45, 204.36)
        assert v == pytest.approx(0.28, abs=0.005)

    def test_hand_values(self):
        assert ate_did_from_means(1.0, 2.0, 3.0, 5.0) == pytest.approx(1.0)

    def test_no_change_anywhere(self):
        assert ate_did_from_means(4.2, 4.2, 7.7, 7.7) == 0.0

    def test_common_shock_cancels(self):
        base = ate_did_from_means(1.0, 2.0, 3.0, 5.0)
        shocked = ate_did_from_means(1.0 + 9, 2.0 + 9, 3.0, 5.0 + 9 - 9)
        # adding the same shock to both post cells leaves the value alone
        assert ate_did_from_means(1.0, 2.0 + 9, 3.0, 5.0 + 9) == pytest.approx(base)
        del shocked


class TestPanelDataset:
    def test_one_group_missing(self):
        with pytest.raises(ContractError):
            PanelDataset(
                unit_ids=np.arange(3),
                y_pre=np.zeros(3),
                y_post=np.zeros(3),
                treated=np.ones(3, dtype=bool),
            )

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            PanelDataset(
                unit_ids=np.arange(3),
                y_pre=np.zeros(2),
                y_post=np.zeros(3),
                treated=np.array([True, False, False]),
            )

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field, label", [
        ("y_pre", "y_pre"), ("y_post", "y_post"), ("X_pre", "X_pre covariate 'c2'"),
        ("X_post", "X_post covariate 'c2'"), ("treated", "treated"),
    ])
    def test_non_finite_rejected_naming_field_and_row(self, field, label, value):
        columns = dict(
            unit_ids=np.arange(4), y_pre=np.zeros(4), y_post=np.zeros(4),
            treated=np.array([1.0, 0.0, 0.0, 1.0]), X_pre=np.zeros((4, 2)),
            X_post=np.zeros((4, 2)), covariate_names=["c1", "c2"],
        )
        columns[field][(2, 1) if field.startswith("X") else 2] = value
        with pytest.raises(SchemaError) as err:
            PanelDataset(**columns)
        assert str(err.value) == f"{label}: non-finite value {value} at row 2"

    @pytest.mark.parametrize("treated, message", [
        ([0, 2, -1], "treated: non-binary value 2 at row 1"),
        ([1.0, 0.0, 0.5], "treated: non-binary value 0.5 at row 2"),
        (["1", "0", "1"], "treated: non-binary value '1' at row 0"),
    ], ids=["int", "float", "str"])
    def test_non_binary_treated_rejected_naming_row(self, treated, message):
        with pytest.raises(ContractError) as err:
            PanelDataset(unit_ids=np.arange(3), y_pre=np.zeros(3), y_post=np.zeros(3),
                         treated=np.array(treated))
        assert str(err.value) == message

    @pytest.mark.parametrize("treated", [[0, 1, 1], [0.0, 1.0, 1.0], [False, True, True]],
                             ids=["int", "float", "bool"])
    def test_binary_treated_accepted(self, treated):
        panel = PanelDataset(unit_ids=np.arange(3), y_pre=np.zeros(3), y_post=np.zeros(3),
                             treated=np.array(treated))
        np.testing.assert_array_equal(panel.treated, [False, True, True])

    def test_covariates_both_or_neither(self):
        with pytest.raises(ContractError):
            PanelDataset(
                unit_ids=np.arange(2),
                y_pre=np.zeros(2),
                y_post=np.zeros(2),
                treated=np.array([True, False]),
                X_pre=np.zeros((2, 1)),
            )


    @pytest.mark.parametrize("X_pre, X_post, names, message", [
        ((4, 2), (4, 3), None, "X_post has shape (4, 3), expected (4, 2)"),
        ((3, 2), (4, 2), None, "X_pre has shape (3, 2), expected (4, 2)"),
        ((4, 2), (5, 2), None, "X_post has shape (5, 2), expected (4, 2)"),
        ((4,), (4,), None, "X_pre has shape (4,), expected (4, k)"),
        ((4, 2), (4, 2), ["a"], "covariate_names has 1 names for 2 columns"),
        ((4, 2), (4, 2), ["a", "b", "c"], "covariate_names has 3 names for 2 columns"),
    ], ids=["widths", "pre-rows", "post-rows", "one-dimensional", "few-names", "many-names"])
    def test_covariate_shapes_rejected_naming_field(self, X_pre, X_post, names, message):
        with pytest.raises(ContractError) as err:
            PanelDataset(unit_ids=np.arange(4), y_pre=np.zeros(4), y_post=np.zeros(4),
                         treated=np.array([1, 0, 0, 1]), X_pre=np.zeros(X_pre),
                         X_post=np.zeros(X_post), covariate_names=names)
        assert str(err.value) == message


class TestFitDid:
    def test_recovers_interaction(self):
        panel = make_panel(seed=1, effect=1.0)
        post = fit_did(panel, cfg=FAST)
        est = ate_did(post)
        lo, hi = est.interval
        assert lo <= 1.0 <= hi
        assert abs(est.point - 1.0) < 0.3

    def test_constant_outcome_shift_invariance(self):
        panel = make_panel(seed=2)
        shifted = PanelDataset(
            unit_ids=panel.unit_ids,
            y_pre=panel.y_pre + 5.0,
            y_post=panel.y_post + 5.0,
            treated=panel.treated,
        )
        a = ate_did(fit_did(panel, cfg=FAST))
        b = ate_did(fit_did(shifted, cfg=FAST))
        # the interaction term is shift invariant up to sampler noise
        assert abs(a.point - b.point) < 0.15

    def test_cell_mean_consistency(self):
        panel = make_panel(seed=3, effect=0.8)
        post = fit_did(panel, cfg=SamplerConfig(draws=2200, warmup=400, chains=2, seed=4))
        est = ate_did(post)
        cells = ate_did_from_means(
            float(np.mean(panel.y_pre[~panel.treated])),
            float(np.mean(panel.y_post[~panel.treated])),
            float(np.mean(panel.y_pre[panel.treated])),
            float(np.mean(panel.y_post[panel.treated])),
        )
        # saturated model: posterior mean approaches the cell-mean value
        assert est.point == pytest.approx(cells, abs=0.12)

    def test_missing_interaction_param(self):
        post = PosteriorSamples(
            param_names=["alpha"], draws=np.zeros((1, 10, 1))
        )
        with pytest.raises(ContractError):
            ate_did(post)


class TestRegressors:
    """fit_did builds the long-format regressors itself; the sampler is
    stubbed to capture what it is handed."""

    @pytest.fixture
    def captured(self, monkeypatch):
        seen = []

        def fake_sample(model, data, cfg=None):
            seen.append((model, data))
            names = param_names(model, data)
            return PosteriorSamples(param_names=names, draws=np.zeros((1, 3, len(names))))

        monkeypatch.setattr(bdid, "sample", fake_sample)
        return seen

    @pytest.mark.parametrize("covariates, names", [
        (None, []),
        (["age", "km"], ["beta_age", "beta_km"]),
        ([], ["beta_x0", "beta_x1"]),
    ], ids=["none", "named", "unnamed"])
    def test_layout_and_names(self, captured, covariates, names):
        rng = np.random.default_rng(4)
        n = 5
        treated = np.array([1, 0, 1, 0, 0], dtype=bool)
        X_pre, X_post = (None, None) if covariates is None else rng.normal(size=(2, n, 2))
        panel = PanelDataset(np.arange(n), rng.normal(size=n), rng.normal(size=n), treated,
                             X_pre, X_post, covariates or None)
        post = fit_did(panel)
        (model, data), = captured
        assert model.family == "did_linear"
        rows = []
        for period, X in ((0.0, X_pre), (1.0, X_post)):
            for i in range(n):
                t = float(treated[i])
                rows.append([t, period, t * period] + ([] if X is None else list(X[i])))
        assert np.array_equal(data.X, np.array(rows))
        assert np.array_equal(data.y, np.concatenate([panel.y_pre, panel.y_post]))
        assert np.array_equal(data.t, np.tile(treated, 2))
        assert data.covariate_names == ["theta_treat", "theta_period", "theta_interaction", *names]
        assert post.param_names == ["alpha", *data.covariate_names, "log_sigma"]


class TestParallelTrend:
    def test_identical_series_pass(self):
        r = parallel_trend_check([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        assert r["pass"]
        assert r["abs_slope_gap"] == pytest.approx(0.0, abs=1e-12)

    def test_hand_slopes(self):
        r = parallel_trend_check([0.0, 2.0], [0.0, 1.0])
        assert r["slope_c"] == pytest.approx(2.0)
        assert r["slope_t"] == pytest.approx(1.0)
        assert r["abs_slope_gap"] == pytest.approx(1.0)
        assert not r["pass"]

    def test_default_tolerance_is_quarter_sd(self):
        yc, yt = [1.0, 2.0, 3.0], [1.0, 2.5, 4.0]
        r = parallel_trend_check(yc, yt)
        expected = 0.25 * float(np.std(np.concatenate([yc, yt])))
        assert r["tolerance"] == pytest.approx(expected)

    def test_too_few_points(self):
        with pytest.raises(InsufficientDataError):
            parallel_trend_check([1.0], [1.0])

    def test_unequal_lengths(self):
        with pytest.raises(ContractError):
            parallel_trend_check([1.0, 2.0], [1.0, 2.0, 3.0])
