import numpy as np
import pytest

from boat import brdd, prob_core
from boat.brdd import (
    RddDataset,
    ate_rdd,
    default_rdd_priors,
    density_continuity_check,
    fit_rdd,
    predict_lines,
)
from boat.errors import ContractError, EstimationError, InsufficientDataError, SchemaError
from boat.nuts import PosteriorSamples, SamplerConfig
from boat.prob_core import param_names

FAST = SamplerConfig(draws=1200, warmup=300, chains=2, seed=0)


def point_mass_posterior(names, values, n=64):
    draws = np.tile(np.asarray(values, dtype=float), (1, n, 1))
    return PosteriorSamples(param_names=list(names), draws=draws)


RDD_NAMES = ["alpha", "beta_slope", "beta_treat", "beta_slope_treat", "log_sigma"]


def make_data(seed=0, n=300, cutoff=60.0, ate=-1.2, slope=0.5, with_z=False):
    rng = np.random.default_rng(seed)
    x = rng.uniform(cutoff - 20, cutoff + 20, n)
    t = (x >= cutoff).astype(float)
    z = rng.uniform(0, 1, n) if with_z else None
    y = 2.0 + slope * (x - cutoff) + ate * t + rng.normal(0, 0.5, n)
    if with_z:
        y = y + 0.5 * z
    return RddDataset(assignment=x, y=y, cutoff=cutoff, z=z)


class TestDataset:
    def test_sharp_treatment_rule(self):
        d = RddDataset(assignment=[59.0, 60.0, 61.0], y=[0, 0, 0], cutoff=60.0)
        np.testing.assert_array_equal(d.t, [0, 1, 1])

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            RddDataset(assignment=[1.0, 2.0], y=[0.0], cutoff=1.5)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["assignment", "y", "z"])
    def test_non_finite_rejected_naming_field_and_row(self, field, value):
        columns = dict(assignment=np.array([59.0, 60.0, 61.0, 62.0]), y=np.zeros(4),
                       z=np.zeros(4))
        columns[field][2] = value
        with pytest.raises(SchemaError) as err:
            RddDataset(cutoff=60.0, **columns)
        assert str(err.value) == f"{field}: non-finite value {value} at row 2"

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_cutoff_rejected(self, value):
        with pytest.raises(SchemaError, match="^cutoff: non-finite value"):
            RddDataset(assignment=[59.0, 61.0], y=[0.0, 1.0], cutoff=value)


class TestAteRdd:
    def test_point_mass_draws(self):
        post = point_mass_posterior(RDD_NAMES, [0.626, 0.5, -1.1954, 0.0, np.log(0.213)])
        est = ate_rdd(post)
        assert est.point == pytest.approx(-1.1954, abs=1e-12)
        lo, hi = est.interval
        assert lo == pytest.approx(-1.1954) and hi == pytest.approx(-1.1954)

    def test_missing_param(self):
        post = point_mass_posterior(["alpha"], [1.0])
        with pytest.raises(ContractError):
            ate_rdd(post)


class TestFitRdd:
    def test_recovers_effect(self):
        post = fit_rdd(make_data(seed=1), cfg=FAST)
        est = ate_rdd(post)
        lo, hi = est.interval
        assert lo <= -1.2 <= hi
        assert abs(est.point + 1.2) < 0.4
        # only the keys that sample writes
        assert set(post.diagnostics) == {*post.param_names, "_divergences"}

    def test_shift_invariance_of_effect(self):
        d = make_data(seed=2, n=200)
        shifted = RddDataset(
            assignment=d.assignment + 100.0, y=d.y, cutoff=d.cutoff + 100.0
        )
        a = ate_rdd(fit_rdd(d, cfg=FAST)).point
        b = ate_rdd(fit_rdd(shifted, cfg=FAST)).point
        # centering makes the problem identical up to float noise in x
        assert a == pytest.approx(b, abs=0.15)

    def test_one_sided_data_rejected(self):
        d = make_data(seed=3, n=40)
        left = d.assignment < d.cutoff
        one_sided = RddDataset(assignment=d.assignment[left], y=d.y[left], cutoff=d.cutoff)
        with pytest.raises(EstimationError):
            fit_rdd(one_sided)

    def test_constant_y_rejected(self):
        with pytest.raises(EstimationError):
            fit_rdd(RddDataset(assignment=[59.0, 61.0], y=[1.0, 1.0], cutoff=60.0))

    @pytest.mark.parametrize("column, message", [
        ("assignment", "assignment variable's spread around the cutoff overflows"),
        ("y", "target variable's range overflows"),
    ], ids=["assignment", "y"])
    def test_overflowing_scale_rejected(self, column, message):
        # finite cells whose std or range overflows would scale every
        # regressor or outcome to 0 (or NaN): no fit is run on them
        d = make_data(seed=4, n=40)
        cells = {"assignment": d.assignment.copy(), "y": d.y.copy()}
        cells[column][:2] = (-1e308, 1e308) if column == "y" else (1e308, 1e308)
        data = RddDataset(assignment=cells["assignment"], y=cells["y"], cutoff=d.cutoff)
        with pytest.raises(EstimationError, match=f"^{message}$"):
            fit_rdd(data, cfg=FAST)

    def test_default_priors(self):
        p = default_rdd_priors()
        assert p.alpha_scale == 1.0
        assert p.beta_scale == 0.5
        assert prob_core.NOISE_SCALE == 5.0


class TestRegressors:
    """fit_rdd builds the local-linear regressors itself; the sampler is
    stubbed to capture what it is handed and to return draws of ones."""

    @pytest.fixture
    def captured(self, monkeypatch):
        seen = []

        def fake_sample(model, data, cfg=None):
            seen.append((model, data))
            names = param_names(model, data)
            return PosteriorSamples(param_names=names, draws=np.ones((1, 3, len(names))))

        monkeypatch.setattr(brdd, "sample", fake_sample)
        return seen

    @pytest.mark.parametrize("with_z", [False, True], ids=["no-z", "z"])
    def test_layout_names_and_back_transform(self, captured, with_z):
        d = make_data(seed=5, n=40, with_z=with_z)
        post = fit_rdd(d)
        (model, data), = captured
        assert model.family == "rdd_linear"
        s = float(np.std(d.assignment - d.cutoff))
        y_min, y_range = min(d.y), max(d.y) - min(d.y)
        rows = []
        for i in range(len(d.y)):
            xs, t = (d.assignment[i] - d.cutoff) / s, float(d.assignment[i] >= d.cutoff)
            rows.append([xs, t, xs * t] + ([d.z[i]] if with_z else []))
        assert np.array_equal(data.X, np.array(rows))
        assert np.array_equal(data.y, [(v - y_min) / y_range for v in d.y])
        z_names = ["beta_z"] if with_z else []
        assert data.covariate_names == ["beta_slope", "beta_treat", "beta_slope_treat", *z_names]
        assert post.param_names == ["alpha", *data.covariate_names, "log_sigma"]
        raw = [y_min + y_range, y_range / s, y_range, y_range / s, *([y_range] if with_z else []),
               1.0 + np.log(y_range)]
        assert np.array_equal(post.draws, np.tile(raw, (1, 3, 1)))


class TestPredictLines:
    def test_hand_arithmetic(self):
        post = point_mass_posterior(RDD_NAMES, [1.0, 0.5, -1.0, 0.1, 0.0])
        lines = predict_lines(post, [62.0], cutoff=60.0)
        assert lines["y_control"][0] == pytest.approx(1.0 + 0.5 * 2)
        assert lines["y_treated"][0] == pytest.approx(1.0 - 1.0 + (0.5 + 0.1) * 2)

    def test_gap_at_cutoff_equals_ate(self):
        post = fit_rdd(make_data(seed=4, n=150), cfg=FAST)
        lines = predict_lines(post, [60.0], cutoff=60.0)
        gap = lines["y_treated"][0] - lines["y_control"][0]
        assert gap == pytest.approx(ate_rdd(post).point, abs=1e-12)

    def test_z_shift(self):
        names = RDD_NAMES[:4] + ["beta_z", "log_sigma"]
        post = point_mass_posterior(names, [1.0, 0.5, -1.0, 0.0, 2.0, 0.0])
        a = predict_lines(post, [61.0], cutoff=60.0, z_fixed=0.0)
        b = predict_lines(post, [61.0], cutoff=60.0, z_fixed=0.25)
        assert b["y_control"][0] - a["y_control"][0] == pytest.approx(0.5)
        assert b["y_treated"][0] - a["y_treated"][0] == pytest.approx(0.5)

    def test_nonfinite_rejected(self):
        post = point_mass_posterior(RDD_NAMES, [1.0, 0.5, -1.0, 0.1, 0.0])
        with pytest.raises(ValueError):
            predict_lines(post, [np.nan], cutoff=60.0)


class TestDensityContinuity:
    def test_balanced_counts(self):
        x = np.concatenate([
            np.linspace(59.01, 59.99, 50), np.linspace(60.0, 60.98, 50)
        ])
        r = density_continuity_check(x, cutoff=60.0, bandwidth=1.0)
        assert r["left_count"] == 50
        assert r["right_count"] == 50
        assert r["ratio"] == 1.0
        assert r["p_value"] == pytest.approx(1.0)
        assert r["pass"]

    def test_bunching_detected(self):
        x = np.concatenate([
            np.linspace(59.6, 59.99, 5), np.linspace(60.0, 60.49, 60)
        ])
        r = density_continuity_check(x, cutoff=60.0, bandwidth=0.5)
        assert r["left_count"] == 5
        assert r["right_count"] == 60
        assert not r["pass"]

    def test_window_boundaries(self):
        # cutoff itself counts right; exact c - bw is outside the window
        x = np.array([59.0, 59.5, 60.0])
        r = density_continuity_check(x, cutoff=60.0, bandwidth=1.0)
        assert r["left_count"] == 1
        assert r["right_count"] == 1

    def test_empty_window(self):
        with pytest.raises(InsufficientDataError):
            density_continuity_check([0.0, 100.0], cutoff=60.0, bandwidth=0.5)

    @pytest.mark.parametrize("bandwidth", [0.0, -1.0, float("nan")])
    def test_bandwidth_must_be_positive(self, bandwidth):
        with pytest.raises(ValueError, match=r"^bandwidth must be > 0, got "):
            density_continuity_check([59.5, 60.5], cutoff=60.0, bandwidth=bandwidth)

    def test_binomial_p_small_case(self):
        # 0 of 6 on one side: p = 2 * (1/64) = 1/32
        x = np.full(6, 60.1)
        r = density_continuity_check(x, cutoff=60.0, bandwidth=1.0)
        assert r["p_value"] == pytest.approx(2 / 64, rel=1e-9)
        assert r["ratio"] is None
