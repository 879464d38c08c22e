import numpy as np
import pytest

from boat import simulate
from boat.cli import build_parser, main
from boat.effects import naive_ate
from boat.simulate import (
    ScenarioSpec,
    simulate_confounded,
    simulate_discontinuity,
    simulate_seasonal_panel,
)


class TestScenarioSpec:
    def test_unknown_scenario(self):
        # each simulate function is its scenario; the CLI names them
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--scenario", "ab_test", "--out", "o"])

    def test_tiny_groups(self):
        with pytest.raises(ValueError):
            ScenarioSpec(n_control=1)

    def test_bad_noise(self):
        with pytest.raises(ValueError):
            ScenarioSpec(noise_sd=0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["true_ate", "confound_strength", "seasonal_amplitude",
                                       "cutoff", "slope", "noise_sd"])
    def test_rejects_non_finite_floats_naming_field_and_value(self, field, value):
        with pytest.raises(ValueError) as err:
            ScenarioSpec(**{field: value})
        assert str(err.value) == f"{field} must be finite, got {value!r}"


class TestConfounded:
    def test_deterministic(self):
        spec = ScenarioSpec(seed=7, confound_strength=2.0)
        a, ta = simulate_confounded(spec)
        b, tb = simulate_confounded(spec)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.t, b.t)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(ta["true_propensity"], tb["true_propensity"])

    def test_shapes_and_mixed_assignment(self, monkeypatch):
        monkeypatch.setattr(simulate, "N_COVARIATES", 3)
        spec = ScenarioSpec(n_control=100, n_treated=30)
        data, truth = simulate_confounded(spec)
        assert data.X.shape == (130, 3)
        assert data.covariate_names == ["x1", "x2", "x3"]
        assert 0 < data.t.sum() < 130
        assert truth["true_ate"] == -0.3

    def test_zero_confounding_naive_unbiased(self):
        # with no confounding the naive contrast is centered on the truth
        points = []
        for seed in range(30):
            spec = ScenarioSpec(
                n_control=300, n_treated=100,
                true_ate=-0.3, confound_strength=0.0, seed=seed,
            )
            data, _ = simulate_confounded(spec)
            points.append(naive_ate(data.t, data.y).point)
        se = np.std(points, ddof=1) / np.sqrt(len(points))
        assert abs(np.mean(points) + 0.3) < 3 * se + 1e-9

    def test_strong_confounding_biases_naive(self):
        # x1 pushes units into treatment and raises the baseline, so the
        # naive contrast overshoots the negative truth
        points = []
        for seed in range(20):
            spec = ScenarioSpec(
                n_control=400, n_treated=40,
                true_ate=-0.3, confound_strength=3.0, seed=seed,
            )
            data, _ = simulate_confounded(spec)
            points.append(naive_ate(data.t, data.y).point)
        assert np.mean(points) > -0.3 + 0.2

    def test_propensity_monotone_in_x1(self):
        spec = ScenarioSpec(confound_strength=2.0, seed=1)
        data, truth = simulate_confounded(spec)
        order = np.argsort(data.X[:, 0])
        p = truth["true_propensity"][order]
        assert np.all(np.diff(p) >= 0)


class TestSeasonalPanel:
    def test_deterministic(self):
        spec = ScenarioSpec(seed=3, seasonal_amplitude=2.0)
        a, _ = simulate_seasonal_panel(spec)
        b, _ = simulate_seasonal_panel(spec)
        np.testing.assert_array_equal(a.y_pre, b.y_pre)
        np.testing.assert_array_equal(a.y_post, b.y_post)

    def test_common_shock_cancels_in_did(self):
        # cell-mean arithmetic removes the seasonal shift entirely
        from boat.bdid import ate_did_from_means

        estimates = []
        for seed in range(30):
            spec = ScenarioSpec(
                n_control=200, n_treated=200,
                true_ate=-0.3, seasonal_amplitude=5.0, seed=seed,
            )
            panel, _ = simulate_seasonal_panel(spec)
            estimates.append(
                ate_did_from_means(
                    float(np.mean(panel.y_pre[~panel.treated])),
                    float(np.mean(panel.y_post[~panel.treated])),
                    float(np.mean(panel.y_pre[panel.treated])),
                    float(np.mean(panel.y_post[panel.treated])),
                )
            )
        se = np.std(estimates, ddof=1) / np.sqrt(len(estimates))
        assert abs(np.mean(estimates) + 0.3) < 3 * se + 1e-9

    def test_post_minus_pre_contains_shock(self):
        spec = ScenarioSpec(
            n_control=2000, n_treated=2000,
            seasonal_amplitude=5.0, true_ate=0.0, noise_sd=0.5, seed=0,
        )
        panel, truth = simulate_seasonal_panel(spec)
        shift = float(np.mean(panel.y_post) - np.mean(panel.y_pre))
        assert shift == pytest.approx(truth["seasonal_shift"], abs=0.1)


class TestDiscontinuity:
    def test_deterministic(self):
        spec = ScenarioSpec(seed=5)
        a, _ = simulate_discontinuity(spec)
        b, _ = simulate_discontinuity(spec)
        np.testing.assert_array_equal(a.assignment, b.assignment)
        np.testing.assert_array_equal(a.y, b.y)

    def test_sharp_rule_and_support(self):
        spec = ScenarioSpec(cutoff=60.0, n_control=500, n_treated=500, seed=2)
        data, _ = simulate_discontinuity(spec)
        assert np.all(data.assignment >= 40.0) and np.all(data.assignment <= 80.0)
        np.testing.assert_array_equal(data.t, (data.assignment >= 60.0).astype(int))

    def test_local_gap_matches_truth(self, monkeypatch):
        # mean gap in a narrow window around the cutoff approaches the
        # true effect as noise averages out
        monkeypatch.setattr(simulate, "Z_COEF", 0.0)
        spec = ScenarioSpec(
            n_control=20000, n_treated=20000,
            true_ate=-1.2, slope=0.0, noise_sd=0.5, seed=0,
        )
        data, _ = simulate_discontinuity(spec)
        near = np.abs(data.assignment - 60.0) < 1.0
        t = data.t[near]
        gap = float(np.mean(data.y[near][t == 1]) - np.mean(data.y[near][t == 0]))
        assert gap == pytest.approx(-1.2, abs=0.1)


class TestCsvWriters:
    """The CSV `boat simulate` writes holds its scenario's data exactly; the
    command's defaults are ScenarioSpec's."""

    def simulated_lines(self, tmp_path, scenario, name):
        argv = ["simulate", "--scenario", scenario, "--seed", "1", "--out", str(tmp_path)]
        assert main(argv) == 0
        return (tmp_path / name).read_text().splitlines()

    def test_design_round_trip(self, tmp_path):
        data, _ = simulate_confounded(ScenarioSpec(seed=1))
        lines = self.simulated_lines(tmp_path, "confounded_psm", "units.csv")
        assert lines[0] == "unit_id,group,y,x1,x2"
        assert len(lines) == 1 + len(data.y)
        parts = lines[1].split(",")
        assert float(parts[2]) == data.y[0]
        assert float(parts[3]) == data.X[0, 0]

    def test_panel_long_format(self, tmp_path):
        panel, _ = simulate_seasonal_panel(ScenarioSpec(seed=1))
        lines = self.simulated_lines(tmp_path, "seasonal_did", "panel.csv")
        assert lines[0] == "unit_id,group,period,y"
        assert len(lines) == 1 + 2 * len(panel.unit_ids)
        n = len(panel.unit_ids)
        assert lines[1].split(",")[2] == "pre"
        assert lines[1 + n].split(",")[2] == "post"

    def test_rdd_exact_floats(self, tmp_path):
        data, _ = simulate_discontinuity(ScenarioSpec(seed=1))
        lines = self.simulated_lines(tmp_path, "cutoff_rdd", "rdd.csv")
        assert lines[0] == "unit_id,x,y,z"
        xs = np.array([float(l.split(",")[1]) for l in lines[1:]])
        np.testing.assert_array_equal(xs, data.assignment)
