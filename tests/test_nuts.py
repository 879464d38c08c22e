import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boat.nuts as nuts
from boat.bdid import PanelDataset, fit_did
from boat.errors import ContractError
from boat.nuts import (
    BASE_WINDOW,
    INIT_BUFFER,
    TERM_BUFFER,
    DualAveraging,
    PosteriorSamples,
    SamplerConfig,
    Target,
    _adaptation_windows,
    _e_bfmi,
    adapt_step_size,
    leapfrog,
    nuts_step,
    r_hat,
    sample,
    summarize,
)

STD_GAUSSIAN_1D = Target(
    logp=lambda q: -0.5 * float(q @ q),
    grad=lambda q: -q,
    names=("x",),
)
STD_GAUSSIAN_2D = Target(
    logp=lambda q: -0.5 * float(q @ q),
    grad=lambda q: -q,
    names=("x1", "x2"),
)


def gaussian_grad(q):
    return -q


class TestLeapfrog:
    def test_hand_computed_step(self):
        q, p = leapfrog(np.array([1.0]), np.array([0.0]), 0.1, gaussian_grad)
        assert q[0] == pytest.approx(0.995, abs=1e-12)
        assert p[0] == pytest.approx(-0.09975, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        q0=st.floats(-3, 3),
        p0=st.floats(-3, 3),
        step=st.floats(0.01, 0.5),
    )
    def test_reversibility(self, q0, p0, step):
        q, p = leapfrog(np.array([q0]), np.array([p0]), step, gaussian_grad)
        q_back, p_back = leapfrog(q, -p, step, gaussian_grad)
        assert abs(q_back[0] - q0) < 1e-10
        assert abs(-p_back[0] - p0) < 1e-10

    def test_energy_drift_is_second_order(self):
        def drift(step):
            q, p = np.array([1.0]), np.array([0.0])
            h0 = 0.5 * (q @ q + p @ p)
            for _ in range(100):
                q, p = leapfrog(q, p, step, gaussian_grad)
            return abs(0.5 * (q @ q + p @ p) - h0)

        d1, d2 = drift(0.02), drift(0.01)
        assert d1 / d2 == pytest.approx(4.0, rel=0.3)


class TestNutsStep:
    def test_tiny_step_hits_max_depth(self):
        rng = np.random.default_rng(0)
        q, accept, depth, diverged = nuts_step(
            np.array([0.0]), 1e-6, rng, STD_GAUSSIAN_1D, None, max_tree_depth=4
        )
        assert depth == 4
        assert np.isfinite(q).all()
        assert not diverged

    def test_gaussian_stationary_moments(self):
        rng = np.random.default_rng(7)
        q = np.array([0.0])
        draws = np.empty(5000)
        for i in range(5000):
            q, _, _, _ = nuts_step(q, 0.8, rng, STD_GAUSSIAN_1D, None)
            draws[i] = q[0]
        assert abs(draws.mean()) < 0.05
        assert abs(draws.var() - 1.0) < 0.1

    def test_no_divergences_from_mode_at_adapted_step(self):
        rng = np.random.default_rng(1)
        q = np.array([0.0, 0.0])
        n_div = 0
        for _ in range(1000):
            q, _, _, diverged = nuts_step(q, 0.7, rng, STD_GAUSSIAN_2D, None)
            n_div += diverged
        assert n_div == 0

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            nuts_step(np.array([0.0]), 0.0, np.random.default_rng(0), STD_GAUSSIAN_1D, None)


class TestDualAveraging:
    def test_on_target_keeps_initial_step(self):
        step = adapt_step_size([0.8] * 200, target_accept=0.8, initial_step=0.3)
        assert step == pytest.approx(0.3, rel=0.05)

    def test_zero_acceptance_monotone_decrease(self):
        da = DualAveraging(1.0, target_accept=0.8)
        steps = [da.update(0.0) for _ in range(50)]
        assert all(b < a for a, b in zip(steps, steps[1:]))

    def test_adapted_acceptance_in_band(self):
        cfg = SamplerConfig(draws=1500, warmup=500, chains=1, seed=11, target_accept=0.8)
        out = sample(STD_GAUSSIAN_2D, None, cfg=cfg)
        assert 0.7 <= out.chain_stats[0].mean_accept <= 0.98
        assert out.diagnostics["x1"]["rhat"] < 1.05


class TestSample:
    def test_deterministic_given_seed(self):
        cfg = SamplerConfig(draws=300, warmup=100, chains=2, seed=123)
        a = sample(STD_GAUSSIAN_2D, None, cfg=cfg)
        b = sample(STD_GAUSSIAN_2D, None, cfg=cfg)
        np.testing.assert_array_equal(a.draws, b.draws)

    def test_2d_gaussian_covariance(self):
        cfg = SamplerConfig(draws=2000, warmup=200, chains=4, seed=42)
        out = sample(STD_GAUSSIAN_2D, None, cfg=cfg)
        pooled = out.draws.reshape(-1, 2)
        cov = np.cov(pooled.T)
        rel = np.linalg.norm(cov - np.eye(2)) / np.linalg.norm(np.eye(2))
        assert rel < 0.10
        assert not out.warnings


def correlated_gaussian(sds, rho):
    corr = np.full((len(sds), len(sds)), rho)
    np.fill_diagonal(corr, 1.0)
    prec = np.linalg.inv(corr * np.outer(sds, sds))
    return Target(
        logp=lambda q: -0.5 * float(q @ prec @ q),
        grad=lambda q: -(prec @ q),
        names=tuple(f"q{i}" for i in range(len(sds))),
    )


class TestMetricAdaptation:
    @settings(max_examples=200, deadline=None)
    @given(warmup=st.integers(0, 5000))
    def test_window_schedule(self, warmup):
        windows = _adaptation_windows(warmup)
        first = min(INIT_BUFFER, warmup // 2)
        end = warmup - min(TERM_BUFFER, warmup // 10)
        if not windows:
            assert end - first < BASE_WINDOW
            return
        assert windows[0][0] >= first
        assert windows[-1][1] == end
        assert all(a[1] == b[0] for a, b in zip(windows, windows[1:]))
        sizes = [stop - start for start, stop in windows]
        assert sizes[0] >= BASE_WINDOW
        assert all(b >= a for a, b in zip(sizes, sizes[1:]))

    def test_dense_metric_on_ill_conditioned_gaussian(self):
        # SDs spanning three decades with pairwise correlation 0.9: the
        # identity metric needs hundreds of leapfrog steps per draw here
        sds = np.geomspace(1e-3, 1.0, 5)
        cfg = SamplerConfig(draws=400, warmup=200, chains=2, seed=0)
        out = sample(correlated_gaussian(sds, 0.9), None, cfg=cfg)
        kept = cfg.chains * (cfg.draws - cfg.warmup)
        assert sum(s.leapfrog_steps for s in out.chain_stats) / kept <= 10
        assert all(s.saturated == 0 for s in out.chain_stats)
        sd_ratio = out.draws.reshape(-1, 5).std(axis=0) / sds
        assert np.all((sd_ratio > 0.75) & (sd_ratio < 1.25))

    def test_large_panel_short_warmup_does_not_saturate(self):
        # with Stan's 15% initial buffer a chain's walk in from U(-2, 2)
        # lands in the window, and the metric it yields saturates the tree
        rng = np.random.default_rng(0)
        n = 10_000
        treated = rng.permutation(n) < n // 2
        X_pre, X_post = rng.uniform(size=(n, 3)), rng.uniform(size=(n, 3))
        beta = np.array([0.8, 0.2, -0.4])
        y_pre = 1.0 + 0.5 * treated + X_pre @ beta + rng.normal(0.0, 0.5, n)
        y_post = 1.7 + 0.2 * treated + X_post @ beta + rng.normal(0.0, 0.5, n)
        panel = PanelDataset(
            unit_ids=np.arange(n), y_pre=y_pre, y_post=y_post, treated=treated,
            X_pre=X_pre, X_post=X_post, covariate_names=["c1", "c2", "c3"],
        )
        cfg = SamplerConfig(draws=300, warmup=100, chains=2, seed=1)
        out = fit_did(panel, cfg=cfg)
        assert [s.saturated for s in out.chain_stats] == [0, 0]
        assert not out.warnings

    def test_one_dimensional_target(self):
        scaled = Target(logp=lambda q: -0.125 * float(q @ q), grad=lambda q: -q / 4,
                        names=("x",))
        out = sample(scaled, None, cfg=SamplerConfig(draws=600, warmup=200, chains=2, seed=0))
        assert out.draws.shape == (2, 400, 1)
        assert abs(out.draws.std() - 2.0) < 0.4
        assert all(s.metric_diag != (1.0,) for s in out.chain_stats)

    def test_warmup_too_short_for_any_window_keeps_identity(self):
        assert _adaptation_windows(40) == []
        out = sample(STD_GAUSSIAN_2D, None, cfg=SamplerConfig(draws=100, warmup=40, chains=2, seed=0))
        assert all(s.metric_diag == (1.0, 1.0) for s in out.chain_stats)
        assert np.isfinite(out.draws).all()


class TestChainStats:
    def test_record_is_consistent(self):
        cfg = SamplerConfig(draws=300, warmup=100, chains=2, seed=4)
        out = sample(STD_GAUSSIAN_2D, None, cfg=cfg)
        assert len(out.chain_stats) == 2
        for s in out.chain_stats:
            assert len(s.tree_depths) == cfg.max_tree_depth + 1
            assert sum(s.tree_depths) == cfg.draws - cfg.warmup
            assert s.saturated == s.tree_depths[-1]
            assert s.leapfrog_steps >= sum(s.tree_depths)
            assert 0.0 < s.mean_accept <= 1.0
            assert s.step_size > 0
            assert len(s.metric_diag) == 2
            assert 0.5 < s.e_bfmi < 2.0
        assert out.diagnostics["_divergences"] == [s.divergences for s in out.chain_stats]

    def test_saturation_warning(self):
        cfg = SamplerConfig(draws=200, warmup=50, chains=1, seed=0, max_tree_depth=1)
        out = sample(STD_GAUSSIAN_2D, None, cfg=cfg)
        assert out.chain_stats[0].saturated > 15
        assert any("max_tree_depth=1" in w for w in out.warnings)

    def test_low_e_bfmi_warning(self, monkeypatch):
        monkeypatch.setattr(nuts, "_e_bfmi", lambda energy: 0.1)
        out = sample(STD_GAUSSIAN_2D, None, cfg=SamplerConfig(draws=60, warmup=10, chains=1))
        assert any("E-BFMI" in w for w in out.warnings)

    def test_e_bfmi_estimator(self):
        rng = np.random.default_rng(0)
        # independent energies: E[diff^2] = 2 Var; a random walk: far below 0.3
        assert _e_bfmi(rng.normal(size=20_000)) == pytest.approx(2.0, rel=0.05)
        assert _e_bfmi(np.cumsum(rng.normal(size=2_000))) < 0.3
        assert _e_bfmi(np.ones(10)) is None


class TestRhat:
    def test_constant_chains_are_degenerate(self):
        with pytest.warns(RuntimeWarning):
            assert r_hat([np.ones(100), np.ones(100)]) == np.inf

    def test_same_distribution_near_one(self):
        rng = np.random.default_rng(0)
        chains = [rng.normal(size=10_000), rng.normal(size=10_000)]
        assert 0.999 <= r_hat(chains) <= 1.01

    def test_offset_chains_large(self):
        rng = np.random.default_rng(1)
        chains = [rng.normal(size=1000), rng.normal(size=1000) + 10]
        assert r_hat(chains) > 2.0

    def test_single_stationary_chain_split(self):
        rng = np.random.default_rng(2)
        assert r_hat([rng.normal(size=10_000)]) < 1.02

    def test_too_short(self):
        with pytest.raises(ContractError):
            r_hat([np.array([1.0, 2.0])])


class TestSummarize:
    def make(self, values):
        values = np.asarray(values, dtype=float)
        return PosteriorSamples(
            param_names=["p"], draws=values.reshape(1, -1, 1)
        )

    def test_single_constant(self):
        s = summarize(self.make([3.5]))["p"]
        assert s["mean"] == 3.5
        assert s["std"] == 0.0

    def test_hand_arithmetic(self):
        s = summarize(self.make([1, 2, 3, 4]))["p"]
        assert s["mean"] == pytest.approx(2.5)
        assert s["std"] == pytest.approx(1.118033988749895)

    def test_gaussian_interval(self):
        rng = np.random.default_rng(3)
        s = summarize(self.make(rng.normal(size=10_000)))["p"]
        lo, hi = s["interval_94"]
        assert lo == pytest.approx(-1.8807936, abs=0.08)
        assert hi == pytest.approx(1.8807936, abs=0.08)


class TestExport:
    def test_draws_csv_round_trip(self, tmp_path):
        cfg = SamplerConfig(draws=50, warmup=10, chains=2, seed=9)
        out = sample(STD_GAUSSIAN_2D, None, cfg=cfg)
        path = tmp_path / "draws.csv"
        out.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "x1,x2"
        loaded = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_allclose(loaded, out.draws.reshape(-1, 2), rtol=1e-6)

    def test_summary_json(self, tmp_path):
        import json

        cfg = SamplerConfig(draws=50, warmup=10, chains=2, seed=9)
        out = sample(STD_GAUSSIAN_2D, None, cfg=cfg)
        path = tmp_path / "summary.json"
        out.summary_json(path)
        data = json.loads(path.read_text())
        assert set(data) == {"x1", "x2"}
        assert "mean" in data["x1"]

    def test_summary_json_writes_infinite_rhat_as_null(self, tmp_path):
        import json

        out = PosteriorSamples(param_names=["p"], draws=np.ones((2, 10, 1)),
                               diagnostics={"p": {"rhat": float("inf")}})
        path = tmp_path / "summary.json"
        out.summary_json(path)

        def reject(constant):
            raise ValueError(f"non-strict JSON constant {constant}")

        data = json.loads(path.read_text(), parse_constant=reject)
        assert data["p"]["rhat"] is None
