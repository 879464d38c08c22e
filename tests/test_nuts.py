import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boat.errors import ContractError
from boat.nuts import (
    DualAveraging,
    PosteriorSamples,
    SamplerConfig,
    Target,
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
        # re-run the kept segment's acceptance via the recorded draws is
        # indirect; instead check mixing quality: R-hat near 1
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
