"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line so the whole gate can be read off a
plain pytest -s run. The statistical recovery tests (debiasing and the
two coverage suites) repeat a scenario over 20 seeds and require the
stated hit counts, so a single unlucky seed cannot flip them.
"""

import contextlib
import os
import time

import numpy as np
import pytest

from boat.bdid import PanelDataset, ate_did, ate_did_from_means, fit_did
from boat.bpsm import (
    ate_psm,
    caliper_match,
    fit_propensity,
    nn_match_1to1,
    propensity_scores,
)
from boat.brdd import ate_rdd, fit_rdd, predict_lines
from boat.cli import (
    RECOMMEND_BDID,
    RECOMMEND_BPSM,
    RECOMMEND_BRDD,
    RECOMMEND_OUT_OF_SCOPE,
    RECOMMEND_RANDOMISE,
    RECOMMEND_STRATIFY,
    advise,
    main,
)
from boat.effects import Z_94, naive_ate
from boat.nuts import SamplerConfig, Target, sample, summarize
from boat.pipeline import (
    COVARIATE_NAMES,
    DesignMatrix,
    filter_trips,
    ingest_trips,
)
from boat.prob_core import (
    ModelSpec,
    PriorSpec,
    log_posterior,
    log_posterior_grad,
    param_names,
)
from boat.simulate import (
    ScenarioSpec,
    simulate_confounded,
    simulate_discontinuity,
    simulate_seasonal_panel,
)
from test_bpsm import greedy_oracle, make_scores
from test_pipeline import EXPECTED_V1, FIVE_TRIPS, csv_source


@pytest.fixture
def criterion(capfd):
    """One printed verdict line per criterion, bypassing output capture."""

    @contextlib.contextmanager
    def _criterion(label):
        try:
            yield
        except BaseException:
            with capfd.disabled():
                print(f"[acceptance] {label}: FAIL", flush=True)
            raise
        with capfd.disabled():
            print(f"[acceptance] {label}: PASS", flush=True)

    return _criterion


def test_01_sampler_correctness(criterion):
    with criterion("01 sampler correctness (2-D Gaussian)"):
        target = Target(
            logp=lambda q: -0.5 * float(q @ q), grad=lambda q: -q, names=("x1", "x2")
        )
        # 2,000 kept draws per chain after 200 warm-up
        cfg = SamplerConfig(draws=2200, warmup=200, chains=4, seed=0)
        t0 = time.time()
        out = sample(target, None, cfg=cfg)
        elapsed = time.time() - t0
        pooled = out.draws.reshape(-1, 2)
        assert pooled.shape == (8000, 2)
        assert np.all(np.abs(pooled.mean(axis=0)) < 0.05)
        cov = np.cov(pooled.T)
        assert np.linalg.norm(cov - np.eye(2)) / np.linalg.norm(np.eye(2)) < 0.10
        for name in ("x1", "x2"):
            assert out.diagnostics[name]["rhat"] < 1.01
        assert sum(out.diagnostics["_divergences"]) == 0
        assert elapsed < 60.0


def test_02_gradient_fidelity(criterion):
    with criterion("02 gradient vs central finite differences"):
        rng_data = np.random.default_rng(0)
        n = 30
        for family in ("logistic", "did_linear", "rdd_linear"):
            # each family draws X, t, y, tau, a and z in turn; the linear ones
            # fit the regressors that fit_did and fit_rdd build from them
            X = rng_data.uniform(0, 1, (n, 3))
            t, y = rng_data.integers(0, 2, n), rng_data.normal(0, 1, n)
            tau = rng_data.integers(0, 2, n).astype(float)
            a, z = rng_data.uniform(-2, 2, n) + 60.0, rng_data.uniform(0, 1, n)
            tf, xc = t.astype(float), a - 60.0
            C, names = {
                "logistic": (X, ["a", "b", "c"]),
                "did_linear": (np.column_stack([tf, tau, tf * tau, X]),
                               ["theta_treat", "theta_period", "theta_interaction",
                                "beta_a", "beta_b", "beta_c"]),
                "rdd_linear": (np.column_stack([xc, tf, xc * tf, z]),
                               ["beta_slope", "beta_treat", "beta_slope_treat", "beta_z"]),
            }[family]
            dm = DesignMatrix(unit_ids=np.arange(n), X=C, t=t, y=y, covariate_names=names)
            model = ModelSpec(family, PriorSpec(alpha_scale=1.0, beta_scale=0.7))
            d = len(param_names(model, dm))
            rng = np.random.default_rng(42)
            for _ in range(100):
                p = rng.uniform(-2, 2, d)
                g = log_posterior_grad(model, dm, p)
                for i in range(d):
                    h = 1e-6 * max(1.0, abs(p[i]))
                    pp, pm = p.copy(), p.copy()
                    pp[i] += h
                    pm[i] -= h
                    fd = (
                        log_posterior(model, dm, pp) - log_posterior(model, dm, pm)
                    ) / (2 * h)
                    assert abs(g[i] - fd) <= 1e-5 * max(1.0, abs(fd))


# frozen output of grid_oracle_means() below (165.96 s on the reference
# machine); set BOAT_RUN_GRID_ORACLE=1 to recompute it inside the test run
GRID_ORACLE_MEANS = np.array([0.03116647, 1.11156205, -0.44744709])


def logistic_fixture():
    rng = np.random.default_rng(123)
    n = 50
    X = rng.uniform(0, 1, (n, 2))
    eta = -0.5 + 2.0 * X[:, 0] - 1.0 * X[:, 1]
    t = (rng.uniform(size=n) < 1 / (1 + np.exp(-eta))).astype(int)
    return DesignMatrix(np.arange(n), X, t, np.zeros(n), ["x1", "x2"])


def grid_oracle_means(dm):
    """Trapezoid quadrature over [-5, 5]^3 at step 0.02 for the logistic
    posterior with N(0,1) priors. Independent of the sampler code."""
    X, t = dm.X, dm.t
    grid = np.arange(-5.0, 5.0 + 1e-9, 0.02)
    g = grid.size
    plane = (
        X[:, 0][:, None, None] * grid[None, :, None]
        + X[:, 1][:, None, None] * grid[None, None, :]
    ).astype(np.float32)
    tf = t.astype(float)
    sum_t = tf.sum()
    sum_tx1 = (tf * X[:, 0]).sum()
    sum_tx2 = (tf * X[:, 1]).sum()
    B1, B2 = np.meshgrid(grid, grid, indexing="ij")
    lin = B1 * sum_tx1 + B2 * sum_tx2 - 0.5 * (B1**2 + B2**2)
    w1d = np.ones(g)
    w1d[0] = w1d[-1] = 0.5
    W2 = np.outer(w1d, w1d)
    offset = -np.inf
    for a in grid[::20]:
        lp = a * sum_t + lin - 0.5 * a * a - np.logaddexp(
            0, np.float32(a) + plane
        ).sum(axis=0)
        offset = max(offset, lp.max())
    S = Sa = Sb1 = Sb2 = 0.0
    for i, a in enumerate(grid):
        lp = a * sum_t + lin - 0.5 * a * a - np.logaddexp(
            0, np.float32(a) + plane, dtype=np.float32
        ).sum(axis=0, dtype=np.float64)
        w = np.exp(lp - offset) * W2 * w1d[i]
        s = w.sum()
        S += s
        Sa += a * s
        Sb1 += (B1 * w).sum()
        Sb2 += (B2 * w).sum()
    return np.array([Sa / S, Sb1 / S, Sb2 / S])


def test_03_posterior_vs_grid_oracle(criterion):
    with criterion("03 logistic posterior vs quadrature oracle"):
        dm = logistic_fixture()
        oracle = GRID_ORACLE_MEANS
        t0 = time.time()
        if os.environ.get("BOAT_RUN_GRID_ORACLE") == "1":
            oracle = grid_oracle_means(dm)
            np.testing.assert_allclose(oracle, GRID_ORACLE_MEANS, atol=1e-5)
        post = fit_propensity(dm, cfg=SamplerConfig(draws=4000, warmup=500, chains=2, seed=5))
        s = summarize(post)
        means = np.array(
            [s["alpha"]["mean"], s["beta_x1"]["mean"], s["beta_x2"]["mean"]]
        )
        assert np.all(np.abs(means - oracle) < 0.05)
        assert time.time() - t0 < 300.0


def test_04_matching_oracle(criterion):
    with criterion("04 matching vs brute-force greedy (50 instances)"):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            n_t = int(rng.integers(1, 12))
            n_c = int(rng.integers(n_t, max(n_t + 1, 25 - n_t)))
            ts = rng.uniform(0.02, 0.98, n_t)
            cs = rng.uniform(0.02, 0.98, n_c)
            scores = make_scores(ts, cs)
            treated = [(i, ts[i]) for i in range(n_t)]
            control = [(n_t + j, cs[j]) for j in range(n_c)]
            m_cal = caliper_match(scores, 0.05)
            pairs, unmatched = greedy_oracle(treated, control, 0.05)
            assert [(a, b) for a, b, _ in m_cal.pairs] == [(a, b) for a, b, _ in pairs]
            assert m_cal.unmatched_treated == unmatched
            m_nn = nn_match_1to1(scores)
            pairs, _ = greedy_oracle(treated, control, None)
            assert [(a, b) for a, b, _ in m_nn.pairs] == [(a, b) for a, b, _ in pairs]


def test_05_did_cell_mean_arithmetic(criterion):
    with criterion("05 DID cell-mean arithmetic"):
        assert ate_did_from_means(205.30, 218.93, 190.45, 204.36) == pytest.approx(
            0.28, abs=0.005
        )


def test_06_bpsm_debiasing(criterion):
    with criterion("06 matching removes confounding bias (20 seeds)"):
        t0 = time.time()
        naive_missed = 0
        covered = 0
        cfg_base = dict(draws=1200, warmup=300, chains=2)
        for seed in range(20):
            spec = ScenarioSpec(
                n_control=400, n_treated=40,
                true_ate=-0.3, confound_strength=3.0, seed=seed,
            )
            data, _ = simulate_confounded(spec)
            est_naive = naive_ate(data.t, data.y)
            se = (est_naive.interval[1] - est_naive.point) / Z_94
            if se > 0 and abs(est_naive.point - (-0.3)) > 2 * se:
                naive_missed += 1
            post = fit_propensity(data, cfg=SamplerConfig(seed=seed, **cfg_base))
            scores = propensity_scores(post, data)
            match = nn_match_1to1(scores)
            y_by_id = dict(zip(data.unit_ids.tolist(), data.y.tolist()))
            est = ate_psm(match, y_by_id)
            if est.interval[0] <= -0.3 <= est.interval[1]:
                covered += 1
        assert naive_missed >= 15, f"naive missed truth in only {naive_missed}/20 seeds"
        assert covered >= 18, f"matched interval covered truth in only {covered}/20 seeds"
        assert time.time() - t0 < 600.0


def test_07_bdid_recovery_under_common_shock(criterion):
    with criterion("07 DID recovery under 10x common shock (20 seeds)"):
        covered = 0
        for seed in range(20):
            spec = ScenarioSpec(
                n_control=200, n_treated=200,
                true_ate=-0.3, seasonal_amplitude=3.0, seed=seed,
            )
            panel, _ = simulate_seasonal_panel(spec)
            post = fit_did(panel, cfg=SamplerConfig(draws=1200, warmup=300, chains=2, seed=seed))
            est = ate_did(post)
            if est.interval[0] <= -0.3 <= est.interval[1]:
                covered += 1
        assert covered >= 18, f"interval covered truth in only {covered}/20 seeds"


def test_08_brdd_recovery_and_gap_identity(criterion):
    with criterion("08 RDD recovery at the cutoff (20 seeds) + exact gap"):
        covered = 0
        for seed in range(20):
            spec = ScenarioSpec(
                n_control=500, n_treated=500,
                true_ate=-1.2, cutoff=60.0, slope=0.5, seed=seed,
            )
            data, _ = simulate_discontinuity(spec)
            post = fit_rdd(data, cfg=SamplerConfig(draws=1500, warmup=300, chains=2, seed=seed))
            est = ate_rdd(post)
            if est.interval[0] <= -1.2 <= est.interval[1]:
                covered += 1
            if seed == 0:
                lines = predict_lines(post, [60.0], cutoff=60.0)
                gap = lines["y_treated"][0] - lines["y_control"][0]
                assert gap == pytest.approx(est.point, abs=1e-12)
        assert covered >= 18, f"interval covered truth in only {covered}/20 seeds"


def test_09_cli_determinism(tmp_path, criterion):
    with criterion("09 CLI determinism (byte-identical draws.csv)"):
        sim = tmp_path / "sim"
        assert main(["simulate", "--scenario", "seasonal_did", "--n-control", "60",
                     "--n-treated", "30", "--seasonal-amplitude", "1",
                     "--seed", "0", "--out", str(sim)]) == 0
        fast = ["--draws", "400", "--warmup", "100", "--chains", "2", "--seed", "7"]
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["bdid", "--data", str(sim / "panel.csv"),
                         "--out", str(out), *fast]) == 0
            outs.append(out)
        assert (outs[0] / "draws.csv").read_bytes() == (outs[1] / "draws.csv").read_bytes()


def test_10_pipeline_hand_fixture(criterion):
    with criterion("10 trip pipeline hand fixture + filters"):
        trips, rejects = ingest_trips(csv_source(FIVE_TRIPS))
        assert rejects == []
        kept, discarded = filter_trips(trips)
        assert len(kept) == 5 and discarded == []
        from boat.pipeline import aggregate_to_vehicle

        (agg,), excluded = aggregate_to_vehicle(kept)
        assert excluded == []
        assert set(agg.covariates) == set(COVARIATE_NAMES)
        for name in COVARIATE_NAMES:
            assert agg.covariates[name] == pytest.approx(
                EXPECTED_V1[name], abs=1e-12
            ), name
        # filter rules drop exactly the two violation kinds, nothing else
        low_odo = FIVE_TRIPS[0].replace(",1000,", ",50,")
        fast = FIVE_TRIPS[1].replace(",30,0.5,", ",150,0.5,")
        trips2, _ = ingest_trips(csv_source([low_odo, fast, *FIVE_TRIPS[2:]]))
        kept2, discarded2 = filter_trips(trips2)
        assert len(kept2) == 3
        assert sorted(reason for _, reason in discarded2) == ["new_vehicle", "speed"]


def test_11_advise_flowchart(criterion):
    with criterion("11 model-selection flowchart paths"):
        assert advise({"randomizable": True}) == RECOMMEND_RANDOMISE
        assert advise(
            {"randomizable": False, "covariates_known": True, "multiple_covariates": True}
        ) == RECOMMEND_BPSM
        assert advise(
            {
                "randomizable": False,
                "covariates_known": True,
                "multiple_covariates": False,
                "continuous_dominant_covariate": True,
            }
        ) == RECOMMEND_BRDD
        assert advise(
            {
                "randomizable": False,
                "covariates_known": True,
                "multiple_covariates": False,
                "continuous_dominant_covariate": False,
            }
        ) == RECOMMEND_STRATIFY
        assert advise(
            {"randomizable": False, "covariates_known": False, "latent_inference_needed": False}
        ) == RECOMMEND_BDID
        assert advise(
            {"randomizable": False, "covariates_known": False, "latent_inference_needed": True}
        ) == RECOMMEND_OUT_OF_SCOPE
