"""Tests of the benchmark's reference computations.

    python3 -m pytest -q perfbench/test_oracles.py
"""

import numpy as np
import pytest

import inputs
import oracles


def ar1(phi, chains, draws, seed):
    """Stationary Gaussian AR(1) chains with unit marginal variance."""
    rng = np.random.default_rng(seed)
    x = np.empty((chains, draws))
    x[:, 0] = rng.standard_normal(chains)
    noise = rng.standard_normal((chains, draws)) * np.sqrt(1.0 - phi**2)
    for t in range(1, draws):
        x[:, t] = phi * x[:, t - 1] + noise[:, t]
    return x


@pytest.mark.parametrize("phi, tol", [(0.0, 0.08), (0.5, 0.10), (0.9, 0.15), (-0.3, 0.12)])
def test_bulk_ess_matches_ar1_closed_form(phi, tol):
    chains = ar1(phi, 4, 5000, seed=int(10 * phi) + 20)
    expected = chains.size * (1.0 - phi) / (1.0 + phi)
    assert oracles.ess_bulk(chains) == pytest.approx(expected, rel=tol)


def test_tail_ess_of_independent_draws_is_the_draw_count():
    chains = ar1(0.0, 4, 5000, seed=3)
    assert oracles.ess_tail(chains) == pytest.approx(chains.size, rel=0.1)


def test_rank_rhat_separates_mixed_from_stuck_chains():
    mixed = ar1(0.3, 4, 2000, seed=4)
    assert oracles.rank_rhat(mixed) < 1.01
    shifted = mixed.copy()
    shifted[0] += 1.0
    assert oracles.rank_rhat(shifted) > 1.05
    wide = mixed.copy()
    wide[1] *= 3.0  # same location, different scale: caught by the folded R-hat
    assert oracles.rank_rhat(wide) > 1.05


def brute_greedy(ids, scores, treated, caliper=None):
    """The matching rule written as plainly as possible."""
    order = sorted((i for i in range(len(ids)) if treated[i]), key=lambda i: (-scores[i], ids[i]))
    free = [j for j in range(len(ids)) if not treated[j]]
    pairs, unmatched = [], []
    for i in order:
        if not free:
            unmatched.append(i)
            continue
        j = min(free, key=lambda j: (abs(scores[i] - scores[j]), ids[j]))
        d = abs(scores[i] - scores[j])
        if caliper is not None and d > caliper:
            unmatched.append(i)
            continue
        free.remove(j)
        pairs.append((i, j, d))
    return pairs, unmatched


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("caliper", [None, 0.05])
def test_greedy_match_follows_the_rule_with_many_ties(seed, caliper):
    rng = np.random.default_rng(seed)
    n = 60
    ids = [f"u{k}" for k in rng.permutation(n)]  # text ids: "u10" sorts before "u9"
    scores = np.round(rng.uniform(0.05, 0.95, n), 1)  # few distinct values
    treated = rng.uniform(size=n) < 0.3
    got = oracles.greedy_match(oracles.id_ranks(ids), scores, treated, caliper)
    assert got == brute_greedy(ids, scores.tolist(), treated.tolist(), caliper)


def test_ols_recovers_coefficients_and_textbook_standard_error():
    rng = np.random.default_rng(0)
    x = rng.uniform(size=200)
    y = 1.0 + 2.0 * x + rng.normal(0.0, 0.1, 200)
    coef, se = oracles.ols(np.column_stack([np.ones(200), x]), y)
    resid = y - coef[0] - coef[1] * x
    s2 = resid @ resid / 198
    assert se[1] == pytest.approx(np.sqrt(s2 / np.sum((x - x.mean()) ** 2)), rel=1e-10)
    assert coef == pytest.approx([1.0, 2.0], abs=0.1)


def test_did_interaction_equals_cell_mean_contrast():
    rng = np.random.default_rng(1)
    treated = np.arange(50) < 20
    y_pre, y_post = rng.normal(size=50), rng.normal(size=50) + 0.5 * treated
    coef, _ = oracles.ols(oracles.did_design(treated), np.concatenate([y_pre, y_post]))
    assert coef[3] == pytest.approx(oracles.cell_mean_did(y_pre, y_post, treated), abs=1e-12)


def test_rdd_design_recovers_noiseless_gap():
    x = np.linspace(40.0, 80.0, 101)
    z = np.cos(x)
    y = 2.0 + 0.5 * (x - 60) - 1.2 * (x >= 60) + 0.1 * (x - 60) * (x >= 60) + 0.3 * z
    X = oracles.rdd_design(x, 60.0, z)
    coef = np.linalg.lstsq(X, y, rcond=None)[0]
    assert coef == pytest.approx([2.0, 0.5, -1.2, 0.1, 0.3], abs=1e-9)


def test_logistic_map_is_the_stationary_point_of_the_log_posterior():
    rng = np.random.default_rng(2)
    X = rng.uniform(size=(300, 3))
    t = (rng.uniform(size=300) < 1.0 / (1.0 + np.exp(-(X @ [2.0, -1.0, 0.5] - 0.5)))).astype(float)
    mode, sd = oracles.logistic_map(X, t, alpha_scale=1.0, beta_scale=1.0)

    def logpost(w):
        eta = w[0] + X @ w[1:]
        return float(np.sum(t * eta - np.logaddexp(0.0, eta)) - 0.5 * w @ w)

    for j in range(4):
        step = np.zeros(4)
        step[j] = 1e-5
        slope = (logpost(mode + step) - logpost(mode - step)) / 2e-5
        assert abs(slope) < 1e-5
        assert logpost(mode + 10 * step) < logpost(mode) > logpost(mode - 10 * step)
    assert np.all(sd > 0)


def test_aggregator_on_a_hand_fixture():
    # one vehicle, five trips: Mon, Tue, Wed, Sat, Sun
    trips = {
        "vehicle": np.zeros(5, dtype=int),
        "weekday": np.array([True, True, True, False, False]),
        "distance_km": np.array([50.0, 30.0, 80.0, 40.0, 60.0]),
        "duration_h": np.array([1.0, 0.5, 2.0, 1.0, 1.5]),
        "fuel_g": np.array([4000.0, 0.0, 5600.0, 0.0, 4500.0]),
        "soc_start": np.array([90.0, 70.0, 85.0, 60.0, 95.0]),
        "soc_end": np.array([15.0, 50.0, 30.0, 20.0, 40.0]),
        "temp": np.array([10.0, 20.0, -5.0, 0.0, 15.0]),
        "starts": np.array([2, 1, 3, 2, 1]),
        "trailer": np.array([False, True, False, False, True]),
        "hybrid": np.array([True, False, True, False, True]),
        "max_speed": np.array([100.0, 120.0, 140.0, 90.0, 110.0]),
    }
    cov, target = oracles.aggregate_vehicles(trips, 1)
    assert cov[0] == pytest.approx([3 / 5, 2 / 5, 3, 2, 52, 80, 260 / 6, 140, 190 / 260,
                                    2 / 5, 1.8, 8, -5, 20])
    assert target[0] == pytest.approx(14100.0 / 260.0)


def test_trip_generator_plants_the_stated_rows(tmp_path):
    g = inputs.trips(5, str(tmp_path / "trips.csv"), n_vehicles=20, per_vehicle=10, n_planted=2)
    kinds = {k: int(np.sum(g["kind"] == k)) for k in (*inputs.MALFORMED, *inputs.DISCARDED)}
    assert kinds == {k: 2 for k in kinds}
    assert np.bincount(g["kept"]["vehicle"], minlength=20).tolist() == [10] * 20
    lines = (tmp_path / "trips.csv").read_text().splitlines()
    assert len(lines) == 1 + g["rows"] == 1 + 200 + 2 * len(kinds)
    again = inputs.trips(5, str(tmp_path / "again.csv"), n_vehicles=20, per_vehicle=10,
                         n_planted=2)
    assert (tmp_path / "again.csv").read_text() == "\n".join(lines) + "\n"
    assert np.array_equal(again["treated"], g["treated"])
