import json
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boat.nuts as nuts
from boat import bdid
from boat.bdid import PanelDataset, fit_did
from boat.cli import main
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
    leapfrog,
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


def gaussian(q):
    """A standard Gaussian's (log-density, gradient), as an evaluator returns them."""
    return -0.5 * float(q @ q), -q


def transition(q, step, rng, target, chol=None):
    """One NUTS transition from q (from z, q = chol @ z, given ``chol``),
    evaluating its start point once."""
    evaluate = nuts._evaluator(target, chol)
    return nuts._nuts_transition(q, *evaluate(q), step, rng, evaluate)


class TestLeapfrog:
    def test_hand_computed_step(self):
        q, p, logp, g = leapfrog(np.array([1.0]), np.array([0.0]), np.array([-1.0]), 0.1,
                                 gaussian)
        assert q[0] == pytest.approx(0.995, abs=1e-12)
        assert p[0] == pytest.approx(-0.09975, abs=1e-12)
        assert logp == pytest.approx(-0.5 * 0.995**2, abs=1e-12)
        np.testing.assert_array_equal(g, -q)

    @settings(max_examples=50, deadline=None)
    @given(
        q0=st.floats(-3, 3),
        p0=st.floats(-3, 3),
        step=st.floats(0.01, 0.5),
    )
    def test_reversibility(self, q0, p0, step):
        q, p, _, g = leapfrog(np.array([q0]), np.array([p0]), np.array([-q0]), step, gaussian)
        q_back, p_back, _, g_back = leapfrog(q, -p, g, step, gaussian)
        assert abs(q_back[0] - q0) < 1e-10
        assert abs(g_back[0] + q0) < 1e-10
        assert abs(-p_back[0] - p0) < 1e-10

    def test_energy_drift_is_second_order(self):
        def drift(step):
            q, p, g = np.array([1.0]), np.array([0.0]), np.array([-1.0])
            h0 = 0.5 * (q @ q + p @ p)
            for _ in range(100):
                q, p, _, g = leapfrog(q, p, g, step, gaussian)
            return abs(0.5 * (q @ q + p @ p) - h0)

        d1, d2 = drift(0.02), drift(0.01)
        assert d1 / d2 == pytest.approx(4.0, rel=0.3)


class TestNutsStep:
    def test_tiny_step_hits_max_depth(self, monkeypatch):
        monkeypatch.setattr(nuts, "MAX_TREE_DEPTH", 4)
        rng = np.random.default_rng(0)
        q, _, _, accept, depth, diverged, _, _ = transition(
            np.array([0.0]), 1e-6, rng, STD_GAUSSIAN_1D
        )
        assert depth == 4
        assert np.isfinite(q).all()
        assert not diverged

    def test_gaussian_stationary_moments(self):
        rng = np.random.default_rng(7)
        q = np.array([0.0])
        evaluate = nuts._evaluator(STD_GAUSSIAN_1D)
        logp, grad = evaluate(q)
        draws = np.empty(5000)
        for i in range(5000):
            q, logp, grad, *_ = nuts._nuts_transition(q, logp, grad, 0.8, rng, evaluate)
            draws[i] = q[0]
        assert abs(draws.mean()) < 0.05
        assert abs(draws.var() - 1.0) < 0.1

    def test_no_divergences_from_mode_at_adapted_step(self):
        rng = np.random.default_rng(1)
        q = np.array([0.0, 0.0])
        n_div = 0
        for _ in range(1000):
            q, _, _, _, _, diverged, _, _ = transition(q, 0.7, rng, STD_GAUSSIAN_2D)
            n_div += diverged
        assert n_div == 0

    def test_leaf_with_a_non_finite_gradient_diverges(self):
        # such a leaf has weight zero even where its log-density is finite:
        # it stops the tree, is not the proposal and counts as rejected
        q0 = np.array([0.3, -0.2])
        target = Target(logp=lambda q: -0.5 * float(q @ q),
                        grad=lambda q: -q if np.array_equal(q, q0) else np.full(2, np.nan),
                        names=("a", "b"))
        q, *_, accept, depth, diverged, n_leaves, _ = transition(
            q0, 0.5, np.random.default_rng(0), target)
        assert (accept, depth, diverged, n_leaves) == (0.0, 0, True, 1)
        np.testing.assert_array_equal(q, q0)

    def test_transition_takes_the_proposal_values_from_its_leaf(self):
        calls = {"logp": 0, "grad": 0}

        def logp(q):
            calls["logp"] += 1
            return -0.5 * float(q @ q)

        def grad(q):
            calls["grad"] += 1
            return -q

        rng = np.random.default_rng(3)
        q = np.array([0.3, -0.2])
        moved = 0
        for _ in range(200):
            calls.update(logp=0, grad=0)
            q1, logp1, grad1, _, _, _, n_leaves, _ = transition(
                q, 0.7, rng, Target(logp, grad, ("x1", "x2"))
            )
            # one gradient and one log-density per leaf, none for the proposal
            assert calls == {"logp": n_leaves + 1, "grad": n_leaves + 1}
            assert logp1 == logp(q1)
            np.testing.assert_array_equal(grad1, grad(q1))
            moved += q1 is not q
            q = q1
        assert moved > 150


class StubRng:
    """Hands out the given uniforms in order and counts the draws."""

    def __init__(self, *uniforms):
        self.uniforms = list(uniforms)
        self.drawn = 0

    def random(self):
        self.drawn += 1
        return self.uniforms.pop(0)


def subtree(q_minus, q_plus, logw, p_minus=1.0, p_plus=1.0, stop=False, name="old"):
    """A 1-D _Subtree whose proposal is a label."""
    def edge(q, p):
        return (np.array([q]), np.array([p]), np.array([0.0]))
    return nuts._Subtree(edge(q_minus, p_minus), edge(q_plus, p_plus), name, logw, stop)


def merge(rng, old, new, direction=1, biased=False):
    return nuts._Tree(None, None, None, rng).merge(old, new, direction, biased)


class TestTreeMerge:
    HALF = np.nextafter(0.5, 0.0)  # the largest uniform below 0.5

    @pytest.mark.parametrize("biased, new_logw, u, taken", [
        # uniform: take new with w_new / (w_old + w_new) = 1/2, strictly below
        (False, 0.0, 0.5, "old"),
        (False, 0.0, HALF, "new"),
        # biased: take new with min(1, w_new / w_old)
        (True, 0.0, 0.75, "new"),
        (True, np.log(0.5), 0.5, "old"),
        (True, np.log(0.5), HALF, "new"),
    ])
    def test_acceptance_at_the_boundary(self, biased, new_logw, u, taken):
        rng = StubRng(u)
        merged = merge(rng, subtree(0.0, 1.0, 0.0), subtree(1.5, 2.0, new_logw, name="new"),
                       biased=biased)
        assert merged.proposal == taken
        assert merged.logw == np.logaddexp(0.0, new_logw)
        assert rng.drawn == 1

    @pytest.mark.parametrize("biased", [False, True])
    def test_no_draw_when_new_has_no_weight(self, biased):
        rng = StubRng()
        merged = merge(rng, subtree(0.0, 1.0, -0.3),
                       subtree(1.5, 2.0, -np.inf, name="new"), biased=biased)
        assert merged.proposal == "old"
        assert merged.logw == -0.3
        assert rng.drawn == 0

    def test_stop_from_new_subtree(self):
        rng = StubRng(0.9)
        merged = merge(rng, subtree(0.0, 1.0, 0.0), subtree(1.5, 2.0, 0.0, stop=True))
        assert merged.stop
        assert rng.drawn == 1  # the uniform is still drawn, as the tree's RNG order needs

    @pytest.mark.parametrize("direction, p_new, stop", [
        (1, 1.0, False), (1, -1.0, True), (-1, 1.0, False), (-1, -1.0, True),
    ])
    def test_stop_from_u_turn_across_the_merged_edges(self, direction, p_new, stop):
        # the new subtree lies beyond old's edge on the direction side; a
        # momentum at its outer edge against q+ - q- is a U-turn
        if direction == 1:
            new = subtree(1.5, 2.0, 0.0, p_plus=p_new)
        else:
            new = subtree(-1.0, -0.5, 0.0, p_minus=p_new)
        assert merge(StubRng(0.9), subtree(0.0, 1.0, 0.0), new, direction).stop == stop

    @pytest.mark.parametrize("direction", [1, -1])
    def test_edges_taken_from_the_side_of_each_direction(self, direction):
        old = subtree(0.0, 1.0, 0.0)
        new = subtree(1.5, 2.0, 0.0) if direction == 1 else subtree(-1.0, -0.5, 0.0)
        merged = merge(StubRng(0.9), old, new, direction)
        if direction == 1:
            assert merged.minus is old.minus and merged.plus is new.plus
        else:
            assert merged.minus is new.minus and merged.plus is old.plus


class TestScalarTreeArithmetic:
    """The tree's scalar steps in ``math``: the merged log weight, the
    proposal draw and a leaf's accept term, at the non-finite edges."""

    @pytest.mark.parametrize("old_logw, new_logw", [
        (-np.inf, 0.3), (0.3, -np.inf), (-np.inf, -np.inf), (1.25, 1.25), (-7.0, -7.0),
        (0.0, -41.0), (-41.0, 0.0), (2.0, -745.0), (-3.0, 50.0), (1e3, -1e3), (0.1, 0.2),
    ])
    def test_merged_log_weight_matches_logaddexp(self, old_logw, new_logw):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            merged = merge(StubRng(0.9), subtree(0.0, 1.0, old_logw),
                           subtree(1.5, 2.0, new_logw, name="new"))
        assert merged.logw == np.logaddexp(old_logw, new_logw)

    @pytest.mark.parametrize("biased", [False, True])
    @pytest.mark.parametrize("new_logw, draws", [(0.4, 1), (-800.0, 1), (-np.inf, 0)])
    def test_proposal_draws_one_uniform_from_the_generator_when_new_has_weight(
            self, biased, new_logw, draws):
        rng, twin = np.random.default_rng(11), np.random.default_rng(11)
        merge(rng, subtree(0.0, 1.0, 0.0), subtree(1.5, 2.0, new_logw, name="new"),
              biased=biased)
        for _ in range(draws):
            twin.random()
        assert rng.random() == twin.random()

    @pytest.mark.parametrize("biased", [False, True])
    @pytest.mark.parametrize("new_logw, taken", [(-800.0, "old"), (0.0, "new"), (800.0, "new")])
    def test_uniform_of_zero_and_large_weight_ratios_raise_nothing(
            self, biased, new_logw, taken):
        # exp(new_logw - against) underflows to 0 at -800 and is capped at 1
        # for a ratio above 1 (biased, 800), which would overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            merged = merge(StubRng(0.0), subtree(0.0, 1.0, 0.0),
                           subtree(1.5, 2.0, new_logw, name="new"), biased=biased)
        assert merged.proposal == taken

    @pytest.mark.parametrize("logw0, logp1, accept, diverged", [
        (0.0, -0.5, math.exp(-0.5), False),
        (0.0, 0.5, 1.0, False),
        (0.0, -np.inf, 0.0, True),     # energy error +inf
        (-np.inf, 0.0, 1.0, False),    # energy error -inf
        (np.nan, 0.0, 1.0, False),     # energy error NaN: min(0.0, NaN) is 0.0
    ])
    def test_leaf_accept_term(self, logw0, logp1, accept, diverged):
        # zero momentum and gradient: the leaf's log weight is logp1
        tree = nuts._Tree(lambda q: (logp1, np.zeros(1)), 0.1, logw0, None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            leaf = tree._leaf(np.zeros(1), np.zeros(1), np.zeros(1), 1)
        assert tree.accept_sum == accept and tree.n_leaves == 1
        assert tree.diverged == leaf.stop == diverged
        # the same term evaluated in numpy
        assert tree.accept_sum == min(1.0, float(np.exp(min(0.0, -(logw0 - leaf.logw)))))


class TestEvaluatorFiniteness:
    """``_evaluator`` calls the log-density only where z and the gradient are
    finite; a finite sum of their entries settles it at once."""

    @staticmethod
    def evaluate(z, grad_value):
        calls = []

        def logp(q):
            calls.append(q)
            return -1.5

        target = Target(logp, lambda q: np.array(grad_value, dtype=float), ("a", "b"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = nuts._evaluator(target)(np.array(z, dtype=float))
        return result, len(calls)

    @pytest.mark.parametrize("grad_value", [
        [np.inf, 0.0], [0.0, -np.inf], [np.nan, 1.0], [np.inf, -np.inf], [np.nan, np.nan],
    ])
    def test_non_finite_gradient_entry(self, grad_value):
        (logp, grad), calls = self.evaluate([0.1, 0.2], grad_value)
        assert logp == -np.inf and calls == 0
        assert np.array_equal(grad, grad_value, equal_nan=True)

    @pytest.mark.parametrize("z", [[np.inf, 0.0], [-np.inf, 1.0], [np.nan, 0.0]])
    def test_non_finite_point(self, z):
        (logp, _), calls = self.evaluate(z, [0.0, 1.0])
        assert logp == -np.inf and calls == 0

    @pytest.mark.parametrize("z, grad_value", [
        ([1e308, 1e308], [0.0, 1.0]), ([0.1, 0.2], [1e308, 1e308]),
        ([-1e308, -1e308], [-1e308, -1e308]), ([0.1, 0.2], [-0.5, 2.0]),
    ])
    def test_finite_entries_whose_sum_may_overflow(self, z, grad_value):
        (logp, grad), calls = self.evaluate(z, grad_value)
        assert logp == -1.5 and calls == 1
        assert np.array_equal(grad, grad_value)


class TestOneTransitionInvariance:
    """One transition leaves its target invariant (Geweke, JASA 99:799, 2004).

    Started from exact draws of a Gaussian with SDs 1 and 3 and correlation
    0.9, one transition must again give exact draws. Whitened, its output
    is iid N(0, I), so the mean, the variances, the covariance and the mean
    squared radius each give a z-score. A kernel that always takes the new
    subtree's proposal, flips the kinetic energy's sign in the leaf weight,
    or scales the last half-kick by 0.45 fails; a kernel that never moves
    would pass, hence the check that most draws move. The steps give a mean
    accept statistic near 0.8.
    """

    COV = np.array([[1.0, 2.7], [2.7, 9.0]])
    N = 20_000

    @pytest.mark.parametrize("metric, step", [
        pytest.param(None, 0.65, id="identity"),
        pytest.param(np.linalg.cholesky([[2.0, 1.0], [1.0, 4.0]]), 0.5, id="dense"),
    ])
    def test_exact_draws_stay_exact(self, metric, step):
        chol = np.linalg.cholesky(self.COV)
        precision = np.linalg.inv(self.COV)
        target = Target(logp=lambda q: -0.5 * float(q @ precision @ q),
                        grad=lambda q: -(precision @ q), names=("a", "b"))
        rng = np.random.default_rng(0)
        start = rng.standard_normal((self.N, 2)) @ chol.T
        if metric is not None:  # the chain moves in z, q = metric @ z
            start = np.linalg.solve(metric, start.T).T
        out = np.empty_like(start)
        for i, z in enumerate(start):
            out[i] = transition(z, step, rng, target, metric)[0]
        moved = np.mean(np.any(out != start, axis=1))
        q = out if metric is None else out @ metric.T
        w = np.linalg.solve(chol, q.T).T
        root_n = np.sqrt(self.N)
        z = np.concatenate([
            w.mean(axis=0) * root_n,  # mean 0, variance 1
            ((w**2).mean(axis=0) - 1) / np.sqrt(2) * root_n,  # w^2: mean 1, variance 2
            [(w[:, 0] * w[:, 1]).mean() * root_n],  # mean 0, variance 1
            [((w**2).sum(axis=1).mean() - 2) / 2 * root_n],  # chi^2_2: mean 2, variance 4
        ])
        assert np.max(np.abs(z)) < 4.5, z
        assert moved > 0.8


class TestStepSearch:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_trial_with_a_non_finite_gradient(self, bad):
        # beyond |q| = 1.5 the gradient is `bad`. A trial there has weight
        # -inf, which ends the doubling at the last step inside. A NaN
        # weight (-inf - NaN) must count as -inf too: left NaN, it never
        # ended the doubling, and the search ran to its cap of 2**64
        target = Target(logp=lambda q: -0.5 * float(q @ q),
                        grad=lambda q: -q if np.all(np.abs(q) <= 1.5) else np.full(q.shape, bad),
                        names=("a", "b"))
        q = np.array([0.3, -0.2])
        evaluate = nuts._evaluator(target)
        found = nuts._find_reasonable_step(q, *evaluate(q), evaluate, np.random.default_rng(0))
        assert found == 4.0


class TestDualAveraging:
    def test_on_target_keeps_initial_step(self):
        da = DualAveraging(0.3)
        for _ in range(200):
            step = da.update(0.8)
        assert step == pytest.approx(0.3, rel=0.05)

    def test_zero_acceptance_monotone_decrease(self):
        da = DualAveraging(1.0)
        steps = [da.update(0.0) for _ in range(50)]
        assert all(b < a for a, b in zip(steps, steps[1:]))

    def test_adapted_acceptance_in_band(self):
        cfg = SamplerConfig(draws=1500, warmup=500, chains=1, seed=11)
        out = sample(STD_GAUSSIAN_2D, None, cfg=cfg)
        assert 0.7 <= out.chain_stats[0].mean_accept <= 0.98
        assert out.diagnostics["x1"]["rhat"] < 1.05


class TestSamplerConfig:
    def test_too_few_kept_draws_rejected_at_construction(self):
        with pytest.raises(ValueError, match="warmup <= draws - 4"):
            SamplerConfig(draws=103, warmup=100)
        assert SamplerConfig(draws=104, warmup=100).draws == 104

    @pytest.mark.parametrize("kwargs", [
        dict(chains=0), dict(warmup=-1), dict(draws=200, warmup=200), dict(draws=0),
    ])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SamplerConfig(**kwargs)


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

    def test_each_start_point_evaluated_once(self, monkeypatch):
        # the chain's first point and the point it restarts from after the
        # metric window each get one log-density and one gradient call
        calls = {"logp": Counter(), "grad": Counter()}
        first = []

        def logp(q):
            first.append(q.tobytes())
            calls["logp"][q.tobytes()] += 1
            return -0.5 * float(q @ q)

        def grad(q):
            calls["grad"][q.tobytes()] += 1
            return -q

        starts, chols = [], []
        find, evaluator = nuts._find_reasonable_step, nuts._evaluator

        def recording_find(z, *args):
            starts.append(z)
            return find(z, *args)

        def recording_evaluator(target, chol=None):
            if chol is not None:
                chols.append(chol)
            return evaluator(target, chol)

        monkeypatch.setattr(nuts, "_find_reasonable_step", recording_find)
        monkeypatch.setattr(nuts, "_evaluator", recording_evaluator)
        cfg = SamplerConfig(draws=150, warmup=100, chains=1, seed=5)
        assert _adaptation_windows(cfg.warmup) == [(50, 90)]
        sample(Target(logp, grad, ("x1", "x2")), None, cfg=cfg)

        assert len(starts) == len(chols) + 1 == 2
        start, restart = first[0], (chols[0] @ starts[1]).tobytes()
        assert starts[0].tobytes() == start
        for point in (start, restart):
            assert (calls["logp"][point], calls["grad"][point]) == (1, 1)
        # and no other point is evaluated twice either
        assert max(calls["logp"].values()) == max(calls["grad"].values()) == 1


def correlated_cov(sds, rho):
    corr = np.full((len(sds), len(sds)), rho)
    np.fill_diagonal(corr, 1.0)
    return corr * np.outer(sds, sds)


def correlated_gaussian(sds, rho):
    prec = np.linalg.inv(correlated_cov(sds, rho))
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

    @pytest.mark.parametrize("seed", [0, 3])
    def test_warmup_then_sampling_gives_the_target(self, seed):
        # The whole of sample(), warm-up included, on the Gaussian above.
        # At seed 3 one chain estimates its first metric while still
        # walking in from its start, and pays for it in leapfrog steps
        # (about 18 per kept draw, against 6 at seed 0), not in accuracy.
        # Whitened with the true factor the draws are N(0, I): each
        # coordinate's mean and mean of w^2 - 1 is z-tested, with its
        # Monte Carlo SE from 20 batch means per chain.
        sds = np.geomspace(1e-3, 1.0, 5)
        chol = np.linalg.cholesky(correlated_cov(sds, 0.9))
        cfg = SamplerConfig(draws=1200, warmup=200, chains=2, seed=seed)
        out = sample(correlated_gaussian(sds, 0.9), None, cfg=cfg)
        w = np.linalg.solve(chol, out.draws.reshape(-1, 5).T).T
        batches = np.concatenate([w, w**2 - 1], axis=1).reshape(cfg.chains * 20, -1, 10)
        means = batches.mean(axis=1)
        z = means.mean(axis=0) / (means.std(axis=0, ddof=1) / np.sqrt(len(means)))
        assert np.max(np.abs(z)) < 4.5, z

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
            assert len(s.tree_depths) == nuts.MAX_TREE_DEPTH + 1
            assert sum(s.tree_depths) == cfg.draws - cfg.warmup
            assert s.saturated == s.tree_depths[-1]
            assert s.leapfrog_steps >= sum(s.tree_depths)
            assert s.warmup_leapfrog_steps >= cfg.warmup
            assert 0.0 < s.mean_accept <= 1.0
            assert s.step_size > 0
            assert len(s.metric_diag) == 2
            assert 0.5 < s.e_bfmi < 2.0
        assert out.diagnostics["_divergences"] == [s.divergences for s in out.chain_stats]

    def test_saturation_warning(self, monkeypatch):
        monkeypatch.setattr(nuts, "MAX_TREE_DEPTH", 1)
        cfg = SamplerConfig(draws=200, warmup=50, chains=1, seed=0)
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
    def test_draws_csv_round_trip(self, tmp_path, monkeypatch):
        # the draws.csv of `boat bdid`: one row per chain-iteration, chain by chain
        fits = []
        monkeypatch.setattr(bdid, "fit_did", lambda *args: fits.append(fit_did(*args)) or fits[0])
        sim, out = tmp_path / "sim", tmp_path / "run"
        assert main(["simulate", "--scenario", "seasonal_did", "--n-control", "20",
                     "--n-treated", "20", "--out", str(sim)]) == 0
        assert main(["bdid", "--data", str(sim / "panel.csv"), "--draws", "50",
                     "--warmup", "10", "--chains", "2", "--seed", "9", "--out", str(out)]) == 0
        (posterior,) = fits
        path = out / "draws.csv"
        lines = path.read_text().splitlines()
        assert lines[0] == "alpha,theta_treat,theta_period,theta_interaction,log_sigma"
        assert len(lines) == 1 + 2 * 40  # --draws counts the warm-up
        loaded = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(loaded, posterior.draws.reshape(-1, 5))

    def test_summary_json(self):
        cfg = SamplerConfig(draws=50, warmup=10, chains=2, seed=9)
        out = sample(STD_GAUSSIAN_2D, None, cfg=cfg)
        data = json.loads(json.dumps(summarize(out), allow_nan=False))
        assert set(data) == {"x1", "x2"}
        assert "mean" in data["x1"]

    def test_summary_json_writes_infinite_rhat_as_null(self):
        out = PosteriorSamples(param_names=["p"], draws=np.ones((2, 10, 1)),
                               diagnostics={"p": {"rhat": float("inf")}})

        def reject(constant):
            raise ValueError(f"non-strict JSON constant {constant}")

        # allow_nan=False raises on an inf or NaN left in the summary
        data = json.loads(json.dumps(summarize(out), allow_nan=False), parse_constant=reject)
        assert data["p"]["rhat"] is None
