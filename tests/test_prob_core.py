import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boat import nuts, prob_core
from boat.errors import ContractError
from boat.pipeline import DesignMatrix
from boat.prob_core import (
    PROB_FLOOR,
    ModelSpec,
    PreparedLinear,
    PreparedLogistic,
    PriorSpec,
    log_posterior,
    log_posterior_grad,
    param_names,
    prepare,
    sigmoid,
)
from densities import bernoulli_logpmf, half_cauchy_logpdf, normal_logpdf


def design(family, X, t, y, tau, a, z, covariates):
    """A DesignMatrix whose X is the logistic covariates, or the regressor
    block that fit_did ([t, tau, t*tau, X]) or fit_rdd ([a - 60, t,
    (a - 60)*t, z]) builds from the same draws."""
    tf = t.astype(float)
    if family == "logistic":
        C, names = X, covariates
    elif family == "did_linear":
        C = np.column_stack([tf, tau, tf * tau, X])
        names = ["theta_treat", "theta_period", "theta_interaction",
                 *(f"beta_{c}" for c in covariates)]
    else:
        xc = a - 60.0
        C = np.column_stack([xc, tf, xc * tf, z])
        names = ["beta_slope", "beta_treat", "beta_slope_treat", "beta_z"]
    return DesignMatrix(unit_ids=np.arange(len(t)), X=C, t=t, y=y, covariate_names=names)


def make_data(family, n=30, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, (n, 3))
    t, y = rng.integers(0, 2, n), rng.normal(0, 1, n)
    tau = rng.integers(0, 2, n).astype(float)
    a, z = rng.uniform(-2, 2, n) + 60.0, rng.uniform(0, 1, n)
    dm = design(family, X, t, y, tau, a, z, ["a", "b", "c"])
    return ModelSpec(family, PriorSpec(alpha_scale=1.0, beta_scale=0.7)), dm


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_saturation_no_overflow(self):
        v = sigmoid(500.0)
        assert 1 - 1e-12 < v <= 1.0
        assert sigmoid(-500.0) >= 0.0

    def test_ln3(self):
        assert sigmoid(math.log(3)) == pytest.approx(0.75, abs=1e-12)

    def test_symmetry(self):
        for z in np.linspace(-30, 30, 61):
            assert sigmoid(z) + sigmoid(-z) == pytest.approx(1.0, abs=1e-12)


def reference_sigmoid(z):
    """The masked two-branch logistic function, evaluated branch by branch."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out if out.ndim else float(out)


def same_floats(a, b):
    """Equal element for element, NaN matching NaN whatever its sign bit."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan], b[~nan]))


EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -745.0, 800.0, -800.0,
         1e-300, -1e-300, 36.7, -36.7, 709.8, -709.8, 5e-324, -5e-324]


class TestSigmoidMatchesMaskedForm:
    def test_edge_values(self):
        z = np.array(EDGES)
        assert same_floats(sigmoid(z), reference_sigmoid(z))
        for v in EDGES:
            got, want = sigmoid(v), reference_sigmoid(v)
            assert type(got) is float
            assert got == want or (math.isnan(got) and math.isnan(want))
        assert sigmoid(-0.0) == 0.5 and sigmoid(np.inf) == 1.0 and sigmoid(-np.inf) == 0.0

    def test_two_dimensional_input(self):
        z = np.random.default_rng(4).normal(0, 40, (7, 5))
        z[0, :] = EDGES[:5]
        got = sigmoid(z)
        assert got.shape == (7, 5)
        assert same_floats(got, reference_sigmoid(z))

    def test_zero_dimensional_input_returns_float(self):
        got = sigmoid(np.array(-3.25))
        assert type(got) is float and got == reference_sigmoid(-3.25)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=40))
    def test_any_floats(self, values):
        z = np.array(values, dtype=float)
        assert same_floats(sigmoid(z), reference_sigmoid(z))


class TestNormalLogpdf:
    def test_standard_at_zero(self):
        assert normal_logpdf(0, 0, 1) == pytest.approx(-0.9189385332046727, abs=1e-9)

    def test_zero_residual(self):
        mu, s = 3.2, 0.7
        assert normal_logpdf(mu, mu, s) == pytest.approx(
            -0.5 * math.log(2 * math.pi) - math.log(s), abs=1e-12
        )

    def test_direct(self):
        assert normal_logpdf(1, 0, 2) == pytest.approx(-1.7370857137646178, abs=1e-6)

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            normal_logpdf(0, 0, 0)

    def test_integrates_to_one(self):
        mu, s = 1.3, 2.1
        xs = np.linspace(mu - 10 * s, mu + 10 * s, 20001)
        mass = np.trapezoid(np.exp(normal_logpdf(xs, mu, s)), xs)
        assert mass == pytest.approx(1.0, abs=1e-6)


class TestBernoulliLogpmf:
    def test_half(self):
        assert bernoulli_logpmf(1, 0.5) == pytest.approx(math.log(0.5))
        assert bernoulli_logpmf(0, 0.5) == pytest.approx(math.log(0.5))

    def test_threequarters(self):
        assert bernoulli_logpmf(1, 0.75) == pytest.approx(math.log(0.75))

    def test_bad_t(self):
        with pytest.raises(ValueError):
            bernoulli_logpmf(2, 0.5)


class TestHalfCauchy:
    def test_mode_scale5(self):
        assert half_cauchy_logpdf(0, 5) == pytest.approx(
            math.log(2 / (5 * math.pi)), abs=1e-6
        )

    def test_at_scale(self):
        assert half_cauchy_logpdf(5, 5) == pytest.approx(
            math.log(2 / (5 * math.pi)) - math.log(2), abs=1e-6
        )

    def test_unit_mode(self):
        assert half_cauchy_logpdf(0, 1) == pytest.approx(math.log(2 / math.pi), abs=1e-6)

    def test_negative(self):
        with pytest.raises(ValueError):
            half_cauchy_logpdf(-1, 1)


class TestLogPosterior:
    def test_logistic_all_treated_at_zero(self):
        n = 8
        dm = DesignMatrix(
            unit_ids=np.arange(n),
            X=np.random.default_rng(1).uniform(0, 1, (n, 2)),
            t=np.ones(n, dtype=int),
            y=np.zeros(n),
            covariate_names=["a", "b"],
        )
        model = ModelSpec("logistic", PriorSpec(1.0, 1.0))
        expected = n * math.log(0.5) + 3 * normal_logpdf(0, 0, 1)
        assert log_posterior(model, dm, np.zeros(3)) == pytest.approx(expected, abs=1e-10)

    def test_empty_dataset_prior_only(self):
        dm = DesignMatrix(
            unit_ids=np.array([]), X=np.empty((0, 2)), t=np.array([]),
            y=np.array([]), covariate_names=["a", "b"],
        )
        model = ModelSpec("logistic", PriorSpec(1.0, 1.0))
        p = np.array([0.3, -1.1, 0.4])
        expected = normal_logpdf(0.3, 0, 1) + normal_logpdf(-1.1, 0, 1) + normal_logpdf(0.4, 0, 1)
        assert log_posterior(model, dm, p) == pytest.approx(expected, abs=1e-12)

    def test_logistic_composition_oracle(self):
        x = np.array([0.0, 1.0, 2.0])
        t = np.array([1, 0, 1])
        dm = DesignMatrix(
            unit_ids=np.arange(3), X=x[:, None], t=t, y=np.zeros(3),
            covariate_names=["x"],
        )
        model = ModelSpec("logistic", PriorSpec(1.0, 1.0))
        alpha, beta = 0.5, -1.0
        expected = normal_logpdf(alpha, 0, 1) + normal_logpdf(beta, 0, 1)
        for xi, ti in zip(x, t):
            expected += bernoulli_logpmf(ti, sigmoid(alpha + beta * xi))
        assert log_posterior(model, dm, np.array([alpha, beta])) == pytest.approx(
            expected, abs=1e-12
        )

    def test_dimension_mismatch(self):
        model, dm = make_data("logistic")
        with pytest.raises(ContractError):
            log_posterior(model, dm, np.zeros(99))

    @pytest.mark.parametrize("family", ["logistic", "did_linear", "rdd_linear"])
    def test_row_permutation_invariance(self, family):
        model, dm = make_data(family, n=40, seed=3)
        rng = np.random.default_rng(9)
        perm = rng.permutation(40)
        dm2 = DesignMatrix(
            unit_ids=dm.unit_ids[perm], X=dm.X[perm], t=dm.t[perm], y=dm.y[perm],
            covariate_names=dm.covariate_names,
        )
        p = rng.uniform(-2, 2, len(param_names(model, dm)))
        a, b = log_posterior(model, dm, p), log_posterior(model, dm2, p)
        assert a == pytest.approx(b, rel=1e-12)


class TestGradient:
    @pytest.mark.parametrize("family", ["logistic", "did_linear", "rdd_linear"])
    def test_matches_finite_differences(self, family):
        model, dm = make_data(family, n=30, seed=0)
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
                fd = (log_posterior(model, dm, pp) - log_posterior(model, dm, pm)) / (2 * h)
                assert abs(g[i] - fd) <= 1e-5 * max(1.0, abs(fd))

    def test_balanced_symmetric_alpha_grad_zero(self):
        x = np.array([-2.0, -1.0, 1.0, 2.0])
        t = np.array([1, 0, 1, 0])
        dm = DesignMatrix(
            unit_ids=np.arange(4), X=x[:, None], t=t, y=np.zeros(4),
            covariate_names=["x"],
        )
        model = ModelSpec("logistic", PriorSpec(1.0, 1.0))
        g = log_posterior_grad(model, dm, np.zeros(2))
        assert g[0] == pytest.approx(0.0, abs=1e-12)

    def test_prior_only_gaussian_score(self):
        dm = DesignMatrix(
            unit_ids=np.array([]), X=np.empty((0, 2)), t=np.array([]),
            y=np.array([]), covariate_names=["a", "b"],
        )
        model = ModelSpec("logistic", PriorSpec(2.0, 0.5))
        p = np.array([1.0, -0.4, 2.2])
        g = log_posterior_grad(model, dm, p)
        expected = -p / np.array([2.0, 0.5, 0.5]) ** 2
        np.testing.assert_allclose(g, expected, atol=1e-12)


class TestPriorSpec:
    def test_rejects_nonpositive_scales(self):
        with pytest.raises(ValueError):
            PriorSpec(alpha_scale=0.0)
        with pytest.raises(ValueError):
            PriorSpec(beta_scale=-1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["alpha_scale", "beta_scale"])
    def test_rejects_non_finite_scales_naming_field_and_value(self, field, value):
        with pytest.raises(ValueError) as err:
            PriorSpec(**{field: value})
        assert str(err.value) == f"{field} must be finite and > 0, got {value!r}"


def design_rows(dm):
    """Rows of D = [1, X] for the linear families, built one row at a time."""
    return [[1.0, *map(float, row)] for row in dm.X]


def rowwise_reference(model, dm, params):
    """Log-posterior and gradient from per-row residuals, summed exactly."""
    b, log_sigma = [float(v) for v in params[:-1]], float(params[-1])
    rows = design_rows(dm)
    resid = [Fraction(float(y)) - sum(Fraction(c) * Fraction(bj) for c, bj in zip(row, b))
             for row, y in zip(rows, dm.y)]
    rss = float(sum(r * r for r in resid))
    score = np.array([float(sum((Fraction(row[j]) * r for row, r in zip(rows, resid)),
                                Fraction(0))) for j in range(len(b))])
    pri = model.priors
    scales = np.array([pri.alpha_scale] + [pri.beta_scale] * (len(b) - 1))
    n, sigma = len(rows), math.exp(log_sigma)
    s = prob_core.NOISE_SCALE
    logp = (sum(normal_logpdf(bj, 0.0, sj) for bj, sj in zip(b, scales))
            + half_cauchy_logpdf(sigma, s) + log_sigma
            + sum(-0.5 * math.log(2 * math.pi) - log_sigma - float(r * r) / (2 * sigma**2)
                  for r in resid))
    grad_b = score / sigma**2 - np.array(b) / scales**2
    grad_ls = -n + rss / sigma**2 + 1.0 - 2.0 * sigma**2 / (s**2 + sigma**2)
    return logp, np.append(grad_b, grad_ls)


def linear_case(family, case, n=40, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, (n, 2))
    if case == "constant_covariate":
        X[:, 1] = 0.5
    t, y = rng.integers(0, 2, n), rng.normal(0, 1, n)
    tau = rng.integers(0, 2, n).astype(float)
    a = rng.uniform(-2, 2, n) + 60.0
    z = rng.uniform(0, 1, n) if case != "constant_covariate" else np.full(n, 0.5)
    dm = design(family, X, t, y, tau, a, z, ["a", "b"])
    model = ModelSpec(family, PriorSpec(alpha_scale=1.0, beta_scale=0.7))
    if case == "large_offset":
        dm.y = 1e6 + dm.y
    elif case == "near_exact_fit":
        D = np.array(design_rows(dm))
        dm.y = D @ rng.uniform(-1, 1, D.shape[1]) + 1e-9 * rng.normal(size=n)
    return model, dm


@pytest.mark.parametrize("family", ["did_linear", "rdd_linear"])
@pytest.mark.parametrize("case", ["plain", "large_offset", "near_exact_fit",
                                  "constant_covariate", "empty", "noise_scale_2"])
def test_prepared_linear_matches_rowwise_reference(family, case, monkeypatch):
    if case == "noise_scale_2":
        monkeypatch.setattr(prob_core, "NOISE_SCALE", 2.0)
    model, dm = linear_case(family, case, n=0 if case == "empty" else 40)
    prep = prepare(model, dm)
    assert isinstance(prep, PreparedLinear) and prep.noise_scale == prob_core.NOISE_SCALE
    d = len(prep.names)
    center = np.zeros(d - 1)
    if len(dm.y):
        center = np.linalg.lstsq(np.array(design_rows(dm)), dm.y, rcond=None)[0]
    rng = np.random.default_rng(1)
    points = [rng.uniform(-2, 2, d) for _ in range(4)]
    points += [np.append(center + rng.normal(0, 0.05, d - 1), rng.normal(-1, 0.5))
               for _ in range(4)]
    for p in points:
        ref_logp, ref_grad = rowwise_reference(model, dm, p)
        logp, grad = log_posterior(model, prep, p), log_posterior_grad(model, prep, p)
        assert logp == pytest.approx(ref_logp, rel=1e-9)
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-9,
                                   atol=1e-9 * np.max(np.abs(ref_grad)))
        assert log_posterior(model, dm, p) == logp
        np.testing.assert_array_equal(log_posterior_grad(model, dm, p), grad)


@pytest.mark.parametrize("family", ["logistic", "did_linear", "rdd_linear"])
def test_prepared_model_contents(family):
    model, dm = make_data(family, n=500)
    prep = prepare(model, dm)
    assert param_names(model, prep) == param_names(model, dm) == list(prep.names)
    logistic_only = {"X", "t", "t_mask"}
    linear_only = {"n", "gram", "b_hat", "rss0", "noise_scale", "noise_lognorm", "half_log_2pi"}
    assert prep._memo is None  # each family's one memo slot, filled by its first evaluation
    if family == "logistic":
        assert type(prep) is PreparedLogistic and not linear_only & set(vars(prep))
        assert prep.X.shape == (500, 3) and prep.t.dtype == float
    else:
        assert type(prep) is PreparedLinear and not logistic_only & set(vars(prep))
        arrays = [v for v in vars(prep).values() if isinstance(v, np.ndarray)]
        assert max(a.size for a in arrays) <= len(prep.names) ** 2


def test_prepared_for_other_model_is_rejected():
    model, dm = make_data("did_linear")
    prep = prepare(model, dm)
    other = ModelSpec("did_linear", PriorSpec(alpha_scale=2.0, beta_scale=0.7))
    with pytest.raises(ContractError):
        log_posterior(other, prep, np.zeros(len(prep.names)))


@pytest.mark.parametrize("family", ["logistic", "did_linear", "rdd_linear"])
def test_names_must_match_regressor_columns(family):
    model, dm = make_data(family)
    dm.covariate_names = dm.covariate_names[:-1]
    with pytest.raises(ContractError, match=r"^\d+ regressor columns but \d+ coefficient names$"):
        prepare(model, dm)


def test_non_finite_data_rejected():
    model, dm = make_data("rdd_linear")
    dm.y[3] = np.nan
    with pytest.raises(ContractError):
        prepare(model, dm)


@pytest.mark.parametrize("family", ["logistic", "did_linear", "rdd_linear"])
def test_sample_routes_every_evaluation_through_nuts_module_functions(family, monkeypatch):
    model, dm = make_data(family, n=40)
    evaluator = type(prepare(model, dm))
    methods = {"log_posterior": "logp", "log_posterior_grad": "grad"}
    calls = {name: 0 for name in (*methods, *methods.values())}

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args):
            if owner is nuts:
                assert isinstance(args[0], ModelSpec) and args[0].family == family
                assert isinstance(args[1], evaluator)
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name, method in methods.items():
        monkeypatch.setattr(nuts, name, counted(nuts, name))
        monkeypatch.setattr(evaluator, method, counted(evaluator, method))
    nuts.sample(model, dm, cfg=nuts.SamplerConfig(draws=30, warmup=10, chains=2, seed=0))
    for name, method in methods.items():
        assert calls[name] > 0
        assert calls[name] == calls[method]


@pytest.mark.parametrize("family", ["logistic", "did_linear", "rdd_linear"])
def test_sample_takes_one_path_for_a_model_and_its_compiled_target(family):
    model, dm = make_data(family, n=40)
    cfg = nuts.SamplerConfig(draws=120, warmup=60, chains=2, seed=2)
    direct = nuts.sample(model, dm, cfg=cfg)
    compiled = nuts.sample(nuts._compile(model, dm), None, cfg=cfg)
    assert direct.param_names == compiled.param_names == list(prepare(model, dm).names)
    assert np.array_equal(direct.draws, compiled.draws)
    assert direct.chain_stats == compiled.chain_stats


def prior_scales(prep):
    pri = prep.model.priors
    return np.array([pri.alpha_scale] + [pri.beta_scale] * (len(prep.names) - 1))


def reference_logistic_log_posterior(prep, params):
    """Log-posterior with t log p + (1 - t) log1p(-p) over the masked sigmoid."""
    b = np.asarray(params, dtype=float)
    scales = prior_scales(prep)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        lp = -0.5 * np.log(2.0 * np.pi) - np.log(scales) - b**2 / (2.0 * scales**2)
        total = float(lp[0] + float(np.sum(lp[1:])))
        if len(prep.t):
            p = np.clip(reference_sigmoid(b[0] + prep.X @ b[1:]), PROB_FLOOR, 1.0 - PROB_FLOOR)
            total += float(np.sum(prep.t * np.log(p) + (1.0 - prep.t) * np.log1p(-p)))
    return total if np.isfinite(total) else -np.inf


def reference_logistic_grad(prep, params):
    b = np.asarray(params, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g = -b / prior_scales(prep) ** 2
        if len(prep.t):
            resid = prep.t - reference_sigmoid(b[0] + prep.X @ b[1:])
            g[0] += float(np.sum(resid))
            g[1:] += prep.X.T @ resid
    return g


def logistic_case(n, k, t_kind, seed):
    rng = np.random.default_rng(seed)
    t = {"mixed": rng.integers(0, 2, n), "zeros": np.zeros(n, dtype=int),
         "ones": np.ones(n, dtype=int)}[t_kind]
    dm = DesignMatrix(
        unit_ids=np.arange(n), X=rng.normal(0, rng.choice([0.1, 1.0, 10.0]), (n, k)),
        t=t, y=np.zeros(n), covariate_names=[f"c{j}" for j in range(k)],
    )
    return ModelSpec("logistic", PriorSpec(1.0, 0.7)), dm, rng


def rowwise_logistic_reference(prep, params):
    """The unclipped logistic log-posterior and gradient, t eta - log(1 +
    e^eta) and x (t - p) row by row in ``math``, with exactly rounded sums
    (``math.fsum``). Each comes with the summed magnitude of what it adds
    up, the linear predictor's products included: an evaluation's rounding
    error is relative to that, not to a value that cancels."""
    b = [float(v) for v in params]
    scales = prior_scales(prep).tolist()
    logp_terms = [-0.5 * math.log(2.0 * math.pi) - math.log(sj) - bj * bj / (2.0 * sj * sj)
                  for bj, sj in zip(b, scales)]
    logp_mag = [math.fsum(map(abs, logp_terms))]
    grad_terms = [[-bj / (sj * sj)] for bj, sj in zip(b, scales)]
    grad_mag = [abs(g[0]) for g in grad_terms]
    for row, t in zip(prep.X.tolist(), prep.t.tolist()):
        products = [b[0], *(x * bj for x, bj in zip(row, b[1:]))]
        eta, size = math.fsum(products), math.fsum(map(abs, products))
        e = math.exp(-abs(eta))
        logp_terms += [t * eta, -max(eta, 0.0), -math.log1p(e)]
        logp_mag.append(2.0 * size + math.log1p(e))
        p = 1.0 / (1.0 + e) if eta >= 0 else e / (1.0 + e)
        for j, x in enumerate([1.0, *row]):
            grad_terms[j].append(x * (t - p))
            grad_mag[j] += abs(x) * (2.0 + size)
    return ((math.fsum(logp_terms), math.fsum(logp_mag)),
            (np.array([math.fsum(g) for g in grad_terms]), np.array(grad_mag)))


# Finite values agree to this many units in the last place of the summed
# magnitude of their terms; -inf, +inf and NaN agree exactly.
ULPS = 8


def assert_close(got, want, magnitude):
    got, want, magnitude = (np.asarray(v, dtype=float) for v in (got, want, magnitude))
    assert got.shape == want.shape
    finite = np.isfinite(want)
    assert same_floats(got[~finite], want[~finite])
    ulps = np.abs(got[finite] - want[finite]) / np.spacing(magnitude[finite])
    assert np.all(ulps <= ULPS), ulps


class TestLogisticMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(0, 300), k=st.integers(1, 14),
           t_kind=st.sampled_from(["mixed", "zeros", "ones"]),
           scale=st.sampled_from([1e-3, 0.1, 1.0, 10.0, 100.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_the_rowwise_unclipped_form(self, n, k, t_kind, scale, seed):
        model, dm, rng = logistic_case(n, k, t_kind, seed)
        prep = prepare(model, dm)
        for _ in range(3):
            q = rng.normal(0, scale, k + 1)
            want_logp, want_grad = rowwise_logistic_reference(prep, q)
            # gradient then density, as a tree leaf asks, and the reverse order
            assert_close(log_posterior_grad(model, prep, q), *want_grad)
            assert_close(log_posterior(model, prep, q), *want_logp)
            fresh = prepare(model, dm)
            assert_close(log_posterior(model, fresh, q), *want_logp)
            assert_close(log_posterior_grad(model, fresh, q), *want_grad)


def test_unclipped_where_the_clipped_form_saturates():
    # with |eta| = 40 one row's log-likelihood is about -40, where the
    # clipped form stops at log(1e-12) = -27.6
    model = ModelSpec("logistic", PriorSpec(1.0, 1.0))
    dm = DesignMatrix(unit_ids=np.arange(2), X=np.array([[1.0], [-1.0]]), t=np.array([0, 1]),
                      y=np.zeros(2), covariate_names=["x"])
    q = np.array([0.0, 40.0])
    prior = 2 * normal_logpdf(0.0, 0.0, 1.0) - 0.5 * 40.0**2
    want = prior - 2 * (40.0 + math.log1p(math.exp(-40.0)))
    assert log_posterior(model, dm, q) == pytest.approx(want, rel=1e-15)
    clipped = reference_logistic_log_posterior(prepare(model, dm), q)
    assert clipped == pytest.approx(prior + 2 * math.log(PROB_FLOOR), rel=1e-6)


def test_one_exponential_pass_per_point(monkeypatch):
    model, dm, q, q2 = memo_case("logistic", 11)
    passes = []
    real = np.exp

    def counting(x, *args, **kwargs):
        passes.append(np.shape(x))
        return real(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting)
    monkeypatch.setattr(prob_core, "sigmoid", None)
    prep = prepare(model, dm)
    log_posterior_grad(model, prep, q)
    log_posterior(model, prep, q)
    assert passes == [(50,)]
    log_posterior(model, prep, q2)
    assert passes == [(50,), (50,)]


def memo_case(family, seed):
    """A model, its data and two parameter vectors for the memo tests."""
    if family == "logistic":
        model, dm, rng = logistic_case(50, 4, "mixed", seed)
    else:
        model, dm = linear_case(family, "plain", n=50, seed=seed)
        rng = np.random.default_rng(seed)
    d = len(param_names(model, dm))
    return model, dm, rng.normal(0, 1, d), rng.normal(0, 1, d)


@pytest.mark.parametrize("family", ["logistic", "did_linear", "rdd_linear"])
class TestEvaluationMemo:
    """The one-slot memo of the last evaluation returns what a freshly
    prepared model computes, whatever was evaluated before."""

    @pytest.fixture(autouse=True)
    def case(self, family):
        self.model, self.dm, self.q, self.q2 = memo_case(family, 11)
        self.other_dm = memo_case(family, 12)[1]

    def fresh(self, fn, q, dm=None):
        return fn(self.model, prepare(self.model, self.dm if dm is None else dm), q)

    def test_other_point_after_gradient(self):
        prep = prepare(self.model, self.dm)
        log_posterior_grad(self.model, prep, self.q)
        assert log_posterior(self.model, prep, self.q2) == self.fresh(log_posterior, self.q2)
        assert np.array_equal(log_posterior_grad(self.model, prep, self.q),
                              self.fresh(log_posterior_grad, self.q))

    def test_array_mutated_in_place(self):
        prep = prepare(self.model, self.dm)
        q = self.q.copy()
        log_posterior_grad(self.model, prep, q)
        q[2] += 0.5
        assert log_posterior(self.model, prep, q) == self.fresh(log_posterior, q.copy())
        q[0] = -q[0]
        assert np.array_equal(log_posterior_grad(self.model, prep, q),
                              self.fresh(log_posterior_grad, q.copy()))

    def test_two_models_in_alternation(self):
        other_dm = self.other_dm
        a, b = prepare(self.model, self.dm), prepare(self.model, other_dm)
        for fn in (log_posterior_grad, log_posterior, log_posterior_grad):
            for prep, dm in ((a, self.dm), (b, other_dm), (a, self.dm)):
                assert same_floats(fn(self.model, prep, self.q),
                                   self.fresh(fn, self.q, dm))
        assert log_posterior(self.model, a, self.q) != log_posterior(self.model, b, self.q)

    @pytest.mark.parametrize("first, second", [
        (log_posterior, log_posterior_grad), (log_posterior_grad, log_posterior),
    ])
    def test_points_in_alternation(self, first, second):
        prep = prepare(self.model, self.dm)
        for q in (self.q, self.q2, self.q):
            got = first(self.model, prep, q), second(self.model, prep, q)
            want = self.fresh(first, q), self.fresh(second, q)
            for g, w in zip(got, want):
                assert np.asarray(g).tobytes() == np.asarray(w).tobytes()

    def test_mutating_a_returned_gradient(self):
        prep = prepare(self.model, self.dm)
        want = self.fresh(log_posterior_grad, self.q)
        grad = log_posterior_grad(self.model, prep, self.q)
        grad[:] = 99.0
        assert np.array_equal(log_posterior_grad(self.model, prep, self.q), want)
        assert log_posterior(self.model, prep, self.q) == self.fresh(log_posterior, self.q)

    def test_list_and_int_parameters(self):
        prep = prepare(self.model, self.dm)
        ints = [1, 0, -2, 3, 0, 1, -1][:len(prep.names)]
        for q in (ints, np.array(ints), np.array(ints, dtype=np.int32)):
            assert log_posterior(self.model, prep, q) == self.fresh(log_posterior, np.array(ints, float))
            assert np.array_equal(log_posterior_grad(self.model, prep, q),
                                  self.fresh(log_posterior_grad, np.array(ints, float)))


def reference_linear(prep, params):
    """The linear log-posterior and gradient computed apart, term by term in
    numpy from sigma = exp(log_sigma), each paired (as in
    :func:`assert_close`) with the summed magnitude of its terms. -inf,
    +inf and NaN fall where evaluating the terms one by one puts them."""
    b, log_sigma = params[:-1], float(params[-1])
    pri = prep.model.priors
    scales = np.array([pri.alpha_scale] + [pri.beta_scale] * (len(b) - 1))
    s = prep.noise_scale
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # libm's exp, as the evaluation takes; numpy's may round differently
        sigma = np.float64(math.exp(log_sigma) if log_sigma < 709.0 else np.exp(log_sigma))
        logp_terms = [*(-0.5 * np.log(2.0 * np.pi) - np.log(scales) - b**2 / (2.0 * scales**2)),
                      np.log(2.0) - np.log(np.pi) - np.log(s),
                      -np.log1p((sigma / s) ** 2), log_sigma]
        g_terms = [-b / scales**2]
        g_ls_terms = [1.0, -2.0 * sigma**2 / (s**2 + sigma**2)]
        if prep.n:
            d = b - prep.b_hat
            gd = prep.gram @ d
            rss = prep.rss0 + float(d @ gd)
            logp_terms += [-prep.n * (0.5 * np.log(2.0 * np.pi) + log_sigma),
                           -rss / (2.0 * sigma**2)]
            g_terms.append(-gd / sigma**2)
            g_ls_terms += [-prep.n, rss / sigma**2]
        logp = exact_sum(logp_terms)
        if not (np.isfinite(logp) and (prep.n == 0 or 0.0 < sigma < np.inf)):
            logp = -np.inf
        g_terms = np.array(g_terms).T.tolist() + [g_ls_terms]
        grad = np.array([exact_sum(terms) for terms in g_terms])
        grad_mag = np.array([exact_sum(np.abs(terms)) for terms in g_terms])
    return (logp, exact_sum(np.abs(logp_terms))), (grad, grad_mag)


def exact_sum(terms):
    """math.fsum of finite terms; otherwise the inf or NaN a float sum gives."""
    terms = [float(t) for t in terms]
    return math.fsum(terms) if all(map(math.isfinite, terms)) else float(np.sum(terms))


def evaluate_quietly(model, data, q, grad_first):
    """(log-posterior, gradient) from a freshly prepared model, in either
    call order, with any warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prep = prepare(model, data)
        if grad_first:
            grad = log_posterior_grad(model, prep, q)
            return log_posterior(model, prep, q), grad, prep
        logp = log_posterior(model, prep, q)
        return logp, log_posterior_grad(model, prep, q), prep


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_matches_linear_reference(logp, grad, prep, q):
    want_logp, want_grad = reference_linear(prep, q)
    assert_close(logp, *want_logp)
    assert_close(grad, *want_grad)


class TestLinearMatchesReference:
    @settings(max_examples=100, deadline=None)
    @given(family=st.sampled_from(["did_linear", "rdd_linear"]),
           case=st.sampled_from(["plain", "large_offset", "near_exact_fit", "noise_scale_2"]),
           n=st.integers(1, 200), scale=st.sampled_from([1e-3, 0.1, 1.0, 10.0]),
           grad_first=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_matches_within_ulps(self, family, case, n, scale, grad_first, seed):
        model, dm = linear_case(family, case, n=n, seed=seed)
        rng = np.random.default_rng(seed)
        noise_scale = 2.0 if case == "noise_scale_2" else prob_core.NOISE_SCALE
        for _ in range(3):
            q = rng.normal(0, scale, len(param_names(model, dm)))
            with mock.patch.object(prob_core, "NOISE_SCALE", noise_scale):
                logp, grad, prep = evaluate_quietly(model, dm, q, grad_first)
            assert_matches_linear_reference(logp, grad, prep, q)


@pytest.mark.parametrize("family", ["did_linear", "rdd_linear"])
def test_linear_matches_within_ulps_at_many_points(family):
    model, dm = linear_case(family, "plain", n=60)
    prep = prepare(model, dm)
    rng = np.random.default_rng(8)
    center = np.append(prep.b_hat, np.log(np.sqrt(prep.rss0 / prep.n)))
    for q in center + rng.normal(0, 1, (3000, len(prep.names))) * rng.choice([0.01, 0.3, 3.0], (3000, 1)):
        assert_matches_linear_reference(log_posterior(model, prep, q),
                                        log_posterior_grad(model, prep, q), prep, q)


@pytest.mark.parametrize("grad_first", [True, False])
class TestSharedEvaluationAtTheEdges:
    """Where exp(log_sigma), its square or the linear predictor under- or
    overflows, the shared evaluation raises nothing and lets no warning
    out. -inf and NaN fall where a separate evaluation of each term puts
    them; finite values agree with it as in :func:`assert_close`."""

    @pytest.mark.parametrize("family", ["did_linear", "rdd_linear"])
    @pytest.mark.parametrize("n", [40, 0])
    @pytest.mark.parametrize("log_sigma", [-800.0, -400.0, -372.0, -10.0, 355.0, 400.0, 800.0])
    def test_linear_log_sigma(self, family, n, log_sigma, grad_first):
        model, dm = linear_case(family, "plain", n=n)
        d = len(param_names(model, dm))
        q = np.append(np.random.default_rng(5).normal(0, 1, d - 1), log_sigma)
        logp, grad, prep = evaluate_quietly(model, dm, q, grad_first)
        assert_matches_linear_reference(logp, grad, prep, q)
        if log_sigma == 355.0:  # sigma**2 overflows, (sigma / noise_scale)**2 does not
            assert np.isfinite(logp) and np.isnan(grad[-1])

    @pytest.mark.parametrize("signs", [(1, 1, 1, 1, 1), (-1, -1, -1, -1, -1),
                                       (1, -1, 1, -1, 1), (-1, 1, 1, 1, -1)])
    @pytest.mark.parametrize("x_scale", [1.0, 1e10])
    def test_logistic_at_1e300(self, signs, x_scale, grad_first):
        # the prior's b**2 overflows; with covariates near 1e10 the products
        # overflow too, and a row whose terms overflow with both signs has
        # a NaN predictor
        model, dm, _ = logistic_case(30, 4, "mixed", 3)
        dm.X = np.random.default_rng(2).normal(0, x_scale, (30, 4))
        q = 1e300 * np.array(signs, dtype=float)
        logp, grad, prep = evaluate_quietly(model, dm, q, grad_first)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            assert same_bits(logp, reference_logistic_log_posterior(prep, q))
            assert same_bits(grad, reference_logistic_grad(prep, q))
            predictor = q[0] + dm.X @ q[1:]
        assert logp == -np.inf
        assert np.isnan(grad).any() == np.isnan(predictor).any() == (x_scale > 1)
