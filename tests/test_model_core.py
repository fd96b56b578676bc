import logging
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import tailbayes
from tailbayes.errors import ConfigError, DataError
from tailbayes.model_core import (
    Dataset,
    DistanceFunction,
    GaussianPrior,
    TargetThreshold,
    UtilitySpec,
    _signed_design,
    _softplus,
    _stacked_log_posterior,
    compute_weights,
    effective_sample_size,
    expit,
    log_posterior_gradient,
    log_posterior_unnormalized,
    make_log_posterior,
    target_threshold,
    threshold_band_for_benefit,
)
from tailbayes.sampler import SamplerConfig
from tailbayes.tuning import first_stage, fit_pipeline


def random_dataset(rng, n=30, d=2, beta_scale=1.0):
    x = rng.standard_normal((n, d))
    beta = rng.standard_normal(d + 1) * beta_scale
    z = beta[0] + x @ beta[1:]
    y = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-z))).astype(float)
    return Dataset.from_raw(x, y), beta


def gaussian_log_density(beta, prior):
    """The prior's closed-form log-density at ``beta``, normalising constants included."""
    return float(np.sum(scipy.stats.norm.logpdf(beta, loc=prior.means, scale=prior.sds)))


class TestDataset:
    def test_shape_and_intercept(self):
        data = Dataset.from_raw([[1.0], [2.0]], [0, 1])
        assert data.n == 2 and data.d == 1
        assert np.all(data.covariates[:, 0] == 1.0)

    def test_rejects_bad_outcomes(self):
        with pytest.raises(DataError):
            Dataset.from_raw([[1.0]], [2])

    def test_rejects_nonfinite_covariates(self):
        with pytest.raises(DataError):
            Dataset.from_raw([[np.inf]], [1])

    def test_rejects_missing_intercept(self):
        with pytest.raises(DataError):
            Dataset(outcomes=[0, 1], covariates=[[1.0, 2.0], [0.5, 3.0]])

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            Dataset.from_raw(np.empty((0, 2)), [])

    def test_immutable(self):
        data = Dataset.from_raw([[1.0], [2.0]], [0, 1])
        with pytest.raises(ValueError):
            data.covariates[0, 0] = 5.0


class TestTargetThreshold:
    def test_one_to_nine_example(self):
        """Harm-to-benefit 1:9 gives exactly t = 0.1."""
        spec = UtilitySpec(u_tp=9.0, u_fp=0.0, u_fn=0.0, u_tn=1.0)
        assert target_threshold(spec).t == 0.1

    def test_symmetry(self):
        for value in (0.5, 2.0, 7.25):
            spec = UtilitySpec(u_tp=value, u_fp=0.0, u_fn=0.0, u_tn=value)
            assert target_threshold(spec).t == 0.5

    def test_zero_harm_rejected(self):
        spec = UtilitySpec(u_tp=2.0, u_fp=1.0, u_fn=0.0, u_tn=1.0)  # H = 0
        with pytest.raises(ConfigError):
            target_threshold(spec)

    def test_degenerate_utilities_rejected(self):
        with pytest.raises(ConfigError):
            UtilitySpec(u_tp=0.0, u_fp=1.0, u_fn=0.0, u_tn=0.0)  # B + H = -1

    def test_odds_duality(self):
        """odds(t) * B = H whenever B, H > 0."""
        rng = np.random.default_rng(7)
        for _ in range(1000):
            base = rng.uniform(-5, 5, size=2)
            b, h = rng.uniform(0.01, 10, size=2)
            spec = UtilitySpec(
                u_tp=base[0] + b, u_fn=base[0], u_tn=base[1] + h, u_fp=base[1]
            )
            t = target_threshold(spec)
            assert abs(t.odds * spec.benefit - spec.harm) <= 1e-12 * abs(spec.harm)

    def test_threshold_range_enforced(self):
        with pytest.raises(ConfigError):
            TargetThreshold(0.0)
        with pytest.raises(ConfigError):
            TargetThreshold(1.0)


class TestThresholdBand:
    def test_chemo_benefit_band(self):
        """22% relative reduction maps a 3-5% benefit band to [0.136, 0.227]."""
        lo, hi = threshold_band_for_benefit(0.22, 0.03, 0.05)
        assert round(lo, 3) == 0.136
        assert round(hi, 3) == 0.227
        assert round(100 * lo) == 14
        assert round(100 * hi) == 23

    def test_band_validation(self):
        with pytest.raises(ConfigError):
            threshold_band_for_benefit(0.0, 0.03, 0.05)
        with pytest.raises(ConfigError):
            threshold_band_for_benefit(0.1, 0.05, 0.2)  # upper maps past 1


class TestWeights:
    def test_lambda_zero_gives_ones(self):
        rng = np.random.default_rng(1)
        assert np.all(compute_weights(rng.uniform(size=50), TargetThreshold(0.3), [0.0]) == 1.0)

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(
        t=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        pi_u=arrays(np.float64, st.integers(0, 20), elements=st.floats(0.0, 1.0)),
        distance=st.one_of(
            st.just(DistanceFunction()),
            st.builds(DistanceFunction, st.just("epsilon_insensitive"),
                      st.floats(min_value=0.0, allow_infinity=False)),
        ),
    )
    def test_lambda_zero_is_exactly_one_everywhere(self, t, pi_u, distance):
        """The pipeline's final chain of a {0} grid takes weights of ones before pi_u exists."""
        pi_u = np.concatenate([pi_u, [0.0, 1.0, t]])
        assert np.all(compute_weights(pi_u, TargetThreshold(t), [0.0], distance) == 1.0)

    def test_zero_distance_gives_one(self):
        assert np.all(compute_weights(np.array([0.15]), TargetThreshold(0.15), [0.5, 10.0, 400.0]) == 1.0)

    def test_frozen_scalar_value(self):
        """exp(-10 * (0.5 - 0.15)^2) = exp(-1.225), high-precision oracle."""
        np.testing.assert_allclose(
            compute_weights(np.array([0.5]), TargetThreshold(0.15), [10.0])[0, 0], 0.293757700323532814, rtol=1e-15
        )

    def test_epsilon_insensitive_plateau(self):
        dist = DistanceFunction("epsilon_insensitive", 0.1)
        pi_u = np.array([0.21, 0.25, 0.3, 0.35, 0.39])
        assert np.all(compute_weights(pi_u, TargetThreshold(0.3), [25.0], dist) == 1.0)

    def test_epsilon_insensitive_decay_outside(self):
        dist = DistanceFunction("epsilon_insensitive", 0.1)
        np.testing.assert_allclose(
            compute_weights(np.array([0.45]), TargetThreshold(0.3), [5.0], dist)[0, 0], math.exp(-5.0 * 0.05)
        )

    def test_bounds_and_monotonicity(self):
        rng = np.random.default_rng(5)
        t = TargetThreshold(0.27)
        pi = rng.uniform(size=200)
        for lam_low, lam_high in [(0.0, 1.0), (2.0, 8.0), (10.0, 300.0)]:
            w_low, w_high = compute_weights(pi, t, [lam_low, lam_high])
            assert np.all((w_low > 0.0) & (w_low <= 1.0))
            assert np.all(w_high <= w_low)
        # non-increasing in distance for fixed lam
        order = np.argsort(np.abs(pi - t.t))
        w = compute_weights(pi, t, [12.0])[0, order]
        assert np.all(np.diff(w) <= 0.0)

    def test_pi_u_range_enforced(self):
        with pytest.raises(ConfigError):
            compute_weights(np.array([1.2]), TargetThreshold(0.3), [1.0])

    @settings(derandomize=True, max_examples=30, deadline=None, database=None)
    @given(
        t=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        pi_u=arrays(np.float64, st.integers(1, 30), elements=st.floats(0.0, 1.0)),
        lambdas=st.lists(st.floats(0.0, 1e4), max_size=6),
        distance=st.one_of(
            st.just(DistanceFunction()),
            st.builds(DistanceFunction, st.just("epsilon_insensitive"), st.floats(0.0, 1.0)),
        ),
    )
    def test_each_row_is_the_rule_at_its_own_lambda(self, t, pi_u, lambdas, distance):
        weights = compute_weights(pi_u, TargetThreshold(t), lambdas, distance)
        assert weights.shape == (len(lambdas), pi_u.size)
        for lam, row in zip(lambdas, weights):
            assert np.array_equal(row, np.exp(-lam * distance(pi_u, t)))

    @settings(derandomize=True, max_examples=30, deadline=None, database=None)
    @given(
        lambdas=st.lists(st.floats(0.0, 1e4), max_size=4),
        pi_u=arrays(np.float64, st.integers(0, 6), elements=st.floats(0.0, 1.0)),
        bad=st.one_of(
            st.tuples(st.just("lambda"), st.floats(max_value=-1e-300) | st.sampled_from([math.nan, math.inf]))
            | st.tuples(st.just("pi_u"), st.floats(min_value=1.0, exclude_min=True) | st.floats(max_value=-1e-300)
                        | st.just(math.nan)),
            st.just(("empty", None)),
        ),
        at=st.integers(0, 6),
    )
    def test_bad_lambda_or_pi_u_anywhere_raises(self, lambdas, pi_u, bad, at):
        kind, value = bad
        if kind == "lambda":
            lambdas.insert(at, value)
        elif kind == "pi_u":
            pi_u = np.insert(pi_u, min(at, pi_u.size), value)
        else:
            pi_u = pi_u[:0]
        message = {"lambda": "lam must be finite and >= 0", "pi_u": r"pi_u values must lie in \[0, 1\]",
                   "empty": "pi_u must be non-empty"}[kind]
        with pytest.raises(ConfigError, match=message):
            compute_weights(pi_u, TargetThreshold(0.3), lambdas)

    def test_boundary_pi_u_flagged(self, caplog):
        weights = compute_weights(
            np.array([0.0, 0.5, 1.0]), TargetThreshold(0.3), [1.0], DistanceFunction("epsilon_insensitive", 0.05)
        )
        assert np.all(np.isfinite(weights))
        # the pipeline accepts boundary values and says how many it saw
        data, _ = random_dataset(np.random.default_rng(5), n=40)
        pi_u = np.concatenate([[0.0, 1.0, 0.0], np.linspace(0.1, 0.9, 37)])
        with caplog.at_level(logging.WARNING, logger="tailbayes.tuning"):
            fit_pipeline(first_stage(data, lambda_grid=(0.0,), external_pi_u=pi_u,
                                     sampler_config=SamplerConfig(n_iterations=300, burn_in=100, rng_seed=1)),
                         TargetThreshold(0.3))
        assert "3 first-stage probabilities sit exactly at 0 or 1" in caplog.messages


class TestTailoredLogLikelihood:
    """The likelihood term of the one log-posterior: its value less the closed-form log-prior."""

    def test_unit_weights_reduce_to_standard(self):
        """Weights of exactly 1 reproduce the plain logistic log-likelihood."""
        rng = np.random.default_rng(2)
        prior = GaussianPrior(np.array([0.5, -1.0, 0.25]), np.array([2.0, 5.0, 0.5]))
        for _ in range(20):
            data, beta = random_dataset(rng)
            z = data.covariates @ beta
            standard = float(
                np.sum(data.outcomes * z - (np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))))
            )
            value = log_posterior_unnormalized(data, beta, np.ones(data.n), prior)
            tailored = value - gaussian_log_density(beta, prior)
            assert math.isclose(tailored, standard, rel_tol=1e-13, abs_tol=1e-12)

    def test_zero_weights_give_zero(self):
        """With every weight 0 the value is the closed-form Gaussian log-density."""
        rng = np.random.default_rng(3)
        prior = GaussianPrior(np.array([0.5, -1.0, 0.25]), np.array([2.0, 5.0, 0.5]))
        for _ in range(20):
            data, beta = random_dataset(rng, beta_scale=5.0)
            value = log_posterior_unnormalized(data, beta, np.zeros(data.n), prior)
            np.testing.assert_allclose(value, gaussian_log_density(beta, prior), rtol=1e-14)

    def test_scalar_oracle(self):
        """One row, y=1, z=0, w=0.5 gives 0.5 * log(0.5); a unit prior at its mean adds -log(2 pi)."""
        data = Dataset(outcomes=[1], covariates=[[1.0, -1.0]])
        prior = GaussianPrior([1.0, 1.0], [1.0, 1.0])
        value = log_posterior_unnormalized(data, [1.0, 1.0], [0.5], prior)
        np.testing.assert_allclose(value, -0.34657359027997265 - 1.8378770664093455, rtol=1e-15)

    def test_extreme_linear_predictor_stays_finite(self):
        # y=0 at z=+700 costs softplus(700) = 700; y=1 at z=+700 costs ~0
        data = Dataset(outcomes=[0, 1], covariates=[[1.0, 1.0], [1.0, 1.0]])
        prior = GaussianPrior([0.0, 700.0], [1.0, 1.0])
        value = log_posterior_unnormalized(data, [0.0, 700.0], [1.0, 1.0], prior)
        assert math.isfinite(value)
        np.testing.assert_allclose(value, -700.0 - math.log(2.0 * math.pi), rtol=1e-12)

    def test_length_mismatch(self):
        data = Dataset.from_raw([[1.0], [2.0]], [0, 1])
        with pytest.raises(DataError, match="1 weights for 2 rows"):
            log_posterior_unnormalized(data, [0.0, 0.0], [1.0], GaussianPrior.vague(2))
        with pytest.raises(DataError, match="1 weights for 2 rows"):
            make_log_posterior(data, [1.0], GaussianPrior.vague(2))


class TestLogPrior:
    """The prior term of the one log-posterior, read off at zero weights."""

    def test_mode_value(self):
        data, _ = random_dataset(np.random.default_rng(1), d=1)
        mu = np.array([0.5, -1.0])
        sd = np.array([2.0, 3.0])
        prior = GaussianPrior(mu, sd)
        expected = -float(np.sum(np.log(sd * math.sqrt(2 * math.pi))))
        np.testing.assert_allclose(log_posterior_unnormalized(data, mu, np.zeros(data.n), prior), expected, rtol=1e-14)

    def test_standard_normal_oracle(self):
        data = Dataset(outcomes=[1], covariates=[[1.0]])
        value = log_posterior_unnormalized(data, [0.0], [0.0], GaussianPrior([0.0], [1.0]))
        np.testing.assert_allclose(value, -0.9189385332046727, rtol=1e-15)

    def test_vague_prior_finite_everywhere(self):
        data, _ = random_dataset(np.random.default_rng(2), d=3)
        prior = GaussianPrior.vague(4)
        assert np.all(prior.sds == 100.0)
        for beta in ([0, 0, 0, 0], [1e3, -1e3, 5e2, 0.1]):
            assert math.isfinite(log_posterior_unnormalized(data, beta, np.zeros(data.n), prior))

    def test_dimension_mismatch(self):
        data = Dataset.from_raw([[1.0], [2.0]], [0, 1])
        with pytest.raises(DataError, match="prior dimension does not match"):
            log_posterior_unnormalized(data, [0.0, 1.0], [1.0, 1.0], GaussianPrior.vague(3))
        with pytest.raises(DataError, match="coefficient vector has length 3, expected 2"):
            log_posterior_unnormalized(data, [0.0, 1.0, 2.0], [1.0, 1.0], GaussianPrior.vague(2))

    def test_invalid_sds(self):
        with pytest.raises(ConfigError):
            GaussianPrior([0.0], [0.0])


class TestLogPosterior:
    def test_unit_weights_standard_bayes(self):
        """Unit weights give the standard posterior, against scipy's log-expit and normal log-density."""
        rng = np.random.default_rng(4)
        for _ in range(20):
            data, beta = random_dataset(rng)
            prior = GaussianPrior.vague(3, sd=rng.uniform(0.5, 100.0))
            z = data.covariates @ beta
            log_lik = np.sum(scipy.special.log_expit(np.where(data.outcomes == 1.0, z, -z)))
            expected = log_lik + np.sum(scipy.stats.norm.logpdf(beta, scale=prior.sds))
            lp = log_posterior_unnormalized(data, beta, np.ones(data.n), prior)
            assert math.isclose(lp, expected, rel_tol=1e-13)

    def test_data_dependent_prior_factorization(self):
        """logpost(w) - logpost(1) = -sum (1 - w_i) l_i, to 1e-10."""
        rng = np.random.default_rng(6)
        for _ in range(50):
            data, beta = random_dataset(rng)
            prior = GaussianPrior.vague(3)
            w = rng.uniform(size=data.n)
            z = data.covariates @ beta
            li = data.outcomes * z - (np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z))))
            lhs = log_posterior_unnormalized(data, beta, w, prior) - log_posterior_unnormalized(
                data, beta, np.ones(data.n), prior
            )
            np.testing.assert_allclose(lhs, -np.sum((1.0 - w) * li), atol=1e-10)

    def test_prior_dominates_far_away(self):
        rng = np.random.default_rng(8)
        data, beta = random_dataset(rng)
        prior = GaussianPrior.vague(3)
        w = rng.uniform(size=data.n)
        values = [
            log_posterior_unnormalized(data, scale * np.ones(3), w, prior)
            for scale in (0.0, 1e3, 1e4)
        ]
        assert values[0] > values[1] > values[2]

    def test_equals_the_callable_exactly(self):
        """The scalar entry is the callable of make_log_posterior: the same bits in 500 random cases."""
        rng = np.random.default_rng(9)
        for _ in range(500):
            n, d = int(rng.integers(1, 60)), int(rng.integers(1, 4))
            data, _ = random_dataset(rng, n=n, d=d)
            means = rng.normal(size=d + 1) * rng.integers(0, 2)  # zero means half the time
            sds = rng.uniform(0.5, 20.0, size=d + 1) if rng.random() < 0.5 else np.full(d + 1, rng.uniform(0.5, 20.0))
            prior = GaussianPrior(means, sds)
            w = rng.uniform(size=n) * (rng.random(n) > 0.2)
            beta = rng.standard_normal(d + 1) * rng.choice([1.0, 10.0, 400.0])  # 400 overflows exp for some rows
            assert log_posterior_unnormalized(data, beta, w, prior) == make_log_posterior(data, w, prior)(beta)

    def test_nonfinite_value_is_data_error(self):
        # the prior term overflows: the value would be -inf
        data, beta = random_dataset(np.random.default_rng(12))
        prior = GaussianPrior.vague(3, sd=1e-300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="log-posterior is non-finite"):
                log_posterior_unnormalized(data, beta, np.ones(data.n), prior)


class TestLikelihoodKernel:
    """Small integers and halves keep every linear predictor exact in any summation order."""

    DATA = Dataset.from_raw([[-3.0, 2.0], [1.0, 0.0], [2.0, -1.0], [0.0, 3.0]], [0, 1, 1, 0])
    PRIOR = GaussianPrior.vague(3)
    WEIGHTS = np.array([1.0, 0.5, 0.25, 2.0])
    # Row 1 puts z = 901 on the first datapoint, whose y = 0: s * z = 901 overflows exp.
    BETAS = np.array([[0.5, -1.0, 0.25], [1.0, -300.0, 0.0], [-0.5, 0.0, 1.5]])

    def softplus_value(self, beta):
        sz = (1.0 - 2.0 * self.DATA.outcomes) * (self.DATA.covariates @ beta)
        return -float(np.sum(self.WEIGHTS * np.logaddexp(0.0, sz)))

    def test_overflowing_row_falls_back_to_softplus(self):
        logpost = make_log_posterior(self.DATA, self.WEIGHTS[None, :], self.PRIOR)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = logpost(self.BETAS)
            alone = [logpost(beta) for beta in self.BETAS]
        expected = self.softplus_value(self.BETAS[1]) + gaussian_log_density(self.BETAS[1], self.PRIOR)
        np.testing.assert_allclose(values[1], expected, rtol=1e-14)
        assert values[0] == alone[0] and values[2] == alone[2]
        np.testing.assert_allclose(alone[1], expected, rtol=1e-14)

    def test_log_posterior_unnormalized_falls_back_to_softplus(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = log_posterior_unnormalized(self.DATA, self.BETAS[1], self.WEIGHTS, self.PRIOR)
        expected = self.softplus_value(self.BETAS[1]) + gaussian_log_density(self.BETAS[1], self.PRIOR)
        np.testing.assert_allclose(value, expected, rtol=1e-14)

    def test_overflowing_prior_term_gives_minus_inf_silently(self):
        # (b - mu) / sd and its squared norm overflow: the value is -inf, with no RuntimeWarning
        logpost = make_log_posterior(self.DATA, self.WEIGHTS, GaussianPrior.vague(3, sd=1e-300))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert logpost(self.BETAS[0]) == -np.inf
            assert logpost(self.BETAS).tolist() == [-np.inf] * 3
            assert math.isfinite(logpost(np.zeros(3)))

    def test_zero_weight_on_an_overflowing_row_is_silent(self):
        # 0 * inf is NaN in the batched sum, which sends the row to the fallback, never to a warning
        weights = np.stack([self.WEIGHTS, np.where(np.arange(4) == 0, 0.0, self.WEIGHTS)])
        logpost = make_log_posterior(self.DATA, weights, self.PRIOR)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = logpost(self.BETAS[[1, 1]])
        expected = self.softplus_value(self.BETAS[1]) + gaussian_log_density(self.BETAS[1], self.PRIOR)
        np.testing.assert_allclose(values[0], expected, rtol=1e-14)
        assert math.isfinite(values[1]) and values[1] > values[0]

    def test_batch_rows_cycle_through_weight_rows(self):
        """With C weight rows, row r of an (m * C, d) batch is under weight row r mod C."""
        weights = np.stack([self.WEIGHTS, self.WEIGHTS[::-1]])
        batch = np.concatenate([self.BETAS[[0, 2]], self.BETAS[[2, 0]]])
        values = make_log_posterior(self.DATA, weights, self.PRIOR)(batch)
        for r, beta in enumerate(batch):
            alone = make_log_posterior(self.DATA, weights[r % 2], self.PRIOR)(beta)
            assert values[r] == alone


@st.composite
def loss_batches(draw):
    """(data, (C, n) weights, (m * C, d) coefficients) in halves, so every s z is exact in any order.

    Coefficients reach +-300, so some rows put s z far above 709 and overflow exp.
    """
    n, d, c, m = draw(st.integers(1, 12)), draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    halves = lambda bound: st.integers(-2 * bound, 2 * bound).map(lambda v: v / 2)  # noqa: E731
    x = draw(arrays(np.float64, (n, d - 1), elements=halves(4)))
    y = draw(arrays(np.float64, n, elements=st.sampled_from([0.0, 1.0])))
    w = draw(arrays(np.float64, (c, n), elements=st.floats(0.0, 4.0)))
    b = draw(arrays(np.float64, (m * c, d), elements=halves(3) | halves(300)))
    return Dataset.from_raw(x, y), w, b


@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(loss_batches())
def test_weighted_loss_batch_row_equals_row_alone(case):
    """Row r of a batch, under weight row r mod C, is the row evaluated alone; an overflowing row stays finite."""
    data, w, b = case
    prior = GaussianPrior.vague(b.shape[1], sd=4.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = make_log_posterior(data, w, prior)(b)
        for r, row in enumerate(b):
            alone = make_log_posterior(data, w[r % len(w)], prior)(row)
            np.testing.assert_array_max_ulp(batch[r], alone, maxulp=4)
            sz = row @ _signed_design(data)
            if sz.max() >= 710.0:  # exp(710) overflows: the row took the overflow-free fallback
                expected = np.vecdot(w[r % len(w)], _softplus(sz)) - gaussian_log_density(row, prior)
                np.testing.assert_allclose(-batch[r], expected, rtol=1e-14)
    assert np.all(np.isfinite(batch))


class TestWeightLayout:
    """The weights are copied C-ordered once, so their memory layout never reaches a value."""

    PRIOR = GaussianPrior(np.array([0.5, -1.0, 0.25]), np.array([2.0, 5.0, 0.5]))

    def layouts(self, rng, c, n):
        wide = rng.uniform(0.0, 2.0, size=(c, 2 * n))
        w = wide[:, ::2]  # a sliced view, strides (16 n, 16)
        return {"sliced": w, "C": np.ascontiguousarray(w), "F": np.asfortranarray(w)}

    def test_every_layout_gives_the_same_bits(self):
        rng = np.random.default_rng(17)
        data, _ = random_dataset(rng, n=300)
        other, _ = random_dataset(rng, n=333)  # a larger group pads this one by 33 columns in the stack
        layouts = self.layouts(rng, 4, data.n)
        other_w = self.layouts(rng, 4, other.n)["F"]
        b = rng.standard_normal((2 * 4, 3))
        values = {name: make_log_posterior(data, w, self.PRIOR)(b) for name, w in layouts.items()}
        for name, w in layouts.items():
            assert np.array_equal(values[name], values["C"]), name
            stacked = _stacked_log_posterior((other, data), (other_w, w), self.PRIOR)
            both = stacked(np.concatenate([b[::-1], b]))
            assert np.array_equal(both[len(b) :], values["C"]), name
            assert np.array_equal(both[: len(b)], make_log_posterior(other, other_w, self.PRIOR)(b[::-1])), name

    def test_stacked_groups_of_any_sizes_equal_their_own_callables(self):
        """Each run of equal-size groups sums its own columns: no group is summed over another's padding."""
        rng = np.random.default_rng(23)
        sets = [random_dataset(rng, n=n)[0] for n in (31, 33, 33, 64, 70, 31)]
        weights = [rng.uniform(0.0, 2.0, size=(3, d.n)) for d in sets]
        b = rng.standard_normal((len(sets) * 2 * 3, 3))
        stacked = _stacked_log_posterior(sets, weights, self.PRIOR)(b)
        for g, (d, w) in enumerate(zip(sets, weights)):
            own = make_log_posterior(d, w, self.PRIOR)(b[g * 6 : (g + 1) * 6])
            assert np.array_equal(stacked[g * 6 : (g + 1) * 6], own), g


class TestRoundingClasses:
    """What the bit identity of prefetched and stacked chains rests on, pinned with the BLAS this numpy runs."""

    PRIOR = GaussianPrior(np.array([0.5, -1.0, 0.25]), np.array([2.0, 5.0, 0.5]))

    @pytest.mark.parametrize("n", [200, 640, 1000, 8000])
    def test_blocks_of_two_to_four_rows_and_a_stack_of_eight_round_as_the_four_row_block(self, n):
        """A prefetched chain evaluates blocks of up to 4 rows and CV stacks C = 8 chains; both give the 4-row bits.

        A 1-row product rounds some elements of every row differently, and so may its value: nothing is said of it.
        """
        rng = np.random.default_rng(n)
        data, _ = random_dataset(rng, n=n)
        w = rng.uniform(0.0, 2.0, size=n)
        b = rng.standard_normal((8, 3)) * 0.5
        logpost = make_log_posterior(data, w, self.PRIOR)
        blocks = np.concatenate([logpost(b[:4]), logpost(b[4:])])
        for m in (2, 3, 4):
            for start in range(8 - m + 1):
                assert np.array_equal(logpost(b[start : start + m]), blocks[start : start + m]), (m, start)
        assert np.array_equal(make_log_posterior(data, np.tile(w, (8, 1)), self.PRIOR)(b), blocks)

    @pytest.mark.parametrize("n", [200, 640, 3200, 8000])
    @pytest.mark.parametrize("n_rows", [8, 15, 22, 64])
    def test_a_stack_of_thresholds_gives_each_row_the_bits_of_its_own_eight_row_stack(self, n, n_rows):
        """CV stacks the grids of T thresholds in C = 1 + 7 T rows: one all-1 lam = 0 row, then 7 rows per threshold.

        Every row must get the bits that its own threshold's 8-row stack, the lam = 0 row and its 7 rows, gives it,
        so that a threshold's CV chains do not depend on the other thresholds of the stack.
        """
        rng = np.random.default_rng(n + n_rows)
        data, _ = random_dataset(rng, n=n)
        w = np.vstack([np.ones(n), rng.uniform(0.0, 2.0, size=(n_rows - 1, n))])
        b = rng.standard_normal((n_rows, 3)) * 0.5
        stacked = tailbayes.model_core._stacked_log_posterior([data], [w], self.PRIOR)(b)
        for i in range((n_rows - 1) // 7):
            own = [0, *range(1 + 7 * i, 8 + 7 * i)]
            assert np.array_equal(make_log_posterior(data, w[own], self.PRIOR)(b[own]), stacked[own]), i

    def test_a_chain_on_more_than_ten_thousand_rows_does_not_depend_on_the_blas_thread_count(self):
        """OpenBLAS splits a ddot longer than 10 000 elements across threads; each row sum stays in shorter chunks."""
        code = (
            "import hashlib\n"
            "import numpy as np\n"
            "from tailbayes.model_core import GaussianPrior, make_log_posterior\n"
            "from tailbayes.sampler import SamplerConfig, run_mh\n"
            "from tailbayes.simulation import Sim1Config, generate_sim1\n"
            "data, _ = generate_sim1(Sim1Config(n=12_600, q=1.0, seed=3))\n"
            "logpost = make_log_posterior(data, np.ones(data.n), GaussianPrior.vague(data.n_coefficients))\n"
            "chain = run_mh(logpost, data.n_coefficients, SamplerConfig(n_iterations=4000, burn_in=1000, rng_seed=5))\n"
            "print(hashlib.sha256(chain.draws.tobytes() + chain.log_posterior_trace.tobytes()).hexdigest())"
        )
        src = str(Path(tailbayes.__file__).resolve().parents[1])
        hashes = [
            subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=t),
                           capture_output=True, text=True, check=True).stdout
            for t in ("1", "2")
        ]
        assert len(hashes[0]) == 65 and hashes[0] == hashes[1]


class TestGradient:
    def test_matches_central_differences(self):
        """Analytic gradient vs step-1e-5 central differences, 100 instances."""
        rng = np.random.default_rng(10)
        step = 1e-5
        for _ in range(100):
            data, _ = random_dataset(rng, n=25, d=3)
            beta = rng.standard_normal(4)
            w = rng.uniform(size=data.n)
            prior = GaussianPrior.vague(4, sd=10.0)
            grad = log_posterior_gradient(data, beta, w, prior)
            fd = np.empty_like(grad)
            for j in range(4):
                up, down = beta.copy(), beta.copy()
                up[j] += step
                down[j] -= step
                fd[j] = (
                    log_posterior_unnormalized(data, up, w, prior)
                    - log_posterior_unnormalized(data, down, w, prior)
                ) / (2 * step)
            rel = np.linalg.norm(grad - fd) / max(1.0, np.linalg.norm(grad))
            assert rel <= 1e-4


class TestEffectiveSampleSize:
    def test_unit_weights_give_n(self):
        assert effective_sample_size(np.ones(123)) == 123.0

    def test_halves(self):
        assert effective_sample_size([0.5, 0.5]) == 1.0

    def test_large_lambda_limit(self):
        pi = np.array([0.1, 0.6, 0.9])
        assert effective_sample_size(compute_weights(pi, TargetThreshold(0.3), [1e6])) < 1e-9

    def test_additivity(self):
        rng = np.random.default_rng(11)
        a, b = rng.uniform(size=40), rng.uniform(size=17)
        total = effective_sample_size(np.concatenate([a, b]))
        np.testing.assert_allclose(
            total, effective_sample_size(a) + effective_sample_size(b), rtol=1e-12
        )


class TestDistanceFunction:
    def test_squared_rejects_epsilon(self):
        with pytest.raises(ConfigError):
            DistanceFunction("squared", 0.5)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ConfigError):
            DistanceFunction("epsilon_insensitive", -0.1)

    def test_nan_epsilon_rejected(self):
        # nan < 0 is False, so the check must be written as not (epsilon >= 0)
        with pytest.raises(ConfigError, match="epsilon must be >= 0"):
            DistanceFunction("epsilon_insensitive", math.nan)

    def test_infinite_epsilon_rejected(self):
        # the fit manifest records epsilon, and JSON has no infinity
        with pytest.raises(ConfigError, match="^epsilon must be finite, got inf$"):
            DistanceFunction("epsilon_insensitive", math.inf)

    def test_epsilon_zero_is_absolute_distance(self):
        dist = DistanceFunction("epsilon_insensitive", 0.0)
        np.testing.assert_allclose(dist(np.array([0.2, 0.8]), 0.5), [0.3, 0.3])


class TestLogistic:
    def test_expit_matches_scipy(self):
        z = np.linspace(-800.0, 800.0, 200_001)
        np.testing.assert_allclose(expit(z), scipy.special.expit(z), rtol=1e-15)

    def test_expit_saturates_exactly_and_silently(self):
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            assert expit(np.array([-800.0, 800.0])).tolist() == [0.0, 1.0]
            assert expit(-800.0) == 0.0 and expit(800.0) == 1.0

    def test_package_imports_no_scipy(self):
        # scipy is a test dependency only; importing it would add ~0.2 s to every CLI process
        code = (
            "import sys, tailbayes, tailbayes.cli\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(tailbayes.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]"
