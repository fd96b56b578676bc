import math

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import norm

from tailbayes.errors import ConfigError
from conftest import calibration_curve
from tailbayes.evaluation import net_benefit
from tailbayes.model_core import GaussianPrior
from tailbayes.predict import predictive_mean_sd
from tailbayes.sampler import SamplerConfig
from tailbayes.simulation import (
    Sim1Config,
    Sim2Config,
    Sim3Config,
    fitted_boundary_slope,
    generate_sim1,
    generate_sim2,
    generate_sim3,
    optimal_nb,
    sim1_boundary_slope,
    sim1_oracle_probability,
    sim2_oracle_probability,
)
from tailbayes.tuning import fit_standard


def assert_oracle_consistent(probs, outcomes, min_count=80):
    curve = calibration_curve(probs, outcomes, n_bins=10)
    for j in np.flatnonzero(curve.counts >= min_count):
        se = math.sqrt(
            curve.mean_predicted[j] * (1.0 - curve.mean_predicted[j]) / curve.counts[j]
        )
        assert abs(curve.observed_fraction[j] - curve.mean_predicted[j]) <= 3.0 * se + 1e-9


class TestSim1:
    def test_balanced_prevalence(self):
        data, _ = generate_sim1(Sim1Config(n=5000, q=1.0, seed=2))
        assert abs(data.outcomes.mean() - 0.5) <= 0.02

    def test_low_q_prevalence(self):
        data, _ = generate_sim1(Sim1Config(n=20_000, q=0.1, seed=3))
        assert abs(data.outcomes.mean() - 0.15) <= 0.02

    def test_diagonal_symmetry(self):
        assert sim1_oracle_probability(0.37, 0.37, q=1.0) == 0.5

    def test_covariates_in_unit_square(self):
        data, theta = generate_sim1(Sim1Config(n=1000, q=0.5, seed=4))
        x = data.covariates[:, 1:]
        assert np.all((x >= 0.0) & (x <= 1.0))
        assert np.all((theta >= 0.0) & (theta <= 1.0))
        assert data.covariates.shape == (1000, 3)

    def test_deterministic(self):
        a, ta = generate_sim1(Sim1Config(n=100, q=1.0, seed=9))
        b, tb = generate_sim1(Sim1Config(n=100, q=1.0, seed=9))
        assert np.array_equal(a.covariates, b.covariates)
        assert np.array_equal(a.outcomes, b.outcomes)
        assert np.array_equal(ta, tb)

    def test_oracle_consistency(self):
        data, theta = generate_sim1(Sim1Config(n=20_000, q=1.0, seed=5))
        assert_oracle_consistent(theta, data.outcomes)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            Sim1Config(n=0)
        with pytest.raises(ConfigError):
            Sim1Config(n=10, q=0.0)

    def test_infinite_q_is_config_error(self):
        # the oracle q x2 / (x1 + q x2) is inf / inf = nan at q = inf
        with pytest.raises(ConfigError, match="^q must be finite, got inf$"):
            Sim1Config(n=10, q=math.inf)
        for q in (-math.inf, math.nan):
            with pytest.raises(ConfigError, match="^q must be positive$"):
                Sim1Config(n=10, q=q)


@pytest.mark.parametrize("config", [Sim1Config, Sim2Config, Sim3Config])
def test_n_whose_design_matrix_exceeds_physical_memory_is_config_error(config):
    message = (r"the 10000000000000 rows of a study's \(n, 3\) float64 design matrix need 240000000000000 bytes, "
               "more than the [0-9]+ bytes of physical memory")
    with pytest.raises(ConfigError, match=message):
        config(n=10**13)


@pytest.mark.parametrize("config", [Sim1Config, Sim2Config, Sim3Config])
@pytest.mark.parametrize("n", [2.5, 200.0])
def test_n_that_is_not_an_integer_is_config_error(config, n):
    # the generators would fail inside numpy, at the first draw, on a float size
    with pytest.raises(ConfigError, match=f"^n must be an integer, got {n!r}$"):
        config(n=n, seed=0)


class TestSim2:
    def test_oracle_against_scipy_densities(self):
        """Bayes-rule oracle vs independent scipy normal pdfs, 100x100 grid."""
        cfg = Sim2Config(n=10, seed=0)
        g = np.linspace(-4.0, 5.0, 100)
        x1, x2 = np.meshgrid(g, g)
        ours = sim2_oracle_probability(x1.ravel(), x2.ravel(), cfg)
        d1 = norm.pdf(x1.ravel(), 1.0, 1.0) * norm.pdf(x2.ravel(), 0.0, math.sqrt(2.0))
        d0 = norm.pdf(x1.ravel(), 0.0, math.sqrt(2.0)) * norm.pdf(x2.ravel(), 1.0, 1.0)
        expected = 0.5 * d1 / (0.5 * d1 + 0.5 * d0)
        np.testing.assert_allclose(ours, expected, atol=1e-12)

    def test_equal_density_point_is_half(self):
        cfg = Sim2Config(n=10, seed=0)
        np.testing.assert_allclose(
            sim2_oracle_probability([0.7], [0.7], cfg)[0], 0.5, atol=1e-12
        )

    def test_prevalence_concentrates(self):
        data, _ = generate_sim2(Sim2Config(n=10_000, seed=1, prevalence=0.5))
        assert abs(data.outcomes.mean() - 0.5) <= 0.015

    def test_prevalence_prior_drives_class_balance(self):
        data, _ = generate_sim2(Sim2Config(n=10_000, seed=2, prevalence=0.1))
        assert abs(data.outcomes.mean() - 0.1) <= 0.01

    def test_class_conditional_moments(self):
        data, _ = generate_sim2(Sim2Config(n=40_000, seed=3))
        x = data.covariates[:, 1:]
        pos = x[data.outcomes == 1.0]
        neg = x[data.outcomes == 0.0]
        np.testing.assert_allclose(pos.mean(axis=0), [1.0, 0.0], atol=0.05)
        np.testing.assert_allclose(neg.mean(axis=0), [0.0, 1.0], atol=0.05)
        np.testing.assert_allclose(pos.var(axis=0), [1.0, 2.0], atol=0.1)
        np.testing.assert_allclose(neg.var(axis=0), [2.0, 1.0], atol=0.1)

    def test_oracle_consistency(self):
        data, probs = generate_sim2(Sim2Config(n=20_000, seed=7))
        assert_oracle_consistent(probs, data.outcomes)


class TestSim3:
    def test_clean_generation(self):
        data, probs, mask = generate_sim3(Sim3Config(n=500, seed=1))
        assert not mask.any()
        assert data.n == 500
        z = data.covariates @ np.array([0.0, 2.0, 3.0])
        np.testing.assert_allclose(probs, expit(z), rtol=1e-12)

    def test_exact_contamination_counts(self):
        data, _, mask = generate_sim3(Sim3Config(n=1000, contamination=0.10, seed=2))
        assert data.n == 1100
        assert mask.sum() == 100
        assert np.all(data.outcomes[mask] == 0.0)
        assert np.all(~mask[:1000])

    def test_floor_rounding_of_contaminants(self):
        _, _, mask = generate_sim3(Sim3Config(n=333, contamination=0.10, seed=3))
        assert mask.sum() == 33

    def test_contaminant_location(self):
        data, _, mask = generate_sim3(Sim3Config(n=1000, contamination=0.10, seed=4))
        bad = data.covariates[mask][:, 1:]
        assert bad.shape[0] == 100
        np.testing.assert_allclose(bad.mean(axis=0), [1.5, 1.5], atol=0.1)
        assert 0.3 < bad.std() < 0.7

    def test_prevalence_near_half_when_clean(self):
        data, _, _ = generate_sim3(Sim3Config(n=20_000, seed=5))
        assert abs(data.outcomes.mean() - 0.5) <= 0.015

    def test_oracle_consistency_clean(self):
        data, probs, _ = generate_sim3(Sim3Config(n=20_000, seed=6))
        assert_oracle_consistent(probs, data.outcomes)

    def test_psi_bounds(self):
        with pytest.raises(ConfigError):
            Sim3Config(n=100, contamination=0.5)


class TestBoundaries:
    def test_sim1_analytic_slope_matches_level_set(self):
        x1 = np.linspace(0.02, 0.98, 50)
        for t, q in [(0.3, 1.0), (0.5, 1.0), (0.3, 0.5), (0.7, 2.0)]:
            slope = sim1_boundary_slope(q, t)
            np.testing.assert_allclose(sim1_oracle_probability(x1, slope * x1, q), t, rtol=1e-12)
            # the oracle rises in x2, so the line splits treat (above) from no-treat (below)
            assert np.all(sim1_oracle_probability(x1, slope * x1 + 0.01, q) > t)
            assert np.all(sim1_oracle_probability(x1, slope * x1 - 0.01, q) < t)

    def test_sim1_boundaries_not_parallel(self):
        x1 = np.linspace(0.02, 0.98, 50)
        low, high = sim1_boundary_slope(1.0, 0.1), sim1_boundary_slope(1.0, 0.9)
        assert high - low > 1.0
        np.testing.assert_allclose(sim1_oracle_probability(x1, low * x1, 1.0), 0.1, rtol=1e-12)
        np.testing.assert_allclose(sim1_oracle_probability(x1, high * x1, 1.0), 0.9, rtol=1e-12)

    def test_sim2_level_set_is_not_a_line(self):
        """Off x2 = x1 and x2 = 4 - x1 the oracle is not 0.5, and its side changes across each line."""
        cfg = Sim2Config(n=10, seed=0)
        rng = np.random.default_rng(12)
        x1, x2 = rng.uniform(-3.0, 6.0, size=(2, 2000))
        off = (np.abs(x2 - x1) > 0.05) & (np.abs(x1 + x2 - 4.0) > 0.05)
        pi = sim2_oracle_probability(x1[off], x2[off], cfg)
        # log-odds are -(x1 - x2)(x1 + x2 - 4) / 4 at prevalence 0.5
        side = -np.sign((x1[off] - x2[off]) * (x1[off] + x2[off] - 4.0))
        assert np.all(np.sign(pi - 0.5) == side)
        assert {-1.0, 1.0} <= set(side)

    def test_half_threshold_level_set(self):
        cfg = Sim2Config(n=10, seed=0)
        x1 = np.linspace(-3.0, 6.0, 91)
        np.testing.assert_allclose(sim2_oracle_probability(x1, x1, cfg), 0.5, atol=1e-12)
        np.testing.assert_allclose(sim2_oracle_probability(x1, 4.0 - x1, cfg), 0.5, atol=1e-12)

    def test_fitted_boundary_slope(self):
        assert fitted_boundary_slope([0.0, -2.0, 4.0]) == 0.5


class TestOptimalNb:
    def test_separated_classes_reach_prevalence(self):
        probs = np.concatenate([np.full(30, 0.99), np.full(70, 0.01)])
        outcomes = np.concatenate([np.ones(30), np.zeros(70)])
        report = optimal_nb(probs, outcomes, 0.5)
        assert report.net_benefit == 0.3
        assert report.fp_count == 0

    def test_strict_rule_matches_counted_formula(self):
        """Scoring pi > t as 0/1 decisions gives the counted strict-rule NB exactly, ties included."""
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            t = float(rng.choice([0.1, 0.25, 0.5, rng.uniform(0.01, 0.99)]))
            probs = rng.choice([0.0, t, 1.0, *rng.uniform(size=3)], size=n)
            outcomes = (rng.uniform(size=n) < 0.4).astype(float)
            treat = probs > t
            tp = int(np.count_nonzero(treat & (outcomes == 1.0)))
            fp = int(np.count_nonzero(treat & (outcomes == 0.0)))
            report = optimal_nb(probs, outcomes, t)
            assert (report.tp_count, report.fp_count, report.n) == (tp, fp, n)
            assert report.net_benefit == tp / n - fp / n * (t / (1.0 - t))

    def test_nonnegative_at_scale(self):
        for seed in range(5):
            data, probs, _ = generate_sim3(Sim3Config(n=2000, seed=seed))
            for t in (0.1, 0.3, 0.5, 0.7, 0.9):
                assert optimal_nb(probs, data.outcomes, t).net_benefit >= 0.0

    def test_fitted_model_cannot_beat_oracle(self):
        """Across repeated test draws, a fitted model trails the oracle NB."""
        train, _, _ = generate_sim3(Sim3Config(n=600, seed=42))
        samples = fit_standard(
            train, SamplerConfig(n_iterations=4000, burn_in=1500, rng_seed=7),
            GaussianPrior.vague(3),
        )
        t = 0.3
        diffs = []
        for rep in range(20):
            test, probs, _ = generate_sim3(Sim3Config(n=2000, seed=1000 + rep))
            means, _ = predictive_mean_sd(test.covariates, samples)
            nb_model = net_benefit(means, test.outcomes, t).net_benefit
            nb_oracle = optimal_nb(probs, test.outcomes, t).net_benefit
            diffs.append(nb_oracle - nb_model)
        diffs = np.asarray(diffs)
        se = diffs.std(ddof=1) / math.sqrt(diffs.size)
        assert diffs.mean() >= -3.0 * se
