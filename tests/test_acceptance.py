"""End-to-end acceptance suite.

Each test is one release criterion, run at its stated scale and
tolerance; the terminal summary prints a PASS/FAIL line per criterion.
The statistical criteria use fixed seeds so the suite is deterministic.
"""

import time
from dataclasses import replace

import numpy as np

import tailbayes as tb
from tailbayes.evaluation import net_benefit
from tailbayes.model_core import (
    GaussianPrior,
    TargetThreshold,
    UtilitySpec,
    compute_weights,
    effective_sample_size,
    log_posterior_gradient,
    log_posterior_unnormalized,
    make_log_posterior,
    target_threshold,
    threshold_band_for_benefit,
)
from tailbayes.predict import predictive_mean_sd
from tailbayes.reproduce import CV_CHAIN, FINAL_SAMPLER, reproduce_figure
from tailbayes.sampler import SamplerConfig, mc_standard_error, run_mh
from tailbayes.simulation import (
    Sim1Config,
    fitted_boundary_slope,
    generate_sim1,
    sim1_boundary_slope,
)
from tailbayes.tuning import DEFAULT_LAMBDA_GRID, first_stage, fit_pipeline, fit_standard


def test_criterion_01_reduction_identity():
    """lam grid {0} reproduces the standard fit bit for bit, NB included."""
    start = time.perf_counter()
    train, _ = generate_sim1(Sim1Config(n=1000, q=1.0, seed=5))
    config = SamplerConfig(rng_seed=17)  # library defaults: 20k iterations
    model = fit_pipeline(first_stage(train, lambda_grid=(0.0,), sampler_config=config), TargetThreshold(0.3))
    development = train.subset(model.first.split.development_idx)
    baseline = fit_standard(development, config)

    assert np.array_equal(model.samples.draws, baseline.draws)

    test, _ = generate_sim1(Sim1Config(n=800, q=1.0, seed=6))
    probs_pipeline = predictive_mean_sd(test.covariates, model.samples)[0]
    probs_baseline = predictive_mean_sd(test.covariates, baseline)[0]
    for t in np.round(np.arange(0.05, 0.951, 0.05), 12):
        nb_a = net_benefit(probs_pipeline, test.outcomes, float(t)).net_benefit
        nb_b = net_benefit(probs_baseline, test.outcomes, float(t)).net_benefit
        assert nb_a == nb_b
    assert time.perf_counter() - start < 60.0


def test_criterion_02_sampler_matches_quadrature():
    """MH means within 3 MC SEs of a deterministic grid quadrature."""
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    n = 50
    x = rng.standard_normal(n)
    z = 0.3 - 0.8 * x
    y = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-z))).astype(float)

    # independent oracle: trapezoid quadrature of the unnormalised posterior
    grid = np.linspace(-10.0, 10.0, 401)
    b0, b1 = np.meshgrid(grid, grid, indexing="ij")
    zz = b0[..., None] + b1[..., None] * x
    loglik = np.sum(y * zz - np.logaddexp(0.0, zz), axis=-1)
    logp = loglik - 0.5 * ((b0 / 100.0) ** 2 + (b1 / 100.0) ** 2)
    dens = np.exp(logp - logp.max())
    norm = np.trapezoid(np.trapezoid(dens, grid, axis=1), grid)
    quad_means = [
        np.trapezoid(np.trapezoid(dens * b0, grid, axis=1), grid) / norm,
        np.trapezoid(np.trapezoid(dens * b1, grid, axis=1), grid) / norm,
    ]

    data = tb.Dataset.from_raw(x, y)
    logpost = make_log_posterior(data, np.ones(n), GaussianPrior.vague(2))
    samples = run_mh(logpost, 2, SamplerConfig(n_iterations=60_000, burn_in=10_000, rng_seed=99))

    for j in range(2):
        se = mc_standard_error(samples.draws[:, j])
        assert abs(samples.draws[:, j].mean() - quad_means[j]) <= 3.0 * se
    assert 0.15 <= samples.acceptance_rate <= 0.35
    assert time.perf_counter() - start < 120.0


def test_criterion_03_sim1_delta_nb_reproduction():
    """Tailoring beats the standard model at t=0.3 and matches it at 0.5."""
    start = time.perf_counter()
    result = reproduce_figure(
        "sim1-fig2",
        scale=0.25,  # 5 repetitions
        seed=0,
        jobs=1,
        overrides={"n": (5000,), "q": (1.0,), "t": (0.3, 0.5)},
    )
    assert result["repetitions"] == 5
    by_t = {agg["t"]: agg for agg in result["aggregated"]}

    low = by_t[0.3]
    assert low["mean_delta"] > 0.0
    assert low["mean_delta"] > -low["se_delta"]

    half = by_t[0.5]
    assert abs(half["mean_delta"]) < 2.0 * half["se_delta"]
    assert time.perf_counter() - start < 1800.0


def test_criterion_04_sim1_boundary_geometry():
    """The tailored 0.3 boundary rotates toward the optimal 0.3 slope."""
    train, _ = generate_sim1(Sim1Config(n=5000, q=1.0, seed=0))
    model = fit_pipeline(
        first_stage(train, sampler_config=replace(FINAL_SAMPLER, rng_seed=100), cv_chain=CV_CHAIN),
        TargetThreshold(0.3),
    )
    baseline = fit_standard(train, replace(FINAL_SAMPLER, rng_seed=100))

    slope_tailored = fitted_boundary_slope(model.samples.draws.mean(axis=0))
    slope_standard = fitted_boundary_slope(baseline.draws.mean(axis=0))
    slope_opt_03 = sim1_boundary_slope(1.0, 0.3)
    slope_opt_05 = sim1_boundary_slope(1.0, 0.5)

    assert slope_opt_03 < slope_tailored < slope_opt_05
    assert abs(slope_tailored - slope_opt_03) < abs(slope_standard - slope_opt_03)


def test_criterion_05_sim3_contamination_robustness():
    """Under 10% contamination the tailored model stays near the oracle."""
    start = time.perf_counter()
    contaminated = reproduce_figure(
        "sim3-fig6",
        scale=0.25,
        seed=0,
        jobs=1,
        overrides={"n": (1000,), "psi": (0.10,), "t": (0.2, 0.3, 0.4)},
    )
    for agg in contaminated["aggregated"]:
        assert agg["mean_nb_tb"] >= agg["mean_nb_sb"]
        assert abs(agg["mean_nb_optimal"] - agg["mean_nb_tb"]) <= 0.03

    clean = reproduce_figure(
        "sim3-fig6",
        scale=0.25,
        seed=0,
        jobs=1,
        overrides={"n": (1000,), "psi": (0.0,), "t": (0.2, 0.3, 0.4, 0.5)},
    )
    for agg in clean["aggregated"]:
        assert abs(agg["mean_nb_optimal"] - agg["mean_nb_tb"]) <= 0.02
        assert abs(agg["mean_nb_optimal"] - agg["mean_nb_sb"]) <= 0.02
    assert time.perf_counter() - start < 1200.0


def test_criterion_06_net_benefit_unit_oracle():
    """Exact agreement with brute-force counting over random configurations."""
    rng = np.random.default_rng(606)
    for _ in range(1000):
        n = int(rng.integers(1, 120))
        probs = rng.uniform(size=n)
        outcomes = (rng.uniform(size=n) < rng.uniform(0.1, 0.9)).astype(float)
        t = float(rng.uniform(0.02, 0.98))
        report = net_benefit(probs, outcomes, t)
        tp = sum(1 for p, y in zip(probs, outcomes) if p >= t and y == 1.0)
        fp = sum(1 for p, y in zip(probs, outcomes) if p >= t and y == 0.0)
        assert report.tp_count == tp and report.fp_count == fp
        assert report.net_benefit == tp / n - fp / n * (t / (1.0 - t))
        assert report.net_benefit <= outcomes.mean() + 1e-15
        assert net_benefit(np.zeros(n), outcomes, t).net_benefit == 0.0


def test_criterion_07_weight_and_ess_properties():
    """Weight bounds and monotonicity over 10 000 random triples."""
    rng = np.random.default_rng(707)
    size = 10_000
    pi_u = rng.uniform(size=size)
    ts = rng.uniform(0.02, 0.98, size=size)
    lams = rng.uniform(0.0, 400.0, size=size)
    h = (pi_u - ts) ** 2
    w = np.exp(-lams * h)
    assert np.all((w > 0.0) & (w <= 1.0))
    # monotone in lam
    w_more = np.exp(-(lams + rng.uniform(0.1, 50.0, size=size)) * h)
    assert np.all(w_more <= w)
    # monotone in distance
    h_more = h + rng.uniform(0.001, 0.5, size=size)
    assert np.all(np.exp(-lams * h_more) <= w)

    # same properties through the library weight constructor
    t = TargetThreshold(0.25)
    sample = rng.uniform(size=500)
    previous = None
    for lam, w in zip(DEFAULT_LAMBDA_GRID, compute_weights(sample, t, DEFAULT_LAMBDA_GRID)):
        ess = effective_sample_size(w)
        fraction = ess / sample.size
        if lam == 0.0:
            assert fraction == 1.0
        if previous is not None:
            assert fraction < previous
        previous = fraction


def test_criterion_08_gradient_check():
    """Analytic gradient vs central differences, 100 random instances."""
    rng = np.random.default_rng(808)
    step = 1e-5
    for _ in range(100):
        n, d = int(rng.integers(10, 40)), int(rng.integers(1, 4))
        x = rng.standard_normal((n, d))
        y = (rng.uniform(size=n) < 0.5).astype(float)
        data = tb.Dataset.from_raw(x, y)
        beta = rng.standard_normal(d + 1)
        weights = rng.uniform(size=n)
        prior = GaussianPrior.vague(d + 1, sd=float(rng.uniform(1.0, 100.0)))
        grad = log_posterior_gradient(data, beta, weights, prior)
        fd = np.empty_like(grad)
        for j in range(d + 1):
            up, down = beta.copy(), beta.copy()
            up[j] += step
            down[j] -= step
            fd[j] = (
                log_posterior_unnormalized(data, up, weights, prior)
                - log_posterior_unnormalized(data, down, weights, prior)
            ) / (2.0 * step)
        rel = np.linalg.norm(grad - fd) / max(1.0, np.linalg.norm(grad))
        assert rel <= 1e-4


def test_criterion_09_threshold_duality():
    """odds(t) * B = H to 1e-12 over 1000 utility quadruples; 1:9 gives 0.1."""
    rng = np.random.default_rng(909)
    for _ in range(1000):
        offsets = rng.uniform(-20.0, 20.0, size=2)
        b = float(rng.uniform(1e-3, 50.0))
        h = float(rng.uniform(1e-3, 50.0))
        spec = UtilitySpec(
            u_tp=offsets[0] + b, u_fn=offsets[0], u_tn=offsets[1] + h, u_fp=offsets[1]
        )
        t = target_threshold(spec)
        assert abs(t.odds * spec.benefit - spec.harm) <= 1e-12 * abs(spec.harm)
    assert target_threshold(UtilitySpec(u_tp=9.0, u_fp=0.0, u_fn=0.0, u_tn=1.0)).t == 0.1


def test_criterion_10_threshold_band_arithmetic():
    """A 22% relative reduction maps the 3-5% benefit band to 14%-23% risk."""
    lo, hi = threshold_band_for_benefit(0.22, 0.03, 0.05)
    assert round(lo, 3) == 0.136
    assert round(hi, 3) == 0.227
    summary = f"target thresholds between {round(100 * lo)}% and {round(100 * hi)}%"
    assert summary == "target thresholds between 14% and 23%"
    # both ends are valid thresholds
    TargetThreshold(lo)
    TargetThreshold(hi)
