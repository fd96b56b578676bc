"""Property tests of the fit artifact and of simulation.study (hypothesis, derandomized)."""

import functools
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from tailbayes import dataio, simulation, tuning
from tailbayes.artifact import load_fit, save_fit
from tailbayes.model_core import TargetThreshold
from tailbayes.predict import predictive_mean_sd
from tailbayes.sampler import SamplerConfig
from tailbayes.simulation import Sim1Config, Sim2Config, Sim3Config, study
from tailbayes.tuning import first_stage, fit_pipeline

# derandomized: every run tries the same examples, so the suite stays deterministic
PROPERTY = settings(derandomize=True, max_examples=50, deadline=None, database=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
names = st.lists(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,7}", fullmatch=True), min_size=1, max_size=3, unique=True)
threshold = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@functools.cache
def small_model():
    train, _ = simulation.generate_sim1(Sim1Config(n=80, seed=1))
    return fit_pipeline(first_stage(train, lambda_grid=(0.0,),
                                    sampler_config=SamplerConfig(n_iterations=200, burn_in=50, rng_seed=2)),
                        TargetThreshold(0.3))


@st.composite
def artifacts(draw, bound=None):
    """(model with drawn draws and threshold, covariate names, standardizer or None)."""
    covariates = draw(names)
    k = len(covariates)
    values = finite if bound is None else st.floats(-bound, bound)
    sds = st.floats(0.0, exclude_min=True, allow_infinity=False) if bound is None else st.floats(0.01, bound)
    draws = draw(arrays(np.float64, st.tuples(st.integers(1, 20), st.just(k + 1)), elements=values))
    standardizer = draw(st.none() | st.builds(
        dataio.Standardizer, arrays(np.float64, k, elements=values), arrays(np.float64, k, elements=sds)
    ))
    model = small_model()
    model = replace(model, samples=replace(model.samples, draws=draws), threshold=TargetThreshold(draw(threshold)))
    return model, covariates, standardizer


def save_and_load(model, covariates, standardizer):
    with tempfile.TemporaryDirectory() as out:
        save_fit(Path(out), model, data_path="train.csv", outcome_col="y", covariates=covariates,
                 utilities=None, design_fraction=0.2, standardizer=standardizer, external_pi_u=None, rhat=None)
        return load_fit(out)


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


@PROPERTY
@given(artifacts())
def test_save_then_load_round_trips_bit_for_bit(case):
    model, covariates, standardizer = case
    fit = save_and_load(model, covariates, standardizer)
    assert np.array_equal(bits(fit.samples.draws), bits(model.samples.draws))
    assert fit.covariates == covariates and fit.outcome_col == "y"
    assert fit.threshold == model.threshold.t
    if standardizer is None:
        assert fit.standardizer is None
    else:
        assert np.array_equal(bits(fit.standardizer.means), bits(standardizer.means))
        assert np.array_equal(bits(fit.standardizer.sds), bits(standardizer.sds))


@PROPERTY
@given(artifacts(bound=50.0), st.integers(0, 2**32 - 1))
def test_loaded_predictions_equal_in_memory_predictions(case, seed):
    model, covariates, standardizer = case
    raw_x = np.random.default_rng(seed).normal(0.0, 3.0, size=(7, len(covariates)))
    fit = save_and_load(model, covariates, standardizer)
    means, sds = predictive_mean_sd(fit.design(raw_x), fit.samples)
    x = raw_x if standardizer is None else standardizer.transform(raw_x)
    expected = predictive_mean_sd(np.hstack([np.ones((7, 1)), x]), model.samples)
    assert np.array_equal(bits(means), bits(expected[0])) and np.array_equal(bits(sds), bits(expected[1]))


@pytest.mark.parametrize(
    "grid, external, rhat_chains",
    [((0.0,), False, 0), ((0.0, 5.0), False, 0), ((0.0, 5.0), True, 0), ((0.0,), False, 3)],
    ids=["zero-grid", "two-value-grid", "external-pi-u", "rhat-3-chains"],
)
def test_manifest_seeds_are_the_seeds_the_fit_ran(monkeypatch, grid, external, rhat_chains):
    """The manifest's seeds are exactly those of the chains that ran, and cv_sampler is null iff no CV chain ran."""
    train, _ = simulation.generate_sim1(Sim1Config(n=300, seed=7))
    ran = []
    real_run_mh = tuning.run_mh

    def recording_run_mh(log_posterior, dim, config):
        ran.append(config.rng_seed)
        return real_run_mh(log_posterior, dim, config)

    monkeypatch.setattr(tuning, "run_mh", recording_run_mh)  # every lone chain; the stacked CV chains are in cv_table
    pi_u = np.linspace(0.05, 0.95, train.n) if external else None
    model = fit_pipeline(first_stage(train, lambda_grid=grid, cv_chain=(400, 150), external_pi_u=pi_u,
                                     sampler_config=SamplerConfig(n_iterations=600, burn_in=200, rng_seed=5)),
                         TargetThreshold(0.3))
    rhat = tuning.final_fit_rhat(model, rhat_chains) if rhat_chains else None
    with tempfile.TemporaryDirectory() as out:
        save_fit(Path(out), model, data_path="train.csv", outcome_col="y", covariates=["x1", "x2"],
                 utilities=None, design_fraction=0.2, standardizer=None, external_pi_u="pi_u.csv" if external else None,
                 rhat=rhat)
        manifest = dataio.read_manifest(Path(out) / "manifest.json")
    seeds = manifest["seeds"]
    assert seeds["base"] == seeds["split"] == seeds["final_fit"] == 5
    stage1_ran = not external and grid != (0.0,)  # a {0} grid weights every row 1, so it needs no stage 1
    assert (seeds["stage1"] is None) == (model.first.stage1 is None) == (not stage1_ran)
    assert ran == ([seeds["stage1"]] if stage1_ran else []) + [seeds["final_fit"]] + seeds["rhat_chains"]
    assert len(seeds["rhat_chains"]) == max(rhat_chains - 1, 0)
    assert sorted({(row["fold"], row["seed"]) for row in model.cv_table}) == list(enumerate(seeds["cv_folds"], 1))
    assert len(seeds["cv_folds"]) == (0 if grid == (0.0,) else 5)
    assert (manifest["cv_sampler"] is None) == (manifest["cv_table"] == [])
    if model.cv_table:
        assert manifest["cv_sampler"] == {"n_iterations": 400, "burn_in": 150, "thin": 1, "initial_sd": 0.1}


@PROPERTY
@given(st.integers(1, 10**6), st.integers(0, 2**63), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_study_builds_the_direct_config(n, seed, u):
    assert study("sim1", n, seed, 4 * u) == (simulation.generate_sim1, Sim1Config(n, q=4 * u, seed=seed))
    assert study("sim2", n, seed, u) == (simulation.generate_sim2, Sim2Config(n, seed=seed, prevalence=u))
    assert study("sim3", n, seed, u / 2) == (simulation.generate_sim3, Sim3Config(n, contamination=u / 2, seed=seed))
