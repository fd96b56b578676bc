import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import expit, logit

from tailbayes import predict
from tailbayes.errors import DataError
from tailbayes.model_core import TargetThreshold
from tailbayes.predict import positive_mask, predictive_mean, predictive_mean_sd
from tailbayes.sampler import PosteriorSamples


def samples_from_draws(draws):
    draws = np.asarray(draws, dtype=np.float64)
    return PosteriorSamples(
        draws=draws,
        acceptance_rate=0.25,
        final_proposal_sd=0.1,
        rng_seed=0,
        log_posterior_trace=np.zeros(draws.shape[0]),
    )


def one_row(x, samples):
    """Predictive mean and sd of a single covariate row, as floats."""
    means, sds = predictive_mean_sd(np.asarray([x], dtype=np.float64), samples)
    assert means.shape == sds.shape == (1,)
    return float(means[0]), float(sds[0])


class TestPosteriorPredictive:
    def test_single_zero_draw(self):
        s = samples_from_draws([[0.0, 0.0]])
        assert one_row([1.0, 2.0], s) == (0.5, 0.0)

    def test_two_draw_average(self):
        s = samples_from_draws([[logit(0.2)], [logit(0.4)]])
        mean, sd = one_row([1.0], s)
        np.testing.assert_allclose(mean, 0.3, rtol=1e-12)
        np.testing.assert_allclose(sd, 0.1, rtol=1e-12)

    def test_degenerate_posterior_equals_plug_in(self):
        beta = np.array([0.4, -1.1, 2.0])
        s = samples_from_draws(np.tile(beta, (50, 1)))
        x = np.array([1.0, 0.7, -0.2])
        mean, sd = one_row(x, s)
        np.testing.assert_allclose(mean, expit(x @ beta), rtol=1e-12)
        assert sd == 0.0

    def test_mean_is_average_of_draws(self):
        rng = np.random.default_rng(0)
        draws = rng.standard_normal((200, 3))
        x = np.array([1.0, 0.5, -0.5])
        mean, sd = one_row(x, samples_from_draws(draws))
        per_draw = expit(draws @ x)
        np.testing.assert_allclose(mean, per_draw.mean(), rtol=1e-15)
        np.testing.assert_allclose(sd, per_draw.std(), rtol=1e-12)
        assert 0.0 <= mean <= 1.0

    def test_jensen_gap_on_dispersed_posterior(self):
        """Averaging probabilities differs from the probability at the mean draw."""
        rng = np.random.default_rng(1)
        draws = rng.normal(1.5, 2.0, size=(5000, 1))
        mean, _ = one_row([1.0], samples_from_draws(draws))
        plug_in = expit(draws.mean())
        assert abs(mean - plug_in) > 0.01

    def test_saturated_linear_predictor_is_exact_and_silent(self):
        # |z| near 800 overflows exp(-z) to inf or underflows it to 0
        draws = np.array([[8.0], [8.0], [8.05], [7.9], [7.9]])
        x = np.array([[100.0], [-100.0], [99.0], [-101.0]])
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            means, sds = predictive_mean_sd(x, samples_from_draws(draws))
        assert means.tolist() == [1.0, 0.0, 1.0, 0.0]
        assert sds.tolist() == [0.0] * 4

    @pytest.mark.parametrize("run_lengths", [(1, 2, 3, 3, 1), (1,) * 6])
    def test_probabilities_of_one_average_to_exactly_one(self, run_lengths):
        # 1 + exp(-z) rounds to 1 once z > ~37; rounded length / S weights
        # for these run lengths sum to 1 +- 1 ulp
        draws = np.repeat(np.arange(1.0, 1.0 + len(run_lengths)), run_lengths)[:, None]
        x = np.array([[45.0], [60.0]])
        means, sds = predictive_mean_sd(x, samples_from_draws(draws))
        assert means.tolist() == [1.0, 1.0]
        assert sds.tolist() == [0.0, 0.0]

    def test_dimension_mismatch(self):
        s = samples_from_draws([[0.0, 0.0]])
        with pytest.raises(DataError):
            one_row([1.0, 2.0, 3.0], s)
        with pytest.raises(DataError):  # a bare row is not a design matrix
            predictive_mean_sd(np.array([1.0, 2.0]), s)
        with pytest.raises(DataError):
            predictive_mean_sd(np.ones((3, 2)), samples_from_draws(np.empty((0, 2))))


class TestBatch:
    def test_matches_rowwise(self):
        rng = np.random.default_rng(2)
        s = samples_from_draws(rng.standard_normal((100, 3)))
        x = np.column_stack([np.ones(20), rng.standard_normal((20, 2))])
        means, sds = predictive_mean_sd(x, s)
        for i in (0, 7, 19):
            mean, sd = one_row(x[i], s)
            np.testing.assert_allclose(means[i], mean, rtol=1e-12)
            np.testing.assert_allclose(sds[i], sd, rtol=1e-12)


def _repeated_ends(rng):
    """Runs of repeated draws, including at the first and at the last draw."""
    distinct = rng.standard_normal((12, 3))
    return distinct[[0, 0, 0, 1, 2, 2, 3, 4, 5, 5, 5, 6, 7, 8, 9, 9, 10, 11, 11, 11]]


def _non_adjacent_repeats(rng):
    """Draw A recurs after other draws (A, B, A, A, C, A), so runs are not distinct values."""
    a, b, c = rng.standard_normal((3, 3))
    return np.array([a, b, a, a, c, a])


DRAW_KINDS = {
    "all_distinct": lambda rng: rng.standard_normal((20, 3)),
    "all_equal": lambda rng: np.tile(rng.standard_normal(3), (20, 1)),
    "repeated_ends": _repeated_ends,
    "non_adjacent_repeats": _non_adjacent_repeats,
}


class TestChunking:
    @pytest.mark.parametrize("kind", sorted(DRAW_KINDS))
    def test_same_bytes_for_every_chunk_size(self, monkeypatch, kind):
        rng = np.random.default_rng(3)
        draws = DRAW_KINDS[kind](rng)
        s = samples_from_draws(draws)
        x = np.column_stack([np.ones(23), rng.standard_normal((23, 2))])
        row_bytes = 8 * draws.shape[0]

        monkeypatch.setattr(predict, "CHUNK_BYTES", 100 * x.shape[0] * row_bytes)
        whole = predictive_mean_sd(x, s)
        for rows in (1, 5):  # one row per chunk, and a size that does not divide 23
            monkeypatch.setattr(predict, "CHUNK_BYTES", rows * row_bytes)
            means, sds = predictive_mean_sd(x, s)
            assert np.array_equal(means, whole[0]) and np.array_equal(sds, whole[1])
            assert np.array_equal(predictive_mean(x, s), whole[0])  # the mean-only pass gives the same bits

        naive = expit(x @ draws.T)
        np.testing.assert_allclose(whole[0], naive.mean(axis=1), rtol=1e-14)
        # equal probabilities have an sd of a few ulps of rounding noise, hence atol
        np.testing.assert_allclose(whole[1], naive.std(axis=1), rtol=1e-14, atol=1e-15)


@st.composite
def run_patterns(draw):
    """(covariates, draws): up to 12 runs of 1 to 6 equal draws, a draw possibly recurring after others."""
    dim = draw(st.integers(1, 3))
    value = st.floats(-10.0, 10.0)  # |z| <= 300: probabilities saturate to 1.0, but never underflow to 0
    distinct = draw(arrays(np.float64, st.tuples(st.integers(1, 4), st.just(dim)), elements=value))
    order = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=12))
    lengths = draw(st.lists(st.integers(1, 6), min_size=len(order), max_size=len(order)))
    x = draw(arrays(np.float64, st.tuples(st.integers(1, 6), st.just(dim)), elements=value))
    return x, np.repeat(distinct[order], lengths, axis=0)


# derandomized: every run tries the same examples, so the suite stays deterministic
@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(run_patterns())
def test_run_weighted_moments_equal_the_moments_over_every_draw(pattern):
    x, draws = pattern
    s = samples_from_draws(draws)
    means, sds = predictive_mean_sd(x, s)
    assert np.all((means >= 0.0) & (means <= 1.0))
    assert np.array_equal(predictive_mean(x, s), means)
    # the same per-draw probabilities, bit for bit: predict sums -z one coefficient at a time, in this order
    z = sum(x[:, j : j + 1] * draws[:, j] for j in range(x.shape[1]))
    probs = 1.0 / (1.0 + np.exp(-z))
    # only the order of two sums of at most 72 nonnegative terms differs; over 24 000 random
    # patterns the means differed by at most 5.1 ulps.  Means are <= 1, so an error in the mean
    # moves every deviation, and the sd, by at most that many eps, hence the sd's atol
    eps = np.finfo(np.float64).eps
    np.testing.assert_allclose(means, probs.mean(axis=1), rtol=8 * eps, atol=0)
    np.testing.assert_allclose(sds, probs.std(axis=1), rtol=8 * eps, atol=8 * eps)


# Predicts a 10 000 x 15 000 case from a random-walk-like chain (about a
# quarter of the draws distinct) and prints its own peak RSS and a digest.
_LARGE_CHILD = """
import hashlib, json, resource
import numpy as np
from tailbayes.predict import predictive_mean_sd
from tailbayes.sampler import PosteriorSamples

rng = np.random.default_rng(0)
steps = rng.normal(0.0, 0.05, size=(15000, 3)) * (rng.uniform(size=(15000, 1)) < 0.24)
draws = np.cumsum(steps, axis=0) + np.array([-0.5, 1.0, -1.0])
x = np.column_stack([np.ones(10000), rng.standard_normal((10000, 2))])
samples = PosteriorSamples(draws=draws, acceptance_rate=0.24, final_proposal_sd=0.05,
                           rng_seed=0, log_posterior_trace=np.zeros(15000))
means, sds = predictive_mean_sd(x, samples)
print(json.dumps({
    "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "sha256": hashlib.sha256(means.tobytes() + sds.tobytes()).hexdigest(),
}))
"""


def _run_large_child(**env_overrides):
    env = dict(os.environ, PYTHONPATH=str(Path(predict.__file__).resolve().parents[1]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.update(env_overrides)
    proc = subprocess.run([sys.executable, "-c", _LARGE_CHILD], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestBoundedMemory:
    def test_large_prediction_stays_small_and_ignores_blas_threads(self):
        default = _run_large_child()
        one_thread = _run_large_child(OPENBLAS_NUM_THREADS="1")
        # the two n x S float64 matrices alone would take 2.4 GB
        assert default["maxrss_mb"] < 400
        assert one_thread["sha256"] == default["sha256"]


class TestClassify:
    def test_tie_goes_positive(self):
        assert positive_mask(0.3, TargetThreshold(0.3))

    def test_extremes(self):
        for t in (0.05, 0.5, 0.95):
            assert positive_mask([0.0, 1.0], TargetThreshold(t)).tolist() == [False, True]

    def test_monotone_in_probability(self):
        labels = positive_mask(np.linspace(0, 1, 21), TargetThreshold(0.4))
        flips = np.count_nonzero(labels[1:] != labels[:-1])
        assert flips == 1 and not labels[0] and labels[-1]

    def test_antitone_in_threshold(self):
        prob = 0.42
        labels = [bool(positive_mask(prob, TargetThreshold(t))) for t in np.linspace(0.05, 0.95, 19)]
        flips = sum(a != b for a, b in zip(labels, labels[1:]))
        assert flips == 1 and labels[0] and not labels[-1]

    def test_mask_agrees_with_scalar(self):
        probs = np.array([0.1, 0.3, 0.5, 0.9])
        mask = positive_mask(probs, 0.3)
        assert mask.tolist() == [False, True, True, True]
        assert mask.tolist() == [bool(positive_mask(p, TargetThreshold(0.3))) for p in probs]
