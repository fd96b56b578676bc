"""Posterior predictive probabilities and threshold classification."""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .model_core import TargetThreshold
from .sampler import PosteriorSamples

__all__ = ["predictive_mean", "predictive_mean_sd", "positive_mask"]

# Byte budget of one row chunk's rows x draws probability matrix.  The
# two buffers hold rows x runs, a data-dependent share of it, so a small
# budget keeps peak memory nearly the same whatever the chain's
# acceptance; chunks of 1-2 MiB also stay in cache.
CHUNK_BYTES = 2 * 2**20


def predictive_mean(covariates: np.ndarray, samples: PosteriorSamples) -> np.ndarray:
    """Posterior predictive mean for each row: :func:`predictive_mean_sd` without its sd pass.

    The means are bit for bit those of :func:`predictive_mean_sd`.
    """
    return _predict(covariates, samples, False)[0]


def predictive_mean_sd(covariates: np.ndarray, samples: PosteriorSamples) -> tuple[np.ndarray, np.ndarray]:
    """Posterior predictive mean and sd for each row of a design matrix.

    The mean is the average of the per-draw probabilities, never the
    probability at the average draw.

    A random-walk chain repeats its previous draw on every rejection, so
    the draws form runs of equal values.  Each run is evaluated once and
    weighted by its integer length: the mean is the length-weighted sum
    of the run probabilities divided by the number of draws, and the sd
    the square root of the length-weighted sum of their squared
    deviations divided by the number of draws.  In exact arithmetic these
    are the mean and population sd over every draw; since the weights are
    exact, a mean never leaves [0, 1] and probabilities that are all 1.0
    give a mean of exactly 1.0 and an sd of 0.0.  The logistic is
    ``1 / (1 + exp(-z))``, the formula of :func:`model_core.expit`, computed
    in place.

    Rows are processed in chunks of ``CHUNK_BYTES // (8 * n_draws)`` rows,
    so peak memory is a small multiple of that budget whatever the number
    of rows.  The linear predictor is summed one coefficient at a time
    with elementwise ufuncs (no BLAS matrix product), and both reductions
    are numpy's pairwise sums along each row.  Each row therefore reduces
    the same values in the same order, so the result is a pure function of
    the covariates and the draws: it does not depend on the chunk size or
    on the number of BLAS threads.
    """
    return _predict(covariates, samples, True)


def _predict(covariates, samples: PosteriorSamples, with_sd: bool) -> tuple:
    """The chunk loop of :func:`predictive_mean_sd`: the means, and the sds or None."""
    x = np.asarray(covariates, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != samples.dim:
        raise DataError(f"covariates must be a 2-D matrix of {samples.dim} columns, got shape {x.shape}")
    if samples.n_draws < 1:
        raise DataError("posterior contains no draws")
    draws = samples.draws
    run_start = np.flatnonzero(np.concatenate([[True], np.any(draws[1:] != draws[:-1], axis=1)]))
    run_len = np.diff(run_start, append=samples.n_draws).astype(np.float64)
    neg_runs = -np.ascontiguousarray(draws[run_start].T)  # row j: minus coefficient j of each run
    chunk_rows = max(1, CHUNK_BYTES // (8 * samples.n_draws))
    probs = np.empty((min(chunk_rows, x.shape[0]), run_start.size))
    work = np.empty_like(probs)
    means = np.empty(x.shape[0])
    sds = np.empty(x.shape[0]) if with_sd else None
    for lo in range(0, x.shape[0], chunk_rows):
        xc = x[lo : lo + chunk_rows]
        p, w = probs[: xc.shape[0]], work[: xc.shape[0]]
        np.multiply(xc[:, :1], neg_runs[0], out=p)  # p holds -z
        for j in range(1, samples.dim):
            p += np.multiply(xc[:, j : j + 1], neg_runs[j], out=w)
        # exp(-z) overflows to inf (probability exactly 0) or underflows
        # to 0 (probability exactly 1) once |z| > ~709; deviations too
        # small to square give 0, below the last digit of the sd.
        with np.errstate(over="ignore", under="ignore"):
            np.exp(p, out=p)
            p += 1.0
            np.reciprocal(p, out=p)
            mean = np.multiply(p, run_len, out=w).sum(axis=1) / samples.n_draws
            means[lo : lo + chunk_rows] = mean
            if with_sd:
                np.subtract(p, mean[:, None], out=w)
                np.square(w, out=w)
                w *= run_len
                sds[lo : lo + chunk_rows] = np.sqrt(w.sum(axis=1) / samples.n_draws)
    return means, sds


def positive_mask(probs, threshold: TargetThreshold | float) -> np.ndarray:
    """The classification rule: True (treat) where prob >= t, ties included."""
    t = threshold.t if isinstance(threshold, TargetThreshold) else float(threshold)
    return np.asarray(probs, dtype=np.float64) >= t
