"""Posterior predictive probabilities and threshold classification."""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from .errors import DataError
from .model_core import TargetThreshold
from .sampler import PosteriorSamples

__all__ = ["predictive_mean_sd", "positive_mask"]

# Byte budget of one row chunk's rows x draws probability matrix.
CHUNK_BYTES = 32 * 2**20


def predictive_mean_sd(covariates: np.ndarray, samples: PosteriorSamples) -> tuple[np.ndarray, np.ndarray]:
    """Posterior predictive mean and sd for each row of a design matrix.

    The mean is the average of the per-draw probabilities, never the
    probability at the average draw.

    Rows are processed in chunks whose rows x draws float64 probability
    matrix fits in ``CHUNK_BYTES``, so peak memory is a small multiple of
    that budget whatever the number of rows.  The linear predictor is
    summed one coefficient at a time with elementwise ufuncs (no BLAS
    matrix product), and ``expit`` runs once per run of repeated draws
    before the runs are expanded back to every draw.  Each row therefore
    reduces the same values in the same order, so the result is a pure
    function of the covariates and the draws: it does not depend on the
    chunk size or on the number of BLAS threads.
    """
    x = np.asarray(covariates, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != samples.dim:
        raise DataError(f"covariates must be a 2-D matrix of {samples.dim} columns, got shape {x.shape}")
    if samples.n_draws < 1:
        raise DataError("posterior contains no draws")
    draws = samples.draws
    # A random-walk chain repeats its previous draw on every rejection.
    run_start = np.concatenate([[True], np.any(draws[1:] != draws[:-1], axis=1)])
    run_of = np.cumsum(run_start) - 1
    distinct = np.ascontiguousarray(draws[run_start].T)  # row j: coefficient j of each run
    chunk_rows = max(1, CHUNK_BYTES // (8 * samples.n_draws))
    means = np.empty(x.shape[0])
    sds = np.empty(x.shape[0])
    for lo in range(0, x.shape[0], chunk_rows):
        xc = x[lo : lo + chunk_rows]
        z = xc[:, :1] * distinct[0]
        for j in range(1, samples.dim):
            z += xc[:, j : j + 1] * distinct[j]
        probs = expit(z, out=z).take(run_of, axis=1)
        means[lo : lo + chunk_rows] = probs.mean(axis=1)
        sds[lo : lo + chunk_rows] = probs.std(axis=1)
    return means, sds


def positive_mask(probs, threshold: TargetThreshold | float) -> np.ndarray:
    """The classification rule: True (treat) where prob >= t, ties included."""
    t = threshold.t if isinstance(threshold, TargetThreshold) else float(threshold)
    return np.asarray(probs, dtype=np.float64) >= t
