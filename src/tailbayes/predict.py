"""Posterior predictive probabilities and threshold classification."""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from .errors import DataError
from .model_core import TargetThreshold
from .sampler import PosteriorSamples

__all__ = ["predictive_mean_sd", "positive_mask"]


def predictive_mean_sd(covariates: np.ndarray, samples: PosteriorSamples) -> tuple[np.ndarray, np.ndarray]:
    """Posterior predictive mean and sd for each row of a design matrix.

    The mean is the average of the per-draw probabilities, never the
    probability at the average draw.
    """
    x = np.asarray(covariates, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != samples.dim:
        raise DataError(f"covariates must be a 2-D matrix of {samples.dim} columns, got shape {x.shape}")
    if samples.n_draws < 1:
        raise DataError("posterior contains no draws")
    probs = expit(x @ samples.draws.T)
    return probs.mean(axis=1), probs.std(axis=1)


def positive_mask(probs, threshold: TargetThreshold | float) -> np.ndarray:
    """The classification rule: True (treat) where prob >= t, ties included."""
    t = threshold.t if isinstance(threshold, TargetThreshold) else float(threshold)
    return np.asarray(probs, dtype=np.float64) >= t
