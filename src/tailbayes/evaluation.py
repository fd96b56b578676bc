"""Net Benefit, paired model comparison, and binned calibration.

Net Benefit at threshold t counts true positives net of false positives
weighted by the odds of t, per sample:  NB = TP/n - FP/n * t/(1-t).
It is the sole performance metric used throughout; treat-none has NB 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .model_core import TargetThreshold
from .predict import positive_mask

__all__ = [
    "NetBenefitReport",
    "PairedDelta",
    "CalibrationCurve",
    "net_benefit",
    "paired_delta",
    "calibration_curve",
]


@dataclass(frozen=True)
class NetBenefitReport:
    tp_count: int
    fp_count: int
    n: int
    net_benefit: float


@dataclass(frozen=True)
class PairedDelta:
    """The mean per-split Net Benefit difference with its paired standard error."""

    mean_delta: float
    se_delta: float


@dataclass(frozen=True)
class CalibrationCurve:
    """Equal-width binned agreement between predicted and observed rates.

    Empty bins carry count 0 and NaN for both per-bin means.
    """

    bin_edges: np.ndarray
    mean_predicted: np.ndarray
    observed_fraction: np.ndarray
    counts: np.ndarray

    @property
    def occupied(self) -> np.ndarray:
        return self.counts > 0


def _check_pred_outcome(predictions, outcomes):
    p = np.asarray(predictions, dtype=np.float64).ravel()
    y = np.asarray(outcomes, dtype=np.float64).ravel()
    if p.size == 0:
        raise DataError("empty predictions")
    if p.shape != y.shape:
        raise DataError(f"{p.size} predictions but {y.size} outcomes")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise DataError("outcomes must be 0 or 1")
    return p, y


def net_benefit(predictions, outcomes, t: TargetThreshold | float) -> NetBenefitReport:
    """Confusion counts at threshold t and the resulting Net Benefit."""
    if not isinstance(t, TargetThreshold):
        t = TargetThreshold(float(t))
    p, y = _check_pred_outcome(predictions, outcomes)
    positive = positive_mask(p, t)
    tp = int(np.count_nonzero(positive & (y == 1.0)))
    fp = int(np.count_nonzero(positive & (y == 0.0)))
    n = p.shape[0]
    nb = tp / n - fp / n * (t.t / (1.0 - t.t))
    return NetBenefitReport(tp_count=tp, fp_count=fp, n=n, net_benefit=nb)


def paired_delta(nb_a, nb_b) -> PairedDelta:
    """Split-wise differences a - b with SE sqrt(sum (D - mean)^2 / (m (m-1))).

    Both models must have been scored on the same m >= 2 splits; the
    pairing is what keeps the standard error honest.
    """
    a = np.asarray(nb_a, dtype=np.float64).ravel()
    b = np.asarray(nb_b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise DataError("paired Net Benefit vectors must have equal length")
    m = a.shape[0]
    if m < 2:
        raise DataError("need at least two splits for a paired standard error")
    d = a - b
    mean = float(d.mean())
    se = math.sqrt(float(np.sum((d - mean) ** 2)) / (m * (m - 1)))
    return PairedDelta(mean_delta=mean, se_delta=se)


def calibration_curve(predictions, outcomes, n_bins: int = 10) -> CalibrationCurve:
    """Observed event fraction vs mean prediction over equal-width bins on [0, 1]."""
    if n_bins < 2:
        raise ConfigError("n_bins must be >= 2")
    p, y = _check_pred_outcome(predictions, outcomes)
    if np.any((p < 0.0) | (p > 1.0)):
        raise DataError("predictions must lie in [0, 1]")
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    idx = np.minimum(np.digitize(p, edges[1:-1], right=False), n_bins - 1)
    counts = np.bincount(idx, minlength=n_bins)
    sum_p = np.bincount(idx, weights=p, minlength=n_bins)
    sum_y = np.bincount(idx, weights=y, minlength=n_bins)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_pred = np.where(counts > 0, sum_p / counts, np.nan)
        obs_frac = np.where(counts > 0, sum_y / counts, np.nan)
    return CalibrationCurve(
        bin_edges=edges,
        mean_predicted=mean_pred,
        observed_fraction=obs_frac,
        counts=counts,
    )
