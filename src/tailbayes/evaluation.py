"""Net Benefit and paired model comparison.

Net Benefit at threshold t counts true positives net of false positives
weighted by the odds of t, per sample:  NB = TP/n - FP/n * t/(1-t).
It is the sole performance metric used throughout; treat-none has NB 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .model_core import TargetThreshold
from .predict import positive_mask

__all__ = [
    "NetBenefitReport",
    "PairedDelta",
    "net_benefit",
    "net_benefit_tables",
    "paired_delta",
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
    nb = tp / n - fp / n * t.odds
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


def net_benefit_tables(thresholds: list[TargetThreshold], model_a: tuple, model_b: tuple | None) -> dict:
    """The ``nb.csv`` and, with ``model_b``, ``delta_nb.csv`` tables, as file name -> (header, rows).

    Each model is (label, splits), a split one (probabilities, outcomes) pair.  The paired
    delta A - B per threshold needs both models scored on the same m >= 2 splits.
    """
    if model_b is not None and len(model_b[1]) != len(model_a[1]):
        raise DataError("paired evaluation needs the same number of splits for both models")
    if model_b is not None and len(model_a[1]) < 2:
        raise DataError("paired delta needs at least two splits per model")
    nb_rows = []
    nb_values = []  # per model, per threshold position, one Net Benefit per split: labels and thresholds may repeat
    for label, splits in [model_a] if model_b is None else [model_a, model_b]:
        nb_values.append([[] for _ in thresholds])
        for split, (probs, outcomes) in enumerate(splits, start=1):
            for i, t in enumerate(thresholds):
                report = net_benefit(probs, outcomes, t)
                nb_rows.append((t.t, label, split, report.tp_count, report.fp_count, report.n, report.net_benefit))
                nb_values[-1][i].append(report.net_benefit)
    tables = {"nb.csv": (["threshold", "model", "split", "tp", "fp", "n", "nb"], nb_rows)}
    if model_b is not None:
        deltas = [paired_delta(nb_a, nb_b) for nb_a, nb_b in zip(*nb_values)]
        tables["delta_nb.csv"] = (["threshold", "mean_delta", "se_delta"],
                                  [(t.t, d.mean_delta, d.se_delta) for t, d in zip(thresholds, deltas)])
    return tables
