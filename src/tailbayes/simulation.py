"""Synthetic benchmark generators with true-probability oracles.

Three two-covariate binary studies:

* study 1: uniform covariates with p(y=1) = q x2 / (x1 + q x2); the
  optimal decision boundaries are straight lines through the origin
  whose slope depends on the threshold (linear but not parallel).
* study 2: class-conditional Gaussians with unequal diagonal
  covariances, giving quadratic optimal boundaries.
* study 3: a linear logistic model whose training data is corrupted by
  appending label-0 rows in the high-risk corner of the covariate
  space.

Each generator returns the dataset plus the true class-1 probability
per row so optimal classifiers and their Net Benefit can be computed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, require_memory, require_seed
from .evaluation import NetBenefitReport, net_benefit
from .model_core import Dataset, TargetThreshold, expit

__all__ = [
    "Sim1Config",
    "Sim2Config",
    "Sim3Config",
    "STUDY_PARAMETER",
    "STUDY_DEFAULT",
    "study",
    "generate_sim1",
    "generate_sim2",
    "generate_sim3",
    "sim1_oracle_probability",
    "sim2_oracle_probability",
    "sim1_boundary_slope",
    "fitted_boundary_slope",
    "optimal_nb",
]

# Study 2's class-conditional Gaussians (diagonal variances) and study 3's
# logistic coefficients (intercept first) and contaminant distribution.
SIM2_MEAN1 = (1.0, 0.0)
SIM2_VAR1 = (1.0, 2.0)
SIM2_MEAN0 = (0.0, 1.0)
SIM2_VAR0 = (2.0, 1.0)
SIM3_BETA = (0.0, 2.0, 3.0)
SIM3_CONTAMINANT_MEAN = 1.5
SIM3_CONTAMINANT_SD = 0.5


def _check_n(n: int) -> None:
    """ConfigError unless n is an integer >= 1 whose (n, 3) float64 design matrix, 24 n bytes, fits in physical memory.

    This is a floor: the generators and a fit need several such arrays.
    """
    if not isinstance(n, numbers.Integral):
        raise ConfigError(f"n must be an integer, got {n!r}")
    if n < 1:
        raise ConfigError("n must be >= 1")
    require_memory(24 * n, f"the {n} rows of a study's (n, 3) float64 design matrix")


@dataclass(frozen=True)
class Sim1Config:
    """Uniform-covariate study; q controls class balance (q=1 gives prevalence 0.5)."""

    n: int
    q: float = 1.0
    seed: int = 0

    def __post_init__(self):
        _check_n(self.n)
        require_seed(self.seed, "seed")
        if not (self.q > 0.0):
            raise ConfigError("q must be positive")
        if not math.isfinite(self.q):  # q x2 / (x1 + q x2) would be nan
            raise ConfigError(f"q must be finite, got {self.q}")


@dataclass(frozen=True)
class Sim2Config:
    """Gaussian mixture study with unequal diagonal covariances."""

    n: int
    seed: int = 0
    prevalence: float = 0.5

    def __post_init__(self):
        _check_n(self.n)
        require_seed(self.seed, "seed")
        if not (0.0 < self.prevalence < 1.0):
            raise ConfigError("prevalence must lie in (0, 1)")


@dataclass(frozen=True)
class Sim3Config:
    """Logistic data with a fraction psi of appended mislabelled rows.

    Contaminant covariates are drawn from N(1.5, 0.5^2) per coordinate
    (0.5 is a standard deviation) and forced to label 0.  A clean test
    set is this config with contamination 0.
    """

    n: int
    contamination: float = 0.0
    seed: int = 0

    def __post_init__(self):
        _check_n(self.n)
        require_seed(self.seed, "seed")
        if not (0.0 <= self.contamination < 0.5):
            raise ConfigError("contamination fraction must lie in [0, 0.5)")


def sim1_oracle_probability(x1, x2, q: float) -> np.ndarray:
    """True p(y=1 | x1, x2) = q x2 / (x1 + q x2)."""
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    return q * x2 / (x1 + q * x2)


def generate_sim1(config: Sim1Config) -> tuple[Dataset, np.ndarray]:
    """Uniform covariates on the unit square, Bernoulli labels from the oracle."""
    rng = np.random.default_rng(config.seed)
    x1 = rng.uniform(size=config.n)
    x2 = rng.uniform(size=config.n)
    theta = sim1_oracle_probability(x1, x2, config.q)
    y = (rng.uniform(size=config.n) < theta).astype(np.float64)
    data = Dataset.from_raw(np.column_stack([x1, x2]), y)
    return data, theta


def _diag_gauss_logpdf(x: np.ndarray, mean, var) -> np.ndarray:
    mean = np.asarray(mean, dtype=np.float64)
    var = np.asarray(var, dtype=np.float64)
    return -0.5 * np.sum(
        (x - mean) ** 2 / var + np.log(2.0 * math.pi * var), axis=-1
    )


def sim2_oracle_probability(x1, x2, config: Sim2Config) -> np.ndarray:
    """Bayes-rule class-1 probability from the two Gaussian densities."""
    pts = np.column_stack(
        [np.asarray(x1, dtype=np.float64).ravel(), np.asarray(x2, dtype=np.float64).ravel()]
    )
    log1 = _diag_gauss_logpdf(pts, SIM2_MEAN1, SIM2_VAR1) + math.log(config.prevalence)
    log0 = _diag_gauss_logpdf(pts, SIM2_MEAN0, SIM2_VAR0) + math.log(1.0 - config.prevalence)
    return expit(log1 - log0)


def generate_sim2(config: Sim2Config) -> tuple[Dataset, np.ndarray]:
    """Mixture draw: label from the class prior, covariates from that class's Gaussian."""
    rng = np.random.default_rng(config.seed)
    y = (rng.uniform(size=config.n) < config.prevalence).astype(np.float64)
    noise = rng.standard_normal((config.n, 2))
    mean = np.where(y[:, None] == 1.0, SIM2_MEAN1, SIM2_MEAN0)
    sd = np.where(y[:, None] == 1.0, np.sqrt(SIM2_VAR1), np.sqrt(SIM2_VAR0))
    x = mean + sd * noise
    data = Dataset.from_raw(x, y)
    return data, sim2_oracle_probability(x[:, 0], x[:, 1], config)


def generate_sim3(config: Sim3Config) -> tuple[Dataset, np.ndarray, np.ndarray]:
    """Standard-normal covariates through a logistic model, then contamination.

    Returns (dataset, clean_probability, contamination_mask).  The clean
    probability is the logistic oracle evaluated at each row's
    covariates, including the appended contaminant rows whose labels
    were forced to 0; the mask marks those rows.
    """
    rng = np.random.default_rng(config.seed)
    beta = np.asarray(SIM3_BETA, dtype=np.float64)
    d = beta.shape[0] - 1
    x = rng.standard_normal((config.n, d))
    z = beta[0] + x @ beta[1:]
    probs = expit(z)
    y = (rng.uniform(size=config.n) < probs).astype(np.float64)

    n_bad = int(math.floor(config.contamination * config.n))
    if n_bad > 0:
        x_bad = rng.normal(SIM3_CONTAMINANT_MEAN, SIM3_CONTAMINANT_SD, size=(n_bad, d))
        probs_bad = expit(beta[0] + x_bad @ beta[1:])
        x = np.vstack([x, x_bad])
        y = np.concatenate([y, np.zeros(n_bad)])
        probs = np.concatenate([probs, probs_bad])
    mask = np.zeros(x.shape[0], dtype=bool)
    mask[config.n :] = True
    data = Dataset.from_raw(x, y)
    return data, probs, mask


# The parameter each study varies, named as in the CLI flags, sidecars and reproduce grids, and its default.
STUDY_PARAMETER = {"sim1": "q", "sim2": "prevalence", "sim3": "psi"}
STUDY_DEFAULT = {"sim1": Sim1Config.q, "sim2": Sim2Config.prevalence, "sim3": Sim3Config.contamination}


def study(name: str, n: int, seed: int, param: float) -> tuple[Callable, Sim1Config | Sim2Config | Sim3Config]:
    """A study's generator and its config for ``n`` rows; ``param`` is that of ``STUDY_PARAMETER[name]``."""
    if name == "sim1":
        return generate_sim1, Sim1Config(n, q=param, seed=seed)
    if name == "sim2":
        return generate_sim2, Sim2Config(n, seed=seed, prevalence=param)
    if name == "sim3":
        return generate_sim3, Sim3Config(n, contamination=param, seed=seed)
    raise ConfigError(f"unknown study {name!r}; choose from {list(STUDY_PARAMETER)}")


def sim1_boundary_slope(q: float, t: float) -> float:
    """Slope of the study-1 optimal boundary x2 = t / (q (1 - t)) x1."""
    return t / (q * (1.0 - t))


def fitted_boundary_slope(beta) -> float:
    """Slope -b1/b2 of a fitted logistic model's straight-line decision boundary."""
    beta = np.asarray(beta, dtype=np.float64).ravel()
    if beta.shape[0] != 3:
        raise ConfigError("boundary slope needs (intercept, b1, b2) coefficients")
    return -beta[1] / beta[2]


def optimal_nb(oracle_probs, outcomes, t: TargetThreshold | float) -> NetBenefitReport:
    """Net Benefit of classifying on the true probabilities (pi > t).

    The strict-odds decisions are scored as 0/1 probabilities, which the
    model-facing ``>= t`` rule treats exactly where pi > t.
    """
    tt = t if isinstance(t, TargetThreshold) else TargetThreshold(float(t))
    treat = np.asarray(oracle_probs, dtype=np.float64).ravel() > tt.t
    return net_benefit(treat.astype(np.float64), outcomes, tt)
