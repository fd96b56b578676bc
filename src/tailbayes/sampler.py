"""Random-walk Metropolis-Hastings with burn-in proposal adaptation.

All coefficients update jointly with an isotropic Gaussian proposal
N(beta, sd^2 I).  The proposal scale adapts in batches during burn-in
toward a target acceptance rate (0.24) and is frozen afterwards
so the retained chain is a valid Markov chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, SamplerError

__all__ = [
    "SamplerConfig",
    "PosteriorSamples",
    "HpdSummary",
    "run_mh",
    "adapt_proposal_sd",
    "hpd_interval",
    "summarize",
    "mc_standard_error",
    "gelman_rubin",
]

ADAPT_BATCH_SIZE = 50
TARGET_ACCEPTANCE = 0.24
SD_MIN = 1e-8
SD_MAX = 1e3
MCSE_BATCHES = 50


@dataclass(frozen=True)
class SamplerConfig:
    n_iterations: int = 20_000
    burn_in: int = 5_000
    thin: int = 1
    initial_sd: float = 0.1
    rng_seed: int = 0
    initial_beta: np.ndarray | None = None

    def __post_init__(self):
        if self.n_iterations < 1:
            raise ConfigError("n_iterations must be positive")
        if not (0 <= self.burn_in < self.n_iterations):
            raise ConfigError("burn_in must satisfy 0 <= burn_in < n_iterations")
        if self.thin < 1:
            raise ConfigError("thin must be >= 1")
        if self.thin > self.n_iterations - self.burn_in:
            raise ConfigError("thin must not exceed n_iterations - burn_in, or no draw is retained")
        if not (self.initial_sd > 0.0):
            raise ConfigError("initial_sd must be positive")
        if not (0 <= int(self.rng_seed) < 2**64):
            raise ConfigError("rng_seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class PosteriorSamples:
    """Retained draws plus chain diagnostics.

    ``acceptance_rate`` counts the post-burn-in phase only.  ``accepted``
    flags, per retained draw, whether that iteration's proposal was
    accepted (a False entry repeats the previous state exactly).
    """

    draws: np.ndarray
    acceptance_rate: float
    final_proposal_sd: float
    rng_seed: int
    log_posterior_trace: np.ndarray
    accepted: np.ndarray = field(repr=False, default=None)
    proposal_sd_trace: np.ndarray = field(repr=False, default=None)
    n_nonfinite_proposals: int = 0

    @property
    def n_draws(self) -> int:
        return self.draws.shape[0]

    @property
    def dim(self) -> int:
        return self.draws.shape[1]


@dataclass(frozen=True)
class HpdSummary:
    """Per-coefficient posterior location and highest-density intervals."""

    means: np.ndarray
    medians: np.ndarray
    intervals: dict[float, np.ndarray]  # mass -> (dim, 2) array of [lo, hi]


def adapt_proposal_sd(
    current_sd: float,
    batch_acceptance: float,
    batch_index: int,
) -> float:
    """One Robbins-Monro update sd * exp(k^-0.6 * (acc - TARGET_ACCEPTANCE)).

    ``batch_index`` is 1-based.  The result is clamped to
    [1e-8, 1e3]; an on-target batch leaves sd unchanged.
    """
    gamma = batch_index ** -0.6
    sd = current_sd * math.exp(gamma * (batch_acceptance - TARGET_ACCEPTANCE))
    return min(max(sd, SD_MIN), SD_MAX)


def run_mh(
    log_posterior: Callable[[np.ndarray], float],
    dim: int,
    config: SamplerConfig,
) -> PosteriorSamples:
    """Sample from an unnormalised log-posterior over R^dim.

    The chain is deterministic given ``config.rng_seed``.  Proposals with
    a non-finite log-posterior are rejected (and counted); a non-finite
    value at the start point raises SamplerError.
    """
    rng = np.random.default_rng(int(config.rng_seed))
    beta = (
        np.zeros(dim)
        if config.initial_beta is None
        else np.array(config.initial_beta, dtype=np.float64).ravel()
    )
    if beta.shape[0] != dim:
        raise ConfigError(f"initial_beta has length {beta.shape[0]}, expected {dim}")
    current_lp = float(log_posterior(beta))
    if not math.isfinite(current_lp):
        raise SamplerError("log-posterior is non-finite at the initial point")

    n_iter, burn_in, thin = config.n_iterations, config.burn_in, config.thin
    n_retained = (n_iter - burn_in) // thin
    draws = np.empty((n_retained, dim))
    lp_trace = np.empty(n_retained)
    accepted_trace = np.zeros(n_retained, dtype=bool)
    sd_trace = []

    sd = config.initial_sd
    batch_accepts = 0
    batch_index = 0
    post_accepts = 0
    post_proposed = 0
    n_nonfinite = 0
    keep = 0

    for i in range(n_iter):
        proposal = beta + sd * rng.standard_normal(dim)
        log_u = math.log(rng.random())
        prop_lp = float(log_posterior(proposal))
        if math.isfinite(prop_lp) and log_u < prop_lp - current_lp:
            beta = proposal
            current_lp = prop_lp
            accept = True
        else:
            if not math.isfinite(prop_lp):
                n_nonfinite += 1
            accept = False

        in_burn_in = i < burn_in
        if in_burn_in:
            batch_accepts += accept
            if (i + 1) % ADAPT_BATCH_SIZE == 0:
                batch_index += 1
                sd = adapt_proposal_sd(sd, batch_accepts / ADAPT_BATCH_SIZE, batch_index)
                sd_trace.append((i + 1, sd))
                batch_accepts = 0
        else:
            post_proposed += 1
            post_accepts += accept
            j = i - burn_in
            if j % thin == thin - 1 and keep < n_retained:
                draws[keep] = beta
                lp_trace[keep] = current_lp
                accepted_trace[keep] = accept
                keep += 1

    acceptance_rate = post_accepts / post_proposed if post_proposed else 0.0
    return PosteriorSamples(
        draws=draws,
        acceptance_rate=acceptance_rate,
        final_proposal_sd=sd,
        rng_seed=int(config.rng_seed),
        log_posterior_trace=lp_trace,
        accepted=accepted_trace,
        proposal_sd_trace=np.array(sd_trace, dtype=np.float64).reshape(-1, 2),
        n_nonfinite_proposals=n_nonfinite,
    )


def hpd_interval(draws: np.ndarray, mass: float) -> tuple[float, float]:
    """Shortest contiguous window of sorted draws holding ceil(mass * S) of them."""
    if not (0.0 < mass < 1.0):
        raise ConfigError("mass must lie in (0, 1)")
    x = np.sort(np.asarray(draws, dtype=np.float64).ravel())
    s = x.shape[0]
    k = math.ceil(mass * s)
    if k < 1 or s < 1:
        raise ConfigError("not enough draws for an HPD interval")
    if k >= s:
        return float(x[0]), float(x[-1])
    widths = x[k - 1 :] - x[: s - k + 1]
    i = int(np.argmin(widths))
    return float(x[i]), float(x[i + k - 1])


def summarize(
    samples: PosteriorSamples, masses: Sequence[float] | float = (0.90, 0.95)
) -> HpdSummary:
    """Posterior mean, median and HPD intervals for each coefficient."""
    if isinstance(masses, (int, float)):
        masses = (float(masses),)
    if samples.n_draws < 100:
        raise ConfigError(
            f"need at least 100 retained draws to summarise, got {samples.n_draws}"
        )
    means = samples.draws.mean(axis=0)
    medians = np.median(samples.draws, axis=0)
    intervals = {}
    for mass in masses:
        bounds = np.empty((samples.dim, 2))
        for j in range(samples.dim):
            bounds[j] = hpd_interval(samples.draws[:, j], mass)
        intervals[float(mass)] = bounds
    return HpdSummary(means=means, medians=medians, intervals=intervals)


def mc_standard_error(draws: np.ndarray) -> float:
    """Batch-means Monte-Carlo standard error of the chain mean over ``MCSE_BATCHES`` batches."""
    x = np.asarray(draws, dtype=np.float64).ravel()
    if x.shape[0] < 2 * MCSE_BATCHES:
        raise ConfigError(f"chain too short for {MCSE_BATCHES} batches")
    m = x.shape[0] // MCSE_BATCHES
    batches = x[: m * MCSE_BATCHES].reshape(MCSE_BATCHES, m).mean(axis=1)
    return float(batches.std(ddof=1) / math.sqrt(MCSE_BATCHES))


def gelman_rubin(chains: Sequence[np.ndarray]) -> np.ndarray:
    """Potential scale reduction factor per coefficient across chains."""
    if len(chains) < 2:
        raise ConfigError("R-hat needs at least two chains")
    arr = np.stack([np.asarray(c, dtype=np.float64) for c in chains])  # (m, s, dim)
    m, s, _ = arr.shape
    if s < 2:
        raise ConfigError("chains too short for R-hat")
    chain_means = arr.mean(axis=1)
    chain_vars = arr.var(axis=1, ddof=1)
    w = chain_vars.mean(axis=0)
    b = s * chain_means.var(axis=0, ddof=1)
    var_hat = (s - 1) / s * w + b / s
    return np.sqrt(var_hat / w)
