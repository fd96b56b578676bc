"""Random-walk Metropolis-Hastings with burn-in proposal adaptation.

All coefficients update jointly with an isotropic Gaussian proposal
N(beta, sd^2 I).  The proposal scale adapts in batches during burn-in
toward a target acceptance rate (0.24) and is frozen afterwards
so the retained chain is a valid Markov chain.

:func:`run_mh` can advance C chains that share one seed as a single
batch: one (C, d) state, one log-posterior call per iteration, and one
random stream whose draws every chain uses.  A single chain is the
C = 1 case of that loop, and it evaluates up to four iterations per
call: the proposals a run of rejections would make, prefetched.
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
    "ChainBatch",
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
PREFETCH = 4  # iterations a single chain proposes per log-posterior call


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
        if not (math.isfinite(self.initial_sd) and self.initial_sd > 0.0):
            raise ConfigError(f"initial_sd must be finite and positive, got {self.initial_sd}")
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
class ChainBatch:
    """The C chains of one batched :func:`run_mh` call, in order.

    ``chains[c]`` is chain c's :class:`PosteriorSamples`, or the
    SamplerError that failed it because its start point was non-finite
    or it accepted no proposal after burn-in.
    The properties summarise the chains that ran.
    """

    chains: tuple

    @property
    def acceptance_rate(self) -> float:
        rates = [c.acceptance_rate for c in self.chains if isinstance(c, PosteriorSamples)]
        return sum(rates) / len(rates) if rates else 0.0

    @property
    def n_nonfinite_proposals(self) -> int:
        return sum(c.n_nonfinite_proposals for c in self.chains if isinstance(c, PosteriorSamples))


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
    dim: int | tuple[int, int],
    config: SamplerConfig,
) -> PosteriorSamples | ChainBatch:
    """Sample from an unnormalised log-posterior over R^d.

    With ``dim = d`` this runs one chain: ``log_posterior`` maps a (d,)
    vector to a float, the result is a :class:`PosteriorSamples`, and a
    non-finite value at the start point, or a chain that accepts no
    proposal after burn-in, raises SamplerError.  With
    ``dim = (C, d)`` it runs C chains as one batch: ``log_posterior`` maps
    an (m * C, d) array to m * C values, row r a proposal for chain
    r mod C, and the result is a :class:`ChainBatch`.  A batched chain
    whose start point is non-finite, or that accepts no proposal after
    burn-in, gets a SamplerError in its slot and the other chains run on.

    The chains of a batch share the random stream seeded by
    ``config.rng_seed``: each iteration draws one ``standard_normal(d)``
    and one ``random()`` for all of them, and only each chain's adapted
    proposal sd and its accept test differ.  So chain c is the chain a
    single run with the same config gives on chain c's log-posterior, as
    long as both evaluations return the same values
    (:func:`~tailbayes.model_core.make_log_posterior` may differ between
    batch shapes in the last bits).  Proposals with a non-finite
    log-posterior are rejected (and counted).  A run enters
    ``np.errstate(over="ignore", invalid="ignore")`` once, so an
    overflowing step or log-posterior term, in ``log_posterior`` too,
    rejects its proposal without a RuntimeWarning.

    A batch of C = 1 prefetches: it makes the proposals of its next
    ``PREFETCH`` iterations from the current state, as a run of
    rejections would, and evaluates them in one call (m = 4).  The chain
    takes the iterations up to and including the first accept and
    proposes the rest again from the new state; a block never spans an
    adaptation step.  So the chain, and the random stream it uses, are
    those of one proposal per call.  Batches of C >= 2 chains, and the
    ``dim = d`` path, evaluate one iteration per call (m = 1).  The
    stream is drawn ahead one adaptation batch (50 iterations) at a time.
    """
    if isinstance(dim, tuple):
        n_chains, dim = dim
        block = PREFETCH if n_chains == 1 else 1
        return ChainBatch(tuple(_run_chains(log_posterior, n_chains, dim, config, block)))
    (chain,) = _run_chains(lambda b: log_posterior(b[0]), 1, dim, config, 1)
    if isinstance(chain, SamplerError):
        raise chain
    return chain


def _plain_fill(log_posterior):
    """The ``_fill_rows`` entry of a plain log-posterior callable (see :func:`_run_chains`)."""

    def fill_rows(b, out):
        out[:] = log_posterior(b)
        out[out == np.inf] = np.nan  # +inf would pass every accept test; NaN passes none

    return fill_rows


@np.errstate(over="ignore", invalid="ignore")  # once per run: a non-finite proposal is rejected and counted
def _run_chains(log_posterior, n_chains: int, dim: int, config: SamplerConfig, block: int) -> list:
    # fill_rows(b, out) writes the log-posterior of each row of b into out, in place.
    # make_log_posterior's callables carry one that never returns +inf; any other
    # callable, whatever other attributes it carries, is adapted.
    fill_rows = getattr(log_posterior, "_fill_rows", None)
    if not callable(fill_rows):
        fill_rows = _plain_fill(log_posterior)
    rng = np.random.default_rng(int(config.rng_seed))
    start = (
        np.zeros(dim)
        if config.initial_beta is None
        else np.array(config.initial_beta, dtype=np.float64).ravel()
    )
    if start.shape[0] != dim:
        raise ConfigError(f"initial_beta has length {start.shape[0]}, expected {dim}")
    beta = np.tile(start, (n_chains, 1))
    current_lp = np.empty(n_chains)
    fill_rows(beta, current_lp)
    alive = np.isfinite(current_lp)
    if not alive.any():
        return [_start_failure() for _ in range(n_chains)]
    current_lp[~alive] = np.nan  # a NaN current value fails every accept test below

    n_iter, burn_in, thin = config.n_iterations, config.burn_in, config.thin
    n_retained = (n_iter - burn_in) // thin
    draws = np.empty((n_retained, n_chains, dim))
    lp_trace = np.empty((n_retained, n_chains))
    kept_accepts = np.empty((n_retained, n_chains), dtype=bool)
    # One adaptation batch of the stream and of its outcomes at a time, one
    # row per iteration and chain (row r is iteration r // C, chain r % C).
    # Row 0 of ``held`` is the state before the batch and row t + 1 holds
    # iteration t's proposals, so a chain's state after iteration t is the
    # row of its last accept up to t.
    normals = np.empty((ADAPT_BATCH_SIZE, dim))
    uniforms = np.empty(ADAPT_BATCH_SIZE)
    steps = np.empty((ADAPT_BATCH_SIZE, n_chains, dim))
    held = np.empty((ADAPT_BATCH_SIZE + 1, n_chains, dim))
    held_lp = np.empty((ADAPT_BATCH_SIZE + 1, n_chains))
    proposals = held[1:].reshape(-1, dim)
    proposed_lp = held_lp[1:].reshape(-1)
    accepts = np.empty(ADAPT_BATCH_SIZE * n_chains, dtype=bool)
    post_accepts = np.zeros(n_chains, dtype=np.int64)
    n_nonfinite = np.zeros(n_chains, dtype=np.int64)
    sd = np.full(n_chains, float(config.initial_sd))
    sd_steps, sd_trace = [], []
    span = block * n_chains
    keep, next_keep = 0, burn_in + thin - 1  # the next retained iteration
    chain_index = np.arange(n_chains)

    for first in range(0, n_iter, ADAPT_BATCH_SIZE):
        size = min(ADAPT_BATCH_SIZE, n_iter - first)
        for r in range(size):
            rng.standard_normal(out=normals[r])
            uniforms[r] = math.log(rng.random())
        rows = size * n_chains
        flat_steps = np.multiply(sd[:, None], normals[:size, None], out=steps[:size]).reshape(rows, dim)
        log_u = np.repeat(uniforms[:size], n_chains)
        held[0], held_lp[0] = beta, current_lp
        a = 0
        while a < rows:
            # One block: rows a .. b - 1, every one proposed from the current state.
            # Outputs are passed by position, which numpy parses faster than out=.
            b = min(a + span, rows)
            proposal = np.add(beta, flat_steps[a:b], proposals[a:b])
            lp = proposed_lp[a:b]
            fill_rows(proposal, lp)
            accept = np.less(log_u[a:b], lp - current_lp, accepts[a:b])
            if b - a > n_chains:  # one chain's prefetched iterations: take those up to the first accept
                k = int(accept.argmax())
                if accept[k]:
                    b = a + k + 1
                    beta[0], current_lp[0] = proposal[k], lp[k]
            else:
                np.copyto(beta, proposal, where=accept[:, None])
                np.copyto(current_lp, lp, where=accept)
            a = b

        taken = accepts[:rows].reshape(size, n_chains)
        n_nonfinite += size - np.count_nonzero(np.isfinite(proposed_lp[:rows].reshape(size, n_chains)), axis=0)
        if first + size <= burn_in:
            batch_index = len(sd_steps) + 1
            for c, batch_accepts in enumerate(taken.sum(axis=0)):
                sd[c] = adapt_proposal_sd(sd[c], batch_accepts / ADAPT_BATCH_SIZE, batch_index)
            sd_steps.append(first + size)
            sd_trace.append(sd.copy())
            continue
        post_accepts += taken[max(burn_in - first, 0) :].sum(axis=0)
        kept = np.arange(next_keep - first, size, thin)  # the batch's retained iterations
        last = np.maximum.accumulate(np.where(taken, np.arange(1, size + 1)[:, None], 0), axis=0)[kept]
        draws[keep : keep + len(kept)] = held[last, chain_index]
        lp_trace[keep : keep + len(kept)] = held_lp[last, chain_index]
        kept_accepts[keep : keep + len(kept)] = taken[kept]
        keep += len(kept)
        next_keep += len(kept) * thin

    sd_history = np.array(sd_trace, dtype=np.float64).reshape(-1, n_chains)
    chains = []
    for c in range(n_chains):
        if not alive[c]:
            chains.append(_start_failure())
            continue
        if not post_accepts[c]:
            chains.append(SamplerError("the chain never moved: no proposal was accepted after burn-in"))
            continue
        chains.append(
            PosteriorSamples(
                draws=np.ascontiguousarray(draws[:, c]),
                acceptance_rate=float(post_accepts[c] / (n_iter - burn_in)),
                final_proposal_sd=float(sd[c]),
                rng_seed=int(config.rng_seed),
                log_posterior_trace=np.ascontiguousarray(lp_trace[:, c]),
                accepted=np.ascontiguousarray(kept_accepts[:, c]),
                proposal_sd_trace=np.column_stack([sd_steps, sd_history[:, c]]).reshape(-1, 2),
                n_nonfinite_proposals=int(n_nonfinite[c]),
            )
        )
    return chains


def _start_failure() -> SamplerError:
    return SamplerError("log-posterior is non-finite at the initial point")


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
