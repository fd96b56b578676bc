"""Random-walk Metropolis-Hastings with burn-in proposal adaptation.

All coefficients update jointly with an isotropic Gaussian proposal
N(beta, sd^2 I).  The proposal scale adapts in batches during burn-in
toward a target acceptance rate (0.24) and is frozen afterwards
so the retained chain is a valid Markov chain.

:func:`run_mh` runs one chain, and it evaluates up to four iterations
per log-posterior call: the proposals a run of rejections would make,
prefetched.  The same loop (:func:`_run_chains`) also advances G groups
of C chains, the CV folds' lam chains, behind one log-posterior call per
iteration: group g draws from its own seed's stream, and the C chains
of a group share it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, SamplerError, require_memory, require_seed

__all__ = [
    "SamplerConfig",
    "PosteriorSamples",
    "run_mh",
    "adapt_proposal_sd",
    "mc_standard_error",
    "gelman_rubin",
]

ADAPT_BATCH_SIZE = 50
TARGET_ACCEPTANCE = 0.24
SD_MIN = 1e-8
SD_MAX = 1e3
MCSE_BATCHES = 50
PREFETCH = 4  # iterations a single chain proposes per log-posterior call
RAW_TO_UNIT = 2.0**-53  # scales the top 53 of 64 random bits to a uniform in [0, 1)


@dataclass(frozen=True)
class SamplerConfig:
    n_iterations: int = 20_000
    burn_in: int = 5_000
    thin: int = 1
    initial_sd: float = 0.1
    rng_seed: int = 0

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
        if self.initial_sd < SD_MIN:  # every step would round away, so every proposal would be accepted
            raise ConfigError(f"initial_sd must be at least {SD_MIN}, the floor of the adapted sd, got {self.initial_sd}")
        require_seed(self.rng_seed, "rng_seed")


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
    log_posterior: Callable[[np.ndarray], np.ndarray],
    dim: int,
    config: SamplerConfig,
) -> PosteriorSamples:
    """Sample one chain from an unnormalised log-posterior over R^d.

    ``log_posterior`` maps an (m, d) array to its m row values, as the
    callable of :func:`~tailbayes.model_core.make_log_posterior` does.  The
    chain starts at the origin.  A non-finite value there, or a chain that
    accepts no proposal or every proposal after burn-in, raises SamplerError.
    Proposals with a non-finite log-posterior are rejected (and counted).
    A run enters ``np.errstate(over="ignore", invalid="ignore")`` once,
    so an overflowing step or log-posterior term, in ``log_posterior``
    too, rejects its proposal without a RuntimeWarning.  A run whose retained
    draws, log-posterior trace and accept flags would not fit in physical
    memory raises ConfigError before the first log-posterior call.

    Each iteration draws one ``standard_normal(d)`` and one uniform from
    the stream seeded by ``config.rng_seed``.  The uniform is read as the
    stream's next 64 raw bits u, as (u >> 11) * 2^-53, which is bit for
    bit ``Generator.random()`` on the PCG64 stream ``default_rng`` makes,
    at about half the cost per call.  The stream is drawn ahead one
    adaptation batch (50 iterations) at a time.

    The chain prefetches: it makes the proposals of its next
    ``PREFETCH`` iterations from the current state, as a run of
    rejections would, and evaluates them in one call (m = 4).  It takes
    the iterations up to and including the first accept and proposes the
    rest again from the new state; a block never spans an adaptation
    step.  Its accept tests run on Python floats.  The random stream is
    that of one proposal per call.  With the callable of
    :func:`~tailbayes.model_core.make_log_posterior`, a block of 2 to 4
    rows gives each row the bits the 4-row block gives it, but a 1-row
    block (where a batch leaves one iteration) rounds its BLAS product
    differently in the last bits.  So the chain's values, and an accept
    test whose log u falls in that gap, can differ from those of one
    proposal per call; a rerun through ``run_mh`` repeats them bit for bit.
    """
    (chain,) = _run_chains(log_posterior, [config.rng_seed], 1, dim, config)
    if isinstance(chain, SamplerError):
        raise chain
    return chain


def _check_draw_store(n_chains: int, dim: int, config: SamplerConfig) -> None:
    """ConfigError unless ``n_chains`` chains' retained draws, trace and accept flags fit in physical memory."""
    n_retained = (config.n_iterations - config.burn_in) // config.thin
    needed = n_chains * n_retained * (dim * 8 + 8 + 1)  # float64 draws and trace, bool flags
    require_memory(needed, f"the retained draws, log-posterior traces and accept flags of {n_chains} chains of {n_retained} draws")


def _plain_fill(log_posterior):
    """The ``_fill_rows`` entry of a plain log-posterior callable (see :func:`_run_chains`)."""

    def fill_rows(b, out):
        out[:] = log_posterior(b)
        out[out == np.inf] = np.nan  # +inf would pass every accept test; NaN passes none

    return fill_rows


@np.errstate(over="ignore", invalid="ignore")  # once per run: a non-finite proposal is rejected and counted
def _run_chains(log_posterior, seeds: Sequence[int], n_chains: int, dim: int, config: SamplerConfig) -> list:
    """The chains of G = ``len(seeds)`` groups of ``n_chains`` chains, advanced in one loop, in group order.

    ``log_posterior`` maps G * ``n_chains`` rows per iteration to their
    values, row j a proposal for chain j: chain j % ``n_chains`` of group
    j // ``n_chains``, as :func:`~tailbayes.model_core._stacked_log_posterior`
    orders them.  Group g draws from the stream seeded by ``seeds[g]``
    and its chains share that stream, so each chain is the chain
    :func:`run_mh` gives on its own log-posterior with that seed, as long
    as both evaluations return the same values.  A lone chain (G = C = 1)
    prefetches ``PREFETCH`` proposals per call; more chains evaluate one
    iteration per call.  A chain whose start point is non-finite, or that
    accepts no proposal or every proposal after burn-in, gets a
    SamplerError in its place and the other chains run on.
    """
    # fill_rows(b, out) writes the log-posterior of each row of b into out, in place.
    # make_log_posterior's callables carry one that never returns +inf; any other
    # callable, whatever other attributes it carries, is adapted.
    fill_rows = getattr(log_posterior, "_fill_rows", None)
    if not callable(fill_rows):
        fill_rows = _plain_fill(log_posterior)
    rngs = [np.random.default_rng(int(seed)) for seed in seeds]
    n_groups, total = len(seeds), len(seeds) * n_chains
    _check_draw_store(total, dim, config)
    n_iter, burn_in, thin = config.n_iterations, config.burn_in, config.thin
    n_retained = (n_iter - burn_in) // thin
    beta = np.zeros((total, dim))  # every chain starts at the origin
    current_lp = np.empty(total)
    fill_rows(beta, current_lp)
    alive = np.isfinite(current_lp)
    if not alive.any():
        return [_start_failure() for _ in range(total)]
    current_lp[~alive] = np.nan  # a NaN current value fails every accept test below

    # Chain-major, so each chain's draws, trace and flags are contiguous views.
    draws = np.empty((total, n_retained, dim))
    lp_trace = np.empty((total, n_retained))
    kept_accepts = np.empty((total, n_retained), dtype=bool)
    # One adaptation batch of each stream and of its outcomes at a time, one
    # row per iteration and chain (row r is iteration r // total, chain r % total).
    # Row 0 of ``held`` is the state before the batch and row t + 1 holds
    # iteration t's proposals, so a chain's state after iteration t is the
    # row of its last accept up to t.
    normals = np.empty((n_groups, ADAPT_BATCH_SIZE, dim))
    uniforms = np.empty((n_groups, ADAPT_BATCH_SIZE))
    # Bound methods and row views made once per run: each draw is one call.
    streams = [(rng.standard_normal, rng.bit_generator.random_raw, list(group)) for rng, group in zip(rngs, normals)]
    steps = np.empty((ADAPT_BATCH_SIZE, n_groups, n_chains, dim))
    log_u = np.empty((ADAPT_BATCH_SIZE, n_groups, n_chains))
    held = np.empty((ADAPT_BATCH_SIZE + 1, total, dim))
    held_lp = np.empty((ADAPT_BATCH_SIZE + 1, total))
    accepts = np.empty(ADAPT_BATCH_SIZE * total, dtype=bool)
    proposals, proposed_lp = held[1:].reshape(-1, dim), held_lp[1:].reshape(-1)
    flat = (steps.reshape(-1, dim), proposals, proposed_lp, log_u.reshape(-1), accepts)
    post_accepts = np.zeros(total, dtype=np.int64)
    n_nonfinite = np.zeros(total, dtype=np.int64)
    sd = np.full(total, float(config.initial_sd))
    group_sd = sd.reshape(n_groups, n_chains, 1)
    sd_steps, sd_trace = [], []
    span = (PREFETCH if total == 1 else 1) * total  # rows per log-posterior call
    block_rows = 0  # the batch size in rows that ``blocks`` was made for
    keep, next_keep = 0, burn_in + thin - 1  # the next retained iteration
    chain_index = np.arange(total)[:, None]
    current = float(current_lp[0])  # a lone chain's current value; its batch's log-uniforms are ``log_uniforms``

    for first in range(0, n_iter, ADAPT_BATCH_SIZE):
        size = min(ADAPT_BATCH_SIZE, n_iter - first)
        for group_uniforms, (normal, raw, normal_rows) in zip(uniforms, streams):
            bits = []
            for row in normal_rows[:size]:
                normal(out=row)
                bits.append(raw())
            # (u >> 11) * 2^-53 is bit for bit Generator.random() on PCG64's raw output
            log_uniforms = [math.log((u >> 11) * RAW_TO_UNIT) for u in bits]
            group_uniforms[:size] = log_uniforms
        rows = size * total
        if rows != block_rows:  # the block that starts at row a: its end b and views of rows a .. b - 1
            block_rows, blocks = rows, {}
            for a in range(0, rows, total):
                b = min(a + span, rows)
                blocks[a] = (b, *(part[a:b] for part in flat))
        # step of iteration r, chain c of group g: sd[g, c] * normals[g, r]
        np.multiply(group_sd, normals[:, :size, None].swapaxes(0, 1), steps[:size])
        log_u[:size] = uniforms[:, :size, None].swapaxes(0, 1)
        held[0], held_lp[0] = beta, current_lp
        accepts[:rows] = False  # a lone chain records only its accepts
        a = 0
        while a < rows:
            # One block, every proposal made from the current state.
            # Outputs are passed by position, which numpy parses faster than out=.
            b, step, proposal, lp, block_log_u, accept = blocks[a]
            np.add(beta, step, proposal)
            fill_rows(proposal, lp)
            if total == 1:  # a lone chain: take its iterations up to the first accept, in Python floats
                for k, value in enumerate(lp.tolist()):
                    if log_uniforms[a + k] < value - current:
                        accept[k] = True
                        b = a + k + 1
                        beta[0], current_lp[0], current = proposal[k], value, value
                        break
            else:
                np.less(block_log_u, lp - current_lp, accept)
                np.copyto(beta, proposal, where=accept[:, None])
                np.copyto(current_lp, lp, where=accept)
            a = b

        taken = accepts[:rows].reshape(size, total)
        n_nonfinite += size - np.count_nonzero(np.isfinite(proposed_lp[:rows].reshape(size, total)), axis=0)
        if first + size <= burn_in:
            batch_index = len(sd_steps) + 1
            for c, batch_accepts in enumerate(taken.sum(axis=0)):
                sd[c] = adapt_proposal_sd(sd[c], batch_accepts / ADAPT_BATCH_SIZE, batch_index)
            sd_steps.append(first + size)
            sd_trace.append(sd.copy())
            continue
        post_accepts += taken[max(burn_in - first, 0) :].sum(axis=0)
        kept = np.arange(next_keep - first, size, thin)  # the batch's retained iterations
        last = np.maximum.accumulate(np.where(taken, np.arange(1, size + 1)[:, None], 0), axis=0)[kept].T
        draws[:, keep : keep + len(kept)] = held[last, chain_index]
        lp_trace[:, keep : keep + len(kept)] = held_lp[last, chain_index]
        kept_accepts[:, keep : keep + len(kept)] = taken[kept].T
        keep += len(kept)
        next_keep += len(kept) * thin

    sd_history = np.array(sd_trace, dtype=np.float64).reshape(-1, total)
    chains = []
    for c in range(total):
        if not alive[c]:
            chains.append(_start_failure())
            continue
        if not post_accepts[c]:
            chains.append(SamplerError("the chain never moved: no proposal was accepted after burn-in"))
            continue
        if post_accepts[c] == n_iter - burn_in:  # steps too small to change the log-posterior, or a flat target
            chains.append(SamplerError("the chain never rejected: every proposal was accepted after burn-in"))
            continue
        chains.append(
            PosteriorSamples(
                draws=draws[c],
                acceptance_rate=float(post_accepts[c] / (n_iter - burn_in)),
                final_proposal_sd=float(sd[c]),
                rng_seed=int(seeds[c // n_chains]),
                log_posterior_trace=lp_trace[c],
                accepted=kept_accepts[c],
                proposal_sd_trace=np.column_stack([sd_steps, sd_history[:, c]]).reshape(-1, 2),
                n_nonfinite_proposals=int(n_nonfinite[c]),
            )
        )
    return chains


def _start_failure() -> SamplerError:
    return SamplerError("log-posterior is non-finite at the initial point")


def mc_standard_error(draws: np.ndarray) -> float:
    """Batch-means Monte-Carlo standard error of the chain mean over ``MCSE_BATCHES`` batches."""
    x = np.asarray(draws, dtype=np.float64).ravel()
    if x.shape[0] < 2 * MCSE_BATCHES:
        raise ConfigError(f"chain too short for {MCSE_BATCHES} batches")
    m = x.shape[0] // MCSE_BATCHES
    batches = x[: m * MCSE_BATCHES].reshape(MCSE_BATCHES, m).mean(axis=1)
    return float(batches.std(ddof=1) / math.sqrt(MCSE_BATCHES))


def gelman_rubin(chains: Sequence[np.ndarray]) -> np.ndarray:
    """Potential scale reduction factor per coefficient across chains of equal shape (s, d).

    Each chain's mean and variance are taken on its own, so no (m, s, d)
    copy of the chains is made.
    """
    arrays = [np.asarray(c, dtype=np.float64) for c in chains]
    if len(arrays) < 2 or len({a.shape for a in arrays}) != 1:
        raise ConfigError("R-hat needs at least two chains of equal shape")
    s = arrays[0].shape[0]
    if s < 2:
        raise ConfigError("chains too short for R-hat")
    chain_means = np.array([a.mean(axis=0) for a in arrays])
    chain_vars = np.array([a.var(axis=0, ddof=1) for a in arrays])
    w = chain_vars.mean(axis=0)
    b = s * chain_means.var(axis=0, ddof=1)
    var_hat = (s - 1) / s * w + b / s
    return np.sqrt(var_hat / w)
