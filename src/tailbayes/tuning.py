"""Two-stage fitting pipeline: split, first-stage probabilities, CV over lam.

The training data splits into a design part (fits the first-stage model
that positions each row relative to the target threshold) and a
development part (chooses the decay rate lam by stratified K-fold CV on
Net Benefit, then receives the final fit).  With lam = 0 every weight
is 1 and the pipeline reduces exactly to standard Bayesian logistic
regression.

A fit is two calls, ``fit_pipeline(first_stage(train, ...), t)``: the
split, fold plan and stage 1 do not depend on t, so the thresholds of one
training set share one :func:`first_stage`.

The final, stage-1 and standard fits are single chains, each one
:func:`~tailbayes.sampler.run_mh` run (:func:`fit_tailored`).  A one-value
grid {0} weights every row 1 whatever the first-stage model says, so it
runs no stage 1 and no CV chain.  Each CV fold's lam chains share the
fold's seed and so its random stream, and the folds a worker takes run
stacked in one sampler loop, with one log-posterior call per iteration for
all their chains (:func:`fit_folds`).  The thresholds of one first stage
share its folds and fold seeds, so their CV can run as one stack per fold
(:func:`cv_select_lambdas`), each bit-identical weight row once.  CV fold
groups and the R-hat reruns run side by side over :func:`map_jobs`.  A
worker process that dies is a :class:`~tailbayes.errors.WorkerLostError`.
"""

from __future__ import annotations

import hashlib
import logging
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError, SamplerError, WorkerLostError
from .model_core import (
    Dataset,
    DistanceFunction,
    GaussianPrior,
    TargetThreshold,
    _stacked_log_posterior,
    compute_weights,
    effective_sample_size,
    make_log_posterior,
)
from .evaluation import net_benefit
from .predict import predictive_mean
from .sampler import PosteriorSamples, SamplerConfig, _check_draw_store, _run_chains, gelman_rubin, run_mh

__all__ = [
    "DEFAULT_LAMBDA_GRID",
    "DEFAULT_K_FOLDS",
    "DEFAULT_DESIGN_FRACTION",
    "ESS_WARNING_FRACTION",
    "ACCEPTANCE_WARNING_RANGE",
    "USABLE_CPUS",
    "SplitPlan",
    "CvPlan",
    "FittedTailoredModel",
    "make_split",
    "make_cv_plan",
    "fit_tailored",
    "fit_folds",
    "fit_standard",
    "fold_seed",
    "rhat_seeds",
    "final_fit_rhat",
    "map_jobs",
    "stage1_pi_u",
    "FirstStage",
    "first_stage",
    "cv_select_lambda",
    "cv_select_lambdas",
    "fit_pipeline",
    "ess_grid",
]

logger = logging.getLogger(__name__)

DEFAULT_LAMBDA_GRID = (0.0, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0)
DEFAULT_K_FOLDS = 5
DEFAULT_DESIGN_FRACTION = 0.20
ESS_WARNING_FRACTION = 0.10
# random-walk MH mixes best near 0.234 acceptance (Roberts, Gelman & Gilks 1997); a final chain outside this is reported
ACCEPTANCE_WARNING_RANGE = (0.15, 0.35)
# the CPUs this process may run on, which an affinity mask can make fewer than the machine's; no pool is larger
USABLE_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@dataclass(frozen=True)
class SplitPlan:
    """Disjoint, exhaustive index partition of a dataset.

    The design set gets floor(design_fraction * n) rows; the remainder
    goes to development.
    """

    design_idx: np.ndarray
    development_idx: np.ndarray

    def digest(self) -> str:
        h = hashlib.sha256()
        for part in (self.design_idx, self.development_idx):
            h.update(np.asarray(part, dtype=np.int64).tobytes())
        return h.hexdigest()


def make_split(n: int, design_fraction: float, seed: int) -> SplitPlan:
    """Uniformly random, seed-reproducible design/development partition.

    Raises DataError when a positive design fraction floors to an empty
    design set or when the development part comes out empty.  A zero
    design fraction is allowed deliberately, for externally supplied
    first-stage probabilities.
    """
    if not (0.0 <= design_fraction < 1.0):
        raise ConfigError("fractions must lie in [0, 1)")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_design = int(np.floor(design_fraction * n))
    if design_fraction > 0.0 and n_design == 0:
        raise DataError("design fraction yields an empty design set")
    if n - n_design < 1:
        raise DataError("development set is empty")
    return SplitPlan(
        design_idx=np.sort(perm[:n_design]),
        development_idx=np.sort(perm[n_design:]),
    )


@dataclass(frozen=True)
class CvPlan:
    """Stratified fold assignment plus the lam candidate grid.

    The grid must be finite, ascending and start at 0 so the standard
    model is always a candidate.  Folds are balanced so each fold's
    positive count is within one of its proportional share.
    """

    k: int
    lambda_grid: tuple[float, ...]
    fold_ids: np.ndarray

    def __post_init__(self):
        grid = tuple(float(v) for v in self.lambda_grid)
        if len(grid) == 0:
            raise ConfigError("lambda grid must be non-empty")
        if grid[0] != 0.0:
            raise ConfigError("lambda grid must start at 0")
        if not all(math.isfinite(v) for v in grid):
            raise ConfigError(f"lambda values must be finite, got {list(grid)}")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("lambda grid must be strictly ascending")
        object.__setattr__(self, "lambda_grid", grid)

    @property
    def one_value(self) -> bool:
        """A {0} grid, the only one-value grid: lam* = 0 weights every row 1 whatever pi_u is, so no stage 1 or CV."""
        return self.lambda_grid == (0.0,)

    def fold_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_ids == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_ids != fold)


def make_cv_plan(outcomes, k: int, lambda_grid, seed: int) -> CvPlan:
    """Outcome-stratified K-fold assignment, reproducible from the seed."""
    y = np.asarray(outcomes, dtype=np.float64).ravel()
    if k < 2:
        raise ConfigError("k must be >= 2")
    if y.shape[0] < k:
        raise DataError(f"cannot make {k} folds from {y.shape[0]} rows")
    rng = np.random.default_rng(seed)
    fold_ids = np.empty(y.shape[0], dtype=np.intp)
    for label in (0.0, 1.0):
        idx = np.flatnonzero(y == label)
        rng.shuffle(idx)
        for fold, chunk in enumerate(np.array_split(idx, k)):
            fold_ids[chunk] = fold
    return CvPlan(k=k, lambda_grid=tuple(lambda_grid), fold_ids=fold_ids)


def fit_tailored(
    data: Dataset,
    weights: np.ndarray,
    prior: GaussianPrior,
    sampler_config: SamplerConfig,
) -> PosteriorSamples:
    """One MH chain on the weighted-likelihood posterior; a chain that fails raises its SamplerError."""
    return run_mh(make_log_posterior(data, weights, prior), data.n_coefficients, sampler_config)


def fit_folds(
    datasets: list[Dataset],
    weights: list[np.ndarray],
    prior: GaussianPrior,
    sampler_config: SamplerConfig,
    seeds: list[int],
) -> list[list]:
    """The chains of every row of every (C, n_g) ``weights[g]`` on ``datasets[g]``, seeded by ``seeds[g]``, stacked.

    Every ``weights[g]`` has the same C.  The G folds advance in one
    sampler loop, each on its own random stream shared by its C chains,
    with one log-posterior call per iteration for all of them.  Fold g's
    list holds, in weight-row order, each chain's
    :class:`~tailbayes.sampler.PosteriorSamples`, or the SamplerError that
    failed it; a chain is bit for bit the :func:`fit_tailored` chain of
    its weight row under ``seeds[g]``, as long as both evaluations
    return the same values (see :func:`~tailbayes.sampler.run_mh`).
    """
    logpost = _stacked_log_posterior(datasets, weights, prior)
    n_chains = len(weights[0])
    chains = _run_chains(logpost, seeds, n_chains, datasets[0].n_coefficients, sampler_config)
    return [chains[g * n_chains : (g + 1) * n_chains] for g in range(len(seeds))]


def fit_standard(
    data: Dataset,
    sampler_config: SamplerConfig,
    prior: GaussianPrior | None = None,
) -> PosteriorSamples:
    """Standard (unweighted) Bayesian logistic regression fit."""
    if prior is None:
        prior = GaussianPrior.vague(data.n_coefficients)
    return fit_tailored(data, np.ones(data.n), prior, sampler_config)


def fold_seed(base_seed: int, fold: int) -> int:
    """Sampler seed of CV fold ``fold`` (0-based): the base seed plus fold + 1, mod 2^64."""
    return (base_seed + fold + 1) % 2**64


def rhat_seeds(base_seed: int, n_chains: int) -> list[int]:
    """Seeds of the chains an R-hat check of ``n_chains`` adds to the final chain: base + 90 000 + i, mod 2^64."""
    return [(base_seed + 90_000 + i) % 2**64 for i in range(1, n_chains)]


def map_jobs(fn, payloads: list, jobs: int) -> list:
    """``[fn(p) for p in payloads]``, over at most ``jobs`` worker processes.

    The pool gets one worker per payload at most and no more workers than
    :data:`USABLE_CPUS`, and a single worker runs in-process.  Results
    keep the payload order, and the first call in payload order that
    raises is raised here, as in the serial loop.  A worker process that
    dies raises :class:`~tailbayes.errors.WorkerLostError`, which names the
    first task, in payload order, whose result was lost, and holds its index
    as ``task`` for the caller to name in its own terms.
    ``fn`` must be a top-level function so the pool can pickle it; callers
    pass it at call time.
    """
    workers = _workers(jobs, len(payloads))
    if workers <= 1:
        return [fn(p) for p in payloads]
    results = []
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results.extend(pool.map(fn, payloads))  # keeps the results that arrived before a worker died
    except BrokenProcessPool:
        raise WorkerLostError.lost(f"task {len(results) + 1} of {len(payloads)}", len(results)) from None
    return results


def stage1_pi_u(design: Dataset, sampler_config: SamplerConfig, prior: GaussianPrior) -> PosteriorSamples:
    """Fit the first-stage model, a standard logistic fit, on the design set.

    Requires both outcome classes to be present; with an externally
    supplied probability source this step is skipped entirely.
    """
    _require_both_classes(design)
    return fit_standard(design, sampler_config, prior)


def _require_both_classes(design: Dataset) -> None:
    n_pos = int(np.sum(design.outcomes))
    if n_pos == 0 or n_pos == design.n:
        raise DataError("design set contains a single outcome class")


def _require_full_folds(development: Dataset, cv_plan: CvPlan) -> None:
    # each class spreads over the folds one row at a time, so the larger one must fill every fold
    class_rows = np.bincount(development.outcomes.astype(np.intp), minlength=2)
    if class_rows.max() < cv_plan.k:
        raise DataError(
            f"cannot make {cv_plan.k} non-empty CV folds from {development.n} development rows: "
            f"the outcome classes have {class_rows[0]} and {class_rows[1]} rows, and the larger "
            f"needs at least {cv_plan.k}"
        )


def _workers(jobs: int, tasks: int) -> int:
    """``min(jobs, tasks, USABLE_CPUS)`` workers for ``tasks`` tasks; ConfigError unless ``jobs`` is an integer >= 1."""
    if isinstance(jobs, bool) or not isinstance(jobs, numbers.Integral) or jobs < 1:
        raise ConfigError(f"jobs must be an integer of at least 1, got {jobs!r}")
    return min(jobs, tasks, USABLE_CPUS)


def _fold_groups(k: int, jobs: int) -> list[np.ndarray]:
    """The K folds in :func:`_workers` contiguous groups, one per worker (3 + 2 at jobs 2, K = 5), the larger first."""
    return np.array_split(np.arange(k), _workers(jobs, k))


def _lone_fit(payload: tuple) -> PosteriorSamples:
    """``fit_tailored(*payload)``, top-level so pools can pickle it; :func:`map_jobs` raises the first failure."""
    return fit_tailored(*payload)


def _cv_folds(payload: tuple) -> list[list[list[tuple[float, str | None]]]]:
    """(Net Benefit, error) of each threshold's lam chains in each fold of one group; top-level so pools can pickle it.

    ``rows[i][l]`` is the chain of the stack that threshold i's lam l reads.  A
    chain's predictive means are computed once, whatever number of thresholds read it.
    """
    folds, thresholds, rows, prior, config = payload
    trains, weights, tests, seeds = zip(*folds)
    fits = fit_folds(trains, weights, prior, config, seeds)
    scores = []
    for chains, test in zip(fits, tests):
        means = [c if isinstance(c, SamplerError) else predictive_mean(test.covariates, c) for c in chains]
        scores.append([[_cv_score(means[c], test, t) for c in row] for t, row in zip(thresholds, rows)])
    return scores


def _cv_score(means, test: Dataset, threshold: TargetThreshold) -> tuple[float, str | None]:
    if isinstance(means, SamplerError):
        return float("nan"), str(means)
    return net_benefit(means, test.outcomes, threshold).net_benefit, None


def cv_select_lambda(first: FirstStage, weights: np.ndarray, threshold: TargetThreshold) -> tuple[float, list[dict]]:
    """Choose lam maximising the fold-average Net Benefit at the threshold, on ``first``'s development rows.

    ``weights`` holds one row per lam of ``first``'s grid and one column per
    development row, and a fold's chains take its training columns.
    Fold fits share ``first.cv_config`` with per-fold seeds
    (:func:`fold_seed`).  A fold's lam chains share its seed and so one
    random stream.  ``first.jobs`` splits the folds into at most that many
    contiguous groups (:func:`_fold_groups`), one per worker process,
    and each group's folds run stacked (:func:`fit_folds`); the result
    does not depend on ``jobs``.  Ties break toward the smallest lam.  A
    sampler failure invalidates its cell; a lam stays eligible only if at
    least K - 1 of its folds succeeded (the average then runs over the
    successes, and the failure is logged).  Every fold holds a row, as
    :func:`first_stage` checks for a grid of more than one value.  This is
    the one-threshold case of :func:`cv_select_lambdas`.
    """
    (result,) = cv_select_lambdas(first, [weights], [threshold])
    return result


def cv_select_lambdas(first: FirstStage, weights: list, thresholds: list) -> list[tuple[float, list[dict]]]:
    """:func:`cv_select_lambda` at each of ``thresholds``, with its ``weights[i]``, as one stacked CV run on ``first``.

    Each fold stacks every threshold's weight rows on its seed's stream
    (:func:`fit_folds`).  A later threshold's row that is bit for bit one
    already in the stack, such as the all-1 lam = 0 row, runs no chain of
    its own and reads that row's chain; the first threshold's rows all run,
    as in its own call.  A chain's bits do not depend on the rest of its
    stack (``tests/test_model_core.py::TestRoundingClasses``), so each
    threshold gets the result of its own :func:`cv_select_lambda` call.  The
    largest fold group's draw stores are checked before any chain runs.  A
    {0} grid gives each threshold (0.0, []) before any check or chain.  A
    worker that dies raises a WorkerLostError that names its folds.
    """
    development, cv_plan, config = first.development, first.cv_plan, first.cv_config
    grid = cv_plan.lambda_grid
    if cv_plan.one_value:
        return [(0.0, []) for _ in thresholds]
    stack, rows, seen = [], [], {}  # the weight rows that run; each threshold's stack row per lam; row bytes -> row
    for i, w in enumerate(weights):
        w = np.asarray(w, dtype=np.float64)
        if w.shape != (len(grid), development.n):
            raise DataError(f"weights need one row per lambda and one column per development row, "
                            f"{(len(grid), development.n)}, not {w.shape}")
        rows.append([])
        for row in w:
            key = row.tobytes()
            if i and key in seen:
                rows[-1].append(seen[key])
            else:
                seen.setdefault(key, len(stack))
                rows[-1].append(len(stack))
                stack.append(row)
    stack = np.array(stack)
    groups = _fold_groups(cv_plan.k, first.jobs)
    _check_draw_store(len(groups[0]) * len(stack), development.n_coefficients, config)

    seeds = [fold_seed(config.rng_seed, fold) for fold in range(cv_plan.k)]
    folds = []
    for fold, seed in enumerate(seeds):
        tr = cv_plan.train_indices(fold)
        test = development.subset(cv_plan.fold_indices(fold))
        folds.append((development.subset(tr), stack[:, tr], test, seed))
    payloads = [([folds[f] for f in group], thresholds, rows, first.prior, config) for group in groups]
    try:
        scores = [fold for group in map_jobs(_cv_folds, payloads, first.jobs) for fold in group]
    except WorkerLostError as exc:
        low, high = groups[exc.task][[0, -1]] + 1
        raise WorkerLostError.lost(f"CV folds {low}-{high}" if high > low else f"CV fold {low}", exc.task) from None
    return [_select_lambda(grid, seeds, [fold[i] for fold in scores]) for i in range(len(thresholds))]


def _select_lambda(grid: tuple, seeds: list[int], scores: list) -> tuple[float, list[dict]]:
    """lam* and the CV table of one threshold from its (Net Benefit, error) ``scores[fold][lam]``."""
    table: list[dict] = []
    best_lam = None
    best_nb = -np.inf
    for li, lam in enumerate(grid):
        successes = []
        for fold, seed in enumerate(seeds):
            nb, error = scores[fold][li]
            table.append(
                {"lambda": lam, "fold": fold + 1, "nb": None if error else nb, "seed": seed, "error": error}
            )
            if error is None:
                successes.append(nb)
            else:
                logger.warning("CV cell lam=%s fold=%d failed: %s", lam, fold + 1, error)
        if len(successes) < len(seeds) - 1:
            logger.warning(
                "lam=%s dropped: only %d of %d folds succeeded",
                lam,
                len(successes),
                len(seeds),
            )
            continue
        avg = float(np.mean(successes))
        if avg > best_nb:
            best_nb = avg
            best_lam = lam
    if best_lam is None:
        raise SamplerError("every lambda candidate lost too many CV folds")
    return best_lam, table


class FirstStage(NamedTuple):
    """The part of a fit that its threshold does not change (:func:`first_stage`), which :func:`fit_pipeline` takes."""

    split: SplitPlan
    development: Dataset
    cv_plan: CvPlan
    sampler_config: SamplerConfig
    cv_config: SamplerConfig
    prior: GaussianPrior
    stage1: PosteriorSamples | None
    pi_u_development: np.ndarray | None
    jobs: int

    def weights(self, threshold: TargetThreshold, distance: DistanceFunction) -> np.ndarray:
        """exp(-lam * h(pi_u, t)) per lam of the grid (rows) and development row; without pi_u, one row of 1s."""
        if self.pi_u_development is None:
            return np.ones((1, self.development.n))
        return compute_weights(self.pi_u_development, threshold, self.cv_plan.lambda_grid, distance)


def first_stage(
    train: Dataset,
    *,
    lambda_grid=DEFAULT_LAMBDA_GRID,
    k_folds: int = DEFAULT_K_FOLDS,
    design_fraction: float = DEFAULT_DESIGN_FRACTION,
    sampler_config: SamplerConfig = SamplerConfig(),
    cv_chain: tuple[int, int] | None = None,
    prior: GaussianPrior | None = None,
    external_pi_u: np.ndarray | None = None,
    jobs: int = 1,
) -> FirstStage:
    """The threshold-free stage of a fit: split, fold plan, stage 1 and pi_u on the development rows.

    The sampler config's seed draws the split and the CV fold assignment.
    The CV chains (:func:`fold_seed`) differ from the final chain only in
    ``cv_chain``, their (iterations, burn-in), by default the final chain's.
    When ``external_pi_u`` provides per-row probabilities for the whole
    training set, no design split is made and stage 1 is skipped.  A
    one-value grid, whose lam* = 0 weights every row 1 whatever pi_u is,
    needs no stage 1 either: without ``external_pi_u`` it splits and checks
    the design rows' classes, and its ``stage1`` and ``pi_u_development``
    are None.  Without ``external_pi_u`` the design fraction must be
    positive.  The fold plan and the draw stores are checked before any
    chain runs, and so is ``jobs``, which must be an integer of at least 1
    whatever the grid.  It bounds the worker processes of the CV fold groups
    (:func:`cv_select_lambda`) and of the R-hat reruns (:func:`final_fit_rhat`).
    ``pi_u_development`` is read-only, so the thresholds of one training set
    can share one first stage.
    """
    try:
        cv_config = sampler_config if cv_chain is None else replace(
            sampler_config, n_iterations=cv_chain[0], burn_in=cv_chain[1]
        )
    except ConfigError as exc:
        raise ConfigError(f"the CV chain (cv_chain, --cv-iterations/--cv-burn-in) of {cv_chain[0]} iterations "
                          f"and burn-in {cv_chain[1]}: {exc}") from None
    if prior is None:
        prior = GaussianPrior.vague(train.n_coefficients)

    if external_pi_u is not None:
        external_pi_u = np.asarray(external_pi_u, dtype=np.float64).ravel()
        if external_pi_u.shape[0] != train.n:
            raise DataError("external pi_u must supply one probability per training row")
        design_fraction = 0.0
    elif design_fraction == 0.0:
        raise ConfigError("design fraction 0 leaves no design rows for the first-stage model: give a positive design "
                          "fraction, or first-stage probabilities for every row (--pi-u-file, external_pi_u)")
    split = make_split(train.n, design_fraction, sampler_config.rng_seed)
    development = train.subset(split.development_idx)
    # the fold plan is checked before any chain runs, though a one-value grid never uses its folds
    cv_plan = make_cv_plan(development.outcomes, k_folds, lambda_grid, sampler_config.rng_seed)
    groups = _fold_groups(cv_plan.k, jobs)  # checks jobs, for a one-value grid too
    # the draws of a lone chain and of the largest fold group's stacked CV chains must fit in memory
    _check_draw_store(1, train.n_coefficients, sampler_config)
    if not cv_plan.one_value:
        _require_full_folds(development, cv_plan)
        _check_draw_store(len(groups[0]) * len(cv_plan.lambda_grid), train.n_coefficients, cv_config)

    stage1 = pi_u_dev = None
    if external_pi_u is not None:
        pi_u_dev = external_pi_u[split.development_idx]
    elif cv_plan.one_value:  # stage 1 has nothing to give
        _require_both_classes(train.subset(split.design_idx))
    else:
        stage1 = stage1_pi_u(train.subset(split.design_idx), sampler_config, prior)
        pi_u_dev = predictive_mean(development.covariates, stage1)
    if pi_u_dev is not None:
        pi_u_dev.setflags(write=False)
        n_boundary = int(np.count_nonzero((pi_u_dev == 0.0) | (pi_u_dev == 1.0)))
        if n_boundary:
            logger.warning("%d first-stage probabilities sit exactly at 0 or 1", n_boundary)
    return FirstStage(split, development, cv_plan, sampler_config, cv_config, prior, stage1, pi_u_dev, jobs)


@dataclass(frozen=True)
class FittedTailoredModel:
    """Everything a fit produced, sufficient to re-run it bit-identically: its first stage and the threshold's part."""

    first: FirstStage
    lambda_star: float
    threshold: TargetThreshold
    distance: DistanceFunction
    samples: PosteriorSamples
    cv_table: list[dict]
    ess_grid: list[dict]
    weights: np.ndarray

    @property
    def ess_t(self) -> float:  # lam*'s row of ess_grid holds the final chain's weights' effective sample size
        return self.ess_grid[self.first.cv_plan.lambda_grid.index(self.lambda_star)]["ess"]

    @property
    def ess_fraction(self) -> float:
        return self.ess_grid[self.first.cv_plan.lambda_grid.index(self.lambda_star)]["ess_fraction"]


def fit_pipeline(
    first: FirstStage,
    threshold: TargetThreshold,
    *,
    distance: DistanceFunction = DistanceFunction(),
    cv: tuple[float, list[dict]] | None = None,
) -> FittedTailoredModel:
    """The threshold's stage of a fit on ``first`` (:func:`first_stage`): weights, CV over lam, final fit.

    The final model always fits on the entire development part at the
    chosen lam, using the sampler config's own seed, so a grid of {0}
    reproduces a standard fit on the development data bit for bit.  The
    grid's weight matrix, made once, feeds CV, the final chain (its lam*
    row) and ``ess_grid``.  Every chain runs on the same inputs and seed
    whatever ``first.jobs`` is, so the result does not depend on it.
    ``first`` is only read, so the thresholds of one training set share it.
    ``cv``, when given, is the threshold's (lam*, cv_table) from a
    :func:`cv_select_lambdas` run on ``first`` with these weights, which is
    what this fit's own :func:`cv_select_lambda` call would give; the fit
    then runs no CV chain.
    """
    grid, weights = first.cv_plan.lambda_grid, first.weights(threshold, distance)
    lambda_star, cv_table = cv or cv_select_lambda(first, weights, threshold)

    star = grid.index(lambda_star)
    ess_rows = ess_grid(grid, weights)
    if ess_rows[star]["low_ess"]:
        logger.warning("effective sample size %.1f is below %.0f%% of the development rows",
                       ess_rows[star]["ess"], 100 * ESS_WARNING_FRACTION)
    samples = fit_tailored(first.development, weights[star], first.prior, first.sampler_config)
    low, high = ACCEPTANCE_WARNING_RANGE
    if not low <= samples.acceptance_rate <= high:
        logger.warning("final chain acceptance rate %.3f is outside [%.2f, %.2f] (final proposal sd %.3g)",
                       samples.acceptance_rate, low, high, samples.final_proposal_sd)
    return FittedTailoredModel(first, lambda_star, threshold, distance, samples, cv_table, ess_rows, weights[star])


def final_fit_rhat(model: FittedTailoredModel, n_chains: int) -> tuple[np.ndarray, list[int]]:
    """Gelman-Rubin R-hat per coefficient of the final chain plus ``n_chains - 1`` reruns, and the reruns' seeds.

    The reruns run on :func:`rhat_seeds`, side by side over at most ``model.first.jobs``
    worker processes (:func:`map_jobs`); the first failed one, in seed order, is raised,
    and a worker that dies raises a WorkerLostError that names its rerun's seed.
    """
    first = model.first
    seeds = rhat_seeds(first.sampler_config.rng_seed, n_chains)
    tasks = [
        (first.development, model.weights, first.prior, replace(first.sampler_config, rng_seed=seed))
        for seed in seeds
    ]
    try:
        reruns = map_jobs(_lone_fit, tasks, first.jobs)
    except WorkerLostError as exc:
        raise WorkerLostError.lost(f"the R-hat rerun of seed {seeds[exc.task]}", exc.task) from None
    return gelman_rubin([model.samples.draws] + [c.draws for c in reruns]), [c.rng_seed for c in reruns]


def ess_grid(lambda_grid, weights) -> list[dict]:
    """Effective sample size per lam of ``lambda_grid`` from its row of ``weights``, computable before any fit."""
    rows = []
    for lam, w in zip(lambda_grid, weights):
        ess = effective_sample_size(w)
        rows.append(
            {
                "lambda": float(lam),
                "ess": ess,
                "ess_fraction": ess / w.size,
                "low_ess": ess / w.size < ESS_WARNING_FRACTION,
            }
        )
    return rows
