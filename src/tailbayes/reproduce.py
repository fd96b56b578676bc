"""Desk-scale reruns of the three synthetic benchmark studies.

Each figure id maps to a grid of simulation cells; every repetition
draws fresh training and test data, fits the tailored pipeline and the
standard baseline, and scores both by Net Benefit on the clean test
set.  Repetition counts scale with the ``scale`` factor (full scale is
20 repetitions per cell).  A repetition's seeds mix the base seed, the
cell without its threshold t and the repetition index through
``SeedSequence``.  So the thresholds of one repetition share its data,
its baseline and its first stage (the design/development split, the
fold plan and stage 1: :func:`~tailbayes.tuning.first_stage`), which are
computed once, and so is the CV of all its thresholds, as one stacked
run (:func:`~tailbayes.tuning.cv_select_lambdas`) in which the all-1
lam = 0 weight row runs one chain that every threshold scores and no
chain's bits depend on the rest of its stack.  Each t then runs
``fit_pipeline(first, t, cv=...)``, and the comparison across t is a
paired design.  This is the package's own choice: the source paper's
abstract does not say whether its thresholds shared their data.  Each
repetition is one task of a process pool, and a cell's rows depend on
neither the rest of its grid nor the number of workers; aggregation is
deterministic regardless of completion order.
"""

from __future__ import annotations

from dataclasses import asdict, replace
from functools import lru_cache
from itertools import chain

import numpy as np

from . import __version__
from .artifact import _sampler_block
from .errors import ConfigError, require_seed
from .evaluation import net_benefit, paired_delta
from .model_core import VAGUE_PRIOR_SD, DistanceFunction, TargetThreshold, compute_weights
from .predict import predictive_mean
from .sampler import SamplerConfig
from .simulation import STUDY_PARAMETER, optimal_nb, study
from .tuning import (DEFAULT_DESIGN_FRACTION, DEFAULT_K_FOLDS, DEFAULT_LAMBDA_GRID, cv_select_lambdas, first_stage,
                     fit_pipeline, fit_standard, map_jobs)

__all__ = ["FIGURES", "FULL_SCALE_REPETITIONS", "reproduce_figure"]

FULL_SCALE_REPETITIONS = 20
DEFAULT_SCALE = 1.0  # reproduce_figure's scale and seed, which the CLI shares
DEFAULT_SEED = 0
TEST_SET_SIZE = 2000

# Shorter chains than the library defaults keep a full figure grid at
# desk scale; both stay comfortably past burn-in for these two-covariate
# posteriors.  The CV chains differ from FINAL_SAMPLER only in length.
FINAL_SAMPLER = SamplerConfig(n_iterations=8000, burn_in=3000, initial_sd=0.15)
CV_CHAIN = (3000, 1200)

_T_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)
# figure id -> (study, default grid); the grid's keys are the cell's keys in order
FIGURES = {
    "sim1-fig2": ("sim1", {"n": (500, 1000, 5000, 10000), "q": (0.1, 0.5, 1.0), "t": _T_GRID}),
    "sim2-fig4": ("sim2", {"n": (500, 1000, 5000, 10000), "prevalence": (0.1, 0.3, 0.5), "t": _T_GRID}),
    "sim3-fig6": ("sim3", {
        "n": (1000,),
        "psi": (0.0, 0.05, 0.10, 0.15, 0.20, 0.30),
        "t": (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
    }),
}


def _cells(figure: str, overrides: dict) -> list[dict]:
    base = FIGURES[figure][1]
    unknown = sorted(set(overrides) - set(base))
    if unknown:
        raise ConfigError(f"{figure} varies only {list(base)}, so it takes no override of {unknown}")
    grid = {key: tuple(overrides.get(key, vals)) for key, vals in base.items()}
    for key, vals in grid.items():
        if len(set(vals)) < len(vals):
            raise ConfigError(f"override {key!r} repeats a value: {list(vals)}")
    cells = [{}]
    for key in grid:
        cells = [dict(c, **{key: v}) for c in cells for v in grid[key]]
    for cell in cells:  # building each cell's configs checks its values before any fit
        _sim_configs(figure, cell, 0, 0)
        TargetThreshold(cell["t"])
    return cells


def _sim_configs(figure: str, cell: dict, train_seed: int, test_seed: int) -> tuple:
    """The cell's generator with its training and test configs; sim3's test set is uncontaminated."""
    name = FIGURES[figure][0]
    param = cell[STUDY_PARAMETER[name]]
    generate, train_config = study(name, cell["n"], train_seed, param)
    test_config = study(name, TEST_SET_SIZE, test_seed, 0.0 if name == "sim3" else param)[1]
    return generate, train_config, test_config


def _without_t(cell: dict) -> tuple:
    return tuple(sorted((k, v) for k, v in cell.items() if k != "t"))


@lru_cache(maxsize=1)
def _repetition(figure: str, cell: tuple, rep: int, base_seed: int, lambda_grid: tuple, thresholds: tuple) -> tuple:
    """What repetition ``rep`` of a cell shares at its ``thresholds``: seeds, data, first stage, baseline and CV.

    ``cell`` holds the cell's (key, value) pairs but t's, sorted by key, and
    the CV maps each t to its (lam*, cv_table).  The cache keeps one
    repetition, which :func:`_rep_worker` reuses for its next threshold; its
    arrays are read-only.
    """
    text = ",".join(f"{k}={v!r}" for k, v in cell)
    seeds = np.random.SeedSequence([int(base_seed), *text.encode(), rep]).generate_state(3)
    train_seed, test_seed, fit_seed = (int(s) for s in seeds)
    generate, train_config, test_config = _sim_configs(figure, dict(cell), train_seed, test_seed)
    train = generate(train_config)[0]
    test, oracle = generate(test_config)[:2]

    config = replace(FINAL_SAMPLER, rng_seed=fit_seed)
    first = first_stage(train, lambda_grid=lambda_grid, sampler_config=config, cv_chain=CV_CHAIN)
    standard_probs = predictive_mean(test.covariates, fit_standard(train, config))
    for arr in (oracle, standard_probs):
        arr.setflags(write=False)
    cv = dict.fromkeys(thresholds)  # a one-value grid runs no CV
    grid = first.cv_plan.lambda_grid
    if len(grid) > 1:  # the weights fit_pipeline makes, under its default distance
        ts = [TargetThreshold(t) for t in thresholds]
        weights = [compute_weights(first.pi_u_development, t, grid) for t in ts]
        cv.update(zip(thresholds, cv_select_lambdas(first, weights, ts)))
    return (train_seed, test_seed, fit_seed), first, test, oracle, standard_probs, cv


def _rep_worker(payload: tuple) -> dict:
    """The raw row of one repetition at one threshold; ``thresholds``, all of the repetition's, share its CV."""
    figure, cell, rep, base_seed, lambda_grid, thresholds = payload
    seeds, first, test, oracle, standard_probs, cv = _repetition(
        figure, _without_t(cell), rep, base_seed, lambda_grid, thresholds
    )
    t = TargetThreshold(cell["t"])
    model = fit_pipeline(first, t, cv=cv[cell["t"]])
    tailored_probs = predictive_mean(test.covariates, model.samples)

    row = dict(cell)
    row.update(
        rep=rep,
        train_seed=seeds[0],
        test_seed=seeds[1],
        fit_seed=seeds[2],
        lambda_star=model.lambda_star,
        nb_tb=net_benefit(tailored_probs, test.outcomes, t).net_benefit,
        nb_sb=net_benefit(standard_probs, test.outcomes, t).net_benefit,
    )
    row["delta"] = row["nb_tb"] - row["nb_sb"]
    if figure == "sim3-fig6":
        row["nb_optimal"] = optimal_nb(oracle, test.outcomes, t).net_benefit
    return row


def _rep_group(payloads: list) -> list[dict]:
    """The rows of one repetition's thresholds, in one process so they share :func:`_repetition`."""
    return [_rep_worker(p) for p in payloads]


def reproduce_figure(
    figure: str,
    scale: float = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
    jobs: int = 1,
    lambda_grid=DEFAULT_LAMBDA_GRID,
    overrides: dict | None = None,
) -> dict:
    """Run one figure's grid; return its raw and aggregated rows, its ``tables`` and its ``manifest``.

    ``tables`` maps a file name to (header, rows); the manifest records every setting a row depends on.
    """
    if figure not in FIGURES:
        raise ConfigError(f"unknown figure id {figure!r}; choose from {tuple(FIGURES)}")
    if not (0.0 < scale <= 1.0):
        raise ConfigError("scale must lie in (0, 1]")
    require_seed(seed, "seed")
    overrides = {k: v for k, v in (overrides or {}).items() if v}  # None or an empty list overrides nothing
    reps = max(1, round(FULL_SCALE_REPETITIONS * scale))
    cells = _cells(figure, overrides)
    thresholds = tuple(dict.fromkeys(cell["t"] for cell in cells))  # every repetition runs at each t of the grid
    payloads = [(figure, cell, rep, seed, tuple(lambda_grid), thresholds) for cell in cells for rep in range(reps)]
    groups: dict[tuple, list[int]] = {}  # one task per repetition: the payload indices of its thresholds
    for i, (_, cell, rep, *_) in enumerate(payloads):
        groups.setdefault((_without_t(cell), rep), []).append(i)
    _repetition.cache_clear()  # no repetition carries over from an earlier call
    rows = map_jobs(_rep_group, [[payloads[i] for i in group] for group in groups.values()], jobs)
    by_index = dict(zip(chain.from_iterable(groups.values()), chain.from_iterable(rows)))
    raw = [by_index[i] for i in range(len(payloads))]

    aggregated = []
    for i, cell in enumerate(cells):
        rows = raw[i * reps : (i + 1) * reps]  # payloads are cell-major and map_jobs keeps their order
        nb_tb = [r["nb_tb"] for r in rows]
        nb_sb = [r["nb_sb"] for r in rows]
        agg = dict(cell)
        agg["repetitions"] = len(rows)
        agg["mean_nb_tb"] = float(np.mean(nb_tb))
        agg["mean_nb_sb"] = float(np.mean(nb_sb))
        if len(rows) >= 2:
            delta = paired_delta(nb_tb, nb_sb)
            agg["mean_delta"] = delta.mean_delta
            agg["se_delta"] = delta.se_delta
        else:
            agg["mean_delta"] = float(nb_tb[0] - nb_sb[0])
            agg["se_delta"] = float("nan")
        if figure == "sim3-fig6":
            agg["mean_nb_optimal"] = float(np.mean([r["nb_optimal"] for r in rows]))
        aggregated.append(agg)

    groups = [k for k in cells[0] if k != "t"]
    tables = {
        "nb_raw.csv": (list(raw[0]), [list(row.values()) for row in raw]),
        "delta_nb.csv": (groups + ["threshold", "mean_delta", "se_delta"],
                         [[agg[k] for k in groups + ["t", "mean_delta", "se_delta"]] for agg in aggregated]),
    }
    if figure == "sim3-fig6":
        summary = ["psi", "mean_nb_tb", "mean_nb_sb", "mean_nb_optimal", "mean_delta", "se_delta"]
        tables["nb_summary.csv"] = (["threshold"] + summary,
                                    [[agg["t"]] + [agg[k] for k in summary] for agg in aggregated])
    manifest = {
        "tool": "tailbayes",
        "version": __version__,
        "command": "reproduce",
        "figure": figure,
        "scale": scale,
        "repetitions": reps,
        "seed": seed,
        "lambda_grid": list(lambda_grid),
        "overrides": {k: list(v) for k, v in overrides.items()},
        # the settings every repetition's fits share besides the cell, the seed and the lambda grid
        "sampler": _sampler_block(FINAL_SAMPLER),
        "cv_chain": list(CV_CHAIN),
        "k_folds": DEFAULT_K_FOLDS,
        "design_fraction": DEFAULT_DESIGN_FRACTION,
        "distance": asdict(DistanceFunction()),
        "prior_sd": VAGUE_PRIOR_SD,
        "test_rows": TEST_SET_SIZE,
    }
    return {"repetitions": reps, "raw": raw, "aggregated": aggregated, "tables": tables, "manifest": manifest}
