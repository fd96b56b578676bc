"""Time the MH sampler layer of two source trees, alternating, and hash what it produced.

    python tools/mh_bench.py --src path/to/parent/src --src path/to/change/src [--pairs 15]

runs six cases:

- ``C=8``: ``tailbayes.tuning.fit_folds`` on one fold with eight lambda
  chains, n = 640, 3000 iterations (1200 burn-in), the size of one CV
  fold of ``reproduce``;
- ``C=1``: ``fit_folds`` on one fold with one prefetched chain, n = 200,
  8000 iterations (3000 burn-in), as stage 1 and the final fit of
  ``reproduce`` run it;
- ``CV``: ``tailbayes.tuning.cv_select_lambda`` over K = 5 folds and the
  8-value default grid, n = 880, 3000 iterations (1200 burn-in), in
  process (``jobs=1``): the 40 CV chains of one ``reproduce`` repetition, plus their
  predictions and Net Benefit.  It passes the grid's weight matrix, built
  by the tree's own ``compute_weights``, and the vague prior inside a
  ``FirstStage``;
- ``CV1`` and ``CV2``: ``fit_folds`` on 5 and on 10 folds stacked in one
  call, each fold with its own rows (n = 640) and seed and eight lambda
  chains, 3000 iterations (1200 burn-in): the CV chains of one
  ``reproduce`` repetition, and those of two repetitions run together.
- ``CV3``: the CV of ``CV`` at t = 0.2, 0.3 and 0.4 on one first stage,
  as one ``reproduce`` repetition of three thresholds runs it: one
  ``tailbayes.tuning.cv_select_lambdas`` call (one stack per fold, the
  lambda = 0 chain once).

Both trees are imported into one process, each under its own copy of the
``tailbayes`` modules, and run the same inputs.  After one untimed run
each, the trees take turns, and which goes first alternates from pair to
pair, so a pair's two runs are a fraction of a second apart and drift of
a shared host's speed cancels within it.  A run is timed in CPU time
(``time.process_time``), which other processes disturb less than wall
time.  The script prints, per case, each tree's median and quartiles in
microseconds per iteration, the median over pairs of the second tree's
time as a ratio of the first's, and per tree its sha256 hashes: for
``C=8`` and ``C=1`` a ``chains`` hash over every chain's draws,
``accepted`` flags, proposal-sd trace and non-finite count, and an
``lp`` hash over every chain's ``log_posterior_trace``; for ``CV`` and
``CV3`` a ``cv`` hash over each threshold's lambda* and the bits of every
cell's Net Benefit.
Equal hashes mean the two trees give bit for bit the same results, and
equal ``chains`` with unequal ``lp`` hashes mean the same chains whose
stored log-posterior values moved in the last bits.  Outside the test
suite: the times depend on the host.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import statistics
import sys
import time
from pathlib import Path

import numpy as np

CASES = {
    "C=8": {"chains": 8, "n": 640, "iterations": 3000, "burn_in": 1200},
    "C=1": {"chains": 1, "n": 200, "iterations": 8000, "burn_in": 3000},
    "CV": {"chains": 8, "n": 880, "iterations": 3000, "burn_in": 1200, "folds": 5},
    "CV1": {"chains": 8, "n": 640, "iterations": 3000, "burn_in": 1200, "groups": 5},
    "CV2": {"chains": 8, "n": 640, "iterations": 3000, "burn_in": 1200, "groups": 10},
    "CV3": {"chains": 8, "n": 880, "iterations": 3000, "burn_in": 1200, "folds": 5, "thresholds": (0.2, 0.3, 0.4)},
}


def load_tree(src: Path) -> dict:
    """The ``tailbayes`` package under ``src`` as a private set of module objects."""
    ours = lambda name: name == "tailbayes" or name.startswith("tailbayes.")  # noqa: E731
    for name in [n for n in sys.modules if ours(n)]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        modules = {name: importlib.import_module(f"tailbayes.{name}") for name in ("model_core", "sampler", "tuning")}
    finally:
        sys.path.remove(str(src))
        for name in [n for n in sys.modules if ours(n)]:
            del sys.modules[name]
    return modules


def make_inputs(tree: dict, case: dict) -> tuple:
    rng = np.random.default_rng(20211)
    n = case["n"]
    core, sampler, tuning = tree["model_core"], tree["sampler"], tree["tuning"]
    config = sampler.SamplerConfig(n_iterations=case["iterations"], burn_in=case["burn_in"], initial_sd=0.15, rng_seed=31)
    rows = []  # (data, pi_u) of each group
    for _ in range(case.get("groups", 1)):
        x = rng.standard_normal((n, 2))
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(x @ [1.0, -0.5] - 0.4)))).astype(float)
        rows.append((core.Dataset.from_raw(x, y), 1.0 / (1.0 + np.exp(-(x @ [0.8, -0.4] - 0.3)))))
    if "folds" in case:
        ((data, pi_u),) = rows
        plan = tuning.make_cv_plan(data.outcomes, k=case["folds"], lambda_grid=tuning.DEFAULT_LAMBDA_GRID, seed=31)
        thresholds = [core.TargetThreshold(t) for t in case.get("thresholds", (0.3,))]
        weights = [core.compute_weights(pi_u, t, plan.lambda_grid) for t in thresholds]
        prior = core.GaussianPrior.vague(data.n_coefficients)
        split = tuning.make_split(n, 0.0, config.rng_seed)
        first = tuning.FirstStage(split, data, plan, config, config, prior, None, pi_u, 1)
        if "thresholds" in case:
            return first, weights, thresholds
        return first, weights[0], thresholds[0]
    lams = [0.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0][: case["chains"]]
    weights = [np.exp(-np.outer(lams, (pi_u - 0.3) ** 2)) for _, pi_u in rows]
    seeds = [config.rng_seed + g for g in range(len(rows))]
    return ([data for data, _ in rows], weights, core.GaussianPrior.vague(3), config, seeds)


def digest(result) -> tuple:
    """(name, sha256) pairs: ``cv`` for (lambda*, table) results, one per threshold, else ``chains`` and ``lp``."""
    if isinstance(result, tuple):  # cv_select_lambda: (lambda*, table)
        result = [result]
    if isinstance(result[0], tuple):
        values = np.array([v for lam, table in result
                           for v in [lam] + [np.nan if row["nb"] is None else row["nb"] for row in table]])
        return (("cv", hashlib.sha256(values.tobytes()).hexdigest()),)
    chains, lp = hashlib.sha256(), hashlib.sha256()
    for chain in (chain for fold in result for chain in fold):
        for part in (chain.draws, chain.accepted, chain.proposal_sd_trace):
            chains.update(np.ascontiguousarray(part).tobytes())
        chains.update(str(chain.n_nonfinite_proposals).encode())
        lp.update(np.ascontiguousarray(chain.log_posterior_trace).tobytes())
    return ("chains", chains.hexdigest()), ("lp", lp.hexdigest())


def timed_run(tree: dict, inputs: tuple, iterations: int) -> tuple[float, tuple]:
    tuning = tree["tuning"]
    if isinstance(inputs[0], list):
        run = tuning.fit_folds
    elif not isinstance(inputs[1], list):
        run = tuning.cv_select_lambda
    else:  # several thresholds, one stacked call
        run = tuning.cv_select_lambdas
    start = time.process_time()
    result = run(*inputs)
    return (time.process_time() - start) / iterations * 1e6, digest(result)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", required=True,
                        help="directory holding a tailbayes package; give it twice, parent first")
    parser.add_argument("--pairs", type=int, default=15, help="timed pairs of runs per case")
    args = parser.parse_args(argv)
    srcs = [Path(s).resolve() for s in args.src]
    if len(srcs) != 2:
        parser.error("give --src exactly twice")
    for src in srcs:
        if not (src / "tailbayes" / "sampler.py").is_file():
            parser.error(f"{src} holds no tailbayes package")
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    trees = [load_tree(src) for src in srcs]

    for name, case in CASES.items():
        inputs = [make_inputs(tree, case) for tree in trees]
        hashes = [{timed_run(tree, inp, case["iterations"])[1]} for tree, inp in zip(trees, inputs)]
        times = [[], []]
        for pair in range(args.pairs):
            for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
                us, sha = timed_run(trees[side], inputs[side], case["iterations"])
                times[side].append(us)
                hashes[side].add(sha)
        for side in (0, 1):
            q1, q2, q3 = statistics.quantiles(times[side], n=4, method="inclusive")
            shas = " ".join(f"{key} {sha}" for run in sorted(hashes[side]) for key, sha in run)
            print(f"{name} {srcs[side]}: median {q2:.1f} us/iter (quartiles {q1:.1f}, {q3:.1f}; "
                  f"{args.pairs} runs) sha256 {shas}")
        ratio = statistics.median(b / a for a, b in zip(*times))
        wins = sum(b < a for a, b in zip(*times))
        keys = [key for key, _ in next(iter(hashes[0]))]
        seen = [{key: {dict(run)[key] for run in hashes[side]} for key in keys} for side in (0, 1)]
        verdicts = ", ".join(
            f"{key} {'identical' if len(seen[0][key]) == 1 and seen[0][key] == seen[1][key] else 'DIFFER'}"
            for key in keys
        )
        print(f"{name} ratio {ratio:.3f} (median over pairs; second tree faster in {wins} of {args.pairs}); {verdicts}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
