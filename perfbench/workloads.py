"""The benchmark's workloads and the output check of each op.

Every workload makes its inputs from the workload seed, so the program sees
only generated datasets and CSV files.  ``op(index)`` is the timed work;
``check`` runs outside the timed region and turns an op's output into one
``OpRecord`` per op (a ``reproduce_pool`` call yields one per repetition row).
Index 0 is the untimed warm-up op.

Why these two:

* ``cli_10k``: ``tailbayes fit`` with no CV plus ``tailbayes predict`` on 10k-row
  CSVs.  It bypasses CV and stresses the large-n log-posterior, n x S
  prediction, CSV I/O and the CLI itself.
* ``reproduce_pool``: criterion 5's contamination cell in two pool workers.
  Every repetition is a desk-scale ``fit_pipeline`` (n = 1000, stratified CV
  over the full lambda grid: the paper's tuning hot path) plus a baseline fit,
  test-set prediction and net benefit.  The pipelines run side by side, so a
  change that speeds one fit and costs parallel throughput shows here.

A serial in-process ``fit_pipeline`` loop is not a workload of its own: on a
shared two-vCPU host the middle half of ten 15-second runs spread over 22-27%
of their median op time, more than a run that fits the time budget can
average away.  The same fit is measured inside every ``reproduce_pool``
repetition.
"""

from __future__ import annotations

import csv
import os
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from resource import RUSAGE_CHILDREN, RUSAGE_SELF

import numpy as np
from scipy.special import expit

import tailbayes as tb
from tailbayes import dataio, reproduce

from perfbench.tracing import TRACER, cpu_seconds

THRESHOLD = 0.3
ACCEPTANCE_RANGE = (0.15, 0.35)
CRITERION5_NB_TOLERANCE = 0.03
PREDICTION_ATOL = 1e-12
CHECK_CHUNK_ROWS = 1000


@dataclass
class OpRecord:
    wall_s: float
    ok: bool
    note: str = ""


def derive_seed(*keys: int) -> int:
    """Independent 32-bit seed for each (workload seed, stream, index) key."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


def run_op(workload, index: int, traced: bool) -> tuple[list[OpRecord], float, float]:
    """Run one op, traced if asked, then check it: (records, wall s, CPU s).

    CPU is that of the processes ``workload.rusage`` names.  An op that
    raises, or whose check raises, is one failed record.
    """
    cpu0 = sum(cpu_seconds(who) for who in workload.rusage)
    t0 = time.perf_counter()
    TRACER.enabled = traced
    try:
        output = workload.op(index)
    except Exception:  # a failing op is counted, not fatal
        output = None
        error = traceback.format_exc(limit=-3)
    finally:
        TRACER.enabled = False
    wall = time.perf_counter() - t0
    cpu = sum(cpu_seconds(who) for who in workload.rusage) - cpu0
    if output is None:
        return [OpRecord(wall, False, error)], wall, cpu
    try:
        return workload.check(index, output, wall), wall, cpu
    except Exception:
        return [OpRecord(wall, False, traceback.format_exc(limit=-3))], wall, cpu


class Workload:
    name: str
    rusage: tuple[int, ...]  # whose CPU and peak RSS count as the program's
    records_are_reps = False
    warm_ups = 1  # untimed warm-up ops of an untraced run; set-up takes their median

    def make_inputs(self) -> None:
        """Build the inputs from the seed (timed as set-up, repeated)."""


class Cli10k(Workload):
    name = "cli_10k"
    rusage = (RUSAGE_CHILDREN,)

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.train_csv = work / "train.csv"
        self.new_csv = work / "new.csv"
        self.env = dict(os.environ)
        src = str(Path(tb.__file__).resolve().parents[1])
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        self.traced_cli = str(Path(__file__).with_name("tracecli.py"))

    def make_inputs(self) -> None:
        for key, path in enumerate((self.train_csv, self.new_csv)):
            data, _ = tb.generate_sim1(tb.Sim1Config(n=10_000, q=1.0, seed=derive_seed(self.seed, 0, key)))
            dataio.write_simulated_csv(path, data)

    def _cli(self, args: list) -> subprocess.CompletedProcess:
        launcher = [self.traced_cli] if TRACER.enabled else ["-m", "tailbayes.cli"]
        return subprocess.run(
            [sys.executable, *launcher, *map(str, args)],
            cwd=self.work,
            env=self.env,
            capture_output=True,
            text=True,
            check=False,
        )

    def op(self, index: int):
        out = self.work / f"model-{index}"
        seed = derive_seed(self.seed, 1, index)
        fit = self._cli(
            ["fit", self.train_csv, "--t", THRESHOLD, "--lambda-grid", "0", "--seed", seed, "--out", out]
        )
        if fit.returncode != 0:
            return out, fit
        return out, self._cli(
            ["predict", "--model", out, "--data", self.new_csv, "--out", out / "predictions.csv"]
        )

    def check(self, index: int, output, wall_s: float) -> list[OpRecord]:
        out, proc = output
        try:
            if proc.returncode != 0:
                return [OpRecord(wall_s, False, f"exit {proc.returncode}: {proc.stderr[-300:]}")]
            return [OpRecord(wall_s, *self._predictions_match(out))]
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _predictions_match(self, out: Path) -> tuple[bool, str]:
        """predictions.csv must hold the predictive mean and sd of the saved draws.csv.

        The expected values are computed here, independently of
        ``predictive_mean_sd``, over the distinct draws weighted by their
        multiplicity.  That is the same mean and sd as over all draws, at
        about a quarter of the cost, because a random-walk chain repeats
        every rejected draw.
        """
        header, draws = dataio.read_draws_csv(out / "draws.csv")
        distinct, counts = np.unique(draws, axis=0, return_counts=True)
        weights = counts / draws.shape[0]
        raw_x, _ = dataio.read_covariates_csv(self.new_csv, header[1:])
        x = np.hstack([np.ones((raw_x.shape[0], 1)), raw_x])
        expected = np.empty((x.shape[0], 2))
        for i in range(0, x.shape[0], CHECK_CHUNK_ROWS):  # row chunks keep memory small
            probs = expit(x[i : i + CHECK_CHUNK_ROWS] @ distinct.T)
            mean = probs @ weights
            expected[i : i + CHECK_CHUNK_ROWS, 0] = mean
            expected[i : i + CHECK_CHUNK_ROWS, 1] = np.sqrt(((probs - mean[:, None]) ** 2) @ weights)
        with open(out / "predictions.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        got = np.array([[float(r["mean_probability"]), float(r["predictive_sd"])] for r in rows])
        if got.shape != expected.shape:
            return False, f"{got.shape[0]} predictions for {expected.shape[0]} rows"
        if not (np.all(np.isfinite(got)) and np.all((got[:, 0] >= 0.0) & (got[:, 0] <= 1.0))):
            return False, "a probability is non-finite or outside [0, 1]"
        if not np.allclose(got, expected, rtol=0.0, atol=PREDICTION_ATOL):
            return False, "predictions.csv differs from the predictive mean and sd of draws.csv"
        return True, ""


# Keys under which the pool task wrapper returns a repetition's wall time and
# the post-burn-in acceptance of its tailored fit.
REP_WALL_KEY = "perfbench_rep_wall_s"
REP_ACCEPTANCE_KEY = "perfbench_acceptance"
_package_rep_worker = None
_package_fit_pipeline = None
_last_acceptance = None


def recording_fit_pipeline(*args, **kwargs):
    """``fit_pipeline`` as ``reproduce`` calls it, noting the final chain's acceptance."""
    global _last_acceptance
    model = _package_fit_pipeline(*args, **kwargs)
    _last_acceptance = model.samples.acceptance_rate
    return model


def timed_rep_worker(payload: tuple) -> dict:
    """Pool task: the package's repetition worker, timed (and traced) from outside.

    Module-level so the pool can pickle it by name.
    """
    cpu0 = cpu_seconds(RUSAGE_SELF)
    t0 = time.perf_counter()
    if TRACER.enabled:
        with TRACER.span("reproduce.rep") as attrs:
            row = _package_rep_worker(payload)
            attrs["cpu_s"] = cpu_seconds(RUSAGE_SELF) - cpu0
    else:
        row = _package_rep_worker(payload)
    return dict(row, **{REP_WALL_KEY: time.perf_counter() - t0, REP_ACCEPTANCE_KEY: _last_acceptance})


class ReproducePool(Workload):
    name = "reproduce_pool"
    rusage = (RUSAGE_SELF, RUSAGE_CHILDREN)
    records_are_reps = True
    # A warm-up is one in-process repetition, about a twentieth of an op, so
    # three of them steady setup_s at little cost.
    warm_ups = 3
    jobs = 2
    # Criterion 5's cell at its own scale: five repetitions per threshold,
    # enough for its tolerances on the cell means to hold reliably.
    scale = 0.25
    overrides = {"n": (1000,), "psi": (0.10,), "t": (0.2, 0.3, 0.4)}

    def __init__(self, seed: int, work: Path):
        global _package_rep_worker, _package_fit_pipeline
        self.seed = seed
        self.reference_row = None  # the warm-up's repetition, once checked
        if _package_rep_worker is None:
            _package_rep_worker = reproduce._rep_worker
            reproduce._rep_worker = timed_rep_worker
            _package_fit_pipeline = reproduce.fit_pipeline
            reproduce.fit_pipeline = recording_fit_pipeline

    def op(self, index: int):
        if index == 0:
            # Warm-up: repetition 0 of op 1's t = 0.3 cell with op 1's seed, in process.
            return reproduce.reproduce_figure(
                "sim3-fig6",
                scale=0.05,
                seed=derive_seed(self.seed, 1, 1),
                jobs=1,
                overrides=dict(self.overrides, t=(0.3,)),
            )
        return reproduce.reproduce_figure(
            "sim3-fig6",
            scale=self.scale,
            seed=derive_seed(self.seed, 1, index),
            jobs=self.jobs,
            overrides=self.overrides,
        )

    def check(self, index: int, result, wall_s: float) -> list[OpRecord]:
        """Check each repetition row; a row fails with its cell or on its own.

        Every row's lambda* must be in the grid and its tailored fit's
        post-burn-in acceptance in ``ACCEPTANCE_RANGE``.  Each cell's means
        must meet criterion 5's tolerances; a warm-up's single repetition has
        no such claim.  Warm-ups repeat one seed in process, and op 1 re-runs
        it in a pool worker, so its row for the warm-up's repetition and every
        warm-up's row must equal the first warm-up's row exactly.
        """
        rows = result["raw"]
        walls = [row.pop(REP_WALL_KEY) for row in rows]
        notes = [[] for _ in rows]
        for row, note in zip(rows, notes):
            if row["lambda_star"] not in tb.DEFAULT_LAMBDA_GRID:
                note.append(f"lambda* {row['lambda_star']} not in the grid")
            acceptance = row.pop(REP_ACCEPTANCE_KEY)
            if not ACCEPTANCE_RANGE[0] <= acceptance <= ACCEPTANCE_RANGE[1]:
                note.append(f"post-burn-in acceptance {acceptance:.3f} outside {ACCEPTANCE_RANGE}")
        if index == 0:
            if self.reference_row not in (None, rows[0]):
                notes[0].append(f"re-running the warm-up gave {rows[0]}, not {self.reference_row}")
            self.reference_row = rows[0]
        for agg in result["aggregated"] if index > 0 else ():
            cell_notes = []
            if not agg["mean_nb_tb"] >= agg["mean_nb_sb"]:
                cell_notes.append(f"mean nb_tb {agg['mean_nb_tb']:.4f} < mean nb_sb {agg['mean_nb_sb']:.4f}")
            gap = abs(agg["mean_nb_optimal"] - agg["mean_nb_tb"])
            if gap > CRITERION5_NB_TOLERANCE:
                cell_notes.append(f"|mean nb_opt - mean nb_tb| = {gap:.4f}")
            for row, note in zip(rows, notes):
                if row["t"] == agg["t"]:
                    note.extend(f"t={agg['t']}: {n}" for n in cell_notes)
        if index == 1 and self.reference_row is not None:
            ref = self.reference_row
            for row, note in zip(rows, notes):
                if (row["t"], row["rep"]) == (ref["t"], ref["rep"]) and row != ref:
                    note.append(f"re-running the warm-up's seed gave {row}, not {ref}")
        return [OpRecord(wall, not note, "; ".join(note)) for wall, note in zip(walls, notes)]


WORKLOADS = {w.name: w for w in (Cli10k, ReproducePool)}
