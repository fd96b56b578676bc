"""Digest every output of a fixed set of small CLI runs, for byte-identity checks.

    python tools/output_digest.py --src path/to/src --work path/to/empty-dir

runs the ``tailbayes`` CLI from the package under ``--src`` (put first on
``PYTHONPATH``) through a fixed list of small invocations inside
``--work``, which must be empty or absent.  Every subcommand runs, plus
the usage and data errors that guard the inputs.  Each invocation's
stdout, stderr and exit code are saved next to its outputs, and the
script prints ``sha256  relative/path`` for every file in ``--work``.
To compare two source trees, run it once per tree into two work
directories and ``diff`` the two listings.

A full run takes about 10 s on two cores.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

FAST = ["--iterations", "1500", "--burn-in", "600", "--cv-iterations", "800", "--cv-burn-in", "300"]
REPRODUCE = ["reproduce", "--figure", "sim3-fig6", "--scale", "0.1", "--seed", "1",
             "--lambda-grid", "0,10", "--psi-list", "0.1"]
# manifest fields that each make a copy of the fit_std artifact malformed
MALFORMED_MANIFEST = {
    "std_no_sds": {"standardize": {"means": [0.0, 0.0]}},
    "std_one_value": {"standardize": {"means": [0.0], "sds": [1.0]}},
    "std_zero_sd": {"standardize": {"means": [0.0, 0.0], "sds": [0.0, 1.0]}},
    "threshold_1_5": {"threshold": 1.5},
}

# (name, argv); a name starting with "copy:" instead copies the fit_std
# artifact into a new directory whose manifest has the fields of MALFORMED_MANIFEST[name].
RUNS = [
    ("sim1_oracle", ["simulate", "--study", "sim1", "--n", "300", "--seed", "3",
                     "--with-oracle", "--out", "sim1_oracle.csv"]),
    ("sim1_oracle_b", ["simulate", "--study", "sim1", "--n", "300", "--seed", "4",
                       "--with-oracle", "--out", "sim1_oracle_b.csv"]),
    ("sim2", ["simulate", "--study", "sim2", "--n", "120", "--prevalence", "0.3", "--seed", "5",
              "--out", "sim2.csv"]),
    ("sim3_oracle", ["simulate", "--study", "sim3", "--n", "200", "--psi", "0.1", "--seed", "6",
                     "--with-oracle", "--out", "sim3_oracle.csv"]),
    ("train", ["simulate", "--study", "sim1", "--n", "300", "--seed", "7", "--out", "train.csv"]),
    ("test_a", ["simulate", "--study", "sim1", "--n", "200", "--seed", "8", "--out", "test_a.csv"]),
    ("test_b", ["simulate", "--study", "sim1", "--n", "200", "--seed", "9", "--out", "test_b.csv"]),
    ("fit_std", ["fit", "train.csv", "--t", "0.3", "--lambda-grid", "0,5,25", "--jobs", "2",
                 "--standardize", "--rhat-chains", "3", "--seed", "11", "--out", "fit_std", *FAST]),
    # the default 8-value lambda grid, serial and with more workers than its 5 CV folds
    *[(f"fit_grid_jobs{jobs}", ["fit", "train.csv", "--t", "0.3", "--jobs", str(jobs), "--seed", "14",
                                "--out", f"fit_grid_jobs{jobs}", *FAST]) for jobs in (1, 3)],
    ("fit_zero", ["fit", "train.csv", "--t", "0.3", "--lambda-grid", "0", "--seed", "12",
                  "--out", "fit_zero", *FAST]),
    # more CV folds than the 240 development rows of train.csv: a data error raised before any chain runs
    ("fit_zero_many_folds", ["fit", "train.csv", "--t", "0.3", "--lambda-grid", "0", "--k-folds", "1000",
                             "--seed", "12", "--out", "fit_zero_many_folds", *FAST]),
    # no design rows and no --pi-u-file: a usage error raised before any chain runs
    ("fit_design_fraction_zero", ["fit", "train.csv", "--t", "0.3", "--design-fraction", "0", "--seed", "12",
                                  "--out", "fit_design_fraction_zero", *FAST]),
    ("fit_external", ["fit", "train.csv", "--utilities", "9,0,0,1", "--pi-u-file", "pi_u.csv",
                      "--distance", "epsilon-insensitive", "--epsilon", "0.05",
                      "--lambda-grid", "0,10", "--jobs", "1", "--seed", "13",
                      "--out", "fit_external", *FAST]),
    # a one-value grid on external probabilities: no stage 1 and no CV chain ran, one R-hat rerun did
    ("fit_zero_external_rhat", ["fit", "train.csv", "--t", "0.3", "--pi-u-file", "pi_u.csv", "--lambda-grid", "0",
                                "--rhat-chains", "2", "--jobs", "1", "--seed", "15",
                                "--out", "fit_zero_external_rhat", *FAST]),
    ("predict_std", ["predict", "--model", "fit_std", "--data", "test_a.csv",
                     "--out", "predict_std.csv"]),
    ("predict_zero", ["predict", "--model", "fit_zero", "--data", "test_a.csv",
                      "--out", "predict_zero.csv"]),
    # unstandardised covariates near +-1e3: the linear predictor saturates the logistic
    ("predict_saturated", ["predict", "--model", "fit_zero", "--data", "saturated.csv",
                           "--out", "predict_saturated.csv"]),
    ("evaluate_models", ["evaluate", "--model-a", "fit_std", "--model-b", "fit_zero",
                         "--data", "test_a.csv", "--data", "test_b.csv",
                         "--thresholds", "0.2,0.3", "--out", "evaluate_models"]),
    ("evaluate_scored_one", ["evaluate", "--scored-a", "sim1_oracle.csv",
                             "--prob-col", "true_probability", "--thresholds", "0.1:0.5:0.1",
                             "--out", "evaluate_scored_one"]),
    ("evaluate_scored_paired", ["evaluate", "--scored-a", "sim1_oracle.csv",
                                "--scored-a", "sim1_oracle_b.csv", "--scored-b", "sim1_oracle_b.csv",
                                "--scored-b", "sim1_oracle.csv", "--prob-col", "true_probability",
                                "--label-a", "a", "--label-b", "b", "--thresholds", "0.3,0.3",
                                "--out", "evaluate_scored_paired"]),
    ("evaluate_scored_unpaired", ["evaluate", "--scored-a", "sim1_oracle.csv",
                                  "--scored-b", "sim1_oracle.csv", "--prob-col", "true_probability",
                                  "--thresholds", "0.3", "--out", "evaluate_scored_unpaired"]),
    # a label for model B with no model B: a usage error raised before any file is read
    ("evaluate_label_b_without_b", ["evaluate", "--scored-a", "sim1_oracle.csv", "--prob-col", "true_probability",
                                    "--label-b", "b", "--thresholds", "0.3", "--out", "evaluate_label_b_without_b"]),
    ("reproduce", [*REPRODUCE, "--n-list", "200", "--t-list", "0.3", "--jobs", "2",
                   "--out", "reproduce"]),
    ("reproduce_repeated_t", [*REPRODUCE, "--n-list", "200", "--t-list", "0.3,0.3", "--jobs", "1",
                              "--out", "reproduce_repeated_t"]),
    ("reproduce_fractional_n", [*REPRODUCE, "--n-list", "200.5", "--t-list", "0.3", "--jobs", "1",
                                "--out", "reproduce_fractional_n"]),
    ("ess_grid", ["ess-grid", "--pi-u-file", "pi_u.csv", "--t", "0.3", "--lambda-grid", "0,5,50,200",
                  "--out", "ess_grid.csv"]),
    ("ess_grid_nan_epsilon", ["ess-grid", "--pi-u-file", "pi_u.csv", "--t", "0.3",
                              "--distance", "epsilon-insensitive", "--epsilon", "nan",
                              "--out", "ess_grid_nan_epsilon"]),
    ("fit_nan_epsilon", ["fit", "train.csv", "--t", "0.3", "--distance", "epsilon-insensitive",
                         "--epsilon", "nan", "--lambda-grid", "0,10", "--jobs", "1", "--seed", "13",
                         "--out", "fit_nan_epsilon", *FAST]),
    # non-finite values a usage error must stop: an epsilon that JSON cannot hold, and a q whose oracle is nan
    ("ess_grid_epsilon_inf", ["ess-grid", "--pi-u-file", "pi_u.csv", "--t", "0.3",
                              "--distance", "epsilon-insensitive", "--epsilon", "inf",
                              "--out", "ess_grid_epsilon_inf"]),
    ("fit_epsilon_inf", ["fit", "train.csv", "--t", "0.3", "--distance", "epsilon-insensitive",
                         "--epsilon", "inf", "--lambda-grid", "0,10", "--jobs", "1", "--seed", "13",
                         "--out", "fit_epsilon_inf", *FAST]),
    ("simulate_q_inf", ["simulate", "--study", "sim1", "--n", "5", "--q", "inf", "--with-oracle",
                        "--out", "simulate_q_inf.csv"]),
    ("reproduce_q_inf", ["reproduce", "--figure", "sim1-fig2", "--scale", "0.05", "--seed", "1",
                         "--lambda-grid", "0,10", "--n-list", "200", "--q-list", "inf", "--t-list", "0.3",
                         "--jobs", "1", "--out", "reproduce_q_inf"]),
    # an epsilon the squared distance does not take, and an n whose design matrix exceeds physical memory
    ("ess_grid_squared_epsilon", ["ess-grid", "--pi-u-file", "pi_u.csv", "--t", "0.3", "--distance", "squared",
                                  "--epsilon", "0.5", "--out", "ess_grid_squared_epsilon"]),
    ("fit_squared_epsilon", ["fit", "train.csv", "--t", "0.3", "--distance", "squared", "--epsilon", "0.5",
                             "--out", "fit_squared_epsilon", *FAST]),
    ("simulate_huge_n", ["simulate", "--study", "sim1", "--n", "10000000000000", "--out", "simulate_huge_n.csv"]),
    ("reproduce_huge_n", [*REPRODUCE, "--n-list", "1e12", "--t-list", "0.3", "--jobs", "1",
                          "--out", "reproduce_huge_n"]),
    # seeds outside [0, 2^64) are usage errors; the largest seed's derived CV and R-hat seeds wrap below 2^64
    ("simulate_negative_seed", ["simulate", "--study", "sim1", "--n", "50", "--seed", "-1",
                                "--out", "simulate_negative_seed.csv"]),
    ("reproduce_negative_seed", ["reproduce", "--figure", "sim3-fig6", "--scale", "0.1", "--seed", "-1",
                                 "--lambda-grid", "0,10", "--psi-list", "0.1", "--n-list", "200", "--t-list", "0.3",
                                 "--jobs", "1", "--out", "reproduce_negative_seed"]),
    ("fit_max_seed_rhat", ["fit", "train.csv", "--t", "0.3", "--lambda-grid", "0,5", "--rhat-chains", "2",
                           "--jobs", "1", "--seed", str(2**64 - 1), "--out", "fit_max_seed_rhat", *FAST]),
    # a directory as the config file, and an existing file (train.csv, hashed below) as --out
    ("fit_config_dir", ["fit", "train.csv", "--config", "fit_zero", "--out", "fit_config_dir"]),
    # two config files, neither of which exists: a usage error raised before either is read
    ("fit_config_twice", ["fit", "train.csv", "--config=missing_b.cfg", "--config", "missing_a.cfg",
                          "--out", "fit_config_twice"]),
    # an abbreviation of --config, and a config file naming another one: usage errors raised before any fit
    ("fit_config_abbreviated", ["fit", "train.csv", "--conf", "missing_a.cfg", "--t", "0.3", "--lambda-grid", "0",
                                "--out", "fit_config_abbreviated", *FAST]),
    ("fit_config_nested", ["fit", "train.csv", "--config", "nested.cfg", "--out", "fit_config_nested", *FAST]),
    # a config key that is not a fit flag, and --config given to a command without one: usage errors, no file read
    ("fit_config_unknown_key", ["fit", "missing.csv", "--config", "unknown_key.cfg",
                                "--out", "fit_config_unknown_key"]),
    ("predict_config", ["predict", "--config", "missing.cfg", "--model", "fit_zero", "--data", "test_a.csv",
                        "--out", "predict_config.csv"]),
    # no threshold, and three utilities, with a data file that does not exist: the usage error comes first
    ("fit_no_threshold", ["fit", "missing.csv", "--out", "fit_no_threshold"]),
    ("fit_three_utilities", ["fit", "missing.csv", "--utilities", "9,0,1", "--out", "fit_three_utilities"]),
    ("fit_out_file", ["fit", "train.csv", "--t", "0.3", "--lambda-grid", "0", "--seed", "12",
                      "--out", "train.csv", *FAST]),
    # a file --out that is an existing directory, or lies in a directory that does not exist
    ("predict_out_dir", ["predict", "--model", "fit_zero", "--data", "test_a.csv", "--out", "fit_zero"]),
    ("simulate_out_missing_dir", ["simulate", "--study", "sim1", "--n", "50", "--seed", "3",
                                  "--out", "no_such_dir/sim.csv"]),
    ("ess_grid_out_dir", ["ess-grid", "--pi-u-file", "pi_u.csv", "--t", "0.3", "--out", "fit_zero"]),
    *[(f"copy:{name}", []) for name in MALFORMED_MANIFEST],
    *[(f"predict_{name}", ["predict", "--model", name, "--data", "test_a.csv",
                           "--out", f"predict_{name}.csv"]) for name in MALFORMED_MANIFEST],
    # unreadable inputs: a directory as the data CSV, and a CSV holding a byte that is not UTF-8
    ("fit_data_dir", ["fit", "fit_zero", "--t", "0.3", "--out", "fit_data_dir"]),
    ("fit_not_utf8", ["fit", "not_utf8.csv", "--t", "0.3", "--out", "fit_not_utf8"]),
    ("predict_data_dir", ["predict", "--model", "fit_zero", "--data", "fit_zero",
                          "--out", "predict_data_dir.csv"]),
    # a prior so narrow that every proposal's log-posterior is -inf: the chain never moves
    ("fit_prior_sd_tiny", ["fit", "train.csv", "--t", "0.3", "--lambda-grid", "0", "--iterations", "600",
                           "--burn-in", "200", "--prior-sd", "1e-300", "--out", "fit_prior_sd_tiny"]),
    # proposal sds that are not finite or below the adaptation floor (usage errors), one whose
    # first steps overflow to inf, and one so small that the chain accepts every proposal
    *[(f"fit_initial_sd_{name}", ["fit", "train.csv", "--t", "0.3", "--lambda-grid", "0", "--iterations", "600",
                                  "--burn-in", "200", "--initial-sd", sd, "--out", f"fit_initial_sd_{name}"])
      for name, sd in (("inf", "inf"), ("1e308", "1e308"), ("tiny", "1e-300"), ("small", "1e-8"))],
    # a pi_u file with a header and no rows, and a scored file whose outcome is 1.0, not the literal 1
    ("ess_grid_header_only", ["ess-grid", "--pi-u-file", "pi_u_header_only.csv", "--t", "0.3",
                              "--out", "ess_grid_header_only.csv"]),
    ("evaluate_scored_float_outcome", ["evaluate", "--scored-a", "scored_float_outcome.csv", "--thresholds", "0.3",
                                       "--out", "evaluate_scored_float_outcome"]),
    # a threshold outside (0, 1) with an input file that does not exist: the usage error comes first
    ("evaluate_threshold_missing_file", ["evaluate", "--scored-a", "missing.csv", "--thresholds", "1.0",
                                         "--out", "evaluate_threshold_missing_file"]),
    ("ess_grid_threshold_missing_file", ["ess-grid", "--pi-u-file", "missing.csv", "--t", "1.5",
                                         "--out", "ess_grid_threshold_missing_file.csv"]),
    # another study's parameter flag, and a CV chain whose burn-in (the final chain's) is not below its length
    ("simulate_other_study_flag", ["simulate", "--study", "sim2", "--n", "5", "--q", "5", "--psi", "0.3",
                                   "--out", "simulate_other_study_flag.csv"]),
    ("fit_cv_chain_no_draws", ["fit", "train.csv", "--t", "0.3", "--lambda-grid", "0,5", "--cv-iterations", "300",
                               "--iterations", "400", "--burn-in", "350", "--out", "fit_cv_chain_no_draws"]),
]


def write_pi_u(path: Path, n: int = 300) -> None:
    """First-stage probabilities for ``train.csv``, with exact 0s and 1s among them."""
    values = [0.0, 1.0] + [((7 * i) % 97 + 1) / 99 for i in range(n - 2)]
    path.write_text("pi_u\n" + "".join(f"{v!r}\n" for v in values), encoding="utf-8")


def write_saturated(path: Path) -> None:
    """Rows for the ``x1,x2`` schema of ``train.csv`` with covariates of about +-1e3."""
    values = (-1000.0, -750.0, 0.0, 750.0, 1000.0)
    rows = [f"{a!r},{b!r}\n" for a in values for b in values]
    path.write_text("x1,x2\n" + "".join(rows), encoding="utf-8")


def write_not_utf8(path: Path) -> None:
    """A ``train.csv``-shaped file whose second row holds the byte 0xff."""
    path.write_bytes(b"x1,x2,y\n0.25,0.5,1\n0.5,0.\xff,0\n")


def copy_with_malformed_manifest(work: Path, name: str) -> None:
    shutil.copytree(work / "fit_std", work / name)
    path = work / name / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest.update(MALFORMED_MANIFEST[name])
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def run_all(src: Path, work: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    logs = work / "_logs"
    logs.mkdir()
    write_pi_u(work / "pi_u.csv")
    write_saturated(work / "saturated.csv")
    write_not_utf8(work / "not_utf8.csv")
    (work / "pi_u_header_only.csv").write_text("pi_u\n", encoding="utf-8")
    (work / "scored_float_outcome.csv").write_text("prob,y\n0.25,0\n0.75,1.0\n", encoding="utf-8")
    (work / "nested.cfg").write_text("t = 0.3\nlambda-grid = 0\nconfig = missing_b.cfg\n", encoding="utf-8")
    (work / "unknown_key.cfg").write_text("t = 0.3\niter = 100\n", encoding="utf-8")
    for name, argv in RUNS:
        if name.startswith("copy:"):
            copy_with_malformed_manifest(work, name[len("copy:"):])
            continue
        proc = subprocess.run(
            [sys.executable, "-m", "tailbayes.cli", *argv],
            cwd=work, env=env, capture_output=True, text=True,
        )
        # a traceback names the source tree; blank it so two trees compare equal
        for stream, text in (("stdout", proc.stdout), ("stderr", proc.stderr)):
            (logs / f"{name}.{stream}").write_text(text.replace(str(src), "<src>"), encoding="utf-8")
        (logs / f"{name}.exit").write_text(f"{proc.returncode}\n", encoding="utf-8")


def listing(work: Path) -> list[str]:
    return [
        f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(work).as_posix()}"
        for p in sorted(work.rglob("*"))
        if p.is_file()
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the tailbayes package")
    parser.add_argument("--work", required=True, help="empty or absent directory for the outputs")
    args = parser.parse_args(argv)
    src, work = Path(args.src).resolve(), Path(args.work).resolve()
    if not (src / "tailbayes" / "cli.py").is_file():
        parser.error(f"{src} holds no tailbayes package")
    if work.exists() and any(work.iterdir()):
        parser.error(f"{work} is not empty")
    work.mkdir(parents=True, exist_ok=True)
    run_all(src, work)
    print("\n".join(listing(work)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
