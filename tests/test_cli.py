import argparse
import inspect
import logging
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.special import expit

from conftest import exit_in_worker
from tailbayes import cli, dataio, reproduce, sampler, simulation, tuning
from tailbayes.cli import main
from tailbayes.errors import SamplerError, WorkerLostError
from tailbayes.evaluation import net_benefit
from tailbayes.model_core import VAGUE_PRIOR_SD, DistanceFunction, GaussianPrior, TargetThreshold
from tailbayes.predict import predictive_mean
from tailbayes.sampler import SamplerConfig

FIT_SPEED = ["--iterations", "1500", "--burn-in", "600", "--cv-iterations", "800", "--cv-burn-in", "300"]


def run(args):
    return main([str(a) for a in args])


@pytest.fixture()
def train_csv(tmp_path):
    path = tmp_path / "train.csv"
    assert run(["simulate", "--study", "sim1", "--n", 300, "--q", 1.0, "--seed", 3, "--out", path]) == 0
    return path


def fit_artifact(tmp_path, train_csv, out_name="model", extra=()):
    out = tmp_path / out_name
    code = run(
        ["fit", train_csv, "--t", 0.3, "--lambda-grid", "0,5", "--seed", 7, "--jobs", 1,
         "--out", out, *FIT_SPEED, *extra]
    )
    assert code == 0
    return out


class TestSimulate:
    def test_writes_csv_and_sidecar(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert run(["simulate", "--study", "sim3", "--n", 100, "--psi", 0.1,
                    "--seed", 5, "--with-oracle", "--out", out]) == 0
        x, y, names, _ = dataio.read_dataset_csv(out)
        assert names == ["x1", "x2", "true_probability", "contaminated"]
        assert x.shape[0] == 110
        header, rows = _read_csv(out)
        assert header == ["x1", "x2", "y", "true_probability", "contaminated"]
        assert {r[2] for r in rows} == {"0", "1"}  # the outcome is written as a literal 0/1
        meta = dataio.read_manifest(str(out) + ".meta.json")
        assert meta["study"] == "sim3" and meta["psi"] == 0.1 and meta["seed"] == 5
        assert meta["rows_written"] == 110

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            run(["simulate", "--study", "sim2", "--n", 50, "--seed", 9, "--out", out])
        assert a.read_bytes() == b.read_bytes()

    def test_infinite_q_is_usage_error_without_outputs(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        assert run(["simulate", "--study", "sim1", "--n", 5, "--q", "inf", "--with-oracle", "--out", out]) == 2
        assert capsys.readouterr().err == "error: q must be finite, got inf\n"
        assert list(tmp_path.iterdir()) == []

    def test_n_beyond_physical_memory_is_usage_error_without_outputs(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        assert run(["simulate", "--study", "sim1", "--n", 10**13, "--out", out]) == 2
        assert "design matrix need 240000000000000 bytes, more than the" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_the_unsigned_64_bit_range_is_usage_error_without_outputs(self, tmp_path, capsys, seed):
        assert run(["simulate", "--study", "sim1", "--n", 50, "--seed", seed, "--out", tmp_path / "sim.csv"]) == 2
        assert capsys.readouterr().err == "error: seed must fit in an unsigned 64-bit integer\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "study, flags, message",
        [("sim2", ["--q", 5, "--psi", 0.3], "--study sim2 varies only --prevalence, so it takes no --q or --psi"),
         ("sim1", ["--prevalence", 0.5], "--study sim1 varies only --q, so it takes no --prevalence"),
         ("sim3", ["--q", 1.0], "--study sim3 varies only --psi, so it takes no --q")],
        ids=["sim2", "sim1", "sim3"],
    )
    def test_another_studys_parameter_is_usage_error_without_outputs(self, tmp_path, capsys, study, flags, message):
        # an explicit value equal to the other study's default is refused too
        out = tmp_path / "sim.csv"
        assert run(["simulate", "--study", study, "--n", 5, *flags, "--out", out]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("study, key, value",
                             [("sim1", "q", 1.0), ("sim2", "prevalence", 0.5), ("sim3", "psi", 0.0)])
    def test_unset_study_parameter_is_the_config_default(self, tmp_path, study, key, value):
        out = tmp_path / "sim.csv"
        assert run(["simulate", "--study", study, "--n", 5, "--out", out]) == 0
        assert dataio.read_manifest(str(out) + ".meta.json")[key] == value


class TestFit:
    def test_byte_identical_manifests(self, tmp_path, train_csv):
        m1 = fit_artifact(tmp_path, train_csv, "m1")
        m2 = fit_artifact(tmp_path, train_csv, "m2", extra=["--jobs", 2])  # CV folds in a process pool
        assert (m1 / "manifest.json").read_bytes() == (m2 / "manifest.json").read_bytes()
        assert (m1 / "draws.csv").read_bytes() == (m2 / "draws.csv").read_bytes()
        assert (m1 / "weights.csv").read_bytes() == (m2 / "weights.csv").read_bytes()

    def test_zero_grid_artifact_does_not_depend_on_jobs(self, tmp_path, train_csv):
        # a {0} grid runs one chain in process whatever --jobs is
        m1, m2 = (fit_artifact(tmp_path, train_csv, f"m{jobs}", extra=["--lambda-grid", "0", "--jobs", jobs])
                  for jobs in (1, 2))
        files = sorted(p.name for p in m1.iterdir())
        assert files == sorted(p.name for p in m2.iterdir()) and "draws.csv" in files
        for name in files:
            assert (m1 / name).read_bytes() == (m2 / name).read_bytes(), name

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_single_class_design_is_data_error_at_any_jobs(self, tmp_path, capsys, jobs):
        data = tmp_path / "ones.csv"
        data.write_text("x1,y\n" + "".join(f"{i / 10},1\n" for i in range(40)), encoding="utf-8")
        out = tmp_path / "m"
        assert run(["fit", data, "--t", 0.3, "--lambda-grid", "0", "--jobs", jobs, "--out", out, *FIT_SPEED]) == 3
        assert capsys.readouterr().err == "data error: design set contains a single outcome class\n"
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["0", "0,1,2,5,10,25,50,100"], ids=["zero", "default"])
    def test_design_fraction_zero_without_pi_u_file_is_usage_error(self, tmp_path, capsys, monkeypatch, train_csv, grid):
        monkeypatch.setattr(tuning, "run_mh", None)  # raised before any chain runs
        out = tmp_path / "m"
        code = run(["fit", train_csv, "--t", 0.3, "--lambda-grid", grid, "--design-fraction", 0, "--out", out,
                    *FIT_SPEED])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: design fraction 0 leaves no design rows")
        assert "(--pi-u-file, external_pi_u)" in err
        assert not out.exists()

    def test_repeated_covariate_name_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "twice.csv"
        data.write_text("x1,x1,y\n" + "".join(f"{i},{-i},{i % 2}\n" for i in range(40)), encoding="utf-8")
        out = tmp_path / "m"
        assert run(["fit", data, "--t", 0.3, "--lambda-grid", "0", "--out", out, *FIT_SPEED]) == 3
        assert f"{data}: column name 'x1' appears more than once in the header" in capsys.readouterr().err
        assert not out.exists()

    def test_more_folds_than_a_class_has_rows_is_data_error(self, tmp_path, train_csv, capsys):
        out = tmp_path / "m"
        assert run(["fit", train_csv, "--t", 0.3, "--lambda-grid", "0,5", "--k-folds", 200, "--jobs", 1,
                    "--out", out, *FIT_SPEED]) == 3
        assert "cannot make 200 non-empty CV folds from 240 development rows" in capsys.readouterr().err
        assert not out.exists()

    def test_largest_seed_wraps_its_fold_and_rhat_seeds_below_2_to_the_64(self, tmp_path, train_csv):
        out = fit_artifact(tmp_path, train_csv, extra=["--seed", 2**64 - 1, "--rhat-chains", 2])
        seeds = dataio.read_manifest(out / "manifest.json")["seeds"]
        assert seeds["cv_folds"] == [0, 1, 2, 3, 4] and seeds["rhat_chains"] == [90_000]
        for value in seeds.values():
            assert all(0 <= s < 2**64 for s in (value if isinstance(value, list) else [value]))

    def test_more_folds_than_development_rows_fails_before_any_chain(self, tmp_path, train_csv, capsys,
                                                                     monkeypatch):
        # a one-value grid never makes a fold, but its fold plan is checked before stage 1 and the final chain
        monkeypatch.setattr(tuning, "run_mh", _no_chain)
        out = tmp_path / "m"
        assert run(["fit", train_csv, "--t", 0.3, "--lambda-grid", "0", "--k-folds", 1000, "--jobs", 1,
                    "--out", out, *FIT_SPEED]) == 3
        assert "data error: cannot make 1000 folds from 240 rows" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
    def test_jobs_default_is_the_cpus_the_process_may_use(self):
        # pinned to one CPU, fit and reproduce default to one worker whatever the machine has
        code = (
            "import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); from tailbayes import cli; "
            "parser = cli.build_parser(); "
            "print(parser.parse_args(['fit', 'd.csv', '--out', 'm']).jobs, "
            "parser.parse_args(['reproduce', '--figure', 'sim3-fig6', '--out', 'r']).jobs)"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert proc.stdout.split() == ["1", "1"]

    def test_utilities_derive_threshold(self, tmp_path, train_csv):
        out = tmp_path / "m_util"
        code = run(["fit", train_csv, "--utilities", "9,0,0,1", "--lambda-grid", "0",
                    "--seed", 1, "--out", out, *FIT_SPEED])
        assert code == 0
        manifest = dataio.read_manifest(out / "manifest.json")
        assert manifest["threshold"] == 0.1
        assert manifest["utilities"] == {"u_tp": 9.0, "u_fp": 0.0, "u_fn": 0.0, "u_tn": 1.0}

    def test_missing_outcome_column_is_data_error_without_outputs(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,x2\n1,2\n", encoding="utf-8")
        out = tmp_path / "should_not_exist"
        assert run(["fit", bad, "--t", 0.3, "--out", out]) == 3
        assert not out.exists()

    def test_threshold_required(self, tmp_path, train_csv):
        assert run(["fit", train_csv, "--out", tmp_path / "x"]) == 2

    @pytest.mark.parametrize(
        "threshold, message",
        [([], "exactly one of --t and --utilities must be given"),
         (["--utilities", "9,0,1"], "--utilities needs exactly four values: UTP,UFP,UFN,UTN")],
        ids=["neither", "three-utilities"],
    )
    def test_threshold_usage_error_comes_before_the_data_file_is_read(self, tmp_path, capsys, threshold, message):
        assert run(["fit", tmp_path / "missing.csv", *threshold, "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "chain, message",
        [(["--iterations", 1500, "--burn-in", 600, "--cv-iterations", 0], "n_iterations must be positive"),
         (["--iterations", 600, "--burn-in", 200, "--thin", 1000], "thin must not exceed")],
        ids=["cv-iterations-0", "thin-retains-no-draw"],
    )
    def test_chain_without_draws_is_usage_error(self, tmp_path, train_csv, capsys, chain, message):
        # a CV length of 0 is not "unset", and a thin wider than the post-burn-in chain keeps nothing
        out = tmp_path / "m"
        assert run(["fit", train_csv, "--t", 0.3, "--lambda-grid", "0,5", "--jobs", 1,
                    "--out", out, *chain]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_cv_chain_that_retains_no_draw_names_the_cv_chain(self, tmp_path, train_csv, capsys, monkeypatch):
        # the final chain's flags are valid; the CV chain takes --burn-in 350 with --cv-iterations 300
        monkeypatch.setattr(tuning, "run_mh", _no_chain)
        out = tmp_path / "m"
        assert run(["fit", train_csv, "--t", 0.3, "--lambda-grid", "0,5", "--cv-iterations", 300,
                    "--iterations", 400, "--burn-in", 350, "--out", out]) == 2
        assert capsys.readouterr().err == (
            "error: the CV chain (cv_chain, --cv-iterations/--cv-burn-in) of 300 iterations and burn-in 350: "
            "burn_in must satisfy 0 <= burn_in < n_iterations\n")
        assert not out.exists()

    def test_draw_store_beyond_physical_memory_is_usage_error(self, tmp_path, train_csv, capsys):
        # 10^15 retained draws of 3 coefficients: the check runs before the draw store is allocated
        out = tmp_path / "m"
        assert run(["fit", train_csv, "--t", 0.3, "--lambda-grid", "0", "--jobs", 1,
                    "--iterations", 10**15, "--burn-in", 0, "--out", out]) == 2
        assert "need 33000000000000000 bytes, more than the" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs, needed", [(1, 330000000000000000), (2, 198000000000000000)])
    def test_cv_draw_store_beyond_physical_memory_fails_before_any_chain(self, tmp_path, train_csv, capsys,
                                                                         monkeypatch, jobs, needed):
        # the largest fold group stacks 5 (jobs 1) or 3 (jobs 2) folds of 2 lambda chains, 10^15 draws each
        monkeypatch.setattr(tuning, "run_mh", _no_chain)
        out = tmp_path / "m"
        assert run(["fit", train_csv, "--t", 0.3, "--lambda-grid", "0,5", "--jobs", jobs, "--iterations", 1500,
                    "--burn-in", 600, "--cv-iterations", 10**15, "--cv-burn-in", 0, "--out", out]) == 2
        assert f"need {needed} bytes, more than the" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["0,inf", "0,nan"])
    def test_non_finite_lambda_is_usage_error_before_any_chain(self, tmp_path, train_csv, capsys, monkeypatch,
                                                               grid):
        monkeypatch.setattr(tuning, "run_mh", _no_chain)
        out = tmp_path / "m"
        assert run(["fit", train_csv, "--t", 0.3, "--lambda-grid", grid, "--jobs", 1, "--out", out,
                    *FIT_SPEED]) == 2
        assert "error: lambda values must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_final_chain_of_one_value_grid_is_reported_alike_at_any_jobs(self, tmp_path, train_csv,
                                                                                 capsys, monkeypatch):
        # jobs 2 runs the final chain in a worker beside stage 1; its failure must read as the serial one
        real = tuning.fit_tailored

        def fail_on_development(data, weights, prior, config):
            if data.n == 240:  # the development rows; stage 1 fits the 60 design rows
                raise SamplerError(f"the chain of seed {config.rng_seed} on {data.n} rows failed")
            return real(data, weights, prior, config)

        monkeypatch.setattr(tuning, "fit_tailored", fail_on_development)
        errors = []
        for jobs in (1, 2):
            out = tmp_path / f"m{jobs}"
            assert run(["fit", train_csv, "--t", 0.3, "--lambda-grid", "0", "--seed", 5, "--jobs", jobs,
                        "--out", out, *FIT_SPEED]) == 4
            errors.append(capsys.readouterr().err)
            assert not out.exists()
        assert errors == ["sampler error: the chain of seed 5 on 240 rows failed\n"] * 2

    def test_manifest_records_the_prior(self, tmp_path, train_csv):
        out = tmp_path / "m"
        assert run(["fit", train_csv, "--t", 0.3, "--lambda-grid", "0", "--prior-sd", 2.5, "--jobs", 1,
                    "--out", out, *FIT_SPEED]) == 0
        manifest = dataio.read_manifest(out / "manifest.json")
        assert manifest["prior"] == {"means": [0.0, 0.0, 0.0], "sds": [2.5, 2.5, 2.5]}

    def test_manifest_records_configuration(self, tmp_path, train_csv):
        out = fit_artifact(tmp_path, train_csv)
        manifest = dataio.read_manifest(out / "manifest.json")
        assert manifest["lambda_grid"] == [0.0, 5.0]
        assert manifest["lambda_star"] in (0.0, 5.0)
        assert manifest["seeds"]["base"] == 7
        assert manifest["seeds"]["cv_folds"] == [8, 9, 10, 11, 12]
        assert manifest["split"]["design_rows"] == 60
        assert manifest["split"]["development_rows"] == 240
        assert len(manifest["split"]["indices_sha256"]) == 64
        assert 0.0 < manifest["ess_fraction"] <= 1.0
        rows = dataio.read_manifest(out / "manifest.json")["ess_grid"]
        assert rows[0]["ess_fraction"] == 1.0
        header, weight_rows = _read_csv(out / "weights.csv")
        assert header == ["row", "pi_u", "weight"]
        assert len(weight_rows) == 240
        header, ess_rows = _read_csv(out / "ess_table.csv")
        assert header == ["lambda", "ess", "ess_fraction", "low_ess"]
        assert [r[3] for r in ess_rows] == [str(int(r["low_ess"])) for r in rows]

    def test_standardize_recorded_and_rhat(self, tmp_path, train_csv):
        out = fit_artifact(tmp_path, train_csv, "m_std", extra=["--standardize", "--rhat-chains", "2"])
        manifest = dataio.read_manifest(out / "manifest.json")
        assert manifest["standardize"] is not None
        assert len(manifest["standardize"]["means"]) == 2
        assert len(manifest["rhat"]) == 3
        assert all(0.8 < r < 1.5 for r in manifest["rhat"])

    @pytest.mark.parametrize("flag", [["--prior-sd", "1e-300"], ["--initial-sd", "1e300"], ["--initial-sd", "1e308"]],
                             ids=["prior-sd-1e-300", "initial-sd-1e300", "initial-sd-1e308"])
    def test_chain_that_never_moves_is_sampler_error(self, tmp_path, train_csv, capsys, flag):
        # every proposal's log-posterior is -inf (or far below the start's), so the chain keeps its start
        out = tmp_path / "m"
        assert run(["fit", train_csv, "--t", 0.3, "--lambda-grid", "0", "--iterations", 600,
                    "--burn-in", 200, *flag, "--out", out]) == 4
        err = capsys.readouterr().err
        assert err.startswith("sampler error: the chain never moved") and "Warning" not in err
        assert not out.exists()

    @pytest.mark.parametrize("initial_sd", ["1e-8", "1e-6"])
    def test_chain_that_never_rejects_is_sampler_error(self, tmp_path, train_csv, capsys, initial_sd):
        # steps too small to lower the log-posterior: every proposal is accepted and the chain stays near 0
        out = tmp_path / "m"
        assert run(["fit", train_csv, "--t", 0.3, "--lambda-grid", "0", "--iterations", 600, "--burn-in", 200,
                    "--seed", 3, "--jobs", 1, "--initial-sd", initial_sd, "--out", out]) == 4
        err = capsys.readouterr().err
        assert err.startswith("sampler error: the chain never rejected: every proposal was accepted after burn-in")
        assert not out.exists()

    def test_final_chain_acceptance_outside_the_window_is_logged(self, tmp_path, train_csv, caplog):
        # burn-in cannot grow a proposal sd of 1e-4 to the posterior's scale, so nearly every proposal is accepted
        data = tmp_path / "train7.csv"
        assert run(["simulate", "--study", "sim1", "--n", 300, "--seed", 7, "--out", data]) == 0
        with caplog.at_level(logging.WARNING, logger="tailbayes.tuning"):
            assert run(["fit", data, "--t", 0.3, "--lambda-grid", "0", "--iterations", 600, "--burn-in", 200,
                        "--seed", 3, "--initial-sd", "1e-4", "--jobs", 1, "--out", tmp_path / "m"]) == 0
            assert caplog.messages == [
                "final chain acceptance rate 0.985 is outside [0.15, 0.35] (final proposal sd 0.000728)"
            ]
            caplog.clear()
            fit_artifact(tmp_path, train_csv)
            assert caplog.messages == []

    def test_non_finite_initial_sd_is_usage_error(self, tmp_path, train_csv, capsys):
        out = tmp_path / "m"
        assert run(["fit", train_csv, "--t", 0.3, "--lambda-grid", "0", "--initial-sd", "inf", "--out", out]) == 2
        assert "initial_sd must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_initial_sd_below_the_adaptation_floor_is_usage_error(self, tmp_path, train_csv, capsys):
        # every step of sd 1e-300 rounds away, so every proposal is accepted and the chain never leaves 0
        out = tmp_path / "m"
        assert run(["fit", train_csv, "--t", 0.3, "--lambda-grid", "0", "--initial-sd", "1e-300", "--out", out]) == 2
        assert "initial_sd must be at least 1e-08, the floor of the adapted sd, got 1e-300" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("chains", [1, -3])
    def test_rhat_chains_below_two_is_usage_error(self, tmp_path, train_csv, capsys, chains):
        # the count includes the final chain, so 1 would add no chain and give no R-hat
        out = tmp_path / "m"
        assert run(["fit", train_csv, "--t", 0.3, "--lambda-grid", "0", "--jobs", 1,
                    "--rhat-chains", chains, "--out", out, *FIT_SPEED]) == 2
        assert "--rhat-chains" in capsys.readouterr().err
        assert not out.exists()

    def test_rhat_chains_beyond_physical_memory_is_usage_error_before_any_fit(self, tmp_path, train_csv, capsys,
                                                                              monkeypatch):
        # 10^15 chains of 900 draws of 3 coefficients would be held at once after the fit: refused before it
        monkeypatch.setattr(cli, "fit_pipeline", _no_chain)
        _forbid_chains(monkeypatch)
        out = tmp_path / "m"
        assert run(["fit", train_csv, "--t", 0.3, "--lambda-grid", "0", "--jobs", 1,
                    "--rhat-chains", 10**15, "--out", out, *FIT_SPEED]) == 2
        err = capsys.readouterr().err
        assert f"of {10**15} chains of 900 draws need {10**15 * 900 * 33} bytes, more than the" in err
        assert not out.exists()

    def test_jobs_below_one_is_usage_error(self, tmp_path, train_csv, capsys):
        out = tmp_path / "m"
        with pytest.raises(SystemExit) as exc:
            run(["fit", train_csv, "--t", 0.3, "--jobs", 0, "--out", out])
        assert exc.value.code == 2
        assert "--jobs: must be at least 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("problem", ["missing", "directory", "not-utf8"])
    def test_unreadable_config_file_is_usage_error(self, tmp_path, train_csv, capsys, problem):
        cfg = tmp_path / "fit.cfg"
        if problem == "directory":
            cfg.mkdir()
        elif problem == "not-utf8":
            cfg.write_bytes(b"t = 0.3\nseed = \xff\n")
        out = tmp_path / "m"
        assert run(["fit", train_csv, "--config", cfg, "--out", out]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read config file {cfg}: ")
        assert not out.exists()

    def test_config_file_with_byte_order_mark(self, tmp_path, train_csv):
        # Excel's "CSV UTF-8" and Windows Notepad's "UTF-8 with BOM" put a byte-order mark before the first key
        cfg = tmp_path / "fit.cfg"
        cfg.write_text("\ufeffseed = 7\nt = 0.3\nlambda-grid = 0\n", encoding="utf-8")
        out = tmp_path / "m_bom"
        assert run(["fit", train_csv, "--config", cfg, "--jobs", 1, "--out", out, *FIT_SPEED]) == 0
        manifest = dataio.read_manifest(out / "manifest.json")
        assert (manifest["seeds"]["base"], manifest["threshold"], manifest["lambda_grid"]) == (7, 0.3, [0.0])

    @pytest.mark.parametrize(
        "configs",
        [["--config", "a.cfg", "--config", "b.cfg"], ["--config=b.cfg", "--config", "a.cfg"],
         ["--config=a.cfg", "--config=b.cfg"]],
        ids=["spaced", "mixed", "equals"],
    )
    def test_repeated_config_is_usage_error_before_any_file_is_read(self, tmp_path, capsys, configs):
        # neither config file nor the data file exists: reading any of them would be a different error
        out = tmp_path / "m"
        assert run(["fit", tmp_path / "missing.csv", *configs, "--out", out]) == 2
        assert capsys.readouterr().err == "error: --config may be given once, not 2 times\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", [["--conf", "a.cfg"], ["--co=a.cfg"], ["--iter", "100"]],
                             ids=["conf", "co-equals", "iter"])
    def test_abbreviated_flag_is_usage_error_before_any_file_is_read(self, tmp_path, capsys, flag):
        # argparse would take --conf as --config, which nothing reads, so no fit flag may be abbreviated
        out = tmp_path / "m"
        with pytest.raises(SystemExit) as exc:
            run(["fit", tmp_path / "missing.csv", *flag, "--t", 0.3, "--out", out])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_naming_a_config_file_is_usage_error_before_any_chain(self, tmp_path, train_csv, capsys,
                                                                             monkeypatch):
        _forbid_chains(monkeypatch)
        cfg = tmp_path / "a.cfg"
        cfg.write_text("t = 0.3\nconfig = b.cfg\nlambda-grid = 0\n", encoding="utf-8")
        out = tmp_path / "m"
        assert run(["fit", train_csv, "--config", cfg, "--out", out]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:2: a config file cannot name another config file\n"
        assert not out.exists()

    @pytest.mark.parametrize("key", ["iter", "data", "help", "no_such_flag"])
    def test_config_key_that_is_not_a_fit_flag_is_usage_error_before_the_data_file_is_read(self, tmp_path, capsys,
                                                                                           key):
        # an abbreviation, the positional, argparse's own --help and a typo; the data file does not exist
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"t = 0.3\n{key} = 100\n", encoding="utf-8")
        out = tmp_path / "m"
        assert run(["fit", tmp_path / "missing.csv", "--config", cfg, "--out", out]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:2: {key!r} is not a fit flag\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["predict", "--model", "m", "--data", "d.csv", "--out", "o.csv"],
        ["ess-grid", "--pi-u-file", "p.csv", "--t", "0.3", "--out", "o.csv"],
    ], ids=["predict", "ess-grid"])
    def test_config_for_another_command_is_refused_unread(self, tmp_path, capsys, monkeypatch, command):
        # only fit takes --config: argparse refuses it before any file, the config among them, is opened
        monkeypatch.chdir(tmp_path)
        (tmp_path / "p.cfg").write_text("iterations = 100\n", encoding="utf-8")
        for cfg in ("missing.cfg", "p.cfg"):
            with pytest.raises(SystemExit) as exc:
                run([*command[:1], "--config", cfg, *command[1:]])
            assert exc.value.code == 2
            assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: --config {cfg}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.cfg"]

    def test_external_pi_u(self, tmp_path, train_csv):
        pi_path = tmp_path / "pi.csv"
        pi_path.write_text("pi_u\n" + "\n".join(["0.3"] * 300) + "\n", encoding="utf-8")
        out = tmp_path / "m_ext"
        code = run(["fit", train_csv, "--t", 0.3, "--lambda-grid", "0,5", "--seed", 2,
                    "--pi-u-file", pi_path, "--out", out, *FIT_SPEED])
        assert code == 0
        manifest = dataio.read_manifest(out / "manifest.json")
        assert manifest["external_pi_u"] == str(pi_path)
        assert manifest["split"]["design_rows"] == 0
        assert manifest["split"]["development_rows"] == 300

    def test_config_file_defaults_and_flag_override(self, tmp_path, train_csv):
        cfg = tmp_path / "fit.cfg"
        cfg.write_text(
            "t = 0.3\nlambda-grid = 0,5\nseed = 7\niterations = 1500\nburn-in = 600\n"
            "cv-iterations = 800\ncv-burn-in = 300\n",
            encoding="utf-8",
        )
        out1 = tmp_path / "m_cfg"
        assert run(["fit", train_csv, "--config", cfg, "--out", out1]) == 0
        ref = fit_artifact(tmp_path, train_csv, "m_ref")
        assert (out1 / "draws.csv").read_bytes() == (ref / "draws.csv").read_bytes()
        # explicit flag wins over the config value
        out2 = tmp_path / "m_cfg2"
        assert run(["fit", train_csv, "--config", cfg, "--seed", 8, "--out", out2]) == 0
        assert dataio.read_manifest(out2 / "manifest.json")["seeds"]["base"] == 8


class TestPredict:
    def test_roundtrip(self, tmp_path, train_csv):
        model = fit_artifact(tmp_path, train_csv)
        out = tmp_path / "preds.csv"
        assert run(["predict", "--model", model, "--data", train_csv, "--out", out]) == 0
        header, rows = _read_csv(out)
        assert header == ["id", "mean_probability", "predictive_sd", "classification"]
        assert len(rows) == 300
        for row in rows:
            p = float(row[1])
            assert 0.0 <= p <= 1.0
            assert row[3] == ("positive" if p >= 0.3 else "negative")

    def test_permuted_schema_rejected(self, tmp_path, train_csv):
        model = fit_artifact(tmp_path, train_csv)
        permuted = _permuted_csv(tmp_path, train_csv)
        assert run(["predict", "--model", model, "--data", permuted, "--out", tmp_path / "p.csv"]) == 3

    @pytest.mark.parametrize(
        "name, corrupt",
        [("draws.csv", lambda text: text.replace(text.splitlines()[1].split(",")[0], "oops", 1)),
         ("manifest.json", lambda text: text[: len(text) // 2])],
        ids=["draws.csv", "manifest.json"],
    )
    def test_corrupt_artifact_is_data_error(self, tmp_path, train_csv, name, corrupt):
        model = fit_artifact(tmp_path, train_csv)
        path = model / name
        path.write_text(corrupt(path.read_text(encoding="utf-8")), encoding="utf-8")
        out = tmp_path / "p.csv"
        assert run(["predict", "--model", model, "--data", train_csv, "--out", out]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_non_fit_manifest_is_data_error(self, tmp_path, train_csv, command):
        # a reproduce output directory holding a copied draws.csv is not a model artifact
        model = fit_artifact(tmp_path, train_csv)
        other = tmp_path / "rep"
        other.mkdir()
        shutil.copy(model / "draws.csv", other / "draws.csv")
        dataio.write_manifest(
            other / "manifest.json",
            {"tool": "tailbayes", "command": "reproduce", "figure": "sim3-fig6", "scale": 0.1,
             "repetitions": 2, "seed": 1, "lambda_grid": [0.0, 10.0], "overrides": {}},
        )
        out = tmp_path / "out"
        if command == "predict":
            args = ["predict", "--model", other, "--data", train_csv, "--out", out]
        else:
            args = ["evaluate", "--model-a", other, "--data", train_csv,
                    "--thresholds", 0.3, "--out", out]
        assert run(args) == 3
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    @pytest.mark.parametrize(
        "edit, key",
        [(lambda m: {"command": "fit"}, "data.covariates"),
         (lambda m: dict(m, chain={}), "chain.acceptance_rate"),
         (lambda m: dict(m, threshold="0.3"), "threshold"),
         (lambda m: dict(m, threshold=1.5), "threshold"),
         (lambda m: dict(m, threshold=math.nan), "threshold"),
         (lambda m: dict(m, standardize={"means": [0.0, 0.0]}), "standardize.sds"),
         (lambda m: dict(m, standardize={"means": [0.0], "sds": [1.0]}), "standardize.means"),
         (lambda m: dict(m, standardize={"means": [0.0, 0.0], "sds": [0.0, 1.0]}), "standardize.sds")],
        ids=["only-command", "no-chain-fields", "string-threshold", "threshold-1.5", "threshold-nan",
             "standardize-no-sds", "standardize-one-value", "standardize-zero-sd"],
    )
    def test_incomplete_fit_manifest_is_data_error(self, tmp_path, train_csv, capsys, command, edit, key):
        model = fit_artifact(tmp_path, train_csv)
        path = model / "manifest.json"
        dataio.write_manifest(path, edit(dataio.read_manifest(path)))
        out = tmp_path / "out"
        if command == "predict":
            args = ["predict", "--model", model, "--data", train_csv, "--out", out]
        else:
            args = ["evaluate", "--model-a", model, "--data", train_csv,
                    "--thresholds", 0.3, "--out", out]
        assert run(args) == 3
        assert repr(key) in capsys.readouterr().err
        assert not out.exists()

    def test_single_draw_artifact_gives_plug_in(self, tmp_path, train_csv):
        model = fit_artifact(tmp_path, train_csv)
        names, draws = dataio.read_draws_csv(model / "draws.csv")
        beta = draws.mean(axis=0)
        dataio.write_draws_csv(model / "draws.csv", names, beta[None, :])
        out = tmp_path / "preds1.csv"
        assert run(["predict", "--model", model, "--data", train_csv, "--out", out]) == 0
        _, rows = _read_csv(out)
        x, _, _, _ = dataio.read_dataset_csv(train_csv)
        expected = expit(beta[0] + x @ beta[1:])
        got = np.array([float(r[1]) for r in rows])
        np.testing.assert_allclose(got, expected, rtol=1e-12)
        assert all(float(r[2]) == 0.0 for r in rows)


class TestEvaluate:
    def _scored(self, tmp_path, name, probs, outcomes):
        path = tmp_path / name
        lines = ["prob,y"] + [f"{p},{int(y)}" for p, y in zip(probs, outcomes)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_identical_files_give_zero_delta(self, tmp_path):
        rng = np.random.default_rng(0)
        probs = rng.uniform(size=40)
        outcomes = (rng.uniform(size=40) < probs).astype(int)
        a1 = self._scored(tmp_path, "a1.csv", probs, outcomes)
        a2 = self._scored(tmp_path, "a2.csv", probs, outcomes)
        out = tmp_path / "eval"
        code = run(["evaluate", "--scored-a", a1, "--scored-a", a2,
                    "--scored-b", a1, "--scored-b", a2,
                    "--thresholds", "0.1:0.9:0.1", "--out", out])
        assert code == 0
        header, rows = _read_csv(out / "delta_nb.csv")
        assert header == ["threshold", "mean_delta", "se_delta"]
        assert len(rows) == 9
        for row in rows:
            assert float(row[1]) == 0.0 and float(row[2]) == 0.0

    def test_treat_none_scores_zero(self, tmp_path):
        outcomes = np.array([1, 0, 1, 0, 0])
        a = self._scored(tmp_path, "none.csv", np.zeros(5), outcomes)
        out = tmp_path / "eval2"
        assert run(["evaluate", "--scored-a", a, "--thresholds", "0.2,0.5,0.8", "--out", out]) == 0
        header, rows = _read_csv(out / "nb.csv")
        assert header == ["threshold", "model", "split", "tp", "fp", "n", "nb"]
        assert len(rows) == 3
        assert all(float(r[6]) == 0.0 for r in rows)

    def test_threshold_sweep_shape(self, tmp_path):
        rng = np.random.default_rng(1)
        probs = rng.uniform(size=30)
        outcomes = (rng.uniform(size=30) < 0.5).astype(int)
        a = self._scored(tmp_path, "a.csv", probs, outcomes)
        b = self._scored(tmp_path, "b.csv", probs[::-1], outcomes)
        out = tmp_path / "eval3"
        code = run(["evaluate", "--scored-a", a, "--scored-a", b,
                    "--scored-b", b, "--scored-b", a,
                    "--thresholds", "0.1:0.9:0.05", "--out", out])
        assert code == 0
        _, nb_rows = _read_csv(out / "nb.csv")
        thresholds = np.round(np.arange(0.1, 0.925, 0.05), 12)
        assert len(nb_rows) == 2 * 2 * len(thresholds)
        _, delta_rows = _read_csv(out / "delta_nb.csv")
        assert len(delta_rows) == len(thresholds)

    def test_mismatched_split_counts_rejected(self, tmp_path):
        a = self._scored(tmp_path, "a.csv", [0.5], [1])
        out = tmp_path / "eval4"
        assert run(["evaluate", "--scored-a", a, "--scored-a", a,
                    "--scored-b", a, "--thresholds", "0.5", "--out", out]) == 3
        # one split each has no paired standard error; nothing is written
        assert run(["evaluate", "--scored-a", a, "--scored-b", a,
                    "--thresholds", "0.5", "--out", out]) == 3
        assert not out.exists()

    def test_equal_labels_and_repeated_thresholds_keep_the_pairing(self, tmp_path):
        rng = np.random.default_rng(2)
        outcomes = (rng.uniform(size=40) < 0.5).astype(int)
        s1 = self._scored(tmp_path, "s1.csv", rng.uniform(size=40), outcomes)
        s2 = self._scored(tmp_path, "s2.csv", rng.uniform(size=40), outcomes)
        splits = ["--scored-a", s1, "--scored-a", s2, "--scored-b", s2, "--scored-b", s1]
        assert run(["evaluate", *splits, "--thresholds", "0.3", "--out", tmp_path / "ref"]) == 0
        assert run(["evaluate", *splits, "--label-a", "m", "--label-b", "m",
                    "--thresholds", "0.3", "--out", tmp_path / "same"]) == 0
        assert run(["evaluate", *splits, "--thresholds", "0.3,0.3", "--out", tmp_path / "twice"]) == 0
        _, ref = _read_csv(tmp_path / "ref" / "delta_nb.csv")
        assert float(ref[0][2]) > 0.0
        assert _read_csv(tmp_path / "same" / "delta_nb.csv")[1] == ref
        assert _read_csv(tmp_path / "twice" / "delta_nb.csv")[1] == ref + ref

    def test_model_plus_data_mode(self, tmp_path, train_csv):
        model = fit_artifact(tmp_path, train_csv)
        split2 = tmp_path / "split2.csv"
        assert run(["simulate", "--study", "sim1", "--n", 120, "--seed", 8, "--out", split2]) == 0
        out = tmp_path / "eval5"
        code = run(["evaluate", "--model-a", model, "--model-b", model,
                    "--data", train_csv, "--data", split2,
                    "--thresholds", "0.2,0.3", "--out", out])
        assert code == 0
        _, nb_rows = _read_csv(out / "nb.csv")
        assert len(nb_rows) == 2 * 2 * 2  # models x splits x thresholds
        _, delta_rows = _read_csv(out / "delta_nb.csv")
        assert all(float(r[1]) == 0.0 for r in delta_rows)  # same artifact twice

    def test_model_mode_permuted_schema_is_the_data_error_predict_raises(self, tmp_path, train_csv, capsys):
        model = fit_artifact(tmp_path, train_csv)
        permuted = _permuted_csv(tmp_path, train_csv)
        capsys.readouterr()
        assert run(["predict", "--model", model, "--data", permuted, "--out", tmp_path / "p.csv"]) == 3
        predict_err = capsys.readouterr().err
        out = tmp_path / "eval"
        assert run(["evaluate", "--model-a", model, "--data", permuted, "--thresholds", "0.3", "--out", out]) == 3
        assert capsys.readouterr().err == predict_err
        assert predict_err.startswith(f"data error: {permuted}: covariate columns ['x2', 'x1'] do not match")
        assert predict_err.endswith("(same names, same order required)\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "stray, named",
        [(["--model-b", "/nonexistent"], "--model-b"), (["--data", "t.csv"], "--data"),
         (["--model-b", "/nonexistent", "--data", "t.csv"], "--model-b and --data")],
        ids=["model-b", "data", "both"],
    )
    def test_scored_mode_refuses_model_mode_flags(self, tmp_path, capsys, stray, named):
        a = self._scored(tmp_path, "a.csv", [0.5], [1])
        out = tmp_path / "x"
        assert run(["evaluate", "--scored-a", a, "--scored-a", a, *stray, "--thresholds", "0.5", "--out", out]) == 2
        assert capsys.readouterr().err == f"error: {named} cannot be used with --scored-a\n"
        assert not out.exists()

    def test_model_mode_refuses_scored_b(self, tmp_path, capsys):
        a = self._scored(tmp_path, "a.csv", [0.5], [1])
        out = tmp_path / "x"
        code = run(["evaluate", "--model-a", tmp_path / "no_model", "--data", a, "--scored-b", a,
                    "--thresholds", "0.5", "--out", out])
        assert code == 2  # before the missing artifact is read
        assert capsys.readouterr().err == "error: --scored-b cannot be used with --model-a\n"
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["scored", "model"])
    def test_label_b_without_model_b_is_usage_error(self, tmp_path, capsys, mode):
        a = self._scored(tmp_path, "a.csv", [0.25, 0.75], [0, 1])
        source = ["--scored-a", a] if mode == "scored" else ["--model-a", tmp_path / "no_model", "--data", a]
        out = tmp_path / "x"
        code = run(["evaluate", *source, "--label-b", "other", "--thresholds", "0.3", "--out", out])
        assert code == 2  # before the missing artifact is read
        needed = "--scored-b" if mode == "scored" else "--model-b"
        assert capsys.readouterr().err == f"error: --label-b names model B, so it needs {needed}\n"
        assert not out.exists()

    def test_evaluate_requires_one_input_mode(self, tmp_path):
        a = self._scored(tmp_path, "a.csv", [0.5], [1])
        assert run(["evaluate", "--thresholds", "0.5", "--out", tmp_path / "x"]) == 2
        assert run(["evaluate", "--scored-a", a, "--model-a", tmp_path,
                    "--thresholds", "0.5", "--out", tmp_path / "y"]) == 2

    @pytest.mark.parametrize("thresholds", ["0.1:0.9:1e-15", "0.1:inf:0.1", "0.1:0.9:nan", "0:1.0001:1e-4"])
    def test_threshold_range_beyond_the_cap_is_usage_error(self, tmp_path, capsys, thresholds):
        # 0.1:0.9:1e-15 would ask np.arange for 8e14 values (5.68 PiB)
        a = self._scored(tmp_path, "a.csv", [0.5], [1])
        with pytest.raises(SystemExit) as exc:
            run(["evaluate", "--scored-a", a, "--thresholds", thresholds, "--out", tmp_path / "x"])
        assert exc.value.code == 2
        assert f"{thresholds!r} does not give from 1 to 10000 thresholds" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_empty_threshold_list_is_usage_error(self, tmp_path):
        a = self._scored(tmp_path, "a.csv", [0.5], [1])
        with pytest.raises(SystemExit) as exc:
            run(["evaluate", "--scored-a", a, "--scored-a", a, "--scored-b", a, "--scored-b", a,
                 "--thresholds", ",", "--out", tmp_path / "x"])
        assert exc.value.code == 2
        assert not (tmp_path / "x").exists()


class TestReproduceAndEssGrid:
    def test_unknown_figure_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["reproduce", "--figure", "sim9-fig99", "--out", tmp_path / "r"])
        assert exc.value.code == 2

    def test_tiny_sim3_run_writes_tables(self, tmp_path):
        out = tmp_path / "rep"
        code = run(["reproduce", "--figure", "sim3-fig6", "--scale", 0.1,
                    "--seed", 1, "--jobs", 1, "--n-list", "200", "--psi-list", "0.1",
                    "--t-list", "0.3", "--lambda-grid", "0,10", "--out", out])
        assert code == 0
        header, rows = _read_csv(out / "nb_raw.csv")
        assert header == ["n", "psi", "t", "rep", "train_seed", "test_seed", "fit_seed",
                          "lambda_star", "nb_tb", "nb_sb", "delta", "nb_optimal"]
        assert len(rows) == 2  # 10% of 20 repetitions
        header, delta = _read_csv(out / "delta_nb.csv")
        assert header == ["n", "psi", "threshold", "mean_delta", "se_delta"]
        assert len(delta) == 1
        header, summary = _read_csv(out / "nb_summary.csv")
        assert header == ["threshold", "psi", "mean_nb_tb", "mean_nb_sb", "mean_nb_optimal",
                          "mean_delta", "se_delta"]
        assert len(summary) == 1
        manifest = dataio.read_manifest(out / "manifest.json")
        assert manifest["figure"] == "sim3-fig6" and manifest["repetitions"] == 2
        assert manifest["sampler"] == {"n_iterations": 8000, "burn_in": 3000, "thin": 1, "initial_sd": 0.15}
        assert manifest["cv_chain"] == [3000, 1200]

    def test_raw_row_reruns_from_its_recorded_seeds_alone(self, tmp_path):
        out = tmp_path / "rep"
        assert run(["reproduce", "--figure", "sim3-fig6", "--scale", 0.05, "--seed", 2, "--jobs", 1,
                    "--n-list", "200", "--psi-list", "0.1", "--t-list", "0.3", "--lambda-grid", "0,10",
                    "--out", out]) == 0
        header, rows = _read_csv(out / "nb_raw.csv")
        row = dict(zip(header, rows[0]))
        manifest = dataio.read_manifest(out / "manifest.json")
        generate, train_config = simulation.study("sim3", int(row["n"]), int(row["train_seed"]), float(row["psi"]))
        test = generate(simulation.study("sim3", manifest["test_rows"], int(row["test_seed"]), 0.0)[1])[0]
        config = SamplerConfig(**manifest["sampler"], rng_seed=int(row["fit_seed"]))
        train, t = generate(train_config)[0], TargetThreshold(float(row["t"]))
        prior = GaussianPrior.vague(train.n_coefficients, sd=manifest["prior_sd"])
        first = tuning.first_stage(train, lambda_grid=manifest["lambda_grid"], k_folds=manifest["k_folds"],
                                   design_fraction=manifest["design_fraction"], sampler_config=config,
                                   cv_chain=tuple(manifest["cv_chain"]), prior=prior)
        model = tuning.fit_pipeline(first, t, distance=DistanceFunction(**manifest["distance"]))
        baseline = tuning.fit_standard(train, config, prior)
        assert float(row["lambda_star"]) == model.lambda_star
        for key, samples in (("nb_tb", model.samples), ("nb_sb", baseline)):
            assert float(row[key]) == net_benefit(predictive_mean(test.covariates, samples), test.outcomes, t).net_benefit

    @pytest.mark.parametrize(
        "lists",
        [["--n-list", "200", "--t-list", "0.3,0.3"], ["--n-list", "200.5", "--t-list", "0.3"]],
        ids=["repeated-t", "fractional-n"],
    )
    def test_bad_override_list_is_usage_error(self, tmp_path, capsys, lists):
        out = tmp_path / "rep"
        code = run(["reproduce", "--figure", "sim3-fig6", "--scale", 0.1, "--jobs", 1,
                    "--psi-list", "0.1", *lists, "--out", out])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_negative_seed_is_usage_error_before_any_repetition(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(reproduce, "_rep_worker", _no_fit)
        out = tmp_path / "rep"
        assert run(["reproduce", "--figure", "sim3-fig6", "--scale", 0.1, "--seed", -1, "--jobs", 1,
                    "--n-list", "200", "--psi-list", "0.1", "--t-list", "0.3", "--out", out]) == 2
        assert capsys.readouterr().err == "error: seed must fit in an unsigned 64-bit integer\n"
        assert list(tmp_path.iterdir()) == []

    def test_each_key_a_figure_varies_has_its_own_list_flag(self, tmp_path, monkeypatch):
        """--n-list is whole numbers, passed as ints; the other lists pass their floats as given."""
        keys = {key for _, grid in reproduce.FIGURES.values() for key in grid}
        assert keys == {"n", "q", "prevalence", "psi", "t"}
        passed = []

        def reproduce_figure(*args, overrides, **kwargs):
            passed.append(overrides)
            return {"tables": {}, "manifest": {}, "raw": []}

        monkeypatch.setattr(cli, "reproduce_figure", reproduce_figure)
        lists = [arg for key in sorted(keys) for arg in (f"--{key}-list", "200,300" if key == "n" else "0.25")]
        assert run(["reproduce", "--figure", "sim1-fig2", "--out", tmp_path / "rep", *lists]) == 0
        assert passed == [{"n": (200, 300), **{key: (0.25,) for key in keys - {"n"}}}]
        assert all(type(n) is int for n in passed[0]["n"])

    def test_jobs_below_one_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "rep"
        with pytest.raises(SystemExit) as exc:
            run(["reproduce", "--figure", "sim3-fig6", "--jobs", -4, "--out", out])
        assert exc.value.code == 2
        assert "--jobs: must be at least 1, got -4" in capsys.readouterr().err
        assert not out.exists()

    def test_override_the_figure_does_not_vary_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # sim3 has no q: the override would be ignored and the default 54-cell grid run
        monkeypatch.setattr(reproduce, "_rep_worker", _no_fit)
        out = tmp_path / "rep"
        assert run(["reproduce", "--figure", "sim3-fig6", "--scale", 0.1, "--jobs", 1, "--q-list", "0.5",
                    "--out", out]) == 2
        err = capsys.readouterr().err
        assert err == "error: sim3-fig6 varies only ['n', 'psi', 't'], so it takes no override of ['q']\n"
        assert not out.exists()

    def test_n_beyond_physical_memory_is_usage_error_before_any_repetition(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(reproduce, "_rep_worker", _no_fit)
        out = tmp_path / "rep"
        assert run(["reproduce", "--figure", "sim3-fig6", "--scale", 0.1, "--jobs", 1, "--n-list", "1e12",
                    "--psi-list", "0.1", "--t-list", "0.3", "--out", out]) == 2
        assert "design matrix need 24000000000000 bytes, more than the" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_q_is_usage_error_before_any_repetition(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(reproduce, "_rep_worker", _no_fit)
        out = tmp_path / "rep"
        assert run(["reproduce", "--figure", "sim1-fig2", "--scale", 0.05, "--jobs", 1, "--n-list", "200",
                    "--q-list", "1,inf", "--t-list", "0.3", "--out", out]) == 2
        assert capsys.readouterr().err == "error: q must be finite, got inf\n"
        assert not out.exists()

    def test_ess_grid_from_file(self, tmp_path):
        pi = tmp_path / "pi.csv"
        pi.write_text("pi_u\n0.1\n0.4\n0.8\n", encoding="utf-8")
        out = tmp_path / "ess.csv"
        assert run(["ess-grid", "--pi-u-file", pi, "--t", 0.3, "--lambda-grid", "0,5,50,200",
                    "--out", out]) == 0
        header, rows = _read_csv(out)
        assert header == ["lambda", "ess", "ess_fraction", "low_ess"]
        assert [r[3] for r in rows] == ["0", "0", "0", "1"]  # ess_fraction 0.045 at lam = 200
        assert float(rows[0][2]) == 1.0
        fractions = [float(r[2]) for r in rows]
        assert fractions[0] > fractions[1] > fractions[2]


def test_cli_defaults_are_the_library_defaults():
    parser = cli.build_parser()
    fit = parser.parse_args(["fit", "d.csv", "--out", "o"])
    ess = parser.parse_args(["ess-grid", "--pi-u-file", "p.csv", "--t", "0.3", "--out", "e.csv"])
    sim = parser.parse_args(["simulate", "--study", "sim1", "--n", "5", "--out", "s.csv"])
    ev = parser.parse_args(["evaluate", "--thresholds", "0.3", "--out", "ev"])
    rep = parser.parse_args(["reproduce", "--figure", "sim3-fig6", "--out", "r"])
    reproduce_defaults = inspect.signature(reproduce.reproduce_figure).parameters
    sampler = SamplerConfig()
    assert (fit.iterations, fit.burn_in, fit.thin, fit.initial_sd, fit.seed) == (
        sampler.n_iterations, sampler.burn_in, sampler.thin, sampler.initial_sd, sampler.rng_seed)
    assert (fit.k_folds, fit.design_fraction, fit.prior_sd) == (
        tuning.DEFAULT_K_FOLDS, tuning.DEFAULT_DESIGN_FRACTION, VAGUE_PRIOR_SD)
    assert cli._distance_from_args(fit) == cli._distance_from_args(ess) == DistanceFunction()
    # an unset study parameter is the study's own default, which simulate reads from STUDY_DEFAULT
    assert (sim.q, sim.prevalence, sim.psi) == (None, None, None)
    sim1, sim2, sim3 = simulation.Sim1Config(n=5), simulation.Sim2Config(n=5), simulation.Sim3Config(n=5)
    assert simulation.STUDY_DEFAULT == {"sim1": sim1.q, "sim2": sim2.prevalence, "sim3": sim3.contamination}
    assert sim1.seed == sim2.seed == sim3.seed == sim.seed  # one seed default for the three studies
    assert (rep.scale, rep.seed, rep.lambda_grid) == tuple(
        reproduce_defaults[name].default for name in ("scale", "seed", "lambda_grid"))
    assert fit.outcome_col == ev.outcome_col == dataio.OUTCOME_COLUMN
    assert ev.prob_col == dataio.PROB_COLUMN


@pytest.mark.parametrize("command", ["fit", "evaluate", "ess-grid"])
def test_threshold_outside_the_unit_interval_is_usage_error_before_any_file_is_read(tmp_path, capsys, command):
    missing = tmp_path / "missing.csv"
    args = {"fit": ["fit", missing, "--t", 1.5],
            "evaluate": ["evaluate", "--scored-a", missing, "--thresholds", "0.3,1.0"],
            "ess-grid": ["ess-grid", "--pi-u-file", missing, "--t", 1.5]}[command]
    assert run([*args, "--out", tmp_path / "out"]) == 2
    bad = 1.0 if command == "evaluate" else 1.5
    assert capsys.readouterr().err == f"error: target threshold must lie strictly in (0, 1), got {bad}\n"
    assert list(tmp_path.iterdir()) == []


def _no_fit(*args, **kwargs):
    raise AssertionError("a usage error must be raised before any fit")


def _no_chain(*args, **kwargs):
    raise AssertionError("the error must be raised before any chain runs")


def _forbid_chains(monkeypatch):
    """Fail on any MH chain, stage 1's included: every chain runs in sampler._run_chains, which tuning imports."""
    monkeypatch.setattr(sampler, "_run_chains", _no_chain)
    monkeypatch.setattr(tuning, "_run_chains", _no_chain)


@pytest.mark.parametrize("command", ["fit", "ess-grid"])
def test_nan_epsilon_is_usage_error_before_any_fit(tmp_path, train_csv, capsys, monkeypatch, command):
    monkeypatch.setattr(cli, "fit_pipeline", _no_fit)
    _forbid_chains(monkeypatch)
    out = tmp_path / "out"
    if command == "fit":
        args = ["fit", train_csv, "--t", 0.3, "--jobs", 1, *FIT_SPEED]
    else:
        pi = tmp_path / "pi.csv"
        pi.write_text("pi_u\n0.1\n0.4\n", encoding="utf-8")
        args = ["ess-grid", "--pi-u-file", pi, "--t", 0.3]
    assert run([*args, "--distance", "epsilon-insensitive", "--epsilon", "nan", "--out", out]) == 2
    assert "epsilon must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "ess-grid"])
def test_infinite_epsilon_is_usage_error_before_any_fit(tmp_path, train_csv, capsys, monkeypatch, command):
    # written to the fit manifest, an infinite epsilon would be Infinity, which is not JSON
    monkeypatch.setattr(cli, "fit_pipeline", _no_fit)
    _forbid_chains(monkeypatch)
    pi = tmp_path / "pi.csv"
    pi.write_text("pi_u\n0.1\n0.4\n", encoding="utf-8")
    args = {"fit": ["fit", train_csv, "--t", 0.3, "--jobs", 1, *FIT_SPEED],
            "ess-grid": ["ess-grid", "--pi-u-file", pi, "--t", 0.3]}[command]
    out = tmp_path / "out"
    assert run([*args, "--distance", "epsilon-insensitive", "--epsilon", "inf", "--out", out]) == 2
    assert capsys.readouterr().err == "error: epsilon must be finite, got inf\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "ess-grid"])
def test_epsilon_with_squared_distance_is_usage_error_before_any_fit(tmp_path, train_csv, capsys, monkeypatch,
                                                                      command):
    monkeypatch.setattr(cli, "fit_pipeline", _no_fit)
    _forbid_chains(monkeypatch)
    pi = tmp_path / "pi.csv"
    pi.write_text("pi_u\n0.1\n0.4\n", encoding="utf-8")
    args = {"fit": ["fit", train_csv, "--t", 0.3, "--jobs", 1, *FIT_SPEED],
            "ess-grid": ["ess-grid", "--pi-u-file", pi, "--t", 0.3]}[command]
    out = tmp_path / "out"
    assert run([*args, "--distance", "squared", "--epsilon", 0.5, "--out", out]) == 2
    assert "squared distance takes no epsilon parameter" in capsys.readouterr().err
    assert not out.exists()
    if command == "ess-grid":  # an epsilon of 0 is the squared distance's own
        assert run([*args, "--distance", "squared", "--epsilon", 0, "--out", out]) == 0


@pytest.mark.parametrize("command", ["fit", "fit-under-file", "evaluate", "reproduce"])
def test_out_that_is_a_file_is_usage_error_before_any_work(tmp_path, train_csv, capsys, monkeypatch, command):
    monkeypatch.setattr(cli, "fit_pipeline", _no_fit)
    _forbid_chains(monkeypatch)
    monkeypatch.setattr(cli, "reproduce_figure", _no_fit)
    taken = tmp_path / "taken"
    taken.write_text("keep\n", encoding="utf-8")
    scored = tmp_path / "scored.csv"
    scored.write_text("prob,y\n0.4,1\n0.2,0\n", encoding="utf-8")
    before = sorted(tmp_path.rglob("*"))
    out = taken / "sub" if command == "fit-under-file" else taken
    if command.startswith("fit"):
        args = ["fit", train_csv, "--t", 0.3, "--jobs", 1, *FIT_SPEED]
    elif command == "evaluate":
        args = ["evaluate", "--scored-a", scored, "--thresholds", 0.3]
    else:
        args = ["reproduce", "--figure", "sim3-fig6", "--scale", 0.1, "--jobs", 1, "--n-list", "200",
                "--psi-list", "0.1", "--t-list", "0.3", "--lambda-grid", "0,10"]
    assert run([*args, "--out", out]) == 2
    assert capsys.readouterr().err == f"error: --out {out}: {taken} exists and is not a directory\n"
    assert sorted(tmp_path.rglob("*")) == before
    assert taken.read_text(encoding="utf-8") == "keep\n"


def test_a_lost_worker_is_one_error_line_and_exit_1(tmp_path, capsys, monkeypatch):
    def lost(*args, **kwargs):
        raise WorkerLostError("a worker process died (killed, out of memory or crashed), "
                              "so the result of task 3 of 5 was lost")

    monkeypatch.setattr(cli, "reproduce_figure", lost)
    assert run(["reproduce", "--figure", "sim3-fig6", "--scale", 0.1, "--jobs", 2, "--out", tmp_path / "out"]) == 1
    assert capsys.readouterr().err == ("error: a worker process died (killed, out of memory or crashed), "
                                       "so the result of task 3 of 5 was lost\n")


def test_a_worker_that_dies_in_reproduce_is_one_error_line_naming_its_repetition(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(tuning, "USABLE_CPUS", 2)
    monkeypatch.setattr(reproduce, "_rep_worker", exit_in_worker)
    assert run(["reproduce", "--figure", "sim3-fig6", "--scale", 0.1, "--jobs", 2, "--n-list", "200",
                "--psi-list", "0.1", "--t-list", "0.3", "--out", tmp_path / "out"]) == 1
    assert capsys.readouterr().err == ("error: a worker process died (killed, out of memory or crashed), "
                                       "so the result of repetition 0 of the cell n=200, psi=0.1 was lost\n")


@pytest.mark.parametrize(
    "command, case",
    [
        ("predict", "directory"),
        ("predict", "missing-parent"),
        ("simulate", "directory"),
        ("simulate", "meta-directory"),
        ("simulate", "missing-parent"),
        ("ess-grid", "directory"),
        ("ess-grid", "missing-parent"),
    ],
)
def test_unwritable_out_file_is_usage_error_before_any_work(tmp_path, capsys, monkeypatch, command, case):
    for work in ("load_fit", "study", "ess_grid"):
        monkeypatch.setattr(cli, work, _no_fit)
    pi = tmp_path / "pi.csv"
    pi.write_text("pi_u\n0.1\n0.4\n", encoding="utf-8")
    out = tmp_path / ("nodir/out.csv" if case == "missing-parent" else "out.csv")
    bad = tmp_path / "out.csv.meta.json" if case == "meta-directory" else out
    if case != "missing-parent":
        bad.mkdir()
    before = sorted(tmp_path.rglob("*"))
    if command == "predict":
        args = ["predict", "--model", tmp_path / "model", "--data", pi]
    elif command == "simulate":
        args = ["simulate", "--study", "sim1", "--n", 50, "--seed", 1]
    else:
        args = ["ess-grid", "--pi-u-file", pi, "--t", 0.3]
    assert run([*args, "--out", out]) == 2
    if case == "missing-parent":
        expected = f"error: --out {out}: {out.parent} is not an existing directory\n"
    else:
        expected = f"error: --out {bad} is a directory\n"
    assert capsys.readouterr().err == expected
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize(
    "command, problem",
    [("fit", "directory"), ("fit", "not-utf8"), ("fit --pi-u-file", "directory"),
     ("fit --pi-u-file", "not-utf8"), ("predict --data", "directory"), ("predict --data", "not-utf8"),
     ("predict --model", "directory"), ("evaluate --scored-a", "directory"),
     ("evaluate --scored-a", "not-utf8"), ("ess-grid --pi-u-file", "directory"),
     ("ess-grid --pi-u-file", "not-utf8")],
)
def test_unreadable_input_is_data_error(tmp_path, train_csv, capsys, command, problem):
    # the file is a directory or holds a byte that is not UTF-8; predict --model reads <model>/manifest.json
    bad = tmp_path / "model" / "manifest.json" if command == "predict --model" else tmp_path / "bad.csv"
    bad.parent.mkdir(exist_ok=True)
    if problem == "directory":
        bad.mkdir()
    else:
        bad.write_bytes(b"x1,x2,y,prob,pi_u\n0.5,0.\xff,1,0.5,0.5\n")
    out = tmp_path / "out"
    args = {
        "fit": ["fit", bad, "--t", 0.3],
        "fit --pi-u-file": ["fit", train_csv, "--t", 0.3, "--pi-u-file", bad, "--jobs", 1, *FIT_SPEED],
        "predict --data": lambda: ["predict", "--model", fit_artifact(tmp_path, train_csv, "m"), "--data", bad],
        "predict --model": ["predict", "--model", bad.parent, "--data", train_csv],
        "evaluate --scored-a": ["evaluate", "--scored-a", bad, "--thresholds", 0.3],
        "ess-grid --pi-u-file": ["ess-grid", "--pi-u-file", bad, "--t", 0.3],
    }[command]
    args = args() if callable(args) else args
    capsys.readouterr()
    assert run([*args, "--out", out]) == 3
    err = capsys.readouterr().err
    if problem == "directory":
        assert err == f"data error: [Errno 21] Is a directory: '{bad}'\n"
    else:
        assert err.startswith(f"data error: {bad}: not UTF-8 text: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["predict", "evaluate", "ess-grid"])
def test_non_finite_input_number_is_data_error(tmp_path, train_csv, command):
    bad = tmp_path / "bad.csv"
    out = tmp_path / "out"
    if command == "predict":
        bad.write_text("x1,x2\n0.5,0.5\n0.5,nan\n", encoding="utf-8")
        args = ["predict", "--model", fit_artifact(tmp_path, train_csv), "--data", bad, "--out", out]
    elif command == "evaluate":
        bad.write_text("prob,y\n0.4,1\nnan,0\n", encoding="utf-8")
        args = ["evaluate", "--scored-a", bad, "--thresholds", 0.3, "--out", out]
    else:
        bad.write_text("pi_u\n0.2\nnan\n", encoding="utf-8")
        args = ["ess-grid", "--pi-u-file", bad, "--t", 0.3, "--out", out]
    assert run(args) == 3
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "fit --pi-u-file", "predict --data", "evaluate --scored-a",
                                     "ess-grid --pi-u-file"])
def test_header_only_input_is_data_error(tmp_path, train_csv, capsys, command):
    bad = tmp_path / "bad.csv"
    bad.write_text("x1,x2,y,prob,pi_u\n", encoding="utf-8")
    out = tmp_path / "out"
    args = {
        "fit": lambda: ["fit", bad, "--t", 0.3],
        "fit --pi-u-file": lambda: ["fit", train_csv, "--t", 0.3, "--pi-u-file", bad, "--jobs", 1, *FIT_SPEED],
        "predict --data": lambda: ["predict", "--model", fit_artifact(tmp_path, train_csv), "--data", bad],
        "evaluate --scored-a": lambda: ["evaluate", "--scored-a", bad, "--thresholds", 0.3],
        "ess-grid --pi-u-file": lambda: ["ess-grid", "--pi-u-file", bad, "--t", 0.3],
    }[command]()
    capsys.readouterr()
    assert run([*args, "--out", out]) == 3
    assert capsys.readouterr().err == f"data error: {bad}: no data rows\n"
    assert not out.exists()


@pytest.mark.parametrize("outcome", ["1.0", "1e0", "true"])
def test_scored_outcome_that_is_not_the_literal_zero_or_one_is_data_error(tmp_path, capsys, outcome):
    bad = tmp_path / "scored.csv"
    bad.write_text(f"prob,y\n0.4,1\n0.7,{outcome}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run(["evaluate", "--scored-a", bad, "--thresholds", 0.3, "--out", out]) == 3
    assert capsys.readouterr().err == f"data error: {bad}: '{outcome}' in column 'y', row 3 is not the literal 0 or 1\n"
    assert not out.exists()


def _permuted_csv(tmp_path, train_csv):
    """``train_csv`` with its covariate columns swapped: x2, x1, y."""
    permuted = tmp_path / "permuted.csv"
    header, rows = _read_csv(train_csv)
    order = [header.index("x2"), header.index("x1"), header.index("y")]
    lines = [",".join(header[i] for i in order)]
    lines += [",".join(row[i] for i in order) for row in rows]
    permuted.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return permuted


def _read_csv(path):
    import csv

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [row for row in reader if row]


# derandomized: every run tries the same examples, so the suite stays deterministic
PROPERTY = settings(derandomize=True, max_examples=50, deadline=None, database=None)


@PROPERTY
@given(lo=st.floats(0.0, 0.99), width=st.floats(0.0, 0.99), step=st.floats(1e-4, 0.5))
def test_threshold_range_is_ascending_from_lo_to_hi(lo, width, step):
    hi = lo + width
    values = cli._thresholds(f"{lo}:{hi}:{step}")
    assert len(values) == math.ceil((hi + step / 2 - lo) / step) <= cli.MAX_THRESHOLDS
    assert values[0] == pytest.approx(lo, abs=1e-12)
    assert all(a < b for a, b in zip(values, values[1:]))
    assert abs(values[-1] - hi) <= step / 2 + 1e-12


@PROPERTY
@given(
    lo=st.floats(-1.0, 1.0),
    hi=st.floats(-1.0, 1.0),
    step=st.floats(-1.0, 1.0),
    form=st.sampled_from(["{lo}:{hi}:{step}", "{lo}:{hi}", "{lo}:{hi}:{step}:{step}", "{lo}:x:{step}"]),
)
def test_malformed_threshold_range_raises(lo, hi, step, form):
    assume(not (form == "{lo}:{hi}:{step}" and step > 0 and 0 < (hi + step / 2 - lo) / step <= cli.MAX_THRESHOLDS))
    with pytest.raises(argparse.ArgumentTypeError):
        cli._thresholds(form.format(lo=lo, hi=hi, step=step))


@PROPERTY
@given(
    seed=st.integers(0, 10**6),
    explicit=st.none() | st.integers(0, 10**6),
    standardize=st.booleans(),
    upper=st.booleans(),
    padding=st.lists(st.sampled_from(["", "   ", "# seed = 1", "  # standardize = true"]), max_size=3),
)
def test_config_file_flags_yield_to_explicit_ones(seed, explicit, standardize, upper, padding):
    value = str(standardize).upper() if upper else str(standardize).lower()
    lines = [*padding, f"seed = {seed}", *padding, f"standardize={value}", *padding]
    argv = ["fit", "d.csv", "--out", "m", *([] if explicit is None else ["--seed", str(explicit)])]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv[2:2] = ["--config", str(path)]
        flags = cli._apply_config_file(argv)
    # comments and blank lines add nothing, true adds the bare flag and false none, all ahead of argv's flags
    assert flags == argv[:1] + ["--seed", str(seed)] + ["--standardize"] * standardize + argv[1:]
    args = cli.build_parser().parse_args(flags)
    assert args.seed == (seed if explicit is None else explicit)
    assert args.standardize is standardize
