"""Command-line front end.

Subcommands: fit, predict, evaluate, simulate, reproduce, ess-grid.
``fit``, ``simulate`` and ``reproduce`` also write a manifest capturing
the full configuration and all seeds, so their outputs are reproducible
from the manifest alone.  Exit codes: 0 success, 2 usage or configuration
error, 3 data error, 4 sampler failure, 1 anything else.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from . import __version__, dataio
from .artifact import load_fit, save_fit
from .errors import ConfigError, DataError, SamplerError, TailbayesError
from .evaluation import net_benefit_tables
from .model_core import (VAGUE_PRIOR_SD, Dataset, DistanceFunction, GaussianPrior, TargetThreshold, UtilitySpec,
                         compute_weights, target_threshold)
from .predict import positive_mask, predictive_mean, predictive_mean_sd
from .reproduce import DEFAULT_SCALE, DEFAULT_SEED, FIGURES, reproduce_figure
from .sampler import SamplerConfig, _check_draw_store
from .simulation import STUDY_DEFAULT, STUDY_PARAMETER, Sim1Config, study
from .tuning import (DEFAULT_DESIGN_FRACTION, DEFAULT_K_FOLDS, DEFAULT_LAMBDA_GRID, USABLE_CPUS, ess_grid,
                     final_fit_rhat, first_stage, fit_pipeline)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_SAMPLER = 4
MAX_THRESHOLDS = 10_000  # a lo:hi:step range of more values is a usage error
# the grid keys of reproduce's figures, t last, each overridden by its own --KEY-list flag
OVERRIDE_KEYS = sorted(dict.fromkeys(key for _, grid in FIGURES.values() for key in grid), key=lambda key: key == "t")


def _csv_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


def _jobs(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def _thresholds(text: str) -> tuple[float, ...]:
    """Parse '0.1,0.2,...' or 'lo:hi:step' (inclusive endpoints, at most ``MAX_THRESHOLDS`` values)."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError("range form is lo:hi:step")
        try:
            lo, hi, step = (float(p) for p in parts)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a lo:hi:step range of floats: {text!r}")
        if step <= 0 or hi < lo:
            raise argparse.ArgumentTypeError("need lo <= hi and step > 0")
        count = (hi + step / 2 - lo) / step  # np.arange's length is its ceiling; NaN if a bound is not finite
        if not 0 < count <= MAX_THRESHOLDS:
            raise argparse.ArgumentTypeError(f"{text!r} does not give from 1 to {MAX_THRESHOLDS} thresholds")
        return tuple(np.round(np.arange(lo, hi + step / 2, step), 12))
    values = _csv_floats(text)
    if not values:
        raise argparse.ArgumentTypeError("need at least one threshold")
    return values


def _distance_flags(parser) -> None:
    """``--distance`` and ``--epsilon``, defaulting to :class:`DistanceFunction`'s own defaults."""
    parser.add_argument("--distance", choices=["squared", "epsilon-insensitive"],
                        default=DistanceFunction.kind.replace("_", "-"))
    parser.add_argument("--epsilon", type=float, default=DistanceFunction.epsilon)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailbayes",
        description=(
            "Bayesian logistic regression tailored to a decision threshold, "
            "with Net Benefit based tuning and evaluation"
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # no abbreviated flags: _apply_config_file must see every --config, and argparse would read --conf as one
    fit = sub.add_parser("fit", help="fit a tailored model and write the artifact", allow_abbrev=False)
    fit.add_argument("data", help="training data CSV (header row required)")
    fit.add_argument("--config", help="key=value file supplying flag defaults")
    fit.add_argument("--out", required=True, help="output directory for the model artifact")
    fit.add_argument("--outcome-col", default=dataio.OUTCOME_COLUMN)
    group = fit.add_mutually_exclusive_group()
    group.add_argument("--t", type=float, help="target threshold in (0, 1)")
    group.add_argument(
        "--utilities",
        type=_csv_floats,
        metavar="UTP,UFP,UFN,UTN",
        help="four classification utilities from which the threshold is derived",
    )
    fit.add_argument("--lambda-grid", type=_csv_floats, default=DEFAULT_LAMBDA_GRID)
    fit.add_argument("--k-folds", type=int, default=DEFAULT_K_FOLDS)
    fit.add_argument("--design-fraction", type=float, default=DEFAULT_DESIGN_FRACTION)
    _distance_flags(fit)
    fit.add_argument("--iterations", type=int, default=SamplerConfig.n_iterations)
    fit.add_argument("--burn-in", type=int, default=SamplerConfig.burn_in)
    fit.add_argument("--thin", type=int, default=SamplerConfig.thin)
    fit.add_argument("--initial-sd", type=float, default=SamplerConfig.initial_sd)
    fit.add_argument("--cv-iterations", type=int, help="chain length for CV cells (default: same)")
    fit.add_argument("--cv-burn-in", type=int)
    fit.add_argument("--prior-sd", type=float, default=VAGUE_PRIOR_SD)
    fit.add_argument("--seed", type=int, default=SamplerConfig.rng_seed)
    fit.add_argument("--jobs", type=_jobs, default=USABLE_CPUS)
    fit.add_argument("--standardize", action="store_true", help="z-score covariates (recorded in the artifact)")
    fit.add_argument("--pi-u-file", help="external first-stage probabilities (skips the design split)")
    fit.add_argument("--rhat-chains", type=int, default=0, help="R-hat chains, final chain included: 0 or >= 2")

    pred = sub.add_parser("predict", help="score new rows with a fitted artifact")
    pred.add_argument("--model", required=True, help="artifact directory written by fit")
    pred.add_argument("--data", required=True, help="CSV with the fitted covariate schema")
    pred.add_argument("--out", required=True, help="output predictions CSV")

    ev = sub.add_parser(
        "evaluate", help="Net Benefit tables from scored files or model artifacts"
    )
    ev.add_argument("--scored-a", action="append", metavar="CSV",
                    help="scored file for model A (repeat per split)")
    ev.add_argument("--scored-b", action="append", default=None, metavar="CSV",
                    help="scored file for model B (repeat per split)")
    ev.add_argument("--model-a", metavar="DIR", help="artifact directory for model A")
    ev.add_argument("--model-b", metavar="DIR", help="artifact directory for model B")
    ev.add_argument("--data", action="append", metavar="CSV",
                    help="labelled data scored by --model-a/--model-b (repeat per split)")
    ev.add_argument("--label-a", default="model_a")
    ev.add_argument("--label-b", help="model B's label (default: model_b); needs --scored-b or --model-b")
    ev.add_argument("--prob-col", default=dataio.PROB_COLUMN)
    ev.add_argument("--outcome-col", default=dataio.OUTCOME_COLUMN)
    ev.add_argument("--thresholds", type=_thresholds, required=True)
    ev.add_argument("--out", required=True, help="output directory")

    sim = sub.add_parser("simulate", help="generate a synthetic benchmark dataset")
    sim.add_argument("--study", choices=["sim1", "sim2", "sim3"], required=True)
    sim.add_argument("--n", type=int, required=True)
    # each study takes only its own parameter; an unset one is the study's default (STUDY_DEFAULT)
    sim.add_argument("--q", type=float, help="sim1 class-balance scalar")
    sim.add_argument("--prevalence", type=float, help="sim2 class prior")
    sim.add_argument("--psi", type=float, help="sim3 contamination fraction")
    sim.add_argument("--seed", type=int, default=Sim1Config.seed)
    sim.add_argument("--with-oracle", action="store_true", help="include the true probability column")
    sim.add_argument("--out", required=True, help="output CSV path")

    rep = sub.add_parser("reproduce", help="rerun a benchmark figure grid at desk scale")
    rep.add_argument("--figure", choices=list(FIGURES), required=True)
    rep.add_argument("--scale", type=float, default=DEFAULT_SCALE,
                     help="fraction of the full 20 repetitions per cell")
    rep.add_argument("--seed", type=int, default=DEFAULT_SEED)
    rep.add_argument("--jobs", type=_jobs, default=USABLE_CPUS)
    rep.add_argument("--lambda-grid", type=_csv_floats, default=DEFAULT_LAMBDA_GRID)
    for key in OVERRIDE_KEYS:
        rep.add_argument(f"--{key}-list", type=_csv_floats)
    rep.add_argument("--out", required=True, help="output directory")

    essp = sub.add_parser("ess-grid", help="effective sample size per lambda, before any fit")
    essp.add_argument("--pi-u-file", required=True)
    essp.add_argument("--t", type=float, required=True)
    essp.add_argument("--lambda-grid", type=_csv_floats, default=DEFAULT_LAMBDA_GRID)
    _distance_flags(essp)
    essp.add_argument("--out", required=True, help="output CSV path")

    return parser


def _apply_config_file(argv: list[str]) -> list[str]:
    """Inject a ``fit`` config file's key=value entries as flags ahead of the user's flags.

    Only ``fit`` takes ``--config``; another command's argv is returned as it is, for argparse to refuse the flag.
    A second ``--config``, and a key that is not a ``fit`` flag, are usage errors.
    """
    if argv[:1] != ["fit"]:
        return argv
    given = [i for i, arg in enumerate(argv) if arg == "--config" or arg.startswith("--config=")]
    if len(given) > 1:
        raise ConfigError(f"--config may be given once, not {len(given)} times")
    if not given:
        return argv
    idx = given[0]
    if argv[idx] != "--config":
        path = argv[idx].split("=", 1)[1]
    elif idx + 1 < len(argv):
        path = argv[idx + 1]
    else:
        return argv
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # a byte-order mark is not part of the first key
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    subcommands = next(action for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction))
    fit_flags = set(subcommands.choices["fit"]._option_string_actions) - {"-h", "--help"}
    flags: list[str] = []
    for line_no, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        flag = "--" + key.replace("_", "-")
        if flag == "--config":
            raise ConfigError(f"{path}:{line_no}: a config file cannot name another config file")
        if flag not in fit_flags:
            raise ConfigError(f"{path}:{line_no}: {key!r} is not a fit flag")
        if value.lower() in ("true", "false"):
            if value.lower() == "true":
                flags.append(flag)
        else:
            flags.extend([flag, value])
    # config values go first so explicit flags win
    return argv[:1] + flags + argv[1:]


def _out_dir(path) -> Path:
    """The ``--out`` directory; ConfigError if it, or its nearest existing ancestor, is not a directory."""
    out = Path(path)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"--out {path}: {existing} exists and is not a directory")
    return out


def _out_file(*paths) -> None:
    """ConfigError unless each path can be written as a file: not a directory, in an existing directory."""
    for path in map(Path, paths):
        if path.is_dir():
            raise ConfigError(f"--out {path} is a directory")
        if not path.parent.is_dir():
            raise ConfigError(f"--out {path}: {path.parent} is not an existing directory")


def _distance_from_args(args) -> DistanceFunction:
    return DistanceFunction(args.distance.replace("-", "_"), args.epsilon)


def _resolve_threshold(args) -> tuple[TargetThreshold, UtilitySpec | None]:
    if (args.t is None) == (args.utilities is None):
        raise ConfigError("exactly one of --t and --utilities must be given")
    if args.t is not None:
        return TargetThreshold(args.t), None
    if len(args.utilities) != 4:
        raise ConfigError("--utilities needs exactly four values: UTP,UFP,UFN,UTN")
    spec = UtilitySpec(*args.utilities)
    return target_threshold(spec), spec


def _write_tables(out: Path, tables: dict) -> None:
    """Write each table the library returns, file name -> (header, rows), into the ``--out`` directory."""
    out.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in tables.items():
        dataio.write_rows(out / name, header, rows)


def cmd_fit(args) -> int:
    if args.rhat_chains != 0 and args.rhat_chains < 2:
        raise ConfigError(
            f"--rhat-chains counts the final chain, so it must be 0 or at least 2, got {args.rhat_chains}"
        )
    threshold, utilities = _resolve_threshold(args)
    distance = _distance_from_args(args)
    out = _out_dir(args.out)
    raw_x, y, names, _ = dataio.read_dataset_csv(args.data, args.outcome_col)

    standardizer = dataio.Standardizer.fit(raw_x) if args.standardize else None
    train = Dataset.from_raw(standardizer.transform(raw_x) if standardizer else raw_x, y)
    external_pi_u = dataio.read_pi_u_csv(args.pi_u_file, expected_rows=train.n) if args.pi_u_file else None

    sampler_config = SamplerConfig(
        n_iterations=args.iterations,
        burn_in=args.burn_in,
        thin=args.thin,
        initial_sd=args.initial_sd,
        rng_seed=args.seed,
    )
    # final_fit_rhat holds the final chain's and its reruns' draws at once
    _check_draw_store(args.rhat_chains, train.n_coefficients, sampler_config)
    prior = GaussianPrior.vague(train.n_coefficients, sd=args.prior_sd)

    first = first_stage(
        train,
        lambda_grid=args.lambda_grid,
        k_folds=args.k_folds,
        design_fraction=args.design_fraction,
        sampler_config=sampler_config,
        cv_chain=(
            args.cv_iterations if args.cv_iterations is not None else args.iterations,
            args.cv_burn_in if args.cv_burn_in is not None else args.burn_in,
        ),
        prior=prior,
        external_pi_u=external_pi_u,
        jobs=args.jobs,
    )
    model = fit_pipeline(first, threshold, distance=distance)

    rhat = final_fit_rhat(model, args.rhat_chains) if args.rhat_chains else None
    save_fit(out, model, data_path=args.data, outcome_col=args.outcome_col, covariates=names,
             utilities=utilities, design_fraction=args.design_fraction, standardizer=standardizer,
             external_pi_u=args.pi_u_file, rhat=rhat)
    print(f"fitted lambda*={model.lambda_star} ess={model.ess_t:.1f} -> {out}")
    return EXIT_OK


def cmd_predict(args) -> int:
    _out_file(args.out)
    fit = load_fit(args.model)
    raw_x, ids = dataio.read_covariates_csv(args.data, fit.covariates, fit.outcome_col)
    means, sds = predictive_mean_sd(fit.design(raw_x), fit.samples)
    labels = np.where(positive_mask(means, fit.threshold), "positive", "negative")
    dataio.write_rows(
        args.out,
        ["id", "mean_probability", "predictive_sd", "classification"],
        zip(ids, means.tolist(), sds.tolist(), labels.tolist()),
    )
    print(f"wrote {len(ids)} predictions -> {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    scored_mode = args.scored_a is not None
    model_mode = args.model_a is not None
    if scored_mode == model_mode:
        raise ConfigError("supply either --scored-a files or --model-a with --data")
    other_mode = {"--scored-b": args.scored_b} if model_mode else {"--model-b": args.model_b, "--data": args.data}
    stray = [flag for flag, value in other_mode.items() if value is not None]
    if stray:
        mode = "--model-a" if model_mode else "--scored-a"
        raise ConfigError(f"{' and '.join(stray)} cannot be used with {mode}")
    source_b = args.model_b if model_mode else args.scored_b
    if args.label_b is not None and not source_b:
        raise ConfigError(f"--label-b names model B, so it needs {'--model-b' if model_mode else '--scored-b'}")
    thresholds = [TargetThreshold(t) for t in args.thresholds]
    out = _out_dir(args.out)
    if model_mode and not args.data:
        raise ConfigError("--model-a needs at least one --data file")

    def scored(source) -> list:
        """(probabilities, outcomes) per split: the scored files, or each --data file scored by the artifact."""
        if not model_mode:
            return [dataio.read_scored_csv(p, args.prob_col, args.outcome_col) for p in source]
        fit = load_fit(source)
        splits = []
        for path in args.data:
            raw_x, y = dataio.read_labelled_covariates_csv(path, fit.covariates, fit.outcome_col)
            splits.append((predictive_mean(fit.design(raw_x), fit.samples), y))
        return splits

    model_a = (args.label_a, scored(args.model_a if model_mode else args.scored_a))
    model_b = ("model_b" if args.label_b is None else args.label_b, scored(source_b)) if source_b else None
    tables = net_benefit_tables(thresholds, model_a, model_b)
    _write_tables(out, tables)
    print("wrote " + ", ".join(str(out / name) for name in tables))
    return EXIT_OK


def cmd_simulate(args) -> int:
    key = STUDY_PARAMETER[args.study]
    stray = [f"--{k}" for k in STUDY_PARAMETER.values() if k != key and getattr(args, k) is not None]
    if stray:
        raise ConfigError(f"--study {args.study} varies only --{key}, so it takes no {' or '.join(stray)}")
    _out_file(args.out, str(args.out) + ".meta.json")
    param = STUDY_DEFAULT[args.study] if getattr(args, key) is None else getattr(args, key)
    generate, config = study(args.study, args.n, args.seed, param)
    data, oracle, *mask = generate(config)  # only sim3 returns a contamination mask
    meta = {"study": args.study, "n": args.n, key: param, "seed": args.seed,
            "oracle_included": args.with_oracle, "rows_written": data.n}

    dataio.write_simulated_csv(
        args.out,
        data,
        oracle=oracle if args.with_oracle else None,
        mask=mask[0] if (args.with_oracle and mask) else None,
    )
    dataio.write_manifest(str(args.out) + ".meta.json", meta)
    print(f"wrote {data.n} rows -> {args.out}")
    return EXIT_OK


def cmd_reproduce(args) -> int:
    overrides = {key: getattr(args, f"{key}_list") for key in OVERRIDE_KEYS}
    if overrides["n"]:
        if not all(v.is_integer() for v in overrides["n"]):
            raise ConfigError(f"--n-list values must be whole numbers, got {list(overrides['n'])}")
        overrides["n"] = tuple(int(v) for v in overrides["n"])
    out = _out_dir(args.out)
    result = reproduce_figure(
        args.figure,
        scale=args.scale,
        seed=args.seed,
        jobs=args.jobs,
        lambda_grid=args.lambda_grid,
        overrides=overrides,
    )
    _write_tables(out, result["tables"])
    dataio.write_manifest(out / "manifest.json", result["manifest"])
    print(f"wrote {len(result['raw'])} repetition rows -> {out}")
    return EXIT_OK


def cmd_ess_grid(args) -> int:
    _out_file(args.out)
    threshold, distance = TargetThreshold(args.t), _distance_from_args(args)
    pi_u = dataio.read_pi_u_csv(args.pi_u_file)
    weights = compute_weights(pi_u, threshold, args.lambda_grid, distance)
    rows = ess_grid(args.lambda_grid, weights)
    dataio.write_ess_table(args.out, rows)
    print(f"wrote {len(rows)} rows -> {args.out}")
    return EXIT_OK


_HANDLERS = {
    "fit": cmd_fit,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "simulate": cmd_simulate,
    "reproduce": cmd_reproduce,
    "ess-grid": cmd_ess_grid,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_file(argv)
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SamplerError as exc:
        print(f"sampler error: {exc}", file=sys.stderr)
        return EXIT_SAMPLER
    except TailbayesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
