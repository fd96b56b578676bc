"""The fit artifact, the directory ``fit`` writes and ``predict`` and ``evaluate`` score with.

It holds ``manifest.json`` (configuration, seeds, chain diagnostics),
``draws.csv``, ``weights.csv`` (first-stage probability, empty for a
one-value grid without stage 1, and weight per development row) and
``ess_table.csv``.  Only this module knows these
file names and the manifest's fields.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__, dataio
from .errors import DataError
from .model_core import UtilitySpec
from .sampler import TARGET_ACCEPTANCE, PosteriorSamples, SamplerConfig
from .tuning import FittedTailoredModel

__all__ = ["LoadedFit", "save_fit", "load_fit"]


def _sampler_block(config: SamplerConfig) -> dict:
    return {key: getattr(config, key) for key in ("n_iterations", "burn_in", "thin", "initial_sd")}


def save_fit(
    out: Path, model: FittedTailoredModel, *, data_path, outcome_col: str, covariates: list[str],
    utilities: UtilitySpec | None, design_fraction: float, standardizer: dataio.Standardizer | None,
    external_pi_u, rhat: tuple[np.ndarray, list[int]] | None,
) -> None:
    """Write the artifact of ``model`` into the directory ``out``, creating it.

    The keywords are what the model does not hold: the training file, its schema and settings as given
    (``design_fraction`` even where external first-stage probabilities skip the split), and the (R-hat,
    rerun seeds) pair of :func:`~tailbayes.tuning.final_fit_rhat` or None.  ``seeds`` lists the chains that ran.
    """
    first = model.first
    base, split = first.sampler_config.rng_seed, first.split
    manifest = {
        "tool": "tailbayes",
        "version": __version__,
        "command": "fit",
        "data": {"path": str(data_path), "n": split.design_idx.size + split.development_idx.size,
                 "outcome_col": outcome_col, "covariates": covariates},
        "threshold": model.threshold.t,
        "utilities": asdict(utilities) if utilities else None,
        "lambda_grid": list(first.cv_plan.lambda_grid),
        "lambda_star": model.lambda_star,
        "k_folds": first.cv_plan.k,
        "design_fraction": design_fraction,
        "distance": asdict(model.distance),
        "prior": {"means": first.prior.means.tolist(), "sds": first.prior.sds.tolist()},
        "standardize": standardizer.to_dict() if standardizer else None,
        "external_pi_u": str(external_pi_u) if external_pi_u else None,
        "sampler": dict(_sampler_block(first.sampler_config), target_acceptance=TARGET_ACCEPTANCE),
        "cv_sampler": _sampler_block(first.cv_config) if model.cv_table else None,
        "seeds": {"base": base, "split": base, "final_fit": model.samples.rng_seed,
                  "stage1": None if first.stage1 is None else first.stage1.rng_seed,
                  "cv_folds": list({row["fold"]: row["seed"] for row in model.cv_table}.values()),
                  "rhat_chains": [] if rhat is None else rhat[1]},
        "split": {"design_rows": split.design_idx.size, "development_rows": split.development_idx.size,
                  "indices_sha256": split.digest()},
        "cv_table": model.cv_table,
        "ess_t": model.ess_t,
        "ess_fraction": model.ess_fraction,
        "ess_grid": model.ess_grid,
        "chain": {"acceptance_rate": model.samples.acceptance_rate,
                  "final_proposal_sd": model.samples.final_proposal_sd,
                  "retained_draws": model.samples.n_draws,
                  "nonfinite_proposals": model.samples.n_nonfinite_proposals},
        "rhat": None if rhat is None else rhat[0].tolist(),
    }
    out.mkdir(parents=True, exist_ok=True)
    dataio.write_manifest(out / "manifest.json", manifest)
    dataio.write_draws_csv(out / "draws.csv", ["intercept"] + covariates, model.samples.draws)
    pi_u = [None] * split.development_idx.size if first.pi_u_development is None else first.pi_u_development.tolist()
    dataio.write_rows(
        out / "weights.csv",
        ["row", "pi_u", "weight"],  # a pi_u cell is empty where no stage 1 ran
        zip(split.development_idx.tolist(), pi_u, model.weights.tolist()),
    )
    dataio.write_ess_table(out / "ess_table.csv", model.ess_grid)


@dataclass(frozen=True)
class LoadedFit:
    """What scoring needs from an artifact: the covariate schema, threshold, z-scoring and draws."""

    covariates: list[str]
    outcome_col: str
    threshold: float
    standardizer: dataio.Standardizer | None
    samples: PosteriorSamples

    def design(self, raw_x: np.ndarray) -> np.ndarray:
        """The design matrix of covariates in the file's units: z-scored as in the fit, intercept first."""
        if self.standardizer is not None:
            raw_x = self.standardizer.transform(raw_x)
        return np.hstack([np.ones((raw_x.shape[0], 1)), raw_x])


def load_fit(model_dir) -> LoadedFit:
    """Read and check the artifact in ``model_dir``; DataError names the file or the manifest field at fault."""
    path = Path(model_dir) / "manifest.json"
    manifest = dataio.read_manifest(path)
    if not isinstance(manifest, dict) or manifest.get("command") != "fit":
        raise DataError(f"{path}: not a manifest written by fit")

    def field(keys: str, kinds):
        value = manifest
        for key in keys.split("."):
            if not isinstance(value, dict) or key not in value:
                raise DataError(f"{path}: fit manifest has no {keys!r}")
            value = value[key]
        if not isinstance(value, kinds) or isinstance(value, bool):
            raise DataError(f"{path}: fit manifest field {keys!r} has the wrong type")
        return value

    covariates = field("data.covariates", list)
    outcome_col = field("data.outcome_col", str)
    standardize = field("standardize", (dict, type(None)))
    if standardize is not None:
        for key in ("means", "sds"):
            values = field(f"standardize.{key}", list)
            if len(values) != len(covariates) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
                for v in values
            ):
                raise DataError(f"{path}: fit manifest field 'standardize.{key}' needs "
                                f"one finite number per covariate")
        if any(v <= 0.0 for v in standardize["sds"]):
            raise DataError(f"{path}: fit manifest field 'standardize.sds' must be positive")
    threshold = field("threshold", (int, float))
    if not 0.0 < threshold < 1.0:  # NaN too
        raise DataError(f"{path}: fit manifest field 'threshold' must lie strictly in (0, 1), got {threshold}")
    header, draws = dataio.read_draws_csv(path.parent / "draws.csv")
    expected = ["intercept"] + covariates
    if header != expected:
        raise DataError(f"draws.csv columns {header} do not match the manifest {expected}")
    samples = PosteriorSamples(
        draws=draws,
        acceptance_rate=field("chain.acceptance_rate", (int, float)),
        final_proposal_sd=field("chain.final_proposal_sd", (int, float)),
        rng_seed=field("seeds.final_fit", int),
        log_posterior_trace=np.full(draws.shape[0], np.nan),
    )
    standardizer = dataio.Standardizer.from_dict(standardize) if standardize is not None else None
    return LoadedFit(covariates, outcome_col, threshold, standardizer, samples)
