"""Bayesian logistic regression tailored to a decision threshold.

Per-datapoint likelihood contributions are exponentially downweighted
by their first-stage probability's distance from the target threshold,
so the fit concentrates on the region of the covariate space where the
treat/no-treat decision is actually made.  Models are sampled with
random-walk Metropolis-Hastings, the decay rate is tuned by stratified
cross-validation on Net Benefit, and everything is reproducible from
recorded seeds.
"""

from .errors import (
    ConfigError,
    DataError,
    SamplerError,
    TailbayesError,
)
from .model_core import (
    Dataset,
    DistanceFunction,
    GaussianPrior,
    TargetThreshold,
    UtilitySpec,
    compute_weights,
    effective_sample_size,
    log_posterior_gradient,
    log_posterior_unnormalized,
    make_log_posterior,
    target_threshold,
    threshold_band_for_benefit,
)
from .sampler import (
    PosteriorSamples,
    SamplerConfig,
    run_mh,
)
from .predict import positive_mask, predictive_mean, predictive_mean_sd
from .evaluation import (
    NetBenefitReport,
    PairedDelta,
    net_benefit,
    paired_delta,
)
from .tuning import (
    DEFAULT_LAMBDA_GRID,
    CvPlan,
    FirstStage,
    FittedTailoredModel,
    SplitPlan,
    cv_select_lambda,
    ess_grid,
    first_stage,
    fit_pipeline,
    fit_standard,
    make_cv_plan,
    make_split,
    stage1_pi_u,
)
from .simulation import (
    Sim1Config,
    Sim2Config,
    Sim3Config,
    generate_sim1,
    generate_sim2,
    generate_sim3,
    optimal_nb,
)

__version__ = "0.1.0"
