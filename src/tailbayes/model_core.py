"""Domain types and pure math for threshold-tailored Bayesian logistic regression.

The model downweights each datapoint's log-likelihood contribution by
``w_i = exp(-lam * h(pi_u_i, t))`` where ``t`` is the decision threshold
implied by the misclassification utilities, ``pi_u_i`` is a first-stage
probability estimate for row ``i`` and ``h`` is a distance function.
The tailored log-posterior log p(beta) + sum_i w_i l_i(beta) is written
once, in the callable that :func:`make_log_posterior` returns;
:func:`log_posterior_unnormalized` evaluates one coefficient vector
through it, and :func:`log_posterior_gradient` is its independent
analytic gradient.  Everything in this module is a pure function of
immutable inputs and is safe to call concurrently, except that callable,
which reuses its buffers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

__all__ = [
    "Dataset",
    "UtilitySpec",
    "TargetThreshold",
    "DistanceFunction",
    "GaussianPrior",
    "VAGUE_PRIOR_SD",
    "target_threshold",
    "threshold_band_for_benefit",
    "expit",
    "compute_weights",
    "log_posterior_unnormalized",
    "log_posterior_gradient",
    "effective_sample_size",
    "make_log_posterior",
]

VAGUE_PRIOR_SD = 100.0  # the common sd of GaussianPrior.vague, the default prior of every fit


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.float64, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Dataset:
    """Binary outcomes plus a design matrix with a leading intercept column.

    ``covariates`` has shape (n, d + 1); column 0 is identically 1.
    """

    outcomes: np.ndarray
    covariates: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.outcomes, dtype=np.float64).ravel()
        x = np.asarray(self.covariates, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] < 1:
            raise DataError("covariates must be a 2-d matrix with at least one column")
        if y.shape[0] != x.shape[0]:
            raise DataError(
                f"{y.shape[0]} outcomes but {x.shape[0]} covariate rows"
            )
        if y.shape[0] < 1:
            raise DataError("dataset must contain at least one row")
        if not np.all((y == 0.0) | (y == 1.0)):
            raise DataError("outcomes must be 0 or 1")
        if not np.all(np.isfinite(x)):
            raise DataError("covariates contain non-finite values")
        if not np.all(x[:, 0] == 1.0):
            raise DataError("first covariate column must be an all-ones intercept")
        object.__setattr__(self, "outcomes", _readonly(y))
        object.__setattr__(self, "covariates", _readonly(x))

    @classmethod
    def from_raw(cls, covariates_without_intercept, outcomes) -> "Dataset":
        """Build a Dataset, prepending the intercept column."""
        x = np.asarray(covariates_without_intercept, dtype=np.float64)
        if x.ndim == 1:
            x = x[:, None]
        ones = np.ones((x.shape[0], 1))
        return cls(outcomes=np.asarray(outcomes), covariates=np.hstack([ones, x]))

    @property
    def n(self) -> int:
        return self.covariates.shape[0]

    @property
    def d(self) -> int:
        """Number of covariates excluding the intercept."""
        return self.covariates.shape[1] - 1

    @property
    def n_coefficients(self) -> int:
        return self.covariates.shape[1]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.intp)
        return Dataset(self.outcomes[idx], self.covariates[idx])


@dataclass(frozen=True)
class UtilitySpec:
    """Utilities of the four classification outcomes (positive = benefit).

    ``benefit`` is the net utility gain of treating an individual who has
    the outcome; ``harm`` the net loss of treating one who does not.
    """

    u_tp: float
    u_fp: float
    u_fn: float
    u_tn: float

    def __post_init__(self):
        for name in ("u_tp", "u_fp", "u_fn", "u_tn"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ConfigError(f"{name} must be finite")
        if self.benefit + self.harm <= 0.0:
            raise ConfigError(
                "degenerate utilities: benefit + harm must be positive "
                f"(got B={self.benefit}, H={self.harm})"
            )

    @property
    def benefit(self) -> float:
        return self.u_tp - self.u_fn

    @property
    def harm(self) -> float:
        return self.u_tn - self.u_fp


@dataclass(frozen=True)
class TargetThreshold:
    """Probability cutoff at which treating and not treating break even."""

    t: float

    def __post_init__(self):
        if not (0.0 < self.t < 1.0):
            raise ConfigError(f"target threshold must lie strictly in (0, 1), got {self.t}")

    @property
    def odds(self) -> float:
        """t / (1 - t), the harm-to-benefit ratio the threshold encodes."""
        return self.t / (1.0 - self.t)


@dataclass(frozen=True)
class DistanceFunction:
    """Distance between a first-stage probability and the target threshold.

    ``squared`` uses (pi_u - t)^2.  ``epsilon_insensitive`` uses
    max(|pi_u - t| - epsilon, 0), so points within epsilon of the
    threshold are never downweighted.
    """

    kind: str = "squared"
    epsilon: float = 0.0

    def __post_init__(self):
        if self.kind not in ("squared", "epsilon_insensitive"):
            raise ConfigError(f"unknown distance kind: {self.kind!r}")
        if not (self.epsilon >= 0.0):
            raise ConfigError("epsilon must be >= 0")
        if not math.isfinite(self.epsilon):  # JSON, and so the fit manifest, has no infinity
            raise ConfigError(f"epsilon must be finite, got {self.epsilon}")
        if self.kind == "squared" and self.epsilon != 0.0:
            raise ConfigError("squared distance takes no epsilon parameter")

    def __call__(self, pi_u, t: float) -> np.ndarray:
        p = np.asarray(pi_u, dtype=np.float64)
        if self.kind == "squared":
            return (p - t) ** 2
        return np.maximum(np.abs(p - t) - self.epsilon, 0.0)


@dataclass(frozen=True)
class GaussianPrior:
    """Independent normal prior on each coefficient."""

    means: np.ndarray
    sds: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.means, dtype=np.float64).ravel()
        sd = np.asarray(self.sds, dtype=np.float64).ravel()
        if mu.shape != sd.shape:
            raise ConfigError("prior means and sds must have equal length")
        if not np.all(np.isfinite(mu)):
            raise ConfigError("prior means must be finite")
        if not np.all(np.isfinite(sd) & (sd > 0.0)):
            raise ConfigError("prior sds must be finite and strictly positive")
        object.__setattr__(self, "means", _readonly(mu))
        object.__setattr__(self, "sds", _readonly(sd))

    @classmethod
    def vague(cls, dim: int, sd: float = VAGUE_PRIOR_SD) -> "GaussianPrior":
        """Zero-mean prior with a large common sd (default :data:`VAGUE_PRIOR_SD`)."""
        return cls(np.zeros(dim), np.full(dim, float(sd)))


def target_threshold(spec: UtilitySpec) -> TargetThreshold:
    """Threshold t = H / (H + B) at which expected utilities break even.

    Raises ConfigError if the computed value falls outside (0, 1), e.g.
    when either the net benefit B or net harm H is zero or negative.
    """
    b, h = spec.benefit, spec.harm
    t = h / (h + b)
    if not (0.0 < t < 1.0):
        raise ConfigError(
            f"utilities imply threshold {t}, outside the open interval (0, 1)"
        )
    return TargetThreshold(t)


def threshold_band_for_benefit(
    relative_risk_reduction: float,
    absolute_benefit_low: float,
    absolute_benefit_high: float,
) -> tuple[float, float]:
    """Risk band whose treatment gives a desired absolute benefit range.

    If treatment cuts risk by a relative fraction r, a baseline risk p
    yields absolute benefit r * p, so an absolute-benefit band [a, b]
    corresponds to baseline risks [a / r, b / r].  Useful for turning a
    clinical benefit band into a target-threshold range.
    """
    r = relative_risk_reduction
    if not (0.0 < r <= 1.0):
        raise ConfigError("relative risk reduction must lie in (0, 1]")
    lo, hi = absolute_benefit_low / r, absolute_benefit_high / r
    if not (0.0 < lo <= hi < 1.0):
        raise ConfigError("absolute benefit band maps outside (0, 1)")
    return lo, hi


def _check_beta(beta, dim: int) -> np.ndarray:
    b = np.asarray(beta, dtype=np.float64).ravel()
    if b.shape[0] != dim:
        raise DataError(f"coefficient vector has length {b.shape[0]}, expected {dim}")
    if not np.all(np.isfinite(b)):
        raise DataError("coefficient vector contains non-finite values")
    return b


def expit(z):
    """The logistic function 1 / (1 + exp(-z)), elementwise.

    exp(-z) overflows to inf below z of about -709, giving exactly 0.0,
    and underflows to 0 above about 745, giving exactly 1.0; neither warns.
    """
    with np.errstate(over="ignore", under="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=np.float64)))


def compute_weights(
    pi_u, threshold: TargetThreshold, lambdas, distance: DistanceFunction = DistanceFunction()
) -> np.ndarray:
    """Per-datapoint weights exp(-lam * h(pi_u_i, t)), one row of the (len(lambdas), n) result per lam.

    Weights are 1 at zero distance or lam = 0 and decay exponentially
    with distance from the threshold; they are never floored to zero.
    Every lam must be finite and >= 0, and ``pi_u`` non-empty with every
    value in [0, 1].
    """
    lam = np.asarray(lambdas, dtype=np.float64).ravel()
    for value in lam.tolist():
        if not (math.isfinite(value) and value >= 0.0):
            raise ConfigError(f"lam must be finite and >= 0, got {value}")
    p = np.asarray(pi_u, dtype=np.float64).ravel()
    if p.size == 0:
        raise ConfigError("pi_u must be non-empty")
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ConfigError("pi_u values must lie in [0, 1]")
    return np.exp(-lam[:, None] * distance(p, threshold.t))


# OpenBLAS's x86_64 ddot splits a vector longer than this across its threads, so the rounding of its sum would
# depend on the thread count; every row sum of the log-likelihood runs in chunks of at most this many columns
_DOT_COLUMNS = 10_000


def _chunked_dot(a: np.ndarray, b: np.ndarray) -> np.float64:
    """``np.vecdot`` of two vectors summed in chunks of ``_DOT_COLUMNS`` columns, added in order."""
    total = np.vecdot(a[:_DOT_COLUMNS], b[:_DOT_COLUMNS])
    for start in range(_DOT_COLUMNS, a.shape[-1], _DOT_COLUMNS):
        total = total + np.vecdot(a[start : start + _DOT_COLUMNS], b[start : start + _DOT_COLUMNS])
    return total


def _softplus(z: np.ndarray) -> np.ndarray:
    """log(1 + e^z) without overflow, via max(z, 0) + log1p(e^-|z|)."""
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def _signed_design(data: Dataset) -> np.ndarray:
    """The transposed design with column i times s_i = 1 - 2 y_i, so that ``b @ xs`` is s * z."""
    return np.ascontiguousarray(data.covariates.T * (1.0 - 2.0 * data.outcomes))


def _check_weights(weights, n: int) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64).ravel()
    if w.shape[0] != n:
        raise DataError(f"{w.shape[0]} weights for {n} rows")
    return w


def log_posterior_unnormalized(data: Dataset, beta, weights, prior: GaussianPrior) -> float:
    """The tailored log-posterior of one coefficient vector: sum_i w_i l_i(beta) plus the Gaussian log-prior.

    Evaluated by the callable of :func:`make_log_posterior`, the one
    implementation of the formula, whose overflow-free fallback keeps the
    likelihood term finite for any finite linear predictor.  The prior's
    normalising constant is included, the posterior's is dropped.  With
    all weights 1 this is the standard Bayesian logistic log-posterior;
    in general it equals that posterior under the data-dependent prior
    p(beta) / prod_i L_i^(1 - w_i).  Raises DataError when the value is
    not finite.
    """
    b = _check_beta(beta, data.n_coefficients)
    value = make_log_posterior(data, _check_weights(weights, data.n), prior)(b)
    if not math.isfinite(value):
        raise DataError("log-posterior is non-finite; inputs out of numeric range")
    return value


def log_posterior_gradient(data: Dataset, beta, weights, prior: GaussianPrior) -> np.ndarray:
    """Analytic gradient of :func:`log_posterior_unnormalized` in beta."""
    b = _check_beta(beta, data.n_coefficients)
    w = _check_weights(weights, data.n)
    p = expit(data.covariates @ b)
    grad_lik = data.covariates.T @ (w * (data.outcomes - p))
    grad_prior = -(b - prior.means) / prior.sds**2
    return grad_lik + grad_prior


def effective_sample_size(weights) -> float:
    """Effective number of datapoints informing a tailored fit: sum w_i."""
    w = np.asarray(weights, dtype=np.float64).ravel()
    return float(np.sum(w))


def make_log_posterior(data: Dataset, weights, prior: GaussianPrior):
    """Bind data, weights and prior into a callable beta -> tailored log-posterior.

    The callable is the package's one implementation of
    log p(beta) + sum_i w_i l_i(beta), the prior's normalising constant
    included.  With one weight per row it maps a (d,) vector to a float
    and an (m, d) array to its m row values, the form
    :func:`~tailbayes.sampler.run_mh` takes.
    With a (C, n) weight matrix it maps an (m * C, d) array to m * C
    values, row r under weight row r mod C, through one BLAS product
    ``B @ xs`` with the outcome signs folded into ``xs``.  That product
    may round a row differently for different batch shapes, so a row's
    value can depend on the shape of its batch in the last bits.  The
    weights are copied once, C-ordered, so a value does not depend on
    their memory layout.  The callable reuses its buffers, so it must
    not run in two threads at once.

    The callable's ``_fill_rows(b, out)`` attribute writes the values of
    the rows of a (k, d) float64 array into the float64 vector ``out``
    and returns nothing; it leaves ``np.errstate`` to its caller, which
    :func:`~tailbayes.sampler.run_mh` enters once per run.  A value is
    never +inf: the loss and the prior's quadratic term are both >= 0, so
    it is at most the log of the prior's normalising constant, or NaN.
    """
    return _stacked_log_posterior((data,), (weights,), prior)


def _stacked_log_posterior(datasets, weights, prior: GaussianPrior):
    """The callable of :func:`make_log_posterior` for G (data, weights) pairs under one prior; G = 1 is that function.

    Every ``weights[g]`` has the same number C of rows.  The callable
    maps G equal groups of rows, in order, to their values, group g under
    pair g: row r of a group is under row r mod C of its weights.  The
    weights are copied once into one C-ordered, zero-padded
    (G, C, n_max) stack, and the signed designs of :func:`_signed_design`
    into one zero-padded (G, d, n_max) stack ``xs``.

    A datapoint contributes y z - log(1 + e^z) = -log(1 + e^(s z)) to the
    log-likelihood, so the loss sum_i w_i log(1 + e^(s_i z_i)) of every
    row is one ``matmul``, ``exp`` and ``log1p`` in a product buffer,
    then one ``vecdot`` per run of consecutive groups of equal n_g over
    their own n_g columns, in chunks of at most ``_DOT_COLUMNS`` columns
    whose sums are added in order, so that no sum depends on the number
    of BLAS threads.  Padding columns are computed, never summed,
    so a group's values are those of its own callable whenever the
    stacked ``matmul`` rounds as the group's own does, whatever the
    other groups' sizes and its weights' memory layout.  A row whose loss
    is non-finite (exp overflowed at some s z above about 709) is
    recomputed alone through the overflow-free :func:`_softplus`.  The
    kernel runs under ``np.errstate(over="ignore", invalid="ignore")``:
    an overflow gives inf, and a zero weight times inf NaN, which the
    fallback or the caller's finite check handles.  Outputs are passed by
    position, which numpy parses faster than ``out=``.
    """
    ws = []
    for data, w in zip(datasets, weights):
        w = np.asarray(w, dtype=np.float64)
        if w.ndim < 2:
            w = _check_weights(w, data.n)[None, :]
        if w.ndim != 2 or w.shape[1] != data.n:
            raise DataError(f"a weight matrix of shape {w.shape} does not fit {data.n} rows")
        ws.append(w)
    if len({len(w) for w in ws}) != 1:
        raise DataError("every stacked group needs the same number of weight rows")
    mu, sd = prior.means, prior.sds
    if any(data.n_coefficients != mu.size for data in datasets):
        raise DataError("prior dimension does not match the design matrix")
    sizes = [data.n for data in datasets]
    n_groups, n_rows, n_max = len(ws), len(ws[0]), max(sizes)
    xs = np.zeros((n_groups, mu.size, n_max))  # zero padding columns
    w_stack = np.zeros((n_groups, n_rows, n_max))
    for g, (data, w) in enumerate(zip(datasets, ws)):
        xs[g, :, : data.n] = _signed_design(data)
        w_stack[g, :, : data.n] = w
    # numpy takes 0-d array operands faster than Python floats, with the same bits
    log_norm = np.array(-float(np.sum(np.log(sd)) + 0.5 * mu.size * math.log(2.0 * math.pi)))
    half = np.array(0.5)
    # b - 0.0 is b, and dividing by equal sds is dividing by one of them: the same bits, fewer numpy calls
    centre = mu if mu.any() else None
    scale = np.array(sd[0]) if np.all(sd == sd[0]) else sd
    spans, g = [], 0  # (first group, end group, n_g) of each run of consecutive groups of equal n_g
    for n, run in itertools.groupby(sizes):
        spans.append((g, g + len(list(run)), n))
        g = spans[-1][1]
    cache = {}  # rows of b -> its buffers and views; the sampler uses one to four row counts

    def fill_rows(b: np.ndarray, out: np.ndarray) -> None:
        k = len(b)
        views = cache.get(k)
        if views is None:  # the product buffer, the losses, and each run's (products, weights, losses, later chunks)
            if len(cache) >= 8:
                cache.clear()
            product, loss = np.empty((n_groups, k // n_groups, n_max)), np.empty(k)
            products, losses = product.reshape(n_groups, -1, n_rows, n_max), loss.reshape(n_groups, -1, n_rows)
            runs = []
            for g, h, n in spans:  # a chunk after the first adds its (products, weights) sums from a buffer of its own
                cols = [slice(a, min(a + _DOT_COLUMNS, n)) for a in range(0, n, _DOT_COLUMNS)]
                chunks = [(products[g:h, ..., c], w_stack[g:h, None, :, c]) for c in cols]
                runs.append((*chunks[0], losses[g:h], [(*c, np.empty(losses[g:h].shape)) for c in chunks[1:]]))
            views = cache[k] = (n_groups, k // n_groups, mu.size), product, loss, runs, np.empty(b.shape), np.empty(k)
        shape, product, loss, runs, z, half_sq = views
        e = np.matmul(b.reshape(shape), xs, product)
        np.exp(e, e)
        np.log1p(e, e)
        for products, w, losses, tail in runs:
            np.vecdot(products, w, losses)
            for products, w, part in tail:
                np.add(losses, np.vecdot(products, w, part), losses)
        if not math.isfinite(sum(loss.tolist())):  # for a few rows, cheaper than np.add.reduce
            for r in np.flatnonzero(~np.isfinite(loss)):
                g = r // shape[1]
                loss[r] = _chunked_dot(w_stack[g, r % n_rows, : sizes[g]], _softplus(b[r] @ xs[g, :, : sizes[g]]))
        np.divide(b if centre is None else b - centre, scale, z)
        np.multiply(np.vecdot(z, z, half_sq), half, half_sq)
        np.add(loss, half_sq, out)
        np.subtract(log_norm, out, out)

    def logpost(beta: np.ndarray):
        b = np.asarray(beta, dtype=np.float64).reshape(-1, mu.size)
        value = np.empty(len(b))
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing term gives -inf, never a warning
            fill_rows(b, value)
        return float(value[0]) if np.ndim(beta) == 1 else value

    logpost._fill_rows = fill_rows
    return logpost
