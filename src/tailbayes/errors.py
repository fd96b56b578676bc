"""Exception hierarchy; the CLI maps these onto distinct exit codes."""


class TailbayesError(Exception):
    """Base class for all package errors."""


class ConfigError(TailbayesError, ValueError):
    """Invalid parameter or configuration value."""


class DataError(TailbayesError, ValueError):
    """Malformed, inconsistent, or out-of-range input data."""


class SamplerError(TailbayesError, RuntimeError):
    """MCMC failure, e.g. non-finite log-posterior at the start point."""

