"""Exception hierarchy, which the CLI maps onto distinct exit codes, and the one physical-memory check."""

import os


class TailbayesError(Exception):
    """Base class for all package errors."""


class ConfigError(TailbayesError, ValueError):
    """Invalid parameter or configuration value."""


class DataError(TailbayesError, ValueError):
    """Malformed, inconsistent, or out-of-range input data."""


class SamplerError(TailbayesError, RuntimeError):
    """MCMC failure, e.g. non-finite log-posterior at the start point."""


def require_memory(needed: int, what: str) -> None:
    """ConfigError unless ``needed`` bytes, those ``what`` names, fit in physical memory."""
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if needed > physical:
        raise ConfigError(f"{what} need {needed} bytes, more than the {physical} bytes of physical memory")
