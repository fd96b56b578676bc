"""Exception hierarchy, which the CLI maps onto distinct exit codes, and the shared seed and memory checks."""

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


def require_seed(seed: int, name: str) -> None:
    """ConfigError unless ``seed`` lies in [0, 2^64), the range of every seed the package takes."""
    if not (0 <= int(seed) < 2**64):
        raise ConfigError(f"{name} must fit in an unsigned 64-bit integer")
