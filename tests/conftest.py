from typing import NamedTuple

import numpy as np
import pytest

_acceptance_results = []


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and item.fspath.basename == "test_acceptance.py":
        _acceptance_results.append((item.name, report.passed))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_results:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, passed in _acceptance_results:
            terminalreporter.write_line(f"{'PASS' if passed else 'FAIL'}  {name}")


class CalibrationCurve(NamedTuple):
    mean_predicted: np.ndarray
    observed_fraction: np.ndarray
    counts: np.ndarray


def calibration_curve(predictions, outcomes, n_bins) -> CalibrationCurve:
    """Mean prediction, observed event fraction and row count per equal-width bin of [0, 1]; NaN in empty bins."""
    p, y = np.ravel(predictions), np.ravel(outcomes)
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    idx = np.minimum(np.digitize(p, edges[1:-1]), n_bins - 1)
    counts = np.bincount(idx, minlength=n_bins)
    with np.errstate(invalid="ignore"):  # 0 / 0 in an empty bin
        return CalibrationCurve(
            np.bincount(idx, weights=p, minlength=n_bins) / counts,
            np.bincount(idx, weights=y, minlength=n_bins) / counts,
            counts,
        )
