import numpy as np
import pytest

from tailbayes.errors import ConfigError, DataError
from tailbayes.evaluation import net_benefit, paired_delta


def confusion_vectors(tp, fp, fn, tn, t):
    """Predictions/outcomes realizing exact confusion counts at threshold t."""
    hi, lo = min(t + 0.2, 0.99), max(t - 0.2, 0.01)
    probs = np.concatenate(
        [np.full(tp, hi), np.full(fp, hi), np.full(fn, lo), np.full(tn, lo)]
    )
    outcomes = np.concatenate([np.ones(tp), np.zeros(fp), np.ones(fn), np.zeros(tn)])
    return probs, outcomes


class TestNetBenefit:
    def test_five_net_true_positives_per_hundred(self):
        probs, outcomes = confusion_vectors(tp=5, fp=0, fn=45, tn=50, t=0.3)
        report = net_benefit(probs, outcomes, 0.3)
        assert (report.tp_count, report.fp_count, report.n) == (5, 0, 100)
        assert report.net_benefit == 0.05

    def test_even_odds_at_half(self):
        probs, outcomes = confusion_vectors(tp=30, fp=20, fn=25, tn=25, t=0.5)
        report = net_benefit(probs, outcomes, 0.5)
        np.testing.assert_allclose(report.net_benefit, 0.30 - 0.20, rtol=1e-15)

    def test_low_threshold_oracle_value(self):
        probs, outcomes = confusion_vectors(tp=10, fp=18, fn=30, tn=42, t=0.1)
        report = net_benefit(probs, outcomes, 0.1)
        expected = 10 / 100 - 18 / 100 * (0.1 / 0.9)
        assert report.net_benefit == expected
        np.testing.assert_allclose(report.net_benefit, 0.08, rtol=1e-12)

    def test_brute_force_random_configurations(self):
        """Vectorised counts match a pure-Python loop bit for bit."""
        rng = np.random.default_rng(12)
        for _ in range(300):
            n = int(rng.integers(1, 60))
            probs = rng.uniform(size=n)
            outcomes = (rng.uniform(size=n) < 0.4).astype(float)
            t = float(rng.uniform(0.05, 0.95))
            report = net_benefit(probs, outcomes, t)
            tp = sum(1 for p, y in zip(probs, outcomes) if p >= t and y == 1)
            fp = sum(1 for p, y in zip(probs, outcomes) if p >= t and y == 0)
            assert (report.tp_count, report.fp_count) == (tp, fp)
            assert report.net_benefit == tp / n - fp / n * (t / (1 - t))

    def test_treat_none_is_exactly_zero(self):
        probs = np.zeros(50)
        outcomes = (np.arange(50) % 3 == 0).astype(float)
        for t in (0.05, 0.25, 0.5, 0.9):
            assert net_benefit(probs, outcomes, t).net_benefit == 0.0

    def test_bounded_by_prevalence(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(2, 80))
            probs = rng.uniform(size=n)
            outcomes = (rng.uniform(size=n) < rng.uniform()).astype(float)
            t = float(rng.uniform(0.05, 0.95))
            assert net_benefit(probs, outcomes, t).net_benefit <= outcomes.mean() + 1e-15

    def test_errors(self):
        with pytest.raises(DataError):
            net_benefit([], [], 0.5)
        with pytest.raises(DataError):
            net_benefit([0.5], [1, 0], 0.5)
        with pytest.raises(ConfigError):
            net_benefit([0.5], [1], 1.0)


class TestPairedDelta:
    def test_identical_vectors(self):
        d = paired_delta([0.1, 0.2, 0.3], [0.1, 0.2, 0.3])
        assert d.mean_delta == 0.0 and d.se_delta == 0.0

    def test_two_split_oracle(self):
        d = paired_delta([0.02, 0.05], [0.01, 0.02])
        np.testing.assert_allclose(d.mean_delta, 0.02, rtol=1e-12)
        np.testing.assert_allclose(d.se_delta, 0.01, rtol=1e-12)

    def test_constant_shift_has_zero_se(self):
        rng = np.random.default_rng(1)
        base = rng.uniform(size=8)
        d = paired_delta(base + 0.03, base)
        np.testing.assert_allclose(d.mean_delta, 0.03, rtol=1e-10)
        assert d.se_delta < 1e-15

    def test_se_zero_iff_constant_deltas(self):
        assert paired_delta([0.1, 0.2], [0.0, 0.1]).se_delta == 0.0
        assert paired_delta([0.1, 0.2], [0.0, 0.0]).se_delta > 0.0

    def test_needs_two_splits(self):
        with pytest.raises(DataError):
            paired_delta([0.1], [0.2])
