import numpy as np
import pytest

from tailbayes.errors import ConfigError, DataError
from tailbayes.evaluation import net_benefit, net_benefit_tables, paired_delta
from tailbayes.model_core import TargetThreshold


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


class TestNetBenefitTables:
    SPLITS = [(np.array([0.2, 0.6, 0.9]), np.array([0, 1, 1])), (np.array([0.7, 0.1, 0.4]), np.array([0, 0, 1]))]

    def test_rows_per_model_split_and_threshold(self):
        thresholds = [TargetThreshold(0.3), TargetThreshold(0.5)]
        tables = net_benefit_tables(thresholds, ("a", self.SPLITS), ("b", self.SPLITS[::-1]))
        header, rows = tables["nb.csv"]
        assert header == ["threshold", "model", "split", "tp", "fp", "n", "nb"]
        assert [row[:3] for row in rows] == [(t, label, split) for label in "ab" for split in (1, 2)
                                             for t in (0.3, 0.5)]
        report = net_benefit(*self.SPLITS[1], 0.5)
        assert rows[3][3:] == (report.tp_count, report.fp_count, report.n, report.net_benefit)
        header, deltas = tables["delta_nb.csv"]
        assert header == ["threshold", "mean_delta", "se_delta"]
        nb = {row[:3]: row[6] for row in rows}
        for t, mean, se in deltas:
            delta = paired_delta(*([nb[t, label, split] for split in (1, 2)] for label in "ab"))
            assert (mean, se) == (delta.mean_delta, delta.se_delta) and se > 0.0
        assert [row[0] for row in deltas] == [0.3, 0.5]

    def test_without_model_b_there_is_no_delta_table(self):
        tables = net_benefit_tables([TargetThreshold(0.3)], ("a", self.SPLITS[:1]), None)
        assert list(tables) == ["nb.csv"] and len(tables["nb.csv"][1]) == 1

    @pytest.mark.parametrize(
        "splits_a, splits_b, message",
        [(SPLITS, SPLITS[:1], "paired evaluation needs the same number of splits for both models"),
         (SPLITS[:1], SPLITS[:1], "paired delta needs at least two splits per model")],
    )
    def test_unpaired_splits_are_data_errors(self, splits_a, splits_b, message):
        with pytest.raises(DataError, match=f"^{message}$"):
            net_benefit_tables([TargetThreshold(0.3)], ("a", splits_a), ("b", splits_b))
