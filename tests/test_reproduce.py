import numpy as np
import pytest

from tailbayes import reproduce
from tailbayes.errors import ConfigError

OVERRIDES = {"n": (200,), "psi": (0.1,)}


def _stub_rep_worker(payload):
    """A cheap deterministic stand-in for one repetition: delta is t + 0.01 * rep^2."""
    _figure, cell, rep, _seed, _grid = payload
    row = dict(cell, rep=rep, lambda_star=0.0,
               nb_tb=0.1 + cell["t"] + 0.01 * rep**2, nb_sb=0.1)
    row["delta"] = row["nb_tb"] - row["nb_sb"]
    row["nb_optimal"] = 0.2
    return row


def test_distinct_t_values_aggregate_their_own_rows(monkeypatch):
    monkeypatch.setattr(reproduce, "_rep_worker", _stub_rep_worker)
    result = reproduce.reproduce_figure("sim3-fig6", scale=0.1, overrides=dict(OVERRIDES, t=(0.3, 0.5)))
    assert result["cell_keys"] == ["n", "psi", "t"]
    reps = result["repetitions"]
    assert reps == 2 and len(result["raw"]) == 2 * reps
    assert [cell["t"] for cell in result["aggregated"]] == [0.3, 0.5]
    for cell in result["aggregated"]:
        own = [row for row in result["raw"] if row["t"] == cell["t"]]
        assert cell["repetitions"] == len(own) == reps
        assert cell["mean_nb_tb"] == np.mean([row["nb_tb"] for row in own])
        assert cell["mean_delta"] == pytest.approx(cell["t"] + 0.005)
        assert cell["se_delta"] > 0.0


def test_repeated_override_value_is_config_error(monkeypatch):
    def never(payload):
        raise AssertionError("no repetition may run")

    monkeypatch.setattr(reproduce, "_rep_worker", never)
    with pytest.raises(ConfigError, match="'t'"):
        reproduce.reproduce_figure("sim3-fig6", scale=0.1, overrides=dict(OVERRIDES, t=(0.3, 0.3)))


@pytest.mark.parametrize(
    "figure, overrides",
    [
        ("sim3-fig6", dict(OVERRIDES, t=(0.3, 1.5))),
        ("sim3-fig6", {"n": (200,), "psi": (0.1, 0.6), "t": (0.3,)}),
        ("sim1-fig2", {"n": (200,), "q": (0.5, -1.0), "t": (0.3,)}),
        ("sim2-fig4", {"n": (200, 0), "prevalence": (0.3,), "t": (0.3,)}),
        # a key the figure does not vary, which its grid would otherwise ignore
        ("sim3-fig6", {"q": (0.5,), "t": (0.3,)}),
        ("sim1-fig2", {"psi": (0.1,), "t": (0.3,)}),
        ("sim2-fig4", {"q": (0.5,), "t": (0.3,)}),
    ],
)
def test_bad_override_value_fails_before_any_fit(monkeypatch, figure, overrides):
    calls = []
    monkeypatch.setattr(reproduce, "_rep_worker", lambda payload: calls.append(payload))
    with pytest.raises(ConfigError):
        reproduce.reproduce_figure(figure, scale=0.1, overrides=overrides)
    assert calls == []
