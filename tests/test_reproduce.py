from tailbayes import reproduce


def _stub_rep_worker(payload):
    """A cheap deterministic stand-in for one repetition: delta is 0.01 * rep^2."""
    figure, cell, rep, _seed, _grid = payload
    row = dict(cell, figure=figure, rep=rep, lambda_star=0.0, nb_tb=0.1 + 0.01 * rep**2, nb_sb=0.1)
    row["delta"] = row["nb_tb"] - row["nb_sb"]
    row["nb_optimal"] = 0.2
    return row


def test_repeated_override_value_aggregates_each_cell_once(monkeypatch):
    monkeypatch.setattr(reproduce, "_rep_worker", _stub_rep_worker)
    overrides = {"n": (200,), "psi": (0.1,)}
    single = reproduce.reproduce_figure("sim3-fig6", scale=0.1, overrides=dict(overrides, t=(0.3,)))
    twice = reproduce.reproduce_figure("sim3-fig6", scale=0.1, overrides=dict(overrides, t=(0.3, 0.3)))
    assert single["cell_keys"] == twice["cell_keys"] == ["n", "psi", "t"]
    assert len(twice["raw"]) == 2 * twice["repetitions"]
    (cell,) = single["aggregated"]
    assert cell["repetitions"] == single["repetitions"] == 2 and cell["se_delta"] > 0.0
    assert twice["aggregated"] == [cell, cell]
