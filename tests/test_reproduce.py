from dataclasses import asdict

import numpy as np
import pytest

from conftest import exit_in_worker
from tailbayes import reproduce, simulation, tuning
from tailbayes.errors import ConfigError, WorkerLostError
from tailbayes.model_core import DistanceFunction

OVERRIDES = {"n": (200,), "psi": (0.1,)}


@pytest.fixture(autouse=True)
def _fresh_repetition_cache():
    """Tests that call ``_rep_worker`` directly start from an empty repetition cache, as ``reproduce_figure`` does."""
    reproduce._repetition.cache_clear()


def _stub_rep_worker(payload):
    """A cheap deterministic stand-in for one repetition: delta is t + 0.01 * rep^2."""
    _figure, cell, rep, _seed, _grid, _thresholds = payload
    row = dict(cell, rep=rep, lambda_star=0.0,
               nb_tb=0.1 + cell["t"] + 0.01 * rep**2, nb_sb=0.1)
    row["delta"] = row["nb_tb"] - row["nb_sb"]
    row["nb_optimal"] = 0.2
    return row


def test_distinct_t_values_aggregate_their_own_rows(monkeypatch):
    monkeypatch.setattr(reproduce, "_rep_worker", _stub_rep_worker)
    result = reproduce.reproduce_figure("sim3-fig6", scale=0.1, overrides=dict(OVERRIDES, t=(0.3, 0.5)))
    assert result["tables"]["delta_nb.csv"][0] == ["n", "psi", "threshold", "mean_delta", "se_delta"]
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


@pytest.mark.parametrize("jobs", [0, -3, True, 2.5])
def test_jobs_that_is_not_an_integer_of_at_least_1_fails_before_any_repetition(jobs, monkeypatch):
    def never(payload):
        raise AssertionError("no repetition may run")

    monkeypatch.setattr(reproduce, "_rep_worker", never)
    with pytest.raises(ConfigError, match=f"^jobs must be an integer of at least 1, got {jobs!r}$"):
        reproduce.reproduce_figure("sim3-fig6", scale=0.1, jobs=jobs, overrides=dict(OVERRIDES, t=(0.3,)))


def test_a_lost_repetition_is_named_by_its_cell_and_rep(monkeypatch):
    """Every repetition's worker dies in a pool of two, so repetition 0's rows are the first lost."""
    monkeypatch.setattr(tuning, "USABLE_CPUS", 2)
    monkeypatch.setattr(reproduce, "_rep_worker", exit_in_worker)
    with pytest.raises(WorkerLostError, match=r"^a worker process died \(killed, out of memory or crashed\), so the "
                                              r"result of repetition 0 of the cell n=200, psi=0.1 was lost$") as lost:
        reproduce.reproduce_figure("sim3-fig6", scale=0.1, jobs=2, overrides=dict(OVERRIDES, t=(0.3, 0.5)))
    assert lost.value.task == 0


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
        # a study size that is not an integer, which numpy would refuse only inside the first repetition
        ("sim3-fig6", {"n": (1.5,), "psi": (0.1,), "t": (0.3,)}),
    ],
)
def test_bad_override_value_fails_before_any_fit(monkeypatch, figure, overrides):
    calls = []
    monkeypatch.setattr(reproduce, "_rep_worker", lambda payload: calls.append(payload))
    with pytest.raises(ConfigError):
        reproduce.reproduce_figure(figure, scale=0.1, overrides=overrides)
    assert calls == []


class _Stop(Exception):
    pass


def _record_seeds(monkeypatch):
    """Make ``_rep_worker`` record each repetition's configs and fit seed, then stop before any chain runs."""
    seen = []
    real_sim_configs = reproduce._sim_configs

    def sim_configs(figure, cell, train_seed, test_seed):
        configs = real_sim_configs(figure, cell, train_seed, test_seed)
        seen.append({"cell": cell, "configs": configs})
        return configs

    def stop(train, *, sampler_config, **kwargs):
        seen[-1]["fit_seed"] = sampler_config.rng_seed
        raise _Stop

    monkeypatch.setattr(reproduce, "_sim_configs", sim_configs)
    monkeypatch.setattr(reproduce, "first_stage", stop)
    return seen


def _first_repetition(figure, cell):
    with pytest.raises(_Stop):
        reproduce._rep_worker((figure, cell, 0, 0, (0.0, 10.0), (cell["t"],)))


def test_cells_differing_only_in_t_share_their_seeds(monkeypatch):
    cells = [(figure, cell) for figure in reproduce.FIGURES for cell in reproduce._cells(figure, {})]
    assert len(cells) == 60 + 60 + 54
    seen = _record_seeds(monkeypatch)
    for figure, cell in cells:
        _first_repetition(figure, cell)
    assert len(seen) == len(cells)  # the cache keeps no repetition that raised, so each cell drew its own configs
    triples = {}  # (figure, cell without t) -> the seed triples of its thresholds
    for (figure, cell), s in zip(cells, seen):
        t_free = (figure, tuple((k, v) for k, v in cell.items() if k != "t"))
        triples.setdefault(t_free, set()).add((s["configs"][1].seed, s["configs"][2].seed, s["fit_seed"]))
    assert len(triples) == 12 + 12 + 6
    assert all(len(shared) == 1 for shared in triples.values())
    assert len(set.union(*triples.values())) == len(triples)


def test_sim3_cells_differing_only_in_psi_draw_different_test_sets(monkeypatch):
    seen = _record_seeds(monkeypatch)
    for psi in (0.0, 0.3):
        _first_repetition("sim3-fig6", {"n": 1000, "psi": psi, "t": 0.3})
    (generate, _, test_a), (_, _, test_b) = (s["configs"] for s in seen)
    assert test_a.contamination == test_b.contamination == 0.0
    assert not np.array_equal(generate(test_a)[0].covariates, generate(test_b)[0].covariates)


def test_cell_rows_depend_on_neither_the_rest_of_the_grid_nor_jobs():
    def rows(t_values, jobs):
        result = reproduce.reproduce_figure("sim3-fig6", scale=0.1, seed=3, jobs=jobs, lambda_grid=(0.0, 10.0),
                                            overrides=dict(OVERRIDES, t=t_values))
        return [row for row in result["raw"] if row["t"] == 0.3]

    alone = rows((0.3,), 1)
    assert len(alone) == 2
    assert rows((0.2, 0.3, 0.5), 1) == alone
    assert rows((0.3,), 2) == alone
    assert rows((0.5, 0.3), 2) == alone


def test_a_repetition_draws_its_data_and_fits_stage_1_and_its_baseline_once_per_call(monkeypatch):
    calls = {"generate": [], "stage1": 0, "baseline": 0}
    real_generate, real_stage1, real_fit_standard = simulation.generate_sim3, tuning.stage1_pi_u, reproduce.fit_standard

    def generate(config):
        calls["generate"].append(config.n)
        return real_generate(config)

    def stage1(*args):
        calls["stage1"] += 1
        return real_stage1(*args)

    def baseline(*args):
        calls["baseline"] += 1
        return real_fit_standard(*args)

    monkeypatch.setattr(simulation, "generate_sim3", generate)
    monkeypatch.setattr(tuning, "stage1_pi_u", stage1)
    monkeypatch.setattr(reproduce, "fit_standard", baseline)

    def run():
        return reproduce.reproduce_figure("sim3-fig6", scale=0.1, seed=5, jobs=1, lambda_grid=(0.0, 10.0),
                                          overrides=dict(OVERRIDES, t=(0.2, 0.3, 0.5)))

    first = run()
    assert len(first["raw"]) == 6  # 3 thresholds of 2 repetitions
    assert calls == {"generate": [200, 2000] * 2, "stage1": 2, "baseline": 2}
    assert run()["raw"] == first["raw"]
    assert calls == {"generate": [200, 2000] * 4, "stage1": 4, "baseline": 4}


def test_a_repetition_runs_the_cv_of_its_thresholds_as_one_stack(monkeypatch):
    """One fit_folds call per repetition, whose folds each run the lam = 0 chain once and each threshold's lam = 10."""
    stacks = []
    real_fit_folds = tuning.fit_folds

    def recording(datasets, weights, prior, config, seeds):
        stacks.append([len(w) for w in weights])
        return real_fit_folds(datasets, weights, prior, config, seeds)

    def alone(*args):
        raise AssertionError("a repetition's thresholds share one stacked CV run")

    monkeypatch.setattr(tuning, "fit_folds", recording)
    monkeypatch.setattr(tuning, "cv_select_lambda", alone)
    result = reproduce.reproduce_figure("sim3-fig6", scale=0.1, seed=5, jobs=1, lambda_grid=(0.0, 10.0),
                                        overrides=dict(OVERRIDES, t=(0.2, 0.3, 0.5)))
    assert len(result["raw"]) == 6  # 3 thresholds of 2 repetitions
    assert stacks == [[1 + 3] * tuning.DEFAULT_K_FOLDS] * 2


def test_one_distance_feeds_the_cv_weights_the_final_chain_and_the_manifest(monkeypatch):
    distance = DistanceFunction("epsilon_insensitive", 0.05)
    monkeypatch.setattr(reproduce, "DISTANCE", distance)
    read = []  # the distance of every weight matrix a repetition builds
    real_weights = tuning.FirstStage.weights

    def weights(first, threshold, distance):
        read.append(distance)
        return real_weights(first, threshold, distance)

    monkeypatch.setattr(tuning.FirstStage, "weights", weights)
    result = reproduce.reproduce_figure("sim3-fig6", scale=0.05, seed=5, jobs=1, lambda_grid=(0.0, 10.0),
                                        overrides=dict(OVERRIDES, t=(0.3, 0.5)))
    assert len(result["raw"]) == 2
    assert read == [distance] * 4  # each threshold's CV weights, then each final fit's
    assert result["manifest"]["distance"] == asdict(distance)


def test_none_overrides_nothing_for_every_key(monkeypatch):
    monkeypatch.setattr(reproduce, "_rep_worker", _stub_rep_worker)
    grid = {"n": (200,), "t": (0.3,)}
    plain = reproduce.reproduce_figure("sim3-fig6", scale=0.1, overrides=grid)
    assert plain["manifest"]["overrides"] == {"n": [200], "t": [0.3]}
    for key in ("q", "prevalence", "psi"):
        unset = reproduce.reproduce_figure("sim3-fig6", scale=0.1, overrides=dict(grid, **{key: None}))
        assert unset["raw"] == plain["raw"] and unset["manifest"] == plain["manifest"]


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_the_unsigned_64_bit_range_fails_before_any_repetition(monkeypatch, seed):
    calls = []
    monkeypatch.setattr(reproduce, "_rep_worker", lambda payload: calls.append(payload))
    with pytest.raises(ConfigError, match="seed must fit in an unsigned 64-bit integer"):
        reproduce.reproduce_figure("sim3-fig6", scale=0.1, seed=seed, overrides=dict(OVERRIDES, t=(0.3,)))
    assert calls == []


def test_tables_and_manifest_are_built_from_the_rows(monkeypatch):
    monkeypatch.setattr(reproduce, "_rep_worker", _stub_rep_worker)
    result = reproduce.reproduce_figure("sim3-fig6", scale=0.1, seed=4, lambda_grid=(0.0, 10.0),
                                        overrides=dict(OVERRIDES, t=(0.3, 0.5)))
    tables, (agg_a, agg_b) = result["tables"], result["aggregated"]
    assert list(tables) == ["nb_raw.csv", "delta_nb.csv", "nb_summary.csv"]
    assert tables["nb_raw.csv"] == (list(result["raw"][0]), [list(row.values()) for row in result["raw"]])
    assert tables["delta_nb.csv"][1] == [[200, 0.1, agg["t"], agg["mean_delta"], agg["se_delta"]]
                                         for agg in (agg_a, agg_b)]
    assert tables["nb_summary.csv"][1][0] == [0.3, 0.1, agg_a["mean_nb_tb"], agg_a["mean_nb_sb"],
                                              agg_a["mean_nb_optimal"], agg_a["mean_delta"], agg_a["se_delta"]]
    manifest = result["manifest"]
    assert {k: manifest[k] for k in ("command", "figure", "scale", "repetitions", "seed", "lambda_grid")} == {
        "command": "reproduce", "figure": "sim3-fig6", "scale": 0.1, "repetitions": 2, "seed": 4,
        "lambda_grid": [0.0, 10.0]}
    assert manifest["overrides"] == {"n": [200], "psi": [0.1], "t": [0.3, 0.5]}
    assert (manifest["cv_chain"], manifest["test_rows"]) == ([3000, 1200], reproduce.TEST_SET_SIZE)


def test_only_sim3_writes_a_summary_table(monkeypatch):
    monkeypatch.setattr(reproduce, "_rep_worker", _stub_rep_worker)
    result = reproduce.reproduce_figure("sim1-fig2", scale=0.1, overrides={"n": (200,), "q": (1.0,), "t": (0.3,)})
    assert list(result["tables"]) == ["nb_raw.csv", "delta_nb.csv"]
    assert result["tables"]["delta_nb.csv"][0] == ["n", "q", "threshold", "mean_delta", "se_delta"]
