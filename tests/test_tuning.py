import logging
import math
import os
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import tailbayes.tuning as tuning
from conftest import calibration_curve, exit_in_worker
from tailbayes.errors import ConfigError, DataError, SamplerError, WorkerLostError
from tailbayes.model_core import (
    Dataset,
    DistanceFunction,
    GaussianPrior,
    TargetThreshold,
    compute_weights,
    make_log_posterior,
)
from tailbayes.predict import predictive_mean_sd
from tailbayes.sampler import PosteriorSamples, SamplerConfig, run_mh
from tailbayes.simulation import Sim1Config, Sim2Config, Sim3Config, generate_sim1, generate_sim2, generate_sim3
from tailbayes.tuning import (
    cv_select_lambda,
    ess_grid,
    final_fit_rhat,
    first_stage,
    fit_pipeline,
    fit_standard,
    fit_tailored,
    fold_seed,
    make_cv_plan,
    make_split,
    stage1_pi_u,
)

FAST = SamplerConfig(n_iterations=2500, burn_in=1000, rng_seed=11)
FASTER = SamplerConfig(n_iterations=1200, burn_in=500, rng_seed=11)
FASTER_CHAIN = (FASTER.n_iterations, FASTER.burn_in)  # (iterations, burn-in) of CV chains beside a FAST final chain
VAGUE = GaussianPrior.vague(3)  # first_stage's default prior on two covariates and the intercept


def cv_first(development, plan, jobs=1):
    """A first stage holding what cv_select_lambda reads: these development rows and folds, FASTER CV chains, jobs."""
    split = make_split(development.n, 0.0, FASTER.rng_seed)
    return tuning.FirstStage(split, development, plan, FASTER, FASTER, VAGUE, None, None, jobs)


def grid_weights(pi_u, plan):
    """The (L, n) weight matrix of ``plan``'s grid at t = 0.3, as fit_pipeline passes it to cv_select_lambda."""
    return compute_weights(pi_u, TargetThreshold(0.3), plan.lambda_grid)


def _exit_on_zero(x):
    """A pool task whose worker process dies on payload 0, as one the kernel kills would."""
    if x == 0:
        os._exit(1)
    return x


class TestMakeSplit:
    def test_small_example_sizes(self):
        plan = make_split(10, design_fraction=0.2, seed=0)
        assert plan.design_idx.shape[0] == 2
        assert plan.development_idx.shape[0] == 8

    def test_deterministic(self):
        a = make_split(100, design_fraction=0.2, seed=42)
        b = make_split(100, design_fraction=0.2, seed=42)
        assert np.array_equal(a.design_idx, b.design_idx)
        assert a.digest() == b.digest()
        c = make_split(100, design_fraction=0.2, seed=43)
        assert c.digest() != a.digest()

    def test_floor_rounding_rule_at_registry_scale(self):
        # design gets floor(0.2 * n), the remainder goes to development
        plan = make_split(4718, design_fraction=0.2, seed=1)
        assert plan.design_idx.shape[0] == math.floor(0.2 * 4718) == 943
        assert plan.development_idx.shape[0] == 4718 - 943

    def test_disjoint_and_exhaustive(self):
        plan = make_split(57, design_fraction=0.3, seed=3)
        combined = np.concatenate([plan.design_idx, plan.development_idx])
        assert np.array_equal(np.sort(combined), np.arange(57))
        assert plan.design_idx.shape[0] == math.floor(0.3 * 57)

    def test_zero_design_fraction_allowed(self):
        plan = make_split(20, design_fraction=0.0, seed=0)
        assert plan.design_idx.shape[0] == 0
        assert plan.development_idx.shape[0] == 20

    def test_empty_partition_errors(self):
        with pytest.raises(DataError):
            make_split(3, design_fraction=0.2, seed=0)
        with pytest.raises(DataError):
            make_split(0, design_fraction=0.0, seed=0)
        for fraction in (-0.1, 1.0):
            with pytest.raises(ConfigError):
                make_split(100, design_fraction=fraction, seed=0)


class TestCvPlan:
    def test_stratification_within_one(self):
        rng = np.random.default_rng(4)
        for prevalence in (0.1, 0.35, 0.5):
            y = (rng.uniform(size=203) < prevalence).astype(float)
            plan = make_cv_plan(y, k=5, lambda_grid=tuning.DEFAULT_LAMBDA_GRID, seed=9)
            n_pos = y.sum()
            for fold in range(5):
                idx = plan.fold_indices(fold)
                share = n_pos * idx.shape[0] / y.shape[0]
                assert abs(y[idx].sum() - share) <= 1.0

    def test_folds_partition_rows(self):
        y = (np.arange(40) % 3 == 0).astype(float)
        plan = make_cv_plan(y, k=4, lambda_grid=tuning.DEFAULT_LAMBDA_GRID, seed=2)
        combined = np.concatenate([plan.fold_indices(k) for k in range(4)])
        assert np.array_equal(np.sort(combined), np.arange(40))
        for k in range(4):
            assert np.array_equal(
                np.sort(np.concatenate([plan.fold_indices(k), plan.train_indices(k)])),
                np.arange(40),
            )

    def test_grid_must_start_at_zero(self):
        y = (np.arange(20) % 2).astype(float)
        with pytest.raises(ConfigError):
            make_cv_plan(y, k=5, lambda_grid=(1.0, 5.0), seed=0)
        with pytest.raises(ConfigError):
            make_cv_plan(y, k=5, lambda_grid=(), seed=0)
        with pytest.raises(ConfigError):
            make_cv_plan(y, k=5, lambda_grid=(0.0, 5.0, 2.0), seed=0)

    def test_deterministic(self):
        y = (np.arange(30) % 2).astype(float)
        a = make_cv_plan(y, k=5, lambda_grid=tuning.DEFAULT_LAMBDA_GRID, seed=5)
        b = make_cv_plan(y, k=5, lambda_grid=tuning.DEFAULT_LAMBDA_GRID, seed=5)
        assert np.array_equal(a.fold_ids, b.fold_ids)

    @settings(derandomize=True, max_examples=50, deadline=None, database=None)
    @given(st.integers(2, 8).flatmap(lambda k: st.tuples(
        st.just(k), st.lists(st.booleans(), min_size=k, max_size=120), st.integers(0, 2**32 - 1))))
    def test_folds_balance_each_class_within_one(self, case):
        """Each fold holds its share of each class within one, so fold (and training) sizes differ by at most 2."""
        k, outcomes, seed = case
        y = np.array(outcomes, dtype=float)
        plan = make_cv_plan(y, k=k, lambda_grid=tuning.DEFAULT_LAMBDA_GRID, seed=seed)
        for label in (0.0, 1.0):
            share = np.count_nonzero(y == label) / k
            for fold in range(k):
                assert abs(np.count_nonzero(y[plan.fold_indices(fold)] == label) - share) < 1.0
        sizes = [len(plan.fold_indices(fold)) for fold in range(k)]
        train_sizes = [len(plan.train_indices(fold)) for fold in range(k)]
        assert max(sizes) - min(sizes) <= 2
        assert max(train_sizes) - min(train_sizes) <= 2  # the most padding a stacked fold gets


class TestStage1:
    def test_single_class_design_rejected(self):
        data = Dataset.from_raw(np.random.default_rng(0).standard_normal((30, 2)), np.ones(30))
        with pytest.raises(DataError):
            stage1_pi_u(data, FAST, VAGUE)

    def test_equals_standard_fit_bitwise(self):
        design, _, _ = generate_sim3(Sim3Config(n=120, seed=3))
        stage1 = stage1_pi_u(design, FAST, VAGUE)
        baseline = fit_standard(design, FAST)
        assert np.array_equal(stage1.draws, baseline.draws)

    def test_probabilities_approximately_calibrated(self):
        """Binned check on fresh rows from the same distribution."""
        design, _, _ = generate_sim3(Sim3Config(n=2500, seed=40))
        stage1 = stage1_pi_u(design, SamplerConfig(n_iterations=5000, burn_in=2000, rng_seed=8), VAGUE)
        fresh, _, _ = generate_sim3(Sim3Config(n=3000, seed=41))
        pi = predictive_mean_sd(fresh.covariates, stage1)[0]
        curve = calibration_curve(pi, fresh.outcomes, n_bins=8)
        for j in np.flatnonzero(curve.counts >= 80):
            se = math.sqrt(
                curve.mean_predicted[j] * (1 - curve.mean_predicted[j]) / curve.counts[j]
            )
            assert abs(curve.observed_fraction[j] - curve.mean_predicted[j]) <= 3.0 * se


class TestCvSelectLambda:
    def test_uninformative_pi_u_ties_break_to_zero(self):
        """All pi_u at the threshold make every lam equivalent; smallest wins."""
        train, _ = generate_sim1(Sim1Config(n=120, q=1.0, seed=6))
        t = TargetThreshold(0.3)
        pi_u = np.full(train.n, 0.3)
        plan = make_cv_plan(train.outcomes, k=3, lambda_grid=(0.0, 5.0, 50.0), seed=1)
        lam, table = cv_select_lambda(cv_first(train, plan), grid_weights(pi_u, plan), t)
        assert lam == 0.0
        by_lam = {}
        for row in table:
            by_lam.setdefault(row["lambda"], []).append(row["nb"])
        assert by_lam[0.0] == by_lam[5.0] == by_lam[50.0]

    def test_misaligned_pi_u_rejected(self):
        train, _ = generate_sim1(Sim1Config(n=60, q=1.0, seed=6))
        plan = make_cv_plan(train.outcomes, k=3, lambda_grid=(0.0, 5.0), seed=1)
        with pytest.raises(DataError, match=r"development row, \(2, 60\), not \(2, 10\)$"):
            cv_select_lambda(cv_first(train, plan), grid_weights(np.full(10, 0.3), plan), TargetThreshold(0.3))
        with pytest.raises(DataError, match=r"development row, \(2, 60\), not \(1, 60\)$"):
            cv_select_lambda(cv_first(train, plan), np.ones((1, train.n)), TargetThreshold(0.3))

    def test_process_pool_matches_serial(self):
        """Cells own their seeds, so parallel and serial runs agree exactly."""
        train, _ = generate_sim1(Sim1Config(n=150, q=1.0, seed=8))
        rng = np.random.default_rng(0)
        pi_u = rng.uniform(0.1, 0.9, size=train.n)
        plan = make_cv_plan(train.outcomes, k=3, lambda_grid=(0.0, 10.0), seed=1)
        weights = grid_weights(pi_u, plan)
        serial = cv_select_lambda(cv_first(train, plan), weights, TargetThreshold(0.3))
        parallel = cv_select_lambda(cv_first(train, plan, jobs=2), weights, TargetThreshold(0.3))
        assert serial == parallel

    @staticmethod
    def fail_folds(monkeypatch, seeds):
        """Make every chain of each fold whose sampler seed is in ``seeds`` fail."""
        real_fit_folds = tuning.fit_folds

        def flaky(datasets, weights, prior, config, fold_seeds):
            fits = real_fit_folds(datasets, weights, prior, config, fold_seeds)
            return [
                [SamplerError("injected failure") for _ in w] if seed in seeds else chains
                for chains, w, seed in zip(fits, weights, fold_seeds)
            ]

        monkeypatch.setattr(tuning, "fit_folds", flaky)

    def test_single_fold_failure_tolerated(self, monkeypatch):
        train, _ = generate_sim1(Sim1Config(n=120, q=1.0, seed=6))
        self.fail_folds(monkeypatch, {FASTER.rng_seed + 1})  # fold 1 always fails
        plan = make_cv_plan(train.outcomes, k=5, lambda_grid=(0.0, 5.0), seed=1)
        weights = grid_weights(np.full(train.n, 0.4), plan)
        lam, table = cv_select_lambda(cv_first(train, plan), weights, TargetThreshold(0.3))
        failures = [row for row in table if row["error"]]
        assert len(failures) == 2  # one per lam
        assert all(row["fold"] == 1 for row in failures)
        assert lam in (0.0, 5.0)

    def test_too_many_failures_raise(self, monkeypatch):
        train, _ = generate_sim1(Sim1Config(n=120, q=1.0, seed=6))
        self.fail_folds(monkeypatch, {FASTER.rng_seed + 1, FASTER.rng_seed + 2})
        plan = make_cv_plan(train.outcomes, k=5, lambda_grid=(0.0, 5.0), seed=1)
        weights = grid_weights(np.full(train.n, 0.4), plan)
        with pytest.raises(SamplerError):
            cv_select_lambda(cv_first(train, plan), weights, TargetThreshold(0.3))

    def test_nonfinite_start_fails_only_its_cells(self):
        """Infinite weights at lam = 5 make that chain's start point NaN in every fold."""
        train, _ = generate_sim1(Sim1Config(n=120, q=1.0, seed=6))
        pi_u = np.random.default_rng(2).uniform(0.1, 0.9, size=train.n)
        plan = make_cv_plan(train.outcomes, k=3, lambda_grid=(0.0, 5.0, 50.0), seed=1)
        weights = grid_weights(pi_u, plan)
        weights[plan.lambda_grid.index(5.0)] = np.inf
        with np.errstate(invalid="ignore"):
            lam, table = cv_select_lambda(cv_first(train, plan), weights, TargetThreshold(0.3))
        failed = {(row["lambda"], row["fold"]) for row in table if row["error"]}
        assert failed == {(5.0, 1), (5.0, 2), (5.0, 3)}
        assert all("initial point" in row["error"] for row in table if row["error"])
        assert all(row["nb"] is not None for row in table if row["lambda"] != 5.0)
        assert lam in (0.0, 50.0)

    def test_batched_chains_equal_single_fits(self, monkeypatch):
        """Each fold's lam chains run in one sampler loop, yet each equals its own fit_tailored run."""
        train, _ = generate_sim1(Sim1Config(n=150, q=1.0, seed=8))
        pi_u = np.random.default_rng(0).uniform(0.1, 0.9, size=train.n)
        t = TargetThreshold(0.3)
        plan = make_cv_plan(train.outcomes, k=3, lambda_grid=(0.0, 5.0, 50.0), seed=1)
        batches = {}
        real_fit_folds = tuning.fit_folds

        def recording(datasets, weights, prior, config, seeds):
            result = real_fit_folds(datasets, weights, prior, config, seeds)
            batches.update(zip(seeds, result))
            return result

        monkeypatch.setattr(tuning, "fit_folds", recording)
        _, table = cv_select_lambda(cv_first(train, plan), grid_weights(pi_u, plan), t)
        monkeypatch.undo()
        prior = GaussianPrior.vague(train.n_coefficients)
        assert len(batches) == plan.k
        assert all(len(chains) == len(plan.lambda_grid) for chains in batches.values())
        for fold in range(plan.k):
            seed = fold_seed(FASTER.rng_seed, fold)
            tr = plan.train_indices(fold)
            for lam, chain in zip(plan.lambda_grid, batches[seed]):
                (weights,) = compute_weights(pi_u, t, [lam], DistanceFunction())
                alone = fit_tailored(train.subset(tr), weights[tr], prior, replace(FASTER, rng_seed=seed))
                assert isinstance(chain, PosteriorSamples)
                assert np.array_equal(chain.draws, alone.draws)
                assert chain.acceptance_rate == alone.acceptance_rate
                assert chain.final_proposal_sd == alone.final_proposal_sd
                assert chain.n_nonfinite_proposals == alone.n_nonfinite_proposals
        # the lam chains of a fold sample different posteriors
        assert not np.array_equal(batches[FASTER.rng_seed + 1][0].draws, batches[FASTER.rng_seed + 1][2].draws)
        assert len(table) == len(plan.lambda_grid) * plan.k

    def test_stacked_thresholds_give_each_chain_the_bits_of_its_own_call(self, monkeypatch):
        """Three thresholds' CV in one stack: each chain is its one-threshold chain, and a fold runs one lam = 0 chain."""
        train, _ = generate_sim1(Sim1Config(n=150, q=1.0, seed=8))
        pi_u = np.random.default_rng(0).uniform(0.1, 0.9, size=train.n)
        plan = make_cv_plan(train.outcomes, k=3, lambda_grid=tuning.DEFAULT_LAMBDA_GRID, seed=1)
        thresholds = [TargetThreshold(t) for t in (0.2, 0.3, 0.4)]
        weights = [compute_weights(pi_u, t, plan.lambda_grid) for t in thresholds]
        calls = []
        real_fit_folds = tuning.fit_folds

        def recording(datasets, fold_weights, prior, config, seeds):
            result = real_fit_folds(datasets, fold_weights, prior, config, seeds)
            calls.append(dict(zip(seeds, zip(fold_weights, result))))
            return result

        monkeypatch.setattr(tuning, "fit_folds", recording)
        stacked = tuning.cv_select_lambdas(cv_first(train, plan), weights, thresholds)
        alone = [cv_select_lambda(cv_first(train, plan), w, t) for w, t in zip(weights, thresholds)]
        assert stacked == alone
        (stack, *own_calls) = calls
        n_lams = len(plan.lambda_grid)
        for seed, (stack_weights, chains) in stack.items():
            assert len(chains) == 1 + 3 * (n_lams - 1)
            assert sum(np.all(row == 1.0) for row in stack_weights) == 1  # one lam = 0 chain per fold
            for own in own_calls:
                own_weights, own_chains = own[seed]
                for row, chain in zip(own_weights, own_chains):
                    (match,) = [c for w, c in zip(stack_weights, chains) if np.array_equal(w, row)]
                    assert np.array_equal(match.draws, chain.draws)
                    assert np.array_equal(match.accepted, chain.accepted)
                    assert np.array_equal(match.proposal_sd_trace, chain.proposal_sd_trace)
                    assert np.array_equal(match.log_posterior_trace, chain.log_posterior_trace)

    def test_one_value_grid_selects_zero_before_any_check_or_chain(self, monkeypatch):
        """A {0} grid's CV is lam* = 0 with an empty table at every threshold, with no pool, chain or weight check."""
        train, _ = generate_sim1(Sim1Config(n=120, q=1.0, seed=6))
        first = cv_first(train, make_cv_plan(train.outcomes, k=3, lambda_grid=(0.0,), seed=1))

        def forbidden(*args):
            raise AssertionError("a {0} grid runs no CV chain")

        monkeypatch.setattr(tuning, "fit_folds", forbidden)
        monkeypatch.setattr(tuning, "map_jobs", forbidden)
        thresholds = [TargetThreshold(t) for t in (0.2, 0.3, 0.4)]
        assert tuning.cv_select_lambdas(first, [np.ones((1, train.n))] * 3, thresholds) == [(0.0, [])] * 3
        assert cv_select_lambda(first, np.ones((2, 5)), thresholds[0]) == (0.0, [])  # the shape is not checked

    def test_stack_beyond_physical_memory_fails_before_any_chain(self, monkeypatch):
        """One threshold's 3 folds x 3 chains fit in memory; three thresholds' 3 x 7 distinct chains do not."""
        train, _ = generate_sim1(Sim1Config(n=120, q=1.0, seed=6))
        plan = make_cv_plan(train.outcomes, k=3, lambda_grid=(0.0, 5.0, 50.0), seed=1)
        per_draw = 3 * 8 + 8 + 1  # three float64 coefficients, a float64 trace value and a bool flag
        retained = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // (9 * per_draw)
        config = SamplerConfig(n_iterations=retained, burn_in=0, rng_seed=11)
        tuning._check_draw_store(9, 3, config)  # a one-threshold call's stack fits
        first = cv_first(train, plan)._replace(cv_config=config)
        monkeypatch.setattr(tuning, "map_jobs", None)
        monkeypatch.setattr(tuning, "fit_folds", None)  # no chain may run
        pi_u = np.random.default_rng(2).uniform(0.1, 0.9, size=train.n)
        thresholds = [TargetThreshold(t) for t in (0.2, 0.3, 0.4)]
        with pytest.raises(ConfigError, match=f"of 21 chains of {retained} draws need"):
            tuning.cv_select_lambdas(first, [compute_weights(pi_u, t, plan.lambda_grid) for t in thresholds],
                                     thresholds)

    def test_empty_fold_rejected_before_stage_one(self, monkeypatch):
        # 240 development rows, so at most 240 folds: k = 200 leaves folds empty, though make_cv_plan accepts it
        train, _ = generate_sim1(Sim1Config(n=300, q=1.0, seed=7))
        monkeypatch.setattr(tuning, "run_mh", None)  # no chain may run, stage 1's included
        with pytest.raises(DataError, match="cannot make 200 non-empty CV folds from 240 development rows"):
            fit_pipeline(first_stage(train, lambda_grid=(0.0, 5.0), k_folds=200, sampler_config=FASTER),
                         TargetThreshold(0.3))

    def test_final_draw_store_beyond_physical_memory_fails_before_cv(self, monkeypatch):
        # external pi_u skips stage 1, so CV would otherwise run to its end before the final chain
        train, _ = generate_sim1(Sim1Config(n=300, q=1.0, seed=7))
        monkeypatch.setattr(tuning, "run_mh", None)
        monkeypatch.setattr(tuning, "fit_folds", None)  # no chain may run
        with pytest.raises(ConfigError, match="need 33000000000000000 bytes, more than the"):
            fit_pipeline(first_stage(train, lambda_grid=(0.0, 5.0), external_pi_u=np.full(train.n, 0.4),
                                     sampler_config=SamplerConfig(n_iterations=10**15, burn_in=0),
                                     cv_chain=FASTER_CHAIN), TargetThreshold(0.3))

    def test_cv_chain_that_retains_no_draw_names_the_cv_chain(self):
        # the final chain's (400, 350) is valid; the CV chain's burn-in of 350 is not below its 300 iterations
        train, _ = generate_sim1(Sim1Config(n=300, q=1.0, seed=7))
        message = (r"^the CV chain \(cv_chain, --cv-iterations/--cv-burn-in\) of 300 iterations and burn-in 350: "
                   r"burn_in must satisfy 0 <= burn_in < n_iterations$")
        with pytest.raises(ConfigError, match=message):
            fit_pipeline(first_stage(train, lambda_grid=(0.0, 5.0), cv_chain=(300, 350),
                                     sampler_config=SamplerConfig(n_iterations=400, burn_in=350)), TargetThreshold(0.3))

    def test_empty_fold_rejected_before_any_chain(self, monkeypatch):
        # 9 rows, 4 of them positive: the plan exists, but folds 5 to 8 of its k = 9 hold no row
        development = Dataset.from_raw(np.random.default_rng(2).standard_normal((9, 1)), np.arange(9) % 2)
        monkeypatch.setattr(tuning, "map_jobs", None)  # no chain may run
        message = "cannot make 9 non-empty CV folds from 9 development rows: the outcome classes have 5 and 4 rows"
        with pytest.raises(DataError, match=message):
            first_stage(development, lambda_grid=(0.0, 5.0), k_folds=9, sampler_config=FASTER,
                        external_pi_u=np.full(9, 0.4))


class TestFitFolds:
    @pytest.mark.parametrize(
        "prior, thin",
        [(None, 1), (GaussianPrior(np.array([0.5, -1.0, 0.25]), np.array([2.0, 5.0, 0.5])), 3)],
        ids=["vague", "centred-thin-3"],
    )
    def test_stacked_folds_equal_their_own_batches(self, prior, thin):
        """Folds of unequal size with F-ordered weights, stacked, give each fold's own chains bit for bit."""
        train, _ = generate_sim1(Sim1Config(n=163, q=1.0, seed=9))
        pi_u = np.random.default_rng(5).uniform(0.1, 0.9, size=train.n)
        grid = (0.0, 2.0, 10.0, 50.0)
        plan = make_cv_plan(train.outcomes, k=4, lambda_grid=grid, seed=3)
        prior = prior or GaussianPrior.vague(train.n_coefficients)
        weights = compute_weights(pi_u, TargetThreshold(0.3), grid)
        trains = [plan.train_indices(fold) for fold in range(plan.k)]
        assert len({len(tr) for tr in trains}) > 1  # unequal folds: the stack pads
        fold_weights = [weights[:, tr] for tr in trains]
        assert not any(w.flags.c_contiguous for w in fold_weights)  # as cv_select_lambda passes them
        config = replace(FASTER, thin=thin)
        seeds = [fold_seed(config.rng_seed, fold) for fold in range(plan.k)]
        stacked = tuning.fit_folds([train.subset(tr) for tr in trains], fold_weights, prior, config, seeds)
        assert len(stacked) == plan.k
        for tr, w, seed, chains in zip(trains, fold_weights, seeds, stacked):
            (alone,) = tuning.fit_folds([train.subset(tr)], [w], prior, config, [seed])
            assert len(chains) == len(grid)
            for chain, own in zip(chains, alone):
                assert np.array_equal(chain.draws, own.draws)
                assert np.array_equal(chain.log_posterior_trace, own.log_posterior_trace)
                assert np.array_equal(chain.accepted, own.accepted)
                assert np.array_equal(chain.proposal_sd_trace, own.proposal_sd_trace)
                assert chain.n_nonfinite_proposals == own.n_nonfinite_proposals
                assert chain.rng_seed == own.rng_seed == seed
                # chain-major storage: each chain's arrays are contiguous views of one run's arrays
                assert chain.draws.flags.c_contiguous and chain.draws.base is stacked[0][0].draws.base

    def test_failures_stay_in_their_cells(self):
        """A non-finite start fails only its own (lam, fold) chain of the stack."""
        train, _ = generate_sim1(Sim1Config(n=90, q=1.0, seed=4))
        trains = [np.arange(0, 60), np.arange(25, 90)]
        fold_weights = [np.ones((3, len(tr))) for tr in trains]
        fold_weights[1][2, 0] = np.inf  # inf * log(2) at the start point: that chain's start is non-finite
        stacked = tuning.fit_folds(
            [train.subset(tr) for tr in trains], fold_weights, GaussianPrior.vague(3), FASTER, [5, 6]
        )
        failed = [[isinstance(c, SamplerError) for c in chains] for chains in stacked]
        assert failed == [[False, False, False], [False, False, True]]
        assert "initial point" in str(stacked[1][2])


class TestJobsCheck:
    """``jobs`` is checked once, in ``tuning._workers``: every entry point refuses a bad value before any chain."""

    BAD_JOBS = [0, -3, True, 2.5]

    @staticmethod
    def message(jobs):
        return "^" + re.escape(f"jobs must be an integer of at least 1, got {jobs!r}") + "$"

    @pytest.mark.parametrize("grid", [tuning.DEFAULT_LAMBDA_GRID, (0.0,)])
    @pytest.mark.parametrize("jobs", BAD_JOBS)
    def test_first_stage_refuses_it_before_any_chain(self, jobs, grid, monkeypatch):
        def no_chain(*args):
            raise AssertionError("no chain may run")

        monkeypatch.setattr(tuning, "stage1_pi_u", no_chain)
        monkeypatch.setattr(tuning, "fit_folds", no_chain)
        train, _ = generate_sim1(Sim1Config(n=200, q=1.0, seed=6))
        with pytest.raises(ConfigError, match=self.message(jobs)):
            first_stage(train, lambda_grid=grid, sampler_config=FASTER, jobs=jobs)

    @pytest.mark.parametrize("jobs", BAD_JOBS)
    def test_map_jobs_refuses_it_before_any_pool(self, jobs, monkeypatch):
        monkeypatch.setattr(tuning, "ProcessPoolExecutor", None)
        with pytest.raises(ConfigError, match=self.message(jobs)):
            tuning.map_jobs(abs, [1, 2], jobs)

    def test_a_numpy_integer_is_an_integer(self):
        assert tuning.map_jobs(abs, [-1, -2], np.int64(1)) == [1, 2]


class TestMapJobs:
    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records max_workers and maps in-process."""

        sizes: list = []

        def __init__(self, max_workers):
            self.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            return map(fn, payloads)

    @pytest.fixture()
    def pool_sizes(self, monkeypatch):
        self.RecordingPool.sizes = []
        monkeypatch.setattr(tuning, "ProcessPoolExecutor", self.RecordingPool)
        monkeypatch.setattr(tuning, "USABLE_CPUS", 64)  # pool sizes below do not depend on the host
        return self.RecordingPool.sizes

    def test_pool_never_outnumbers_payloads(self, pool_sizes):
        assert tuning.map_jobs(abs, [-1, -2, -3], 64) == [1, 2, 3]
        assert tuning.map_jobs(abs, [-1, -2, -3], 2) == [1, 2, 3]
        assert pool_sizes == [3, 2]

    def test_single_payload_or_job_runs_in_process(self, pool_sizes):
        assert tuning.map_jobs(abs, [-4], 64) == [4]
        assert tuning.map_jobs(abs, [-1, -2], 1) == [1, 2]
        assert tuning.map_jobs(abs, [], 8) == []
        assert pool_sizes == []

    def test_pool_never_outnumbers_the_usable_cpus(self, pool_sizes, monkeypatch):
        """jobs beyond the CPUs the process may use start no more workers, in map_jobs and in the CV fold groups."""
        monkeypatch.setattr(tuning, "USABLE_CPUS", 2)
        assert tuning.map_jobs(abs, list(range(-1000, 0)), 1000) == list(range(1000, 0, -1))
        assert [len(group) for group in tuning._fold_groups(1000, 1000)] == [500, 500]
        train, _ = generate_sim1(Sim1Config(n=130, q=1.0, seed=6))
        plan = make_cv_plan(train.outcomes, k=5, lambda_grid=(0.0, 5.0), seed=1)
        weights = grid_weights(np.full(train.n, 0.4), plan)
        pooled = cv_select_lambda(cv_first(train, plan, jobs=64), weights, TargetThreshold(0.3))
        assert pool_sizes == [2, 2]
        assert pooled == cv_select_lambda(cv_first(train, plan), weights, TargetThreshold(0.3))

    def test_a_worker_that_dies_is_a_worker_lost_error(self, monkeypatch):
        """Payload 0 kills its worker in a pool of two: task 1 of 2 lost its result; no BrokenProcessPool escapes."""
        monkeypatch.setattr(tuning, "USABLE_CPUS", 2)  # a pool of two, so the dying task never runs in this process
        with pytest.raises(WorkerLostError, match=r"^a worker process died \(killed, out of memory or crashed\), "
                                                  r"so the result of task 1 of 2 was lost$"):
            tuning.map_jobs(_exit_on_zero, [0, 1], 2)
        assert tuning.map_jobs(_exit_on_zero, [1, 2], 2) == [1, 2]

    @pytest.mark.parametrize("k, lost", [(5, "CV folds 1-3"), (2, "CV fold 1")])
    def test_a_lost_cv_fold_group_is_named_by_its_folds(self, k, lost, monkeypatch):
        """Every fold group's worker dies in a pool of two, so the first group's result is the first lost."""
        monkeypatch.setattr(tuning, "USABLE_CPUS", 2)
        monkeypatch.setattr(tuning, "fit_folds", exit_in_worker)
        train, _ = generate_sim1(Sim1Config(n=130, q=1.0, seed=6))
        plan = make_cv_plan(train.outcomes, k=k, lambda_grid=(0.0, 5.0), seed=1)
        with pytest.raises(WorkerLostError, match=rf"^a worker process died \(killed, out of memory or crashed\), "
                                                  rf"so the result of {lost} was lost$") as lost_error:
            cv_select_lambda(cv_first(train, plan, jobs=2), grid_weights(np.full(train.n, 0.4), plan),
                             TargetThreshold(0.3))
        assert lost_error.value.task == 0

    def test_a_lost_rhat_rerun_is_named_by_its_seed(self, monkeypatch):
        train, _ = generate_sim1(Sim1Config(n=200, q=1.0, seed=9))
        model = fit_pipeline(first_stage(train, lambda_grid=(0.0,), sampler_config=FASTER, jobs=2),
                             TargetThreshold(0.3))
        monkeypatch.setattr(tuning, "USABLE_CPUS", 2)
        monkeypatch.setattr(tuning, "fit_tailored", exit_in_worker)
        seed = tuning.rhat_seeds(FASTER.rng_seed, 3)[0]
        with pytest.raises(WorkerLostError, match=rf"^a worker process died \(killed, out of memory or crashed\), "
                                                  rf"so the result of the R-hat rerun of seed {seed} was lost$"):
            final_fit_rhat(model, 3)

    def test_cv_pool_gets_one_worker_per_fold(self, pool_sizes):
        train, _ = generate_sim1(Sim1Config(n=120, q=1.0, seed=6))
        plan = make_cv_plan(train.outcomes, k=3, lambda_grid=(0.0, 5.0), seed=1)
        weights = grid_weights(np.full(train.n, 0.4), plan)
        serial = cv_select_lambda(cv_first(train, plan), weights, TargetThreshold(0.3))
        pooled = cv_select_lambda(cv_first(train, plan, jobs=64), weights, TargetThreshold(0.3))
        assert pool_sizes == [3]
        assert pooled == serial

    def test_cv_result_does_not_depend_on_jobs(self, pool_sizes, monkeypatch):
        """jobs = J splits the K = 5 folds into min(J, K) contiguous groups; lambda* and the table never change."""
        train, _ = generate_sim1(Sim1Config(n=130, q=1.0, seed=6))
        pi_u = np.random.default_rng(3).uniform(0.1, 0.9, size=train.n)
        plan = make_cv_plan(train.outcomes, k=5, lambda_grid=(0.0, 5.0, 50.0), seed=1)
        groups = []
        real_map_jobs = tuning.map_jobs

        def recording(fn, payloads, jobs):
            groups.append([[seed for *_, seed in payload[0]] for payload in payloads])
            return real_map_jobs(fn, payloads, jobs)

        monkeypatch.setattr(tuning, "map_jobs", recording)
        weights = grid_weights(pi_u, plan)
        results = {
            jobs: cv_select_lambda(cv_first(train, plan, jobs=jobs), weights, TargetThreshold(0.3))
            for jobs in (1, 2, 3, 64)
        }
        assert all(result == results[1] for result in results.values())
        seeds = [fold_seed(FASTER.rng_seed, fold) for fold in range(5)]
        assert groups == [[seeds], [seeds[:3], seeds[3:]], [seeds[:2], seeds[2:4], seeds[4:]], [[s] for s in seeds]]
        assert pool_sizes == [2, 3, 5]


class TestFirstStageWeights:
    def test_without_pi_u_one_row_of_ones(self):
        train, _ = generate_sim1(Sim1Config(n=200, q=1.0, seed=4))
        first = first_stage(train, lambda_grid=(0.0,), sampler_config=FASTER)
        weights = first.weights(TargetThreshold(0.3), DistanceFunction())
        assert first.pi_u_development is None
        assert weights.shape == (1, first.development.n)
        assert np.all(weights == 1.0)

    @pytest.mark.parametrize("distance", [DistanceFunction(), DistanceFunction("epsilon_insensitive", 0.05)])
    def test_with_pi_u_the_grid_weights_bit_for_bit(self, distance):
        train, _ = generate_sim1(Sim1Config(n=200, q=1.0, seed=4))
        pi_u = np.random.default_rng(5).uniform(0.0, 1.0, size=train.n)
        first = first_stage(train, lambda_grid=(0.0, 2.0, 50.0), sampler_config=FASTER, external_pi_u=pi_u)
        t = TargetThreshold(0.3)
        expected = compute_weights(first.pi_u_development, t, (0.0, 2.0, 50.0), distance)
        assert first.weights(t, distance).tobytes() == expected.tobytes()
        assert first.weights(t, distance).shape == (3, train.n)


class TestFitPipeline:
    def test_grid_of_zero_reduces_to_standard_fit(self):
        train, _ = generate_sim1(Sim1Config(n=400, q=1.0, seed=1))
        model = fit_pipeline(first_stage(train, lambda_grid=(0.0,), sampler_config=FAST), TargetThreshold(0.3))
        development = train.subset(model.first.split.development_idx)
        baseline = fit_standard(development, FAST)
        assert model.lambda_star == 0.0
        assert np.array_equal(model.samples.draws, baseline.draws)
        assert np.all(model.weights == 1.0)
        assert model.ess_t == development.n
        assert model.ess_grid == [{"lambda": 0.0, "ess": development.n, "ess_fraction": 1.0, "low_ess": False}]

    def test_low_ess_warning_and_ess_t_read_the_lambda_star_row(self, monkeypatch, caplog):
        train, _ = generate_sim1(Sim1Config(n=300, q=1.0, seed=7))
        pi_u = np.where(np.arange(train.n) % 20 == 0, 0.3, 0.95)  # at lam = 200 only every 20th row keeps weight
        monkeypatch.setattr(tuning, "cv_select_lambda", lambda *args, **kwargs: (200.0, []))
        with caplog.at_level(logging.WARNING, logger="tailbayes.tuning"):
            first = first_stage(train, lambda_grid=(0.0, 200.0), external_pi_u=pi_u, sampler_config=FASTER)
            model = fit_pipeline(first, TargetThreshold(0.3))
        row = model.ess_grid[1]
        assert row["low_ess"] and not model.ess_grid[0]["low_ess"]
        assert (model.ess_t, model.ess_fraction) == (row["ess"], row["ess_fraction"])
        assert f"effective sample size {row['ess']:.1f} is below 10% of the development rows" in caplog.messages

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_value_grid_runs_only_the_final_chain(self, jobs, monkeypatch):
        """A {0} grid runs no stage 1 and no pool: its one chain is the standard fit on the development rows."""
        train, _ = generate_sim1(Sim1Config(n=300, q=1.0, seed=8))
        seeds = []
        real_run_mh = tuning.run_mh

        def recording(log_posterior, dim, config):
            seeds.append(config.rng_seed)
            return real_run_mh(log_posterior, dim, config)

        monkeypatch.setattr(tuning, "run_mh", recording)
        monkeypatch.setattr(tuning, "map_jobs", None)
        model = fit_pipeline(first_stage(train, lambda_grid=(0.0,), sampler_config=FASTER, jobs=jobs),
                             TargetThreshold(0.3))
        assert seeds == [FASTER.rng_seed]
        baseline = fit_standard(train.subset(model.first.split.development_idx), FASTER)
        assert np.array_equal(model.samples.draws, baseline.draws)
        assert np.array_equal(model.samples.log_posterior_trace, baseline.log_posterior_trace)
        assert np.array_equal(model.samples.accepted, baseline.accepted)
        assert np.array_equal(model.samples.proposal_sd_trace, baseline.proposal_sd_trace)
        assert model.first.stage1 is None and model.first.pi_u_development is None
        assert np.all(model.weights == 1.0)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_single_class_design_is_the_same_error_at_any_jobs(self, jobs, monkeypatch):
        data = Dataset.from_raw(np.random.default_rng(0).standard_normal((60, 2)), np.ones(60))
        monkeypatch.setattr(tuning, "map_jobs", None)  # raised before any chain runs, the final one included
        with pytest.raises(DataError, match="design set contains a single outcome class"):
            fit_pipeline(first_stage(data, lambda_grid=(0.0,), sampler_config=FASTER, jobs=jobs),
                         TargetThreshold(0.3))

    def test_rhat_reruns_do_not_depend_on_jobs(self):
        train, _ = generate_sim1(Sim1Config(n=200, q=1.0, seed=9))
        model = {jobs: fit_pipeline(first_stage(train, lambda_grid=(0.0,), sampler_config=FASTER, jobs=jobs),
                                    TargetThreshold(0.3)) for jobs in (1, 2)}
        serial, serial_seeds = final_fit_rhat(model[1], 3)
        assert serial.shape == (3,) and serial_seeds == tuning.rhat_seeds(FASTER.rng_seed, 3)
        pooled, pooled_seeds = final_fit_rhat(model[2], 3)
        assert np.array_equal(pooled, serial) and pooled_seeds == serial_seeds

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_first_failed_rhat_rerun_in_seed_order_is_raised(self, jobs, monkeypatch):
        train, _ = generate_sim1(Sim1Config(n=200, q=1.0, seed=9))
        model = fit_pipeline(first_stage(train, lambda_grid=(0.0,), sampler_config=FASTER, jobs=jobs),
                             TargetThreshold(0.3))
        seeds = tuning.rhat_seeds(FASTER.rng_seed, 4)
        real = tuning.fit_tailored

        def fail_after_the_first(data, weights, prior, config):
            if config.rng_seed in seeds[1:]:  # the second and third reruns fail, the first succeeds
                raise SamplerError(f"rerun of seed {config.rng_seed} failed")
            return real(data, weights, prior, config)

        monkeypatch.setattr(tuning, "fit_tailored", fail_after_the_first)
        with pytest.raises(SamplerError, match=f"^rerun of seed {seeds[1]} failed$"):
            final_fit_rhat(model, 4)

    def test_deterministic_rerun(self):
        train, _ = generate_sim1(Sim1Config(n=300, q=1.0, seed=2))
        kwargs = dict(lambda_grid=(0.0, 5.0, 25.0), sampler_config=FAST, cv_chain=FASTER_CHAIN)
        a = fit_pipeline(first_stage(train, **kwargs), TargetThreshold(0.3))
        b = fit_pipeline(first_stage(train, **kwargs), TargetThreshold(0.3))
        assert a.lambda_star == b.lambda_star
        assert np.array_equal(a.samples.draws, b.samples.draws)
        assert a.cv_table == b.cv_table

    def test_refit_at_lambda_star_reproduces_posterior(self):
        train, _ = generate_sim1(Sim1Config(n=300, q=1.0, seed=3))
        model = fit_pipeline(
            first_stage(train, lambda_grid=(0.0, 5.0, 25.0), sampler_config=FAST, cv_chain=FASTER_CHAIN),
            TargetThreshold(0.3),
        )
        development = train.subset(model.first.split.development_idx)
        (weights,) = compute_weights(model.first.pi_u_development, model.threshold, [model.lambda_star], model.distance)
        refit = run_mh(
            make_log_posterior(development, weights, model.first.prior),
            development.n_coefficients,
            FAST,
        )
        assert np.array_equal(refit.draws, model.samples.draws)
        assert np.array_equal(refit.log_posterior_trace, model.samples.log_posterior_trace)
        assert np.array_equal(refit.accepted, model.samples.accepted)
        assert np.array_equal(refit.proposal_sd_trace, model.samples.proposal_sd_trace)

    def test_no_leakage_index_bookkeeping(self):
        train, _ = generate_sim1(Sim1Config(n=250, q=1.0, seed=4))
        model = fit_pipeline(first_stage(train, lambda_grid=(0.0, 5.0), sampler_config=FASTER), TargetThreshold(0.3))
        design, dev = model.first.split.design_idx, model.first.split.development_idx
        assert np.intersect1d(design, dev).size == 0
        assert np.array_equal(np.sort(np.concatenate([design, dev])), np.arange(250))
        assert np.array_equal(model.first.stage1.draws, fit_standard(train.subset(design), FASTER).draws)
        assert model.first.pi_u_development.shape[0] == dev.shape[0]
        folds = np.concatenate(
            [model.first.cv_plan.fold_indices(k) for k in range(model.first.cv_plan.k)]
        )
        assert np.array_equal(np.sort(folds), np.arange(dev.shape[0]))

    def test_external_pi_u_skips_stage_one(self):
        train, _ = generate_sim1(Sim1Config(n=200, q=1.0, seed=5))
        pi_u = np.clip(train.covariates[:, 2], 0.01, 0.99)
        model = fit_pipeline(
            first_stage(train, lambda_grid=(0.0, 10.0), sampler_config=FASTER, external_pi_u=pi_u),
            TargetThreshold(0.3),
        )
        assert model.first.stage1 is None
        assert model.first.split.design_idx.shape[0] == 0
        assert model.first.split.development_idx.shape[0] == 200
        np.testing.assert_array_equal(
            model.first.pi_u_development, pi_u[model.first.split.development_idx]
        )

    def test_external_pi_u_length_checked(self):
        train, _ = generate_sim1(Sim1Config(n=100, q=1.0, seed=5))
        with pytest.raises(DataError):
            fit_pipeline(
                first_stage(train, lambda_grid=(0.0,), sampler_config=FASTER, external_pi_u=np.full(99, 0.5)),
                TargetThreshold(0.3),
            )

    @pytest.mark.parametrize("train", [generate_sim1(Sim1Config(n=300, q=1.0, seed=6))[0],
                                       generate_sim2(Sim2Config(n=300, seed=6, prevalence=0.3))[0]],
                             ids=["sim1", "sim2"])
    def test_thresholds_sharing_one_first_stage_fit_as_the_full_pipeline(self, train):
        """One first stage serves t = 0.2 and 0.5 as a fresh one per threshold does, and neither fit writes to it."""
        kwargs = dict(lambda_grid=(0.0, 5.0, 25.0), sampler_config=FAST, cv_chain=FASTER_CHAIN)
        shared = first_stage(train, **kwargs)

        def arrays(first):
            return [first.split.design_idx, first.split.development_idx, first.development.outcomes,
                    first.development.covariates, first.cv_plan.fold_ids, first.stage1.draws, first.pi_u_development]

        before = [a.copy() for a in arrays(shared)]
        assert not shared.pi_u_development.flags.writeable
        for t in (0.2, 0.5):
            full = fit_pipeline(first_stage(train, **kwargs), TargetThreshold(t))
            model = fit_pipeline(shared, TargetThreshold(t))
            assert model.first is shared
            assert model.lambda_star == full.lambda_star
            assert model.cv_table == full.cv_table
            assert np.array_equal(model.weights, full.weights)
            assert np.array_equal(model.samples.draws, full.samples.draws)
        assert all(np.array_equal(a, b) for a, b in zip(arrays(shared), before))

    def test_weights_bump_centered_at_threshold(self):
        """Weights against pi_u form the exponential bump peaked at t."""
        train, _ = generate_sim1(Sim1Config(n=400, q=1.0, seed=7))
        model = fit_pipeline(
            first_stage(train, lambda_grid=(0.0, 25.0), sampler_config=FAST, cv_chain=FASTER_CHAIN),
            TargetThreshold(0.3),
        )
        dist = np.abs(model.first.pi_u_development - 0.3)
        order = np.argsort(dist)
        w = model.weights[order]
        assert np.all(np.diff(w) <= 1e-12)
        assert w[0] == model.weights.max()


@settings(derandomize=True, max_examples=6, deadline=None, database=None)
@given(n=st.integers(60, 160), data_seed=st.integers(0, 2**16), rng_seed=st.integers(0, 2**32 - 1))
def test_grid_of_zero_is_a_standard_fit_on_the_development_rows(n, data_seed, rng_seed):
    """The lam = {0} reduction identity, bit for bit, over small random datasets and seeds."""
    train, _ = generate_sim1(Sim1Config(n=n, q=1.0, seed=data_seed))
    config = SamplerConfig(n_iterations=400, burn_in=150, rng_seed=rng_seed)
    try:
        model = fit_pipeline(first_stage(train, lambda_grid=(0.0,), sampler_config=config), TargetThreshold(0.3))
    except DataError:  # a single-class design set: no stage 1, so nothing to compare
        assume(False)
    baseline = fit_standard(train.subset(model.first.split.development_idx), config)
    assert np.array_equal(model.samples.draws, baseline.draws)
    assert np.array_equal(model.samples.log_posterior_trace, baseline.log_posterior_trace)
    assert np.array_equal(model.samples.accepted, baseline.accepted)
    assert np.array_equal(model.samples.proposal_sd_trace, baseline.proposal_sd_trace)


class TestLambdaSelectionSignal:
    def test_sim1_prefers_tailoring_at_low_threshold(self):
        """At t=0.3 the CV picks lam > 0 in a majority of 20 replications."""
        from dataclasses import replace

        fast = SamplerConfig(n_iterations=1500, burn_in=600)
        positive = 0
        for rep in range(20):
            train, _ = generate_sim1(Sim1Config(n=600, q=1.0, seed=3000 + rep))
            model = fit_pipeline(
                first_stage(
                    train,
                    lambda_grid=(0.0, 5.0, 10.0, 25.0, 50.0),
                    sampler_config=replace(fast, rng_seed=rep),
                    cv_chain=(1000, 400),
                ),
                TargetThreshold(0.3),
            )
            positive += model.lambda_star > 0.0
        assert positive > 10


class TestEssGrid:
    def test_lambda_zero_row_is_exactly_one(self):
        rows = ess_grid((0.0, 5.0), compute_weights(np.array([0.2, 0.5, 0.9]), TargetThreshold(0.3), (0.0, 5.0)))
        assert rows[0]["ess_fraction"] == 1.0
        assert rows[0]["lambda"] == 0.0

    def test_strictly_decreasing_for_dispersed_pi_u(self):
        rng = np.random.default_rng(8)
        pi = rng.uniform(size=300)
        grid = tuning.DEFAULT_LAMBDA_GRID
        rows = ess_grid(grid, compute_weights(pi, TargetThreshold(0.25), grid))
        fractions = [r["ess_fraction"] for r in rows]
        assert all(b < a for a, b in zip(fractions, fractions[1:]))

    def test_far_threshold_triggers_low_ess_flag(self):
        pi = np.random.default_rng(9).uniform(0.7, 0.9, size=100)
        grid = (0.0, 10.0, 200.0)
        rows = ess_grid(grid, compute_weights(pi, TargetThreshold(0.05), grid))
        assert rows[-1]["ess_fraction"] < 0.01
        assert rows[-1]["low_ess"]
        assert not rows[0]["low_ess"]
