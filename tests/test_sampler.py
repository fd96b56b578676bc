import math
import tracemalloc
import warnings

import numpy as np
import pytest

from tailbayes.errors import ConfigError, SamplerError
from tailbayes.model_core import Dataset, GaussianPrior, make_log_posterior
from tailbayes.sampler import (
    SD_MIN,
    _run_chains,
    SamplerConfig,
    adapt_proposal_sd,
    gelman_rubin,
    mc_standard_error,
    run_mh,
)


def standard_normal_logpost(b):
    return -0.5 * np.vecdot(b, b)


def gamma_logpost(b):
    """Gamma(3, 1) in the first coordinate: 2 log v - v on v > 0, -inf elsewhere."""
    v = b[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(v > 0.0, 2.0 * np.log(v) - v, -np.inf)


def gamma_from(start):
    """:func:`gamma_logpost` moved left by ``start``: a chain at the origin starts inside the support, at v = start."""
    return lambda b: gamma_logpost(b + start)


class TestRunMh:
    def test_deterministic_given_seed(self):
        cfg = SamplerConfig(n_iterations=3000, burn_in=500, rng_seed=123)
        a = run_mh(standard_normal_logpost, 2, cfg)
        b = run_mh(standard_normal_logpost, 2, cfg)
        assert np.array_equal(a.draws, b.draws)
        assert a.final_proposal_sd == b.final_proposal_sd
        assert a.acceptance_rate == b.acceptance_rate

    def test_gaussian_target_moments(self):
        cfg = SamplerConfig(n_iterations=50_000, burn_in=5_000, rng_seed=11)
        s = run_mh(lambda b: -0.5 * b[:, 0] ** 2, 1, cfg)
        assert abs(s.draws.mean()) < 0.05
        assert abs(s.draws.std() - 1.0) < 0.05

    def test_acceptance_in_window_after_adaptation(self):
        for seed in (0, 1, 2, 3):
            cfg = SamplerConfig(n_iterations=20_000, burn_in=5_000, rng_seed=seed)
            s = run_mh(standard_normal_logpost, 3, cfg)
            assert 0.15 <= s.acceptance_rate <= 0.35

    def test_retention_count_with_thinning(self):
        cfg = SamplerConfig(n_iterations=1050, burn_in=50, thin=3, rng_seed=5)
        s = run_mh(standard_normal_logpost, 1, cfg)
        assert s.n_draws == (1050 - 50) // 3

    def test_nonfinite_start_raises(self):
        with pytest.raises(SamplerError):
            run_mh(gamma_logpost, 1, SamplerConfig(n_iterations=100, burn_in=10, rng_seed=1))

    def test_chain_that_never_moves_raises(self):
        # finite only at the start point, so no proposal is ever accepted
        cfg = SamplerConfig(n_iterations=300, burn_in=100, rng_seed=1)
        with pytest.raises(SamplerError, match="no proposal was accepted after burn-in"):
            run_mh(lambda b: np.where(np.any(b, axis=1), -np.inf, 0.0), 2, cfg)

    def test_chain_that_never_rejects_raises(self):
        # a flat target accepts every proposal: the chain is a random walk, not a posterior sample
        cfg = SamplerConfig(n_iterations=300, burn_in=100, rng_seed=1)
        with pytest.raises(SamplerError, match="every proposal was accepted after burn-in"):
            run_mh(lambda b: np.zeros(b.shape[0]), 2, cfg)

    def test_nonfinite_proposals_rejected_not_fatal(self):
        cfg = SamplerConfig(n_iterations=5000, burn_in=1000, rng_seed=7)
        s = run_mh(gamma_from(3.0), 1, cfg)
        assert s.n_nonfinite_proposals > 0
        assert np.all(np.isfinite(s.draws))
        assert np.all(s.draws + 3.0 > 0.0)

    def test_rejections_repeat_previous_state_exactly(self):
        cfg = SamplerConfig(n_iterations=4000, burn_in=500, rng_seed=3)
        s = run_mh(standard_normal_logpost, 2, cfg)
        repeats = np.all(s.draws[1:] == s.draws[:-1], axis=1)
        assert np.array_equal(repeats, ~s.accepted[1:])
        # accepted joint updates move every coordinate
        moved = s.draws[1:][s.accepted[1:]] != s.draws[:-1][s.accepted[1:]]
        assert np.all(moved)

    def test_no_adaptation_after_burn_in(self):
        cfg = SamplerConfig(n_iterations=20_000, burn_in=4_000, rng_seed=9)
        s = run_mh(standard_normal_logpost, 2, cfg)
        assert s.proposal_sd_trace.shape[0] == 4_000 // 50
        assert np.all(s.proposal_sd_trace[:, 0] <= 4_000)
        assert s.final_proposal_sd == s.proposal_sd_trace[-1, 1]

    def test_discretized_target_total_variation(self):
        """Long chain matches the grid-normalised target pmf within TV 0.05."""
        cfg = SamplerConfig(n_iterations=120_000, burn_in=20_000, rng_seed=5)
        s = run_mh(gamma_from(3.0), 1, cfg)
        edges = np.linspace(0.0, 14.0, 36)
        mids = 0.5 * (edges[:-1] + edges[1:])
        pmf = np.exp(2.0 * np.log(mids) - mids)
        pmf /= pmf.sum()
        hist, _ = np.histogram(s.draws[:, 0] + 3.0, bins=edges)
        tv = 0.5 * np.abs(hist / hist.sum() - pmf).sum()
        assert tv <= 0.05

    def test_draw_store_beyond_physical_memory_is_config_error(self):
        calls = []
        cfg = SamplerConfig(n_iterations=10**15, burn_in=0, rng_seed=1)
        with pytest.raises(ConfigError, match=r"need 17000000000000000 bytes, more than the \d+ bytes of physical memory"):
            run_mh(lambda b: calls.append(len(b)) or standard_normal_logpost(b), 1, cfg)
        assert calls == []  # raised before the start point is evaluated

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SamplerConfig(n_iterations=100, burn_in=100)
        with pytest.raises(ConfigError):
            SamplerConfig(thin=0)
        with pytest.raises(ConfigError):
            SamplerConfig(n_iterations=600, burn_in=200, thin=401)  # would retain no draw
        assert SamplerConfig(n_iterations=600, burn_in=200, thin=400).thin == 400
        with pytest.raises(ConfigError):
            SamplerConfig(initial_sd=0.0)
        for sd in (math.inf, math.nan):  # a step of inf * normal is inf or nan: no chain could run
            with pytest.raises(ConfigError, match="initial_sd must be finite"):
                SamplerConfig(initial_sd=sd)
        for sd in (1e-300, 0.999 * SD_MIN):  # below the floor adaptation clamps to: a chain that never leaves its start
            with pytest.raises(ConfigError, match="initial_sd must be at least 1e-08"):
                SamplerConfig(initial_sd=sd)
        assert SamplerConfig(initial_sd=SD_MIN).initial_sd == SD_MIN


class TestBatchedChains:
    """C chains in one sampler loop share one random stream and nothing else."""

    SCALES = np.array([0.5, 1.0, 3.0])
    CFG = SamplerConfig(n_iterations=3000, burn_in=1000, thin=2, rng_seed=21)

    @staticmethod
    def single(scale):
        return lambda b: -0.5 * np.vecdot(b, b) / scale**2

    def batch(self, offsets=0.0):
        return lambda b: -0.5 * np.vecdot(b, b) / self.SCALES**2 + offsets

    def run(self, logpost, n_chains, dim=2, cfg=None):
        cfg = cfg or self.CFG
        return _run_chains(logpost, [cfg.rng_seed], n_chains, dim, cfg)

    def test_each_chain_equals_its_single_run(self):
        chains = self.run(self.batch(), 3)
        assert len(chains) == 3
        for scale, chain in zip(self.SCALES, chains):
            alone = run_mh(self.single(scale), 2, self.CFG)
            assert np.array_equal(chain.draws, alone.draws)
            assert np.array_equal(chain.log_posterior_trace, alone.log_posterior_trace)
            assert np.array_equal(chain.accepted, alone.accepted)
            assert np.array_equal(chain.proposal_sd_trace, alone.proposal_sd_trace)
            assert chain.acceptance_rate == alone.acceptance_rate
            assert chain.final_proposal_sd == alone.final_proposal_sd
            assert chain.rng_seed == alone.rng_seed == self.CFG.rng_seed
        # the chains differ: each adapts its own proposal sd to its own target
        assert len({chain.final_proposal_sd for chain in chains}) == 3

    def test_nonfinite_start_fails_only_its_chain(self):
        chains = self.run(self.batch(np.array([0.0, np.nan, 0.0])), 3)
        failed = chains[1]
        assert isinstance(failed, SamplerError) and "initial point" in str(failed)
        for c in (0, 2):
            alone = run_mh(self.single(self.SCALES[c]), 2, self.CFG)
            assert np.array_equal(chains[c].draws, alone.draws)

    def test_chain_that_never_moves_fails_only_its_chain(self):
        def logpost(b):  # chain 1 is finite only at its start point
            values = self.batch()(b)
            if np.any(b[1]):
                values[1] = -np.inf
            return values

        chains = self.run(logpost, 3)
        failed = chains[1]
        assert isinstance(failed, SamplerError) and "no proposal was accepted" in str(failed)
        for c in (0, 2):
            assert np.array_equal(chains[c].draws, run_mh(self.single(self.SCALES[c]), 2, self.CFG).draws)

    def test_chain_that_never_rejects_fails_only_its_chain(self):
        def logpost(b):  # chain 1's target is flat, so it accepts every proposal
            values = self.batch()(b)
            values[1] = 0.0
            return values

        chains = self.run(logpost, 3)
        failed = chains[1]
        assert isinstance(failed, SamplerError) and "every proposal was accepted" in str(failed)
        for c in (0, 2):
            assert np.array_equal(chains[c].draws, run_mh(self.single(self.SCALES[c]), 2, self.CFG).draws)

    def test_nonfinite_proposals_counted_per_chain(self):
        def batch_logpost(b):  # chain 0: a standard normal; chain 1: a Gamma(3, 1) on (0, inf)
            return np.concatenate([standard_normal_logpost(b[:1]), gamma_from(1.0)(b[1:])])

        cfg = SamplerConfig(n_iterations=4000, burn_in=1000, rng_seed=4)
        chains = self.run(batch_logpost, 2, dim=1, cfg=cfg)
        alone = run_mh(gamma_from(1.0), 1, cfg)
        assert chains[0].n_nonfinite_proposals == 0
        assert chains[1].n_nonfinite_proposals == alone.n_nonfinite_proposals > 0
        assert np.array_equal(chains[1].draws, alone.draws)

    @pytest.mark.parametrize(
        "logpost, dim, cfg",
        [
            (standard_normal_logpost, 2, SamplerConfig(n_iterations=3000, burn_in=1030, thin=3, rng_seed=17)),
            (gamma_from(1.0), 1, SamplerConfig(n_iterations=4000, burn_in=975, rng_seed=4)),
        ],
        ids=["normal-thin-3", "gamma-nonfinite"],
    )
    def test_prefetching_single_chain_changes_no_draw(self, logpost, dim, cfg):
        """A lone chain evaluates several iterations per call yet runs the chain of one proposal per call."""

        def rows(sizes):  # row by row, so a row's value does not depend on its batch
            def evaluate(b):
                sizes.append(len(b))
                return np.array([logpost(row[None])[0] for row in b])

            return evaluate

        lone_sizes, stack_sizes = [], []
        prefetched = run_mh(rows(lone_sizes), dim, cfg)
        # two groups of one chain on one seed: the reference, one proposal per group and call
        reference, twin = _run_chains(rows(stack_sizes), [cfg.rng_seed] * 2, 1, dim, cfg)
        assert max(lone_sizes) == 4 and len(lone_sizes) < cfg.n_iterations
        assert set(stack_sizes) == {2} and len(stack_sizes) == cfg.n_iterations + 1
        for alone in (reference, twin):
            assert np.array_equal(prefetched.draws, alone.draws)
            assert np.array_equal(prefetched.accepted, alone.accepted)
            assert np.array_equal(prefetched.log_posterior_trace, alone.log_posterior_trace)
            assert np.array_equal(prefetched.proposal_sd_trace, alone.proposal_sd_trace)
            assert prefetched.acceptance_rate == alone.acceptance_rate
            assert prefetched.n_nonfinite_proposals == alone.n_nonfinite_proposals
        if logpost is not standard_normal_logpost:
            assert reference.n_nonfinite_proposals > 0

    @pytest.mark.parametrize(
        "n_chains, prior, thin",
        [(8, GaussianPrior.vague(3), 1), (1, GaussianPrior(np.array([0.5, -1.0, 0.0]), np.array([2.0, 5.0, 0.5])), 3)],
        ids=["C=8-vague", "C=1-centred-thin-3"],
    )
    def test_plain_callable_runs_the_chains_of_the_private_entry(self, n_chains, prior, thin):
        """A plain one-argument callable, shaped like perfbench's traced closure, gives the same chains."""
        rng = np.random.default_rng(12)
        x = rng.standard_normal((150, 2))
        data = Dataset.from_raw(x, (rng.random(150) < 1 / (1 + np.exp(-x[:, 0]))).astype(float))
        weights = np.exp(-np.outer(np.arange(n_chains), rng.random(150)))
        logpost = make_log_posterior(data, weights, prior)
        calls = []

        def plain(b):
            calls.append(len(b))
            return logpost(b)

        plain.rows = data.n  # an integer attribute, as perfbench sets, is not an entry point
        cfg = SamplerConfig(n_iterations=1500, burn_in=500, thin=thin, initial_sd=0.3, rng_seed=5)
        fast = self.run(logpost, n_chains, dim=3, cfg=cfg)
        generic = self.run(plain, n_chains, dim=3, cfg=cfg)
        assert callable(logpost._fill_rows) and calls
        for a, b in zip(fast, generic):
            assert np.array_equal(a.draws, b.draws)
            assert np.array_equal(a.log_posterior_trace, b.log_posterior_trace)
            assert np.array_equal(a.accepted, b.accepted)
            assert a.n_nonfinite_proposals == b.n_nonfinite_proposals

    @pytest.mark.parametrize("prior_sd, initial_sd", [(1e-300, 0.1), (100.0, 1e308)],
                             ids=["prior-sd-1e-300", "initial-sd-1e308"])
    def test_private_entry_never_warns(self, prior_sd, initial_sd):
        """Overflowing priors and steps give rejected proposals, not RuntimeWarnings."""
        data = Dataset.from_raw([[0.5, -1.0], [1.5, 0.0], [-1.0, 2.0]], [0, 1, 1])
        logpost = make_log_posterior(data, np.ones((2, 3)), GaussianPrior.vague(3, sd=prior_sd))
        cfg = SamplerConfig(n_iterations=300, burn_in=250, initial_sd=initial_sd, rng_seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chains = self.run(logpost, 2, dim=3, cfg=cfg)
        assert all(isinstance(c, SamplerError) and "never moved" in str(c) for c in chains)

    def test_memory_bounded_by_the_returned_arrays(self):
        """No array as long as the run: the peak stays near the bytes of the retained chain."""
        cfg = SamplerConfig(n_iterations=50_000, burn_in=1_000, thin=5, rng_seed=8)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            chain = run_mh(lambda b: -0.5 * np.vecdot(b, b), 4, cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        arrays = (chain.draws, chain.log_posterior_trace, chain.accepted, chain.proposal_sd_trace)
        assert peak <= 1.5 * sum(a.nbytes for a in arrays) + 2**20

    def test_every_start_nonfinite_fails_every_chain(self):
        chains = self.run(lambda b: np.full(b.shape[0], np.nan), 2)
        assert all(isinstance(chain, SamplerError) for chain in chains)


def reference_chain(logpost, dim, cfg):
    """Textbook random-walk MH on the stream the sampler documents: per iteration one
    ``standard_normal(dim)`` then ``math.log(random())``, adapting every 50 burn-in iterations."""
    rng = np.random.default_rng(cfg.rng_seed)
    beta, sd = np.zeros(dim), cfg.initial_sd
    current = float(logpost(beta[None])[0])
    draws, flags, batch_accepts = [], [], 0
    for t in range(cfg.n_iterations):
        proposal = beta + sd * rng.standard_normal(dim)
        log_u = math.log(rng.random())
        value = float(logpost(proposal[None])[0])
        accept = log_u < value - current
        if accept:
            beta, current = proposal, value
        batch_accepts += accept
        if (t + 1) % 50 == 0:
            if t + 1 <= cfg.burn_in:
                sd = adapt_proposal_sd(sd, batch_accepts / 50, (t + 1) // 50)
            batch_accepts = 0
        if t >= cfg.burn_in:
            draws.append(beta)
            flags.append(accept)
    return np.array(draws), np.array(flags)


class TestRandomStream:
    """The uniforms are Generator.random() in stream order, read from raw bits by the sampler."""

    SCALES = (0.5, 1.0, 3.0)

    @pytest.mark.parametrize("seed", [0, 5, 2**63 + 12345, 987654321])
    def test_chains_follow_the_documented_stream(self, seed):
        cfg = SamplerConfig(n_iterations=400, burn_in=100, initial_sd=0.8, rng_seed=seed)
        target = lambda scale: lambda b: -0.5 * np.vecdot(b, b) / scale**2  # noqa: E731
        lone = run_mh(target(1.0), 2, cfg)
        draws, flags = reference_chain(target(1.0), 2, cfg)
        assert np.array_equal(lone.draws, draws) and np.array_equal(lone.accepted, flags)
        assert 0 < flags.sum() < flags.size  # the accept tests read the uniforms
        rerun = run_mh(target(1.0), 2, cfg)
        assert np.array_equal(rerun.draws, lone.draws) and np.array_equal(rerun.accepted, lone.accepted)
        scales = np.array(self.SCALES)
        chains = _run_chains(lambda b: -0.5 * np.vecdot(b, b) / scales**2, [seed], 3, 2, cfg)
        for scale, chain in zip(self.SCALES, chains):
            draws, flags = reference_chain(target(scale), 2, cfg)
            assert np.array_equal(chain.draws, draws) and np.array_equal(chain.accepted, flags)


class TestAdaptProposalSd:
    def test_on_target_batch_leaves_sd_unchanged(self):
        assert adapt_proposal_sd(0.5, 0.24, batch_index=3) == 0.5

    def test_high_acceptance_increases_sd(self):
        assert adapt_proposal_sd(0.5, 1.0, batch_index=1) > 0.5

    def test_low_acceptance_decreases_sd(self):
        assert adapt_proposal_sd(0.5, 0.0, batch_index=1) < 0.5

    def test_clamping(self):
        assert adapt_proposal_sd(1e-9, 0.0, 1) == 1e-8
        assert adapt_proposal_sd(5e3, 1.0, 1) == 1e3

    def test_shrinking_step_sizes(self):
        early = adapt_proposal_sd(1.0, 1.0, batch_index=1)
        late = adapt_proposal_sd(1.0, 1.0, batch_index=100)
        assert early > late > 1.0

    def test_repeated_batches_reach_window(self):
        """Adaptation drives a badly scaled start into the target window."""
        cfg = SamplerConfig(n_iterations=30_000, burn_in=10_000, rng_seed=21, initial_sd=25.0)
        s = run_mh(standard_normal_logpost, 2, cfg)
        assert 0.15 <= s.acceptance_rate <= 0.35


class TestDiagnostics:
    def test_mcse_decreases_with_chain_length(self):
        rng = np.random.default_rng(2)
        short = mc_standard_error(rng.standard_normal(2_000))
        long = mc_standard_error(rng.standard_normal(200_000))
        assert long < short

    def test_mcse_rejects_tiny_chains(self):
        with pytest.raises(ConfigError):
            mc_standard_error(np.arange(10.0))

    def test_gelman_rubin_near_one_for_matching_chains(self):
        chains = [
            run_mh(
                standard_normal_logpost,
                2,
                SamplerConfig(n_iterations=20_000, burn_in=5_000, rng_seed=seed),
            ).draws
            for seed in (1, 2)
        ]
        rhat = gelman_rubin(chains)
        assert np.all(np.abs(rhat - 1.0) < 0.05)

    def test_gelman_rubin_needs_two_chains(self):
        with pytest.raises(ConfigError):
            gelman_rubin([np.zeros((100, 2))])
        with pytest.raises(ConfigError):  # each chain is reduced on its own, so the shapes are checked
            gelman_rubin([np.zeros((100, 2)), np.zeros((99, 2))])
