import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from supnorm.grids import DyadicGrid, GridFunction
from supnorm.functions import (
    HolderTruthSpec,
    NegativeDensityError,
    hellinger_rows,
    log_mean_exp,
    make_density_truth,
    normalize_log,
)
from supnorm.wavelets import build_basis
from supnorm import density as dens
from supnorm.rates import ExperimentConfig, plan_basis

from oracles import constant, mean_masses


@pytest.fixture(scope="module")
def grid():
    return DyadicGrid(10)


@pytest.fixture(scope="module")
def two_bin(grid):
    vals = np.r_[np.full(grid.size // 2, 4.0 / 3.0), np.full(grid.size // 2, 2.0 / 3.0)]
    return GridFunction(grid, vals)


def reference_sample_data(f0, n, seed):
    """`sample_data` with a binary search for the cell of each key."""
    vals = f0.values
    if vals.min() < -1e-12 or abs(vals.mean() - 1.0) > 1e-6:
        raise dens.NonDensityError("f0 must be nonnegative with unit integral")
    if n == 0:
        return dens.Sample(np.empty(0), seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(11,)))
    probs = np.clip(vals, 0.0, None)
    cum = np.cumsum(probs / probs.sum())
    u = rng.uniform(size=n)
    cells = np.searchsorted(cum, u, side="left")
    inner = rng.uniform(size=n)
    x = (cells + inner) * f0.grid.cell_width
    return dens.Sample(np.clip(x, 0.0, 1.0), seed)


# bin weights with zero runs, zero heads and tails; small integers and their
# tiny perturbations put table entries on bucket edges and let cum[-1] round
# either side of 1
weights = st.integers(1, 7).flatmap(
    lambda J: st.lists(
        st.one_of(st.just(0.0), st.integers(1, 3).map(float),
                  st.floats(1e-300, 1e3), st.just(1.0 + 2 ** -52)),
        min_size=2 ** J, max_size=2 ** J,
    ).filter(lambda w: sum(w) > 0)
)


class TestGuidedSearch:
    @staticmethod
    def keys(cum, rng):
        """0, the last key below 1, every table entry below 1 and the key one
        ulp below each, and uniform keys."""
        edges = cum[cum < 1.0]
        return np.concatenate([
            [0.0, np.nextafter(1.0, 0.0)], edges, np.nextafter(edges, 0.0),
            rng.uniform(size=200),
        ])

    def check(self, w, seed=0):
        w = np.asarray(w, dtype=float)
        cum = np.cumsum(w / w.sum())
        u = self.keys(cum, np.random.default_rng(seed))
        assert np.array_equal(dens._guided_search(cum, u), np.searchsorted(cum, u, side="left"))

    @settings(max_examples=300, deadline=None)
    @given(weights, st.integers(0, 2 ** 32 - 1))
    def test_matches_binary_search(self, w, seed):
        self.check(w, seed)

    @pytest.mark.parametrize("w", [
        [1.0] * 8,                      # every entry on a bucket edge
        [0.0, 0.0, 1.0, 1.0],           # zero head
        [1.0, 1.0, 0.0, 0.0],           # zero tail
        [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0],  # zero runs
        [0.1] * 10 + [0.0] * 6,         # cum[-1] rounds below 1, then a flat tail
        [0.3] * 7 + [0.0] * 9,          # cum[-1] rounds above 1
        [1.0] * 2048 + [0.0] * 2048,    # f0 zero on half the grid
    ])
    def test_edge_tables(self, w):
        self.check(w)

    def test_tables_rounding_both_sides_of_one(self):
        sides = set()
        for seed in range(50):
            w = np.random.default_rng(seed).uniform(size=16)
            cum = np.cumsum(w / w.sum())
            sides.add(np.sign(cum[-1] - 1.0))
            self.check(w, seed)
        assert {-1.0, 1.0} <= sides


class TestSampleData:
    @pytest.mark.parametrize("seed", [2024, 7])
    @pytest.mark.parametrize("model", ["density-histogram", "density-logdensity"])
    def test_matches_the_binary_search_reference(self, model, seed):
        cfg = ExperimentConfig(
            model=model, alpha=0.75 if model == "density-histogram" else 1.0,
            n_grid=(2 ** 10, 2 ** 14, 2 ** 18), master_seed=seed,
            basis_kind="haar" if model == "density-histogram" else "boundary-smooth",
            grid_resolution=12,
        )
        f0 = make_density_truth(cfg.truth_spec(0), plan_basis(cfg))
        got = dens.sample_data(f0, 2 ** 18, seed)
        assert np.array_equal(got.values, reference_sample_data(f0, 2 ** 18, seed).values)

    @pytest.mark.parametrize("n", [-3, 2.5, True, "4"])
    def test_bad_n_refused(self, grid, n):
        with pytest.raises(ValueError, match="n must be"):
            dens.sample_data(constant(grid), n, seed=0)

    def test_zero_n_gives_an_empty_sample(self, grid):
        assert dens.sample_data(constant(grid), 0, seed=0).n == 0

    def test_uniform_ks(self, grid):
        n = 10_000
        s = dens.sample_data(constant(grid), n, seed=0)
        ks = stats.kstest(s.values, "uniform").statistic
        assert ks < 1.63 / np.sqrt(n)

    def test_two_bin_frequencies(self, two_bin):
        n = 10_000
        s = dens.sample_data(two_bin, n, seed=1)
        freq0 = (s.values <= 0.5).mean()
        assert abs(freq0 - 2.0 / 3.0) < 3.0 / np.sqrt(n)

    def test_determinism(self, grid):
        a = dens.sample_data(constant(grid), 100, seed=5)
        b = dens.sample_data(constant(grid), 100, seed=5)
        assert np.array_equal(a.values, b.values)

    def test_rejects_non_density(self, grid):
        with pytest.raises(dens.NonDensityError):
            dens.sample_data(constant(grid, 2.0), 10, seed=0)


class TestBinCounts:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1, 1.5])
    def test_observation_outside_unit_interval_refused(self, bad):
        with pytest.raises(ValueError, match="observations"):
            dens.Sample(np.array([0.5, bad]))

    def test_spec_example(self):
        s = dens.Sample(np.array([0.1, 0.6, 0.7]))
        assert dens.bin_counts(s, 1).tolist() == [1, 2]

    def test_empty_sample(self):
        assert dens.bin_counts(dens.Sample(np.empty(0)), 3).tolist() == [0] * 8

    def test_refinement_consistency(self, grid):
        s = dens.sample_data(constant(grid), 500, seed=2)
        fine = dens.bin_counts(s, 4)
        coarse = dens.bin_counts(s, 3)
        assert np.array_equal(fine.reshape(-1, 2).sum(axis=1), coarse)

    def test_boundary_convention(self):
        # 0 belongs to bin 0; bin boundaries belong to the left bin
        s = dens.Sample(np.array([0.0, 0.5, 1.0]))
        assert dens.bin_counts(s, 1).tolist() == [2, 1]


class TestConjugacy:
    def test_spec_update(self):
        prior = dens.HistogramPriorSpec.flat(1, 1.0)
        post = dens.histogram_posterior(prior, np.array([3, 1]))
        assert post.params.tolist() == [4.0, 2.0]
        md = np.repeat(mean_masses(post) * 2 ** 1, 16 // 2 ** 1)
        assert md[0] == pytest.approx(4.0 / 3.0)
        assert md[-1] == pytest.approx(2.0 / 3.0)

    def test_zero_counts_returns_prior(self):
        prior = dens.HistogramPriorSpec.flat(2, 0.7)
        post = dens.histogram_posterior(prior, np.zeros(4, dtype=int))
        assert np.array_equal(post.params, prior.alphas)

    def test_quadrature_oracle(self):
        # brute-force posterior mean of omega0 under D(1,1) prior and
        # likelihood omega0^3 (1-omega0)^1
        num = integrate.quad(lambda w: w * w ** 3 * (1 - w), 0, 1)[0]
        den = integrate.quad(lambda w: w ** 3 * (1 - w), 0, 1)[0]
        oracle = num / den
        prior = dens.HistogramPriorSpec.flat(1, 1.0)
        post = dens.histogram_posterior(prior, np.array([3, 1]))
        assert mean_masses(post)[0] == pytest.approx(oracle, abs=1e-10)
        assert oracle == pytest.approx(2.0 / 3.0, abs=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 40), min_size=4, max_size=4),
           st.integers(0, 2 ** 16))
    def test_sequential_update_coherence(self, total, seed):
        rng = np.random.default_rng(seed)
        total = np.array(total)
        split = rng.binomial(total, 0.5)
        prior = dens.HistogramPriorSpec.flat(2, 0.5)
        once = dens.histogram_posterior(prior, total)
        mid = dens.histogram_posterior(prior, split)
        mid_prior = dens.HistogramPriorSpec(
            2, mid.params, a=0.0, c1=mid.params.min(), c2=mid.params.max()
        )
        twice = dens.histogram_posterior(mid_prior, total - split)
        assert np.abs(once.params - twice.params).max() < 1e-12

    def test_length_mismatch(self):
        prior = dens.HistogramPriorSpec.flat(2, 1.0)
        with pytest.raises(ValueError):
            dens.histogram_posterior(prior, np.array([1, 2]))

    def test_prior_invariant(self):
        with pytest.raises(ValueError):
            dens.HistogramPriorSpec(1, np.array([0.5, 3.0]), a=0.0, c1=1.0, c2=1.0)


class TestDirichletDraws:
    def test_unit_integral(self, grid):
        prior = dens.HistogramPriorSpec.flat(3, 0.3)
        post = dens.histogram_posterior(prior, np.arange(8))
        values = dens.draw_histogram_values(post, 20, seed=0)
        assert values.shape == (20, 8)
        grid_values = np.repeat(values, grid.size // 8, axis=1)
        for d in (GridFunction(grid, row) for row in grid_values):
            assert d.quad() == pytest.approx(1.0, abs=1e-10)
            assert d.values.min() > 0.0

    def test_mc_mean_matches_posterior_mean(self, grid):
        prior = dens.HistogramPriorSpec.flat(2, 1.0)
        post = dens.histogram_posterior(prior, np.array([5, 10, 3, 2]))
        m = 20_000
        vals = dens.draw_histogram_values(post, m, seed=1)
        emp = vals.mean(axis=0) / 4.0
        mean = mean_masses(post)
        a0 = post.params.sum()
        sd = np.sqrt(mean * (1 - mean) / (a0 + 1))
        assert np.all(np.abs(emp - mean) <= 3.0 * sd / np.sqrt(m))

    def test_concentration_at_huge_alpha(self):
        prior = dens.HistogramPriorSpec(
            2, np.full(4, 1e6), a=0.0, c1=1e6, c2=1e6
        )
        post = dens.histogram_posterior(prior, np.zeros(4, dtype=int))
        vals = dens.draw_histogram_values(post, 50, seed=2)
        assert np.abs(vals - 1.0).max() < 1e-2

    @pytest.mark.parametrize("m", [0, 2.5, True, float("nan")])
    def test_bad_draw_count_refused(self, m):
        post = dens.histogram_posterior(dens.HistogramPriorSpec.flat(2, 1.0), np.arange(4))
        with pytest.raises(ValueError, match="draw count m"):
            dens.draw_histogram_values(post, m, seed=0)

    def test_tiny_shapes_stay_on_simplex(self):
        rng = np.random.default_rng(3)
        draws = dens.dirichlet_draws(rng, np.full(64, 1e-3), 500)
        assert np.all(np.isfinite(draws))
        assert np.all(draws > 0.0)
        assert np.abs(draws.sum(axis=1) - 1.0).max() < 1e-12

    def test_small_shape_marginal_distribution(self):
        # Dirichlet(a, a) component ratio is BetaPrime(a, a); testing the log
        # ratio avoids the representation cliff of Beta(a, a) draws at 1.0
        rng = np.random.default_rng(4)
        a = 0.05
        m = 4000
        draws = dens.dirichlet_draws(rng, np.array([a, a]), m)
        delta = np.log(draws[:, 0]) - np.log(draws[:, 1])
        ref = stats.betaprime(a, a)
        ks = stats.kstest(
            delta, lambda t: ref.cdf(np.exp(np.clip(t, -700.0, 700.0)))
        ).statistic
        assert ks < 1.63 / np.sqrt(m)


class TestNormalizeLogDensity:
    def test_constant_shift_cancels(self, grid):
        f = normalize_log(constant(grid, 5.0))
        assert np.allclose(f.values, 1.0, atol=1e-14)

    def test_recovers_density(self, grid):
        basis = build_basis("haar", 4, grid.resolution)
        f0 = make_density_truth(HolderTruthSpec(1.0, 1.0, seed=7), basis)
        t = GridFunction(grid, np.log(f0.values))
        back = normalize_log(t)
        assert np.abs(back.values - f0.values).max() < 1e-10

    def test_shift_identity(self, grid):
        rng = np.random.default_rng(8)
        t = GridFunction(grid, rng.normal(size=grid.size))
        c1 = -np.log(normalize_log(t).values[0]) + t.values[0]
        t2 = GridFunction(grid, t.values + 3.0)
        c2 = -np.log(normalize_log(t2).values[0]) + t2.values[0]
        assert c2 - c1 == pytest.approx(3.0, abs=1e-10)
        assert np.abs(
            normalize_log(t).values - normalize_log(t2).values
        ).max() < 1e-12

    def test_overflow_guard(self, grid):
        t = constant(grid, 800.0)
        f = normalize_log(t)
        assert np.allclose(f.values, 1.0)


class TestHeavyTailDraws:
    def test_matches_numeric_cdf(self):
        tau = 0.5
        rng = np.random.default_rng(5)
        draws = dens._heavy_tail_draws(rng, tau, 5000)
        norm = integrate.quad(
            lambda x: np.exp(-((1 + abs(x)) ** (1 - tau))), -np.inf, np.inf
        )[0]

        def cdf(x):
            return integrate.quad(
                lambda u: np.exp(-((1 + abs(u)) ** (1 - tau))) / norm, -np.inf, x
            )[0]

        ks = stats.kstest(draws, np.vectorize(cdf)).statistic
        assert ks < 1.63 / np.sqrt(draws.size)


class TestMcmc:
    def test_prior_recovery_on_empty_sample(self):
        basis = build_basis("boundary-smooth", 3, 9)
        prior = dens.LogDensityPriorSpec("gaussian", alpha=1.0, cutoff_level=2, r=0.5)
        cfg = dens.McmcConfig(iterations=12_000, burn_in=2_000, thin=2)
        chain = dens.logdensity_mcmc(prior, dens.Sample(np.empty(0)), basis, cfg, seed=0)
        states = chain.states
        for l in range(prior.cutoff_level + 1):
            var = states[:, 2 ** l - 1:2 ** (l + 1) - 1].var()
            assert var == pytest.approx(1.0, rel=0.10)

    def test_two_bin_conjugate_oracle(self):
        basis = build_basis("haar", 0, 8)
        sample = dens.Sample(np.array([0.1, 0.2, 0.3, 0.7]))
        prior = dens.LogDensityPriorSpec("logistic", alpha=1.0, cutoff_level=0, scale=0.5)
        chain = dens.logdensity_mcmc(prior, sample, basis, dens.McmcConfig(), seed=5)
        vals = chain.density_values(basis)
        omega0 = vals[:, : basis.grid.size // 2].mean(axis=1) / 2.0
        assert abs(omega0.mean() - 2.0 / 3.0) < 0.02

    def test_detailed_balance_smoke(self):
        # frozen 2-coefficient problem: long-run state histogram vs direct
        # quadrature of the posterior, total variation <= 0.05
        basis = build_basis("haar", 1, 8)
        sample = dens.Sample(np.array([0.05, 0.3, 0.4, 0.8, 0.9, 0.95, 0.2, 0.6]))
        prior = dens.LogDensityPriorSpec("gaussian", alpha=1.0, cutoff_level=1, r=0.5)
        cfg = dens.McmcConfig(iterations=60_000, burn_in=5_000, thin=2)
        chain = dens.logdensity_mcmc(prior, sample, basis, cfg, seed=11)
        a00 = chain.states[:, 0]

        # direct quadrature of the marginal of a00 over the level-1 pair
        B = basis.columns[:, 1:4]
        sig = chain.sigmas
        cells = basis.grid.cell_of(sample.values)

        def loglik(coefs):
            T = B @ (sig * coefs)
            c = np.log(np.exp(T - T.max()).mean()) + T.max()
            return T[cells].sum() - sample.n * c

        g = np.linspace(-4, 4, 41)
        marg = np.zeros(g.size)
        for i, a0 in enumerate(g):
            tot = 0.0
            for a1 in g:
                for a2 in g:
                    coefs = np.array([a0, a1, a2])
                    tot += np.exp(loglik(coefs) - 0.5 * (coefs ** 2).sum())
            marg[i] = tot
        marg /= marg.sum()
        edges = np.concatenate([[-np.inf], 0.5 * (g[1:] + g[:-1]), [np.inf]])
        emp = np.histogram(a00, bins=edges)[0] / a00.size
        tv = 0.5 * np.abs(emp - marg).sum()
        assert tv < 0.05

    def test_chain_doubling_self_consistency(self):
        basis = build_basis("boundary-smooth", 3, 9)
        f0 = make_density_truth(HolderTruthSpec(1.0, 0.5, seed=3), basis)
        sample = dens.sample_data(f0, 400, seed=3)
        prior = dens.LogDensityPriorSpec("gaussian", alpha=1.0, cutoff_level=2, r=0.5)

        def sup_loss(iters, seed):
            cfg = dens.McmcConfig(iterations=iters, burn_in=2_000, thin=5)
            chain = dens.logdensity_mcmc(prior, sample, basis, cfg, seed=seed)
            vals = chain.density_values(basis)
            return np.abs(vals - f0.values).max(axis=1).mean()

        short = [sup_loss(8_000, s) for s in range(4)]
        long = sup_loss(14_000, 10)
        se = np.std(short, ddof=1)
        assert abs(long - np.mean(short)) < max(3 * se, 0.05)

    def test_flagging_is_reported(self):
        basis = build_basis("haar", 0, 8)
        prior = dens.LogDensityPriorSpec("gaussian", alpha=1.0, cutoff_level=0, r=0.5)
        cfg = dens.McmcConfig(iterations=1_200, burn_in=1_000, thin=1)
        chain = dens.logdensity_mcmc(prior, dens.Sample(np.empty(0)), basis, cfg, seed=0)
        # empty sample accepts every proposal: acceptance 1.0 must be flagged
        assert chain.acceptance[0] > 0.6
        assert not chain.converged

    def test_draws_are_densities(self):
        basis = build_basis("boundary-smooth", 3, 9)
        f0 = make_density_truth(HolderTruthSpec(1.0, 0.5, seed=4), basis)
        sample = dens.sample_data(f0, 200, seed=4)
        prior = dens.LogDensityPriorSpec("laplace", alpha=1.0, cutoff_level=2)
        cfg = dens.McmcConfig(iterations=3_000, burn_in=500, thin=10)
        chain = dens.logdensity_mcmc(prior, sample, basis, cfg, seed=1)
        vals = chain.density_values(basis)
        assert np.all(vals > 0.0)
        assert np.abs(vals.mean(axis=1) - 1.0).max() < 1e-8

    def test_config_validation(self):
        with pytest.raises(ValueError):
            dens.McmcConfig(iterations=100, burn_in=50)
        for bad in ({"burn_in": -1}, {"thin": 0}, {"adapt_every": 0},
                    {"target_acceptance": 0.0}, {"target_acceptance": 1.0}):
            with pytest.raises(ValueError, match=next(iter(bad))):
                dens.McmcConfig(**bad)
        with pytest.raises(ValueError):
            dens.LogDensityPriorSpec("gaussian", alpha=1.0, cutoff_level=2, r=0.9)
        with pytest.raises(ValueError):
            dens.LogDensityPriorSpec("heavy-tail", alpha=1.0, cutoff_level=2, tau=1.2)
        with pytest.raises(ValueError):
            dens.LogDensityPriorSpec("polya-tree", alpha=1.0, cutoff_level=2)


class TestLossSummary:
    def test_exact_draw_gives_zero(self, two_bin):
        out = dens.posterior_expected_losses([two_bin], two_bin)
        assert (out.sup, out.l2, out.hellinger) == (0.0, 0.0, 0.0)

    def test_permutation_invariance(self, grid, two_bin):
        draws = [constant(grid), two_bin, constant(grid, 1.0)]
        a = dens.posterior_expected_losses(draws, two_bin)
        b = dens.posterior_expected_losses(draws[::-1], two_bin)
        assert a == b

    def test_mc_stability_across_seeds(self, grid):
        prior = dens.HistogramPriorSpec.flat(3, 1.0)
        post = dens.histogram_posterior(prior, np.arange(1, 9) * 10)
        f0 = GridFunction(grid, np.repeat(mean_masses(post) * 2 ** 3, grid.size // 2 ** 3))
        outs = []
        for seed in (0, 1):
            vals = dens.draw_histogram_values(post, 10_000, seed=seed)
            outs.append(dens.posterior_expected_losses(vals, f0).sup)
        assert abs(outs[0] - outs[1]) / outs[0] < 0.02

    def test_blocks_match_one_pass(self, grid):
        # 1000 draws on a 1024-cell grid span eight blocks of rows
        prior = dens.HistogramPriorSpec.flat(3, 1.0)
        post = dens.histogram_posterior(prior, np.arange(1, 9) * 10)
        f0 = GridFunction(grid, np.repeat(mean_masses(post) * 2 ** 3, grid.size // 2 ** 3))
        vals = np.repeat(dens.draw_histogram_values(post, 1000, seed=2), grid.size // 8, axis=1)
        assert len(dens._row_blocks(*vals.shape)) > 1
        out = dens.posterior_expected_losses(vals, f0)
        diff = vals - f0.values
        sups = np.abs(diff).max(axis=1)
        assert out.sup == sups.mean()
        assert out.l2 == np.sqrt((diff ** 2).mean(axis=1)).mean()
        assert out.hellinger == hellinger_rows(vals, f0.values).mean()
        assert out.q90_sup == np.quantile(sups, 0.9)

    def test_pool_of_parts_is_the_whole(self, grid, two_bin):
        rng = np.random.default_rng(3)
        vals = two_bin.values * rng.uniform(0.5, 1.5, (40, grid.size))
        whole = dens.posterior_expected_losses(vals, two_bin)
        parts = [dens.posterior_expected_losses(vals[a:b], two_bin) for a, b in ((0, 7), (7, 40))]
        pooled = dens.LossSummary.of_draws(*(p.per_draw for p in parts))
        assert pooled == whole
        np.testing.assert_array_equal(pooled.per_draw, whole.per_draw)

    @pytest.mark.parametrize("m, width", [(1, 4096), (3000, 4096), (7, 2 ** 20), (257, 512)])
    def test_row_blocks_cover_the_rows(self, m, width):
        blocks = dens._row_blocks(m, width)
        assert blocks[0].start == 0 and blocks[-1].stop == m
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        sizes = {s.stop - s.start for s in blocks}
        assert max(sizes) - min(sizes) <= 1
        assert max(sizes) * width <= max(dens._BLOCK_VALUES, width) + width


class TestStepLosses:
    """Losses of step rows (K bin values) against those of their grid expansion."""

    @pytest.fixture
    def f0(self):
        grid = DyadicGrid(8)
        vals = np.random.default_rng(7).uniform(0.0, 2.0, grid.size)
        vals[::5] = 0.0
        return GridFunction(grid, vals)

    @pytest.mark.parametrize("K", [1, 2, 32, 256])
    def test_match_the_grid_expansion(self, monkeypatch, f0, K):
        # smaller row blocks, so that every K spans several of them
        monkeypatch.setattr(dens, "_BLOCK_VALUES", 2 ** 10)
        N = f0.grid.size
        blocks = f0.values.reshape(K, -1)
        lo, hi = blocks.min(axis=1), blocks.max(axis=1)
        rng = np.random.default_rng(K)
        m = 1500
        # each bin value below, at either end of, inside or above f0's range on its block
        t = rng.choice([-0.3, 0.0, 0.5, 1.0, 1.3], size=(m, K))
        t[t == 0.5] = rng.uniform(size=np.count_nonzero(t == 0.5))
        c = np.clip(lo + t * (hi - lo), 0.0, None)
        assert len(dens._row_blocks(m, K)) > 1
        step = dens.posterior_expected_losses(c, f0)
        grid = dens.posterior_expected_losses(np.repeat(c, N // K, axis=1), f0)
        assert (step.sup, step.q90_sup) == (grid.sup, grid.q90_sup)
        np.testing.assert_array_equal(step.per_draw[0], grid.per_draw[0])
        np.testing.assert_allclose(step.per_draw[1:], grid.per_draw[1:], rtol=1e-12, atol=0)
        assert step.l2 == pytest.approx(grid.l2, rel=1e-12)
        assert step.hellinger == pytest.approx(grid.hellinger, rel=1e-12)

    def test_negative_entries_raise(self, f0):
        c = np.ones((4, 32))
        c[2, 5] = -1e-9
        with pytest.raises(NegativeDensityError):
            dens.posterior_expected_losses(c, f0)
        bad = GridFunction(f0.grid, np.where(np.arange(f0.grid.size) == 9, -1e-9, f0.values))
        with pytest.raises(NegativeDensityError):
            dens.posterior_expected_losses(np.ones((4, 32)), bad)

    @pytest.mark.parametrize("densities", [True, False])
    def test_no_draws_raise(self, f0, densities):
        for draws in (np.empty((0, 32)), np.empty((0, f0.grid.size)), []):
            with pytest.raises(ValueError, match="need at least one draw"):
                dens.posterior_expected_losses(draws, f0, densities=densities)

    @pytest.mark.parametrize("densities", [True, False])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("K", [32, 256])
    def test_non_finite_draws_raise(self, f0, densities, bad, K):
        c = np.ones((4, K))
        c[2, 5] = bad
        with pytest.raises(ValueError, match="non-finite losses"):
            dens.posterior_expected_losses(c, f0, densities=densities)

    @pytest.mark.parametrize("width", [0, 3, 512])
    def test_width_must_divide_the_grid(self, f0, width):
        rows = np.ones((5, width))
        with pytest.raises(ValueError, match=f"width {width} .* grid size 256"):
            dens.posterior_expected_losses(rows, f0)
        with pytest.raises(ValueError, match=f"width {width} .* grid size 256"):
            hellinger_rows(rows, f0.values)


class TestChainLosses:
    def test_blockwise_losses_match_the_full_evaluation(self):
        basis = build_basis("boundary-smooth", 3, 9)
        f0 = make_density_truth(HolderTruthSpec(1.0, 0.5, seed=4), basis)
        sample = dens.sample_data(f0, 200, seed=4)
        prior = dens.LogDensityPriorSpec("gaussian", alpha=1.0, cutoff_level=2, r=0.5)
        cfg = dens.McmcConfig(iterations=1_300, burn_in=300, thin=1)
        chain = dens.logdensity_mcmc(prior, sample, basis, cfg, seed=2)
        vals = chain.density_values(basis)
        np.testing.assert_array_equal(chain.density_values(basis, rows=slice(10, 20)), vals[10:20])
        assert len(dens._row_blocks(*vals.shape)) > 1
        got = chain.expected_losses(basis, f0)
        want = dens.posterior_expected_losses(vals, f0)
        # blocks differ from the full product only by the BLAS kernel's rounding
        for field in ("sup", "l2", "hellinger", "q90_sup"):
            assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-12)


def reference_step_rms(centred, css, size):
    return np.sqrt(((size // centred.shape[-1]) * (centred ** 2).sum(axis=-1) + css) / size)


def reference_hellinger_rows(values, g):
    root = dens.step_blocks(np.sqrt(np.clip(g, 0.0, None)), values.shape[-1])
    root_mean, root_css = dens.block_moments(root)
    return reference_step_rms(np.sqrt(np.clip(values, 0.0, None)) - root_mean, root_css, g.size)


def reference_posterior_expected_losses(values, f0, densities=True):
    """The loss reduction with fresh temporaries for every block of rows."""
    blocks = dens.step_blocks(f0.values, values.shape[1])
    lo, hi = blocks.min(axis=1), blocks.max(axis=1)
    mean, css = dens.block_moments(blocks)

    def losses(c):
        below = c - lo
        above, centred = (below, below) if blocks.shape[1] == 1 else (c - hi, c - mean)
        sup = np.maximum(below.max(axis=1), -above.min(axis=1))
        rows = [sup, reference_step_rms(centred, css, f0.grid.size)]
        return np.array(rows + [reference_hellinger_rows(c, f0.values)] if densities else rows)

    return dens.LossSummary.of_draws(
        *(losses(values[rows]) for rows in dens._row_blocks(*values.shape))
    )


def reference_expected_losses(chain, basis, f0):
    """`McmcChain.expected_losses` with the fresh-temporary reduction for every block."""
    # K = 2^(L+1) - 1 coefficients for levels 0..L
    B = dens._wavelet_columns(basis, chain.sigmas.size.bit_length() - 1)

    def density_values(rows):
        T = (chain.states[rows] * chain.sigmas) @ B.T
        T -= log_mean_exp(T)[:, None]
        return np.exp(T, out=T)

    return dens.LossSummary.of_draws(*(
        reference_posterior_expected_losses(density_values(rows), f0).per_draw
        for rows in dens._row_blocks(len(chain.states), basis.grid.size)
    ))


class TestBufferedLosses:
    """The losses worked in one reused scratch against fresh temporaries, bit for bit."""

    @pytest.fixture(scope="class")
    def chain_case(self):
        basis = build_basis("boundary-smooth", 3, 9)
        f0 = make_density_truth(HolderTruthSpec(1.0, 0.5, seed=5), basis)
        sample = dens.sample_data(f0, 300, seed=5)
        prior = dens.LogDensityPriorSpec("laplace", alpha=1.0, cutoff_level=3)
        cfg = dens.McmcConfig(iterations=1_100, burn_in=300, thin=4)
        return basis, f0, dens.logdensity_mcmc(prior, sample, basis, cfg, seed=5)

    @staticmethod
    def unequal_blocks(monkeypatch, m, width, rows):
        # about `rows` rows per block; _row_blocks puts its shorter blocks first
        monkeypatch.setattr(dens, "_BLOCK_VALUES", rows * width)
        blocks = dens._row_blocks(m, width)
        assert len(blocks) >= 3
        assert len({b.stop - b.start for b in blocks}) == 2
        return blocks

    def test_chain_losses_match_fresh_temporaries(self, monkeypatch, chain_case):
        basis, f0, chain = chain_case
        self.unequal_blocks(monkeypatch, len(chain.states), basis.grid.size, 7)
        got = chain.expected_losses(basis, f0)
        want = reference_expected_losses(chain, basis, f0)
        np.testing.assert_array_equal(got.per_draw, want.per_draw)
        assert got == want

    @pytest.mark.parametrize("densities", [True, False])
    @pytest.mark.parametrize("K", [8, 64, 512])  # histogram, Haar and grid widths
    def test_large_block_before_small_ones(self, monkeypatch, chain_case, densities, K):
        _, f0, _ = chain_case
        rng = np.random.default_rng(K)
        m = 200
        blocks = self.unequal_blocks(monkeypatch, m, K, 9)
        c = rng.uniform(0.0, 3.0, (m, K))
        first = blocks[0]
        # a stale first block would dominate every later maximum and sum
        c[first] *= 1e6
        if not densities:
            c[first.stop:] -= 1.5
        got = dens.posterior_expected_losses(c, f0, densities=densities)
        want = reference_posterior_expected_losses(c, f0, densities=densities)
        np.testing.assert_array_equal(got.per_draw, want.per_draw)
        assert got == want


def reference_mcmc(prior, sample, basis, cfg, seed):
    """The slow reference: the MCMC loop before its exact reductions, which
    evaluates loglik(T) = counts @ T - n c(T) over the whole grid each time."""
    L = prior.cutoff_level
    B = dens._wavelet_columns(basis, L)
    N = basis.grid.size
    K = B.shape[1]
    sigmas = np.concatenate([np.full(2 ** l, prior.sigma(l)) for l in range(L + 1)])
    slices = []
    pos = 0
    for l in range(L + 1):
        slices.append(slice(pos, pos + 2 ** l))
        pos += 2 ** l
    counts = np.bincount(
        basis.grid.cell_of(sample.values), minlength=N
    ).astype(float) if sample.n else np.zeros(N)
    n = sample.n

    def loglik(T):
        return float(counts @ T - n * log_mean_exp(T))

    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(17,)))
    a = prior.draw_standardized(rng, K)
    T = B @ (sigmas * a)
    ll = loglik(T)
    gaussian = prior.law == "gaussian"
    scales = np.full(L + 1, 0.5)
    acc_win = np.zeros(L + 1)
    try_win = np.zeros(L + 1)
    acc_post = np.zeros(L + 1)
    try_post = np.zeros(L + 1)
    kept = []
    for it in range(cfg.iterations):
        in_burn = it < cfg.burn_in
        for l in range(L + 1):
            sl = slices[l]
            a_blk = a[sl]
            if gaussian:
                beta = min(scales[l], 1.0)
                xi = prior.draw_standardized(rng, a_blk.size)
                a_new = np.sqrt(1.0 - beta ** 2) * a_blk + beta * xi
                log_prior_ratio = 0.0
            else:
                step = scales[l]
                a_new = a_blk + step * rng.standard_normal(a_blk.size)
                log_prior_ratio = float(
                    prior.log_phi(a_new).sum() - prior.log_phi(a_blk).sum()
                )
            T_new = T + B[:, sl] @ (sigmas[sl] * (a_new - a_blk))
            ll_new = loglik(T_new)
            if np.log(rng.uniform()) < ll_new - ll + log_prior_ratio:
                a[sl] = a_new
                T = T_new
                ll = ll_new
                acc_win[l] += 1
                if not in_burn:
                    acc_post[l] += 1
            try_win[l] += 1
            if not in_burn:
                try_post[l] += 1
        if in_burn and (it + 1) % cfg.adapt_every == 0:
            rate = acc_win / np.maximum(try_win, 1)
            scales *= np.exp(0.66 * (rate - cfg.target_acceptance))
            scales = np.clip(scales, 1e-3, 1.0 if gaussian else 10.0)
            acc_win[:] = 0
            try_win[:] = 0
        if not in_burn and (it - cfg.burn_in) % cfg.thin == 0:
            kept.append(a.copy())
    return np.array(kept), acc_post / np.maximum(try_post, 1), scales


LAWS = ("gaussian", "laplace", "logistic", "heavy-tail")


@pytest.fixture(scope="module", params=["haar", "boundary-smooth"])
def kernel_case(request):
    basis = build_basis(request.param, 3, 9)
    f0 = make_density_truth(HolderTruthSpec(1.0, 1.0, seed=6), basis)
    return basis, dens.sample_data(f0, 2000, seed=6)


class TestFastKernel:
    @pytest.mark.parametrize("law", LAWS)
    def test_log_ratio_matches_the_full_grid_likelihood(self, kernel_case, law):
        basis, sample = kernel_case
        prior = dens.LogDensityPriorSpec(law, alpha=1.0, cutoff_level=3)
        B = dens._wavelet_columns(basis, 3)
        counts = np.bincount(basis.grid.cell_of(sample.values), minlength=basis.grid.size)
        sigmas = np.concatenate([np.full(2 ** l, prior.sigma(l)) for l in range(4)])

        def loglik(a):
            T = B @ (sigmas * a)
            return counts @ T - sample.n * log_mean_exp(T)

        rng = np.random.default_rng(len(law))
        E = np.empty(basis.grid.size)
        for _ in range(25):
            a = rng.standard_normal(B.shape[1]) * rng.uniform(0.1, 3.0)
            log_mean_exp(B @ (sigmas * a), E)  # E = e^(T - max T)
            for sl, Rs in dens._level_moves(prior, sample, basis):
                d = rng.standard_normal(sl.stop - sl.start) * rng.uniform(0.01, 1.0)
                # d [R | s] = [X | d . s], and c(T + X) - c(T) = log(E . e^X / sum E)
                G = d @ Rs
                fast = G[-1] - sample.n * np.log(E @ np.exp(G[:-1]) / E.sum())
                a_new = a.copy()
                a_new[sl] += d
                want = loglik(a_new) - loglik(a)
                # relative to the log likelihoods whose difference both sides take
                assert abs(fast - want) <= 1e-10 * max(abs(loglik(a)), abs(want), 1.0)

    @pytest.mark.parametrize("level, law, seed", [
        *(pytest.param(2, law, seed, id=f"{law}-{seed}") for law in LAWS for seed in (0, 1, 2)),
        # the n = 8000 benchmark cells run level 3, whose 8-row [R | s] is the widest product
        *(pytest.param(3, law, 3, id=f"level3-{law}") for law in ("gaussian", "laplace")),
    ])
    def test_chain_matches_the_reference_bit_for_bit(self, kernel_case, level, law, seed):
        basis, sample = kernel_case
        prior = dens.LogDensityPriorSpec(law, alpha=1.0, cutoff_level=level)
        cfg = dens.McmcConfig(iterations=400, burn_in=150, thin=3, adapt_every=10)
        chain = dens.logdensity_mcmc(prior, sample, basis, cfg, seed=seed)
        states, acceptance, scales = reference_mcmc(prior, sample, basis, cfg, seed)
        np.testing.assert_array_equal(chain.states, states)
        np.testing.assert_array_equal(chain.acceptance, acceptance)
        np.testing.assert_array_equal(chain.step_scales, scales)

    @pytest.mark.parametrize("law", ["gaussian", "laplace"])
    def test_chain_matches_the_reference_across_weight_refreshes(self, kernel_case, law):
        # 1000 iterations cross 40 refreshes of the kept weights E, during and after burn-in
        basis, sample = kernel_case
        prior = dens.LogDensityPriorSpec(law, alpha=1.0, cutoff_level=2)
        cfg = dens.McmcConfig(iterations=1000, burn_in=400, thin=4, adapt_every=25)
        assert cfg.iterations // dens._REFRESH == 40
        chain = dens.logdensity_mcmc(prior, sample, basis, cfg, seed=4)
        states, acceptance, scales = reference_mcmc(prior, sample, basis, cfg, 4)
        np.testing.assert_array_equal(chain.states, states)
        np.testing.assert_array_equal(chain.acceptance, acceptance)
        np.testing.assert_array_equal(chain.step_scales, scales)

    @pytest.mark.parametrize("law", LAWS)
    def test_empty_sample_matches_the_reference(self, kernel_case, law):
        basis, _ = kernel_case
        prior = dens.LogDensityPriorSpec(law, alpha=1.0, cutoff_level=3)
        cfg = dens.McmcConfig(iterations=300, burn_in=100, thin=1, adapt_every=20)
        empty = dens.Sample(np.empty(0))
        chain = dens.logdensity_mcmc(prior, empty, basis, cfg, seed=9)
        states, acceptance, scales = reference_mcmc(prior, empty, basis, cfg, 9)
        np.testing.assert_array_equal(chain.states, states)
        np.testing.assert_array_equal(chain.acceptance, acceptance)
        np.testing.assert_array_equal(chain.step_scales, scales)
