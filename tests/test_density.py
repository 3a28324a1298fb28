import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from supnorm.functions import (
    HolderTruthSpec,
    log_mean_exp,
    make_density_truth,
    normalize_log,
)
from supnorm.wavelets import build_basis
from supnorm import density as dens, whitenoise as wn
from supnorm.rates import ExperimentConfig, plan_basis

from oracles import (
    block_moments,
    constant,
    grid_columns,
    grid_counts,
    hellinger_rows,
    loss_summary,
    mean_masses,
    reference_log_gamma_draws,
    sample_points,
    step_blocks,
    step_rms,
)


@pytest.fixture(scope="module")
def J():
    return 10


@pytest.fixture(scope="module")
def two_bin(J):
    return np.r_[np.full(2 ** J // 2, 4.0 / 3.0), np.full(2 ** J // 2, 2.0 / 3.0)]


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

    @staticmethod
    def check_table(cum):
        M = 4 * cum.size
        table = dens._guide_table(cum, M)
        np.testing.assert_array_equal(table, np.searchsorted(cum, np.arange(M) / M))
        assert table.dtype == np.intp

    def check(self, w, seed=0):
        w = np.asarray(w, dtype=float)
        cum = np.cumsum(w / w.sum())
        self.check_table(cum)
        u = self.keys(cum, np.random.default_rng(seed))
        assert np.array_equal(dens._guided_search(cum)(u), np.searchsorted(cum, u, side="left"))

    @settings(max_examples=200, deadline=None)
    @given(weights, st.sampled_from([1.0, np.nextafter(1.0, 0.0)]))
    def test_counted_table_with_last_entry_at_or_below_one(self, w, last):
        # the counted guide table against one binary search per bucket edge,
        # with cum[-1] exactly 1 and one ulp below it
        w = np.asarray(w, dtype=float)
        cum = np.minimum(np.cumsum(w / w.sum()), last)
        cum[-1] = last
        self.check_table(cum)

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


@pytest.fixture(scope="module")
def histogram_truth():
    """The rep-0 truth of the histogram benchmark cells, on the 2^12 grid."""
    cfg = ExperimentConfig(
        model="density-histogram", alpha=0.75, n_grid=(2 ** 10, 2 ** 14, 2 ** 18),
        master_seed=2024, basis_kind="haar", grid_resolution=12,
    )
    return make_density_truth(cfg.truth_spec(0), plan_basis(cfg))


def oracle_counts(f0, n, seed):
    """The counts of the oracle's points, binned by `point_counts`."""
    return dens.point_counts(sample_points(f0, n, seed), f0.size.bit_length() - 1)


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
        np.testing.assert_array_equal(got, oracle_counts(f0, 2 ** 18, seed))

    @pytest.mark.parametrize("seed", [0, 7, 2024])
    @pytest.mark.parametrize("n", [0, 1, 2 ** 15 - 1, 2 ** 15, 2 ** 15 + 1, 2 ** 18 + 12345])
    def test_chunked_counts_match_the_point_path(self, histogram_truth, n, seed):
        # below, at and above one chunk of keys, and a ragged last chunk
        got = dens.sample_data(histogram_truth, n, seed)
        assert got.sum() == n and got.shape == (2 ** 12,) and got.dtype.kind == "i"
        np.testing.assert_array_equal(got, oracle_counts(histogram_truth, n, seed))

    def test_memory_does_not_grow_with_n(self, histogram_truth):
        # the point path held 25 MiB of points and temporaries at n = 2^20
        tracemalloc.start()
        try:
            dens.sample_data(histogram_truth, 2 ** 20, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2 ** 20

    @pytest.mark.parametrize("n", [-3, 2.5, True, "4"])
    def test_bad_n_refused(self, J, n):
        with pytest.raises(ValueError, match="n must be"):
            dens.sample_data(constant(J), n, seed=0)

    def test_zero_n_gives_an_empty_sample(self, J):
        s = dens.sample_data(constant(J), 0, seed=0)
        assert s.tolist() == [0] * 2 ** J

    def test_uniform_ks(self, J):
        # the empirical cdf is known at the cell edges, where it is the
        # cumulative count; the Kolmogorov bound of the points holds there
        n = 10_000
        s = dens.sample_data(constant(J), n, seed=0)
        edges = np.arange(1, 2 ** J + 1) / 2 ** J
        ks = np.abs(np.cumsum(s) / n - edges).max()
        assert ks < 1.63 / np.sqrt(n)
        assert stats.chisquare(s).pvalue > 1e-3

    def test_two_bin_frequencies(self, two_bin):
        n = 10_000
        s = dens.sample_data(two_bin, n, seed=1)
        freq0 = dens.bin_counts(s, 1)[0] / n
        assert abs(freq0 - 2.0 / 3.0) < 3.0 / np.sqrt(n)

    def test_determinism(self, J):
        a = dens.sample_data(constant(J), 100, seed=5)
        b = dens.sample_data(constant(J), 100, seed=5)
        assert np.array_equal(a, b)

    def test_rejects_non_density(self, J):
        with pytest.raises(ValueError, match="f0 must be nonnegative with unit integral"):
            dens.sample_data(constant(J, 2.0), 10, seed=0)


class TestBinCounts:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1, 1.5])
    def test_observation_outside_unit_interval_refused(self, bad):
        with pytest.raises(ValueError, match="observations"):
            dens.point_counts(np.array([0.5, bad]), 4)

    @pytest.mark.parametrize("values", [[[0.1, 0.2], [0.3, 0.7]], 0.5, [[0.5]]])
    def test_observations_not_one_dimensional_refused(self, values):
        with pytest.raises(ValueError, match="observations must be a 1-D array"):
            dens.point_counts(np.array(values), 4)

    @pytest.mark.parametrize("counts, message", [
        (np.zeros((2, 2), dtype=int), "1-D array of 2"),
        (np.zeros(6, dtype=int), "1-D array of 2"),
        (np.zeros(0, dtype=int), "1-D array of 2"),
        (np.array([1, -1]), "non-negative integers"),
        (np.array([1.0, 2.0]), "non-negative integers"),
        (np.array([True, False]), "non-negative integers"),
    ])
    def test_bad_counts_refused(self, counts, message):
        # the sample is checked before the level: L = 0 is valid for every grid
        with pytest.raises(ValueError, match=message):
            dens.bin_counts(counts, 0)

    @pytest.mark.parametrize("J", [-1, 2.5, True])
    def test_bad_point_grid_refused(self, J):
        with pytest.raises(ValueError, match="J must be"):
            dens.point_counts(np.array([0.5]), J)

    def test_spec_example(self):
        s = dens.point_counts(np.array([0.1, 0.6, 0.7]), 4)
        assert s.sum() == 3
        assert dens.bin_counts(s, 1).tolist() == [1, 2]

    def test_empty_sample(self):
        s = dens.point_counts(np.empty(0), 3)
        assert s.sum() == 0 and dens.bin_counts(s, 3).tolist() == [0] * 8

    def test_refinement_consistency(self, J):
        s = dens.sample_data(constant(J), 500, seed=2)
        fine = dens.bin_counts(s, 4)
        coarse = dens.bin_counts(s, 3)
        assert np.array_equal(fine.reshape(-1, 2).sum(axis=1), coarse)

    def test_boundary_convention(self):
        # 0 belongs to bin 0; bin boundaries belong to the left bin
        for J in (1, 4):
            s = dens.point_counts(np.array([0.0, 0.5, 1.0]), J)
            assert dens.bin_counts(s, 1).tolist() == [2, 1]

    def test_matches_the_edge_search(self, J):
        # random points, every cell edge of the grid, and both ends
        pts = np.r_[sample_points(constant(J), 3000, 4), np.arange(2 ** J + 1) / 2 ** J]
        s = dens.point_counts(pts, J)
        assert s.sum() == pts.size
        for L in (0, 1, 5, J):
            np.testing.assert_array_equal(dens.bin_counts(s, L), grid_counts(pts, L))

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 12),
        st.lists(st.floats(0.0, 1.0), max_size=40),
        st.lists(st.integers(0, 2 ** 12), max_size=20),
    )
    def test_point_counts_match_the_edge_search(self, J, points, edges):
        # arbitrary points, points exactly on cell edges k 2^-J, and both ends
        N = 2 ** J
        pts = np.array(points + [k % (N + 1) / N for k in edges] + [0.0, 1.0])
        got = dens.point_counts(pts, J)
        assert got.shape == (N,) and got.dtype.kind == "i"
        np.testing.assert_array_equal(got, grid_counts(pts, J))

    @pytest.mark.parametrize("L, message", [
        (11, "level L=11 is finer than the sample's grid J=10"),
        (-1, "L must be >= 0"),
        (2.0, "L must be an integer"),
    ])
    def test_bad_level_refused(self, J, L, message):
        s = dens.sample_data(constant(J), 10, seed=0)
        with pytest.raises(ValueError, match=message):
            dens.bin_counts(s, L)


class TestConjugacy:
    def test_spec_update(self):
        params = dens.histogram_posterior(np.ones(2), np.array([3, 1]))
        assert params.tolist() == [4.0, 2.0]
        md = np.repeat(mean_masses(params) * 2 ** 1, 16 // 2 ** 1)
        assert md[0] == pytest.approx(4.0 / 3.0)
        assert md[-1] == pytest.approx(2.0 / 3.0)

    def test_zero_counts_returns_prior(self):
        alphas = np.full(4, 0.7)
        params = dens.histogram_posterior(alphas, np.zeros(4, dtype=int))
        assert np.array_equal(params, alphas)

    def test_quadrature_oracle(self):
        # brute-force posterior mean of omega0 under D(1,1) prior and
        # likelihood omega0^3 (1-omega0)^1
        num = integrate.quad(lambda w: w * w ** 3 * (1 - w), 0, 1)[0]
        den = integrate.quad(lambda w: w ** 3 * (1 - w), 0, 1)[0]
        oracle = num / den
        params = dens.histogram_posterior(np.ones(2), np.array([3, 1]))
        assert mean_masses(params)[0] == pytest.approx(oracle, abs=1e-10)
        assert oracle == pytest.approx(2.0 / 3.0, abs=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 40), min_size=4, max_size=4),
           st.integers(0, 2 ** 16))
    def test_sequential_update_coherence(self, total, seed):
        rng = np.random.default_rng(seed)
        total = np.array(total)
        split = rng.binomial(total, 0.5)
        alphas = np.full(4, 0.5)
        once = dens.histogram_posterior(alphas, total)
        # the posterior after `split` is the prior of the rest of the counts
        mid = dens.histogram_posterior(alphas, split)
        twice = dens.histogram_posterior(mid, total - split)
        assert np.abs(once - twice).max() < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="does not match the 4 Dirichlet parameters"):
            dens.histogram_posterior(np.ones(4), np.array([1, 2]))

    @pytest.mark.parametrize("counts", [
        [np.nan, 1.0], [np.inf, 1], [2.5, 1.0], [True, False], [-1, 2],
    ], ids=["nan", "inf", "fraction", "bool", "negative"])
    def test_non_counts_refused(self, counts):
        with pytest.raises(ValueError, match="counts must be non-negative integers"):
            dens.histogram_posterior(np.ones(2), counts)

    @pytest.mark.parametrize("alphas", [
        [0.0, 1.0], [-1.0, 1.0], [[1.0, 1.0]], [], 1.0, [1.0, 1e-300, 7.5e3],
    ], ids=["zero", "negative", "2-D", "empty", "scalar", "any-positive"])
    def test_parameters_are_positive_numbers(self, alphas):
        # any finite parameters > 0 are a Dirichlet prior; others are refused
        alphas = np.asarray(alphas)
        if alphas.ndim == 1 and alphas.size and alphas.min() > 0:
            counts = np.arange(alphas.size)
            assert np.array_equal(dens.histogram_posterior(alphas, counts), alphas + counts)
        else:
            with pytest.raises(ValueError, match="Dirichlet parameters must be a 1-D array"):
                dens.histogram_posterior(alphas, np.zeros(alphas.shape, dtype=int))


class TestDirichletDraws:
    def test_unit_integral(self, J):
        params = dens.histogram_posterior(np.full(8, 0.3), np.arange(8))
        values = dens.draw_histogram_values(params, 20, seed=0)
        assert values.shape == (20, 8)
        grid_values = np.repeat(values, 2 ** J // 8, axis=1)
        for d in grid_values:
            assert d.mean() == pytest.approx(1.0, abs=1e-10)
            assert d.min() > 0.0

    def test_mc_mean_matches_posterior_mean(self, J):
        params = dens.histogram_posterior(np.ones(4), np.array([5, 10, 3, 2]))
        m = 20_000
        vals = dens.draw_histogram_values(params, m, seed=1)
        emp = vals.mean(axis=0) / 4.0
        mean = mean_masses(params)
        a0 = params.sum()
        sd = np.sqrt(mean * (1 - mean) / (a0 + 1))
        assert np.all(np.abs(emp - mean) <= 3.0 * sd / np.sqrt(m))

    def test_concentration_at_huge_alpha(self):
        params = dens.histogram_posterior(np.full(4, 1e6), np.zeros(4, dtype=int))
        vals = dens.draw_histogram_values(params, 50, seed=2)
        assert np.abs(vals - 1.0).max() < 1e-2

    @pytest.mark.parametrize("m", [0, 2.5, True, float("nan")])
    def test_bad_draw_count_refused(self, m):
        params = dens.histogram_posterior(np.ones(4), np.arange(4))
        with pytest.raises(ValueError, match="draw count m"):
            dens.draw_histogram_values(params, m, seed=0)

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

    @pytest.mark.parametrize("shapes", [
        pytest.param([0.05, 3.0, 0.01, 0.5, 1e-4, 0.1, 2.0, 0.0999], id="mixed"),
        pytest.param([0.3, 1.0, 7.5], id="all-big"),
        pytest.param([0.01, 0.09], id="all-small"),
    ])
    @pytest.mark.parametrize("m", [1, 9])
    def test_bin_masks_match_the_draw_masks(self, shapes, m):
        # the oracle draws with rng.gamma(shape) in C order; the draws are
        # its bits, laid out bin-major
        shapes = np.array(shapes)
        got = dens._log_gamma_draws(np.random.default_rng(m), shapes, m)
        want = reference_log_gamma_draws(np.random.default_rng(m), shapes, m)
        np.testing.assert_array_equal(got, want)
        assert got.flags.f_contiguous


NAN, INF = float("nan"), float("inf")


def _logd(law="laplace", **kw):
    return dens.LogDensityPriorSpec(law, **{"alpha": 1.0, "cutoff_level": 2, **kw})


def _hist(alphas):
    return dens.histogram_posterior(alphas, np.zeros(len(alphas), dtype=int))


def _hist_config(dirichlet_alpha):
    return ExperimentConfig(model="density-histogram", alpha=0.75, n_grid=(64, 256, 4096),
                            dirichlet_alpha=dirichlet_alpha)


SPEC_NUMBER_CASES = {
    "hist-nan-alpha": (lambda: _hist(np.full(4, NAN)), "Dirichlet parameters"),
    "hist-inf-alpha": (lambda: _hist(np.full(4, INF)), "Dirichlet parameters"),
    "hist-one-nan-alpha": (lambda: _hist(np.array([1.0, NAN])), "Dirichlet parameters"),
    "hist-bool-alpha": (lambda: _hist(np.full(4, True)), "Dirichlet parameters"),
    "hist-text-alpha": (lambda: _hist(np.full(4, "1")), "Dirichlet parameters"),
    "config-nan-dirichlet-alpha": (lambda: _hist_config(NAN), "dirichlet_alpha"),
    "config-inf-dirichlet-alpha": (lambda: _hist_config(INF), "dirichlet_alpha"),
    "config-bool-dirichlet-alpha": (lambda: _hist_config(True), "dirichlet_alpha"),
    "config-text-dirichlet-alpha": (lambda: _hist_config("1"), "dirichlet_alpha"),
    "config-zero-dirichlet-alpha": (lambda: _hist_config(0.0), "dirichlet_alpha"),
    "logd-nan-alpha": (lambda: _logd(alpha=NAN), "alpha"),
    "logd-nan-r": (lambda: _logd("gaussian", r=NAN), "r"),
    "logd-nan-tau": (lambda: _logd("heavy-tail", tau=NAN), "tau"),
    "logd-inf-scale": (lambda: _logd(scale=INF), "scale"),
    "logd-float-cutoff": (lambda: _logd(cutoff_level=2.5), "cutoff level"),
    "logd-bool-cutoff": (lambda: _logd(cutoff_level=True), "cutoff level"),
    "logd-negative-cutoff": (lambda: _logd(cutoff_level=-1), "cutoff level"),
    "wn-nan-alpha": (lambda: wn.ProductPriorSpec("uniform", NAN, 2), "alpha"),
    "wn-inf-bound": (lambda: wn.ProductPriorSpec("uniform", 1.0, 2, bound=INF), "bound"),
    "wn-nan-delta": (lambda: wn.ProductPriorSpec("exp-power", 1.0, 2, delta=NAN), "delta"),
    "wn-float-truncation": (lambda: wn.ProductPriorSpec("uniform", 1.0, 1.5), "truncation level"),
    "wn-bool-truncation": (lambda: wn.ProductPriorSpec("uniform", 1.0, True), "truncation level"),
    "wn-negative-truncation": (lambda: wn.ProductPriorSpec("uniform", 1.0, -1), "truncation level"),
    "truth-nan-alpha": (lambda: HolderTruthSpec(NAN), "alpha"),
    "truth-inf-radius": (lambda: HolderTruthSpec(1.0, radius=INF), "radius"),
    "truth-float-seed": (lambda: HolderTruthSpec(1.0, seed=1.5), "seed"),
    "truth-bool-seed": (lambda: HolderTruthSpec(1.0, seed=True), "seed"),
    "truth-negative-seed": (lambda: HolderTruthSpec(1.0, seed=-1), "seed"),
}


@pytest.mark.parametrize("make, message", SPEC_NUMBER_CASES.values(), ids=SPEC_NUMBER_CASES.keys())
def test_spec_numbers_are_checked(make, message):
    # each of these got through before, or failed with a bare TypeError
    with pytest.raises(ValueError, match=message):
        make()


class TestNormalizeLogDensity:
    def test_constant_shift_cancels(self, J):
        f = normalize_log(constant(J, 5.0))
        assert np.allclose(f, 1.0, atol=1e-14)

    def test_recovers_density(self, J):
        basis = build_basis("haar", 4, J)
        f0 = make_density_truth(HolderTruthSpec(1.0, 1.0, seed=7), basis)
        t = np.log(f0)
        back = normalize_log(t)
        assert np.abs(back - f0).max() < 1e-10

    def test_shift_identity(self, J):
        rng = np.random.default_rng(8)
        t = rng.normal(size=2 ** J)
        c1 = -np.log(normalize_log(t)[0]) + t[0]
        t2 = t + 3.0
        c2 = -np.log(normalize_log(t2)[0]) + t2[0]
        assert c2 - c1 == pytest.approx(3.0, abs=1e-10)
        assert np.abs(
            normalize_log(t) - normalize_log(t2)
        ).max() < 1e-12

    def test_overflow_guard(self, J):
        t = constant(J, 800.0)
        f = normalize_log(t)
        assert np.allclose(f, 1.0)


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


class TestLogisticLogPhi:
    A = [-800.0, -701.0, -30.0, -2.5, -1e-3, 0.0, 1e-3, 2.5, 30.0, 701.0, 800.0]

    def test_matches_the_closed_form(self):
        # log phi(a) = -a - 2 log(1 + e^(-a)), worked in 50-digit arithmetic
        mpmath = pytest.importorskip("mpmath")
        got = dens.LogDensityPriorSpec("logistic", 1.0, 2).log_phi(self.A)
        with mpmath.workdps(50):
            want = [float(-a - 2 * mpmath.log1p(mpmath.exp(-a))) for a in map(mpmath.mpf, self.A)]
        np.testing.assert_allclose(got, want, rtol=4e-16, atol=0)
        # far in the tails the value rounds to -|a|, on both sides
        assert got[[0, 1, -2, -1]].tolist() == [-800.0, -701.0, -701.0, -800.0]

    def test_symmetric(self):
        log_phi = dens.LogDensityPriorSpec("logistic", 1.0, 2).log_phi
        a = np.concatenate([self.A, np.random.default_rng(2).standard_normal(1000) * 40])
        np.testing.assert_array_equal(log_phi(a), log_phi(-a))


class TestMcmc:
    def test_prior_recovery_on_empty_sample(self):
        basis = build_basis("boundary-smooth", 3, 9)
        prior = dens.LogDensityPriorSpec("gaussian", alpha=1.0, cutoff_level=2, r=0.5)
        cfg = dens.McmcConfig(iterations=12_000, burn_in=2_000, thin=2)
        empty = dens.point_counts(np.empty(0), basis.resolution)
        chain = dens.logdensity_mcmc(prior, empty, basis, cfg, seed=0)
        states = chain.states
        for l in range(prior.cutoff_level + 1):
            var = states[:, 2 ** l - 1:2 ** (l + 1) - 1].var()
            assert var == pytest.approx(1.0, rel=0.10)

    def test_two_bin_conjugate_oracle(self):
        basis = build_basis("haar", 0, 8)
        sample = dens.point_counts(np.array([0.1, 0.2, 0.3, 0.7]), basis.resolution)
        prior = dens.LogDensityPriorSpec("logistic", alpha=1.0, cutoff_level=0, scale=0.5)
        chain = dens.logdensity_mcmc(prior, sample, basis, dens.McmcConfig(), seed=5)
        vals = chain.density_values(basis)
        omega0 = vals[:, : vals.shape[1] // 2].mean(axis=1) / 2.0
        assert abs(omega0.mean() - 2.0 / 3.0) < 0.02

    def test_cutoff_beyond_the_basis_refused(self):
        basis = build_basis("haar", 2, 8)
        prior = dens.LogDensityPriorSpec("gaussian", alpha=1.0, cutoff_level=3, r=0.5)
        with pytest.raises(ValueError, match="cutoff level 3 beyond basis L_max=2"):
            dens.logdensity_mcmc(prior, dens.point_counts(np.array([0.5]), 8), basis)

    def test_first_draw_that_overflows_is_refused_without_a_warning(self):
        # heavy-tail draws at tau 0.992 are about 125^125 = 1e262, so at scale
        # 1e300 the chain's first T overflows and it cannot start
        basis = build_basis("haar", 2, 8)
        prior = dens.LogDensityPriorSpec("heavy-tail", alpha=1.0, cutoff_level=2, tau=0.992, scale=1e300)
        cfg = dens.McmcConfig(iterations=200, burn_in=100)
        with (warnings.catch_warnings(),
              pytest.raises(ValueError, match=re.escape("first prior draw overflows a float (prior scale 1e+300)"))):
            warnings.simplefilter("error")
            dens.logdensity_mcmc(prior, dens.point_counts(np.array([0.5]), 8), basis, cfg, seed=0)

    def test_proposal_whose_normaliser_underflows_is_rejected(self):
        # at scale 1000 a random-walk move changes T by thousands, so e^X can
        # underflow on every row that carries weight: the proposal's
        # normaliser is 0 and has no log ratio (it used to raise from math.log)
        basis = build_basis("haar", 2, 8)
        counts = dens.point_counts(np.full(50, 0.3), 8)
        prior = dens.LogDensityPriorSpec("laplace", alpha=1.0, cutoff_level=2, scale=1000.0)
        cfg = dens.McmcConfig(iterations=200, burn_in=100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chain = dens.logdensity_mcmc(prior, counts, basis, cfg, seed=0)
        assert np.isfinite(chain.states).all()
        assert np.isfinite(chain.density_values(basis)).all()

    def test_proposal_whose_normaliser_ratio_underflows_is_rejected(self, monkeypatch):
        # np.exp returns subnormals, so a proposal's normaliser can be positive
        # and still below S * 2^-1075; then its ratio to S is 0 and has no log.
        # At prior scale 1e-300 every weight in E is 1, S = R = 256, and each
        # proposal's e^X (taken in place on a view) is made 0 but for one
        # smallest subnormal, so S_new = 5e-324 and S_new / S = 0
        real_exp = np.exp

        def exp(x, *args, out=None, **kwargs):
            if out is None or out.base is None:
                return real_exp(x, *args, out=out, **kwargs)
            out[...] = 0.0
            out[0] = 5e-324
            return out

        basis = build_basis("haar", 2, 8)
        counts = dens.point_counts(np.full(50, 0.3), 8)
        prior = dens.LogDensityPriorSpec("laplace", alpha=1.0, cutoff_level=2, scale=1e-300)
        cfg = dens.McmcConfig(iterations=120, burn_in=10)
        monkeypatch.setattr(np, "exp", exp)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chain = dens.logdensity_mcmc(prior, counts, basis, cfg, seed=0)
        assert (chain.acceptance == 0.0).all()
        assert (chain.states == chain.states[0]).all()

    @pytest.mark.parametrize("counts, message", [
        (np.array([1, -1]), "non-negative integers"),
        (np.array([1.0, 2.0]), "non-negative integers"),
        (np.zeros(6, dtype=int), "1-D array of 2"),
    ])
    def test_bad_counts_refused(self, counts, message):
        # the chain reads its sample only through `bin_counts`, which checks it
        basis = build_basis("haar", 0, 8)
        prior = dens.LogDensityPriorSpec("gaussian", alpha=1.0, cutoff_level=0, r=0.5)
        with pytest.raises(ValueError, match=message):
            dens.logdensity_mcmc(prior, counts, basis, dens.McmcConfig(iterations=200, burn_in=50))

    def test_edge_point_counts_in_the_left_half_as_in_bin_counts(self):
        # with Haar at L = 0 the likelihood reads only the two half counts, so
        # a point at 1/2 and one at 1/4 give the same chain when both count left
        basis = build_basis("haar", 0, 8)
        prior = dens.LogDensityPriorSpec("gaussian", alpha=1.0, cutoff_level=0, r=0.5)
        cfg = dens.McmcConfig(iterations=400, burn_in=100, thin=3)
        on_edge = dens.point_counts(np.array([0.1, 0.5, 0.5, 0.7]), 8)
        inside = dens.point_counts(np.array([0.1, 0.25, 0.25, 0.7]), 8)
        assert dens.bin_counts(on_edge, 1).tolist() == dens.bin_counts(inside, 1).tolist() == [3, 1]
        a = dens.logdensity_mcmc(prior, on_edge, basis, cfg, seed=3)
        b = dens.logdensity_mcmc(prior, inside, basis, cfg, seed=3)
        np.testing.assert_array_equal(a.states, b.states)

    def test_detailed_balance_smoke(self):
        # frozen 2-coefficient problem: long-run state histogram vs direct
        # quadrature of the posterior, total variation <= 0.05
        basis = build_basis("haar", 1, 8)
        points = np.array([0.05, 0.3, 0.4, 0.8, 0.9, 0.95, 0.2, 0.6])
        sample = dens.point_counts(points, basis.resolution)
        prior = dens.LogDensityPriorSpec("gaussian", alpha=1.0, cutoff_level=1, r=0.5)
        cfg = dens.McmcConfig(iterations=60_000, burn_in=5_000, thin=2)
        chain = dens.logdensity_mcmc(prior, sample, basis, cfg, seed=11)
        a00 = chain.states[:, 0]

        # direct quadrature of the marginal of a00 over the level-1 pair
        B = grid_columns(basis)[:, 1:4]
        sig = chain.sigmas
        counts = grid_counts(points, basis.resolution)

        def loglik(coefs):
            T = B @ (sig * coefs)
            c = np.log(np.exp(T - T.max()).mean()) + T.max()
            return counts @ T - points.size * c

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
            return np.abs(vals - f0).max(axis=1).mean()

        short = [sup_loss(8_000, s) for s in range(4)]
        long = sup_loss(14_000, 10)
        se = np.std(short, ddof=1)
        assert abs(long - np.mean(short)) < max(3 * se, 0.05)

    def test_flagging_is_reported(self):
        basis = build_basis("haar", 0, 8)
        prior = dens.LogDensityPriorSpec("gaussian", alpha=1.0, cutoff_level=0, r=0.5)
        cfg = dens.McmcConfig(iterations=1_200, burn_in=1_000, thin=1)
        empty = dens.point_counts(np.empty(0), basis.resolution)
        chain = dens.logdensity_mcmc(prior, empty, basis, cfg, seed=0)
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

    @pytest.mark.parametrize("tau", [0.99, 0.992])
    def test_heavy_tail_tau_near_one_draws_finite(self, tau):
        prior = dens.LogDensityPriorSpec("heavy-tail", alpha=1.0, cutoff_level=2, tau=tau)
        assert np.isfinite(prior.draw_standardized(np.random.default_rng(0), 10_000)).all()

    @pytest.mark.parametrize("tau", [0.993, 0.995, 0.999])
    def test_heavy_tail_tau_whose_draws_overflow_refused(self, tau):
        # W^beta - 1 with W ~ Gamma(beta), beta = 1/(1 - tau), overflows a float:
        # for some draws at 0.993, for all of them at 0.995
        with pytest.raises(ValueError, match=f"tau={tau} draws coefficients that overflow"):
            dens.LogDensityPriorSpec("heavy-tail", alpha=1.0, cutoff_level=2, tau=tau)
        with np.errstate(over="ignore", invalid="ignore"):
            draws = dens._heavy_tail_draws(np.random.default_rng(0), tau, 1000)
        assert not np.isfinite(draws).all()

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
        out = dens.posterior_expected_losses(two_bin[None], two_bin)
        assert out.shape == (3, 1)
        assert (out == 0.0).all()

    def test_permutation_invariance(self, J, two_bin):
        draws = np.array([constant(J), two_bin, constant(J, 1.0)])
        a = dens.posterior_expected_losses(draws, two_bin)
        b = dens.posterior_expected_losses(draws[::-1], two_bin)
        np.testing.assert_array_equal(a, b[:, ::-1])
        assert loss_summary(a) == loss_summary(b)

    def test_mc_stability_across_seeds(self, J):
        params = dens.histogram_posterior(np.ones(8), np.arange(1, 9) * 10)
        f0 = np.repeat(mean_masses(params) * 2 ** 3, 2 ** J // 2 ** 3)
        outs = []
        for seed in (0, 1):
            vals = dens.draw_histogram_values(params, 10_000, seed=seed)
            outs.append(dens.posterior_expected_losses(vals, f0)[0].mean())
        assert abs(outs[0] - outs[1]) / outs[0] < 0.02

    def test_blocks_match_one_pass(self, J):
        # 1000 draws on a 1024-cell grid span eight blocks of rows
        params = dens.histogram_posterior(np.ones(8), np.arange(1, 9) * 10)
        f0 = np.repeat(mean_masses(params) * 2 ** 3, 2 ** J // 2 ** 3)
        vals = np.repeat(dens.draw_histogram_values(params, 1000, seed=2), 2 ** J // 8, axis=1)
        assert len(dens._row_blocks(*vals.shape)) > 1
        sup, l2, hellinger, q90 = loss_summary(dens.posterior_expected_losses(vals, f0))
        diff = vals - f0
        sups = np.abs(diff).max(axis=1)
        assert sup == sups.mean()
        assert l2 == np.sqrt((diff ** 2).mean(axis=1)).mean()
        assert hellinger == hellinger_rows(vals, f0).mean()
        assert q90 == np.quantile(sups, 0.9)

    def test_pool_of_parts_is_the_whole(self, J, two_bin):
        rng = np.random.default_rng(3)
        vals = two_bin * rng.uniform(0.5, 1.5, (40, 2 ** J))
        whole = dens.posterior_expected_losses(vals, two_bin)
        parts = [dens.posterior_expected_losses(vals[a:b], two_bin) for a, b in ((0, 7), (7, 40))]
        np.testing.assert_array_equal(np.concatenate(parts, axis=1), whole)

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
        vals = np.random.default_rng(7).uniform(0.0, 2.0, 2 ** 8)
        vals[::5] = 0.0
        return vals

    @pytest.mark.parametrize("K", [1, 2, 32, 256])
    def test_match_the_grid_expansion(self, monkeypatch, f0, K):
        # smaller row blocks, so that every K spans several of them
        monkeypatch.setattr(dens, "_BLOCK_VALUES", 2 ** 10)
        N = f0.size
        blocks = f0.reshape(K, -1)
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
        (sup, l2, hellinger, q90), want = loss_summary(step), loss_summary(grid)
        assert (sup, q90) == (want[0], want[3])
        np.testing.assert_array_equal(step[0], grid[0])
        np.testing.assert_allclose(step[1:], grid[1:], rtol=1e-12, atol=0)
        assert l2 == pytest.approx(want[1], rel=1e-12)
        assert hellinger == pytest.approx(want[2], rel=1e-12)

    @pytest.mark.parametrize("K", [1, 4, 32])
    def test_fortran_rows_match_c_rows(self, monkeypatch, f0, K):
        # the scratch follows the draws' order, which moves only the order of
        # each row's sum of squares
        monkeypatch.setattr(dens, "_BLOCK_VALUES", 2 ** 10)
        params = dens.histogram_posterior(np.full(K, 0.5), np.arange(K) % 3)
        F = dens.draw_histogram_values(params, 1500, seed=K)
        C = np.ascontiguousarray(F)
        assert F.flags.f_contiguous and C.flags.c_contiguous
        assert len(dens._row_blocks(*F.shape)) > 1
        for densities in (True, False):
            f, c = (dens.posterior_expected_losses(d, f0, densities) for d in (F, C))
            (sup, l2, hellinger, q90), want = loss_summary(f), loss_summary(c)
            assert (sup, q90) == (want[0], want[3])
            np.testing.assert_array_equal(f[0], c[0])
            np.testing.assert_allclose(f[1:], c[1:], rtol=1e-15, atol=0)
            assert l2 == pytest.approx(want[1], rel=1e-15, abs=0)
            if densities:
                assert hellinger == pytest.approx(want[2], rel=1e-15, abs=0)

    def test_negative_entries_raise(self, f0):
        c = np.ones((4, 32))
        c[2, 5] = -1e-9
        with pytest.raises(ValueError, match="density values below -1e-12"):
            dens.posterior_expected_losses(c, f0)
        bad = np.where(np.arange(f0.size) == 9, -1e-9, f0)
        with pytest.raises(ValueError, match="density values below -1e-12"):
            dens.posterior_expected_losses(np.ones((4, 32)), bad)

    @pytest.mark.parametrize("densities", [True, False])
    def test_no_draws_raise(self, f0, densities):
        for draws in (np.empty((0, 32)), np.empty((0, f0.size)), []):
            with pytest.raises(ValueError, match="need at least one draw"):
                dens.posterior_expected_losses(draws, f0, densities=densities)

    @pytest.mark.parametrize("densities", [True, False])
    def test_non_array_draws_refused(self, f0, densities):
        # a list of rows is refused by its type, before any array attribute is read
        with pytest.raises(ValueError, match=r"\(m, K\) array of rows \(got a list\)"):
            dens.posterior_expected_losses([[1.0] * 32] * 4, f0, densities=densities)

    @pytest.mark.parametrize("densities", [True, False])
    def test_one_row_vector_refused(self, f0, densities):
        # a single draw is a (1, K) array; a bare (K,) vector is refused by shape
        with pytest.raises(ValueError, match=re.escape("got shape (32,)")):
            dens.posterior_expected_losses(np.ones(32), f0, densities=densities)

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
            hellinger_rows(rows, f0)
        with pytest.raises(ValueError, match=f"width {width} .* grid size 256"):
            dens.posterior_expected_losses(rows, f0, densities=False)


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
        got = loss_summary(chain.expected_losses(basis, f0))
        want = loss_summary(dens.posterior_expected_losses(vals, f0))
        # blocks differ from the full product only by the BLAS kernel's rounding
        assert got == pytest.approx(want, rel=1e-12)


def reference_posterior_expected_losses(values, f0, densities=True):
    """The loss reduction with fresh temporaries for every block of rows."""
    blocks = step_blocks(f0, values.shape[1])
    lo, hi = blocks.min(axis=1), blocks.max(axis=1)
    mean, css = block_moments(blocks)

    def losses(c):
        below = c - lo
        above, centred = (below, below) if blocks.shape[1] == 1 else (c - hi, c - mean)
        sup = np.maximum(below.max(axis=1), -above.min(axis=1))
        rows = [sup, step_rms(centred, css, f0.size)]
        return np.array(rows + [hellinger_rows(c, f0)] if densities else rows)

    return np.concatenate([losses(values[rows]) for rows in dens._row_blocks(*values.shape)], axis=1)


def reference_expected_losses(chain, basis, f0):
    """`McmcChain.expected_losses` with the fresh-temporary reduction for every block."""
    # K = 2^(L+1) - 1 coefficients for levels 0..L
    B = grid_columns(basis)[:, 1:chain.sigmas.size + 1]

    def density_values(rows):
        T = (chain.states[rows] * chain.sigmas) @ B.T
        T -= log_mean_exp(T)[:, None]
        return np.exp(T, out=T)

    return np.concatenate([
        reference_posterior_expected_losses(density_values(rows), f0)
        for rows in dens._row_blocks(len(chain.states), 2 ** basis.resolution)
    ], axis=1)


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
        self.unequal_blocks(monkeypatch, len(chain.states), 2 ** basis.resolution, 7)
        got = chain.expected_losses(basis, f0)
        want = reference_expected_losses(chain, basis, f0)
        np.testing.assert_array_equal(got, want)
        assert loss_summary(got) == loss_summary(want)

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
        np.testing.assert_array_equal(got, want)
        assert loss_summary(got) == loss_summary(want)


def reference_mcmc(prior, sample, basis, cfg, seed):
    """The slow reference: the MCMC loop before its exact reductions, which
    evaluates loglik(T) = counts @ T - n c(T) over the whole grid each time."""
    L = prior.cutoff_level
    B = grid_columns(basis)[:, 1:2 ** (L + 1)]
    K = B.shape[1]
    sigmas = np.concatenate([np.full(2 ** l, prior.sigma(l)) for l in range(L + 1)])
    slices = []
    pos = 0
    for l in range(L + 1):
        slices.append(slice(pos, pos + 2 ** l))
        pos += 2 ** l
    assert sample.size == 2 ** basis.resolution
    counts = sample.astype(float)
    n = int(sample.sum())

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
        B = grid_columns(basis)[:, 1:16]
        counts, n = sample, sample.sum()
        sigmas = np.concatenate([np.full(2 ** l, prior.sigma(l)) for l in range(4)])

        def loglik(a):
            T = B @ (sigmas * a)
            return counts @ T - n * log_mean_exp(T)

        rng = np.random.default_rng(len(law))
        E = np.empty(2 ** basis.resolution)
        for _ in range(25):
            a = rng.standard_normal(B.shape[1]) * rng.uniform(0.1, 3.0)
            log_mean_exp(B @ (sigmas * a), E)  # E = e^(T - max T)
            for sl, Rs in dens._level_moves(prior, sample, np.ascontiguousarray(B)):
                d = rng.standard_normal(sl.stop - sl.start) * rng.uniform(0.01, 1.0)
                # d [R | s] = [X | d . s], and c(T + X) - c(T) = log(E . e^X / sum E)
                G = d @ Rs
                fast = G[-1] - n * np.log(E @ np.exp(G[:-1]) / E.sum())
                a_new = a.copy()
                a_new[sl] += d
                want = loglik(a_new) - loglik(a)
                # relative to the log likelihoods whose difference both sides take
                assert abs(fast - want) <= 1e-10 * max(abs(loglik(a)), abs(want), 1.0)

    def test_data_term_reads_bin_counts_on_cell_edges(self):
        basis = build_basis("boundary-smooth", 3, 8)
        sample = dens.point_counts(
            np.array([0.0, 0.25, 0.25, 0.5, 0.3, 0.75, 129 / 256, 1.0]), 8
        )
        counts = dens.bin_counts(sample, 8).astype(float)
        # each edge point counts in the cell to its left, 0 in the first cell
        assert np.flatnonzero(counts).tolist() == [0, 63, 76, 127, 128, 191, 255]
        prior = dens.LogDensityPriorSpec("laplace", alpha=1.0, cutoff_level=3)
        B = np.ascontiguousarray(grid_columns(basis)[:, 1:16])
        for l, (sl, Rs) in enumerate(dens._level_moves(prior, sample, B)):
            R = np.ascontiguousarray(Rs[:, :-1])
            np.testing.assert_array_equal(R, prior.sigma(l) * B[:, sl].T)
            np.testing.assert_array_equal(Rs[:, -1], R @ counts)

    @pytest.mark.parametrize("level, law, seed", [
        *(pytest.param(2, law, seed, id=f"{law}-{seed}") for law in LAWS for seed in (0, 1, 2)),
        # the n = 8000 benchmark cells run level 3, whose 8-row [R | s] is the widest
        # product, and whose 8-wide block the sweep's reduceat sums for the prior ratio
        *(pytest.param(3, law, 3, id=f"level3-{law}") for law in LAWS),
        # a single one-coefficient block
        *(pytest.param(0, law, 5, id=f"level0-{law}") for law in ("gaussian", "laplace")),
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
        empty = dens.point_counts(np.empty(0), basis.resolution)
        chain = dens.logdensity_mcmc(prior, empty, basis, cfg, seed=9)
        states, acceptance, scales = reference_mcmc(prior, empty, basis, cfg, 9)
        np.testing.assert_array_equal(chain.states, states)
        np.testing.assert_array_equal(chain.acceptance, acceptance)
        np.testing.assert_array_equal(chain.step_scales, scales)


class TestHaarChainOnBlocks:
    """A Haar log-density chain works on the 2^(L_max+1) stored blocks, so
    the grid under them changes nothing."""

    @pytest.mark.parametrize("law", ["gaussian", "laplace"])
    def test_chain_does_not_depend_on_the_grid(self, law):
        fine, coarse = build_basis("haar", 3, 12), build_basis("haar", 3, 5)
        f0 = make_density_truth(HolderTruthSpec(1.0, 1.0, seed=6), fine)
        sample = dens.sample_data(f0, 8000, seed=6)
        prior = dens.LogDensityPriorSpec(law, alpha=1.0, cutoff_level=3)
        cfg = dens.McmcConfig(iterations=600, burn_in=200, thin=2, adapt_every=10)
        chains = []
        for basis in (fine, coarse):
            binned = dens.bin_counts(sample, basis.resolution)
            chain = dens.logdensity_mcmc(prior, binned, basis, cfg, seed=3)
            assert chain.density_values(basis).shape == (len(chain.states), 16)
            # the losses of the block rows are those of the same draws on the grid
            f0_b = make_density_truth(HolderTruthSpec(1.0, 1.0, seed=6), basis)
            T = (chain.states * chain.sigmas) @ grid_columns(basis)[:, 1:16].T
            grid_draws = np.exp(T - log_mean_exp(T)[:, None])
            got = chain.expected_losses(basis, f0_b)
            want = dens.posterior_expected_losses(grid_draws, f0_b)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
            assert loss_summary(got) == pytest.approx(loss_summary(want), rel=1e-12)
            chains.append(chain)
        a, b = chains
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.acceptance, b.acceptance)
        np.testing.assert_array_equal(a.step_scales, b.step_scales)
