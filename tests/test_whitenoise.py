import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from supnorm.density import posterior_expected_losses
from supnorm.functions import HolderTruthSpec, make_holder_truth
from supnorm.grids import GridFunction
from supnorm import whitenoise as wn
from supnorm.wavelets import WaveletIndex, build_basis, level_slice
from supnorm.whitenoise import (
    LIKELIHOOD_HALF_WIDTH,
    QUADRATURE_POINTS,
    PosteriorUnderflowError,
    ProductPriorSpec,
    coord_posterior,
    draw_posterior_coefficients,
    laplace_check,
    simulate_wn,
    truncation_bias_bound,
)

from oracles import coord_cdf, coord_mean, coordinate_rng, interpolated_draws


@pytest.fixture(scope="module")
def haar():
    return build_basis("haar", 4, 10)


@pytest.fixture(scope="module")
def truth(haar):
    return make_holder_truth(HolderTruthSpec(alpha=1.0, radius=1.0, seed=2), haar)


def uniform_prior(L=4, alpha=1.0, B=2.0):
    return ProductPriorSpec("uniform", alpha, truncation_level=L, bound=B)


def ep_prior(L=4, alpha=1.0, delta=1.0):
    return ProductPriorSpec("exp-power", alpha, truncation_level=L, delta=delta)


def reference_coord_posterior(x, level, prior, n):
    """(thetas, pdf, cdf, mean) by the plain quadrature `coord_posterior` must match."""
    sigma = prior.sigma(level)
    half = LIKELIHOOD_HALF_WIDTH / np.sqrt(n)
    radius = prior.standardized_radius() * sigma
    lo = max(-radius, x - half)
    hi = min(radius, x + half)
    if not lo < hi:
        lo, hi = -radius, radius
    thetas = np.linspace(lo, hi, QUADRATURE_POINTS)
    logd = -0.5 * n * (thetas - x) ** 2 + prior.log_phi(thetas / sigma)
    w = np.exp(logd - logd.max())
    pdf = w / np.trapezoid(w, thetas)
    inc = 0.5 * (pdf[1:] + pdf[:-1]) * np.diff(thetas)
    cdf = np.concatenate([[0.0], np.cumsum(inc)])
    cdf /= cdf[-1]
    mean = float(np.trapezoid(thetas * pdf, thetas))
    return thetas, pdf, cdf, mean


# flat index -> spawn key of its coordinate stream
STREAM_KEYS = {0: (0, 0), 1: (1, 0), 2: (2, 0), 3: (2, 1), 5: (3, 1), 31: (5, 15)}

# seeds of 1, 2, 3, 4, 5 and 7 uint32 words (past 4, each word moves the
# hashmix calls of the key words), and the integer types a seed may have
STREAM_SEEDS = [
    0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63 - 1, 2 ** 64 + 5, 2 ** 100 + 9, 2 ** 128 + 3, 2 ** 200 + 77,
    True, np.int64(7), np.uint64(2 ** 64 - 1),
]
STREAM_WIDTH = 2 ** 9

# a draw may differ from the table sampler's by this fraction of the window width
DRAW_RTOL = 1e-10


def assert_draws_match_the_table(draws, x, level, prior, n, u):
    """Draws of one coordinate against interpolation on the normalised cdf."""
    post = coord_posterior(float(x), level, prior, n)
    lo, hi = post.thetas[0], post.thetas[-1]
    assert np.all((lo <= draws) & (draws <= hi))
    assert np.abs(draws - interpolated_draws(post, u)).max() <= DRAW_RTOL * (hi - lo)


class TestPriorSpec:
    def test_uniform_sigma_rule(self):
        p = uniform_prior(alpha=1.0)
        assert p.sigma(3) == 2.0 ** (-4.5)

    def test_ep_sigma_rule(self):
        p = ep_prior(alpha=1.0, delta=1.0)
        mu = 0.5
        assert p.sigma(3) == pytest.approx(2.0 ** (-4.5) / 4.0 ** mu)

    def test_validation(self):
        with pytest.raises(ValueError):
            ProductPriorSpec("uniform", 1.0, 4, bound=0.0)
        with pytest.raises(ValueError):
            ProductPriorSpec("exp-power", 1.0, 4, delta=0.0)
        with pytest.raises(ValueError):
            ProductPriorSpec("cauchy", 1.0, 4)


class TestSimulate:
    @pytest.mark.parametrize("width", [32, 8])
    def test_truth_plus_coordinate_noise(self, haar, truth, width):
        # x_j = c_j + z_j / sqrt(n), z_j the first normal of coordinate j's stream
        c = haar.analyze(truth)
        n, seed = 100, 3
        x = simulate_wn(c[:width], n, seed)
        z = np.array([coordinate_rng(seed, j).standard_normal() for j in range(width)])
        assert np.array_equal(x, c[:width] + (1.0 / np.sqrt(n)) * z)

    def test_noise_variance(self, haar, truth):
        n = 64
        c = haar.analyze(truth)
        reps = 10_000
        devs = np.empty(reps)
        for r in range(reps):
            x = simulate_wn(c[:level_slice(0).stop], n, seed=r)
            devs[r] = x[level_slice(0)][0] - c[level_slice(0)][0]
        assert devs.var() == pytest.approx(1.0 / n, rel=0.05)

    def test_seed_contract(self, haar, truth):
        a = simulate_wn(haar.analyze(truth), 50, seed=7)
        b = simulate_wn(haar.analyze(truth), 50, seed=7)
        c = simulate_wn(haar.analyze(truth), 50, seed=8)
        assert np.array_equal(a, b)
        assert any(
            not np.array_equal(a[level_slice(l)], c[level_slice(l)]) for l in range(5)
        )

    @pytest.mark.parametrize("seed", [7, 2 ** 64 + 5])
    def test_prefix_observations_are_the_observations_prefix(self, seed):
        # a truncation observes a prefix of the truth: the coordinate streams
        # are keyed by flat index, so it sees the prefix of the full observations
        c = np.random.default_rng(1).standard_normal(2 ** 6)
        full = simulate_wn(c, 50, seed)
        for w in (2, 4, 8, 16, 32, 64):
            part = simulate_wn(c[:w], 50, seed)
            assert part.shape == (w,) and np.array_equal(part, full[:w])

    @pytest.mark.parametrize("shape", [(1,), (3,), (5,), (24,), (), (2, 4), (1, 8)])
    def test_non_flat_coefficients_refused(self, shape):
        with pytest.raises(ValueError, match="flat vector"):
            simulate_wn(np.zeros(shape), 50, seed=7)

    def test_noise_streams_keep_their_level_position_keys(self, haar, truth):
        # flat index j draws from SeedSequence(seed, spawn_key=(l + 1, k)),
        # the key of wavelet (l, k), and the scaling coordinate from (0, 0)
        n = 50
        c = haar.analyze(truth)
        for seed in STREAM_SEEDS:
            x = simulate_wn(c, n, seed=seed)
            for j, key in STREAM_KEYS.items():
                eps = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key)).standard_normal()
                assert x[j] == c[j] + (1.0 / np.sqrt(n)) * eps
            # the streams derived together are the streams built one by one
            for j, stream in enumerate(wn._coordinate_streams(seed, STREAM_WIDTH)):
                assert stream.standard_normal() == coordinate_rng(seed, j).standard_normal()

    def test_negative_seed_refused(self, haar, truth):
        with pytest.raises(ValueError, match="-1"):
            simulate_wn(haar.analyze(truth), 50, seed=-1)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            wn._coordinate_streams(-(2 ** 40), 4)

    @pytest.mark.parametrize("seed", [2.0, np.float64(3.0), None, "7"])
    def test_non_integer_seed_refused(self, haar, truth, seed):
        with pytest.raises(TypeError, match="integer"):
            simulate_wn(haar.analyze(truth), 50, seed=seed)

    @pytest.mark.parametrize("n", [float("nan"), 2.5, True, np.float64(64.0)])
    def test_non_integer_n_refused(self, haar, truth, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            simulate_wn(haar.analyze(truth), n, seed=7)


class TestCoordPosterior:
    def test_symmetric_mean_zero(self):
        post = coord_posterior(0.0, 0, uniform_prior(), n=100)
        assert coord_mean(post) == pytest.approx(0.0, abs=1e-12)

    def test_matches_truncated_normal(self):
        # wide prior support: posterior is Normal(x, 1/n) truncated to [-B s, B s]
        n, x, l = 400, 0.05, 0
        prior = uniform_prior(alpha=1.0, B=2.0)
        s = prior.sigma(l)
        post = coord_posterior(x, l, prior, n)
        sd = 1.0 / np.sqrt(n)
        a, b = (-2.0 * s - x) / sd, (2.0 * s - x) / sd
        ref = stats.truncnorm(a, b, loc=x, scale=sd)
        assert coord_mean(post) == pytest.approx(ref.mean(), abs=1e-3 / np.sqrt(n))
        var = post.expectation(lambda t: (t - coord_mean(post)) ** 2)
        assert var == pytest.approx(1.0 / n, rel=0.01)

    def test_prior_collapse_regime(self):
        # sigma sqrt(n) tiny: posterior concentrates at 0
        n = 16
        prior = ProductPriorSpec("uniform", 4.0, truncation_level=8, bound=2.0)
        l = 8  # sigma = 2^{-36}
        assert prior.sigma(l) * np.sqrt(n) <= 1e-6
        x = 0.3
        post = coord_posterior(x, l, prior, n)
        assert abs(coord_mean(post)) <= 1e-6 * abs(x) + 1e-12

    def test_cdf_monotone_normalized(self):
        post = coord_posterior(0.1, 2, ep_prior(), n=200)
        assert np.all(np.diff(coord_cdf(post)) >= 0)
        assert coord_cdf(post)[-1] == pytest.approx(1.0, abs=1e-10)
        assert coord_cdf(post)[0] == 0.0

    def test_mean_in_window_hull(self):
        n, x = 100, 0.4
        prior = uniform_prior()
        post = coord_posterior(x, 1, prior, n)
        lo = max(-2.0 * prior.sigma(1), x - 8.0 / np.sqrt(n))
        hi = min(2.0 * prior.sigma(1), x + 8.0 / np.sqrt(n))
        assert lo <= coord_mean(post) <= hi

    def test_ep_delta_one_gaussian_closed_form(self):
        # with delta = 1 the prior factor is exp(-(theta/sigma)^2), so the
        # posterior is exactly Gaussian: an independent closed-form oracle
        n, x, l = 300, 0.12, 2
        prior = ep_prior(alpha=1.0, delta=1.0)
        s = prior.sigma(l)
        prec = n + 2.0 / s ** 2
        post = coord_posterior(x, l, prior, n)
        assert coord_mean(post) == pytest.approx(n * x / prec, abs=1e-10)
        var = post.expectation(lambda t: (t - coord_mean(post)) ** 2)
        assert var == pytest.approx(1.0 / prec, rel=1e-6)

    def test_inverse_cdf_sampler_matches_pdf(self):
        post = coord_posterior(0.07, 1, ep_prior(), n=150)
        rng = np.random.default_rng(0)
        draws = post.sample(rng.uniform(size=8000))
        emp_mean = draws.mean()
        emp_var = draws.var()
        var = post.expectation(lambda t: (t - coord_mean(post)) ** 2)
        assert emp_mean == pytest.approx(coord_mean(post), abs=4 * np.sqrt(var / 8000))
        assert emp_var == pytest.approx(var, rel=0.1)

    def test_disjoint_window_falls_back_to_support(self):
        # x far outside the prior support: full support is used
        n = 10_000
        prior = uniform_prior(alpha=2.0)
        l = 6
        s = prior.sigma(l)
        post = coord_posterior(5.0, l, prior, n)
        assert post.thetas[0] == pytest.approx(-2.0 * s)
        assert post.thetas[-1] == pytest.approx(2.0 * s)
        assert np.isfinite(coord_mean(post))

    @pytest.mark.parametrize("n", [4, 256, 65536])
    @pytest.mark.parametrize("prior", [uniform_prior(L=6), ep_prior(L=6)], ids=["uniform", "exp-power"])
    def test_table_matches_the_reference_bit_for_bit(self, prior, n):
        for level in range(7):
            radius = prior.standardized_radius() * prior.sigma(level)
            # inside the window, at the edge of the prior support, and
            # disjoint from it (the window falls back to the full support)
            for x in (0.3 * radius, radius, 5.0):
                post = coord_posterior(x, level, prior, n)
                thetas, pdf, cdf, mean = reference_coord_posterior(x, level, prior, n)
                assert np.array_equal(post.thetas, thetas)
                assert np.array_equal(post.pdf, pdf)
                assert np.array_equal(coord_cdf(post), cdf)
                assert coord_mean(post) == mean

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(0.1, 20.0), st.integers(0, 20), st.floats(1e-3, 100.0), st.floats(-3.0, 3.0),
        st.integers(1, 2 ** 30), st.integers(-3, 3),
    )
    def test_uniform_support_run_is_exact(self, alpha, level, B, t, n, ulps):
        # the uniform prior's log phi, set as one run of grid points, against
        # the full evaluation, for windows inside, at the edge of and outside
        # the support; `ulps` moves x so that a window may be a few ulps wide
        prior = ProductPriorSpec("uniform", alpha, truncation_level=level, bound=B)
        half = LIKELIHOOD_HALF_WIDTH / np.sqrt(n)
        radius = B * prior.sigma(level)
        for x in (t * radius, radius + half, -radius - half, t * (radius + half)):
            for _ in range(abs(ulps)):
                x = np.nextafter(x, np.copysign(np.inf, ulps))
            thetas, pdf, _, _ = reference_coord_posterior(x, level, prior, n)
            post = coord_posterior(x, level, prior, n)
            assert np.array_equal(post.thetas, thetas)
            assert np.array_equal(post.pdf, pdf)

    @pytest.mark.parametrize("n", [0, -5])
    def test_nonpositive_n_refused(self, n):
        with pytest.raises(ValueError, match=f"got {n}"):
            coord_posterior(0.1, 1, uniform_prior(), n)

    @pytest.mark.parametrize("n", [float("nan"), 2.5, True])
    def test_non_integer_n_refused(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            coord_posterior(0.1, 1, uniform_prior(), n)

    def test_draws_keep_nan_and_clip_to_the_window(self):
        # the clip to [lo, hi] is np.clip's, also for uniforms at and past the ends
        post = coord_posterior(0.1, 1, uniform_prior(), 100)
        u = np.array([0.0, 1.0, 1.0 + 1e-12, -1e-12, 0.5, np.nan])
        lo, hi = post.thetas[0], post.thetas[-1]
        expected = np.clip(np.interp(u * post.cum[-1], post.cum, post.thetas), lo, hi)
        assert np.array_equal(post.sample(u), expected, equal_nan=True)


class TestDraws:
    def test_deterministic(self, haar, truth):
        x = simulate_wn(haar.analyze(truth), 200, seed=3)
        prior = uniform_prior()
        a = draw_posterior_coefficients(x, 200, prior, 5, seed=9)
        b = draw_posterior_coefficients(x, 200, prior, 5, seed=9)
        assert np.array_equal(a, b)

    def test_uniform_streams_keep_their_level_position_keys(self, haar, truth):
        x = simulate_wn(haar.analyze(truth), 200, seed=3)
        prior = uniform_prior()
        for seed in STREAM_SEEDS:
            flat = draw_posterior_coefficients(x, 200, prior, 6, seed=seed)
            for j, key in STREAM_KEYS.items():
                u = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key)).uniform(size=6)
                level = max(key[0] - 1, 0)
                assert_draws_match_the_table(flat[:, j], x[j], level, prior, 200, u)
            for j, stream in enumerate(wn._coordinate_streams(seed, STREAM_WIDTH)):
                assert np.array_equal(stream.random(200), coordinate_rng(seed, j).random(200))

    @pytest.mark.parametrize("m", [0, 2.5, True, float("nan")])
    def test_bad_draw_count_refused(self, haar, truth, m):
        x = simulate_wn(haar.analyze(truth), 200, seed=3)
        with pytest.raises(ValueError, match="draw count m"):
            draw_posterior_coefficients(x, 200, uniform_prior(), m, seed=9)

    def test_non_integer_seed_refused(self, haar, truth):
        x = simulate_wn(haar.analyze(truth), 200, seed=3)
        with pytest.raises(TypeError, match="integer"):
            draw_posterior_coefficients(x, 200, uniform_prior(), 6, seed=9.0)

    @pytest.mark.parametrize("shape", [(5,), (1,), (2, 8)])
    def test_non_flat_observations_refused(self, shape):
        # a width-5 x is no levels 0..L (read as 0..1 it would lose x[4])
        with pytest.raises(ValueError, match="flat vector"):
            draw_posterior_coefficients(np.zeros(shape), 100, uniform_prior(), 3, seed=0)

    @pytest.mark.parametrize("n", [1, 4, 200, 2 ** 16, 2 ** 20])
    @pytest.mark.parametrize("prior", [uniform_prior(L=6), ep_prior(L=6)], ids=["uniform", "exp-power"])
    def test_draws_match_the_table_sampler(self, prior, n):
        # every coordinate of levels 0..6 inside the window, at the edge of
        # the prior support, and disjoint from it (the full-support fallback)
        levels = [max(j.bit_length() - 1, 0) for j in range(2 ** 7)]
        radius = np.array([prior.standardized_radius() * prior.sigma(l) for l in levels])
        sign = np.where(np.arange(2 ** 7) % 2, -1.0, 1.0)
        half = LIKELIHOOD_HALF_WIDTH / np.sqrt(n)
        for x in (0.3 * sign * radius, sign * radius, sign * (radius + 2.0 * half)):
            flat = draw_posterior_coefficients(x, n, prior, 200, seed=4)
            for j, level in enumerate(levels):
                u = coordinate_rng(4, j).uniform(size=200)
                assert_draws_match_the_table(flat[:, j], x[j], level, prior, n, u)

    @pytest.mark.parametrize("j, level", [(0, 0), (1, 0), (9, 3), (127, 6)])
    def test_underflow_names_the_level(self, j, level):
        x = np.zeros(2 ** 7)
        x[j] = np.inf
        with pytest.raises(PosteriorUnderflowError, match=f"level {level} "):
            draw_posterior_coefficients(x, 100, uniform_prior(L=6), 3, seed=0)

    def test_width_follows_truncation_rule(self, haar, truth):
        # 2^(L + 1) columns, L = min(observed level, prior truncation)
        c = haar.analyze(truth)
        full = simulate_wn(c, 200, seed=3)
        part = simulate_wn(c[:level_slice(1).stop], 200, seed=3)
        for x, L_prior, width in ((full, 4, 32), (full, 2, 8), (part, 4, 4), (part, 0, 2)):
            flat = draw_posterior_coefficients(x, 200, uniform_prior(L=L_prior), 3, seed=1)
            assert flat.shape == (3, width)

    def test_prior_collapse_draws_near_zero(self, haar):
        # tiny n with a fast-decaying prior: draws at high levels are ~ 0
        f0 = make_holder_truth(HolderTruthSpec(alpha=3.0, radius=0.5, seed=1), haar)
        prior = ProductPriorSpec("uniform", 3.0, truncation_level=4, bound=1.0)
        x = simulate_wn(haar.analyze(f0), 4, seed=0)
        flat = draw_posterior_coefficients(x, 4, prior, 3, seed=1)
        rows = haar.synthesize_flat(flat)
        for row in np.repeat(rows, 2 ** haar.resolution // rows.shape[1], axis=1):
            c = haar.analyze(GridFunction(row))
            assert np.abs(c[level_slice(4)]).max() <= prior.bound * prior.sigma(4) + 1e-12

    def test_hard_support_constraint(self, haar, truth):
        x = simulate_wn(haar.analyze(truth), 100, seed=4)
        prior = uniform_prior()
        flat = draw_posterior_coefficients(x, 100, prior, 50, seed=5)
        for l in range(5):
            assert np.abs(flat[:, level_slice(l)]).max() <= prior.bound * prior.sigma(l) + 1e-12

    def test_coordinate_independence(self, haar, truth):
        x = simulate_wn(haar.analyze(truth), 100, seed=4)
        flat = draw_posterior_coefficients(x, 100, uniform_prior(), 4000, seed=6)
        a, b = flat[:, 2], flat[:, 5]
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 3.0 / np.sqrt(4000)

    def test_step_rows_give_the_grid_losses(self, haar, truth):
        # Haar draws stay step rows on 2^(L+1) bins; their losses are those of
        # the grid rows, sup and q90 bit for bit, L2 up to summation order
        x = simulate_wn(haar.analyze(truth), 1024, seed=3)
        for L in range(5):
            flat = draw_posterior_coefficients(x, 1024, uniform_prior(L=L), 200, seed=9)
            rows = haar.synthesize_flat(flat)
            assert rows.shape == (200, 2 ** (L + 1))
            grid = np.repeat(rows, 2 ** haar.resolution // rows.shape[1], axis=1)
            step = posterior_expected_losses(rows, truth, densities=False)
            ref = posterior_expected_losses(grid, truth, densities=False)
            assert step.sup == ref.sup and step.q90_sup == ref.q90_sup
            assert np.array_equal(step.per_draw[0], ref.per_draw[0])
            assert step.l2 == pytest.approx(ref.l2, rel=1e-12, abs=0)

    def test_sup_loss_decreases_with_n(self, haar, truth):
        prior = uniform_prior()
        med = {}
        for n in (64, 1024):
            losses = []
            for rep in range(10):
                x = simulate_wn(haar.analyze(truth), n, seed=100 + rep)
                draws = draw_posterior_coefficients(x, n, prior, 40, seed=rep)
                rows = haar.synthesize_flat(draws)
                values = np.repeat(rows, 2 ** haar.resolution // rows.shape[1], axis=1)
                losses.append(np.abs(values - truth.values).max(axis=1).mean())
            med[n] = np.median(losses)
        assert med[1024] < med[64]


class TestLaplace:
    def test_t_zero_is_one(self, haar, truth):
        x = simulate_wn(haar.analyze(truth), 256, seed=0)
        assert laplace_check(x, 256, uniform_prior(), 1, 0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_t_range_guard(self, haar, truth):
        x = simulate_wn(haar.analyze(truth), 256, seed=0)
        for t in (4.0, -3.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=r"\|t\| <= 3"):
                laplace_check(x, 256, uniform_prior(), 1, 0, t)

    @pytest.mark.parametrize("shape", [(5,), (3, 5), (2, 2, 8), (0, 8)])
    def test_non_flat_observations_refused(self, shape):
        with pytest.raises(ValueError, match="flat vector|at least one"):
            laplace_check(np.zeros(shape), 256, uniform_prior(), 1, 0, 1.0)

    def test_replications_are_the_mean_of_their_rows(self, haar, truth):
        c = haar.analyze(truth)
        xs = np.array([simulate_wn(c, 256, seed=s) for s in range(5)])
        for level, position, t in ((0, 0, 1.0), (2, 3, -2.0), (4, 15, 0.5)):
            rows = [laplace_check(x, 256, uniform_prior(), level, position, t) for x in xs]
            assert laplace_check(xs, 256, uniform_prior(), level, position, t) == np.mean(rows)

    @pytest.mark.parametrize("level, position, bad", [
        (1, -1, "position -1"), (1, 2, "position 2"), (-1, 0, "got -1"), (5, 0, "level 5"),
        (1.5, 0, "level must be an integer"), (True, 0, "level must be an integer"),
        (2, 0.5, "position must be an integer"),
    ])
    def test_bad_coordinate_refused(self, haar, truth, level, position, bad):
        # data observed up to level 4; a negative position used to wrap around,
        # and a float level or position must not be read as an index
        x = simulate_wn(haar.analyze(truth), 256, seed=0)
        assert x.size == 2 ** 5
        with pytest.raises(ValueError, match=bad):
            laplace_check(x, 256, uniform_prior(), level, position, 1.0)
        if level <= 4:  # a level beyond the data is still a wavelet index
            with pytest.raises(ValueError, match=bad):
                WaveletIndex(level, position)
        if type(level) is not int:
            with pytest.raises(ValueError, match=bad):
                haar.localisation_sum(level)

    def test_sign_flip_symmetry(self, haar):
        # averaging over noise-flipped replication pairs gives two estimates
        # of the same expectation; they must agree within MC error
        tree_spec = HolderTruthSpec(alpha=1.0, radius=1.0, seed=21)
        f0 = make_holder_truth(tree_spec, haar)
        c = haar.analyze(f0)
        n, l, k, t = 256, 1, 0, 1.0
        prior = uniform_prior()
        rng = np.random.default_rng(17)
        plus, minus = [], []
        for _ in range(200):
            eps = rng.standard_normal()
            for sign, bucket in ((1.0, plus), (-1.0, minus)):
                x = c[level_slice(l)][k] + sign * eps / np.sqrt(n)
                post = coord_posterior(x, l, prior, n)
                rn = np.sqrt(n)
                bucket.append(
                    post.expectation(lambda th: np.exp(t * rn * (th - x)))
                )
        se = np.std(plus) / np.sqrt(len(plus))
        assert abs(np.mean(plus) - np.mean(minus)) < 4 * se + 1e-9

    def test_bounded_by_subgaussian_envelope(self, haar):
        prior = uniform_prior(L=3)
        worst = 0.0
        for rep in range(50):
            f0 = make_holder_truth(HolderTruthSpec(1.0, 1.0, seed=rep), haar)
            x = simulate_wn(haar.analyze(f0), 256, seed=500 + rep)
            for t in (-2.0, 2.0):
                v = laplace_check(x, 256, prior, 1, 1, t)
                worst = max(worst, v / np.exp(t * t / 2.0))
        assert worst <= 10.0


class TestTruncationBias:
    def test_geometric_tail_formula(self):
        prior = uniform_prior(L=3, alpha=1.0, B=2.0)
        expected = 2.0 * sum(2.0 ** (-l) for l in range(4, 60))
        assert truncation_bias_bound(prior) == pytest.approx(expected, rel=1e-10)
