import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from supnorm.functions import (
    HolderTruthSpec,
    log_mean_exp,
    make_density_truth,
    make_holder_truth,
    normalize_log,
)
from supnorm.density import check_density, posterior_expected_losses, sample_data
from supnorm.wavelets import WaveletIndex, build_basis, level_slice

from oracles import besov_norm, constant, hellinger_rows


@pytest.fixture(scope="module")
def haar():
    return build_basis("haar", 8, 10)


@pytest.fixture(scope="module")
def J():
    return 10


def hellinger(f: np.ndarray, g: np.ndarray) -> float:
    return float(posterior_expected_losses(f[None], g)[2, 0])


class TestBesovNorm:
    def test_single_wavelet_identity(self, haar):
        # |psi_lk|_{inf,inf,alpha} = 2^{l(1/2+alpha)}; bitwise on even levels,
        # within an ulp of float(sqrt 2) squared on odd ones
        alpha = 1.0
        for l in range(9):
            f = haar.function(WaveletIndex(l, min(1, 2 ** l - 1)))
            got = besov_norm(f, alpha, haar)
            want = 2.0 ** (l * (0.5 + alpha))
            if l % 2 == 0:
                assert got == want
            else:
                assert got == pytest.approx(want, rel=1e-15)

    def test_constant_has_zero_wavelet_norm(self, haar):
        # pure summation dust, amplified by the 2^{l(1/2+s)} level weights
        f = constant(haar.resolution)
        assert besov_norm(f, 1.0, haar) < 1e-12

    def test_level_two_half_smoothness(self, haar):
        f = haar.function(WaveletIndex(2, 1))
        assert besov_norm(f, 0.5, haar) == 4.0

    @settings(max_examples=20, deadline=None)
    @given(st.floats(-50, 50).filter(lambda c: abs(c) > 1e-8))
    def test_absolute_homogeneity(self, c):
        basis = build_basis("haar", 4, 8)
        rng = np.random.default_rng(0)
        f = rng.normal(size=2 ** basis.resolution)
        assert besov_norm(c * f, 0.7, basis) == pytest.approx(
            abs(c) * besov_norm(f, 0.7, basis), rel=1e-12
        )

    def test_rejects_nonpositive_smoothness(self, haar):
        with pytest.raises(ValueError):
            besov_norm(constant(haar.resolution), 0.0, haar)


def distances(f, g):
    """(sup, L2) distance of f to g, by the one reduction the losses use."""
    (sup,), (l2,) = posterior_expected_losses(f[None], g, densities=False)
    return sup, l2


class TestDistances:
    def test_zero_on_equal(self, J):
        f = np.linspace(0, 1, 2 ** J)
        assert distances(f, f) == (0.0, 0.0)

    def test_constants(self, J):
        one, zero = constant(J, 1.0), constant(J, 0.0)
        assert distances(one, zero) == (1.0, 1.0)

    def test_haar_normalization(self, haar):
        f = haar.function(WaveletIndex(1, 0))
        sup, l2 = distances(f, constant(haar.resolution, 0.0))
        assert sup == pytest.approx(np.sqrt(2.0))
        assert l2 == pytest.approx(1.0, abs=1e-12)


class TestHellinger:
    def test_zero_on_equal(self, J):
        f = constant(J)
        assert hellinger(f, f) == 0.0

    def test_disjoint_supports(self, J):
        half = 2 ** J // 2
        f = np.r_[np.full(half, 2.0), np.zeros(half)]
        g = np.r_[np.zeros(half), np.full(half, 2.0)]
        assert hellinger(f, g) == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_two_formula_agreement(self, J):
        rng = np.random.default_rng(5)
        f = np.exp(rng.normal(size=2 ** J))
        g = np.exp(rng.normal(size=2 ** J))
        f /= f.mean()
        g /= g.mean()
        h2_direct = hellinger(f, g) ** 2
        h2_cross = 2.0 - 2.0 * np.sqrt(f * g).mean()
        assert h2_direct == pytest.approx(h2_cross, abs=1e-12)

    def test_triangle_inequality(self, J):
        rng = np.random.default_rng(6)
        fs = []
        for _ in range(3):
            v = np.exp(rng.normal(size=2 ** J))
            fs.append(v / v.mean())
        f, g, k = fs
        assert hellinger(f, g) <= hellinger(f, k) + hellinger(k, g) + 1e-10

    def test_negativity_error(self, J):
        bad = np.full(2 ** J, -1e-6)
        with pytest.raises(ValueError, match="density values below -1e-12"):
            hellinger(bad, constant(J))

    def test_negative_dust_clamped(self, J):
        dusty = np.full(2 ** J, -1e-13)
        assert np.isfinite(hellinger(dusty, constant(J)))


class TestRowwiseReductions:
    """The row-wise forms used on (draws, N) arrays equal the 1-D forms."""

    def test_log_mean_exp_rows_bitwise(self):
        rng = np.random.default_rng(3)
        T = rng.normal(scale=5.0, size=(50, 1024))
        rows = log_mean_exp(T)
        assert rows.shape == (50,)
        assert all(rows[i] == log_mean_exp(T[i]) for i in range(50))

    def test_log_mean_exp_matches_direct_formula(self):
        t = np.random.default_rng(4).normal(size=1024)
        assert log_mean_exp(t) == pytest.approx(np.log(np.exp(t).mean()), rel=1e-12)

    def test_hellinger_rows_bitwise(self, J):
        rng = np.random.default_rng(5)
        V = np.exp(rng.normal(size=(20, 2 ** J)))
        g = constant(J)
        rows = posterior_expected_losses(V, g)[2]
        np.testing.assert_array_equal(rows, hellinger_rows(V, g))
        assert all(rows[i] == hellinger(V[i], g) for i in range(20))

    def test_hellinger_rows_negativity(self, J):
        V = np.ones((3, 2 ** J))
        V[1, 7] = -1e-6
        with pytest.raises(ValueError, match="density values below -1e-12"):
            posterior_expected_losses(V, constant(J))


def _with(value, J=6):
    """The uniform density on the 2^J grid, with `value` in cell 3."""
    f = np.ones(2 ** J)
    f[3] = value
    return f


# each reader of grid values refuses a shape or value it cannot read, with
# its own message: (reader, message for a bad shape, message for a NaN or inf)
READERS = {
    "analyze": (lambda basis, f: basis.analyze(f),
                "do not match the basis grid J=6", "grid values must be finite"),
    "check_density": (lambda basis, f: check_density(f),
                      "1-D array of 2\\^J grid values", "nonnegative with unit integral"),
    "sample_data": (lambda basis, f: sample_data(f, 10, seed=0),
                    "1-D array of 2\\^J grid values", "nonnegative with unit integral"),
    # one-value rows divide every grid, so the refusal is f0's own; an inf
    # in f0 makes inf - inf in its block moments, and no warning of it is shown
    "posterior_expected_losses": (lambda basis, f: posterior_expected_losses(np.ones((2, 1)), f),
                                  "1-D array of 2\\^J grid values", "non-finite losses"),
}
BAD_VALUES = {
    "2-D": (np.ones((8, 8)), True),  # as many values as the 2^6 grid
    "length-0": (np.ones(0), True),
    "length-1": (np.ones(1), True),
    "length-6": (np.ones(6), True),
    "length-2^J-1": (np.ones(2 ** 6 - 1), True),
    "length-2^J+1": (np.ones(2 ** 6 + 1), True),
    "nan": (_with(np.nan), False),
    "inf": (_with(np.inf), False),
}


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("values, bad_shape", BAD_VALUES.values(), ids=BAD_VALUES)
def test_grid_values_refused_by_their_reader(reader, values, bad_shape):
    # the refusal is the only signal: a numpy warning before it fails the test
    read, shape_message, value_message = READERS[reader]
    basis = build_basis("haar", 3, 6)
    with warnings.catch_warnings(), pytest.raises(ValueError, match=shape_message if bad_shape else value_message):
        warnings.simplefilter("error")
        read(basis, values)


class TestHolderTruth:
    def test_besov_norm_saturates_radius(self, haar):
        spec = HolderTruthSpec(alpha=1.0, radius=1.0, seed=3)
        f0 = make_holder_truth(spec, haar)
        assert besov_norm(f0, 1.0, haar) == pytest.approx(1.0, rel=1e-12)

    def test_coefficient_magnitudes(self, haar):
        spec = HolderTruthSpec(alpha=1.0, radius=1.0, seed=3)
        f0 = make_holder_truth(spec, haar)
        c = haar.analyze(f0)
        assert c[0] == pytest.approx(0.0, abs=1e-12)
        for l in range(haar.L_max + 1):
            assert np.abs(c[level_slice(l)]) == pytest.approx(
                np.full(2 ** l, 2.0 ** (-1.5 * l)), rel=1e-10
            )

    def test_sup_norm_bounded_by_localisation_series(self, haar):
        spec = HolderTruthSpec(alpha=0.75, radius=2.0, seed=11)
        f0 = make_holder_truth(spec, haar)
        bound = sum(
            2.0 * 2.0 ** (-l * (0.5 + 0.75)) * haar.localisation_sum(l)
            for l in range(haar.L_max + 1)
        )
        assert np.abs(f0).max() <= bound + 1e-12

    def test_seed_determinism_and_variation(self, haar):
        a = make_holder_truth(HolderTruthSpec(1.0, 1.0, seed=1), haar)
        b = make_holder_truth(HolderTruthSpec(1.0, 1.0, seed=1), haar)
        c = make_holder_truth(HolderTruthSpec(1.0, 1.0, seed=2), haar)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("kind", ["signed-coefficient", "fixed-analytic"])
    def test_overflowing_values_refused_without_a_warning(self, haar, kind):
        # the coefficients are floats, but their sums on the grid pass the float maximum
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^truth values must be finite$"):
                make_holder_truth(HolderTruthSpec(1.0, 1e308, seed=3, kind=kind), haar)

    def test_fixed_analytic_is_deterministic(self, haar):
        a = make_holder_truth(HolderTruthSpec(1.0, 1.0, seed=1, kind="fixed-analytic"), haar)
        b = make_holder_truth(HolderTruthSpec(1.0, 1.0, seed=99, kind="fixed-analytic"), haar)
        assert np.array_equal(a, b)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            HolderTruthSpec(alpha=0.0)
        with pytest.raises(ValueError):
            HolderTruthSpec(alpha=1.0, radius=-1.0)
        with pytest.raises(ValueError):
            HolderTruthSpec(alpha=1.0, kind="mystery")


class TestDensityTruth:
    def test_zero_log_gives_uniform(self, J):
        f0 = normalize_log(constant(J, 0.0))
        assert np.allclose(f0, 1.0, atol=1e-14)

    def test_unit_mass(self, haar):
        spec = HolderTruthSpec(alpha=1.0, radius=1.0, seed=4)
        f0 = make_density_truth(spec, haar)
        assert f0.mean() == pytest.approx(1.0, abs=1e-8)
        assert f0.min() > 0.0

    def test_log_besov_preserved_up_to_constant(self, haar):
        # the normalizing constant only shifts the scaling coefficient
        spec = HolderTruthSpec(alpha=1.0, radius=1.0, seed=4)
        g0 = make_holder_truth(spec, haar)
        f0 = make_density_truth(spec, haar)
        logf0 = np.log(f0)
        assert besov_norm(logf0, 1.0, haar) == pytest.approx(
            besov_norm(g0, 1.0, haar), rel=1e-9
        )
