import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from supnorm.grids import DyadicGrid, GridFunction, GridMismatchError
from supnorm.wavelets import (
    ResolutionError,
    WaveletIndex,
    build_basis,
    daubechies_filter,
    eval_haar,
    level_slice,
)


@pytest.fixture(scope="module")
def haar():
    return build_basis("haar", 4, 10)


@pytest.fixture(scope="module")
def smooth():
    return build_basis("boundary-smooth", 5, 10, order=4)


class TestEvalHaar:
    def test_mother_left_half(self):
        assert eval_haar(WaveletIndex(0, 0), 0.25) == -1.0

    def test_mother_right_half(self):
        assert eval_haar(WaveletIndex(0, 0), 0.75) == 1.0

    def test_level_one(self):
        # 2x - 1 = 0.2 in [0, 1/2], scale 2^{1/2}
        assert eval_haar(WaveletIndex(1, 1), 0.6) == -np.sqrt(2.0)

    def test_zero_outside_support(self):
        assert eval_haar(WaveletIndex(2, 0), 0.9) == 0.0

    def test_boundary_closed_left_only_at_k0(self):
        # x = 0.5 is the right endpoint of I_0^1 and excluded from I_1^1
        assert eval_haar(WaveletIndex(1, 0), 0.5) != 0.0
        assert eval_haar(WaveletIndex(1, 1), 0.5) == 0.0
        assert eval_haar(WaveletIndex(1, 0), 0.0) != 0.0

    def test_supports_tile_unit_interval(self):
        xs = np.linspace(0.0, 1.0, 1001)
        for l in range(4):
            hits = sum(
                (eval_haar(WaveletIndex(l, k), xs) != 0).astype(int)
                for k in range(2 ** l)
            )
            assert np.all(hits == 1)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            WaveletIndex(2, 4)
        with pytest.raises(ValueError):
            WaveletIndex(-1, 0)


class TestDaubechiesFilter:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
    def test_orthonormal_to_even_shifts(self, p):
        h = daubechies_filter(p)
        assert len(h) == 2 * p
        assert h.sum() == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert h @ h == pytest.approx(1.0, abs=1e-12)
        for r in range(1, p):
            assert h[2 * r:] @ h[:-2 * r] == pytest.approx(0.0, abs=1e-12)

    def test_db2_matches_reference(self):
        # (1+sqrt3, 3+sqrt3, 3-sqrt3, 1-sqrt3) / (4 sqrt2), possibly reversed
        s3 = np.sqrt(3.0)
        ref = np.array([1 + s3, 3 + s3, 3 - s3, 1 - s3]) / (4 * np.sqrt(2.0))
        h = daubechies_filter(2)
        assert min(np.abs(h - ref).max(), np.abs(h - ref[::-1]).max()) < 1e-12


class TestBuildBasis:
    def test_haar_dimension(self):
        b = build_basis("haar", 3, 8)
        # one scaling slot plus 2^l wavelets per level l = 0..3
        assert b.dim == 16
        assert b.gram_deviation() < 1e-14

    def test_smooth_gram_within_tolerance(self):
        b = build_basis("boundary-smooth", 3, 10, order=4)
        assert b.gram_deviation() < 1e-6

    def test_resolution_too_coarse(self):
        with pytest.raises(ResolutionError):
            build_basis("haar", 3, 4)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_basis("coiflet", 3, 8)

    def test_scaling_function_is_one(self, smooth):
        assert np.allclose(smooth.scaling_function().values, 1.0, atol=1e-9)

    def test_support_diameter(self, smooth):
        # diameter of {psi_lk != 0} <= C 2^{-l} with C fixed for the kind
        C = 4 * smooth.order
        N = smooth.grid.size
        for l in range(smooth.L_max + 1):
            for k in range(2 ** l):
                v = smooth.function(WaveletIndex(l, k)).values
                nz = np.nonzero(np.abs(v) > 1e-9 * np.abs(v).max())[0]
                diam = (nz[-1] - nz[0] + 1) / N
                assert diam <= C * 2.0 ** (-l) + 1e-12

    def test_vanishing_means(self, smooth):
        # <psi_lk, 1> = 0 for every level here (constants live in each
        # scaling space by construction)
        for l in range(smooth.L_max + 1):
            for k in range(2 ** l):
                assert abs(smooth.function(WaveletIndex(l, k)).quad()) < 1e-6

    def test_haar_vanishing_means_exact(self, haar):
        # cancellation is exact up to summation order (odd multiples of
        # sqrt(2) round in pairwise accumulation)
        for l in range(haar.L_max + 1):
            for k in range(2 ** l):
                assert abs(haar.function(WaveletIndex(l, k)).quad()) < 1e-15


class TestAnalyzeSynthesize:
    def test_analyze_single_wavelet(self, haar):
        f = haar.function(WaveletIndex(2, 1))
        c = haar.analyze(f)
        col = haar.column_of(WaveletIndex(2, 1))
        assert c[col] == pytest.approx(1.0, abs=1e-12)
        assert c[0] == pytest.approx(0.0, abs=1e-12)
        others = np.delete(c[1:], col - 1)
        assert np.abs(others).max() < 1e-12

    def test_analyze_constant(self, haar):
        f = GridFunction(haar.grid, np.ones(haar.grid.size))
        c = haar.analyze(f)
        assert c[0] == pytest.approx(1.0, abs=1e-14)
        assert max(np.abs(c[level_slice(l)]).max() for l in range(haar.L_max + 1)) < 1e-14

    def test_analyze_linearity(self, haar):
        f = 3.0 * haar.function(WaveletIndex(1, 0)) + GridFunction(
            haar.grid, np.ones(haar.grid.size)
        )
        c = haar.analyze(f)
        assert c[haar.column_of(WaveletIndex(1, 0))] == pytest.approx(3.0, abs=1e-12)
        assert c[0] == pytest.approx(1.0, abs=1e-12)

    def test_grid_mismatch(self, haar):
        f = GridFunction(DyadicGrid(8), np.ones(256))
        with pytest.raises(GridMismatchError):
            haar.analyze(f)

    def test_synthesize_zero(self, haar):
        c = np.zeros(level_slice(2).stop)
        assert np.all(haar.synthesize(c).values == 0.0)

    def test_synthesize_constant(self, haar):
        assert np.allclose(haar.synthesize([1.0]).values, 1.0)

    def test_out_of_range_levels(self, haar):
        c = np.zeros(level_slice(5).stop)
        with pytest.raises(IndexError):
            haar.synthesize(c)
        with pytest.raises(IndexError):
            haar.synthesize_flat(c[None, :])

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_round_trip_haar(self, seed):
        basis = build_basis("haar", 4, 10)
        rng = np.random.default_rng(seed)
        flat = rng.normal(size=basis.dim)
        back = basis.analyze(basis.synthesize(flat))
        assert np.abs(back - flat).max() < 1e-8

    def test_round_trip_smooth(self, smooth):
        rng = np.random.default_rng(3)
        flat = rng.normal(size=smooth.dim)
        back = smooth.analyze(smooth.synthesize(flat))
        assert np.abs(back - flat).max() < 1e-6

    @pytest.mark.parametrize("kind", ["haar", "smooth"])
    def test_synthesize_flat_prefix_matches_padded_product(self, kind, request):
        # rows of width 2^(L+1) multiply only the first 2^(L+1) columns; the
        # reference is the full-width product of the zero-padded rows, and
        # the zero tail adds nothing, so the two agree bit for bit
        basis = request.getfixturevalue(kind)
        rng = np.random.default_rng(11)
        for L in range(basis.L_max + 1):
            flat = rng.normal(size=(200, level_slice(L).stop))
            padded = np.zeros((200, basis.dim))
            padded[:, :flat.shape[1]] = flat
            assert np.array_equal(basis.synthesize_flat(flat), padded @ basis.columns.T)

    def test_parseval(self, smooth):
        rng = np.random.default_rng(4)
        flat = rng.normal(size=smooth.dim)
        f = smooth.synthesize(flat)
        assert (f.values ** 2).mean() == pytest.approx((flat ** 2).sum(), abs=1e-8)


class TestProjectLow:
    def test_kills_higher_level(self, haar):
        f = haar.function(WaveletIndex(3, 0))
        out = haar.project_low(f, 2)
        assert np.abs(out.values).max() < 1e-10

    def test_keeps_lower_level(self, haar):
        f = haar.function(WaveletIndex(1, 0))
        out = haar.project_low(f, 2)
        assert np.abs(out.values - f.values).max() < 1e-10

    def test_residual_orthogonal_to_low_levels(self, haar):
        rng = np.random.default_rng(9)
        f = GridFunction(haar.grid, rng.normal(size=haar.grid.size))
        L = 2
        resid = f - haar.project_low(f, L)
        for l in range(L + 1):
            for k in range(2 ** l):
                psi = haar.function(WaveletIndex(l, k))
                assert abs(resid.inner(psi)) < 1e-10

    def test_level_out_of_range(self, haar):
        f = GridFunction(haar.grid, np.ones(haar.grid.size))
        with pytest.raises(IndexError):
            haar.project_low(f, haar.L_max + 1)


class TestLocalisation:
    def test_haar_exact(self):
        basis = build_basis("haar", 8, 10)
        for l in range(9):
            assert basis.localisation_sum(l) / 2.0 ** (l / 2.0) == 1.0

    def test_smooth_bounded_and_stable(self, smooth):
        ratios = [
            smooth.localisation_sum(l) / 2.0 ** (l / 2.0)
            for l in range(2, smooth.L_max + 1)
        ]
        C = 8.0  # fitted once for order 4; see acceptance suite
        assert max(ratios) <= C
        fine = ratios[2:]  # stationary regime for order 4
        assert max(fine) / min(fine) < 1.3
