import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from supnorm import wavelets
from supnorm.wavelets import (
    WaveletIndex,
    _boundary_smooth_columns,
    _mirror_filter,
    build_basis,
    daubechies_filter,
    level_slice,
)

from oracles import eval_haar, grid_columns, haar_columns

ROOT = Path(__file__).resolve().parents[1]


# --- reference builds -------------------------------------------------------
# The library fills its bases without scipy; these are the column-by-column
# Haar evaluation (`oracles.eval_haar`) and the scipy.sparse filter bank it
# is checked against.  The filter bank has its own edge candidates, QR sign
# fix and pivoted completion, written from their definitions, so a fault in
# the library's is not copied.

def _ref_qr_columns(A: np.ndarray) -> np.ndarray:
    """Orthonormal columns for A: the QR factor of A with unit-norm columns,
    each column signed so that the diagonal of R is >= 0."""
    Q, R = np.linalg.qr(A / np.linalg.norm(A, axis=0))
    return np.where(np.diag(R) < 0, -Q, Q)


def _ref_complement(C: np.ndarray, A: np.ndarray, count: int) -> np.ndarray:
    """`count` orthonormal columns from span(C) less its projection on the
    orthonormal columns A (projected out twice), picked greedily: the longest
    remaining column first (the first one on ties), scaled to unit length and
    signed so that its largest entry in magnitude is positive, then projected
    out of the rest."""
    C = C - A @ (A.T @ C)
    C = C - A @ (A.T @ C)
    picked = []
    for _ in range(count):
        norms = np.linalg.norm(C, axis=0)
        j = int(np.argmax(norms))
        v = C[:, j] / norms[j]
        v = v * np.sign(v[np.argmax(np.abs(v))])
        picked.append(v)
        C = np.delete(C, j, axis=1)
        C = C - np.outer(v, v @ C)
    return np.column_stack(picked)


def _ref_edge_candidates(h: np.ndarray, g: np.ndarray, n2: int, width: int, side: str):
    """(n2, count) candidate columns of one boundary: for each shift
    s = 2 - F .. F - 1, the filters g then h on rows s .. s + F - 1, clipped
    to rows 0 .. n2 - 1; then the unit vectors of rows 0 .. width - 1.  The
    right boundary's columns are the left's with their rows reversed."""
    F = len(h)
    cols = []
    for s in range(2 - F, F):
        lo, hi = max(s, 0), min(s + F, n2)
        for f in (g, h):
            v = np.zeros(n2)
            v[lo:hi] = f[lo - s:hi - s]
            cols.append(v)
    C = np.column_stack(cols + list(np.eye(n2)[:width]))
    return C if side == "left" else np.ascontiguousarray(C[::-1])


def _sparse_level(h: np.ndarray, p: int, j: int, UL: np.ndarray, UR: np.ndarray):
    """One level of the filter bank as scipy CSC matrices M and Q."""
    n = 2 ** j
    n2 = 2 * n
    F = 2 * p
    g = _mirror_filter(h)
    o = p + 1  # row offset of the first interior column
    nint = n - 2 * p

    if n >= 4 * p:
        W = 4 * p
        # left edge scaling block: local residuals of x^r against interior columns
        RL = UL[:W, :].copy()
        for i in range(nint):
            lo = o + 2 * i
            if lo >= W:
                break
            coef = h @ UL[lo:lo + F, :]
            hi = min(lo + F, W)
            RL[lo:hi, :] -= np.outer(h[: hi - lo], coef)
        RR = UR[n2 - W:, :].copy()
        for i in range(nint - 1, -1, -1):
            lo = o + 2 * i
            if lo + F <= n2 - W:
                break
            coef = h @ UR[lo:lo + F, :]
            start = max(lo, n2 - W)
            RR[start - (n2 - W):start - (n2 - W) + (lo + F - start), :] -= np.outer(
                h[start - lo:], coef
            )
        inner_l = np.abs(RL[-2:, :]).max()
        inner_r = np.abs(RR[:2, :]).max()
        scale = max(np.linalg.norm(RL, axis=0).max(), np.linalg.norm(RR, axis=0).max())
        if max(inner_l, inner_r) > 1e-9 * max(scale, 1e-300):
            raise RuntimeError("edge residuals leak out of their window")
        left_blk = _ref_qr_columns(RL)    # W x p
        right_blk = _ref_qr_columns(RR)   # W x p

        def interior_cols_dense(rows, filt):
            """Interior columns restricted to a contiguous row range."""
            out = []
            lo0, hi0 = rows.start, rows.stop
            for i in range(nint):
                lo = o + 2 * i
                if lo + F <= lo0 or lo >= hi0:
                    continue
                col = np.zeros(hi0 - lo0)
                a, b = max(lo, lo0), min(lo + F, hi0)
                col[a - lo0:b - lo0] = filt[a - lo:b - lo]
                out.append(col)
            return out

        if n >= 8 * p:
            # disjoint local windows at each boundary
            win = 10 * p
            CL = _ref_edge_candidates(h, g, n2, W, "left")[:win]
            AL = np.column_stack(
                [np.pad(left_blk, ((0, win - W), (0, 0)))]
                + interior_cols_dense(range(0, win), h)
                + interior_cols_dense(range(0, win), g)
            )
            wleft_loc = _ref_complement(CL, AL, p)
            wleft = np.zeros((n2, p))
            wleft[:win] = wleft_loc

            CR = _ref_edge_candidates(h, g, n2, W, "right")[n2 - win:]
            AR = np.column_stack(
                [np.pad(right_blk, ((win - W, 0), (0, 0)))]
                + [c for c in interior_cols_dense(range(n2 - win, n2), h)]
                + [c for c in interior_cols_dense(range(n2 - win, n2), g)]
            )
            wright_loc = _ref_complement(CR, AR, p)
            wright = np.zeros((n2, p))
            wright[n2 - win:] = wright_loc
        else:
            # n == 4p (or close): windows would overlap; complete densely
            C = np.concatenate(
                [_ref_edge_candidates(h, g, n2, W, side) for side in ("left", "right")], axis=1
            )
            Mdense = np.zeros((n2, n))
            Mdense[:W, :p] = left_blk
            for i in range(nint):
                lo = o + 2 * i
                Mdense[lo:lo + F, p + i] = h
            Mdense[n2 - W:, p + nint:] = right_blk
            Wint = np.zeros((n2, nint))
            for i in range(nint):
                lo = o + 2 * i
                Wint[lo:lo + F, i] = g
            both = _ref_complement(C, np.concatenate([Mdense, Wint], axis=1), 2 * p)
            # order the completed vectors by support midpoint for determinism
            centers = [
                float(np.average(np.arange(n2), weights=both[:, i] ** 2))
                for i in range(2 * p)
            ]
            order = np.argsort(centers, kind="stable")
            wleft = both[:, order[:p]]
            wright = both[:, order[p:]]

        # assemble sparse M and Q
        rows_m, cols_m, vals_m = [], [], []
        for r in range(p):
            rows_m.extend(range(W))
            cols_m.extend([r] * W)
            vals_m.extend(left_blk[:, r])
        for i in range(nint):
            lo = o + 2 * i
            rows_m.extend(range(lo, lo + F))
            cols_m.extend([p + i] * F)
            vals_m.extend(h)
        for r in range(p):
            rows_m.extend(range(n2 - W, n2))
            cols_m.extend([p + nint + r] * W)
            vals_m.extend(right_blk[:, r])
        M = sp.csc_matrix((vals_m, (rows_m, cols_m)), shape=(n2, n))

        rows_q, cols_q, vals_q = [], [], []
        for r in range(p):
            nz = np.nonzero(wleft[:, r])[0]
            rows_q.extend(nz)
            cols_q.extend([r] * len(nz))
            vals_q.extend(wleft[nz, r])
        for i in range(nint):
            lo = o + 2 * i
            rows_q.extend(range(lo, lo + F))
            cols_q.extend([p + i] * F)
            vals_q.extend(g)
        for r in range(p):
            nz = np.nonzero(wright[:, r])[0]
            rows_q.extend(nz)
            cols_q.extend([p + nint + r] * len(nz))
            vals_q.extend(wright[nz, r])
        Q = sp.csc_matrix((vals_q, (rows_q, cols_q)), shape=(n2, n))
    else:
        # coarse level: polynomial columns first; complete from clipped filter
        # patterns (for shape) with unit vectors as a rank safety net
        nm = min(p, n)
        first = _ref_qr_columns(UL[:, :nm])

        def clipped(filt):
            cols = []
            for s in range(-F + 2, n2):
                rr = np.arange(s, s + F)
                m = (rr >= 0) & (rr < n2)
                if m.any():
                    v = np.zeros(n2)
                    v[rr[m]] = filt[m]
                    cols.append(v)
            return cols

        eye = np.eye(n2)
        scands = np.column_stack(clipped(h) + [eye[:, i] for i in range(n2)])
        rest = (
            _ref_complement(scands, first, n - nm) if n > nm else np.empty((n2, 0))
        )
        Md = np.concatenate([first, rest], axis=1)
        wcands = np.column_stack(clipped(g) + clipped(h) + [eye[:, i] for i in range(n2)])
        Qd = _ref_complement(wcands, Md, n)
        M = sp.csc_matrix(Md)
        Q = sp.csc_matrix(Qd)

    UL2 = M.T @ UL
    UR2 = M.T @ UR
    res = max(
        np.linalg.norm(UL - M @ UL2, axis=0)[: min(p, n)].max(),
        np.linalg.norm(UR - M @ UR2, axis=0)[: min(p, n)].max(),
    )
    if 2 ** j >= p and res > 1e-8:
        raise RuntimeError(f"polynomial reproduction lost at level {j} ({res:.2e})")
    return M, Q, UL2, UR2


def _sparse_boundary_smooth_columns(p: int, L_max: int, J: int) -> np.ndarray:
    """Basis columns from the CSC matrices, multiplied down with scipy."""
    h = daubechies_filter(p)
    N = 2 ** J
    x = (np.arange(N) + 0.5) / N
    UL = np.column_stack([x ** r for r in range(p)]) / np.sqrt(N)
    UR = np.column_stack([(1.0 - x) ** r for r in range(p)]) / np.sqrt(N)
    Ms, Qs = {}, {}
    for j in range(J - 1, -1, -1):
        M, Q, UL, UR = _sparse_level(h, p, j, UL, UR)
        Ms[j], Qs[j] = M, Q
    cols = []
    S = Ms[0]
    for j in range(1, J):
        S = Ms[j] @ S
    cols.append(np.asarray(S.todense()).ravel())
    for l in range(L_max + 1):
        C = Qs[l].toarray()
        for j in range(l + 1, J):
            C = Ms[j] @ C
        cols.append(np.asarray(C))
    B = np.column_stack([cols[0]] + [cols[1 + l] for l in range(L_max + 1)])
    return B * np.sqrt(N)




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


class TestReferenceBuilds:
    @pytest.mark.parametrize(
        "p, L_max, J",
        [(4, 5, 12), (4, 8, 12), (5, 4, 10), (3, 3, 8), (2, 4, 8), (4, 1, 5), (2, 0, 2),
         (6, 6, 12), (4, 10, 12)],
    )
    def test_boundary_smooth_matches_sparse_build(self, p, L_max, J):
        # windowed levels (n >= 8p), the n == 4p dense completion and the
        # coarse levels; p = 6 completes densely at n = 32 and windows from
        # n = 64 (n >= 8p = 48), and L_max = J - 2 makes every level's
        # wavelet block a basis column.  The wavelet blocks add in the CSC
        # order bit for bit, while the scaling column of the sparse build
        # comes from a sparse x sparse chain that adds in its own storage order
        ref = _sparse_boundary_smooth_columns(p, L_max, J)
        cols = _boundary_smooth_columns(p, L_max, J)
        assert cols.shape == ref.shape
        assert np.array_equal(cols[:, 1:], ref[:, 1:])
        assert np.abs(cols[:, 0] - ref[:, 0]).max() <= 1e-14

    @pytest.mark.parametrize("L_max, J", [(4, 10), (8, 10), (0, 2), (8, 12)])
    def test_haar_fill_matches_eval_haar(self, L_max, J):
        # the full-grid view of the rows `columns` builds, bit for bit
        assert np.array_equal(grid_columns(build_basis("haar", L_max, J)), haar_columns(L_max, J))

    def test_runtime_loads_no_scipy(self):
        # numpy.random, too, loads on first use only (whitenoise._state_row_type)
        code = (
            "import sys, supnorm\n"
            "assert 'numpy.random' not in sys.modules\n"
            "supnorm.build_basis('boundary-smooth', 3, 8)\n"
            "supnorm.build_basis('haar', 3, 8)\n"
            "assert 'scipy' not in sys.modules\n"
        )
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


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
        with pytest.raises(ValueError, match=re.escape(
                "grid resolution J=4 too coarse for L_max=3 (need J >= L_max + 2)")):
            build_basis("haar", 3, 4)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_basis("coiflet", 3, 8)

    @pytest.mark.parametrize("args, message", [
        ((2.5, 8), "L_max must be an integer (got 2.5)"),
        ((2, 8.0), "J must be an integer (got 8.0)"),
        ((True, 8), "L_max must be an integer (got True)"),
        ((2, 8, 4.0), "order must be an integer (got 4.0)"),
        ((-1, 8), "L_max must be >= 0 (got -1)"),
    ])
    def test_non_integer_arguments_refused(self, args, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            build_basis("haar", *args)

    @pytest.mark.parametrize("kind, L_max, J", [
        ("haar", 0, 2), ("haar", 4, 10), ("haar", 8, 12),
        ("boundary-smooth", 5, 12), ("boundary-smooth", 8, 12),
    ])
    def test_panelled_gram_matches_the_dense_check(self, kind, L_max, J):
        # dims 2, 32, 512, 64 and 512: below, at and above the panel width
        basis = build_basis(kind, L_max, J)
        B = basis.columns(basis.dim)
        dense = np.abs(B.T @ B / len(B) - np.eye(basis.dim)).max()
        assert abs(basis.gram_deviation() - dense) <= 1e-15

    def test_haar_build_peak_memory(self):
        # a Haar build validates its arguments and allocates no array; the
        # dense (16384 x 16384) block matrix at L_max = 13 would be 2 GiB
        tracemalloc.start()
        try:
            build_basis("haar", 13, 17)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 10

    def test_haar_function_builds_no_prefix_matrix(self):
        # the last wavelet at L_max = 13 is its (2^17,) grid values, 1 MiB,
        # plus the one-row cascade; its (16384 x 16384) column prefix would be 2 GiB
        basis = build_basis("haar", 13, 17)
        tracemalloc.start()
        try:
            f = basis.function(WaveletIndex(13, 2 ** 13 - 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20
        amp = 2.0 ** 6.5
        assert (f[:-16] == 0.0).all() and (f[-16:-8] == -amp).all() and (f[-8:] == amp).all()

    def test_haar_holds_no_array(self):
        basis = build_basis("haar", 13, 17)
        assert basis.blocks is None
        assert not [k for k, v in vars(basis).items() if isinstance(v, np.ndarray)]

    def test_build_never_computes_a_gram_matrix(self, monkeypatch):
        def refuse(self):
            raise AssertionError("gram_deviation called")

        monkeypatch.setattr(wavelets.WaveletBasis, "gram_deviation", refuse)
        assert build_basis("haar", 10, 14).dim == 2 ** 11

    def test_scaling_function_is_one(self, smooth):
        assert np.allclose(grid_columns(smooth)[:, 0], 1.0, atol=1e-9)

    def test_support_diameter(self, smooth):
        # diameter of {psi_lk != 0} <= C 2^{-l} with C fixed for the kind
        C = 4 * smooth.order
        N = 2 ** smooth.resolution
        for l in range(smooth.L_max + 1):
            for k in range(2 ** l):
                v = smooth.function(WaveletIndex(l, k))
                nz = np.nonzero(np.abs(v) > 1e-9 * np.abs(v).max())[0]
                diam = (nz[-1] - nz[0] + 1) / N
                assert diam <= C * 2.0 ** (-l) + 1e-12

    def test_vanishing_means(self, smooth):
        # <psi_lk, 1> = 0 for every level here (constants live in each
        # scaling space by construction)
        for l in range(smooth.L_max + 1):
            for k in range(2 ** l):
                assert abs(smooth.function(WaveletIndex(l, k)).mean()) < 1e-6

    def test_haar_vanishing_means_exact(self, haar):
        # cancellation is exact up to summation order (odd multiples of
        # sqrt(2) round in pairwise accumulation)
        for l in range(haar.L_max + 1):
            for k in range(2 ** l):
                assert abs(haar.function(WaveletIndex(l, k)).mean()) < 1e-15


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
        f = np.ones(2 ** haar.resolution)
        c = haar.analyze(f)
        assert c[0] == pytest.approx(1.0, abs=1e-14)
        assert max(np.abs(c[level_slice(l)]).max() for l in range(haar.L_max + 1)) < 1e-14

    def test_analyze_linearity(self, haar):
        f = 3.0 * haar.function(WaveletIndex(1, 0)) + 1.0
        c = haar.analyze(f)
        assert c[haar.column_of(WaveletIndex(1, 0))] == pytest.approx(3.0, abs=1e-12)
        assert c[0] == pytest.approx(1.0, abs=1e-12)

    def test_grid_mismatch(self, haar):
        f = np.ones(256)
        with pytest.raises(ValueError, match=re.escape(
                f"grid values of shape (256,) do not match the basis grid J={haar.resolution}")):
            haar.analyze(f)

    @staticmethod
    def check_synthesize_zero(basis, empty_row_size):
        # a zero vector, and the empty prefix
        for c in (np.zeros(level_slice(2).stop), []):
            assert np.array_equal(basis.synthesize(c), np.zeros(2 ** basis.resolution))
        assert np.array_equal(basis.synthesize_flat(np.zeros((3, 0))), np.zeros((3, empty_row_size)))

    def test_synthesize_zero(self, haar):
        self.check_synthesize_zero(haar, 1)

    def test_synthesize_zero_smooth(self, smooth):
        self.check_synthesize_zero(smooth, 2 ** smooth.resolution)

    def test_synthesize_constant(self, haar):
        assert np.allclose(haar.synthesize([1.0]), 1.0)

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
        # rows of width w multiply only the first w columns; the reference is
        # the full-width product of the zero-padded rows, and the zero tail
        # adds nothing, so smooth rows agree with it bit for bit.  A Haar
        # prefix is a step function on K = 2^ceil(log2 w) dyadic blocks and
        # comes back as its K block values, summed in a fixed order that the
        # BLAS product need not follow, so Haar rows agree to rounding:
        # within 1e-14 of the largest grid value (a block value near 0 is a
        # cancellation, so its own relative error can be larger)
        basis = request.getfixturevalue(kind)
        N = 2 ** basis.resolution
        rng = np.random.default_rng(11)
        widths = [level_slice(L).stop for L in range(basis.L_max + 1)] + [1, 3, 5]
        for width in widths:
            flat = rng.normal(size=(200, width))
            padded = np.zeros((200, basis.dim))
            padded[:, :width] = flat
            rows = basis.synthesize_flat(flat)
            K = 1 << (width - 1).bit_length() if kind == "haar" else N
            assert rows.shape == (200, K)
            grid_rows = np.repeat(rows, N // K, axis=1)
            ref = padded @ grid_columns(basis).T
            if kind == "haar":
                assert np.abs(grid_rows - ref).max() <= 1e-14 * np.abs(ref).max()
            else:
                assert np.array_equal(grid_rows, ref)

    def test_haar_rows_sum_in_fixed_order(self, haar):
        # each block value is the scaling coefficient plus, level by level in
        # ascending order, the one wavelet alive on that block; its bits do
        # not depend on how many rows are synthesized with it
        rng = np.random.default_rng(12)
        for width in (level_slice(4).stop, 3, 5, 24):
            flat = rng.normal(size=(200, width))
            K = 1 << (width - 1).bit_length()
            expected = np.empty((200, K))
            for r in range(200):
                for b in range(K):
                    v = flat[r, 0]
                    for l in range(K.bit_length() - 1):
                        per = K >> l  # blocks under one level-l support
                        k = level_slice(l).start + b // per
                        if k < width:
                            amp = 2.0 ** (l / 2.0)
                            v = v + flat[r, k] * (-amp if b % per < per // 2 else amp)
                    expected[r, b] = v
            for m in list(range(1, 41)) + [200]:
                assert np.array_equal(haar.synthesize_flat(flat[:m]), expected[:m])

    def test_haar_analysis_sums_in_fixed_order(self, haar):
        # the block sums, then level by level from the finest: the right
        # sum less the left, times 2^(l/2) / N, and the pair's sum passed up
        f = np.random.default_rng(13).normal(size=2 ** haar.resolution)
        N = f.size
        sums = list(f.reshape(haar.dim, -1).sum(axis=1))
        expected = [0.0] * haar.dim
        for l in range(haar.L_max, -1, -1):
            for k in range(2 ** l):
                expected[2 ** l + k] = (sums[2 * k + 1] - sums[2 * k]) * (2.0 ** (l / 2.0) / N)
            sums = [sums[2 * k] + sums[2 * k + 1] for k in range(2 ** l)]
        expected[0] = sums[0] / N
        assert np.array_equal(haar.analyze(f), expected)

    @pytest.mark.parametrize("kind", ["haar", "smooth"])
    def test_synthesize_flat_refuses_one_row_vector(self, kind, request):
        basis = request.getfixturevalue(kind)
        with pytest.raises(ValueError, match=re.escape("got shape (5,)")):
            basis.synthesize_flat(np.zeros(5))

    def test_parseval(self, smooth):
        rng = np.random.default_rng(4)
        flat = rng.normal(size=smooth.dim)
        f = smooth.synthesize(flat)
        assert (f ** 2).mean() == pytest.approx((flat ** 2).sum(), abs=1e-8)


def project_low(basis, f, L):
    """Projection of f onto levels 0..L: synthesis of an analysed prefix."""
    if not 0 <= L <= basis.L_max:
        raise IndexError(f"projection level {L} out of range 0..{basis.L_max}")
    return basis.synthesize(basis.analyze(f)[: level_slice(L).stop])


class TestProjectLow:
    def test_kills_higher_level(self, haar):
        f = haar.function(WaveletIndex(3, 0))
        out = project_low(haar, f, 2)
        assert np.abs(out).max() < 1e-10

    def test_keeps_lower_level(self, haar):
        f = haar.function(WaveletIndex(1, 0))
        out = project_low(haar, f, 2)
        assert np.abs(out - f).max() < 1e-10

    def test_residual_orthogonal_to_low_levels(self, haar):
        rng = np.random.default_rng(9)
        f = rng.normal(size=2 ** haar.resolution)
        L = 2
        resid = f - project_low(haar, f, L)
        for l in range(L + 1):
            for k in range(2 ** l):
                psi = haar.function(WaveletIndex(l, k))
                assert abs((resid * psi).mean()) < 1e-10

    def test_level_out_of_range(self, haar):
        f = np.ones(2 ** haar.resolution)
        with pytest.raises(IndexError):
            project_low(haar, f, haar.L_max + 1)


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


class TestHaarDefinition:
    """A Haar basis's stored rows are the Haar system's definition: column 0
    all ones and, at each level l, wavelet k equal to -2^(l/2) on the first
    half of its b = dim / 2^l support rows, +2^(l/2) on the second half,
    and zero elsewhere."""

    @pytest.mark.parametrize("L_max", range(11))
    def test_columns_are_the_haar_system(self, L_max):
        basis = build_basis("haar", L_max, L_max + 2)
        dim = basis.dim
        B = basis.columns(dim)
        assert B.shape == (dim, dim)
        assert (B[:, 0] == 1.0).all()
        for l in range(L_max + 1):
            amp, b = 2.0 ** (l / 2.0), dim >> l
            V = B[:, level_slice(l)]
            # D[i, k]: row i of the support of wavelet k; the supports hold
            # dim entries, so dim non-zeros leave none off them
            D = np.diagonal(V.reshape(2 ** l, b, 2 ** l), axis1=0, axis2=2)
            assert (D[:b // 2] == -amp).all() and (D[b // 2:] == amp).all()
            assert np.count_nonzero(V) == dim

    @pytest.mark.parametrize("L_max", [0, 3, 8])
    def test_blocks_equal_the_definition_bit_for_bit(self, L_max):
        basis = build_basis("haar", L_max, L_max + 2)
        ref = haar_columns(L_max, L_max + 1)  # eval_haar at the block midpoints
        assert np.array_equal(basis.columns(basis.dim), ref)
        # orthonormal within an ulp of 2^(l/2) squared
        assert basis.gram_deviation() <= 2.0 ** -52 * 2 ** L_max


@pytest.mark.parametrize("L_max, J", [(0, 2), (4, 10), (8, 10), (8, 12)])
class TestHaarBlocksMatchFullGrid:
    """A Haar basis stores no array; every method must agree with the dense
    full-grid oracle (`oracles.haar_columns`, `eval_haar` at the grid
    midpoints), whose rows under each of the 2^(L_max+1) dyadic blocks are
    the stored rows that `columns` builds."""

    def test_block_rows(self, L_max, J):
        # `columns` is bit for bit the oracle's block rows, for every prefix width and
        # for a prefix that ends inside a level
        basis = build_basis("haar", L_max, J)
        side = 2 ** (L_max + 1)
        assert basis.block_size == 2 ** J // side
        rows = haar_columns(L_max, J)[::basis.block_size]
        for w in sorted({0, 1, min(3, side), side // 2 + 1, side - 1, side}):
            cols = basis.columns(w)
            assert cols.shape == (side, w)
            assert np.array_equal(cols, rows[:, :w])
        with pytest.raises(IndexError, match=re.escape(
                f"{side + 1} coefficients exceed the basis dimension {side} (L_max={L_max})")):
            basis.columns(side + 1)

    def test_analyze_and_synthesize(self, L_max, J):
        # rounding only: each coefficient or value is within 1e-13 of the
        # sum of the absolute values of its terms in the dense product
        basis = build_basis("haar", L_max, J)
        B = haar_columns(L_max, J)
        N = 2 ** J
        rng = np.random.default_rng(L_max + J)
        f = rng.normal(size=N)
        ref = B.T @ f / N
        bound = np.abs(B).T @ np.abs(f) / N
        assert np.all(np.abs(basis.analyze(f) - ref) <= 1e-13 * bound)
        for w in sorted({1, min(3, basis.dim), basis.dim // 2 + 1, basis.dim}):
            c = rng.normal(size=w)
            ref = B[:, :w] @ c
            bound = np.abs(B[:, :w]) @ np.abs(c)
            got = basis.synthesize(c)
            assert np.all(np.abs(got - ref) <= 1e-13 * bound)
            # the grid values are the one-row cascade, repeated over the grid
            row = basis.synthesize_flat(c[None])[0]
            assert np.array_equal(got, np.repeat(row, N // row.size))

    def test_gram_localisation_and_functions(self, L_max, J):
        # the values the dense block matrix gave, bit for bit
        basis = build_basis("haar", L_max, J)
        B = haar_columns(L_max, J)
        N = 2 ** J
        full_gram = np.abs(B.T @ B / N - np.eye(basis.dim)).max()
        assert abs(basis.gram_deviation() - full_gram) <= 1e-15
        # orthonormal within an ulp of 2^(l/2) squared
        assert basis.gram_deviation() <= 2.0 ** -52 * 2 ** L_max
        for l in range(L_max + 1):
            full = np.abs(B[:, level_slice(l)]).sum(axis=1).max()
            assert basis.localisation_sum(l) == full
            for k in range(2 ** l):
                idx = WaveletIndex(l, k)
                assert np.array_equal(basis.function(idx), B[:, basis.column_of(idx)])
