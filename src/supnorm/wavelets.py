"""Orthonormal wavelet bases on [0, 1], sampled on a dyadic grid.

Two kinds are provided:

* ``haar`` -- the Haar system, sampled exactly.  Supports tile [0, 1]
  (intervals closed to the left only at position k = 0).
* ``boundary-smooth`` -- a boundary-corrected orthonormal filter bank of
  order p (default 4), built by iterating two-scale refinement of the
  Daubechies filter with locally orthonormalized edge blocks.  The discrete
  construction is orthonormal on the grid by design, keeps polynomials of
  degree < p in every scaling space (so all wavelets have exactly vanishing
  grid means), and its interior functions converge to the classical smooth
  compactly supported wavelets.  Each two-scale matrix is kept as its two
  edge blocks and the filter taps between them (the fast wavelet transform
  on the interval, Cohen, Daubechies and Vial 1993), and the grid samples
  come from applying these operators level by level; no matrix is stored
  in full except the wavelet blocks that become basis columns.

The basis starts at a single scaling coefficient (the scaling function is
the constant 1) and carries 2^l wavelets at each level l = 0..L_max.
Coefficients are one flat vector in column order (see `level_slice`).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
import numpy as np

from .grids import DyadicGrid, GridFunction, GridMismatchError

HAAR_GRAM_TOL = 1e-8
SMOOTH_GRAM_TOL = 1e-6


class ResolutionError(ValueError):
    """Grid too coarse for the requested number of levels."""


class BasisConstructionError(RuntimeError):
    """The filter-bank construction failed a structural invariant."""


@dataclass(frozen=True)
class WaveletIndex:
    level: int
    position: int

    def __post_init__(self):
        if self.level < 0:
            raise ValueError(f"level must be >= 0, got {self.level}")
        if not 0 <= self.position <= 2 ** self.level - 1:
            raise ValueError(
                f"position {self.position} out of range at level {self.level}"
            )


def daubechies_filter(p: int) -> np.ndarray:
    """Minimal-phase orthonormal low-pass filter with p vanishing moments.

    Classical spectral factorization: roots of P(y) = sum_k C(p-1+k, k) y^k
    are mapped to the z-plane and the roots inside the unit circle are kept.
    Length 2p, sum sqrt(2).
    """
    if p < 1:
        raise ValueError("filter order must be >= 1")
    if p == 1:
        return np.array([1.0, 1.0]) / np.sqrt(2.0)
    coeffs = [comb(p - 1 + k, k) for k in range(p)]
    yroots = np.roots(list(reversed(coeffs)))
    zroots = []
    for y in yroots:
        b = 2.0 - 4.0 * y
        disc = np.sqrt(b * b - 4.0 + 0j)
        for z in ((b + disc) / 2.0, (b - disc) / 2.0):
            if abs(z) < 1.0:
                zroots.append(z)
    poly = np.array([1.0 + 0j])
    for _ in range(p):
        poly = np.convolve(poly, [1.0, 1.0])
    for z in zroots:
        poly = np.convolve(poly, [1.0, -z])
    h = np.real(poly)
    h *= np.sqrt(2.0) / h.sum()
    return h


def _mirror_filter(h: np.ndarray) -> np.ndarray:
    F = len(h)
    return np.array([(-1) ** i * h[F - 1 - i] for i in range(F)])


def _qr_columns(A: np.ndarray) -> np.ndarray:
    """Householder QR with sign fixing; columns are normalized first."""
    nrm = np.linalg.norm(A, axis=0)
    if nrm.min() <= 0:
        raise BasisConstructionError("zero column in edge block")
    Q, R = np.linalg.qr(A / nrm)
    d = np.abs(np.diag(R))
    if d.min() < 1e-7:
        raise BasisConstructionError(f"edge block nearly rank deficient ({d.min():.2e})")
    s = np.sign(np.diag(R))
    s[s == 0] = 1.0
    return Q * s


def _pivoted_complement(C: np.ndarray, A: np.ndarray, count: int) -> np.ndarray:
    """Orthonormal basis (count columns) of span(C) projected out of span(A).

    A must have orthonormal columns.  Deterministic greedy pivoting on the
    residual norms; raises if the residual rank falls short.
    """
    C = C.astype(float).copy()
    if A.size:
        C -= A @ (A.T @ C)
        C -= A @ (A.T @ C)
    picked = np.empty((C.shape[0], count))
    for i in range(count):
        norms = np.linalg.norm(C, axis=0)
        jbest = int(np.argmax(norms))
        if norms[jbest] < 1e-7:
            raise BasisConstructionError(
                f"completion rank deficiency ({norms[jbest]:.2e})"
            )
        v = C[:, jbest] / norms[jbest]
        if v[np.argmax(np.abs(v))] < 0:
            v = -v
        picked[:, i] = v
        C = np.delete(C, jbest, axis=1)
        C -= np.outer(v, v @ C)
    return picked


_NO_EDGE = np.empty((0, 0))


@dataclass(frozen=True)
class _TwoScale:
    """A (rows x n) two-scale matrix kept as its non-zero parts.

    Columns, left to right: the edge block `left`, which fills the first rows
    of its columns; `count` interior columns, column i holding the taps
    `filt` from row offset + 2i; the edge block `right`, which fills the last
    rows of its columns.  A coarse level keeps its whole matrix as `left`.

    `apply` and `tapply` add their terms in the order of scipy's CSC
    products (`csc_matvecs`, and `csr_matvecs` for the transpose), so each
    result is bit for bit that of a CSC matrix holding the same entries.
    """

    rows: int
    left: np.ndarray
    filt: np.ndarray
    offset: int
    count: int
    right: np.ndarray

    @property
    def cols(self) -> int:
        return self.left.shape[1] + self.count + self.right.shape[1]

    def _interior_rows(self, t: int) -> slice:
        """Rows that tap t of interior columns 0..count-1 lands on."""
        return slice(self.offset + t, self.offset + t + 2 * self.count, 2)

    def apply(self, C: np.ndarray) -> np.ndarray:
        """M @ C; each output row adds its columns in ascending order."""
        (a, pl), (b, pr), k = self.left.shape, self.right.shape, self.count
        Y = np.zeros((self.rows, C.shape[1]))
        for r in range(pl):
            Y[:a] += np.outer(self.left[:, r], C[r])
        mid = C[pl:pl + k]
        # descending taps: a row meets interior column i through tap
        # row - offset - 2i, so later columns come through smaller taps
        for t in range(len(self.filt) - 1, -1, -1):
            Y[self._interior_rows(t)] += self.filt[t] * mid
        for r in range(pr):
            Y[self.rows - b:] += np.outer(self.right[:, r], C[pl + k + r])
        return Y

    def tapply(self, U: np.ndarray) -> np.ndarray:
        """M.T @ U; each output row adds its rows of U in ascending order."""
        (a, pl), (b, pr), k = self.left.shape, self.right.shape, self.count
        Y = np.zeros((self.cols, U.shape[1]))
        for w in range(a):
            Y[:pl] += np.outer(self.left[w], U[w])
        for t in range(len(self.filt)):
            Y[pl:pl + k] += self.filt[t] * U[self._interior_rows(t)]
        for w in range(b):
            Y[pl + k:] += np.outer(self.right[w], U[self.rows - b + w])
        return Y

    def dense(self) -> np.ndarray:
        (a, pl), (b, pr), k = self.left.shape, self.right.shape, self.count
        D = np.zeros((self.rows, self.cols))
        D[:a, :pl] = self.left
        i = np.arange(k)
        for t in range(len(self.filt)):
            D[self.offset + t + 2 * i, pl + i] = self.filt[t]
        D[self.rows - b:, pl + k:] = self.right
        return D


def _edge_candidates(h: np.ndarray, g: np.ndarray, n2: int, width: int, side: str):
    """Clipped filter patterns plus unit vectors near one boundary.

    Returns one (rows, values) pair per candidate column: its non-zero
    entries on the full 2n-row range.
    """
    F = len(h)
    cands = []
    for s in range(-F + 2, F):
        for f in (g, h):
            rr = np.arange(s, s + F)
            m = (rr >= 0) & (rr < n2)
            if m.any():
                cands.append((rr[m], f[m]))
    for i in range(width):
        cands.append((np.array([i]), np.array([1.0])))
    if side == "right":
        cands = [((n2 - 1) - rows, vals) for rows, vals in cands]
    return cands


def _fill(cands, rows: slice) -> np.ndarray:
    """One column per (rows, values) candidate on the row window `rows`;
    entries outside the window are dropped."""
    C = np.zeros((rows.stop - rows.start, len(cands)))
    rws, vals = zip(*cands)
    loc = np.concatenate(rws) - rows.start
    col = np.repeat(np.arange(len(cands)), [len(r) for r in rws])
    m = (loc >= 0) & (loc < len(C))
    C[loc[m], col[m]] = np.concatenate(vals)[m]
    return C


def _build_level(h: np.ndarray, p: int, j: int, UL: np.ndarray, UR: np.ndarray):
    """One refinement level of the boundary-corrected filter bank.

    Returns the two-scale operators M (scaling) and Q (wavelet), both
    2n x n with jointly orthonormal columns, plus the monomial coefficient
    matrices carried to level j.  UL/UR are the level-(j+1) coefficients of
    the polynomial families x^r and (1-x)^r, r < p, used to pin the edge
    scaling spaces (left and right parametrizations keep the residual
    blocks well conditioned at their own edge).
    """
    n = 2 ** j
    n2 = 2 * n
    F = 2 * p
    g = _mirror_filter(h)
    o = p + 1  # row offset of the first interior column
    nint = n - 2 * p

    if n >= 4 * p:
        W = 4 * p
        left, right = slice(0, W), slice(n2 - W, n2)

        def meeting(rows):
            """Interior columns i whose taps, rows o + 2i .. o + 2i + F - 1, meet `rows`."""
            first = max(0, (rows.start - o - F) // 2 + 1)
            return range(first, min(nint, (rows.stop - o + 1) // 2))

        def residual(U, rows, cols):
            """U on `rows` less its interior scaling components, column by
            column in the order of `cols`: the local residuals of the edge
            polynomials, which pin the edge scaling block."""
            R = U[rows].copy()
            for i in cols:
                lo = o + 2 * i
                coef = h @ U[lo:lo + F, :]
                a, b = max(lo, rows.start), min(lo + F, rows.stop)
                R[a - rows.start:b - rows.start, :] -= np.outer(h[a - lo:b - lo], coef)
            return R

        # the right end takes its columns in descending order, from the edge
        # inward: the basis bits depend on the order each row subtracts in
        RL = residual(UL, left, meeting(left))
        RR = residual(UR, right, reversed(meeting(right)))
        inner_l = np.abs(RL[-2:, :]).max()
        inner_r = np.abs(RR[:2, :]).max()
        scale = max(np.linalg.norm(RL, axis=0).max(), np.linalg.norm(RR, axis=0).max())
        if max(inner_l, inner_r) > 1e-9 * max(scale, 1e-300):
            raise BasisConstructionError("edge residuals leak out of their window")
        left_blk = _qr_columns(RL)    # W x p
        right_blk = _qr_columns(RR)   # W x p

        M = _TwoScale(n2, left_blk, h, o, nint, right_blk)

        def complete(side, blk, edge, rows):
            """The p wavelets of one edge on the row window `rows`: the
            side's candidates less the edge scaling block `blk` (on the rows
            `edge`) and the interior scaling and wavelet columns there."""
            E = np.zeros((rows.stop - rows.start, p))
            E[edge.start - rows.start:edge.stop - rows.start] = blk
            taps = [(o + 2 * i + np.arange(F), f) for f in (h, g) for i in meeting(rows)]
            A = np.concatenate([E, _fill(taps, rows)], axis=1)
            return _pivoted_complement(_fill(_edge_candidates(h, g, n2, W, side), rows), A, p)

        if n >= 8 * p:
            # disjoint local windows at each boundary
            win = 10 * p
            wleft = complete("left", left_blk, left, slice(0, win))
            wright = complete("right", right_blk, right, slice(n2 - win, n2))
        else:
            # n == 4p (or close): windows would overlap; complete densely
            cands = _edge_candidates(h, g, n2, W, "left") + _edge_candidates(
                h, g, n2, W, "right"
            )
            Wint = _TwoScale(n2, _NO_EDGE, g, o, nint, _NO_EDGE).dense()
            both = _pivoted_complement(
                _fill(cands, slice(0, n2)), np.concatenate([M.dense(), Wint], axis=1), 2 * p
            )
            # order the completed vectors by support midpoint for determinism
            centers = [
                float(np.average(np.arange(n2), weights=both[:, i] ** 2))
                for i in range(2 * p)
            ]
            order = np.argsort(centers, kind="stable")
            wleft = both[:, order[:p]]
            wright = both[:, order[p:]]
        Q = _TwoScale(n2, wleft, g, o, nint, wright)
    else:
        # coarse level: polynomial columns first; complete from clipped filter
        # patterns (for shape) with unit vectors as a rank safety net
        nm = min(p, n)
        first = _qr_columns(UL[:, :nm])

        def candidates(*filts):
            taps = [(np.arange(s, s + F), f) for f in filts for s in range(-F + 2, n2)]
            return np.concatenate([_fill(taps, slice(0, n2)), np.eye(n2)], axis=1)

        rest = (
            _pivoted_complement(candidates(h), first, n - nm) if n > nm else np.empty((n2, 0))
        )
        Md = np.concatenate([first, rest], axis=1)
        Qd = _pivoted_complement(candidates(g, h), Md, n)
        M = _TwoScale(n2, Md, h[:0], 0, 0, _NO_EDGE)
        Q = _TwoScale(n2, Qd, h[:0], 0, 0, _NO_EDGE)

    UL2 = M.tapply(UL)
    UR2 = M.tapply(UR)
    res = max(
        np.linalg.norm(UL - M.apply(UL2), axis=0)[: min(p, n)].max(),
        np.linalg.norm(UR - M.apply(UR2), axis=0)[: min(p, n)].max(),
    )
    if 2 ** j >= p and res > 1e-8:
        raise BasisConstructionError(
            f"polynomial reproduction lost at level {j} ({res:.2e})"
        )
    return M, Q, UL2, UR2


def _boundary_smooth_columns(p: int, L_max: int, J: int) -> np.ndarray:
    """Grid samples of the boundary-corrected basis, one column per function.

    Column order: scaling function, then wavelets level by level.  A
    level-l block is Q_l pushed through M_{l+1}, ..., M_{J-1}, so the blocks
    ride down the cascade side by side, each joining it at its own level;
    only Q_l for l <= L_max is ever made dense.
    """
    h = daubechies_filter(p)
    N = 2 ** J
    x = (np.arange(N) + 0.5) / N
    UL = np.column_stack([x ** r for r in range(p)]) / np.sqrt(N)
    UR = np.column_stack([(1.0 - x) ** r for r in range(p)]) / np.sqrt(N)
    Ms, Qs = {}, {}
    for j in range(J - 1, -1, -1):
        Ms[j], Qs[j], UL, UR = _build_level(h, p, j, UL, UR)
    B = Ms[0].dense()
    for j in range(1, J):
        if j - 1 <= L_max:
            B = np.concatenate([B, Qs[j - 1].dense()], axis=1)
        B = Ms[j].apply(B)
    B *= np.sqrt(N)
    return B


def _haar_columns(L_max: int, J: int) -> np.ndarray:
    """Grid samples of the Haar basis, filled in place one level at a time.

    At level l, grid point i lies in the support of wavelet k = i // b, with
    b = 2^(J-l) points per support; the wavelet there is -2^(l/2) on the
    first half of the support and +2^(l/2) on the second (J >= l + 2, so no
    midpoint falls on a half boundary).
    """
    N = 2 ** J
    B = np.zeros((N, 2 ** (L_max + 1)))
    B[:, 0] = 1.0
    i = np.arange(N)
    for l in range(L_max + 1):
        b = N >> l
        amp = 2.0 ** (l / 2.0)
        B[i, level_slice(l).start + i // b] = np.where(i % b < b // 2, -amp, amp)
    return B


def level_slice(l: int) -> slice:
    """Positions of the level-l wavelets in a flat coefficient vector.

    The flat layout holds the scaling coefficient at 0 and wavelet (l, k) at
    2^l + k, so levels 0..L fill the prefix [:2^(L+1)].
    """
    return slice(2 ** l, 2 ** (l + 1))


@dataclass(frozen=True)
class WaveletBasis:
    """Sampled orthonormal basis: constant scaling function + wavelets."""

    kind: str
    order: int
    L_max: int
    grid: DyadicGrid
    columns: np.ndarray = field(repr=False)  # (N, 2^(L_max+1)); col 0 = scaling

    @property
    def dim(self) -> int:
        return self.columns.shape[1]

    def column_of(self, idx: WaveletIndex) -> int:
        if idx.level > self.L_max:
            raise IndexError(f"level {idx.level} beyond basis L_max={self.L_max}")
        return level_slice(idx.level).start + idx.position

    def function(self, idx: WaveletIndex) -> GridFunction:
        return GridFunction(self.grid, self.columns[:, self.column_of(idx)])

    def gram_deviation(self) -> float:
        G = self.columns.T @ self.columns
        G /= self.grid.size
        G -= np.eye(self.dim)
        return float(np.abs(G).max())

    # --- analysis / synthesis -------------------------------------------
    def analyze(self, f: GridFunction) -> np.ndarray:
        """Quadrature inner products of f with every basis function (flat layout)."""
        if f.grid.resolution != self.grid.resolution:
            raise GridMismatchError(
                f"function grid J={f.grid.resolution} does not match basis grid "
                f"J={self.grid.resolution}"
            )
        return self.columns.T @ f.values / self.grid.size

    def _prefix_columns(self, width: int) -> np.ndarray:
        if width > self.dim:
            raise IndexError(
                f"{width} coefficients exceed the basis dimension {self.dim} "
                f"(L_max={self.L_max})"
            )
        return self.columns[:, :width]

    def synthesize(self, coeffs: np.ndarray) -> GridFunction:
        """The function of a flat coefficient vector, or of a prefix of one."""
        coeffs = np.asarray(coeffs, dtype=float)
        return GridFunction(self.grid, self._prefix_columns(coeffs.size) @ coeffs)

    def synthesize_flat(self, flat: np.ndarray) -> np.ndarray:
        """Batch synthesis: rows of `flat` are flat coefficient vectors, or
        prefixes of one width; only the coefficients of that prefix are used.

        Each row comes back on the coarsest dyadic grid on which the prefix
        is exact.  Boundary-smooth rows hold the N grid values, `flat @
        columns.T`.  Haar levels 0..L are constant on 2^(L+1) dyadic blocks,
        so a Haar row holds K = 2^ceil(log2 width) values, one per block of
        N / K grid points, and `np.repeat(rows, N // K, axis=1)` is the grid
        row.  Each block value is summed in one fixed order, the scaling
        term first and then the single live wavelet of each level in
        ascending level order, so a row's bits depend only on its own
        coefficients, not on the BLAS kernel or on the rows beside it.
        The sums are built by the Haar cascade: level l splits each of the
        2^l blocks in two, subtracting c_lk 2^(l/2) on the left half and
        adding it on the right (the sign pattern of `_haar_columns`).
        `density.posterior_expected_losses` reduces K-wide rows exactly.
        """
        width = flat.shape[1]
        cols = self._prefix_columns(width)
        if self.kind != "haar":
            return flat @ cols.T
        K = 1 << (width - 1).bit_length()
        rows = flat[:, :1] * 1.0  # the scaling function is 1
        for l in range(K.bit_length() - 1):
            sl = level_slice(l)
            t = flat[:, sl.start:min(sl.stop, width)] * 2.0 ** (l / 2.0)
            c = t.shape[1]  # a partial last level has fewer than 2^l wavelets
            finer = np.empty((flat.shape[0], 2 * rows.shape[1]))
            np.subtract(rows[:, :c], t, out=finer[:, 0:2 * c:2])
            np.add(rows[:, :c], t, out=finer[:, 1:2 * c:2])
            finer[:, 2 * c::2] = finer[:, 2 * c + 1::2] = rows[:, c:]
            rows = finer
        return rows

    def localisation_sum(self, l: int) -> float:
        """max over grid points of sum_k |psi_lk(x)|."""
        if not 0 <= l <= self.L_max:
            raise IndexError(f"level {l} out of range 0..{self.L_max}")
        return float(np.abs(self.columns[:, level_slice(l)]).sum(axis=1).max())


def check_basis_args(kind: str, L_max: int, J: int | None = None, order: int = 4) -> int:
    """Validate the arguments of `build_basis` without building; returns J.

    J defaults to max(12, L_max + 4) and must satisfy J >= L_max + 2.
    """
    if L_max < 0:
        raise ValueError("L_max must be >= 0")
    if J is None:
        J = max(12, L_max + 4)
    if J < L_max + 2:
        raise ResolutionError(
            f"grid resolution J={J} too coarse for L_max={L_max} (need J >= L_max + 2)"
        )
    if kind not in ("haar", "boundary-smooth"):
        raise ValueError(f"unknown basis kind {kind!r}")
    if kind == "boundary-smooth" and order < 2:
        raise ValueError("boundary-smooth order must be >= 2")
    return J


def build_basis(kind: str, L_max: int, J: int | None = None, order: int = 4) -> WaveletBasis:
    """Build a sampled wavelet basis on the 2^J grid.

    kind: "haar" or "boundary-smooth"; see `check_basis_args` for J.
    """
    J = check_basis_args(kind, L_max, J, order)
    grid = DyadicGrid(J)
    if kind == "haar":
        cols = _haar_columns(L_max, J)
        basis = WaveletBasis("haar", 1, L_max, grid, cols)
        tol = HAAR_GRAM_TOL
    else:
        cols = _boundary_smooth_columns(order, L_max, J)
        basis = WaveletBasis("boundary-smooth", order, L_max, grid, cols)
        tol = SMOOTH_GRAM_TOL
    dev = basis.gram_deviation()
    if dev > tol:
        raise BasisConstructionError(f"Gram deviation {dev:.2e} exceeds {tol:.0e}")
    return basis
