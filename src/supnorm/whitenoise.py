"""Gaussian white noise sequence model with coordinate-wise product priors.

Observations are noisy wavelet coefficients x_lk = f_lk + eps_lk / sqrt(n),
kept as one flat vector x; the functions that read it take n beside it.
The product structure makes the posterior factorize across coordinates, so
each coordinate posterior is tabulated by quadrature on a theta grid:
density proportional to exp(-n (x - theta)^2 / 2) * phi(theta / sigma_l).

Priors are truncated at a cutoff level: coefficients above it are fixed to
zero (the deterministic sup-norm bound of the neglected tail is reported by
the experiment harness).

Everything here works on flat coefficient vectors (`wavelets.level_slice`):
the truth enters as its analysed coefficients, and posterior draws leave as
coefficient rows of width 2^(L+1).  `WaveletBasis.synthesize_flat` turns
them into functions; for Haar a row stays a step function on 2^(L+1)
dyadic bins, whose losses `density.posterior_expected_losses` reduces
exactly per bin.

Each coordinate has its own RNG stream, `SeedSequence(seed, spawn_key=
(l + 1, k))` for wavelet (l, k) and key (0, 0) for the scaling
coefficient.  `_coordinate_streams` derives all the streams of a call in
one pass, bit for bit: numpy hashes the seed into its pool once, and the key
words of every coordinate are mixed into that pool together as arrays.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .grids import check_number
from .wavelets import WaveletIndex, level_slice

QUADRATURE_POINTS = 4096
LIKELIHOOD_HALF_WIDTH = 8.0  # in units of 1/sqrt(n); mass outside < 1e-14
_GRID_INDEX = np.arange(QUADRATURE_POINTS, dtype=float)


@dataclass(frozen=True)
class ProductPriorSpec:
    """Coordinate-wise prior: density phi(./sigma_l)/sigma_l per coefficient.

    family "uniform": phi = 1/(2B) on [-B, B], sigma_l = 2^{-l(1/2+alpha)}.
    family "exp-power": phi = c_delta exp(-|x|^{1+delta}),
    sigma_l = 2^{-l(1/2+alpha)} / (l+1)^mu with mu = 1/(1+delta).
    """

    family: str
    alpha: float
    truncation_level: int
    bound: float = 2.0
    delta: float = 1.0

    def __post_init__(self):
        if self.family not in ("uniform", "exp-power"):
            raise ValueError(f"unknown prior family {self.family!r}")
        for name in ("alpha", "bound", "delta"):
            check_number(name, getattr(self, name))
        check_number("truncation level", self.truncation_level, integer=True, minimum=0)
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")
        if self.family == "uniform" and self.bound <= 0:
            raise ValueError("uniform prior needs bound B > 0")
        if self.family == "exp-power" and self.delta <= 0:
            raise ValueError("exp-power prior needs delta > 0")

    def sigma(self, level: int) -> float:
        s = 2.0 ** (-level * (0.5 + self.alpha))
        if self.family == "exp-power":
            s /= (level + 1.0) ** (1.0 / (1.0 + self.delta))
        return s

    def log_phi(self, u: np.ndarray) -> np.ndarray:
        """Log density of the standardized coefficient, up to a constant."""
        u = np.asarray(u, dtype=float)
        if self.family == "uniform":
            return np.where(np.abs(u) <= self.bound, 0.0, -np.inf)
        return -np.abs(u) ** (1.0 + self.delta)

    def standardized_radius(self) -> float:
        """Radius beyond which phi is numerically negligible."""
        if self.family == "uniform":
            return self.bound
        return 50.0 ** (1.0 / (1.0 + self.delta))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) for its pool
# of 4 uint32 words
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _powers(init: int, mult: int, count: int) -> list[int]:
    """The hash constants init mult^i mod 2^32 for i < count."""
    out = [init]
    while len(out) < count:
        out.append(out[-1] * mult & _MASK32)
    return out


# generate_state(4, uint64): output word i is pool word i % 4 hashed with
# the constants B_i and B_(i+1)
_B = np.array(_powers(_INIT_B, _MULT_B, 9), dtype=np.uint32)[:, None]


def _hashmix(value, a, a_next):
    value = ((value ^ a) * a_next) & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ (r >> 16)


@functools.cache
def _state_row_type() -> type:
    """A seed sequence whose `generate_state` is one precomputed row of words.

    Defined on first use: loading numpy.random when this module is
    imported, ahead of the rest of the package, raised the peak RSS of a
    process.
    """
    from numpy.random.bit_generator import ISeedSequence

    class StateRow(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return StateRow


@functools.lru_cache(maxsize=8)
def _spawn_key_hashes(first_call: int, width: int) -> np.ndarray:
    """(2, 4, width) hashmix values of the spawn-key words (l + 1, k) of
    flat indices j < width, at mix_entropy's hashmix calls first_call,
    first_call + 1, ...: word w meets pool word d at call first_call + 4w + d.
    """
    j = np.arange(width)
    level1 = np.frexp(j)[1]  # l + 1 = bit length of j, and 0 for j = 0
    words = np.array([level1, j - ((1 << level1) >> 1)], dtype=np.uint32)[:, None, :]
    a = np.array(_powers(_INIT_A, _MULT_A, first_call + 9), dtype=np.uint32)
    calls = np.arange(first_call, first_call + 8).reshape(2, 4, 1)
    hashes = _hashmix(words, a[calls], a[calls + 1])
    hashes.flags.writeable = False
    return hashes


def _coordinate_streams(seed: int, width: int) -> Iterator[np.random.Generator]:
    """The generators of flat coordinates j < width, in order.

    Stream j is `default_rng(SeedSequence(seed, spawn_key=key))` bit for
    bit, with key (l + 1, k) for wavelet (l, k) at flat index j and (0, 0)
    for the scaling coordinate, so a stream never depends on the
    truncation.  The seed's pool is numpy's own `SeedSequence(seed).pool`;
    the key words of all j are mixed into it together, and each PCG64 is
    built from its row of `generate_state(4, uint64)` when it is reached,
    so that one generator is alive at a time.  A negative seed raises
    ValueError, a non-integer one TypeError, as SeedSequence does; both are
    raised at the call, before the first generator.
    """
    if not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be an integer, got {seed!r}")
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed!r}")
    # the pool took 4 hashmix calls per 32-bit word of the seed, and at least 16
    keys = _spawn_key_hashes(4 * max(4, (seed.bit_length() + 31) // 32), width)
    pool = np.random.SeedSequence(seed).pool[:, None]
    pool = _mix(_mix(pool, keys[0]), keys[1])
    out = _hashmix(pool[[0, 1, 2, 3] * 2], _B[:8], _B[1:])
    # little-endian pairs of output words make the 4 uint64 state words
    state = (out[0::2].astype(np.uint64) | out[1::2].astype(np.uint64) << 32).T.copy()
    state_row = _state_row_type()
    return (np.random.Generator(np.random.PCG64(state_row(row))) for row in state)


def _flat_level(v: np.ndarray) -> int:
    """L of the flat vector v of width 2^(L+1); ValueError unless v is 1-D
    with such a width."""
    width = v.size
    if v.ndim != 1 or width < 2 or width & (width - 1):
        raise ValueError(f"array of shape {v.shape} is not one flat vector of width 2^(L+1)")
    return width.bit_length() - 2


def simulate_wn(coeffs: np.ndarray, n: int, seed: int) -> np.ndarray:
    """The observations x_lk = f_lk + eps_lk / sqrt(n), independent across
    (l, k), of the truth's flat coefficient vector `coeffs` (`basis.analyze(f0)`),
    with its width 2^(L+1).

    One RNG stream per coordinate, keyed by (seed, level, position)
    (`_coordinate_streams`), so the observations of a prefix of `coeffs`
    (a truncation) are the prefix of its observations, bit for bit.  `n`
    must be an integer >= 1 (ValueError).
    """
    check_number("n", n, integer=True, minimum=1)
    x = np.array(coeffs, dtype=float)
    _flat_level(x)
    noise = [g.standard_normal() for g in _coordinate_streams(seed, x.size)]
    x += (1.0 / np.sqrt(n)) * np.array(noise)
    return x


def coord_posterior(
    x: float, level: int, prior: ProductPriorSpec, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quadrature table (thetas, weights, cum) of one coefficient's
    posterior given observation x.

    `weights` is the posterior density on the grid `thetas` up to a
    constant factor (its largest value is 1), and `cum[i]` is the sum of
    the trapezoid pair sums weights[k] + weights[k + 1] over k < i: the
    cdf before normalising, with the constant spacing cancelled.

    The theta window is the likelihood interval x +- 8/sqrt(n) intersected
    with the prior's effective support; when that intersection is empty the
    full prior support is used instead.  The grid has the bits of
    `np.linspace(lo, hi, QUADRATURE_POINTS)`.  An `n` that is not an
    integer >= 1 raises ValueError, and a posterior whose mass underflows
    on the whole window RuntimeError.
    """
    check_number("n", n, integer=True, minimum=1)
    sigma = prior.sigma(level)
    half = LIKELIHOOD_HALF_WIDTH / math.sqrt(n)
    radius = prior.standardized_radius() * sigma
    lo = max(-radius, x - half)
    hi = min(radius, x + half)
    if lo < hi:
        return _tabulate(x, level, prior, n, sigma, lo, hi)
    # far from the prior's support n (theta - x)^2 / 2 overflows to inf; the
    # underflow that follows is refused, so numpy's warning is not shown
    with np.errstate(over="ignore"):
        return _tabulate(x, level, prior, n, sigma, -radius, radius)


def _tabulate(x, level, prior, n, sigma, lo, hi):
    """`coord_posterior` on the theta window [lo, hi], with sigma = sigma_level."""
    # linspace's own arithmetic: lo + step * i, with hi as the last point
    thetas = _GRID_INDEX * ((hi - lo) / (QUADRATURE_POINTS - 1))
    thetas += lo
    thetas[-1] = hi
    w = thetas - x
    np.square(w, out=w)
    w *= -0.5 * n
    u = thetas / sigma
    if prior.family == "uniform":
        # u rises with the grid, so log phi(u) is 0 on one run of points,
        # -B <= u <= B, and -inf on either side of it
        w[: u.searchsorted(-prior.bound, side="left")] = -np.inf
        w[u.searchsorted(prior.bound, side="right") :] = -np.inf
    else:
        w += prior.log_phi(u)
    top = w.max()
    if not np.isfinite(top):
        raise RuntimeError(f"posterior mass underflows at level {level} (x={x!r})")
    w -= top
    np.exp(w, out=w)
    cum = np.empty_like(w)
    cum[0] = 0.0
    np.add(w[1:], w[:-1], out=cum[1:])
    np.cumsum(cum[1:], out=cum[1:])
    return thetas, w, cum


def draw_posterior_coefficients(
    x: np.ndarray,
    n: int,
    prior: ProductPriorSpec,
    m: int,
    seed: int,
) -> np.ndarray:
    """m independent coefficient vectors from the posterior given the flat
    observations x (`simulate_wn`) at noise level n, one per row.

    A row holds levels 0..L, L = min(the level of x,
    prior.truncation_level): the prefix of a flat vector that the truncated
    prior leaves non-zero, so the rows of `basis.synthesize_flat(flat)` are
    the posterior function draws.  Coordinate j is sampled by inverse CDF
    on its own `coord_posterior` table, from its own stream, with the key
    of the same coordinate in `simulate_wn`; all the streams of a call are
    derived together by `_coordinate_streams`.  A uniform u is located at
    u cum[-1] among the unnormalised `cum` and interpolated linearly, so
    no normalised cdf is formed; a draw in the last cell may round past
    the window's end, so draws are clipped to it.  `m` must be an integer
    >= 1 (ValueError).
    """
    check_number("draw count m", m, integer=True, minimum=1)
    x = np.asarray(x, dtype=float)
    L = min(_flat_level(x), prior.truncation_level)
    flat = np.empty((m, level_slice(L).stop))
    for j, stream in enumerate(_coordinate_streams(seed, flat.shape[1])):
        # the scaling coordinate (j = 0) behaves like level 0
        thetas, _, cum = coord_posterior(float(x[j]), max(j.bit_length() - 1, 0), prior, n)
        draws = np.interp(np.multiply(stream.random(m), cum[-1]), cum, thetas)
        # np.clip's bits, NaN included, at about half its cost
        np.maximum(draws, thetas[0], out=draws)
        np.minimum(draws, thetas[-1], out=flat[:, j])
    return flat


def laplace_check(
    x: np.ndarray,
    n: int,
    prior: ProductPriorSpec,
    level: int,
    position: int,
    t: float,
) -> float:
    """E^pi[exp(t sqrt(n) (theta - x_lk)) | x], averaged over replications.

    `x` is one flat observation vector (`simulate_wn`) or a (replications,
    width) array of them, all at noise level n; each term is a trapezoid
    quadrature on the coordinate's `coord_posterior` table.  An x of another shape, a level outside
    the observed levels or a position outside 0..2^level - 1 raises
    ValueError, and so does a t with |t| > 3 or t = NaN.
    """
    if not abs(t) <= 3.0 + 1e-12:
        raise ValueError("|t| <= 3 required")
    xs = np.asarray(x, dtype=float)
    rows = xs if xs.ndim == 2 else xs[None]
    if not len(rows):
        raise ValueError("need at least one observation vector")
    top = _flat_level(rows[0])
    WaveletIndex(level, position)  # ValueError for a negative level or a bad position
    if level > top:
        raise ValueError(f"level {level} is beyond the observed levels 0..{top}")
    j = level_slice(level).start + position
    root_n = np.sqrt(n)
    vals = []
    for xj in rows[:, j].tolist():
        thetas, weights, _ = coord_posterior(xj, level, prior, n)
        pdf = weights / np.trapezoid(weights, thetas)
        vals.append(float(np.trapezoid(np.exp(t * root_n * (thetas - xj)) * pdf, thetas)))
    return float(np.mean(vals))


def truncation_bias_bound(prior: ProductPriorSpec) -> float:
    """Deterministic sup-norm bound of the neglected prior tail.

    sum_{l > L} 2^{l/2} sigma_l, scaled by the coefficient bound (B for the
    uniform family, 1 for exp-power where coefficients are unbounded).  The
    exp-power sum is dominated by the same geometric series.
    """
    L = prior.truncation_level
    a = prior.alpha
    tail = 2.0 ** (-(L + 1) * a) / (1.0 - 2.0 ** (-a))
    radius_scale = prior.bound if prior.family == "uniform" else 1.0
    return float(radius_scale * tail)
