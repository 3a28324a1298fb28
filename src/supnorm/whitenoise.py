"""Gaussian white noise sequence model with coordinate-wise product priors.

Observations are noisy wavelet coefficients x_lk = f_lk + eps_lk / sqrt(n).
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
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .wavelets import WaveletIndex, level_slice

QUADRATURE_POINTS = 4096
LIKELIHOOD_HALF_WIDTH = 8.0  # in units of 1/sqrt(n); mass outside < 1e-14
_GRID_INDEX = np.arange(QUADRATURE_POINTS, dtype=float)


class PosteriorUnderflowError(RuntimeError):
    """Posterior mass underflows even on the full prior support."""


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
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")
        if self.family == "uniform" and self.bound <= 0:
            raise ValueError("uniform prior needs bound B > 0")
        if self.family == "exp-power" and self.delta <= 0:
            raise ValueError("exp-power prior needs delta > 0")
        if self.truncation_level < 0:
            raise ValueError("truncation level must be >= 0")

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


@dataclass(frozen=True)
class WhiteNoiseData:
    """Observed coefficients up to the truncation level, in the flat layout."""

    n: int
    x: np.ndarray = field(repr=False)  # length 2^(max_level + 1)
    seed: int = 0

    @property
    def max_level(self) -> int:
        return self.x.size.bit_length() - 2


def _coordinate_rng(seed: int, j: int) -> np.random.Generator:
    # spawn key (l + 1, k) for wavelet (l, k) at flat index j and (0, 0) for
    # the scaling coordinate, so a stream never depends on the truncation
    l = j.bit_length() - 1
    key = (l + 1, j - level_slice(l).start) if j else (0, 0)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def simulate_wn(
    coeffs: np.ndarray,
    n: int,
    seed: int,
    truncation_level: int | None = None,
    zero_noise: bool = False,
) -> WhiteNoiseData:
    """x_lk = f_lk + eps_lk / sqrt(n), independent across (l, k).

    `coeffs` is the truth's flat coefficient vector (`basis.analyze(f0)`),
    of width 2^(L_max + 1); observations stop at `truncation_level`
    (>= 0; default L_max, at most L_max).  One RNG stream per coordinate, derived
    from (seed, level, position), so the observation of a coordinate does
    not depend on the truncation level or on evaluation order.
    `zero_noise` is a test hook.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    coeffs = np.asarray(coeffs, dtype=float)
    width = coeffs.size
    if coeffs.ndim != 1 or width < 2 or width & (width - 1):
        raise ValueError(
            f"coefficients of shape {coeffs.shape} are not one flat vector of width 2^(L+1)"
        )
    L = width.bit_length() - 2
    if truncation_level is not None:
        if truncation_level < 0:
            raise ValueError(f"truncation level must be >= 0, got {truncation_level!r}")
        L = min(truncation_level, L)
    x = coeffs[: level_slice(L).stop].copy()
    if not zero_noise:
        scale = 1.0 / np.sqrt(n)
        x += scale * np.array([_coordinate_rng(seed, j).standard_normal() for j in range(x.size)])
    return WhiteNoiseData(n=n, x=x, seed=seed)


@dataclass(frozen=True)
class CoordPosterior:
    """Quadrature table of one coordinate posterior.

    `weights` is the posterior density on the grid `thetas` up to a
    constant factor (its largest value is 1), and `cum[i]` is the sum of
    the trapezoid pair sums weights[k] + weights[k + 1] over k < i: the
    cdf before normalising, with the constant spacing cancelled.
    """

    thetas: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    cum: np.ndarray = field(repr=False)

    @property
    def pdf(self) -> np.ndarray:
        """The weights over their trapezoid sum.

        The sum is written out with the spacing computed once
        (`np.trapezoid`'s own expression, so the same bits).
        """
        w = self.weights
        return w / (np.diff(self.thetas) * (w[1:] + w[:-1]) / 2.0).sum()

    @property
    def cdf(self) -> np.ndarray:
        """Trapezoid integral of `pdf` up to each grid point, scaled to end at 1."""
        pdf = self.pdf
        cdf = np.empty_like(pdf)
        cdf[0] = 0.0
        np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(self.thetas), out=cdf[1:])
        cdf /= cdf[-1]
        return cdf

    @property
    def mean(self) -> float:
        """Posterior mean by the trapezoid rule on the table."""
        return float(np.trapezoid(self.thetas * self.pdf, self.thetas))

    def sample(self, uniforms: np.ndarray) -> np.ndarray:
        """Inverse-CDF draws with linear interpolation on the table.

        A uniform u is located at u cum[-1] among the unnormalised `cum`,
        so no normalised cdf is formed.  The draws agree with
        `np.interp(u, self.cdf, self.thetas)` to within 1e-10 of the window
        width: the two differ only in how the cdf is summed and scaled.  A
        draw in the last cell may round past hi, so draws are clipped to
        [lo, hi].
        """
        draws = np.interp(np.multiply(uniforms, self.cum[-1]), self.cum, self.thetas)
        return np.clip(draws, self.thetas[0], self.thetas[-1], out=draws)

    def expectation(self, fn) -> float:
        w = self.pdf
        return float(np.trapezoid(fn(self.thetas) * w, self.thetas))


def coord_posterior(
    x: float, level: int, prior: ProductPriorSpec, n: int
) -> CoordPosterior:
    """Tabulated posterior of one coefficient given observation x.

    The theta window is the likelihood interval x +- 8/sqrt(n) intersected
    with the prior's effective support; when that intersection is empty the
    full prior support is used instead.  The grid has the bits of
    `np.linspace(lo, hi, QUADRATURE_POINTS)`.  Only the weights and their
    cumulative pair sums are formed here; `pdf` and `cdf` are derived from
    them when read.  n < 1 raises ValueError.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    sigma = prior.sigma(level)
    half = LIKELIHOOD_HALF_WIDTH / math.sqrt(n)
    radius = prior.standardized_radius() * sigma
    lo = max(-radius, x - half)
    hi = min(radius, x + half)
    if not lo < hi:
        lo, hi = -radius, radius
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
        raise PosteriorUnderflowError(
            f"posterior mass underflows at level {level} (x={x!r})"
        )
    w -= top
    np.exp(w, out=w)
    cum = np.empty_like(w)
    cum[0] = 0.0
    np.add(w[1:], w[:-1], out=cum[1:])
    np.cumsum(cum[1:], out=cum[1:])
    return CoordPosterior(thetas, w, cum)


def draw_posterior_coefficients(
    data: WhiteNoiseData,
    prior: ProductPriorSpec,
    m: int,
    seed: int,
) -> np.ndarray:
    """m independent coefficient vectors from the posterior, one per row.

    A row holds levels 0..L, L = min(data.max_level,
    prior.truncation_level): the prefix of a flat vector that the truncated
    prior leaves non-zero, so the rows of `basis.synthesize_flat(flat)` are
    the posterior function draws.  Coordinate j is sampled by inverse CDF
    (`CoordPosterior.sample`) on its own table, from its own stream
    (`_coordinate_rng(seed, j)`).
    """
    if m < 1:
        raise ValueError("draw count m must be >= 1")
    L = min(data.max_level, prior.truncation_level)
    flat = np.empty((m, level_slice(L).stop))
    for j in range(flat.shape[1]):
        # the scaling coordinate (j = 0) behaves like level 0
        post = coord_posterior(float(data.x[j]), max(j.bit_length() - 1, 0), prior, data.n)
        flat[:, j] = post.sample(_coordinate_rng(seed, j).random(m))
    return flat


def laplace_check(
    data,
    prior: ProductPriorSpec,
    level: int,
    position: int,
    t: float,
) -> float:
    """E^pi[exp(t sqrt(n) (theta - x_lk)) | data], averaged over replications.

    `data` may be one WhiteNoiseData or a sequence of them; each term is a
    quadrature on the coordinate posterior.  A level outside the observed
    levels or a position outside 0..2^level - 1 raises ValueError.
    """
    if abs(t) > 3.0 + 1e-12:
        raise ValueError("|t| <= 3 required")
    datas = [data] if isinstance(data, WhiteNoiseData) else list(data)
    if not datas:
        raise ValueError("need at least one WhiteNoiseData")
    WaveletIndex(level, position)  # ValueError for a negative level or a bad position
    j = level_slice(level).start + position
    top = min(d.max_level for d in datas)
    if level > top:
        raise ValueError(f"level {level} is beyond the observed levels 0..{top}")
    vals = []
    for d in datas:
        x = float(d.x[j])
        post = coord_posterior(x, level, prior, d.n)
        root_n = np.sqrt(d.n)
        vals.append(post.expectation(lambda th: np.exp(t * root_n * (th - x))))
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
