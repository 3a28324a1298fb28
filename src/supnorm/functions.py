"""Distances and generators of Holder-ball truths.

Distances are grid quadratures.  Truths are built directly from wavelet
coefficients, so that they saturate the Besov ball of the computed levels
l <= L_max exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import GridFunction, check_number
from .wavelets import WaveletBasis, level_slice


class NegativeDensityError(ValueError):
    """A claimed density has significantly negative values."""


def hellinger_rows(values: np.ndarray, g: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Unnormalized Hellinger distance, h^2 = integral (sqrt f - sqrt g)^2,
    of each row f of `values` to the grid vector g.

    A row of K values is a step function on K dyadic blocks of g's grid
    (K = N: grid values); the distance is exact, from the per-block mean and
    centred sum of squares of sqrt(g) (`step_rms`).  Values down to -1e-12
    are rounding dust and are clamped to zero; anything more negative is not
    a density.  `out`, shaped like `values`, takes the root differences and
    their squares, so that the call allocates no array of that size.
    """
    root = step_blocks(np.sqrt(np.clip(g, 0.0, None)), values.shape[-1])
    root_mean, root_css = block_moments(root)
    if values.min() < -1e-12 or g.min() < -1e-12:
        raise NegativeDensityError("density values below -1e-12")
    diff = np.sqrt(np.clip(values, 0.0, None, out=out), out=out)
    diff -= root_mean
    return step_rms(diff, root_css, g.size, out=diff)


def step_blocks(g: np.ndarray, width: int) -> np.ndarray:
    """The grid vector g (N points) as `width` dyadic blocks: (width, N / width).

    Raises ValueError unless `width` is a power-of-two divisor of N.
    """
    N = g.shape[-1]
    if width < 1 or width & (width - 1) or N % width:
        raise ValueError(f"row width {width} is not a power-of-two divisor of the grid size {N}")
    return g.reshape(width, N // width)


def block_moments(blocks: np.ndarray) -> tuple[np.ndarray, float]:
    """Mean of each block, and the centred sum of squares over all blocks."""
    mean = blocks.mean(axis=1)
    return mean, float(((blocks - mean[:, None]) ** 2).sum())


def step_rms(centred: np.ndarray, css: float, size: int, out: np.ndarray | None = None) -> np.ndarray:
    """Root mean square over a `size`-point grid of step rows minus g.

    `centred` holds each row's K values minus g's block means (last axis)
    and `css` g's centred sum of squares, so that the sum over the grid is
    (size / K) sum_k centred_k^2 + css.  With K = size, css is 0 and this is
    the grid mean of the squared differences, rounded the same way.  The
    squares go to `out` when given (`out=centred` squares in place).
    """
    squares = np.square(centred, out=out)
    return np.sqrt(((size // centred.shape[-1]) * squares.sum(axis=-1) + css) / size)


@dataclass(frozen=True)
class HolderTruthSpec:
    """Ball of radius R in the wavelet-coefficient Holder/Besov sense."""

    alpha: float
    radius: float = 1.0
    seed: int = 0
    kind: str = "signed-coefficient"  # or "fixed-analytic"

    def __post_init__(self):
        check_number("alpha", self.alpha)
        check_number("radius", self.radius)
        check_number("seed", self.seed, integer=True, minimum=0)
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")
        if self.radius <= 0:
            raise ValueError("radius must be > 0")
        if self.kind not in ("signed-coefficient", "fixed-analytic"):
            raise ValueError(f"unknown truth kind {self.kind!r}")


def truth_coefficients(spec: HolderTruthSpec, L_max: int) -> np.ndarray:
    """Flat coefficients: scaling 0, then R * s_lk * 2^{-l(1/2+alpha)} at level l."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(71,)))
    out = np.zeros(level_slice(L_max).stop)
    for l in range(L_max + 1):
        mag = spec.radius * 2.0 ** (-l * (0.5 + spec.alpha))
        if spec.kind == "signed-coefficient":
            signs = rng.integers(0, 2, size=2 ** l) * 2 - 1
        else:
            k = np.arange(2 ** l)
            signs = np.where((l + k) % 2 == 0, 1, -1)
        out[level_slice(l)] = mag * signs
    return out


def make_holder_truth(spec: HolderTruthSpec, basis: WaveletBasis) -> GridFunction:
    """Truth with |<f0, psi_lk>| = R 2^{-l(1/2+alpha)} at every computed level.

    The scaling coefficient is zero, so the sup over levels of
    2^{l(1/2+alpha)} |<f0, psi_lk>| is R.
    """
    return basis.synthesize(truth_coefficients(spec, basis.L_max))


def make_density_truth(spec: HolderTruthSpec, basis: WaveletBasis) -> GridFunction:
    """Normalized density exp(g0 - c(g0)) with g0 = make_holder_truth(spec, basis)."""
    return normalize_log(make_holder_truth(spec, basis))


def log_mean_exp(t: np.ndarray, out: np.ndarray | None = None):
    """c(T) = log integral e^T along the last axis (the grid), with a max shift.

    A 1-D input gives a scalar; a (rows, N) input gives one value per row.
    `out`, shaped like `t`, is the scratch for the shifted exponentials; the
    MCMC passes one reused buffer, so a normaliser allocates no grid array.
    """
    m = t.max(axis=-1)
    e = np.subtract(t, m[..., None], out=out)
    np.exp(e, out=e)
    return m + np.log(e.sum(axis=-1) / t.shape[-1])


def normalize_log(t: GridFunction) -> GridFunction:
    """exp(T - c(T)) with c(T) = log integral e^T."""
    return GridFunction(t.grid, np.exp(t.values - log_mean_exp(t.values)))
