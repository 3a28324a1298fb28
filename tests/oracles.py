"""Reference functions the tests use; the package itself never needs them."""
import numpy as np

from supnorm.grids import DyadicGrid, GridFunction
from supnorm.wavelets import WaveletBasis, level_slice


def constant(grid: DyadicGrid, c: float = 1.0) -> GridFunction:
    return GridFunction(grid, np.full(grid.size, float(c)))


def besov_norm(f: GridFunction, s: float, basis: WaveletBasis) -> float:
    """sup over computed levels of 2^{l(1/2+s)} |<f, psi_lk>|.

    Truncated at the basis L_max; exact for functions built inside the span.
    """
    if s <= 0:
        raise ValueError("smoothness s must be > 0")
    c = basis.analyze(f)
    best = 0.0
    for l in range(basis.L_max + 1):
        level_sup = 2.0 ** (l * (0.5 + s)) * np.abs(c[level_slice(l)]).max()
        best = max(best, level_sup)
    return float(best)


def mean_masses(post) -> np.ndarray:
    """Posterior mean bin masses of a `HistogramPosterior`."""
    return post.params / post.params.sum()


def interpolated_draws(post, u) -> np.ndarray:
    """Inverse-CDF draws of a `CoordPosterior` by interpolation on its normalised cdf."""
    return np.interp(u, post.cdf, post.thetas)


def coordinate_rng(seed, j: int) -> np.random.Generator:
    """The stream of flat coordinate j, built alone: spawn key (l + 1, k) for
    wavelet (l, k) at j, and (0, 0) for the scaling coordinate."""
    l = j.bit_length() - 1
    key = (l + 1, j - level_slice(l).start) if j else (0, 0)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
