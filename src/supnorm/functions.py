"""Norms, distances and generators of Holder-ball truths.

Distances are grid quadratures; the Besov norm is computed from wavelet
coefficients and is a truncated surrogate of the true norm (the supremum
runs over the computed levels l <= L_max only).  Truths are built directly
from wavelet coefficients so that they saturate the Besov ball exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import GridFunction, check_same_grid
from .wavelets import WaveletBasis


class NegativeDensityError(ValueError):
    """A claimed density has significantly negative values."""


def besov_norm(f: GridFunction, s: float, basis: WaveletBasis) -> float:
    """sup over computed levels of 2^{l(1/2+s)} |<f, psi_lk>|.

    Truncated at the basis L_max; exact for functions built inside the span.
    """
    if s <= 0:
        raise ValueError("smoothness s must be > 0")
    tree = basis.analyze(f)
    best = 0.0
    for l, coeffs in enumerate(tree.levels):
        level_sup = 2.0 ** (l * (0.5 + s)) * np.abs(coeffs).max()
        best = max(best, level_sup)
    return float(best)


def sup_distance(f: GridFunction, g: GridFunction) -> float:
    check_same_grid(f, g)
    return float(np.abs(f.values - g.values).max())


def l2_distance(f: GridFunction, g: GridFunction) -> float:
    check_same_grid(f, g)
    return float(np.sqrt(((f.values - g.values) ** 2).mean()))


def hellinger(f: GridFunction, g: GridFunction) -> float:
    """Unnormalized Hellinger distance: h^2 = integral (sqrt f - sqrt g)^2."""
    check_same_grid(f, g)
    return float(hellinger_rows(f.values, g.values))


def hellinger_rows(values: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Hellinger distance of each row of `values` (last axis: the grid) to g.

    Values down to -1e-12 are rounding dust and are clamped to zero; anything
    more negative is not a density.
    """
    if values.min() < -1e-12 or g.min() < -1e-12:
        raise NegativeDensityError("density values below -1e-12")
    rt = np.sqrt(np.clip(values, 0.0, None)) - np.sqrt(np.clip(g, 0.0, None))
    return np.sqrt((rt ** 2).mean(axis=-1))


@dataclass(frozen=True)
class HolderTruthSpec:
    """Ball of radius R in the wavelet-coefficient Holder/Besov sense."""

    alpha: float
    radius: float = 1.0
    seed: int = 0
    kind: str = "signed-coefficient"  # or "fixed-analytic"

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")
        if self.radius <= 0:
            raise ValueError("radius must be > 0")
        if self.kind not in ("signed-coefficient", "fixed-analytic"):
            raise ValueError(f"unknown truth kind {self.kind!r}")


@dataclass(frozen=True)
class DensityTruthSpec:
    """Density truth exp(g0 - c) with g0 drawn from a Holder ball."""

    log_spec: HolderTruthSpec
    rho0: float = field(default=float("nan"), compare=False)
    d0: float = field(default=float("nan"), compare=False)


def truth_coefficients(spec: HolderTruthSpec, L_max: int) -> list[np.ndarray]:
    """Per-level coefficient arrays R * s_lk * 2^{-l(1/2+alpha)}."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(71,)))
    out = []
    for l in range(L_max + 1):
        mag = spec.radius * 2.0 ** (-l * (0.5 + spec.alpha))
        if spec.kind == "signed-coefficient":
            signs = rng.integers(0, 2, size=2 ** l) * 2 - 1
        else:
            k = np.arange(2 ** l)
            signs = np.where((l + k) % 2 == 0, 1, -1)
        out.append(mag * signs)
    return out


def make_holder_truth(spec: HolderTruthSpec, basis: WaveletBasis) -> GridFunction:
    """Truth with |<f0, psi_lk>| = R 2^{-l(1/2+alpha)} at every computed level.

    The scaling coefficient is zero, so besov_norm(result, alpha) = R.
    """
    from .wavelets import CoefficientTree

    levels = truth_coefficients(spec, basis.L_max)
    tree = CoefficientTree(0.0, tuple(levels))
    return basis.synthesize(tree)


def make_density_truth(spec: DensityTruthSpec, basis: WaveletBasis):
    """Normalized density exp(g0 - c(g0)) with g0 from the Holder ball.

    Returns (density, filled DensityTruthSpec recording rho0 and D0).
    """
    g0 = make_holder_truth(spec.log_spec, basis)
    f0 = normalize_log(g0)
    filled = DensityTruthSpec(
        spec.log_spec, rho0=float(f0.values.min()), d0=float(f0.values.max())
    )
    return f0, filled


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
