"""Holder-ball truths and the log-density normaliser.

Truths are built directly from wavelet coefficients, so that they saturate
the Besov ball of the computed levels l <= L_max exactly; a truth is the
array of its grid values.  `log_mean_exp` is the one log-normaliser
c(T) = log integral e^T of the package.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import check_number
from .wavelets import WaveletBasis, level_slice


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


def make_holder_truth(spec: HolderTruthSpec, basis: WaveletBasis) -> np.ndarray:
    """Truth with |<f0, psi_lk>| = R 2^{-l(1/2+alpha)} at every computed level.

    The scaling coefficient is zero, so the sup over levels of
    2^{l(1/2+alpha)} |<f0, psi_lk>| is R.  Values that overflow a float
    raise ValueError, the one finiteness check of both kinds of truth.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        f0 = basis.synthesize(truth_coefficients(spec, basis.L_max))
    if not np.isfinite(f0).all():
        raise ValueError("truth values must be finite")
    return f0


def make_density_truth(spec: HolderTruthSpec, basis: WaveletBasis) -> np.ndarray:
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


def normalize_log(t: np.ndarray) -> np.ndarray:
    """exp(T - c(T)) with c(T) = log integral e^T."""
    return np.exp(t - log_mean_exp(t))
