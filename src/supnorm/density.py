"""Density estimation on [0, 1]: dyadic histogram and log-density posteriors.

The histogram model is conjugate: a Dirichlet prior on the 2^L bin masses
updates by bin counts, and posterior draws are normalized independent Gamma
variates (with a log-space boost for small shapes, which the allowed
small-alpha Dirichlet parameters make common).

The log-density model exp(T - c(T)), with T a truncated wavelet series, has
no conjugate posterior; a Metropolis-Hastings sampler with per-level block
moves is provided (prior-reversible pCN proposals in the Gaussian case,
random-walk proposals with a prior ratio otherwise).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import DyadicGrid, GridFunction
from .functions import hellinger_rows, log_mean_exp
from .wavelets import WaveletBasis


class NonDensityError(ValueError):
    """Input function is not a probability density on the grid."""


class NonPositiveDensityError(ValueError):
    """Likelihood evaluation needs a strictly positive density."""


@dataclass(frozen=True)
class Sample:
    """n i.i.d. observations in [0, 1]."""

    values: np.ndarray = field(repr=False)
    seed: int = 0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.size and (v.min() < 0.0 or v.max() > 1.0):
            raise ValueError("observations must lie in [0, 1]")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.size


def sample_data(f0: GridFunction, n: int, seed: int) -> Sample:
    """Inverse-CDF draws from the grid density with uniform in-cell placement."""
    vals = f0.values
    if vals.min() < -1e-12 or abs(vals.mean() - 1.0) > 1e-6:
        raise NonDensityError("f0 must be nonnegative with unit integral")
    if n == 0:
        return Sample(np.empty(0), seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(11,)))
    probs = np.clip(vals, 0.0, None)
    cum = np.cumsum(probs / probs.sum())
    u = rng.uniform(size=n)
    cells = np.searchsorted(cum, u, side="left")
    inner = rng.uniform(size=n)
    x = (cells + inner) * f0.grid.cell_width
    return Sample(np.clip(x, 0.0, 1.0), seed)


def bin_counts(sample: Sample, L: int) -> np.ndarray:
    """Counts over the dyadic partition at level L.

    Bins are (k 2^{-L}, (k+1) 2^{-L}], closed to the left at k = 0.
    """
    if L < 0:
        raise ValueError("L must be >= 0")
    nbins = 2 ** L
    if sample.n == 0:
        return np.zeros(nbins, dtype=int)
    k = np.ceil(sample.values * nbins).astype(int) - 1
    k = np.clip(k, 0, nbins - 1)
    return np.bincount(k, minlength=nbins)


@dataclass(frozen=True)
class HistogramPriorSpec:
    """Dirichlet prior on the bin masses of a 2^L-bin dyadic histogram."""

    level: int
    alphas: np.ndarray = field(repr=False)
    a: float = 0.0
    c1: float = 1.0
    c2: float = 1.0

    def __post_init__(self):
        al = np.asarray(self.alphas, dtype=float)
        if al.shape != (2 ** self.level,):
            raise ValueError(f"need 2^{self.level} Dirichlet parameters")
        if al.min() <= 0:
            raise ValueError("Dirichlet parameters must be > 0")
        lo = self.c1 * 2.0 ** (-self.level * self.a)
        if al.min() < lo - 1e-12 or al.max() > self.c2 + 1e-12:
            raise ValueError(
                "Dirichlet parameters violate c1 2^{-La} <= alpha_k <= c2"
            )
        object.__setattr__(self, "alphas", al)

    @staticmethod
    def flat(level: int, alpha: float = 1.0) -> "HistogramPriorSpec":
        return HistogramPriorSpec(
            level, np.full(2 ** level, float(alpha)), a=0.0, c1=alpha, c2=alpha
        )


@dataclass(frozen=True)
class HistogramPosterior:
    """Dirichlet posterior: parameters alpha_k + N_k."""

    level: int
    params: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)

    def mean_masses(self) -> np.ndarray:
        return self.params / self.params.sum()

    def mean_density(self, grid: DyadicGrid) -> GridFunction:
        return step_density(self.mean_masses(), self.level, grid)


def histogram_posterior(prior: HistogramPriorSpec, counts) -> HistogramPosterior:
    counts = np.asarray(counts)
    if counts.shape != prior.alphas.shape:
        raise ValueError(
            f"counts length {counts.shape} does not match 2^{prior.level} bins"
        )
    if counts.min() < 0:
        raise ValueError("counts must be nonnegative")
    return HistogramPosterior(prior.level, prior.alphas + counts, counts.copy())


def step_density(masses: np.ndarray, level: int, grid: DyadicGrid) -> GridFunction:
    """Histogram density 2^L sum_k omega_k 1_{I_k} expanded to the grid."""
    if grid.resolution < level:
        raise ValueError("grid finer than histogram level required")
    rep = grid.size // 2 ** level
    return GridFunction(grid, np.repeat(masses * 2 ** level, rep))


def _log_gamma_draws(rng: np.random.Generator, shapes: np.ndarray, m: int) -> np.ndarray:
    """(m, K) log-Gamma(shape, 1) draws, safe for tiny shapes.

    Shapes >= 0.1 use the library sampler; below that the boost
    G_a = G_{a+1} U^{1/a} is applied in log space, which never underflows.
    """
    K = shapes.size
    sh = np.broadcast_to(shapes, (m, K))
    out = np.empty((m, K))
    big = sh >= 0.1
    if big.any():
        draws = rng.gamma(sh[big])
        out[big] = np.log(np.clip(draws, np.finfo(float).tiny, None))
    small = ~big
    if small.any():
        a = sh[small]
        g1 = rng.gamma(a + 1.0)
        u = rng.uniform(size=a.shape)
        out[small] = np.log(np.clip(g1, np.finfo(float).tiny, None)) + np.log(u) / a
    return out


def dirichlet_draws(rng: np.random.Generator, params: np.ndarray, m: int) -> np.ndarray:
    """(m, K) rows on the simplex via normalized independent Gamma variates."""
    logs = _log_gamma_draws(rng, np.asarray(params, dtype=float), m)
    logs -= logs.max(axis=1, keepdims=True)
    w = np.exp(logs)
    w = np.clip(w, np.finfo(float).tiny, None)
    w /= w.sum(axis=1, keepdims=True)
    return w


def draw_histogram_values(
    post: HistogramPosterior, m: int, seed: int, grid: DyadicGrid
) -> np.ndarray:
    """(m, N) posterior density draws as step functions on the grid."""
    if m < 1:
        raise ValueError("draw count m must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(13,)))
    om = dirichlet_draws(rng, post.params, m)
    rep = grid.size // 2 ** post.level
    return np.repeat(om * 2 ** post.level, rep, axis=1)


def log_likelihood(f: GridFunction, sample: Sample) -> float:
    """sum_i log f(X_i), with f looked up by grid cell."""
    if f.values.min() <= 0.0:
        raise NonPositiveDensityError("density must be strictly positive")
    if sample.n == 0:
        return 0.0
    cells = f.grid.cell_of(sample.values)
    return float(np.log(f.values[cells]).sum())


# --------------------------------------------------------------------------
# log-density priors and MCMC
# --------------------------------------------------------------------------

LOG_LIPSCHITZ_LAWS = ("laplace", "heavy-tail", "logistic")


@dataclass(frozen=True)
class LogDensityPriorSpec:
    """Prior on T = sum_{l<=L_n} sigma_l a_lk psi_lk with i.i.d. a_lk.

    law "gaussian" uses sigma_l = 2^{-l(1/2+r)} with 0 < r <= alpha - 1/4;
    the log-Lipschitz laws (laplace, heavy-tail with 0 <= tau < 1, logistic)
    use sigma_l = 2^{-l alpha}.  `scale` multiplies every sigma_l (the
    log-Lipschitz scaling condition is a lower bound, so a constant factor
    is a free hyperparameter).
    """

    law: str
    alpha: float
    cutoff_level: int
    r: float = 0.5
    tau: float = 0.5
    scale: float = 1.0

    def __post_init__(self):
        if self.law not in ("gaussian",) + LOG_LIPSCHITZ_LAWS:
            raise ValueError(f"unknown coefficient law {self.law!r}")
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")
        if self.cutoff_level < 0:
            raise ValueError("cutoff level must be >= 0")
        if self.law == "gaussian" and not 0.0 < self.r <= self.alpha - 0.25:
            raise ValueError(
                f"gaussian log-density prior requires 0 < r <= alpha - 1/4 "
                f"(got r={self.r}, alpha={self.alpha})"
            )
        if self.law == "heavy-tail" and not 0.0 <= self.tau < 1.0:
            raise ValueError("heavy-tail prior requires 0 <= tau < 1")
        if self.scale <= 0:
            raise ValueError("scale must be > 0")

    def sigma(self, level: int) -> float:
        if self.law == "gaussian":
            return self.scale * 2.0 ** (-level * (0.5 + self.r))
        return self.scale * 2.0 ** (-level * self.alpha)

    def log_phi(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=float)
        if self.law == "gaussian":
            return -0.5 * a ** 2
        if self.law == "laplace":
            return -np.abs(a)
        if self.law == "logistic":
            return -a - 2.0 * np.log1p(np.exp(-np.clip(a, -700, None)))
        return -(1.0 + np.abs(a)) ** (1.0 - self.tau)

    def draw_standardized(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.law == "gaussian":
            return rng.standard_normal(size)
        if self.law == "laplace":
            return rng.laplace(size=size)
        if self.law == "logistic":
            return rng.logistic(size=size)
        # heavy-tail phi_{H,tau}: rejection from Laplace envelope
        return _heavy_tail_draws(rng, self.tau, size)


def _heavy_tail_draws(rng: np.random.Generator, tau: float, size) -> np.ndarray:
    """Exact draws from c_tau exp(-(1+|x|)^{1-tau}).

    With W = (1 + |X|)^{1-tau}, the change of variables shows W follows a
    Gamma(1/(1-tau), 1) truncated to [1, inf); sampling W by rejection on
    the untruncated Gamma and mapping back is exact.
    """
    size = (size,) if np.isscalar(size) else tuple(size)
    total = int(np.prod(size))
    beta = 1.0 / (1.0 - tau)
    w = np.empty(total)
    filled = 0
    while filled < total:
        cand = rng.gamma(beta, size=2 * (total - filled) + 8)
        good = cand[cand >= 1.0]
        take = min(total - filled, good.size)
        w[filled:filled + take] = good[:take]
        filled += take
    mag = w ** (1.0 / (1.0 - tau)) - 1.0
    signs = rng.integers(0, 2, size=total) * 2.0 - 1.0
    return (signs * mag).reshape(size)


@dataclass
class McmcConfig:
    iterations: int = 20000
    burn_in: int = 5000
    thin: int = 5
    target_acceptance: float = 0.3
    adapt_every: int = 25

    def __post_init__(self):
        if self.burn_in < 0:
            raise ValueError("mcmc burn_in must be >= 0")
        if self.iterations < self.burn_in + 100:
            raise ValueError("mcmc iterations must exceed burn_in + 100")
        if self.thin < 1:
            raise ValueError("mcmc thin must be >= 1")
        if self.adapt_every < 1:
            raise ValueError("mcmc adapt_every must be >= 1")
        if not 0.0 < self.target_acceptance < 1.0:
            raise ValueError("mcmc target_acceptance must lie in (0, 1)")


@dataclass
class McmcChain:
    """Thinned post-burn-in states of the standardized coefficients."""

    states: np.ndarray = field(repr=False)  # (kept, K)
    sigmas: np.ndarray = field(repr=False)  # (K,) per-coefficient scale
    level_slices: list = field(repr=False)
    acceptance: np.ndarray = field(repr=False)  # per level, post burn-in
    step_scales: np.ndarray = field(repr=False)
    burn_in: int = 0
    thin: int = 1
    converged: bool = True

    def density_values(self, basis: WaveletBasis, rows: slice = slice(None)) -> np.ndarray:
        """(kept, N) posterior density draws on the grid, or those of `rows`."""
        B = _wavelet_columns(basis, len(self.level_slices) - 1)
        T = (self.states[rows] * self.sigmas) @ B.T
        T -= log_mean_exp(T)[:, None]
        return np.exp(T, out=T)

    def expected_losses(self, basis: WaveletBasis, f0: GridFunction) -> "LossSummary":
        """`posterior_expected_losses` of the density draws, a block of draws at a
        time: no cell holds all (kept, N) values, so threads do not add them up."""
        return LossSummary.of_draws(*(
            posterior_expected_losses(self.density_values(basis, rows), f0).per_draw
            for rows in _row_blocks(len(self.states), basis.grid.size)
        ))


def _wavelet_columns(basis: WaveletBasis, L: int) -> np.ndarray:
    """Columns of the wavelets for levels 0..L (no scaling column)."""
    if L > basis.L_max:
        raise ValueError(f"cutoff level {L} beyond basis L_max={basis.L_max}")
    return basis.columns[:, 1:2 ** (L + 1)]


def logdensity_mcmc(
    prior: LogDensityPriorSpec,
    sample: Sample,
    basis: WaveletBasis,
    cfg: McmcConfig | None = None,
    seed: int = 0,
) -> McmcChain:
    """Metropolis-Hastings over the standardized coefficients a_lk.

    Gaussian law: per-level pCN proposals a' = sqrt(1-beta^2) a + beta xi
    with xi a fresh prior draw, accepted with the likelihood ratio alone.
    Log-Lipschitz laws: per-level Gaussian random walks with the prior ratio
    in the acceptance probability.  Scales adapt toward acceptance 0.3
    during burn-in and are frozen afterwards.  A chain whose post-burn-in
    acceptance leaves [0.1, 0.6] on any level is flagged (never silently
    returned as clean).
    """
    cfg = cfg or McmcConfig()
    L = prior.cutoff_level
    B = _wavelet_columns(basis, L)
    N = basis.grid.size
    K = B.shape[1]
    sigmas = np.concatenate(
        [np.full(2 ** l, prior.sigma(l)) for l in range(L + 1)]
    )
    slices = []
    pos = 0
    for l in range(L + 1):
        slices.append(slice(pos, pos + 2 ** l))
        pos += 2 ** l

    counts = np.bincount(
        basis.grid.cell_of(sample.values), minlength=N
    ).astype(float) if sample.n else np.zeros(N)
    n = sample.n

    def loglik(T: np.ndarray) -> float:
        return float(counts @ T - n * log_mean_exp(T))

    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(17,)))
    a = prior.draw_standardized(rng, K)
    T = B @ (sigmas * a)
    ll = loglik(T)

    gaussian = prior.law == "gaussian"
    scales = np.full(L + 1, 0.5)  # beta_l for pCN, step for random walk
    acc_win = np.zeros(L + 1)
    try_win = np.zeros(L + 1)
    acc_post = np.zeros(L + 1)
    try_post = np.zeros(L + 1)
    kept = []

    for it in range(cfg.iterations):
        in_burn = it < cfg.burn_in
        for l in range(L + 1):
            sl = slices[l]
            a_blk = a[sl]
            if gaussian:
                beta = min(scales[l], 1.0)
                xi = prior.draw_standardized(rng, a_blk.size)
                a_new = np.sqrt(1.0 - beta ** 2) * a_blk + beta * xi
                log_prior_ratio = 0.0
            else:
                step = scales[l]
                a_new = a_blk + step * rng.standard_normal(a_blk.size)
                log_prior_ratio = float(
                    prior.log_phi(a_new).sum() - prior.log_phi(a_blk).sum()
                )
            T_new = T + B[:, sl] @ (sigmas[sl] * (a_new - a_blk))
            ll_new = loglik(T_new)
            log_ratio = ll_new - ll + log_prior_ratio
            if np.log(rng.uniform()) < log_ratio:
                a[sl] = a_new
                T = T_new
                ll = ll_new
                acc_win[l] += 1
                if not in_burn:
                    acc_post[l] += 1
            try_win[l] += 1
            if not in_burn:
                try_post[l] += 1
        if in_burn and (it + 1) % cfg.adapt_every == 0:
            rate = acc_win / np.maximum(try_win, 1)
            scales *= np.exp(0.66 * (rate - cfg.target_acceptance))
            scales = np.clip(scales, 1e-3, 1.0 if gaussian else 10.0)
            acc_win[:] = 0
            try_win[:] = 0
        if not in_burn and (it - cfg.burn_in) % cfg.thin == 0:
            kept.append(a.copy())

    rates = acc_post / np.maximum(try_post, 1)
    ok = bool(np.all((rates >= 0.1) & (rates <= 0.6)))
    return McmcChain(
        states=np.array(kept),
        sigmas=sigmas,
        level_slices=slices,
        acceptance=rates,
        step_scales=scales,
        burn_in=cfg.burn_in,
        thin=cfg.thin,
        converged=ok,
    )


# grid values reduced at once (1 MiB of float64), whatever the draw count
_BLOCK_VALUES = 2 ** 17


def _row_blocks(m: int, width: int) -> list[slice]:
    """Slices covering range(m), of about _BLOCK_VALUES / width rows each."""
    k = max(1, min(m, -(-m * width // _BLOCK_VALUES)))
    return [slice(m * i // k, m * (i + 1) // k) for i in range(k)]


@dataclass(frozen=True)
class LossSummary:
    sup: float
    l2: float
    hellinger: float | None
    q90_sup: float
    # (sup, l2[, hellinger]) loss of each draw, one row per loss
    per_draw: np.ndarray = field(repr=False, compare=False)

    @classmethod
    def of_draws(cls, *parts: np.ndarray) -> "LossSummary":
        """Summary of the per-draw losses `parts`, concatenated in order."""
        d = np.concatenate(parts, axis=1)
        hell = float(d[2].mean()) if len(d) > 2 else None
        return cls(float(d[0].mean()), float(d[1].mean()), hell, float(np.quantile(d[0], 0.9)), d)


def posterior_expected_losses(draws, f0: GridFunction, densities: bool = True) -> LossSummary:
    """Monte Carlo average of sup/L2(/Hellinger) losses over posterior draws.

    `draws` is a list of GridFunctions or an array of draw values (rows).
    Also reports the 0.9 quantile of the sup loss over draws.  Density draws
    below -1e-12 raise `functions.NegativeDensityError`.  The draws are
    reduced a block of rows at a time, with the same result per draw.
    """
    if isinstance(draws, np.ndarray):
        values = draws
    else:
        draws = list(draws)
        if not draws:
            raise ValueError("need at least one draw")
        values = np.vstack([d.values for d in draws])

    def losses(v):
        diff = v - f0.values
        rows = [np.abs(diff).max(axis=1), np.sqrt((diff ** 2).mean(axis=1))]
        return np.array(rows + [hellinger_rows(v, f0.values)] if densities else rows)

    return LossSummary.of_draws(*(losses(values[rows]) for rows in _row_blocks(*values.shape)))
