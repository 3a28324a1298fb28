"""Density estimation on [0, 1]: dyadic histogram and log-density posteriors.

The histogram model is conjugate: a Dirichlet prior on the 2^L bin masses
updates by bin counts, and posterior draws are normalized independent Gamma
variates (with a log-space boost for small shapes, which the allowed
small-alpha Dirichlet parameters make common).  A draw is kept as its 2^L
bin values, never expanded to the grid: its sup, L2 and Hellinger losses
are exact finite sums over bins, from the minimum, maximum, mean and
centred sum of squares of f0 (and of sqrt f0) on each bin
(`posterior_expected_losses`).

The log-density model exp(T - c(T)), with T a truncated wavelet series, has
no conjugate posterior; a Metropolis-Hastings sampler with per-level block
moves is provided (prior-reversible pCN proposals in the Gaussian case,
random-walk proposals with a prior ratio otherwise).  Its kernel uses exact
reductions only: each level's wavelets, scaled by sigma_l, are stored once
as contiguous (2^l, N) rows R_l, and the data term sum_i T(X_i) = counts . T
of a level move by d changes by d . s_l with s_l = R_l counts (that is,
s = B^T counts, precomputed), so it costs O(2^l) instead of O(N).  The
normaliser term needs only c(T + X) - c(T) for X = d R_l, and with kept
weights E = e^(T - max T) that difference is exact:

    c(T + X) - c(T) = log(sum_i E_i e^(X_i) / sum_i E_i),

so a proposal costs one grid exp and one grid dot, and an accept multiplies
E by e^X in place; T itself is never formed in the loop.  Each accept's
product adds rounding to E, so every `_REFRESH` iterations E and its sum
are recomputed exactly from the coefficients (`log_mean_exp` writes
e^(T - max T) into its scratch), which keeps the log ratio within about
n 1e-14 of the direct one.  The chain is the one the direct evaluation of
counts . T - n c(T) gives, up to the rounding of the log ratio.

The kept draws are expanded to the grid and reduced a block of about 1 MiB
of values at a time (`McmcChain.expected_losses`, `posterior_expected_losses`).
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .grids import GridFunction
from .functions import block_moments, hellinger_rows, log_mean_exp, step_blocks, step_rms
from .wavelets import WaveletBasis


class NonDensityError(ValueError):
    """Input function is not a probability density on the grid."""


@dataclass(frozen=True)
class Sample:
    """n i.i.d. observations in [0, 1]."""

    values: np.ndarray = field(repr=False)
    seed: int = 0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.size and not (v.min() >= 0.0 and v.max() <= 1.0):  # a NaN min or max fails
            raise ValueError("observations must be finite and lie in [0, 1]")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.size


def sample_data(f0: GridFunction, n: int, seed: int) -> Sample:
    """Inverse-CDF draws from the grid density with uniform in-cell placement.

    The cell of a uniform key u is the number of CDF entries below u, found
    exactly by `_guided_search`; keys above cum[-1] get cell N and land at 1.
    """
    check_number("n", n, integer=True, minimum=0)
    vals = f0.values
    if vals.min() < -1e-12 or abs(vals.mean() - 1.0) > 1e-6:
        raise NonDensityError("f0 must be nonnegative with unit integral")
    if n == 0:
        return Sample(np.empty(0), seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(11,)))
    probs = np.clip(vals, 0.0, None)
    cum = np.cumsum(probs / probs.sum())
    # rng.random is rng.uniform(size=n) bit for bit, without its affine pass
    u = rng.random(n)
    cells = _guided_search(cum, u)
    x = rng.random(n)
    x += cells
    x *= f0.grid.cell_width
    return Sample(np.clip(x, 0.0, 1.0, out=x), seed)


def _guided_search(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """`np.searchsorted(cum, u, side="left")`, bit for bit, for a
    non-decreasing table whose size is a power of two and keys in [0, 1).

    Guide table (Chen and Asau 1974): M = 4 cum.size buckets of width 1/M,
    so that u M and b / M are exact.  Bucket b = floor(u M) holds the number
    of entries below its left edge b / M, a lower bound on the answer for
    every key in it; the few keys with more entries below them step forward
    one entry at a time.  Where f0 is small a bucket spans many entries:
    with one bucket per entry the scan takes about 1 / min f0 passes (22
    on the criterion-8 truth), with four buckets about a quarter of that.
    """
    M = 4 * cum.size
    start = np.searchsorted(cum, np.arange(M) / M)
    cells = start[(u * M).astype(np.intp)]
    ext = np.append(cum, np.inf)
    todo = np.flatnonzero(ext[cells] < u)
    while todo.size:
        cells[todo] += 1
        todo = todo[ext[cells[todo]] < u[todo]]
    return cells


def bin_counts(sample: Sample, L: int) -> np.ndarray:
    """Counts over the dyadic partition at level L.

    Bins are (k 2^{-L}, (k+1) 2^{-L}], closed to the left at k = 0.
    """
    if L < 0:
        raise ValueError("L must be >= 0")
    nbins = 2 ** L
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


def histogram_posterior(prior: HistogramPriorSpec, counts) -> HistogramPosterior:
    counts = np.asarray(counts)
    if counts.shape != prior.alphas.shape:
        raise ValueError(
            f"counts length {counts.shape} does not match 2^{prior.level} bins"
        )
    if counts.min() < 0:
        raise ValueError("counts must be nonnegative")
    return HistogramPosterior(prior.level, prior.alphas + counts)


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


def draw_histogram_values(post: HistogramPosterior, m: int, seed: int) -> np.ndarray:
    """(m, 2^L) posterior density draws: the bin values omega_k 2^L of each
    draw, a step function on the 2^L dyadic bins.  `m` must be an integer
    >= 1 (ValueError)."""
    check_number("draw count m", m, integer=True, minimum=1)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(13,)))
    return dirichlet_draws(rng, post.params, m) * 2 ** post.level


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


def check_number(name: str, value, integer: bool = False, minimum=None) -> None:
    """Raise ValueError unless `value` is a finite real number (an integer if
    `integer`), not a bool, and at least `minimum` when one is given."""
    kind = numbers.Integral if integer else numbers.Real
    if (isinstance(value, (bool, np.bool_)) or not isinstance(value, kind)
            or not (integer or math.isfinite(value))):
        what = "an integer" if integer else "a finite number"
        raise ValueError(f"{name} must be {what} (got {value!r})")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum} (got {value!r})")


@dataclass
class McmcConfig:
    iterations: int = 20000
    burn_in: int = 5000
    thin: int = 5
    target_acceptance: float = 0.3
    adapt_every: int = 25

    def __post_init__(self):
        for name, minimum in (("iterations", 1), ("burn_in", 0), ("thin", 1), ("adapt_every", 1)):
            check_number(f"mcmc {name}", getattr(self, name), integer=True, minimum=minimum)
        if self.iterations < self.burn_in + 100:
            raise ValueError("mcmc iterations must exceed burn_in + 100")
        check_number("mcmc target_acceptance", self.target_acceptance)
        if not 0.0 < self.target_acceptance < 1.0:
            raise ValueError("mcmc target_acceptance must lie in (0, 1)")


@dataclass
class McmcChain:
    """Thinned post-burn-in states of the standardized coefficients."""

    states: np.ndarray = field(repr=False)  # (kept, K)
    sigmas: np.ndarray = field(repr=False)  # (K,) per-coefficient scale
    acceptance: np.ndarray = field(repr=False)  # per level, post burn-in
    step_scales: np.ndarray = field(repr=False)
    converged: bool = True

    def density_values(self, basis: WaveletBasis, rows: slice = slice(None)) -> np.ndarray:
        """(kept, N) posterior density draws on the grid, or those of `rows`."""
        T = (self.states[rows] * self.sigmas) @ basis.columns[:, 1:self.sigmas.size + 1].T
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


def _level_moves(prior: LogDensityPriorSpec, sample: Sample, basis: WaveletBasis) -> list:
    """(slice, [R_l | s_l]) per level: a move of the level's standardized
    coefficients by d changes T by d @ R_l, with R_l = sigma_l times the
    level's wavelets as (2^l, N) rows, and sum_i T(X_i) by d @ s_l, with
    s_l = R_l @ counts of the sample's grid cells.  s_l is column N of the
    contiguous (2^l, N + 1) matrix, so one product gives both."""
    B = _wavelet_columns(basis, prior.cutoff_level)
    cells = basis.grid.cell_of(sample.values)
    counts = np.bincount(cells, minlength=basis.grid.size).astype(float)
    moves = []
    for l in range(prior.cutoff_level + 1):
        sl = slice(2 ** l - 1, 2 ** (l + 1) - 1)
        R = prior.sigma(l) * np.ascontiguousarray(B[:, sl].T)
        moves.append((sl, np.column_stack([R, R @ counts])))
    return moves


# MCMC iterations between exact recomputations of the kept weights E
_REFRESH = 25


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

    The log likelihood ratio of a level move by d, with X = d R_l, is
    d . s_l - n log(E . e^X / sum E), on the terms `_level_moves`
    precomputes and the kept weights E = e^(T - max T): the log term is
    c(T + X) - c(T) exactly (see the module docstring).  That is one grid
    exp and one grid dot per proposal, and one grid product E *= e^X per
    accept.  E is recomputed from the coefficients every `_REFRESH`
    iterations, so the rounding of those products does not build up.
    """
    cfg = cfg or McmcConfig()
    L = prior.cutoff_level
    # a contiguous copy: the product with the strided columns is about twice as slow
    B = np.ascontiguousarray(_wavelet_columns(basis, L))
    N = basis.grid.size
    K = B.shape[1]
    sigmas = np.concatenate(
        [np.full(2 ** l, prior.sigma(l)) for l in range(L + 1)]
    )
    levels = _level_moves(prior, sample, basis)
    n = float(sample.n)

    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(17,)))
    # the gaussian law's draw_standardized is rng.standard_normal itself, and
    # rng.random() is rng.uniform() (0 + 1 * the same double) without its overhead
    normal, uniform = rng.standard_normal, rng.random
    a = prior.draw_standardized(rng, K)
    # E = e^(T - max T) at the last refresh, times the e^X of each accept
    # since; G = [X | d . s_l] of the current proposal, then X becomes e^X
    E, G = np.empty(N), np.empty(N + 1)
    X = G[:N]

    def refresh() -> float:
        """Recompute E exactly from a, in place, and return S = sum E."""
        log_mean_exp(B @ (sigmas * a), E)
        return float(E.sum())

    S = refresh()

    gaussian = prior.law == "gaussian"
    log_phi, add = prior.log_phi, np.add.reduce
    # log prior of the current block of each level (random-walk ratio)
    log_prior = [0.0 if gaussian else float(add(log_phi(a[sl]))) for sl, _ in levels]
    scales = np.full(L + 1, 0.5)  # beta_l for pCN, step for random walk

    def step_sizes(scales):
        """Per-level steps and pCN shrink factors sqrt(1 - beta^2), as floats."""
        steps = [min(float(s), 1.0) if gaussian else float(s) for s in scales]
        return steps, [math.sqrt(1.0 - b ** 2) for b in steps] if gaussian else None

    steps, shrink = step_sizes(scales)
    accepted = [0] * (L + 1)  # since the last adaptation, then after burn-in
    burn_in, thin, adapt_every = cfg.burn_in, cfg.thin, cfg.adapt_every
    states = np.empty((-(-(cfg.iterations - burn_in) // thin), K))
    # (level, view of its block of a, block size, [R_l | s_l])
    moves = [(l, a[sl], sl.stop - sl.start, Rs) for l, (sl, Rs) in enumerate(levels)]
    dot, exp, log = np.dot, np.exp, math.log

    for it in range(cfg.iterations):
        if it == burn_in:
            accepted = [0] * (L + 1)
        for l, a_blk, size, Rs in moves:
            if gaussian:
                a_new = shrink[l] * a_blk + steps[l] * normal(size)
                log_prior_ratio = 0.0
            else:
                a_new = a_blk + steps[l] * normal(size)
                lp_new = float(add(log_phi(a_new)))
                log_prior_ratio = lp_new - log_prior[l]
            d = a_new - a_blk
            dot(d, Rs, out=G)
            exp(X, out=X)
            S_new = float(dot(E, X))
            if log(uniform()) < G.item(N) - n * log(S_new / S) + log_prior_ratio:
                a_blk[...] = a_new
                E *= X
                S = S_new
                if not gaussian:
                    log_prior[l] = lp_new
                accepted[l] += 1
        if (it + 1) % _REFRESH == 0:
            S = refresh()
        if it < burn_in:
            if (it + 1) % adapt_every == 0:
                rate = np.array(accepted, dtype=float) / adapt_every
                scales *= np.exp(0.66 * (rate - cfg.target_acceptance))
                scales = np.clip(scales, 1e-3, 1.0 if gaussian else 10.0)
                steps, shrink = step_sizes(scales)
                accepted = [0] * (L + 1)
        elif (it - burn_in) % thin == 0:
            states[(it - burn_in) // thin] = a

    rates = np.array(accepted, dtype=float) / max(cfg.iterations - burn_in, 1)
    ok = bool(np.all((rates >= 0.1) & (rates <= 0.6)))
    return McmcChain(
        states=states,
        sigmas=sigmas,
        acceptance=rates,
        step_scales=scales,
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

    `draws` is a list of GridFunctions or an array of draw rows.  A row of K
    values is a step function on K dyadic blocks of f0's grid (K = N: grid
    values; K must be a power-of-two divisor of N), and its losses are exact,
    from per-block statistics of f0 taken once per call: the sup loss is
    max_k max(c_k - min_k f0, max_k f0 - c_k) and the L2 loss `step_rms`.
    Also reports the 0.9 quantile of the sup loss over draws.  Density draws
    below -1e-12 raise `functions.NegativeDensityError`, and draws whose
    losses are not finite (a NaN or infinite value) raise ValueError.

    The draws are reduced a block of rows at a time, with the same result
    per draw.  Each block's differences from f0's block statistics, their
    squares and the Hellinger root differences are all worked in one
    (rows, K) scratch taken once per call: fresh MiB temporaries per block
    can be handed back to the kernel when freed and fault their pages back
    in on the next block.  The arithmetic, and so every loss bit, is the
    same as with fresh arrays.
    """
    values = draws if isinstance(draws, np.ndarray) else np.array([d.values for d in draws])
    if len(values) == 0:
        raise ValueError("need at least one draw")
    N, K = f0.grid.size, values.shape[1]
    blocks = step_blocks(f0.values, K)
    lo, hi = blocks.min(axis=1), blocks.max(axis=1)
    mean, css = block_moments(blocks)
    row_blocks = _row_blocks(*values.shape)
    scratch = np.empty((max(b.stop - b.start for b in row_blocks), K))

    def losses(c):
        w = np.subtract(c, lo, out=scratch[:len(c)])
        top = w.max(axis=1)
        # one grid point per block (K = N): min, max and mean are f0 itself
        if K < N:
            np.subtract(c, hi, out=w)
        sup = np.maximum(top, -w.min(axis=1))
        if K < N:
            np.subtract(c, mean, out=w)
        rows = [sup, step_rms(w, css, N, out=w)]
        out = np.array(rows + [hellinger_rows(c, f0.values, out=w)] if densities else rows)
        if not np.isfinite(out).all():
            raise ValueError("draws give non-finite losses (a NaN or infinite draw value)")
        return out

    return LossSummary.of_draws(*(losses(values[rows]) for rows in row_blocks))
