"""Density estimation on [0, 1]: dyadic histogram and log-density posteriors.

Both likelihoods see the data only through its counts on dyadic cells, so a
sample is the (2^J,) integer array of those counts on f0's grid, never the
n points: `sample_data` draws inverse-CDF keys a chunk at a time and adds
up the cells they fall in, `point_counts` counts given points, and
`bin_counts`, the one reader of a sample in both models, checks the counts
and sums them to a coarser level.

The histogram model is conjugate: a Dirichlet prior on the 2^L bin masses
updates by bin counts, and posterior draws are normalized independent Gamma
variates (with a log-space boost for small shapes, which the allowed
small-alpha Dirichlet parameters make common).  A draw is kept as its 2^L
bin values, bin-major, never expanded to the grid: its sup, L2 and
Hellinger losses are exact finite sums over bins, from the minimum,
maximum, mean and centred sum of squares of f0 (and of sqrt f0) on each
bin (`posterior_expected_losses`).

The log-density model exp(T - c(T)), with T a truncated wavelet series, has
no conjugate posterior; a Metropolis-Hastings sampler with per-level block
moves is provided (prior-reversible pCN proposals in the Gaussian case,
random-walk proposals with a prior ratio otherwise).  It works on the R
stored rows of the basis, its `columns` (2^(L_max+1) dyadic blocks for
Haar, N grid points for boundary-smooth): the blocks are equal, so c(T) and
the data term are exact sums over them.  Its kernel uses exact reductions
only: each level's wavelets, scaled by sigma_l, are stored once as
contiguous (2^l, R) rows R_l, and the data term sum_i T(X_i) = counts . T
of a level move by d changes by d . s_l with s_l = R_l counts (that is,
s = B^T counts, precomputed), so it costs O(2^l) instead of O(R).  The normaliser term
needs only c(T + X) - c(T) for X = d R_l, and with kept weights
E = e^(T - max T) that difference is exact:

    c(T + X) - c(T) = log(sum_i E_i e^(X_i) / sum_i E_i),

so a proposal costs one exp and one dot over R rows, and an accept multiplies
E by e^X in place; T itself is never formed in the loop.  Each accept's
product adds rounding to E, so every `_REFRESH` iterations E and its sum
are recomputed exactly from the coefficients (`log_mean_exp` writes
e^(T - max T) into its scratch), which keeps the log ratio within about
n 1e-14 of the direct one.  The chain is the one the direct evaluation of
counts . T - n c(T) gives, up to the rounding of the log ratio.

An iteration is one sweep over the levels.  The levels' blocks of
coefficients are disjoint, so no proposal reads a block that another
level's accept can change, and every proposal of a sweep can be made from
the sweep's start state.  The draws are read from the stream in the order
of one level at a time, so the proposals are the same, bit for bit; they,
their moves d and the random-walk prior sums are each one vectorised pass
over all K coefficients, and only the grid work above runs per level.

The kept draws are step rows on the same R blocks, reduced about 1 MiB of
values at a time (`McmcChain.expected_losses`, `posterior_expected_losses`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grids import check_number
from .functions import log_mean_exp
from .wavelets import WaveletBasis


def _grid_values(f0) -> np.ndarray:
    """f0 as a float array; ValueError unless it is 1-D with 2^J values, J >= 1."""
    f0 = np.asarray(f0, dtype=float)
    if f0.ndim != 1 or f0.size < 2 or f0.size & (f0.size - 1):
        raise ValueError(f"f0 must be a 1-D array of 2^J grid values, J >= 1 (got {f0.shape})")
    return f0


def check_density(f0: np.ndarray) -> None:
    """Raise ValueError unless f0 is a density: 2^J values, J >= 1, none
    below -1e-12, and a midpoint-rule integral within 1e-6 of 1 (a NaN fails both)."""
    f0 = _grid_values(f0)
    if not (f0.min() >= -1e-12 and abs(f0.mean() - 1.0) <= 1e-6):
        raise ValueError("f0 must be nonnegative with unit integral")


# inverse-CDF keys drawn and counted at once (256 KiB of float64), whatever n
_CHUNK = 2 ** 15


def sample_data(f0: np.ndarray, n: int, seed: int) -> np.ndarray:
    """The (2^J,) counts of n i.i.d. draws from the grid density f0 on the
    cells (k 2^-J, (k+1) 2^-J] of its grid.

    A draw is an inverse-CDF key u; its cell is the number of CDF entries
    below u, found exactly by `_guided_search`, and a key above cum[-1]
    counts in the last cell.  Keys are drawn and counted `_CHUNK` at a
    time, so no array grows with n.
    """
    check_number("n", n, integer=True, minimum=0)
    check_density(f0)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(11,)))
    probs = np.clip(f0, 0.0, None)
    cum = np.cumsum(probs / probs.sum())
    N = cum.size
    search = _guided_search(cum)
    counts = np.zeros(N, dtype=np.intp)
    for done in range(0, n, _CHUNK):
        # rng.random is rng.uniform bit for bit, without its affine pass, and
        # keys drawn a chunk at a time are the keys of one draw of n
        cells = search(rng.random(min(_CHUNK, n - done)))
        counts += np.bincount(np.minimum(cells, N - 1, out=cells), minlength=N)
    return counts


def point_counts(values, J: int) -> np.ndarray:
    """The (2^J,) counts of the points `values` in [0, 1] on the cells
    (k 2^-J, (k+1) 2^-J], with 0 counted in the first cell."""
    check_number("J", J, integer=True, minimum=0)
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"observations must be a 1-D array (got shape {v.shape})")
    if v.size and not (v.min() >= 0.0 and v.max() <= 1.0):  # a NaN min or max fails
        raise ValueError("observations must be finite and lie in [0, 1]")
    N = 2 ** J
    k = np.ceil(v * N).astype(np.intp) - 1
    return np.bincount(np.clip(k, 0, N - 1, out=k), minlength=N)


def _guide_table(cum: np.ndarray, M: int) -> np.ndarray:
    """`np.searchsorted(cum, np.arange(M) / M)`, counted in O(N + M) for a
    non-negative table `cum` and M a power of two.

    Entry b is the number of entries c below b / M.  Since M is a power of
    two, c M is exact, so c < b / M iff b >= floor(c M) + 1: each entry is
    counted once, at that index (past M it is below no edge), and a running
    sum gives the table with the same integers as the binary searches.
    """
    first = (cum * M).astype(np.intp)  # floor, since cum >= 0
    first += 1
    return np.cumsum(np.bincount(np.minimum(first, M, out=first), minlength=M + 1)[:M])


def _guided_search(cum: np.ndarray):
    """The function `u -> np.searchsorted(cum, u, side="left")`, bit for bit,
    for a non-decreasing, non-negative table whose size is a power of two
    and keys in [0, 1).

    Guide table (Chen and Asau 1974), built once for all the keys searched:
    M = 4 cum.size buckets of width 1/M, so that u M and b / M are exact.
    Bucket b = floor(u M) holds the number of entries below its left edge
    b / M (`_guide_table`, counted, not searched), a lower bound on the
    answer for every key in it; the few keys with more entries below them
    step forward one entry at a time.  Where f0 is small a bucket spans
    many entries: with one bucket per entry the scan takes about
    1 / min f0 passes, with four buckets about a quarter of that.
    """
    M = 4 * cum.size
    start = _guide_table(cum, M)
    ext = np.append(cum, np.inf)

    def search(u: np.ndarray) -> np.ndarray:
        cells = start[(u * M).astype(np.intp)]
        todo = np.flatnonzero(ext[cells] < u)
        while todo.size:
            cells[todo] += 1
            todo = todo[ext[cells[todo]] < u[todo]]
        return cells

    return search


def bin_counts(counts, L: int) -> np.ndarray:
    """Counts over the dyadic partition at level L, for 0 <= L <= J, the
    level of the sample `counts` (non-negative integers on 2^J cells): the
    sums of the counts over 2^(J-L) cells at a time.

    Bins are (k 2^{-L}, (k+1) 2^{-L}], closed to the left at k = 0; each is
    a union of the sample's cells, so the sums are exact.  This is the one
    binning rule, and the one check of a sample, of both density models: the
    histogram's Dirichlet update reads it at its level L_n, and the
    log-density sampler on the basis blocks.
    """
    c = np.asarray(counts)
    if c.ndim != 1 or not c.size or c.size & (c.size - 1):
        raise ValueError(f"counts must be a 1-D array of 2^J cells (got shape {c.shape})")
    if c.dtype.kind not in "iu" or c.min() < 0:
        raise ValueError("counts must be non-negative integers")
    check_number("L", L, integer=True, minimum=0)
    J = c.size.bit_length() - 1
    if L > J:
        raise ValueError(f"level L={L} is finer than the sample's grid J={J}")
    return c.reshape(2 ** L, -1).sum(axis=1)


def histogram_posterior(alphas, counts) -> np.ndarray:
    """The Dirichlet posterior's parameters alpha_k + N_k, from the prior's
    parameters alpha_k (a 1-D array of finite numbers > 0) and the bin
    counts N_k (non-negative integers), one of each per bin."""
    al = np.asarray(alphas)
    # a bool or text array is no array of numbers, and a NaN fails both bounds
    if (al.ndim != 1 or not al.size or al.dtype.kind not in "iuf"
            or not 0.0 < al.min() <= al.max() < math.inf):
        raise ValueError("Dirichlet parameters must be a 1-D array of finite numbers > 0")
    counts = np.asarray(counts)
    if counts.shape != al.shape:
        raise ValueError(
            f"counts length {counts.shape} does not match the {al.size} Dirichlet parameters"
        )
    if counts.dtype.kind not in "iu" or counts.min() < 0:
        raise ValueError("counts must be non-negative integers")
    return al.astype(float, copy=False) + counts


def _log_gamma_draws(rng: np.random.Generator, shapes: np.ndarray, m: int) -> np.ndarray:
    """(m, K) log-Gamma(shape, 1) draws, safe for tiny shapes, in Fortran
    (bin-major) order.

    Bins with shape >= 0.1 use the library sampler (`standard_gamma`, the
    bits of `gamma(shape, 1.0)` without its scale pass); below that the
    boost G_a = G_{a+1} U^{1/a} is applied in log space, which never
    underflows.  Each group is one (m, bins) draw, read from the stream in
    row order.
    """
    tiny = np.finfo(float).tiny
    big = shapes >= 0.1
    if big.all():
        out = np.asfortranarray(rng.standard_gamma(shapes, size=(m, shapes.size)))
        return np.log(np.clip(out, tiny, None, out=out), out=out)
    out = np.empty((m, shapes.size), order="F")
    if big.any():
        g = rng.standard_gamma(shapes[big], size=(m, np.count_nonzero(big)))
        out[:, big] = np.log(np.clip(g, tiny, None, out=g), out=g)
    a = shapes[~big]
    g1 = rng.standard_gamma(a + 1.0, size=(m, a.size))
    u = rng.uniform(size=g1.shape)
    out[:, ~big] = np.log(np.clip(g1, tiny, None, out=g1), out=g1) + np.log(u, out=u) / a
    return out


def dirichlet_draws(rng: np.random.Generator, params: np.ndarray, m: int) -> np.ndarray:
    """(m, K) rows on the simplex via normalized independent Gamma variates.

    The rows are kept in Fortran (bin-major) order, as `_log_gamma_draws`
    gives them: a histogram has only 4-32 bins, and each row's max, sum
    and divide then run over m contiguous values per bin instead of many
    short rows.  A row's sum adds its bins in order.
    """
    w = _log_gamma_draws(rng, np.asarray(params, dtype=float), m)
    w -= w.max(axis=1, keepdims=True)
    np.exp(w, out=w)
    np.clip(w, np.finfo(float).tiny, None, out=w)
    w /= w.sum(axis=1, keepdims=True)
    return w


def draw_histogram_values(params: np.ndarray, m: int, seed: int) -> np.ndarray:
    """(m, 2^L) posterior density draws from the 2^L Dirichlet parameters
    `params` (`histogram_posterior`): the bin values omega_k 2^L of each
    draw, a step function on the 2^L dyadic bins, in the Fortran order of
    `dirichlet_draws`.  `m` must be an integer >= 1 (ValueError)."""
    check_number("draw count m", m, integer=True, minimum=1)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(13,)))
    w = dirichlet_draws(rng, params, m)
    w *= len(params)
    return w


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
        for name in ("alpha", "r", "tau", "scale"):
            check_number(name, getattr(self, name))
        check_number("cutoff level", self.cutoff_level, integer=True, minimum=0)
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")
        if self.law == "gaussian" and not 0.0 < self.r <= self.alpha - 0.25:
            raise ValueError(
                f"gaussian log-density prior requires 0 < r <= alpha - 1/4 "
                f"(got r={self.r}, alpha={self.alpha})"
            )
        if self.law == "heavy-tail":
            if not 0.0 <= self.tau < 1.0:
                raise ValueError("heavy-tail prior requires 0 <= tau < 1")
            # a draw is W^beta - 1 with beta = 1/(1 - tau) and W ~ Gamma(beta), rarely
            # above beta + 10 sqrt(beta); past exp(709.78), the float maximum, it overflows
            beta = 1.0 / (1.0 - self.tau)
            if beta * math.log(beta + 10.0 * math.sqrt(beta)) > 709.78:
                raise ValueError(
                    f"heavy-tail prior with tau={self.tau} draws coefficients that "
                    "overflow a float: tau must be below about 0.9922"
                )
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
            # symmetric in a, and e^(-|a|) <= 1 cannot overflow
            m = np.abs(a)
            return -m - 2.0 * np.log1p(np.exp(-m))
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

    def density_values(self, basis: WaveletBasis, rows: slice = slice(None),
                       out: np.ndarray | None = None) -> np.ndarray:
        """(kept, R) posterior density draws, or those of `rows`: step rows on
        the R stored blocks of the basis (R = N, grid values, for boundary-smooth).
        `out`, a C-ordered (2, r, R) buffer with r at least the number of
        rows, replaces fresh arrays, bit for bit: the draws are written to
        (and returned as a view of) out[0], and out[1] is their normaliser's
        scratch."""
        A = self.states[rows] * self.sigmas
        T, scratch = (None, None) if out is None else out[:, :len(A)]
        T = np.matmul(A, basis.columns(self.sigmas.size + 1)[:, 1:].T, out=T)
        T -= log_mean_exp(T, scratch)[:, None]
        return np.exp(T, out=T)

    def expected_losses(self, basis: WaveletBasis, f0: np.ndarray) -> np.ndarray:
        """The per-draw loss rows of `posterior_expected_losses` of the density
        draws, a block of draws at a time: no cell holds all (kept, R)
        values, so threads do not add them up.  Every block reuses one
        (2, rows, R) buffer for its draws and the scratch of their normaliser
        and losses, so no block faults in fresh pages."""
        R = 2 ** basis.resolution // basis.block_size
        blocks = _row_blocks(len(self.states), R)
        out = np.empty((2, max(b.stop - b.start for b in blocks), R))
        return np.concatenate([
            posterior_expected_losses(self.density_values(basis, rows, out), f0, scratch=out[1])
            for rows in blocks
        ], axis=1)


def _level_moves(prior: LogDensityPriorSpec, counts: np.ndarray, B: np.ndarray) -> list:
    """(slice, [R_l | s_l]) per level of the (R, K) wavelet columns B on R
    equal dyadic blocks: a move of the level's standardized coefficients by
    d changes T by d @ R_l, with R_l = sigma_l times the level's wavelets as
    (2^l, R) rows, and sum_i T(X_i) by d @ s_l, with s_l = R_l @ the sample
    `counts` summed to the R blocks (`bin_counts`).  s_l is column R of the
    contiguous (2^l, R + 1) matrix, so one product gives both."""
    counts = bin_counts(counts, len(B).bit_length() - 1).astype(float)
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
    counts: np.ndarray,
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

    An iteration is one sweep over the levels.  A level's move changes only
    its own block of a, so no proposal reads a block that another level's
    accept can change, and all of a sweep's proposals are made from its
    start state with the bits they would have one level at a time.  The
    draws keep their stream order (per level a normal block, then the
    uniform of its decision).  The proposals, their difference d from a and,
    for the random-walk laws, each level's log prior sum are then one
    vectorised pass over the K coefficients, with each level's step (and
    pCN shrink factor) repeated over its block.  The prior sums are one
    `np.add.reduceat` over the level starts, whose rounding can differ from
    a per-block sum, so the initial sums are taken the same way.

    Then, level by level, the log likelihood ratio of the move by d, with
    X = d R_l, is d . s_l - n log(E . e^X / sum E), on the terms
    `_level_moves` precomputes and the kept weights E = e^(T - max T): the
    log term is c(T + X) - c(T) exactly (see the module docstring).  That
    is one exp and one dot over the R stored rows of the basis per
    proposal, and one product E *= e^X per accept; E carries the accepts
    of the earlier levels into the later ones.  E is recomputed from the
    coefficients every `_REFRESH` iterations, so the rounding of those
    products does not build up.
    """
    cfg = cfg or McmcConfig()
    L = prior.cutoff_level
    if L > basis.L_max:
        raise ValueError(f"cutoff level {L} beyond basis L_max={basis.L_max}")
    # the wavelet columns of levels 0..L, copied once: products run faster on contiguous rows
    B = np.ascontiguousarray(basis.columns(2 ** (L + 1))[:, 1:])
    R, K = B.shape
    sigmas = np.concatenate(
        [np.full(2 ** l, prior.sigma(l)) for l in range(L + 1)]
    )
    levels = _level_moves(prior, counts, B)  # checks the counts
    n = float(np.sum(counts))

    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(17,)))
    # the gaussian law's draw_standardized is rng.standard_normal itself, and
    # rng.random() is rng.uniform() (0 + 1 * the same double) without its overhead
    normal, uniform = rng.standard_normal, rng.random
    a = prior.draw_standardized(rng, K)
    # E = e^(T - max T) at the last refresh, times the e^X of each accept
    # since; G = [X | d . s_l] of the current proposal, then X becomes e^X
    E, G = np.empty(R), np.empty(R + 1)
    X = G[:R]

    def refresh() -> float:
        """Recompute E exactly from a, in place, and return S = sum E."""
        log_mean_exp(B @ (sigmas * a), E)
        return float(E.sum())

    # a prior draw times a large scale can overflow T; that chain cannot start
    with np.errstate(over="ignore", invalid="ignore"):
        S = refresh()
    if not math.isfinite(S):
        raise ValueError(f"the chain's first prior draw overflows a float (prior scale {prior.scale!r})")

    gaussian = prior.law == "gaussian"
    log_phi, starts = prior.log_phi, [sl.start for sl, _ in levels]

    def log_priors(a) -> list:
        """The log prior of each level's block of a, or 0.0 for pCN, which
        needs no prior ratio."""
        return [0.0] * (L + 1) if gaussian else np.add.reduceat(log_phi(a), starts).tolist()

    log_prior = log_priors(a)  # of the current blocks
    scales = np.full(L + 1, 0.5)  # beta_l for pCN, step for random walk

    sizes = [2 ** l for l in range(L + 1)]

    def step_vectors(scales):
        """Per-coefficient copies of the per-level steps and pCN shrink
        factors sqrt(1 - beta^2), each level's float repeated on its block."""
        steps = [min(float(s), 1.0) if gaussian else float(s) for s in scales]
        if not gaussian:
            return np.repeat(steps, sizes), None
        return np.repeat(steps, sizes), np.repeat([math.sqrt(1.0 - b ** 2) for b in steps], sizes)

    step, shrink = step_vectors(scales)
    accepted = [0] * (L + 1)  # since the last adaptation, then after burn-in
    burn_in, thin, adapt_every = cfg.burn_in, cfg.thin, cfg.adapt_every
    states = np.empty((-(-(cfg.iterations - burn_in) // thin), K))
    # a sweep's normal draws, proposal and move; each level reads views of its block
    xi, a_new, d = np.empty(K), np.empty(K), np.empty(K)
    moves = [(l, a[sl], a_new[sl], d[sl], Rs) for l, (sl, Rs) in enumerate(levels)]
    xi_blocks = [xi[sl] for sl, _ in levels]
    u = [0.0] * (L + 1)
    dot, exp, log = np.dot, np.exp, math.log

    # a proposal whose e^X overflows has a NaN or infinite log ratio, and a
    # comparison with NaN is false, so it is rejected: numpy's warning says nothing
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(cfg.iterations):
            if it == burn_in:
                accepted = [0] * (L + 1)
            for l, xi_blk in enumerate(xi_blocks):
                normal(out=xi_blk)
                u[l] = uniform()
            xi *= step
            if gaussian:
                np.multiply(shrink, a, out=a_new)
                a_new += xi
            else:
                np.add(a, xi, out=a_new)
            np.subtract(a_new, a, out=d)
            log_prior_new = log_priors(a_new)
            for l, a_blk, new_blk, d_blk, Rs in moves:
                dot(d_blk, Rs, out=G)
                exp(X, out=X)
                S_new = float(dot(E, X))
                log_prior_ratio = log_prior_new[l] - log_prior[l]
                # a normaliser ratio that underflows to 0 has no log: rejected
                r = S_new / S
                if r > 0.0 and log(u[l]) < G.item(R) - n * log(r) + log_prior_ratio:
                    a_blk[...] = new_blk
                    E *= X
                    S = S_new
                    log_prior[l] = log_prior_new[l]
                    accepted[l] += 1
            if (it + 1) % _REFRESH == 0:
                S = refresh()
            if it < burn_in:
                if (it + 1) % adapt_every == 0:
                    rate = np.array(accepted, dtype=float) / adapt_every
                    scales *= np.exp(0.66 * (rate - cfg.target_acceptance))
                    scales = np.clip(scales, 1e-3, 1.0 if gaussian else 10.0)
                    step, shrink = step_vectors(scales)
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


def posterior_expected_losses(draws, f0: np.ndarray, densities: bool = True,
                              scratch: np.ndarray | None = None) -> np.ndarray:
    """The sup, L2 (and Hellinger) loss of each posterior draw: a (2, m)
    array, or (3, m) with `densities`, one row per loss.

    `draws` is an (m, K) array of draw rows.  A row of K values is a step
    function on K dyadic blocks of f0's grid (K = N: grid values; K must be
    a power-of-two divisor of N), and its losses are exact, from per-block
    statistics of f0 taken once per call: the sup loss is
    max_k max(c_k - min_k f0, max_k f0 - c_k), the squared L2 loss
    ((N / K) sum_k (c_k - mean_k f0)^2 + css) / N with css f0's centred sum
    of squares over the blocks, and the Hellinger loss
    h^2 = integral (sqrt c - sqrt f0)^2 the L2 loss of sqrt c to sqrt f0.
    Their posterior expectations are the rows' means (`rates`).  ValueError
    for an f0 that is not 1-D with 2^J values, J >= 1, for density values
    below -1e-12 in the draws or in f0 (smaller ones are rounding dust,
    clamped to zero), and for losses that are not finite (a NaN or
    infinite value in the draws or in f0).

    The draws are reduced a block of rows at a time, with the same result
    per draw.  Each block's differences from f0's block statistics, their
    squares and the Hellinger root differences are all worked in one
    (rows, K) scratch taken once per call, or in `scratch`, a caller's
    (r, K) buffer with r >= m: fresh MiB temporaries per block can be
    handed back to the kernel when freed and fault their pages back in on
    the next block.  The arithmetic, and so every loss bit, is the same as
    with fresh arrays.  The scratch takes the memory order of the draws (a
    caller's buffer must have it), so Fortran-ordered histogram draws
    (`dirichlet_draws`) are reduced a contiguous bin column at a time.  The
    order changes only how a row's squares are summed: the sup loss is the
    same in either order, and the L2 and Hellinger losses agree to rounding.
    """
    if len(draws) == 0:
        raise ValueError("need at least one draw")
    if not isinstance(draws, np.ndarray):
        raise ValueError(f"draws must be an (m, K) array of rows (got a {type(draws).__name__})")
    if draws.ndim != 2:
        raise ValueError(f"draws must be an (m, K) array of rows (got shape {draws.shape})")
    f0 = _grid_values(f0)
    N, K = f0.size, draws.shape[1]
    if K < 1 or K & (K - 1) or N % K:
        raise ValueError(f"row width {K} is not a power-of-two divisor of the grid size {N}")
    if densities and (draws.min() < -1e-12 or f0.min() < -1e-12):
        raise ValueError("density values below -1e-12")

    def moments(blocks):  # each block's mean, and the centred sum of squares
        mean = blocks.mean(axis=1)
        return mean, float(((blocks - mean[:, None]) ** 2).sum())

    def rms(w, css):  # over the grid, of rows w = c - block means, squared in place
        np.square(w, out=w)
        return np.sqrt(((N // K) * w.sum(axis=1) + css) / N)

    blocks = f0.reshape(K, N // K)
    lo, hi = blocks.min(axis=1), blocks.max(axis=1)
    # an inf in f0 makes inf - inf here; the non-finite losses are refused below
    with np.errstate(invalid="ignore"):
        mean, css = moments(blocks)
        if densities:
            root_mean, root_css = moments(np.sqrt(np.clip(blocks, 0.0, None)))
    row_blocks = _row_blocks(*draws.shape)
    if scratch is None:
        scratch = np.empty((max(b.stop - b.start for b in row_blocks), K),
                           order="F" if np.isfortran(draws) else "C")

    def losses(c):
        w = np.subtract(c, lo, out=scratch[:len(c)])
        top = w.max(axis=1)
        # one grid point per block (K = N): min, max and mean are f0 itself
        if K < N:
            np.subtract(c, hi, out=w)
        sup = np.maximum(top, -w.min(axis=1))
        if K < N:
            np.subtract(c, mean, out=w)
        rows = [sup, rms(w, css)]
        if densities:
            np.sqrt(np.clip(c, 0.0, None, out=w), out=w)
            w -= root_mean
            rows.append(rms(w, root_css))
        out = np.array(rows)
        if not np.isfinite(out).all():
            raise ValueError("non-finite losses (a NaN or infinite value in the draws or in f0)")
        return out

    return np.concatenate([losses(draws[rows]) for rows in row_blocks], axis=1)
