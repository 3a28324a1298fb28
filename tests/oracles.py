"""Reference functions the tests use; the package itself never needs them."""
import numpy as np

from supnorm import density as dens, rates, whitenoise as wn
from supnorm.functions import HolderTruthSpec, make_holder_truth, normalize_log
from supnorm.wavelets import WaveletBasis, WaveletIndex, level_slice


def constant(J: int, c: float = 1.0) -> np.ndarray:
    return np.full(2 ** J, float(c))


def besov_norm(f: np.ndarray, s: float, basis: WaveletBasis) -> float:
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


def eval_haar(idx: WaveletIndex, x):
    """Haar wavelet 2^{l/2} psi(2^l x - k) at points x in [0, 1].

    psi = -1 on [0, 1/2], +1 on (1/2, 1]; the support interval is closed to
    the left only when k = 0, so the supports at a level tile [0, 1].
    """
    x = np.asarray(x, dtype=float)
    l, k = idx.level, idx.position
    y = np.ldexp(x, l) - k
    if k == 0:
        inside = (y >= 0.0) & (y <= 1.0)
    else:
        inside = (y > 0.0) & (y <= 1.0)
    sign = np.where(y <= 0.5, -1.0, 1.0)
    out = np.where(inside, sign * 2.0 ** (l / 2.0), 0.0)
    return out if out.ndim else float(out)


def haar_columns(L_max: int, J: int) -> np.ndarray:
    """(2^J, 2^(L_max+1)) Haar basis on the full grid: the constant 1, then
    `eval_haar` of each wavelet up to level L_max at the grid midpoints."""
    N = 2 ** J
    mids = (np.arange(N) + 0.5) / N
    return np.column_stack(
        [np.ones(N)]
        + [eval_haar(WaveletIndex(l, k), mids) for l in range(L_max + 1) for k in range(2 ** l)]
    )


def grid_columns(basis: WaveletBasis) -> np.ndarray:
    """(N, dim) grid samples of the basis: each stored row repeated over its
    r = `block_size` grid points."""
    return np.repeat(basis.columns(basis.dim), basis.block_size, axis=0)


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


def step_rms(centred: np.ndarray, css: float, size: int) -> np.ndarray:
    """Root mean square over a `size`-point grid of step rows minus g.

    `centred` holds each row's K values minus g's block means (last axis)
    and `css` g's centred sum of squares, so that the sum over the grid is
    (size / K) sum_k centred_k^2 + css.
    """
    return np.sqrt(((size // centred.shape[-1]) * np.square(centred).sum(axis=-1) + css) / size)


def hellinger_rows(values: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Unnormalized Hellinger distance, h^2 = integral (sqrt f - sqrt g)^2,
    of each row f of `values` (K step values) to the grid vector g, from
    the per-block mean and centred sum of squares of sqrt(g).  Values down
    to -1e-12 are clamped to zero; anything more negative is not a density.
    """
    root = step_blocks(np.sqrt(np.clip(g, 0.0, None)), values.shape[-1])
    root_mean, root_css = block_moments(root)
    if values.min() < -1e-12 or g.min() < -1e-12:
        raise ValueError("density values below -1e-12")
    return step_rms(np.sqrt(np.clip(values, 0.0, None)) - root_mean, root_css, g.size)


def reference_log_gamma_draws(rng: np.random.Generator, shapes: np.ndarray, m: int) -> np.ndarray:
    """`density._log_gamma_draws` masking draws rather than bins: the shapes
    broadcast to (m, K), and the draws of each group taken as one flat array
    in row order."""
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


def mean_masses(params) -> np.ndarray:
    """Posterior mean bin masses of the Dirichlet parameters `params`."""
    return params / params.sum()


def grid_counts(points, J: int) -> np.ndarray:
    """Counts of the points in the cells (k 2^-J, (k+1) 2^-J] of [0, 1], 0
    in the first cell: cell k holds the points with k interior edges below
    them, found by a binary search of the edges."""
    N = 2 ** J
    return np.bincount(np.searchsorted(np.arange(1, N) / N, points), minlength=N)


def sample_points(f0: np.ndarray, n: int, seed: int) -> np.ndarray:
    """The n points whose cell counts `density.sample_data` returns: the
    inverse-CDF keys of its stream, their cells found by a binary search
    (a key above cum[-1] gets cell N), each point placed uniformly in its
    cell by a second stream of n uniforms and clipped to [0, 1]."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(11,)))
    probs = np.clip(f0, 0.0, None)
    cum = np.cumsum(probs / probs.sum())
    cells = np.searchsorted(cum, rng.uniform(size=n), side="left")
    x = (cells + rng.uniform(size=n)) / f0.size
    return np.clip(x, 0.0, 1.0)


def coord_pdf(table) -> np.ndarray:
    """The weights of a `whitenoise.coord_posterior` table over their trapezoid sum."""
    thetas, weights, _ = table
    return weights / np.trapezoid(weights, thetas)


def coord_expectation(table, fn) -> float:
    """Posterior expectation of fn(theta) by the trapezoid rule on a
    `coord_posterior` table."""
    thetas = table[0]
    return float(np.trapezoid(fn(thetas) * coord_pdf(table), thetas))


def coord_cdf(table) -> np.ndarray:
    """Trapezoid integral of a `coord_posterior` table's pdf up to each grid
    point, scaled to end at 1."""
    pdf = coord_pdf(table)
    cdf = np.empty_like(pdf)
    cdf[0] = 0.0
    np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(table[0]), out=cdf[1:])
    cdf /= cdf[-1]
    return cdf


def coord_mean(table) -> float:
    """Posterior mean of a `coord_posterior` table by the trapezoid rule."""
    return coord_expectation(table, lambda t: t)


def interpolated_draws(table, u) -> np.ndarray:
    """Inverse-CDF draws of a `coord_posterior` table by interpolation on its
    normalised cdf."""
    return np.interp(u, coord_cdf(table), table[0])


def table_draws(table, u) -> np.ndarray:
    """Inverse-CDF draws on a `coord_posterior` table as the white-noise
    sampler makes them: u cum[-1] interpolated among the unnormalised
    `cum`, then clipped to the window [thetas[0], thetas[-1]]."""
    thetas, _, cum = table
    return np.clip(np.interp(np.multiply(u, cum[-1]), cum, thetas), thetas[0], thetas[-1])


def loss_summary(rows) -> tuple:
    """(sup, l2, hellinger, q90_sup) of per-draw loss rows: the means of the
    rows, None for an absent Hellinger row, and the sup row's 0.9 quantile."""
    hellinger = float(np.mean(rows[2])) if len(rows) == 3 else None
    return float(np.mean(rows[0])), float(np.mean(rows[1])), hellinger, float(np.quantile(rows[0], 0.9))


def coordinate_rng(seed, j: int) -> np.random.Generator:
    """The stream of flat coordinate j, built alone: spawn key (l + 1, k) for
    wavelet (l, k) at j, and (0, 0) for the scaling coordinate."""
    l = j.bit_length() - 1
    key = (l + 1, j - level_slice(l).start) if j else (0, 0)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def reference_records(cfg) -> list:
    """The records of `rates.run_experiment(cfg)`, cell by cell in (n, rep)
    order, with each model written out as its own branch."""
    basis = rates.plan_basis(cfg)
    truths = []
    for rep in range(cfg.replications):
        spec = HolderTruthSpec(cfg.alpha, cfg.radius, rates._truth_seed(cfg, rep), cfg.truth_kind)
        g0 = make_holder_truth(spec, basis)
        if cfg.model == "white-noise":
            truths.append((g0, basis.analyze(g0)))
        else:
            truths.append((normalize_log(g0), None))
    return [_reference_cell(cfg, basis, truths[rep], n, rep)
            for n in cfg.n_grid for rep in range(cfg.replications)]


def _reference_cell(cfg, basis, truth, n, rep):
    f0, coeffs = truth
    data_seed = rates._derived_seed(cfg.master_seed, rates._TAG_DATA, n, rep)
    draw_seed = rates._derived_seed(cfg.master_seed, rates._TAG_DRAWS, n, rep)
    _, L_n = rates.cutoff(n, cfg.alpha)

    if cfg.model == "white-noise":
        L_trunc = min(L_n + 2, basis.L_max)
        prior = cfg.prior_spec(L_trunc)
        x = wn.simulate_wn(coeffs[:level_slice(L_trunc).stop], n, data_seed)
        flat = wn.draw_posterior_coefficients(x, n, prior, cfg.draws, draw_seed)
        values = basis.synthesize_flat(flat)
        sup, l2, _, q90 = loss_summary(dens.posterior_expected_losses(values, f0, densities=False))
        return rates.LossRecord(
            cfg.model, cfg.prior_label, cfg.alpha, n, rep,
            sup, l2, None, q90, wn.truncation_bias_bound(prior), data_seed,
        )

    if cfg.model == "density-histogram":
        prior = cfg.prior_spec(L_n)
        counts = dens.sample_data(f0, n, data_seed)
        params = dens.histogram_posterior(prior, dens.bin_counts(counts, L_n))
        values = dens.draw_histogram_values(params, cfg.draws, draw_seed)
        losses = loss_summary(dens.posterior_expected_losses(values, f0, densities=True))
        return rates.LossRecord(
            cfg.model, cfg.prior_label, cfg.alpha, n, rep, *losses, None, data_seed,
        )

    prior = cfg.prior_spec(min(L_n, basis.L_max))
    counts = dens.sample_data(f0, n, data_seed)
    chain = dens.logdensity_mcmc(prior, counts, basis, cfg.mcmc, draw_seed)
    losses = loss_summary(chain.expected_losses(basis, f0))
    return rates.LossRecord(
        cfg.model, cfg.prior_label, cfg.alpha, n, rep, *losses,
        None, data_seed, flag=0 if chain.converged else 1,
    )
