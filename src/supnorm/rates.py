"""Experiment orchestration: loss curves over an n-grid and rate fitting.

Every (n, replication) cell of every model runs the same stages:

- truth: a function from the replication seed, shared by the n-grid of its
  replication (`plan_truths`);
- data: white-noise observations, or an i.i.d. sample of the density;
- posterior: the product prior's coordinate posteriors, the Dirichlet
  update of the histogram, or the log-density MCMC chain;
- draws: posterior draws on the grid;
- losses: each draw's sup/L2(/Hellinger) loss; their means and the sup
  loss's 0.9 quantile make one `LossRecord` (`_run_cell`).

The model facts these stages read are stated once, in `_MODELS`.  Log-log
regression of the mean loss against n / log n (the regressor carrying the
logarithmic factor of the minimax sup-norm rate) gives the empirical
contraction slope, compared to -alpha/(2 alpha + 1).
"""
from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .grids import check_number
from .functions import HolderTruthSpec, make_density_truth, make_holder_truth
from .wavelets import WaveletBasis, build_basis, check_basis_args, level_slice
from . import density as dens
from . import whitenoise as wn


class _Model(NamedTuple):
    # config keys only this model reads: another model's config must leave
    # them at their defaults, so a stray key is reported, never hashed
    keys: tuple
    basis_kind: str  # default basis kind
    truth_levels: int  # basis levels above the largest prior cutoff L_n
    # cells run on threads: histogram cells spend their time in GIL-free
    # numpy, while the MCMC and white-noise quadrature hold the GIL between
    # short numpy calls, so two of their cells side by side run slower
    threaded: bool


_MODELS = {
    # prior truncation L_n + 2, truth two levels deeper
    "white-noise": _Model(("prior_family", "bound", "delta"), "haar", 4, False),
    # Haar-built truths carry the exact dyadic alpha-modulus that drives
    # bin-approximation error; smooth truths are available via basis_kind
    "density-histogram": _Model(("dirichlet_alpha",), "haar", 2, True),
    "density-logdensity": _Model(
        ("coefficient_law", "r", "tau", "prior_scale", "mcmc"), "boundary-smooth", 2, False
    ),
}
MODELS = tuple(_MODELS)

_TAG_TRUTH = 1
_TAG_DATA = 2
_TAG_DRAWS = 3


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _check_alpha(alpha) -> None:
    check_number("alpha", alpha)
    if alpha <= 0:
        raise ValueError("alpha must be > 0")


def target_exponent(alpha: float) -> float:
    """Minimax sup-norm exponent alpha / (2 alpha + 1)."""
    _check_alpha(alpha)
    return alpha / (2.0 * alpha + 1.0)


def cutoff(n: int, alpha: float) -> tuple[float, int]:
    """Bandwidth h_n = (n/log n)^{-1/(2 alpha + 1)} and L_n = floor(log2(1/h_n))."""
    check_number("n", n, integer=True, minimum=3)
    _check_alpha(alpha)
    h = (n / np.log(n)) ** (-1.0 / (2.0 * alpha + 1.0))
    L = int(np.floor(np.log2(1.0 / h)))
    return float(h), L


@dataclass
class ExperimentConfig:
    model: str
    alpha: float
    n_grid: tuple
    radius: float = 1.0
    replications: int = 20
    draws: int = 200
    master_seed: int = 1
    grid_resolution: int | None = None
    basis_kind: str | None = None  # default: haar for white noise, smooth otherwise
    basis_order: int = 4
    truth_kind: str = "signed-coefficient"
    # white-noise priors
    prior_family: str = "uniform"
    bound: float = 2.0
    delta: float = 1.0
    # histogram prior
    dirichlet_alpha: float = 1.0
    # log-density prior
    coefficient_law: str = "gaussian"
    r: float = 0.5
    tau: float = 0.5
    prior_scale: float = 1.0
    mcmc: dens.McmcConfig = field(default_factory=dens.McmcConfig)
    threads: int = 1

    def __post_init__(self):
        # checks no spec owns; every other rule is checked by building the
        # specs, the mcmc settings and the basis plan the run will use
        if self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r}")
        try:
            for name, minimum in _INTEGER_FIELDS.items():
                check_number(name, getattr(self, name), integer=True, minimum=minimum)
            if self.grid_resolution is not None:
                check_number("grid_resolution", self.grid_resolution, integer=True, minimum=1)
            if not isinstance(self.n_grid, (list, tuple)) or not self.n_grid:
                raise ValueError("n-grid must be a non-empty list of integers")
            ns = tuple(self.n_grid)
            for v in ns:
                check_number("n-grid entries", v, integer=True, minimum=3)
            if list(ns) != sorted(set(ns)):
                raise ValueError("n-grid must be strictly increasing")
            self.n_grid = tuple(int(v) for v in ns)
            self.truth_spec(0)
            self.prior_spec(0)
            if isinstance(self.mcmc, dict):
                unknown = sorted(set(self.mcmc) - {f.name for f in fields(dens.McmcConfig)})
                if unknown:
                    raise ValueError(f"unknown mcmc keys: {unknown}")
                self.mcmc = dens.McmcConfig(**self.mcmc)
            _basis_args(self)
        except ValueError as e:
            raise ConfigError(str(e)) from None
        if not isinstance(self.mcmc, dens.McmcConfig):
            raise ConfigError("mcmc must be an object of MCMC settings")
        for model, facts in _MODELS.items():
            # no default is a bool, and a bool is no number, though True == 1.0
            stray = [k for k in facts.keys if model != self.model
                     and (isinstance(v := getattr(self, k), (bool, np.bool_)) or v != _DEFAULTS[k])]
            if stray:
                raise ConfigError(
                    f"{', '.join(stray)}: read only by the {model} model, not by {self.model}"
                )
        uniform = self.model == "white-noise" and self.prior_family == "uniform"
        if uniform and self.bound <= self.radius:
            raise ConfigError(
                f"uniform prior needs B > R (got B={self.bound}, R={self.radius})"
            )
        # stacklevel 3: past the generated __init__, at the code building the config
        if len(ns) < 3 or ns[-1] < 16 * ns[0]:
            warnings.warn(
                "n-grid smaller than 3 points spanning a factor 16; "
                "rate fits on this run will be refused or unreliable",
                stacklevel=3,
            )
        if self.replications < 5:
            warnings.warn("fewer than 5 replications per n", stacklevel=3)

    def truth_spec(self, rep: int) -> HolderTruthSpec:
        """Truth of replication `rep` (its log-density for density models)."""
        return HolderTruthSpec(self.alpha, self.radius, _truth_seed(self, rep), self.truth_kind)

    def prior_spec(self, level: int):
        """The model's prior, truncated at `level`: its spec, or for the
        histogram its 2^level Dirichlet parameters."""
        if self.model == "white-noise":
            return wn.ProductPriorSpec(
                self.prior_family, self.alpha, level, bound=self.bound, delta=self.delta
            )
        if self.model == "density-histogram":
            check_number("dirichlet_alpha", self.dirichlet_alpha)
            if self.dirichlet_alpha <= 0:
                raise ValueError("dirichlet_alpha must be > 0")
            return np.full(2 ** level, float(self.dirichlet_alpha))
        return dens.LogDensityPriorSpec(
            self.coefficient_law, self.alpha, level,
            r=self.r, tau=self.tau, scale=self.prior_scale,
        )

    @property
    def prior_label(self) -> str:
        if self.model == "white-noise":
            return self.prior_family
        if self.model == "density-histogram":
            # :g keeps six digits; an alpha it would round is written in full
            a = self.dirichlet_alpha
            return f"dirichlet({a:g})" if float(f"{a:g}") == a else f"dirichlet({float(a)!r})"
        return self.coefficient_law


_DEFAULTS = {
    f.name: f.default_factory() if f.default is MISSING else f.default
    for f in fields(ExperimentConfig)
    if any(f.name in facts.keys for facts in _MODELS.values())
}

# integer field -> least value (grid_resolution, which may be None, apart)
_INTEGER_FIELDS = {"replications": 1, "draws": 1, "master_seed": 0, "basis_order": 1, "threads": 1}


CSV_HEADER = (
    "model,prior,alpha,n,rep,sup_loss,l2_loss,hellinger_loss,"
    "q90_sup,trunc_bias,seed,flag"
)


@dataclass(frozen=True)
class LossRecord:
    model: str
    prior: str
    alpha: float
    n: int
    rep: int
    sup_loss: float
    l2_loss: float
    hellinger_loss: float | None
    q90_sup: float
    trunc_bias: float | None
    seed: int
    flag: int = 0

    def to_csv_row(self) -> str:
        def f(v):
            return "" if v is None else repr(float(v))

        return (
            f"{self.model},{self.prior},{float(self.alpha)!r},{self.n},{self.rep},"
            f"{f(self.sup_loss)},{f(self.l2_loss)},{f(self.hellinger_loss)},"
            f"{f(self.q90_sup)},{f(self.trunc_bias)},{self.seed},{self.flag}"
        )


def write_records(path, records) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in records:
            fh.write(r.to_csv_row() + "\n")


def read_records(path) -> list[LossRecord]:
    """The records of a CSV written by `write_records`.

    ValueError, naming the line, for a row that cannot be pooled honestly:
    an alpha that is not a finite positive number, n < 1, a loss that is
    not finite or is negative, a flag other than 0 and 1, a negative rep,
    or a second row for the same (n, rep) cell of one (model, prior,
    alpha) group.
    """
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unrecognized loss-record CSV header")
    out = []
    cells = set()
    for lineno, ln in enumerate(lines[1:], start=2):
        if not ln:
            continue
        parts = ln.split(",")
        if len(parts) != 12:
            raise ValueError(f"line {lineno}: malformed CSV row: {ln!r}")
        try:
            rec = LossRecord(
                model=parts[0],
                prior=parts[1],
                alpha=float(parts[2]),
                n=int(parts[3]),
                rep=int(parts[4]),
                sup_loss=float(parts[5]),
                l2_loss=float(parts[6]),
                hellinger_loss=float(parts[7]) if parts[7] else None,
                q90_sup=float(parts[8]),
                trunc_bias=float(parts[9]) if parts[9] else None,
                seed=int(parts[10]),
                flag=int(parts[11]),
            )
        except ValueError as e:
            raise ValueError(f"line {lineno}: {e}") from None
        if not (np.isfinite(rec.alpha) and rec.alpha > 0.0):
            raise ValueError(f"line {lineno}: alpha must be finite and > 0, got {rec.alpha}")
        if rec.n < 1:
            raise ValueError(f"line {lineno}: n must be >= 1, got {rec.n}")
        losses = (rec.sup_loss, rec.l2_loss, rec.hellinger_loss, rec.q90_sup, rec.trunc_bias)
        if not all(np.isfinite(v) and v >= 0.0 for v in losses if v is not None):
            raise ValueError(f"line {lineno}: losses must be finite and >= 0: {ln!r}")
        if rec.flag not in (0, 1):
            raise ValueError(f"line {lineno}: flag must be 0 or 1, got {rec.flag}")
        if rec.rep < 0:
            raise ValueError(f"line {lineno}: rep must be >= 0, got {rec.rep}")
        cell = (rec.model, rec.prior, rec.alpha, rec.n, rec.rep)
        if cell in cells:
            raise ValueError(f"line {lineno}: a second record of cell (n={rec.n}, rep={rec.rep})")
        cells.add(cell)
        out.append(rec)
    return out


def _derived_seed(master: int, tag: int, n: int, rep: int) -> int:
    ss = np.random.SeedSequence(master, spawn_key=(tag, n, rep))
    return int(ss.generate_state(1, dtype=np.uint64)[0] % (2 ** 63))


def _truth_seed(cfg: ExperimentConfig, rep: int) -> int:
    # truth depends on the replication only, so loss curves over the n-grid
    # track a fixed function per replication
    return _derived_seed(cfg.master_seed, _TAG_TRUTH, 0, rep)


def _basis_args(cfg: ExperimentConfig) -> tuple[str, int, int]:
    """(kind, L_max, J): deep enough for the largest prior cutoff plus truth margin."""
    facts = _MODELS[cfg.model]
    kind = cfg.basis_kind or facts.basis_kind
    L_max = cutoff(max(cfg.n_grid), cfg.alpha)[1] + facts.truth_levels
    J = check_basis_args(kind, L_max, cfg.grid_resolution, cfg.basis_order)
    return kind, L_max, J


def plan_basis(cfg: ExperimentConfig) -> WaveletBasis:
    kind, L_max, J = _basis_args(cfg)
    return build_basis(kind, L_max, J, order=cfg.basis_order)


def _check_basis(cfg: ExperimentConfig, basis: WaveletBasis) -> None:
    """Refuse a basis other than the plan's: it would change the records."""

    def key(kind, L_max, J, order):
        return (kind, L_max, J) + ((order,) if kind == "boundary-smooth" else ())

    plan = key(*_basis_args(cfg), cfg.basis_order)
    got = key(basis.kind, basis.L_max, basis.resolution, basis.order)
    if got != plan:
        raise ValueError(
            f"basis (kind, L_max, J[, order]) {got} is not the config's plan {plan}"
        )


def plan_truths(cfg: ExperimentConfig, basis: WaveletBasis) -> dict:
    """Truth stage: {rep: (f0, coefficients)}, each replication's truth,
    shared by its n-grid.

    A white-noise truth comes with its analysed coefficients, computed once
    here rather than in every cell; other models carry None.  A truth that
    does not build (its values overflow) or is no density on the grid
    (`check_density`: at a large radius c(T) loses digits) depends on the
    config alone, so it raises ConfigError.
    """
    truths = {}
    for rep in range(cfg.replications):
        try:
            if cfg.model == "white-noise":
                f0 = make_holder_truth(cfg.truth_spec(rep), basis)
            else:
                f0 = make_density_truth(cfg.truth_spec(rep), basis)
                dens.check_density(f0)
        except ValueError as e:
            raise ConfigError(f"the truth of replication {rep} (radius {cfg.radius!r}): {e}") from None
        truths[rep] = f0, basis.analyze(f0) if cfg.model == "white-noise" else None
    return truths


def _run_cell(cfg: ExperimentConfig, basis: WaveletBasis,
              truth: tuple[np.ndarray, np.ndarray | None], n: int, rep: int) -> LossRecord:
    """Data, posterior, draws and losses of one cell, as one `LossRecord`:
    the posterior-expected losses are the means of the per-draw loss rows,
    and `q90_sup` is the 0.9 quantile of the sup row."""
    f0, coeffs = truth
    data_seed = _derived_seed(cfg.master_seed, _TAG_DATA, n, rep)
    draw_seed = _derived_seed(cfg.master_seed, _TAG_DRAWS, n, rep)
    _, L_n = cutoff(n, cfg.alpha)
    trunc_bias, flag = None, 0

    if cfg.model == "white-noise":
        prior = cfg.prior_spec(L_n + 2)
        x = wn.simulate_wn(coeffs[:level_slice(prior.truncation_level).stop], n, data_seed)
        flat = wn.draw_posterior_coefficients(x, n, prior, cfg.draws, draw_seed)
        # Haar rows stay step functions on 2^(L_n+3) bins, reduced exactly per bin
        losses = dens.posterior_expected_losses(basis.synthesize_flat(flat), f0, densities=False)
        trunc_bias = wn.truncation_bias_bound(prior)
    else:
        prior = cfg.prior_spec(L_n)
        counts = dens.sample_data(f0, n, data_seed)
        if cfg.model == "density-histogram":
            params = dens.histogram_posterior(prior, dens.bin_counts(counts, L_n))
            values = dens.draw_histogram_values(params, cfg.draws, draw_seed)
            losses = dens.posterior_expected_losses(values, f0)
        else:
            chain = dens.logdensity_mcmc(prior, counts, basis, cfg.mcmc, draw_seed)
            losses = chain.expected_losses(basis, f0)
            flag = 0 if chain.converged else 1

    hellinger = float(losses[2].mean()) if len(losses) > 2 else None
    return LossRecord(
        cfg.model, cfg.prior_label, cfg.alpha, n, rep,
        float(losses[0].mean()), float(losses[1].mean()), hellinger,
        float(np.quantile(losses[0], 0.9)), trunc_bias, data_seed, flag,
    )


def run_experiment(cfg: ExperimentConfig, basis: WaveletBasis | None = None) -> list[LossRecord]:
    """All (n, replication) cells, deterministic given (config, master seed).

    `basis` defaults to `plan_basis(cfg)`; any other basis raises ValueError.
    `cfg.threads` is a ceiling: only the cells of threaded models (the
    histogram) run on that many threads, largest n first; the cells of
    other models run one after another in the calling thread.  Cells are
    independent with derived seeds, so the dispatch cannot change any
    record; records are returned in (n, rep) order.
    """
    if basis is None:
        basis = plan_basis(cfg)
    else:
        _check_basis(cfg, basis)
    truths = plan_truths(cfg, basis)
    cells = [(n, rep) for n in cfg.n_grid for rep in range(cfg.replications)]

    def work(cell):
        n, rep = cell
        return _run_cell(cfg, basis, truths[rep], n, rep)

    if cfg.threads == 1 or not _MODELS[cfg.model].threaded:
        return [work(c) for c in cells]
    # a cell's cost grows with n: start the costliest first, so that the
    # cells left for the end of the run are short ones
    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        futures = {c: pool.submit(work, c) for c in sorted(cells, key=lambda c: -c[0])}
        return [futures[c].result() for c in cells]


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    stderr: float
    r_squared: float
    regressor: str
    n_points: int
    excluded_rows: int
    target: float

    def to_json_dict(self) -> dict:
        return {
            "slope": self.slope,
            "stderr": self.stderr,
            "target": self.target,
            "regressor": self.regressor,
            "n_points": self.n_points,
            "excluded_rows": self.excluded_rows,
        }


def record_group(records) -> tuple | None:
    """The one (model, prior, alpha) all records share; None for no records.

    Records of different groups are different experiments, with different
    target rates: neither a fit nor a report may pool them.
    """
    groups = sorted({(r.model, r.prior, r.alpha) for r in records})
    if len(groups) > 1:
        raise ValueError(
            f"records mix {len(groups)} (model, prior, alpha) groups {groups}; "
            "fit each group separately"
        )
    return groups[0] if groups else None


def fit_rate(records, regressor: str = "nlogn", loss: str = "sup") -> RateFit:
    """OLS of log(mean loss at n) on log(n/log n) or log n.

    Mean over replications is taken before the log transform; flagged rows
    are excluded and counted.  All records must share one (model, prior,
    alpha): pooling different experiments has no target rate.
    """
    if regressor not in ("nlogn", "n"):
        raise ValueError("regressor must be 'nlogn' or 'n'")
    if loss not in ("sup", "l2", "hellinger"):
        raise ValueError(f"unknown loss {loss!r}; use 'sup', 'l2' or 'hellinger'")
    records = list(records)
    group = record_group(records)
    excluded = sum(1 for r in records if r.flag)
    clean = [r for r in records if not r.flag]
    by_n: dict[int, list[float]] = {}
    for r in clean:
        val = getattr(r, f"{loss}_loss")
        if val is None:
            raise ValueError(f"{r.model} records carry no {loss} loss")
        by_n.setdefault(r.n, []).append(val)
    if len(by_n) < 3:
        raise ValueError(f"need >= 3 distinct n values, have {len(by_n)}")
    ns = np.array(sorted(by_n))
    means = np.array([np.mean(by_n[n]) for n in ns])
    if ns[0] < 2 or not np.all(np.isfinite(means) & (means > 0)):
        raise ValueError("rate fit needs n >= 2 and positive, finite mean losses")
    x = np.log(ns / np.log(ns)) if regressor == "nlogn" else np.log(ns)
    y = np.log(means)
    xbar = x.mean()
    sxx = ((x - xbar) ** 2).sum()
    slope = float(((x - xbar) * (y - y.mean())).sum() / sxx)
    intercept = float(y.mean() - slope * xbar)
    resid = y - (intercept + slope * x)
    dof = max(len(x) - 2, 1)
    stderr = float(np.sqrt((resid ** 2).sum() / dof / sxx))
    sst = ((y - y.mean()) ** 2).sum()
    r2 = float(1.0 - (resid ** 2).sum() / sst) if sst > 0 else 1.0
    return RateFit(
        slope=slope,
        intercept=intercept,
        stderr=stderr,
        r_squared=r2,
        regressor=regressor,
        n_points=len(ns),
        excluded_rows=excluded,
        target=-target_exponent(group[2]),
    )
