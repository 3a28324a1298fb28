"""Monte Carlo verification of sup-norm posterior contraction rates.

Three Bayesian nonparametric prior families on [0, 1] -- coordinate-wise
wavelet product priors in Gaussian white noise, log-density wavelet priors,
and Dirichlet random dyadic histograms -- together with loss-curve
experiments whose log-log slopes are compared against the minimax exponent
alpha / (2 alpha + 1).
"""

__version__ = "0.1.0"

from .grids import GridFunction
from .wavelets import (
    WaveletBasis,
    WaveletIndex,
    build_basis,
    level_slice,
)
from .functions import (
    HolderTruthSpec,
    make_density_truth,
    make_holder_truth,
)
from .whitenoise import (
    ProductPriorSpec,
    coord_posterior,
    draw_posterior_coefficients,
    laplace_check,
    simulate_wn,
)
from .density import (
    LogDensityPriorSpec,
    McmcChain,
    McmcConfig,
    bin_counts,
    draw_histogram_values,
    histogram_posterior,
    logdensity_mcmc,
    point_counts,
    posterior_expected_losses,
    sample_data,
)
from .rates import (
    ExperimentConfig,
    LossRecord,
    RateFit,
    cutoff,
    fit_rate,
    run_experiment,
    target_exponent,
)

__all__ = [
    "GridFunction",
    "WaveletBasis", "WaveletIndex", "build_basis", "level_slice",
    "HolderTruthSpec", "make_density_truth", "make_holder_truth",
    "ProductPriorSpec", "coord_posterior",
    "draw_posterior_coefficients", "laplace_check", "simulate_wn",
    "LogDensityPriorSpec", "McmcChain", "McmcConfig", "bin_counts",
    "draw_histogram_values", "histogram_posterior",
    "logdensity_mcmc", "point_counts", "posterior_expected_losses",
    "sample_data",
    "ExperimentConfig", "LossRecord", "RateFit", "cutoff", "fit_rate",
    "run_experiment", "target_exponent",
]
