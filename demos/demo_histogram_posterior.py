"""Random dyadic histograms: conjugate posterior and its contraction.

A Dirichlet prior on the 2^L bin masses of a dyadic histogram updates in
closed form by the bin counts.  This script walks through one posterior and
then traces the sup-norm loss curve over a growing sample size.
"""
import numpy as np

from supnorm import (
    ExperimentConfig,
    bin_counts,
    draw_histogram_values,
    fit_rate,
    histogram_posterior,
    run_experiment,
    sample_data,
)
from supnorm.functions import HolderTruthSpec, make_density_truth
from supnorm.grids import GridFunction
from supnorm.wavelets import build_basis

# --- one posterior, step by step -----------------------------------------
basis = build_basis("haar", L_max=6, J=12)
truth = make_density_truth(HolderTruthSpec(alpha=0.75, radius=1.0, seed=1), basis)
print(f"truth density range: [{truth.values.min():.3f}, {truth.values.max():.3f}], "
      f"integral {truth.quad():.6f}")

sample = sample_data(truth, n=4000, seed=2)  # counts on the 2^12 grid cells
L = 4
counts = bin_counts(sample, L)
alphas = np.ones(2 ** L)  # the flat Dirichlet prior, alpha_k = 1 on 2^L bins
params = histogram_posterior(alphas, counts)  # alpha_k + N_k
print(f"level L = {L}: counts head {counts[:4]}, posterior params head "
      f"{params[:4]}")

values = draw_histogram_values(params, m=500, seed=3)  # (500, 2^L) bin values
grid_values = np.repeat(values, truth.values.size // 2 ** L, axis=1)
draws = [GridFunction(row) for row in grid_values]
sup_losses = [np.abs(d.values - truth.values).max() for d in draws]
print(f"posterior-expected sup loss  : {np.mean(sup_losses):.4f}")
print(f"0.9 posterior quantile (sup) : {np.quantile(sup_losses, 0.9):.4f}")
print(f"all draws integrate to one   : "
      f"{max(abs(d.quad() - 1.0) for d in draws):.2e}")

# --- the loss curve and its slope -----------------------------------------
cfg = ExperimentConfig(
    model="density-histogram", alpha=0.75, radius=1.0,
    n_grid=(2 ** 10, 2 ** 12, 2 ** 14, 2 ** 16, 2 ** 18),
    replications=8, draws=500, master_seed=7,
)
records = run_experiment(cfg)
print("\n  n        L_n bins   mean sup loss   mean Hellinger")
from supnorm import cutoff
for n in cfg.n_grid:
    rows = [r for r in records if r.n == n]
    _, L_n = cutoff(n, cfg.alpha)
    print(f"  2^{int(np.log2(n)):2d}     {2**L_n:4d}       "
          f"{np.mean([r.sup_loss for r in rows]):.4f}          "
          f"{np.mean([r.hellinger_loss for r in rows]):.4f}")

fit = fit_rate(records, regressor="nlogn")
print(f"\nslope {fit.slope:.4f} +- {fit.stderr:.4f} "
      f"(minimax exponent for alpha = 0.75 is -0.3)")
