"""Log-density priors: Metropolis-Hastings posterior and a sanity oracle.

The density is exp(T - c(T)) with T a truncated wavelet series carrying
i.i.d. coefficients.  Two checks run here:

1. a 2-bin model whose log parametrization matches a Dirichlet prior
   exactly, so the chain can be compared to the conjugate answer;
2. a small contraction run with the Gaussian coefficient prior showing the
   posterior-expected losses shrinking with n.
"""
import numpy as np

from supnorm import McmcConfig, bin_counts, logdensity_mcmc, point_counts
from supnorm.density import LogDensityPriorSpec
from supnorm.functions import HolderTruthSpec, make_density_truth
from supnorm.wavelets import build_basis
from supnorm.density import posterior_expected_losses, sample_data

# --- conjugate cross-check -------------------------------------------------
# With one Haar coefficient at scale 1/2 and a logistic coefficient law, the
# induced prior on the first bin mass is exactly uniform, i.e. Dirichlet(1,1).
basis = build_basis("haar", L_max=0, J=8)
counts = point_counts(np.array([0.1, 0.2, 0.3, 0.7]), J=8)
print("bin counts at L=1:", bin_counts(counts, 1), "-> conjugate mean mass 2/3")

prior = LogDensityPriorSpec("logistic", alpha=1.0, cutoff_level=0, scale=0.5)
chain = logdensity_mcmc(prior, counts, basis, McmcConfig(), seed=5)
vals = chain.density_values(basis)
omega0 = vals[:, : vals.shape[1] // 2].mean(axis=1) / 2
print(f"MCMC posterior mean of bin mass: {omega0.mean():.4f} "
      f"(acceptance {chain.acceptance[0]:.2f}, converged={chain.converged})")

# --- contraction with the Gaussian coefficient prior ------------------------
basis = build_basis("boundary-smooth", L_max=5, J=12, order=4)
truth = make_density_truth(HolderTruthSpec(alpha=1.0, radius=1.0, seed=3), basis)
prior_kw = dict(law="gaussian", alpha=1.0, r=0.5)
cfg = McmcConfig(iterations=8000, burn_in=2000, thin=5)

print("\n  n     sup loss   L2 loss   Hellinger   acceptance by level")
for n in (500, 2000, 8000):
    from supnorm import cutoff
    _, L_n = cutoff(n, 1.0)
    counts = sample_data(truth, n, seed=n)
    prior = LogDensityPriorSpec(cutoff_level=L_n, **prior_kw)
    chain = logdensity_mcmc(prior, counts, basis, cfg, seed=n + 1)
    # each draw's sup, L2 and Hellinger loss; their means are the expected losses
    sup, l2, hellinger = posterior_expected_losses(chain.density_values(basis), truth).mean(axis=1)
    rates = " ".join(f"{a:.2f}" for a in chain.acceptance)
    print(f"  {n:5d}  {sup:.4f}     {l2:.4f}    "
          f"{hellinger:.4f}      [{rates}]")
