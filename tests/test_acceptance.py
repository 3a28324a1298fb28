"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line with its headline numbers (visible with
pytest -s or in the captured output of a verbose run).  Tolerances are fixed
here, not tuned at runtime.  Slope windows are calibration choices for the
desk-scale budgets; the asymptotic targets are -alpha/(2 alpha + 1).

Budget note: criteria 1-5 and 10 run in seconds; 6-8 take a few minutes
together; 9 runs the full MCMC budget (~3 minutes).
"""
import json
import time

import numpy as np
import pytest
from scipy import integrate

import supnorm
from supnorm import density as dens
from supnorm import whitenoise as wn
from supnorm.cli import main
from supnorm.functions import HolderTruthSpec, make_holder_truth
from supnorm.rates import cutoff, fit_rate, run_experiment
from supnorm.wavelets import WaveletIndex, build_basis, level_slice

from oracles import besov_norm, grid_columns, mean_masses


def _report(name, runtime, detail):
    print(f"\nACCEPTANCE {name}: PASS ({detail}; {runtime:.1f}s)")


def test_criterion_1_wavelet_suite():
    t0 = time.time()
    # Haar orthonormality: disjoint same-level supports give exact zeros;
    # everything else is within an ulp of float(sqrt 2) arithmetic
    haar = build_basis("haar", 8, 10)
    N = 2 ** haar.resolution
    cols = grid_columns(haar)
    B = cols / np.sqrt(N)
    G = B.T @ B
    dev = np.abs(G - np.eye(haar.dim)).max()
    assert dev < 1e-14
    for l in (3, 5, 8):
        blk = cols[:, level_slice(l)]
        off = blk.T @ blk / N - np.diag(np.diag(blk.T @ blk / N))
        assert np.all(off == 0.0)

    smooth = build_basis("boundary-smooth", 5, 10, order=4)
    smooth_dev = smooth.gram_deviation()
    assert smooth_dev < 1e-6

    for l in range(9):
        assert haar.localisation_sum(l) / 2.0 ** (l / 2.0) == 1.0

    rng = np.random.default_rng(0)
    flat = rng.normal(size=smooth.dim)
    f = smooth.synthesize(flat)
    parseval_gap = abs((f ** 2).mean() - (flat ** 2).sum())
    assert parseval_gap < 1e-8

    rt = time.time() - t0
    assert rt < 10.0
    _report("1 wavelet suite",
            rt, f"haar dev {dev:.1e}, smooth gram {smooth_dev:.1e}, "
                f"parseval {parseval_gap:.1e}")


def test_criterion_2_besov_oracle():
    t0 = time.time()
    haar = build_basis("haar", 8, 10)
    alpha = 1.0
    worst = 0.0
    for l in range(9):
        for k in (0, 2 ** l - 1, 2 ** (l - 1) if l else 0):
            f = haar.function(WaveletIndex(l, k))
            got = besov_norm(f, alpha, haar)
            want = 2.0 ** (l * (0.5 + alpha))
            if l % 2 == 0:
                assert got == want  # bitwise: even-level values are dyadic
            else:
                assert got == pytest.approx(want, rel=1e-15)
            worst = max(worst, abs(got - want) / want)
    rt = time.time() - t0
    assert rt < 1.0
    _report("2 besov oracle", rt, f"max rel gap {worst:.1e} over l <= 8")


def test_criterion_3_conjugacy_oracle():
    t0 = time.time()
    # brute-force quadrature of the Beta posterior from the likelihood
    num = integrate.quad(lambda w: w * w ** 3 * (1 - w), 0, 1, epsabs=1e-14)[0]
    den = integrate.quad(lambda w: w ** 3 * (1 - w), 0, 1, epsabs=1e-14)[0]
    oracle = num / den
    params = dens.histogram_posterior(np.ones(2), np.array([3, 1]))
    gap = abs(mean_masses(params)[0] - oracle)
    assert gap < 1e-10
    assert abs(mean_masses(params)[1] - (1.0 - oracle)) < 1e-10

    rng = np.random.default_rng(1)
    worst = 0.0
    for trial in range(20):
        total = rng.integers(0, 30, size=8)
        split = rng.binomial(total, 0.4)
        base = np.full(8, 0.5)
        once = dens.histogram_posterior(base, total)
        # the posterior after `split` is the prior of the rest of the counts
        mid = dens.histogram_posterior(base, split)
        twice = dens.histogram_posterior(mid, total - split)
        worst = max(worst, np.abs(once - twice).max())
    assert worst < 1e-12
    rt = time.time() - t0
    assert rt < 1.0
    _report("3 conjugacy oracle", rt,
            f"mean gap {gap:.1e}, sequential gap {worst:.1e}")


def test_criterion_4_mcmc_vs_conjugate():
    t0 = time.time()
    # 2-bin histogram in log parametrization: logistic coefficient with
    # sigma_0 = 1/2 pushes forward to the uniform D(1,1) prior on bin mass
    basis = build_basis("haar", 0, 8)
    sample = dens.point_counts(np.array([0.1, 0.2, 0.3, 0.7]), basis.resolution)
    assert dens.bin_counts(sample, 1).tolist() == [3, 1]
    prior = dens.LogDensityPriorSpec("logistic", alpha=1.0, cutoff_level=0, scale=0.5)
    chain = dens.logdensity_mcmc(prior, sample, basis, dens.McmcConfig(), seed=5)
    assert chain.converged
    vals = chain.density_values(basis)
    omega0 = vals[:, : vals.shape[1] // 2].mean(axis=1) / 2.0
    gap = abs(omega0.mean() - 2.0 / 3.0)
    assert gap < 0.02
    rt = time.time() - t0
    assert rt < 60.0
    _report("4 mcmc vs conjugate", rt, f"|mean - 2/3| = {gap:.4f} (20k iters)")


def test_criterion_5_laplace_transform_bound():
    t0 = time.time()
    reps = 200
    ratios = {}
    for n in (2 ** 8, 2 ** 12):
        _, L_n = cutoff(n, 1.0)
        basis = build_basis("haar", L_n + 2, 10)
        prior = wn.ProductPriorSpec(
            "uniform", 1.0, truncation_level=L_n + 2, bound=2.0
        )
        # the basis stops at the truncation level L_n + 2, so x observes levels 0..L_n + 2
        x = np.array([
            wn.simulate_wn(
                basis.analyze(make_holder_truth(HolderTruthSpec(1.0, 1.0, seed=rep), basis)),
                n, seed=10_000 + rep,
            )
            for rep in range(reps)
        ])
        worst = 0.0
        for t in (-2.0, -1.0, 1.0, 2.0):
            for l in range(L_n + 1):
                for k in range(2 ** l):
                    est = wn.laplace_check(x, n, prior, l, k, t)
                    worst = max(worst, est / np.exp(t * t / 2.0))
        ratios[n] = worst
    assert max(ratios.values()) <= 10.0
    stability = max(ratios.values()) / min(ratios.values())
    assert stability <= 2.0
    rt = time.time() - t0
    assert rt < 300.0
    _report("5 laplace bound", rt,
            f"C(2^8)={ratios[256]:.3f}, C(2^12)={ratios[4096]:.3f}, "
            f"stability {stability:.3f}")


def test_criterion_6_uniform_prior_slope():
    t0 = time.time()
    cfg = supnorm.ExperimentConfig(
        model="white-noise", alpha=1.0, prior_family="uniform",
        bound=2.0, radius=1.0,
        n_grid=(2 ** 8, 2 ** 10, 2 ** 12, 2 ** 14, 2 ** 16),
        replications=20, draws=200, master_seed=2024,
    )
    fit = fit_rate(run_experiment(cfg), regressor="nlogn")
    assert -0.40 <= fit.slope <= -0.27
    rt = time.time() - t0
    assert rt < 900.0
    _report("6 uniform-prior slope", rt,
            f"slope {fit.slope:.4f} (se {fit.stderr:.4f}, target -1/3)")


def test_criterion_7_exp_power_slope():
    t0 = time.time()
    cfg = supnorm.ExperimentConfig(
        model="white-noise", alpha=1.0, prior_family="exp-power",
        delta=1.0, radius=1.0,
        n_grid=(2 ** 8, 2 ** 10, 2 ** 12, 2 ** 14, 2 ** 16),
        replications=20, draws=200, master_seed=2024,
    )
    fit = fit_rate(run_experiment(cfg), regressor="nlogn")
    assert -0.40 <= fit.slope <= -0.27
    rt = time.time() - t0
    assert rt < 1200.0
    _report("7 exp-power slope", rt,
            f"slope {fit.slope:.4f} (se {fit.stderr:.4f}, target -1/3)")


def test_criterion_8_histogram_slope():
    t0 = time.time()
    cfg = supnorm.ExperimentConfig(
        model="density-histogram", alpha=0.75, radius=1.0,
        n_grid=(2 ** 10, 2 ** 12, 2 ** 14, 2 ** 16, 2 ** 18),
        replications=20, draws=2000, master_seed=2024,
    )
    fit = fit_rate(run_experiment(cfg), regressor="nlogn")
    assert -0.38 <= fit.slope <= -0.22
    rt = time.time() - t0
    assert rt < 600.0
    _report("8 histogram slope", rt,
            f"slope {fit.slope:.4f} (se {fit.stderr:.4f}, target -0.3)")


def test_criterion_9_logdensity_decreasing_losses():
    t0 = time.time()
    cfg = supnorm.ExperimentConfig(
        model="density-logdensity", alpha=1.0, coefficient_law="gaussian",
        r=0.5, n_grid=(500, 2000, 8000), replications=8, draws=200,
        master_seed=2024,
    )
    recs = run_experiment(cfg)
    assert all(r.flag == 0 for r in recs)
    med_sup, med_hell = [], []
    for n in cfg.n_grid:
        rows = [r for r in recs if r.n == n]
        med_sup.append(np.median([r.sup_loss for r in rows]))
        med_hell.append(np.median([r.hellinger_loss for r in rows]))
    assert med_sup[0] > med_sup[1] > med_sup[2]
    assert med_hell[0] > med_hell[1] > med_hell[2]
    slope = fit_rate(recs, regressor="nlogn").slope  # reported, not gated
    rt = time.time() - t0
    assert rt < 3600.0
    _report("9 log-density decrease", rt,
            f"median sup {med_sup[0]:.3f} > {med_sup[1]:.3f} > {med_sup[2]:.3f}, "
            f"hellinger {med_hell[0]:.4f} > {med_hell[1]:.4f} > {med_hell[2]:.4f}, "
            f"slope {slope:.3f} (ungated)")


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.time()
    cfg = {
        "model": "density-histogram", "alpha": 0.75, "n_grid": [64, 256],
        "replications": 2, "draws": 20, "master_seed": 13,
    }
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for i, threads in enumerate((None, 1, 4)):
        out = tmp_path / f"out{i}"
        argv = ["simulate", str(cfg_path), "--out", str(out)]
        if threads:
            argv += ["--threads", str(threads)]
        assert main(argv) == 0
        outs.append((out / "records.csv").read_bytes())
    assert outs[0] == outs[1] == outs[2]
    rt = time.time() - t0
    assert rt < 60.0
    _report("10 cli determinism", rt,
            f"{len(outs[0])} csv bytes identical across thread counts")
