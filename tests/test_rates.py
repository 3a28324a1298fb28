import json
import os
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

import supnorm
from supnorm import rates
from supnorm.wavelets import build_basis
from supnorm.rates import (
    ConfigError,
    ExperimentConfig,
    LossRecord,
    cutoff,
    fit_rate,
    read_records,
    run_experiment,
    target_exponent,
    write_records,
)

from oracles import reference_records

ROOT = Path(__file__).resolve().parents[1]


def synthetic_records(ns, loss_fn, model="white-noise", reps=1, flag_fn=None,
                      alpha=1.0):
    out = []
    for n in ns:
        for rep in range(reps):
            out.append(
                LossRecord(
                    model=model, prior="uniform", alpha=alpha, n=n, rep=rep,
                    sup_loss=loss_fn(n), l2_loss=loss_fn(n) / 2,
                    hellinger_loss=None, q90_sup=loss_fn(n),
                    trunc_bias=0.0, seed=0,
                    flag=flag_fn(n, rep) if flag_fn else 0,
                )
            )
    return out


# a config's records.csv in a fresh interpreter, with OpenBLAS forced onto
# one core type (OPENBLAS_CORETYPE) or on its default; prints the core name
# that OpenBLAS reports, or None where numpy's OpenBLAS cannot be found
_CORE_RUN = """
import ctypes, glob, json, os, sys
import numpy as np
from supnorm.rates import ExperimentConfig, run_experiment, write_records

def corename():
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename"):
            fn = getattr(ctypes.CDLL(path), name, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return None

write_records(sys.argv[2], run_experiment(ExperimentConfig(**json.loads(sys.argv[1]))))
print(json.dumps(corename()))
"""


def _records_under_core(config: dict, core, out) -> tuple:
    """(core name, records.csv bytes) of `config` run under OpenBLAS core `core`."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update(PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
    if core is not None:
        env["OPENBLAS_CORETYPE"] = core
    proc = subprocess.run([sys.executable, "-c", _CORE_RUN, json.dumps(config), str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), out.read_bytes()


# one tiny config per model
TINY = {
    "density-histogram": dict(
        model="density-histogram", alpha=0.75, n_grid=(64, 256, 1024),
        replications=4, draws=25, master_seed=9,
    ),
    "white-noise": dict(
        model="white-noise", alpha=1.0, n_grid=(64, 256, 1024),
        replications=2, draws=10, master_seed=9,
    ),
    "density-logdensity": dict(
        model="density-logdensity", alpha=1.0, n_grid=(100, 400, 1600),
        replications=2, grid_resolution=10, master_seed=9,
        mcmc=dict(iterations=400, burn_in=200, thin=5),
    ),
}


class TestTargetExponent:
    def test_alpha_one(self):
        assert target_exponent(1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_alpha_three_quarters(self):
        assert target_exponent(0.75) == pytest.approx(0.3, abs=1e-15)

    def test_large_alpha_limit(self):
        assert target_exponent(1e6) == pytest.approx(0.5, abs=1e-6)

    def test_monotone_bounded(self):
        alphas = np.linspace(0.01, 20, 200)
        vals = [target_exponent(a) for a in alphas]
        assert np.all(np.diff(vals) > 0)
        assert max(vals) < 0.5

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            target_exponent(0.0)


class TestCutoff:
    def test_contrived_ratio(self):
        # alpha with (n / ln n)^{1/(2 alpha + 1)} = 16 gives h_n = 1/16, L_n = 4;
        # nudge alpha down so the knife-edge floor lands on 4
        n = 2 ** 16
        alpha = (np.log(n / np.log(n)) / np.log(16.0) - 1.0) / 2.0 * (1.0 - 1e-12)
        assert (n / np.log(n)) ** (1.0 / (2.0 * alpha + 1.0)) == pytest.approx(16.0, rel=1e-11)
        h, L = cutoff(n, alpha)
        assert h == pytest.approx(1.0 / 16.0, rel=1e-9)
        assert L == 4

    def test_minimum_n(self):
        _, L = cutoff(3, 1.0)
        assert L >= 0
        with pytest.raises(ValueError):
            cutoff(2, 1.0)

    @pytest.mark.parametrize("n, alpha, message", [
        (100, -0.5, "alpha must be > 0"), (100, 0.0, "alpha must be > 0"),
        (100, float("nan"), "alpha must be a finite number"),
        (100, float("inf"), "alpha must be a finite number"),
        (100, True, "alpha must be a finite number"),
        (100.5, 1.0, "n must be an integer"),
        (float("nan"), 1.0, "n must be an integer"), (True, 1.0, "n must be an integer"),
    ])
    def test_bad_arguments_refused(self, n, alpha, message):
        # every bad argument is a ValueError: no division by zero at alpha = -1/2,
        # no int() of NaN, and no NaN exponent
        with pytest.raises(ValueError, match=message):
            cutoff(n, alpha)
        if n == 100:
            with pytest.raises(ValueError, match=message):
                target_exponent(alpha)

    def test_nondecreasing_in_n(self):
        Ls = [cutoff(n, 1.0)[1] for n in np.unique(np.logspace(1, 6, 300).astype(int))]
        assert np.all(np.diff(Ls) >= 0)


class TestFitRate:
    def test_exact_nlogn_slope(self):
        ns = [2 ** k for k in (8, 10, 12, 14, 16)]
        recs = synthetic_records(ns, lambda n: (n / np.log(n)) ** (-1.0 / 3.0))
        fit = fit_rate(recs, regressor="nlogn")
        assert fit.slope == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert fit.stderr == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_exact_plain_n_slope_and_intercept(self):
        ns = [10, 100, 1000, 10000]
        c = 2.5
        recs = synthetic_records(ns, lambda n: c * n ** (-0.25))
        fit = fit_rate(recs, regressor="n")
        assert fit.slope == pytest.approx(-0.25, abs=1e-12)
        assert fit.intercept == pytest.approx(np.log(c), abs=1e-12)

    def test_scale_invariance(self):
        ns = [16, 256, 4096]
        base = synthetic_records(ns, lambda n: n ** (-0.3))
        scaled = synthetic_records(ns, lambda n: 7.0 * n ** (-0.3))
        f1, f2 = fit_rate(base), fit_rate(scaled)
        assert f1.slope == pytest.approx(f2.slope, abs=1e-12)
        assert f2.intercept - f1.intercept == pytest.approx(np.log(7.0), abs=1e-12)

    def test_insufficient_points(self):
        recs = synthetic_records([10, 100], lambda n: 1.0 / n)
        with pytest.raises(ValueError, match="^need >= 3 distinct n values, have 2$"):
            fit_rate(recs)

    def test_flagged_rows_excluded_and_counted(self):
        ns = [16, 256, 4096]
        recs = synthetic_records(
            ns, lambda n: n ** (-0.3), reps=3,
            flag_fn=lambda n, rep: 1 if rep == 2 else 0,
        )
        # corrupt the flagged rows' losses; the fit must not move
        recs = [
            r if not r.flag else LossRecord(
                r.model, r.prior, r.alpha, r.n, r.rep, 999.0, 999.0,
                None, 999.0, 0.0, 0, 1,
            )
            for r in recs
        ]
        fit = fit_rate(recs, regressor="n")
        assert fit.slope == pytest.approx(-0.3, abs=1e-12)
        assert fit.excluded_rows == 3

    def test_target_sign_matches_slope(self):
        recs = synthetic_records([16, 256, 4096], lambda n: n ** (-0.3))
        assert fit_rate(recs).target == pytest.approx(-1.0 / 3.0)

    @pytest.mark.parametrize("other", [{"alpha": 0.5}, {"model": "density-histogram"}])
    def test_mixed_groups_refused(self, other):
        ns = [64, 256, 4096]
        recs = (synthetic_records(ns, lambda n: n ** (-0.3))
                + synthetic_records(ns, lambda n: n ** (-0.2), **other))
        with pytest.raises(ValueError, match="mix 2"):
            fit_rate(recs)

    def test_missing_loss_refused(self):
        # white-noise records carry no Hellinger loss
        recs = synthetic_records([64, 256, 4096], lambda n: n ** (-0.3))
        with pytest.raises(ValueError, match="no hellinger loss"):
            fit_rate(recs, loss="hellinger")

    def test_unknown_loss_refused(self):
        recs = synthetic_records([64, 256, 4096], lambda n: n ** (-0.3))
        with pytest.raises(ValueError, match="unknown loss"):
            fit_rate(recs, loss="kullback")

    def test_l2_loss_selected(self):
        recs = synthetic_records([64, 256, 4096], lambda n: 3.0 * n ** (-0.3))
        fit = fit_rate(recs, regressor="n", loss="l2")
        assert fit.slope == pytest.approx(-0.3, abs=1e-12)
        assert fit.intercept == pytest.approx(np.log(1.5), abs=1e-12)

    def test_zero_loss_refused(self):
        recs = synthetic_records([64, 256, 4096], lambda n: 0.0)
        with pytest.raises(ValueError, match="positive, finite"):
            fit_rate(recs)


class TestConfig:
    def test_valid_minimal(self):
        cfg = ExperimentConfig(
            model="density-histogram", alpha=0.75, n_grid=(64, 256, 4096),
            replications=5,
        )
        assert cfg.prior_label == "dirichlet(1)"

    @pytest.mark.parametrize("dirichlet_alpha, label", [
        (1, "dirichlet(1)"), (0.5, "dirichlet(0.5)"),
        (1.0000001, "dirichlet(1.0000001)"), (0.1 + 0.2, "dirichlet(0.30000000000000004)"),
    ])
    def test_prior_label_names_dirichlet_alpha_exactly(self, dirichlet_alpha, label):
        # :g rounds to six digits, so two alphas it rounds alike would share a label
        cfg = ExperimentConfig(
            model="density-histogram", alpha=0.75, n_grid=(64, 256, 4096),
            replications=5, dirichlet_alpha=dirichlet_alpha,
        )
        assert cfg.prior_label == label

    def test_small_grid_warns_not_errors(self):
        with pytest.warns(UserWarning):
            ExperimentConfig(
                model="density-histogram", alpha=0.75, n_grid=(64, 128),
                replications=5,
            )

    def test_warnings_point_at_the_caller(self):
        with pytest.warns(UserWarning) as caught:
            ExperimentConfig(
                model="density-histogram", alpha=0.75, n_grid=(64, 128),
                replications=2,
            )
        assert len(caught) == 2
        assert [w.filename for w in caught] == [__file__, __file__]

    def test_unknown_mcmc_key_named(self):
        with pytest.raises(ConfigError, match="iters"):
            ExperimentConfig(**dict(TINY["density-logdensity"], mcmc={"iters": 5}))

    def test_unknown_model(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(model="polya-tree", alpha=1.0, n_grid=(64, 256, 4096))

    def test_uniform_bound_must_cover_radius(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(
                model="white-noise", alpha=1.0, n_grid=(64, 256, 4096),
                bound=0.5, radius=1.0,
            )

    def test_gaussian_r_rule(self):
        with pytest.raises(ConfigError, match="alpha - 1/4"):
            ExperimentConfig(
                model="density-logdensity", alpha=1.0, r=0.9,
                n_grid=(64, 256, 4096),
            )

    def test_specs_follow_the_model(self):
        cfg = ExperimentConfig(
            model="density-logdensity", alpha=1.0, n_grid=(64, 256, 4096),
            coefficient_law="laplace", prior_scale=2.0, master_seed=4,
        )
        prior = cfg.prior_spec(3)
        assert (prior.law, prior.cutoff_level, prior.scale) == ("laplace", 3, 2.0)
        # density models get the density built from a Holder-ball truth
        assert cfg.truth_spec(1).alpha == 1.0
        assert cfg.truth_spec(1) == cfg.truth_spec(1) != cfg.truth_spec(2)

    def test_histogram_prior_is_its_flat_parameters(self):
        cfg = ExperimentConfig(
            model="density-histogram", alpha=0.75, n_grid=(64, 256, 4096), dirichlet_alpha=0.5,
        )
        assert np.array_equal(cfg.prior_spec(3), np.full(8, 0.5))

    @pytest.mark.parametrize("model, key", [
        ("density-histogram", "delta"), ("density-histogram", "prior_scale"),
        ("density-logdensity", "dirichlet_alpha"), ("white-noise", "prior_scale"),
    ])
    def test_stray_bool_is_no_default_number(self, model, key):
        # True == 1.0, the default of each of these keys
        with pytest.raises(ConfigError, match=f"{key}: read only by the"):
            ExperimentConfig(model=model, alpha=1.0, n_grid=(64, 256, 4096), **{key: True})

    def test_decreasing_grid_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(model="white-noise", alpha=1.0, n_grid=(256, 64, 16))


@pytest.mark.filterwarnings("ignore::UserWarning")
class TestRunExperiment:
    def test_cardinality(self):
        cfg = ExperimentConfig(
            model="density-histogram", alpha=0.75, n_grid=(64, 256, 1024),
            replications=5, draws=20, master_seed=3,
        )
        recs = run_experiment(cfg)
        assert len(recs) == 15
        assert {(r.n, r.rep) for r in recs} == {
            (n, rep) for n in cfg.n_grid for rep in range(5)
        }

    @pytest.mark.parametrize("model", sorted(TINY))
    def test_determinism_and_thread_invariance(self, model, tmp_path):
        out = []
        for i, threads in enumerate((1, 1, 3, 4)):
            path = tmp_path / f"r{i}.csv"
            write_records(path, run_experiment(ExperimentConfig(**TINY[model], threads=threads)))
            out.append(path.read_bytes())
        assert out[0] == out[1] == out[2] == out[3]

    @pytest.mark.parametrize("seed", [9, 2024])
    @pytest.mark.parametrize("model", sorted(TINY))
    def test_records_equal_the_per_model_reference(self, model, seed):
        cfg = ExperimentConfig(**dict(TINY[model], master_seed=seed))
        assert run_experiment(cfg) == reference_records(cfg)

    def test_threaded_histogram_equals_the_reference(self):
        cfg = ExperimentConfig(**TINY["density-histogram"], threads=3)
        assert run_experiment(cfg) == reference_records(cfg)

    @pytest.mark.parametrize("model", ["white-noise", "density-logdensity"])
    def test_gil_bound_models_never_use_threads(self, model, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("thread pool constructed")

        monkeypatch.setattr(rates, "ThreadPoolExecutor", no_pool)
        cfg = ExperimentConfig(**TINY[model], threads=3)
        recs = run_experiment(cfg)
        assert [(r.n, r.rep) for r in recs] == [
            (n, rep) for n in cfg.n_grid for rep in range(cfg.replications)
        ]

    def test_white_noise_truth_analysed_once_per_replication(self, monkeypatch):
        calls = []
        analyze = supnorm.WaveletBasis.analyze

        def counting(basis, f):
            calls.append(f)
            return analyze(basis, f)

        monkeypatch.setattr(supnorm.WaveletBasis, "analyze", counting)
        cfg = ExperimentConfig(**TINY["white-noise"])
        recs = run_experiment(cfg)
        assert len(recs) == len(cfg.n_grid) * cfg.replications
        assert len(calls) == cfg.replications

    def test_histogram_pool_starts_largest_n_first(self, monkeypatch):
        submitted = []

        class Recording:
            def __init__(self, max_workers):
                assert max_workers == 3

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, cell):
                submitted.append(cell)
                future = Future()
                future.set_result(fn(cell))
                return future

        cfg = ExperimentConfig(**TINY["density-histogram"], threads=3)
        serial = run_experiment(ExperimentConfig(**TINY["density-histogram"]))
        monkeypatch.setattr(rates, "ThreadPoolExecutor", Recording)
        recs = run_experiment(cfg)
        cells = [(n, rep) for n in cfg.n_grid for rep in range(cfg.replications)]
        assert submitted == sorted(cells, key=lambda c: (-c[0], c[1]))
        assert [(r.n, r.rep) for r in recs] == cells
        assert recs == serial

    @pytest.mark.parametrize("model, args", [
        ("white-noise", ("haar", 5, 12)),  # wrong L_max
        ("white-noise", ("haar", 6, 11)),  # wrong J
        ("white-noise", ("boundary-smooth", 6, 12)),  # wrong kind
        ("white-noise", ("haar", 3, 8)),  # wrong L_max and J
        ("density-histogram", ("boundary-smooth", 5, 9)),  # wrong everything
        ("density-logdensity", ("boundary-smooth", 4, 10, 5)),  # wrong order
    ])
    def test_basis_other_than_the_plan_refused(self, model, args):
        # plans: white noise ("haar", 6, 12) at n up to 4096, histogram
        # ("haar", 4, 12), log density ("boundary-smooth", 4, 10) of order 4
        kw = dict(TINY[model], n_grid=(256, 1024, 4096)) if model == "white-noise" else TINY[model]
        cfg = ExperimentConfig(**kw)
        with pytest.raises(ValueError, match="is not the config's plan"):
            run_experiment(cfg, build_basis(*args))

    @pytest.mark.parametrize("model", ["white-noise", "density-histogram"])
    def test_haar_runs_never_build_the_grid_columns(self, model):
        # white-noise and histogram cells run the Haar pyramid and cascade,
        # and leave no array on the basis
        cfg = ExperimentConfig(**TINY[model])
        basis = rates.plan_basis(cfg)
        run_experiment(cfg, basis)
        assert basis.kind == "haar" and basis.blocks is None
        assert not [k for k, v in vars(basis).items() if isinstance(v, np.ndarray)]

    @pytest.mark.parametrize("model", ["white-noise", "density-histogram"])
    def test_haar_records_do_not_depend_on_the_blas_kernel(self, model, tmp_path):
        # the Haar pyramid and cascade, the quadrature and the loss reductions
        # make no BLAS product, so forcing OpenBLAS onto another core type
        # leaves every byte of records.csv as it is
        runs = {core: _records_under_core(TINY[model], core, tmp_path / f"{core}.csv")
                for core in (None, "Prescott")}
        (default, default_bytes), (forced, forced_bytes) = runs[None], runs["Prescott"]
        if forced is None or forced == default:
            pytest.skip(f"the OpenBLAS core did not switch (default {default}, forced {forced})")
        assert forced_bytes == default_bytes

    def test_histogram_median_sup_decreasing(self):
        cfg = ExperimentConfig(
            model="density-histogram", alpha=0.75,
            n_grid=(2 ** 8, 2 ** 12, 2 ** 16), replications=6, draws=100,
            master_seed=5,
        )
        recs = run_experiment(cfg)
        med = [
            np.median([r.sup_loss for r in recs if r.n == n]) for n in cfg.n_grid
        ]
        assert med[0] > med[1] > med[2]

    def test_white_noise_records_truncation_bias(self):
        cfg = ExperimentConfig(
            model="white-noise", alpha=1.0, n_grid=(64, 256, 1024),
            replications=5, draws=10, master_seed=2,
        )
        recs = run_experiment(cfg)
        assert all(r.trunc_bias is not None and r.trunc_bias >= 0 for r in recs)
        assert all(r.hellinger_loss is None for r in recs)

    def test_csv_round_trip(self, tmp_path):
        cfg = ExperimentConfig(
            model="white-noise", alpha=1.0, n_grid=(64, 256, 1024),
            replications=5, draws=10, master_seed=2,
        )
        recs = run_experiment(cfg)
        path = tmp_path / "records.csv"
        write_records(path, recs)
        back = read_records(path)
        assert back == recs
