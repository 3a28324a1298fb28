import contextlib
import dataclasses
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from supnorm.cli import _CONFIG_KEYS, config_hash, main, parse_config
from supnorm.rates import MODELS, ConfigError, ExperimentConfig, run_experiment, write_records

TINY = {
    "model": "density-histogram",
    "alpha": 0.75,
    "n_grid": [64, 256],
    "replications": 2,
    "draws": 20,
    "master_seed": 13,
}


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    return str(path)


def write_synthetic_csv(path, ns, loss_fn, alphas=(1.0,)):
    rows = ["model,prior,alpha,n,rep,sup_loss,l2_loss,hellinger_loss,"
            "q90_sup,trunc_bias,seed,flag"]
    for alpha in alphas:
        for n in ns:
            v = repr(float(loss_fn(n)))
            rows.append(f"white-noise,uniform,{alpha!r},{n},0,{v},{v},,{v},0.0,0,0")
    path.write_text("\n".join(rows) + "\n")


def strict_json(text):
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


LOGD = {
    "model": "density-logdensity", "alpha": 1.0,
    "n_grid": [64, 256, 4096], "replications": 5,
}

# each is a config error that used to surface only at run time (exit 3) or
# as a bare traceback (exit 1)
BAD_CONFIGS = {
    "heavy-tail-tau": {**LOGD, "coefficient_law": "heavy-tail", "tau": 1.5},
    "prior-scale-zero": {**LOGD, "prior_scale": 0},
    "negative-radius": {**TINY, "radius": -1},
    "mcmc-too-short": {**LOGD, "mcmc": {"iterations": 150, "burn_in": 100}},
    "mcmc-thin-zero": {**LOGD, "mcmc": {"thin": 0}},
    "mcmc-adapt-every-zero": {**LOGD, "mcmc": {"adapt_every": 0}},
    "grid-too-coarse": {
        "model": "white-noise", "alpha": 1.0, "n_grid": [64, 256, 4096],
        "replications": 5, "grid_resolution": 5,
    },
    # integer fields of a non-integer type
    "replications-float": {**TINY, "replications": 2.5},
    "draws-float": {**TINY, "draws": 2.5},
    "threads-string": {**TINY, "threads": "x"},
    "master-seed-bool": {**TINY, "master_seed": True},
    "grid-resolution-float": {**TINY, "grid_resolution": 12.5},
    "basis-order-string": {**TINY, "basis_order": "4"},
    "mcmc-iterations-float": {**LOGD, "mcmc": {"iterations": 20000.5}},
    "mcmc-burn-in-string": {**LOGD, "mcmc": {"burn_in": "5000"}},
    "mcmc-thin-float": {**LOGD, "mcmc": {"thin": 1.5}},
    "mcmc-adapt-every-bool": {**LOGD, "mcmc": {"adapt_every": True}},
    "mcmc-unknown-key": {**LOGD, "mcmc": {"iters": 5}},
    # keys another model reads, set away from their defaults
    "histogram-prior-family": {**TINY, "prior_family": "nope"},
    "histogram-coefficient-law": {**TINY, "coefficient_law": "polya"},
    "histogram-tau": {**TINY, "tau": 0.25},
    "histogram-mcmc": {**TINY, "mcmc": {"thin": 2}},
    "logdensity-bound": {**LOGD, "bound": 3.0},
    "logdensity-dirichlet-alpha": {**LOGD, "dirichlet_alpha": 0.5},
    "white-noise-prior-scale": {**TINY, "model": "white-noise", "prior_scale": 2.0},
    "white-noise-r": {**TINY, "model": "white-noise", "r": 0.25},
}


class TestParseConfig:
    def test_minimal_valid_with_defaults_echoed(self, tiny_config):
        with pytest.warns(UserWarning):
            cfg, echo = parse_config(tiny_config)
        assert cfg.model == "density-histogram"
        assert echo["draws"] == 20
        assert echo["grid_resolution"] is None
        assert echo["mcmc"]["iterations"] == 20000

    def test_unknown_model_kind(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**TINY, "model": "polya-tree"}))
        with pytest.raises(ConfigError, match="unknown model"):
            parse_config(str(path))

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_unknown_prior_kind(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "model": "density-logdensity", "alpha": 1.0,
            "coefficient_law": "polya-tree",
            "n_grid": [64, 256, 4096], "replications": 5,
        }))
        with pytest.raises(ConfigError, match="unknown coefficient law"):
            parse_config(str(path))
        path.write_text(json.dumps({
            **TINY, "model": "white-noise", "prior_family": "polya-tree",
        }))
        with pytest.raises(ConfigError, match="unknown prior family"):
            parse_config(str(path))

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**TINY, "polya": 1}))
        with pytest.raises(ConfigError, match="unknown config keys"):
            parse_config(str(path))

    def test_gaussian_r_rule_cited(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "model": "density-logdensity", "alpha": 1.0, "r": 0.9,
            "n_grid": [64, 256, 4096], "replications": 5,
        }))
        with pytest.raises(ConfigError, match="alpha - 1/4"):
            parse_config(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_config("/nonexistent/config.json")

    def test_hash_stable_under_key_reordering(self):
        a = {"alpha": 1.0, "model": "white-noise", "n_grid": [1, 2]}
        b = {"n_grid": [1, 2], "model": "white-noise", "alpha": 1.0}
        assert config_hash(a) == config_hash(b)


@pytest.mark.filterwarnings("ignore::UserWarning")
class TestSimulate:
    def test_tiny_run(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["simulate", tiny_config, "--out", str(out)])
        assert rc == 0
        csv = (out / "records.csv").read_text().strip().split("\n")
        assert len(csv) == 1 + 4  # header + 2 n-values x 2 reps
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["rows"] == 4
        assert manifest["master_seed"] == 13

    def test_rerun_is_byte_identical(self, tiny_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", tiny_config, "--out", str(out1)]) == 0
        assert main(["simulate", tiny_config, "--out", str(out2), "--threads", "4"]) == 0
        assert (out1 / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()

    def test_config_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", str(bad), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("make, message", [
        (lambda p: p.mkdir(), "cannot read config"),
        (lambda p: p.write_bytes(b'{"model": "\xff"}'), "config is not UTF-8"),
    ], ids=["directory", "invalid-utf8"])
    def test_unreadable_config_exits_2_before_work(self, make, message, tmp_path, capsys):
        path = tmp_path / "config.json"
        make(path)
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {message}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
    def test_spec_errors_exit_2_before_work(self, name, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(BAD_CONFIGS[name]))
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err
        assert "Traceback" not in err
        assert not (out / "records.csv").exists()

    @pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
    def test_bad_env_seed_exit_2_before_work(self, seed, tiny_config, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SUPNORM_SEED", seed)
        out = tmp_path / "o"
        assert main(["simulate", tiny_config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err
        assert "Traceback" not in err
        assert not (out / "records.csv").exists()

    @pytest.mark.parametrize("threads", ["0", "-7"])
    def test_bad_threads_flag_exit_2_before_work(self, threads, tiny_config, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["simulate", tiny_config, "--out", str(out), "--threads", threads]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err
        assert "Traceback" not in err
        assert not (out / "records.csv").exists()

    def test_default_valued_foreign_keys_keep_the_hash(self, tiny_config, tmp_path):
        # another model's keys at their defaults change neither run nor hash
        explicit = tmp_path / "explicit.json"
        explicit.write_text(json.dumps({
            **TINY, "prior_family": "uniform", "bound": 2.0, "coefficient_law": "gaussian",
            "mcmc": {"thin": 5},
        }))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", tiny_config, "--out", str(out1)]) == 0
        assert main(["simulate", str(explicit), "--out", str(out2)]) == 0
        m1, m2 = (json.loads((o / "manifest.json").read_text()) for o in (out1, out2))
        assert m1["config_hash"] == m2["config_hash"]
        assert (out1 / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("radius, rc", [(1e10, 0), (1e12, 2), (1e308, 2)])
    def test_truth_the_run_cannot_use_exits_2_before_output(self, radius, rc, tmp_path, capsys):
        # at 1e12 c(T) loses digits and f0 is no density on the grid; at
        # 1e308 the truth's values overflow.  Both used to exit 3 at run
        # time, after creating the output directory
        path = tmp_path / "radius.json"
        path.write_text(json.dumps({**TINY, "grid_resolution": 8, "n_grid": [64, 256, 1024],
                                    "replications": 1, "radius": radius}))
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--out", str(out)]) == rc
        err = capsys.readouterr().err
        if rc == 0:
            assert (out / "records.csv").exists()
        else:
            assert f"config error: the truth of replication 0 (radius {radius!r})" in err
            assert not out.exists()

    def test_json_int_equal_to_a_default_is_that_default(self, tiny_config, tmp_path):
        path = tmp_path / "ints.json"
        path.write_text(json.dumps({**TINY, "bound": 2, "delta": 1, "prior_scale": 1}))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", tiny_config, "--out", str(out1)]) == 0
        assert main(["simulate", str(path), "--out", str(out2)]) == 0
        assert (out1 / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()

    def test_unwritable_out_exit_3(self, tiny_config, tmp_path):
        # a regular file where the output directory should go (permission
        # tricks do not stop root)
        blocker = tmp_path / "blocked"
        blocker.write_text("")
        rc = main(["simulate", tiny_config, "--out", str(blocker)])
        assert rc == 3

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("existed", [False, True], ids=["new-out", "existing-out"])
    def test_run_time_failure_leaves_no_empty_out_of_its_own(self, existed, tmp_path, capsys):
        # the exp-power quadrature of a coordinate far outside the prior's
        # mass underflows; that is found only at run time, after --out is made
        path = tmp_path / "underflow.json"
        path.write_text(json.dumps({
            "model": "white-noise", "alpha": 1.0, "prior_family": "exp-power",
            "grid_resolution": 8, "n_grid": [64, 256, 1024], "replications": 1, "radius": 1e200,
        }))
        out = tmp_path / "out"
        if existed:
            out.mkdir()
        assert main(["simulate", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "runtime error: posterior mass underflows at level 0" in err
        assert "Traceback" not in err
        assert out.exists() == existed

    @pytest.mark.parametrize("tau, rc", [(0.99, 0), (0.992, 0), (0.993, 2), (0.995, 2), (0.999, 2)])
    def test_heavy_tail_tau_that_cannot_be_drawn_exits_2_before_work(self, tau, rc, tmp_path, capsys):
        # from tau = 0.993 heavy-tail draws overflow a float, so a chain would run on NaN
        path = tmp_path / "tau.json"
        path.write_text(json.dumps({
            **LOGD, "coefficient_law": "heavy-tail", "tau": tau, "grid_resolution": 8,
            "n_grid": [64, 256, 1024], "replications": 1,
            "mcmc": {"iterations": 300, "burn_in": 100},
        }))
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--out", str(out)]) == rc
        err = capsys.readouterr().err
        if rc == 0:
            assert "nan" not in (out / "records.csv").read_text()
        else:
            assert f"config error: heavy-tail prior with tau={tau}" in err
            assert not out.exists()

    def test_env_seed_override(self, tiny_config, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", tiny_config, "--out", str(out1)])
        monkeypatch.setenv("SUPNORM_SEED", "999")
        main(["simulate", tiny_config, "--out", str(out2)])
        assert (out1 / "records.csv").read_bytes() != (out2 / "records.csv").read_bytes()
        manifest = json.loads((out2 / "manifest.json").read_text())
        assert manifest["master_seed"] == 999


class TestFitRate:
    def test_exact_synthetic_slope(self, tmp_path, capsys):
        csv = tmp_path / "synth.csv"
        write_synthetic_csv(csv, [2 ** k for k in (8, 10, 12, 14)],
                            lambda n: (n / np.log(n)) ** (-1.0 / 3.0))
        rc = main(["fit-rate", str(csv)])
        assert rc == 0
        out = strict_json(capsys.readouterr().out)
        assert out["slope"] == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert out["target"] == pytest.approx(-1.0 / 3.0)
        assert out["regressor"] == "nlogn"
        assert out["n_points"] == 4
        assert out["excluded_rows"] == 0

    def test_plain_n_regressor_flag(self, tmp_path, capsys):
        csv = tmp_path / "synth.csv"
        write_synthetic_csv(csv, [10, 100, 1000], lambda n: n ** -0.25)
        assert main(["fit-rate", str(csv), "--regressor", "n"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["slope"] == pytest.approx(-0.25, abs=1e-12)

    def test_two_n_values_exit_2(self, tmp_path, capsys):
        csv = tmp_path / "two.csv"
        write_synthetic_csv(csv, [10, 100], lambda n: 1.0 / n)
        assert main(["fit-rate", str(csv)]) == 2
        assert "3 distinct n" in capsys.readouterr().err

    def test_mixed_alpha_exit_2(self, tmp_path, capsys):
        csv = tmp_path / "mixed.csv"
        write_synthetic_csv(csv, [64, 256, 4096], lambda n: n ** -0.3,
                            alphas=(1.0, 0.5))
        assert main(["fit-rate", str(csv)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "(model, prior, alpha)" in captured.err

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_alphas_that_round_alike_are_not_pooled(self, tmp_path, capsys):
        # dirichlet_alpha 1.0 and 1.0000001 are two experiments; their merged
        # records, reps numbered apart, must not fit as one
        def records(dirichlet_alpha, first_rep):
            cfg = ExperimentConfig(**{**TINY, "n_grid": (64, 256, 1024),
                                      "dirichlet_alpha": dirichlet_alpha})
            return [dataclasses.replace(r, rep=r.rep + first_rep) for r in run_experiment(cfg)]

        csv = tmp_path / "merged.csv"
        write_records(csv, records(1.0, 0) + records(1.0, 2))
        assert main(["fit-rate", str(csv)]) == 0  # one experiment, reps apart
        capsys.readouterr()
        write_records(csv, records(1.0, 0) + records(1.0000001, 2))
        assert main(["fit-rate", str(csv)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "(model, prior, alpha)" in captured.err

    def test_malformed_csv_exit_2(self, tmp_path):
        csv = tmp_path / "junk.csv"
        csv.write_text("these,are,not\nloss,records,at,all\n")
        assert main(["fit-rate", str(csv)]) == 2

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_simulate_then_fit_round_trip(self, tmp_path, capsys):
        cfgd = {**TINY, "n_grid": [64, 256, 1024], "replications": 2}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(cfgd))
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["fit-rate", str(out / "records.csv")]) == 0
        fit = json.loads(capsys.readouterr().out)
        assert np.isfinite(fit["slope"])
        assert fit["target"] == pytest.approx(-0.3)
        # every emitted CSV is also consumable by the report command
        assert main(["report", str(out / "records.csv")]) == 0
        assert "| 64 |" in capsys.readouterr().out


HEADER = ("model,prior,alpha,n,rep,sup_loss,l2_loss,hellinger_loss,"
          "q90_sup,trunc_bias,seed,flag")
# two replications at three n: a CSV that both commands accept
CLEAN_ROWS = [f"white-noise,uniform,1.0,{n},{rep},{0.5 / n ** 0.3!r},0.2,,0.6,0.01,0,0"
              for n in (64, 256, 1024) for rep in (0, 1)]
# each makes the second row one that cannot be pooled honestly
BAD_ROWS = {
    "nan-alpha": "white-noise,uniform,nan,64,1,0.3,0.2,,0.6,0.01,0,0",
    "n-zero": "white-noise,uniform,1.0,0,1,0.3,0.2,,0.6,0.01,0,0",
    "nan-sup-loss": "white-noise,uniform,1.0,64,1,nan,0.2,,0.6,0.01,0,0",
    "inf-l2-loss": "white-noise,uniform,1.0,64,1,0.3,inf,,0.6,0.01,0,0",
    "negative-sup-loss": "white-noise,uniform,1.0,64,1,-0.3,0.2,,0.6,0.01,0,0",
    "negative-trunc-bias": "white-noise,uniform,1.0,64,1,0.3,0.2,,0.6,-0.01,0,0",
    "flag-7": "white-noise,uniform,1.0,64,1,0.3,0.2,,0.6,0.01,0,7",
    "flag-minus-1": "white-noise,uniform,1.0,64,1,0.3,0.2,,0.6,0.01,0,-1",
    "rep-minus-4": "white-noise,uniform,1.0,64,-4,0.3,0.2,,0.6,0.01,0,0",
    "duplicate-cell": "white-noise,uniform,1.0,64,0,0.3,0.2,,0.6,0.01,0,0",
    # fields that do not parse
    "abc-sup-loss": "white-noise,uniform,1.0,64,1,abc,0.2,,0.6,0.01,0,0",
    "fractional-n": "white-noise,uniform,1.0,256.5,1,0.3,0.2,,0.6,0.01,0,0",
    "empty-rep": "white-noise,uniform,1.0,64,,0.3,0.2,,0.6,0.01,0,0",
    "eleven-fields": "white-noise,uniform,1.0,64,1,0.3,0.2,,0.6,0.01,0",
}


class TestStrictRecords:
    @pytest.mark.parametrize("command", ["report", "fit-rate"])
    def test_clean_records_accepted(self, command, tmp_path, capsys):
        csv = tmp_path / "clean.csv"
        csv.write_text("\n".join([HEADER] + CLEAN_ROWS) + "\n")
        assert main([command, str(csv)]) == 0

    @pytest.mark.parametrize("probe", sorted(BAD_ROWS))
    @pytest.mark.parametrize("command", ["report", "fit-rate"])
    def test_bad_row_exit_2(self, command, probe, tmp_path, capsys):
        csv = tmp_path / "bad.csv"
        rows = CLEAN_ROWS[:1] + [BAD_ROWS[probe]] + CLEAN_ROWS[2:]
        csv.write_text("\n".join([HEADER] + rows) + "\n")
        assert main([command, str(csv)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "input error: line 3:" in captured.err


class TestReport:
    def test_mixed_groups_exit_2(self, tmp_path, capsys):
        csv = tmp_path / "mixed.csv"
        rows = ["model,prior,alpha,n,rep,sup_loss,l2_loss,hellinger_loss,"
                "q90_sup,trunc_bias,seed,flag",
                "white-noise,uniform,1.0,64,0,0.5,0.2,,0.6,0.01,0,0",
                "density-histogram,dirichlet(1),1.0,64,0,0.5,0.2,0.1,0.6,,0,0"]
        csv.write_text("\n".join(rows) + "\n")
        assert main(["report", str(csv)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "input error:" in captured.err
        assert "(model, prior, alpha)" in captured.err

    def test_table_rows(self, tmp_path, capsys):
        csv = tmp_path / "synth.csv"
        write_synthetic_csv(csv, [64, 256], lambda n: 1.0 / n)
        assert main(["report", str(csv)]) == 0
        out = capsys.readouterr().out
        assert "| 64 |" in out and "| 256 |" in out

    def test_empty_csv(self, tmp_path, capsys):
        csv = tmp_path / "empty.csv"
        csv.write_text(
            "model,prior,alpha,n,rep,sup_loss,l2_loss,hellinger_loss,"
            "q90_sup,trunc_bias,seed,flag\n"
        )
        assert main(["report", str(csv)]) == 0
        assert "no records" in capsys.readouterr().out

    def test_flagged_rows_reported(self, tmp_path, capsys):
        csv = tmp_path / "flagged.csv"
        rows = ["model,prior,alpha,n,rep,sup_loss,l2_loss,hellinger_loss,"
                "q90_sup,trunc_bias,seed,flag",
                "density-logdensity,gaussian,1.0,64,0,0.5,0.2,0.1,0.6,,0,1",
                "density-logdensity,gaussian,1.0,64,1,0.5,0.2,0.1,0.6,,0,0"]
        csv.write_text("\n".join(rows) + "\n")
        assert main(["report", str(csv)]) == 0
        out = capsys.readouterr().out
        assert "1 flagged row(s)" in out


# one field of TINY, and values that must make it a config error
_NOT_NUMBERS = st.text(max_size=3) | st.booleans() | st.none() | st.lists(st.integers(), max_size=2)
_NOT_INTEGERS = _NOT_NUMBERS | st.floats()
_NEGATIVE = st.integers(max_value=-1)
_NOT_POSITIVE = (_NOT_NUMBERS | _NEGATIVE | st.just(0) | st.floats(max_value=0.0)
                 | st.sampled_from([float("nan"), float("inf")]))
# no large valid grid_resolution or threads is drawn: one would allocate a
# 2^J grid, the other start threads
_NOT_COUNTS = _NOT_INTEGERS | _NEGATIVE | st.just(0)
CORRUPTIONS = {
    "model": st.text(max_size=8).filter(lambda v: v not in MODELS) | _NOT_NUMBERS,
    "alpha": _NOT_POSITIVE,
    "n_grid": (st.text(max_size=3) | st.booleans() | st.none() | st.integers()
               | st.lists(_NEGATIVE | st.just(0) | st.text(max_size=2), min_size=1, max_size=3)),
    "radius": _NOT_POSITIVE,
    "replications": _NOT_COUNTS,
    "draws": _NOT_COUNTS,
    "master_seed": _NOT_INTEGERS | _NEGATIVE,
    # None is grid_resolution's default, so it is left out
    "grid_resolution": _NOT_COUNTS.filter(lambda v: v is not None),
    "basis_order": _NOT_COUNTS,
    "truth_kind": st.text(max_size=8) | _NOT_NUMBERS,  # no truth kind is that short
    "threads": _NOT_COUNTS,
    # TINY is a histogram config: every other model's key, off its default
    "prior_family": st.text(max_size=8).filter(lambda v: v != "uniform") | _NOT_NUMBERS,
    "coefficient_law": st.text(max_size=8).filter(lambda v: v != "gaussian") | _NOT_NUMBERS,
    "bound": st.floats().filter(lambda v: v != 2.0) | _NOT_NUMBERS,
    "delta": st.floats().filter(lambda v: v != 1.0) | _NOT_NUMBERS,
    "dirichlet_alpha": _NOT_POSITIVE,
    "r": st.floats().filter(lambda v: v != 0.5) | _NOT_NUMBERS,
    "tau": st.floats().filter(lambda v: v != 0.5) | _NOT_NUMBERS,
    "prior_scale": st.floats().filter(lambda v: v != 1.0) | _NOT_NUMBERS,
    "mcmc": st.integers(1, 4).map(lambda t: {"thin": t}) | _NOT_NUMBERS,
}


@st.composite
def corrupted_configs(draw):
    field = draw(st.sampled_from(sorted(CORRUPTIONS) + ["<unknown key>"]))
    if field == "<unknown key>":
        key = draw(st.text(min_size=1, max_size=8).filter(lambda k: k not in _CONFIG_KEYS))
        return {**TINY, key: draw(st.integers() | st.text(max_size=3))}
    return {**TINY, field: draw(CORRUPTIONS[field])}


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=120, deadline=None)
@given(corrupted_configs())
def test_corrupted_config_exits_2_before_work(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bad.json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["simulate", path, "--out", out])
        assert rc == 2, raw
        assert "config error:" in err.getvalue()
        assert "Traceback" not in err.getvalue()
        assert not os.path.exists(os.path.join(out, "records.csv"))
