"""Tests of the benchmark itself: tracer hygiene, record checks, all workload paths.

    python3 -m pytest benchmarks/test_bench.py -q
"""
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench  # noqa: E402
import tracer as tr  # noqa: E402
from supnorm import rates  # noqa: E402

# the workloads' code paths at a size that runs in seconds
_TINY_MCMC = dict(iterations=600, burn_in=300, thin=5)
TINY = {
    "wn": dict(n_grid=(64, 256, 1024), replications=2, draws=20),
    "hist": dict(n_grid=(64, 256, 1024), replications=2, draws=50),
    "logd-pcn": dict(n_grid=(100, 400, 1600), mcmc=_TINY_MCMC),
    "logd-rw-par": dict(n_grid=(100, 400, 1600), mcmc=_TINY_MCMC),
}


def tiny_config(name: str, seed: int = 5) -> rates.ExperimentConfig:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return rates.ExperimentConfig(master_seed=seed, **dict(bench.WORKLOADS[name][0], **TINY[name]))


def _csv(records, path) -> bytes:
    rates.write_records(path, records)
    return path.read_bytes()


@pytest.mark.parametrize("name", ["wn", "logd-rw-par"])
def test_traced_records_are_byte_identical(name, tmp_path):
    cfg = tiny_config(name)
    basis = rates.plan_basis(cfg)
    plain = _csv(rates.run_experiment(cfg, basis), tmp_path / "plain.csv")
    tracer = tr.Tracer()
    with tracer.installed(), tracer.root():
        traced = _csv(rates.run_experiment(cfg, basis), tmp_path / "traced.csv")
    assert traced == plain
    assert len(tracer.spans) > 1


def test_every_wrapper_is_removed():
    originals = {(owner, attr): vars(owner)[attr] for owner, attr, _, _ in tr.TARGETS}
    cfg = tiny_config("wn")
    basis = rates.plan_basis(cfg)
    tracer = tr.Tracer()
    with tracer.installed():
        assert all(vars(o)[a] is not f for (o, a), f in originals.items())
        with tracer.root():
            rates.run_experiment(cfg, basis)
    assert all(vars(o)[a] is f for (o, a), f in originals.items())
    with pytest.raises(RuntimeError), tracer.installed():
        raise RuntimeError("interrupted traced run")
    assert all(vars(o)[a] is f for (o, a), f in originals.items())


def test_missing_target_fails_the_traced_run(monkeypatch):
    original = vars(rates)["make_holder_truth"]
    monkeypatch.delattr(rates, "make_holder_truth")
    with pytest.raises(LookupError, match="make_holder_truth"), tr.Tracer().installed():
        pass
    monkeypatch.undo()
    assert all(not hasattr(vars(o)[a], "__wrapped__") for o, a, _, _ in tr.TARGETS)
    assert vars(rates)["make_holder_truth"] is original


def test_peak_rss_counts_worker_processes():
    # a child holding 64 MiB while the sampler runs, as a pool worker would
    own = bench.tree_rss_kib(os.getpid())
    code = "import sys, time; b = b'x' * (64 << 20); print('ready', flush=True); time.sleep(30)"
    with bench.TreeRss() as rss:
        child = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True)
        try:
            assert child.stdout.readline() == "ready\n"
            assert bench.tree_rss_kib(os.getpid()) - own > 60 * 1024
            time.sleep(3 * bench.RSS_INTERVAL_S)  # let the sampler see the child
        finally:
            child.kill()
            child.wait()
            child.stdout.close()
    assert rss.peak_kib - own > 60 * 1024
    assert bench.peak_rss_mb(rss.peak_kib) >= rss.peak_kib / 1024


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_smoke_every_workload(name, tmp_path):
    cfg = tiny_config(name)
    run = bench.Run(cfg, tmp_path / "records.csv")
    basis = run.setup(repeats=2)
    run.repeat(basis, seconds=0.0, trace=True)  # one traced experiment
    assert run.experiment(basis, trace=False)
    result = bench.report(name, cfg.master_seed, True, run, {}, 1.0, None, tmp_path)
    assert result["correct"], run.problems
    assert result["attempted"] == 2 * len(cfg.n_grid) * cfg.replications
    assert run.digests[0] == run.digests[1]  # traced, then untraced
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(m) == set(tr.LAYER_UNITS)
    assert m["functions.truth_s"] > 0 and m["density.loss_s"] > 0
    if cfg.model == "white-noise":
        # scaling coefficient plus 2^(L+1) - 1 wavelets up to the truncation level per cell
        want = sum(2 ** (min(rates.cutoff(n, cfg.alpha)[1] + 2, basis.L_max) + 1)
                   for n in cfg.n_grid) * cfg.replications
        assert m["whitenoise.coord_posterior_calls"] == want
        assert 0 < m["wavelets.synthesize_flat_live_frac"] <= 1
        assert m["density.mcmc_proposals"] == 0
    elif cfg.model == "density-histogram":
        assert m["density.dirichlet_draws_s"] > 0 and m["density.sample_data_s"] > 0
        assert m["whitenoise.coord_posterior_calls"] == 0
    else:
        levels = sum(min(rates.cutoff(n, cfg.alpha)[1], basis.L_max) + 1 for n in cfg.n_grid)
        assert m["density.mcmc_proposals"] == cfg.mcmc.iterations * levels * cfg.replications
        kept = (cfg.mcmc.iterations - cfg.mcmc.burn_in) // cfg.mcmc.thin
        assert m["density.kept_draws"] == kept * len(cfg.n_grid) * cfg.replications
        assert m["density.density_values_s"] > 0
    assert m["rates.self_s"] >= 0
    assert 0.5 < run.coverage[0] <= 1.0


def test_record_check_catches_drift(tmp_path):
    cfg = tiny_config("hist")
    data = _csv(rates.run_experiment(cfg), tmp_path / "r.csv")
    rows = bench._rows(data)
    assert bench.check_records(data, cfg, reference=rows) == []
    lines = data.decode().splitlines()
    fields = lines[1].split(",")
    fields[5] = repr(float(fields[5]) * (1 + 1e-5))
    lines[1] = ",".join(fields)
    drifted = ("\n".join(lines) + "\n").encode()
    problems = bench.check_records(drifted, cfg, reference=rows)
    assert len(problems) == 1 and "tolerance" in problems[0]
    flagged = data.replace(b",0\n", b",1\n", 1)
    assert len(bench.check_records(flagged, cfg)) == 1


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_reference_matches_workload_config(name):
    reference, sha = bench.load_reference(name, bench.REFERENCE_SEED)
    assert reference is not None, f"no pinned reference for {name}"
    data = (bench.REFERENCES / f"{name}.csv").read_bytes()
    assert bench.check_records(data, bench.make_config(name, bench.REFERENCE_SEED), reference) == []


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tr.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
