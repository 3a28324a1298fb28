"""The supnorm benchmark: fixed experiments through the public entry points.

Each workload is one `ExperimentConfig`.  A run times `plan_basis(cfg)`
(set-up) several times, then calls `run_experiment(cfg, basis)` repeatedly
for the requested number of seconds and checks every record.  With tracing
on, untraced and traced experiments alternate: the traced ones give the
per-layer metrics and must reproduce the untraced records byte for byte.
"""
from __future__ import annotations

import argparse
import gc
import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import traceback
import warnings
from pathlib import Path
from time import perf_counter

import numpy as np

import supnorm
from supnorm import rates

import tracer as tr

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references"
REFERENCE_SEED = 2024
# set-up samples: before the first experiment, after each one and after the
# last, so that their median spans the whole run, as run_s does; a run of a
# log-density workload holds one experiment, so most samples sit at its ends
SETUP_FIRST, SETUP_BETWEEN, SETUP_LAST = 16, 2, 16
RSS_INTERVAL_S = 0.05  # sampling period of the process-tree RSS
LOSS_RTOL = 1e-7  # loss fields may move by float summation order, not more

# end-to-end metric name -> unit, printed with --trace 0
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "cells_ok_frac": "ratio"}

_LOGD = dict(
    model="density-logdensity", alpha=1.0, r=0.5, n_grid=(500, 2000, 8000),
    replications=1, draws=200, basis_kind="boundary-smooth", grid_resolution=12,
    mcmc=dict(iterations=20000, burn_in=5000, thin=5),
)

# name -> (ExperimentConfig keywords, slope acceptance window or None)
WORKLOADS = {
    # criterion 6 cells: whitenoise quadrature and synthesis only
    "wn": (dict(
        model="white-noise", alpha=1.0, prior_family="uniform", bound=2.0, radius=1.0,
        n_grid=(2 ** 8, 2 ** 10, 2 ** 12, 2 ** 14, 2 ** 16), replications=10, draws=200,
        basis_kind="haar", grid_resolution=12,
    ), (-0.40, -0.27)),
    # criterion 8 cells: Dirichlet draws and the grid loss reduction
    "hist": (dict(
        model="density-histogram", alpha=0.75, radius=1.0,
        n_grid=(2 ** 10, 2 ** 12, 2 ** 14, 2 ** 16, 2 ** 18), replications=2, draws=2000,
        dirichlet_alpha=1.0, basis_kind="haar", grid_resolution=12,
    ), (-0.38, -0.22)),
    # criterion 9 cells: pCN proposals of the log-density MCMC
    "logd-pcn": (dict(_LOGD, coefficient_law="gaussian"), None),
    # random-walk proposals with a prior ratio, cells dispatched on 2 threads;
    # its three cells keep both threads busy
    "logd-rw-par": (dict(_LOGD, coefficient_law="laplace", threads=2), None),
}


def make_config(name: str, seed: int) -> rates.ExperimentConfig:
    kwargs, _ = WORKLOADS[name]
    with warnings.catch_warnings():
        # small replication counts are deliberate here; the fit is information only
        warnings.simplefilter("ignore", UserWarning)
        return rates.ExperimentConfig(master_seed=seed, **kwargs)


# --------------------------------------------------------------------------
# record checks
# --------------------------------------------------------------------------

_EXACT = (0, 1, 2, 3, 4, 10, 11)  # model, prior, alpha, n, rep, seed, flag
_LOSSES = (5, 6, 7, 8, 9)  # sup, l2, hellinger, q90_sup, trunc_bias


def _rows(csv_bytes: bytes) -> list[list[str]]:
    lines = csv_bytes.decode().splitlines()
    return [ln.split(",") for ln in lines[1:] if ln]


def _loss_close(a: str, b: str) -> bool:
    if a == "" or b == "":
        return a == b
    x, y = float(a), float(b)
    return math.isclose(x, y, rel_tol=LOSS_RTOL)


def _row_problem(row, want_cell, cfg, reference, first) -> str | None:
    """Why one record is wrong, or None."""
    if len(row) != 12:
        return "malformed row"
    if (int(row[3]), int(row[4])) != want_cell:
        return f"cell {row[3]},{row[4]} where {want_cell} was expected"
    if row[11] != "0":
        return "flagged"
    sup, l2, hell, q90, bias = (row[i] for i in _LOSSES)
    wn = cfg.model == "white-noise"
    if (hell == "") != wn or (bias == "") != (not wn):
        return "hellinger/trunc_bias presence does not match the model"
    vals = [float(v) for v in (sup, l2, q90) + ((bias,) if wn else (hell,))]
    if not all(math.isfinite(v) and v > 0 for v in vals):
        return "loss not finite and positive"
    if float(sup) < float(l2) * (1 - 1e-12):
        return "sup loss below L2 loss"
    if first is not None and row != first:
        return "differs from the first experiment of this run"
    if reference is not None:
        if any(row[i] != reference[i] for i in _EXACT):
            return "identity fields differ from the reference"
        if not all(_loss_close(row[i], reference[i]) for i in _LOSSES):
            return f"loss fields leave the reference tolerance {LOSS_RTOL:g}"
    return None


def check_records(csv_bytes, cfg, reference=None, first=None) -> list[str]:
    """One problem string per failed cell (empty when all cells pass)."""
    cells = [(n, rep) for n in cfg.n_grid for rep in range(cfg.replications)]
    rows = _rows(csv_bytes)
    if len(rows) != len(cells):
        return [f"{len(rows)} records for {len(cells)} cells"] * len(cells)
    problems = []
    for i, (row, cell) in enumerate(zip(rows, cells)):
        why = _row_problem(
            row, cell, cfg,
            None if reference is None else reference[i],
            None if first is None else first[i],
        )
        if why:
            problems.append(f"n={cell[0]} rep={cell[1]}: {why}")
    return problems


def load_reference(name: str, seed: int):
    path = REFERENCES / f"{name}.csv"
    if seed != REFERENCE_SEED or not path.exists():
        return None, None
    data = path.read_bytes()
    return _rows(data), hashlib.sha256(data).hexdigest()


# --------------------------------------------------------------------------
# measurement
# --------------------------------------------------------------------------

class Run:
    """Timings, records and trace of one benchmark run of one workload."""

    def __init__(self, cfg, out_csv: Path, reference=None):
        self.cfg = cfg
        self.out_csv = out_csv
        self.reference = reference
        self.setup_s = []
        self.run_s = []
        self.traced_run_s = []
        self.layers = []  # per traced experiment
        self.coverage = []
        self.tracers = []
        self.attempted = 0
        self.problems = []
        self.digests = []
        self.records = None
        self._first = None

    def setup(self, repeats: int):
        """Time `plan_basis(cfg)` `repeats` times; return the last basis."""
        for _ in range(repeats):
            basis = None  # keep no more than one set-up basis alive, for peak RSS
            gc.collect()
            t0 = perf_counter()
            basis = rates.plan_basis(self.cfg)
            self.setup_s.append(perf_counter() - t0)
        return basis

    def experiment(self, basis, trace: bool) -> bool:
        """One `run_experiment` call, timed and checked; False if it raised."""
        cells = len(self.cfg.n_grid) * self.cfg.replications
        self.attempted += cells
        tracer = tr.Tracer() if trace else None
        gc.collect()
        t0 = perf_counter()
        try:
            if trace:
                with tracer.installed():
                    cpu0 = _cpu_seconds()
                    with tracer.root():
                        records = rates.run_experiment(self.cfg, basis)
                    cpu_s = _cpu_seconds() - cpu0
            else:
                try:
                    records = rates.run_experiment(self.cfg, basis)
                finally:
                    self.run_s.append(perf_counter() - t0)
        except Exception:  # noqa: BLE001 - every cell of a raising experiment fails
            self.problems += [f"run_experiment raised:\n{traceback.format_exc()}"] * cells
            return False
        rates.write_records(self.out_csv, records)
        data = self.out_csv.read_bytes()
        self.digests.append(hashlib.sha256(data).hexdigest())
        self.problems += check_records(data, self.cfg, self.reference, self._first)
        if self._first is None:
            self._first, self.records = _rows(data), records
        if trace:
            layers = tr.layer_metrics(tracer, self.cfg.threads, cpu_s)
            self.traced_run_s.append(tracer.root_s)
            self.coverage.append(1.0 - layers["rates.self_s"] / tracer.root_s)
            self.layers.append(layers)
            self.tracers.append(tracer)
        return True

    def repeat(self, basis, seconds: float, trace: bool):
        """Experiments until the next one would overrun `seconds` (at least one).

        With tracing, traced and untraced experiments alternate, traced first.
        """
        start = perf_counter()
        took = []
        traced = trace
        while True:
            t0 = perf_counter()
            ok = self.experiment(basis, trace=traced)
            self.setup(SETUP_BETWEEN)
            took.append(perf_counter() - t0)
            traced = trace and not traced
            if not ok or perf_counter() - start + statistics.median(took) > seconds:
                return


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _rss_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:  # the process has ended, or there is no /proc
        pass
    return 0


def _children(pid: int) -> list[int]:
    kids = []
    for path in glob.glob(f"/proc/{pid}/task/*/children"):
        try:
            with open(path) as fh:
                kids += [int(k) for k in fh.read().split()]
        except OSError:
            pass
    return kids


def tree_rss_kib(pid: int) -> int:
    """Summed RSS of process `pid` and all its descendants, in KiB."""
    total, todo = 0, [pid]
    while todo:
        p = todo.pop()
        total += _rss_kib(p)
        todo += _children(p)
    return total


class TreeRss:
    """Peak summed RSS of this process tree, sampled by a thread while in use."""

    def __init__(self):
        self.peak_kib = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self):
        while True:
            self.peak_kib = max(self.peak_kib, tree_rss_kib(os.getpid()))
            if self._stop.wait(RSS_INTERVAL_S):
                return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak_kib = max(self.peak_kib, tree_rss_kib(os.getpid()))


def peak_rss_mb(tree_peak_kib: int) -> float:
    """Peak RSS of the run, including worker processes.

    Each term is a lower bound of the true peak of the process tree: the
    sampled sum over the tree (which counts concurrent workers), this
    process's own kernel-recorded peak, and that of its largest finished
    child (which catches a child that lived between two samples).
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(tree_peak_kib, own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


# --------------------------------------------------------------------------
# environment and output
# --------------------------------------------------------------------------

def _openblas():
    """(configuration string, thread count) of the OpenBLAS that numpy loaded."""
    import ctypes

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    return get_config().decode(), get_threads()
    return "unknown", None


def environment(root: Path) -> dict:
    import scipy

    sha = "unknown (not a git checkout)"
    if (root / ".git").exists():  # else git would report an enclosing repository
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            sha = "unknown"
    blas_config, blas_threads = _openblas()
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "supnorm": supnorm.__version__,
        "openblas": blas_config,
        "blas_threads": blas_threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def _summary(xs) -> str:
    return " ".join(f"{x:.4f}" for x in xs) + f" (median {statistics.median(xs):.4f}, n={len(xs)})"


def report(name: str, seed: int, trace: bool, run: Run, env: dict, rss_mb: float, ref_sha, out_dir: Path) -> dict:
    """Print the human-readable lines and return the final JSON object."""
    cfg = run.cfg
    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"workload {name}: seed {seed}, threads {cfg.threads}, replications {cfg.replications}, "
          f"n_grid {list(cfg.n_grid)}")
    print(f"setup_s: {_summary(run.setup_s)}")
    if run.run_s:
        print(f"run_s: {_summary(run.run_s)}")
    for digest in sorted(set(run.digests)):
        print(f"records.csv sha256 {digest} (x{run.digests.count(digest)})")
    if ref_sha is None:
        print(f"reference: none at seed {seed}; records checked for flags, invariants and repeatability")
    else:
        same = all(d == ref_sha for d in run.digests)
        print(f"reference: seed {seed}, sha256 {ref_sha}, "
              f"{'bytes identical' if same else 'bytes differ'}, loss tolerance {LOSS_RTOL:g}")
    window = WORKLOADS[name][1]
    if window is not None and run.records is not None:
        try:
            fit = rates.fit_rate(run.records, regressor="nlogn")
            print(f"slope {fit.slope:.4f} (se {fit.stderr:.4f}); acceptance window "
                  f"[{window[0]}, {window[1]}] at 20 replications; information only")
        except ValueError as e:
            print(f"slope: not fitted ({e})")
    for p in sorted(set(run.problems)):
        print(f"FAILED ({run.problems.count(p)} cells): {p}", file=sys.stderr)
    failed = len(run.problems)
    result = {
        "correct": failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": failed,
    }
    if not trace:
        values = {
            "setup_s": statistics.median(run.setup_s),
            "run_s": statistics.median(run.run_s),
            "peak_rss_mb": rss_mb,
            "cells_ok_frac": 1.0 - failed / max(run.attempted, 1),
        }
        result["metrics"] = {k: _metric(values[k], unit) for k, unit in END_TO_END_UNITS.items()}
        return result
    if run.layers:
        traced = statistics.median(run.traced_run_s)
        if run.run_s:
            untraced = statistics.median(run.run_s)
            overhead = f"{traced - untraced:+.4f} s ({(traced - untraced) / untraced:+.2%})"
        else:
            overhead = "not measured (no untraced experiment fitted in --seconds)"
        print(f"trace: traced run_s {_summary(run.traced_run_s)}; overhead {overhead}; "
              f"layer spans cover {statistics.median(run.coverage):.2%} of run_s")
        spans_path = out_dir / f"{name}-seed{seed}-spans.jsonl"
        write_spans(spans_path, run.tracers)
        print(f"trace: spans written to {spans_path}")
    result["metrics"] = {
        k: _metric(statistics.median(m[k] for m in run.layers) if run.layers else 0.0, unit)
        for k, unit in tr.LAYER_UNITS.items()
    }
    return result


def write_spans(path: Path, tracers) -> None:
    """One JSON line per span; times in seconds from the start of its experiment."""
    with open(path, "w") as fh:
        for i, t in enumerate(tracers):
            t0 = min(s[3] for s in t.spans)
            for sid, parent, name, a, b in sorted(t.spans, key=lambda s: s[3]):
                fh.write(json.dumps({"experiment": i, "id": sid, "parent": parent, "name": name,
                                     "start": a - t0, "end": b - t0}) + "\n")


def main(argv=None, root: Path = HERE.parent) -> int:
    ap = argparse.ArgumentParser(description="supnorm benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED,
                    help="workload master seed (references exist at %(default)s)")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    cfg = make_config(args.workload, args.seed)
    reference, ref_sha = load_reference(args.workload, args.seed)
    run = Run(cfg, out_dir / f"{args.workload}-seed{args.seed}-records.csv", reference)
    with TreeRss() as rss:
        basis = run.setup(SETUP_FIRST)
        run.repeat(basis, args.seconds, trace=bool(args.trace))
        run.setup(SETUP_LAST)
    rss_mb = peak_rss_mb(rss.peak_kib)  # before any helper process of `environment`
    result = report(args.workload, args.seed, bool(args.trace), run, environment(root),
                    rss_mb, ref_sha, out_dir)
    print(json.dumps(result), flush=True)
    return 0
