"""Batch front end: run simulations from JSON configs, fit rates, report.

Exit codes: 0 success, 2 configuration/input error, 3 runtime error.
The environment variable SUPNORM_SEED overrides the config's master seed.
Loss records go to CSV; run metadata (config hash, seed, timestamps) go to
a separate manifest so the CSV stays byte-identical across reruns.
"""
from __future__ import annotations

import argparse
import dataclasses
import datetime
import hashlib
import json
import os
import sys
import warnings

import numpy as np

from . import __version__
from .rates import (
    ConfigError,
    ExperimentConfig,
    fit_rate,
    plan_basis,
    plan_truths,
    read_records,
    record_group,
    run_experiment,
    write_records,
)

_CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(ExperimentConfig))


def config_hash(raw: dict) -> str:
    """Canonical hash: stable under key reordering."""
    blob = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def parse_config(
    path: str, seed: str | None = None, threads: int | None = None
) -> tuple[ExperimentConfig, dict]:
    """Load and validate a JSON config; returns (config, echo dict).

    `seed`, a SUPNORM_SEED value, replaces the master seed and `threads`, a
    --threads value, the thread count before validation, so a bad one is a
    config error like a bad `master_seed` or `threads`.  The echo dict is
    the raw input with all defaults filled in.  The config's warnings are
    printed to stderr, one `warning: <message>` line each.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except OSError as e:  # a directory, or a file that cannot be read
        raise ConfigError(f"cannot read config: {e}")
    except UnicodeDecodeError as e:
        raise ConfigError(f"config is not UTF-8 text: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if seed is not None:
        try:
            raw["master_seed"] = int(seed)
        except ValueError:
            raise ConfigError(f"bad SUPNORM_SEED {seed!r}") from None
    if threads is not None:
        raw["threads"] = threads
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cfg = ExperimentConfig(**raw)
    except TypeError as e:
        raise ConfigError(str(e))
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    echo = {k: getattr(cfg, k) for k in _CONFIG_KEYS}
    echo["mcmc"] = dataclasses.asdict(cfg.mcmc)
    echo["n_grid"] = list(cfg.n_grid)
    return cfg, echo


def cmd_simulate(args) -> int:
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    made = False  # whether this call created --out
    try:
        cfg, echo = parse_config(args.config, os.environ.get("SUPNORM_SEED"), args.threads)
        # a truth the run cannot use is a config error, so the truths are
        # checked before any output (the run makes them again, in milliseconds)
        basis = plan_basis(cfg)
        plan_truths(cfg, basis)
        # made before the run, so that an unwritable path fails fast
        existed = os.path.isdir(args.out)
        os.makedirs(args.out, exist_ok=True)
        made = not existed
        records = run_experiment(cfg, basis)
        csv_path = os.path.join(args.out, "records.csv")
        write_records(csv_path, records)
        manifest = {
            "tool_version": __version__,
            # threads affect scheduling only, never results; keep them out of the hash
            "config_hash": config_hash({k: v for k, v in echo.items() if k != "threads"}),
            "master_seed": cfg.master_seed,
            "started_at": started,
            "finished_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "records_csv": csv_path,
            "rows": len(records),
            "config": echo,
        }
        with open(os.path.join(args.out, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        code = 2
    except Exception as e:  # noqa: BLE001 - the CLI contract maps these to exit 3
        print(f"runtime error: {e}", file=sys.stderr)
        code = 3
    else:
        print(csv_path)
        return 0
    # a failed run leaves no empty output directory of its own making
    if made and not os.listdir(args.out):
        os.rmdir(args.out)
    return code


def cmd_fit_rate(args) -> int:
    try:
        records = read_records(args.csv)
        fit = fit_rate(records, regressor=args.regressor)
    except (OSError, ValueError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    json.dump(fit.to_json_dict(), sys.stdout, allow_nan=False)
    sys.stdout.write("\n")
    return 0


def cmd_report(args) -> int:
    try:
        records = read_records(args.csv)
        record_group(records)
    except (OSError, ValueError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    if not records:
        print("no records")
        return 0
    flagged = [r for r in records if r.flag]
    clean = [r for r in records if not r.flag]
    print(f"# Loss report: {records[0].model}, prior {records[0].prior}, "
          f"alpha={records[0].alpha:g}")
    print()
    if flagged:
        print(f"{len(flagged)} flagged row(s) excluded from the table.")
        print()
    cols = "| n | rows | mean sup | median sup | mean L2 | mean Hellinger | q90 sup | trunc bias |"
    print(cols)
    print("|---" * 8 + "|")
    for n in sorted({r.n for r in clean}):
        rows = [r for r in clean if r.n == n]
        sups = [r.sup_loss for r in rows]
        l2s = [r.l2_loss for r in rows]
        hels = [r.hellinger_loss for r in rows if r.hellinger_loss is not None]
        q90s = [r.q90_sup for r in rows]
        tbs = [r.trunc_bias for r in rows if r.trunc_bias is not None]
        hel = f"{np.mean(hels):.4g}" if hels else "-"
        tb = f"{np.mean(tbs):.4g}" if tbs else "-"
        print(
            f"| {n} | {len(rows)} | {np.mean(sups):.4g} | {np.median(sups):.4g} "
            f"| {np.mean(l2s):.4g} | {hel} | {np.mean(q90s):.4g} | {tb} |"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="supnorm",
        description="Sup-norm posterior contraction rate experiments",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run an experiment config")
    sim.add_argument("config", help="JSON experiment config")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--threads", type=int, default=None,
                     help="thread ceiling: only histogram cells run on threads; "
                          "never affects results")
    sim.set_defaults(func=cmd_simulate)

    fit = sub.add_parser("fit-rate", help="fit a log-log slope to a records CSV")
    fit.add_argument("csv", help="loss-record CSV")
    fit.add_argument("--regressor", choices=("nlogn", "n"), default="nlogn")
    fit.set_defaults(func=cmd_fit_rate)

    rep = sub.add_parser("report", help="summarize a records CSV")
    rep.add_argument("csv", help="loss-record CSV")
    rep.set_defaults(func=cmd_report)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
