"""Mutation check: each fault in the table must make its named tests fail.

Run from anywhere, with the interpreter that runs the tests:

    python tests/mutations.py

It runs every mutation in the table; `run(mutation)` runs one.

Each row names a file, an exact source text (found once in that file), its
replacement, and the pytest node IDs that must fail.  For each row the
script copies `src/`, `tests/` and `pyproject.toml` to a temporary
directory, applies the one mutation there, and runs only the row's tests on
the copy.  A mutation is reported as

- caught: every named test fails (a parametrized test fails in some case);
- survived: a named test passes with the fault in place;
- stale: the source text is not found exactly once, so the row no longer
  describes the code;
- error: pytest could not run the tests (an unknown node ID, or a
  mutation that does not import).

The exit status is 0 when every mutation is caught and 1 otherwise.  The
script uses the standard library only.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutation(NamedTuple):
    name: str
    file: str  # relative to the repository root
    text: str  # exact source text, found once in the file
    replacement: str
    tests: tuple  # pytest node IDs, relative to the repository root, that must fail


_WAVELETS = "src/supnorm/wavelets.py"
_WN = "src/supnorm/whitenoise.py"
_DENSITY = "src/supnorm/density.py"
_RATES = "src/supnorm/rates.py"
_REFERENCE_RECORDS = "tests/test_rates.py::TestRunExperiment::test_records_equal_the_per_model_reference"

_HAAR = "tests/test_wavelets.py::TestHaarBlocksMatchFullGrid"
_HAAR_DEFINITION = "tests/test_wavelets.py::TestHaarDefinition"
_ANALYZE = "tests/test_wavelets.py::TestAnalyzeSynthesize"

MUTATIONS = (
    Mutation(
        "haar-pyramid-left-minus-right", _WAVELETS,
        "(right - left) * (2.0 ** (l / 2.0) / f.size)", "(left - right) * (2.0 ** (l / 2.0) / f.size)",
        (f"{_HAAR}::test_analyze_and_synthesize",
         f"{_ANALYZE}::test_analyze_single_wavelet",
         f"{_ANALYZE}::test_haar_analysis_sums_in_fixed_order"),
    ),
    Mutation(
        "haar-scaling-coefficient-undivided", _WAVELETS,
        "out[0] = sums[0] / f.size", "out[0] = sums[0]",
        (f"{_HAAR}::test_analyze_and_synthesize",
         f"{_ANALYZE}::test_analyze_constant",
         f"{_ANALYZE}::test_haar_analysis_sums_in_fixed_order"),
    ),
    Mutation(
        "haar-columns-amplitude-two-to-the-l", _WAVELETS,
        "b, amp = self.dim >> l, 2.0 ** (l / 2.0)", "b, amp = self.dim >> l, 2.0 ** l",
        (f"{_HAAR}::test_block_rows",
         f"{_HAAR}::test_gram_localisation_and_functions",
         f"{_HAAR_DEFINITION}::test_columns_are_the_haar_system",
         f"{_HAAR_DEFINITION}::test_blocks_equal_the_definition_bit_for_bit"),
    ),
    Mutation(
        "guide-table-without-its-plus-one", _DENSITY,
        "    first += 1\n", "",
        ("tests/test_density.py::TestGuidedSearch::test_counted_table_with_last_entry_at_or_below_one",
         "tests/test_density.py::TestGuidedSearch::test_edge_tables"),
    ),
    Mutation(
        "bin-counts-without-its-dtype-check", _DENSITY,
        'if c.dtype.kind not in "iu" or c.min() < 0:', "if c.min() < 0:",
        ("tests/test_density.py::TestBinCounts::test_bad_counts_refused",),
    ),
    Mutation(
        "quadrature-fallback-without-errstate", _WN,
        '    with np.errstate(over="ignore"):\n        return _tabulate(',
        "    with np.errstate():\n        return _tabulate(",
        ("tests/test_cli.py::TestSimulate::test_run_time_failure_leaves_no_empty_out_of_its_own",),
    ),
    Mutation(
        "streams-not-keyed-by-flat-index", _WN,
        "for row in state)", "for row in state[::-1])",
        ("tests/test_whitenoise.py::TestSimulate::test_truth_plus_coordinate_noise",
         "tests/test_whitenoise.py::TestDraws::test_uniform_streams_keep_their_level_position_keys"),
    ),
    Mutation(
        "record-q90-at-the-median", _RATES,
        "float(np.quantile(losses[0], 0.9))", "float(np.quantile(losses[0], 0.5))",
        (_REFERENCE_RECORDS,),
    ),
    Mutation(
        "record-hellinger-from-the-l2-row", _RATES,
        "hellinger = float(losses[2].mean())", "hellinger = float(losses[1].mean())",
        (f"{_REFERENCE_RECORDS}[density-histogram-9]",
         f"{_REFERENCE_RECORDS}[density-logdensity-9]"),
    ),
    Mutation(
        "mcmc-sweep-without-errstate", _DENSITY,
        '    with np.errstate(over="ignore", invalid="ignore"):\n        for it in',
        "    with np.errstate():\n        for it in",
        ("tests/test_cli.py::TestSimulate::test_overflowing_proposals_are_rejected_without_a_warning",),
    ),
    Mutation(
        "mcmc-log-of-an-underflowed-normaliser", _DENSITY,
        "if r > 0.0 and log(u[l])", "if log(u[l])",
        ("tests/test_density.py::TestMcmc::test_proposal_whose_normaliser_underflows_is_rejected",),
    ),
    Mutation(
        "mcmc-guard-on-the-normaliser-not-its-ratio", _DENSITY,
        "if r > 0.0 and log(u[l])", "if S_new > 0.0 and log(u[l])",
        ("tests/test_density.py::TestMcmc::test_proposal_whose_normaliser_ratio_underflows_is_rejected",),
    ),
    Mutation(
        "mcmc-first-draw-unchecked", _DENSITY,
        "    if not math.isfinite(S):\n", "    if False:\n",
        ("tests/test_density.py::TestMcmc::test_first_draw_that_overflows_is_refused_without_a_warning",
         "tests/test_cli.py::TestSimulate::test_prior_draw_that_overflows_exits_3_without_a_warning"),
    ),
    Mutation(
        "loss-moments-without-errstate", _DENSITY,
        '    with np.errstate(invalid="ignore"):\n        mean, css = moments(blocks)',
        "    with np.errstate():\n        mean, css = moments(blocks)",
        ("tests/test_functions.py::test_grid_values_refused_by_their_reader[inf-posterior_expected_losses]",),
    ),
)


def _failed(node: str, failed: set) -> bool:
    """Whether the node ID, or some parametrized case of it, failed."""
    return any(f == node or f.startswith(node + "[") for f in failed)


def run(mutation: Mutation, root: Path = ROOT) -> tuple[str, str]:
    """(status, detail) of one mutation, applied to a copy of `root`."""
    source = (root / mutation.file).read_text()
    if source.count(mutation.text) != 1:
        return "stale", f"{source.count(mutation.text)} matches in {mutation.file}"
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".pytest_cache", ".hypothesis")
    with tempfile.TemporaryDirectory(prefix="supnorm-mutation-") as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(root / name, copy / name, ignore=skip)
        shutil.copy2(root / "pyproject.toml", copy / "pyproject.toml")
        (copy / mutation.file).write_text(source.replace(mutation.text, mutation.replacement))
        # the copy's src first, so that no installed or checked-out package is imported
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "--tb=no", "-p", "no:cacheprovider",
             *mutation.tests],
            cwd=copy, env=env, capture_output=True, text=True,
        )
    # "FAILED <node ID> - <message>"; a parametrized ID may hold spaces
    failed = {line[len("FAILED "):].split(" - ", 1)[0]
              for line in proc.stdout.splitlines() if line.startswith("FAILED ")}
    if proc.returncode not in (0, 1):
        tail = (proc.stdout + proc.stderr).strip().splitlines()[-3:]
        return "error", f"pytest exit {proc.returncode}: " + " | ".join(tail)
    passed = [node for node in mutation.tests if not _failed(node, failed)]
    if passed:
        return "survived", "passed: " + ", ".join(passed)
    return "caught", f"{len(failed)} failed"


def main() -> int:
    statuses = []
    for mutation in MUTATIONS:
        t0 = time.perf_counter()
        status, detail = run(mutation)
        statuses.append(status)
        print(f"{status:8s} {mutation.name} ({time.perf_counter() - t0:.1f} s): {detail}", flush=True)
    caught = statuses.count("caught")
    print(f"{caught} of {len(statuses)} mutations caught")
    return 0 if caught == len(statuses) else 1


if __name__ == "__main__":
    sys.exit(main())
