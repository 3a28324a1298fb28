"""Run one workload of the supnorm benchmark and print its metrics.

    python3 benchmarks/run.py --workload wn --seed 2024 --seconds 20 --trace 0

Run from a checkout of the repository; the library is imported from its
`src/` directory.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""
import os
import sys
from pathlib import Path

# one BLAS thread, set before numpy loads: the benchmark measures the
# program's own parallelism (rates threads), not OpenBLAS's
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    src = ROOT / "src"
    if not (src / "supnorm" / "__init__.py").is_file():
        print(f"benchmark: no supnorm sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import bench

    sys.exit(bench.main(root=ROOT))
