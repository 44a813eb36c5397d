"""Run the serving benchmark from the repository root.

    python3 servebench/run.py --workload arrivals --seed 1 --seconds 20 --trace 0

See README.md for the workloads and metrics.  Exits non-zero without a
result when the program's sources are not beside this directory.
"""

import os
import sys
from pathlib import Path

if __name__ == "__main__":
    # Single-threaded native math, set before NumPy loads: never more
    # threads than cores, and steadier timings on a small shared host.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "repro").is_dir():
        sys.exit(f"servebench: no program sources under {root / 'src'}")
    sys.path[:0] = [str(root / "src"), str(root)]

    from servebench.bench import main

    sys.exit(main())
