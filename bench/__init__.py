"""End-to-end benchmark of the localization system.

Run from the repository root::

    python3 -m bench --workload fig9_campaign --seed 2024 [--seconds 12] [--trace 0|1]

``bench/README.md`` describes the workloads and metrics; ``BENCHMARK.json``
declares them.  The harness only calls public functions of ``repro`` and
imports the package from this checkout's ``src/``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Pinned before numpy is imported.  With two campaign workers on a
#: 2-core machine, multi-threaded BLAS oversubscribes the cores and makes
#: throughput both lower and noisier.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Campaign executor processes and closed-loop serve clients.
N_WORKERS = 2
N_CLIENTS = 2

DEFAULT_SEED = 2024


def use_checkout_sources() -> None:
    """Put this checkout's ``src/`` first on ``sys.path``.

    Raises:
        FileNotFoundError: The checkout holds no ``src/repro`` package, so
            there is nothing to benchmark.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
