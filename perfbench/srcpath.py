"""Locate the redundarith sources of the checkout the benchmark sits in.

The benchmark never uses an installed copy of the package: it puts
`<checkout>/src` first on sys.path and refuses to run when the sources
are not there, so a directory holding only the benchmark fails loudly.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE = SRC / "redundarith"
RESULTS = BENCH_DIR / "results"
BENCH_FILE = ROOT / "BENCHMARK.json"
# one BLAS thread: numpy's thread pool otherwise spins up at import and
# competes with the single-threaded workload for the cores
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class MissingSourcesError(RuntimeError):
    """The checkout holds no redundarith sources to benchmark."""


def ensure_src() -> None:
    """Put the checkout's src/ first on sys.path, or raise MissingSourcesError."""
    if not (PACKAGE / "__init__.py").is_file():
        raise MissingSourcesError(f"no redundarith sources at {PACKAGE}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    loaded = sys.modules.get("redundarith")
    if loaded is not None and not Path(loaded.__file__).resolve().is_relative_to(PACKAGE):
        raise MissingSourcesError(
            f"redundarith already imported from {loaded.__file__}, not {PACKAGE}"
        )
