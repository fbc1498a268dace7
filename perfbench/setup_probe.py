"""Set-up probe: import redundarith in a fresh interpreter and run one workload's first operation.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

Prints one JSON line: the seconds spent in `import redundarith`, the
seconds of the first call, the mean time of the pure-Python reference
kernel run just before and just after the import (for scaling, see
measure.py), and whether the first result was correct.  Generating the
first operation's inputs is not timed.
"""

import json
import sys
import time

from reference import python_reference_time
from srcpath import ensure_src

ensure_src()
ref_before = python_reference_time()
t_start = time.perf_counter()
import redundarith  # noqa: E402,F401

t_imported = time.perf_counter()
ref_after = python_reference_time()

import workloads  # noqa: E402


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    op = workloads.WORKLOADS[name](seed).chunk(0)[0]
    t0 = time.perf_counter()
    result = op.call()
    first_call_s = time.perf_counter() - t0
    error, _ = op.check(result, [result])
    print(
        json.dumps(
            {
                "import_s": t_imported - t_start,
                "first_call_s": first_call_s,
                "ref_s": (ref_before + ref_after) / 2,
                "ok": error is None,
                "error": error,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
