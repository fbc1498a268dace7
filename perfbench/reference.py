"""Pure-Python reference kernel, importable before numpy is.

The set-up probe times it just before and just after importing
redundarith, in the same fresh interpreter, to scale the import the way
measure.py scales calls (see there).  It needs no numpy, so importing
this module does not move any of the import being measured.
"""

import time

REF_SECONDS = 1e-3  # nominal reference-kernel time that scaled timings refer to
PYTHON_ITERS = 15_000  # about REF_SECONDS on the idle 2-core x86 host the benchmark was tuned on


def python_reference_time() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(PYTHON_ITERS):
        s += i * i % 7
    return time.perf_counter() - t0
