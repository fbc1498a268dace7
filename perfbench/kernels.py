"""Hot-kernel timings on fixed inputs, with the numba-vs-numpy agreement check.

The four kernels and inputs of benchmarks/bench_backends.py, timed as
`kernels.*` spans through the benchmark's tracer: reduce_to_two on a
127x256 bit matrix, a 1e5-step width-16 accumulator stream, popcount of
4096 rows of 63 bits, and 200 partial-product fills of 64x64 bits.
Each kernel's self time is the median over --repeats.

When numba can be imported and the library still has `use_backend`,
the same inputs also run under the numba backend and the outputs must
agree bit for bit with numpy.  numba is not installed on the machine
these kernels were written on, so that path is unverified there.
"""

from __future__ import annotations

import json
import statistics

import numpy as np

from tracer import Tracer


def _cases(rng):
    from redundarith import _kernels

    reduce_in = rng.integers(0, 2, size=(127, 256), dtype=np.int64)
    stream_in = rng.integers(0, 2, size=(100_000, 16), dtype=np.int64)
    popcount_in = rng.integers(0, 2, size=(4096, 63), dtype=np.int64)
    pp_a = rng.integers(0, 2, size=64, dtype=np.int64)
    pp_b = rng.integers(0, 2, size=64, dtype=np.int64)

    def reduce():
        out, _ = _kernels.reduce_to_two_digits(reduce_in.copy(), 2)
        return out

    def stream():
        s = np.zeros(17, dtype=np.int64)
        c = np.zeros(17, dtype=np.int64)
        overflow = _kernels.acc_stream1(stream_in, s, c, False)
        return np.concatenate([s, c, [overflow]])

    def popcount():
        return _kernels.popcount_batch(popcount_in)

    def pp():
        out = None
        for _ in range(200):
            out = _kernels.pp_unsigned_digits(pp_a, pp_b)
        return out

    return [
        ("reduce_to_two 127x256", "kernels.reduce", reduce),
        ("acc_stream1 1e5 steps", "kernels.stream", stream),
        ("popcount_batch 4096x63", "kernels.popcount", popcount),
        ("pp_unsigned 64x64 x200", "kernels.pp", pp),
    ]


def _time_spans(cases, repeats: int) -> tuple:
    """Median self time per kernel span, and each kernel's last output."""
    times = {span: [] for _, span, _ in cases}
    outputs = {}
    for _ in range(repeats):
        tracer = Tracer()
        tracer.install()
        try:
            tracer.active = True
            for label, span, run in cases:
                outputs[label] = run()
        finally:
            tracer.uninstall()
        selfs = tracer.self_times()
        for span in times:
            times[span].append(selfs.get(span, (float("nan"), 0))[0])
    return {span: statistics.median(v) for span, v in times.items()}, outputs


def run_kernels(seed: int, repeats: int) -> int:
    from redundarith import _kernels

    cases = _cases(np.random.default_rng(seed))
    use_backend = getattr(_kernels, "use_backend", None)
    has_numba = getattr(_kernels, "HAS_NUMBA", False)
    initial = _kernels.active_backend() if hasattr(_kernels, "active_backend") else None
    if use_backend is not None:
        use_backend("numpy")
    try:
        numpy_times, numpy_out = _time_spans(cases, repeats)
        numba_times, agree = None, None
        if has_numba and use_backend is not None:
            use_backend("numba")
            for _, _, run in cases:
                run()  # warm-up triggers JIT compilation
            numba_times, numba_out = _time_spans(cases, repeats)
            agree = {label: bool(np.array_equal(numpy_out[label], numba_out[label])) for label in numpy_out}
    finally:
        if use_backend is not None and initial:
            use_backend(initial)
    print(f"{'kernel':<26} {'span':<18} {'numpy':>10} {'numba':>10} {'agree':>6}")
    for label, span, _ in cases:
        nb = f"{numba_times[span] * 1e3:8.2f}ms" if numba_times else "-"
        ok = str(agree[label]) if agree else "-"
        print(f"{label:<26} {span:<18} {numpy_times[span] * 1e3:8.2f}ms {nb:>10} {ok:>6}")
    if not has_numba:
        print("numba is not importable: only the numpy backend ran")
    print(
        json.dumps(
            {
                "numpy_self_s": numpy_times,
                "numba_self_s": numba_times,
                "numba_agrees": agree,
            },
            sort_keys=True,
        )
    )
    return 0 if agree is None or all(agree.values()) else 1
