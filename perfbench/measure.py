"""The closed measuring loop, its estimators, set-up probes and the environment stamp.

The loop issues each call only after the previous one returned, one
process, one thread.  Inputs for a chunk are generated before its timed
window and every result is checked after it, so neither generation nor
checking is timed.

Host speed on a shared machine drifts by up to a factor of two for tens
of seconds at a time, which no median inside one run can remove.  So every timing
is also taken against a reference kernel: fixed interpreter and small-
numpy work that does not touch redundarith, timed at every chunk
boundary and after every CHECKPOINT_S of calls.  A call's time t is
reported as t * REF_SECONDS / r, with r the mean of the reference times
just before and just after it: seconds on a host where the reference
kernel takes REF_SECONDS.  Set-up probes do the same with a pure-Python
kernel timed inside the probe around its import.  The unscaled figures
are kept in the results file as `raw_end_to_end`, and --compare prints
their verdicts beside the gated, scaled ones.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field

import numpy as np

from reference import REF_SECONDS
from srcpath import BENCH_DIR, PACKAGE, ROOT, SINGLE_THREAD_ENV, SRC
from workloads import Fingerprint, Raised

# call_tail_us percentiles.  Each workload caps the rung so the reported
# percentile sits inside its slowest well-populated operation class, not
# in the noise above it.
TAIL_LADDER = (90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10  # calls that must lie beyond the reported percentile
SETUP_PROBES = 7  # timed fresh-interpreter set-ups per run, after one warm-up
REF_ITERS = 520  # about REF_SECONDS on the idle 2-core x86 host the benchmark was tuned on
CHECKPOINT_S = 0.02  # call time between reference timings inside a chunk
_REF_ROW = np.arange(64, dtype=np.int64)


def reference_kernel() -> int:
    """Fixed interpreter and small-numpy work, independent of redundarith."""
    s = 0
    for i in range(REF_ITERS):
        s += int((_REF_ROW + i).sum()) & 7
        s ^= (i * 3) % 5
    return s


def reference_time() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


class Histogram:
    """Call times in fixed memory: log-spaced bins from 1e-8 s to 1e3 s,
    each 0.12 % wide.  A list of every call time would grow with the call
    count, so a faster library would show a higher peak_rss_mb."""

    LOW_EXP = -8
    DECADES = 11
    PER_DECADE = 2000

    def __init__(self):
        self.counts = np.zeros(self.DECADES * self.PER_DECADE, dtype=np.int64)
        self.n = 0

    def add(self, seconds) -> None:
        pos = (np.log10(np.asarray(seconds, dtype=np.float64)) - self.LOW_EXP) * self.PER_DECADE
        idx = np.clip(pos.astype(np.int64), 0, self.counts.size - 1)
        np.add.at(self.counts, idx, 1)
        self.n += idx.size

    def percentile(self, pct: float) -> float:
        """The geometric centre of the bin holding the pct-th percentile."""
        rank = int(round((self.n - 1) * pct / 100.0))
        b = int(np.searchsorted(np.cumsum(self.counts), rank, side="right"))
        return 10.0 ** (self.LOW_EXP + (b + 0.5) / self.PER_DECADE)


@dataclass
class LoopResult:
    chunks: int = 0
    attempted: int = 0
    failed: int = 0
    first_failure: dict | None = None
    chunk_rates: array = field(default_factory=lambda: array("d"))  # verified ops / scaled s
    call_times: Histogram = field(default_factory=Histogram)  # scaled seconds per call
    raw_chunk_rates: array = field(default_factory=lambda: array("d"))
    raw_call_times: Histogram = field(default_factory=Histogram)
    speed_factors: array = field(default_factory=lambda: array("d"))  # REF_SECONDS / reference time
    fingerprint: dict | None = None

    @property
    def ops_per_s(self) -> float:
        return statistics.median(self.chunk_rates)


def run_loop(workload, seconds: float, chunks: int | None = None, tracer=None) -> LoopResult:
    """Run chunks until `seconds` of wall time have passed (at least
    workload.trace_chunks of them), or exactly `chunks` chunks when given."""
    res = LoopResult()
    fp = Fingerprint()
    floor = workload.trace_chunks
    deadline = time.perf_counter() + seconds
    index = 0
    ref = reference_time()
    while True:
        if chunks is not None:
            if index >= chunks:
                break
        elif index >= floor and time.perf_counter() >= deadline:
            break
        ops = workload.chunk(index)
        results = [None] * len(ops)
        times = [0.0] * len(ops)
        refs = [ref]
        checkpoint = [0] * len(ops)  # the reference timing taken before each call
        since = 0.0
        if tracer is not None:
            tracer.active = True
        for i, op in enumerate(ops):
            if since >= CHECKPOINT_S:
                refs.append(reference_time())
                since = 0.0
            checkpoint[i] = len(refs) - 1
            t0 = time.perf_counter()
            try:
                results[i] = op.call()
            except Exception as exc:  # a raising call is a failed operation
                results[i] = Raised(exc)
            times[i] = time.perf_counter() - t0
            since += times[i]
        if tracer is not None:
            tracer.active = False
        ref = reference_time()
        refs.append(ref)
        factors = [REF_SECONDS * 2 / (a + b) for a, b in zip(refs, refs[1:])]
        scaled = [t * factors[j] for t, j in zip(times, checkpoint)]
        verified = 0
        for i, op in enumerate(ops):
            res.attempted += op.units
            result = results[i]
            if isinstance(result, Raised):
                error, record = repr(result), None
            else:
                error, record = op.check(result, results)
            if error is None:
                verified += op.units
                if index < floor:
                    fp.add(record)
                continue
            res.failed += op.units
            if res.first_failure is None:
                res.first_failure = {"chunk": index, "op": i, "inputs": op.inputs, "error": error}
        res.chunk_rates.append(verified / sum(scaled))
        res.raw_chunk_rates.append(verified / sum(times))
        res.call_times.add(scaled)
        res.raw_call_times.add(times)
        res.speed_factors.extend(factors)
        index += 1
    res.chunks = index
    res.fingerprint = fp.summary()
    return res


def tail_percentile(n_calls: int, cap: float) -> float:
    """The highest ladder percentile, at most `cap`, with at least
    TAIL_MIN_BEYOND calls beyond it (the lowest rung when none has)."""
    rungs = [p for p in TAIL_LADDER if p <= cap]
    for pct in reversed(rungs):
        if n_calls * (100.0 - pct) / 100.0 >= TAIL_MIN_BEYOND:
            return pct
    return rungs[0]


def end_to_end(loop: LoopResult, tail_cap: float, raw: bool = False) -> tuple:
    """End-to-end metrics measured by the loop (set-up time is separate);
    `raw` gives them from the unscaled timings."""
    rates = loop.raw_chunk_rates if raw else loop.chunk_rates
    calls = loop.raw_call_times if raw else loop.call_times
    tail = tail_percentile(calls.n, tail_cap)
    metrics = {
        "ops_per_s": (statistics.median(rates), "1/s"),
        "call_p50_us": (calls.percentile(50.0) * 1e6, "us"),
        "call_tail_us": (calls.percentile(tail) * 1e6, "us"),
        "verified_ratio": ((loop.attempted - loop.failed) / loop.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return metrics, tail


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_probes(workload: str, seed: int) -> dict:
    """Time fresh interpreters that import redundarith and run the
    workload's first operation; one untimed warm-up compiles bytecode.
    Each probe is scaled by the reference kernel timed around its import."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)]
    env = {**os.environ, **SINGLE_THREAD_ENV}
    samples = []
    for i in range(SETUP_PROBES + 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT, env=env)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        if not sample["ok"]:
            raise RuntimeError(f"set-up probe's first operation was wrong: {sample}")
        if i:
            samples.append((sample, REF_SECONDS / sample["ref_s"]))
    return {
        "setup_s": statistics.median((s["import_s"] + s["first_call_s"]) * f for s, f in samples),
        "import_s": statistics.median(s["import_s"] * f for s, f in samples),
        "first_call_s": statistics.median(s["first_call_s"] * f for s, f in samples),
        "raw_setup_s": statistics.median(s["import_s"] + s["first_call_s"] for s, _ in samples),
    }


def source_lines() -> int:
    """Non-blank lines of the package's Python sources."""
    total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for line in fh if line.strip())
    return total


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30, cwd=ROOT
        )
    except OSError:
        return None
    return proc.stdout.strip() or None


def _numba_importable() -> bool:
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


def environment() -> dict:
    """Machine and code stamp; the load average is sampled again at the end."""
    import numpy
    import redundarith

    kernels = getattr(redundarith, "_kernels", None)
    backend = getattr(kernels, "active_backend", None)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": _numba_importable(),
        "active_backend": backend() if backend else None,
        "loadavg_start": list(os.getloadavg()),
        "git_commit": _git_commit(),
        "src_nonblank_lines": source_lines(),
        "src": str(SRC.relative_to(ROOT)),
    }
