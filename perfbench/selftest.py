"""Self-tests of the benchmark.

Run from the checkout root with:

    python3 -m pytest perfbench/selftest.py

The file name keeps these tests out of the library's default test
collection: they run the benchmark itself and take a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from srcpath import ROOT, ensure_src  # noqa: E402

ensure_src()

import redundarith as R  # noqa: E402
import run  # noqa: E402
from compare import compare_files, verdict  # noqa: E402
from measure import end_to_end, run_loop  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, Products  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


def test_declared_names_match_the_code():
    assert NAMES == list(WORKLOADS)
    assert [m["name"] for m in BENCH["per_layer"]] == list(LAYER_METRICS)
    assert [m["unit"] for m in BENCH["per_layer"]] == list(LAYER_METRICS.values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_smoke_run_prints_every_declared_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = last["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.startswith(f"{m['name']} ") and line.endswith(f" {m['unit']}") for line in lines)
    if not trace:
        for m in declared:
            assert last["metrics"][m["name"]]["value"] > 0, m["name"]


def _flip_low_bit(real):
    def wrong(a, b, signed=False):
        out = real(a, b, signed=signed)
        digits = out.digits.copy()
        digits[0, 0] ^= 1
        return R.MultiRowCode(out.rows, out.width, out.radix, out.lsb_exp, digits)

    return wrong


def test_wrong_engine_result_is_counted_as_failed(monkeypatch):
    monkeypatch.setattr(R, "multiply", _flip_low_bit(R.multiply))
    workload = Products(5)
    loop = run_loop(workload, 0.0, chunks=1)
    products = sum(1 for op in workload.chunk(0) if not op.kind.startswith("mac"))
    assert loop.failed == products
    assert loop.attempted == len(workload.chunk(0))
    assert loop.first_failure["inputs"].startswith(("mul", "smul"))
    metrics, _ = end_to_end(loop, workload.tail_pct)
    assert metrics["verified_ratio"][0] == (loop.attempted - products) / loop.attempted


def test_failing_run_exits_nonzero_and_names_the_input(monkeypatch, capsys):
    monkeypatch.setattr(R, "multiply", _flip_low_bit(R.multiply))
    code = run.main(["--workload", "products", "--seed", "5", "--seconds", "0.2", "--trace", "0"])
    out, err = capsys.readouterr()
    last = json.loads(out.strip().splitlines()[-1])
    assert code == 1
    assert not last["correct"] and last["failed"] > 0
    assert "first:" in err and "a=" in err


@pytest.mark.parametrize("workload", NAMES)
def test_traced_and_untraced_fingerprints_are_identical(workload):
    cls = WORKLOADS[workload]
    plain = run_loop(cls(7), 0.0, chunks=cls.trace_chunks)
    again = run_loop(cls(7), 0.0, chunks=cls.trace_chunks)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_loop(cls(7), 0.0, chunks=cls.trace_chunks, tracer=tracer)
    finally:
        tracer.uninstall()
    assert plain.failed == traced.failed == 0
    assert plain.fingerprint == again.fingerprint
    assert traced.fingerprint == plain.fingerprint
    assert tracer.starts and not tracer.absent


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "products", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_kernel_timings_run():
    proc = _run("--kernels", "--repeats", "1")
    assert proc.returncode == 0, proc.stderr
    timings = json.loads(proc.stdout.strip().splitlines()[-1])["numpy_self_s"]
    assert set(timings) == {"kernels.reduce", "kernels.stream", "kernels.popcount", "kernels.pp"}
    assert all(t > 0 for t in timings.values())


def test_compare_verdicts():
    base = [100.0, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    assert verdict(base, [x * 1.3 for x in base], "higher", 0.1)[0] == "improved"
    assert verdict(base, [x * 0.8 for x in base], "higher", 0.1)[0] == "regressed"
    assert verdict(base, [x * 0.97 for x in base], "higher", 0.1)[0] == "within bound"
    assert verdict(base, [x * 0.7 for x in base], "lower", 0.1)[0] == "improved"
    noisy = [50.0, 150, 80, 120, 100, 60, 140, 90, 110, 100]
    assert verdict(noisy, list(reversed(noisy)), "higher", 0.1)[0] == "unresolved"


def _series(path, seeds, started, scale=1.0, fingerprint="f", correct=True):
    def rec(seed, t):
        metrics = {m["name"]: 100.0 + seed % 3 for m in BENCH["end_to_end"]}
        metrics["ops_per_s"] *= scale
        return {
            "seed": seed, "started": t, "returncode": 0 if correct else 1, "correct": correct,
            "metrics": metrics, "raw_metrics": dict(metrics), "fingerprint": fingerprint,
        }

    runs = {name: [rec(s, started + i) for i, s in enumerate(seeds)] for name in NAMES}
    traced = {name: {**rec(seeds[0], started), "metrics": {"trace.ops": 1}} for name in NAMES}
    path.write_text(json.dumps({"runs": runs, "traced": traced}))
    return str(path)


def test_compare_pairs_runs_from_several_files_and_fails_on_mismatch(tmp_path, capsys):
    base = [_series(tmp_path / "b1", range(1, 11), 0), _series(tmp_path / "b2", range(11, 21), 300)]
    new = [_series(tmp_path / "n1", range(1, 11), 100), _series(tmp_path / "n2", range(11, 21), 200)]
    assert compare_files(base, new) == 0
    out = capsys.readouterr().out
    assert "20 pairs, base ran first in 10; fingerprint identical in 20/20" in out
    slower = [_series(tmp_path / "s1", range(1, 11), 100, scale=0.5), new[1]]
    assert compare_files(base, slower) == 1
    assert "ops_per_s regressed" in capsys.readouterr().out
    other = [_series(tmp_path / "o1", range(1, 11), 100, fingerprint="g"), new[1]]
    assert compare_files(base, other) == 1
    assert "fingerprints differ" in capsys.readouterr().out
    failed = [_series(tmp_path / "x1", range(1, 11), 100, correct=False), new[1]]
    assert compare_files(base, failed) == 1
    assert "run failed" in capsys.readouterr().out
