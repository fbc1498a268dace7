"""redundarith benchmark: four oracle-checked workloads, end-to-end and per-layer metrics.

One workload run (the form BENCHMARK.json names):

    python3 perfbench/run.py --workload products --seed 1 --seconds 20 --trace 0

runs the workload's chunks in one single-threaded closed loop for the
given seconds, checks every result against exact big-integer
arithmetic outside the timed window, and prints every metric with its
unit.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  A traced run
first makes the same untraced run, then runs the workload's fixed
traced prefix with every public function of the package wrapped (see
tracer.py).  Full results, the environment stamp and the simulated-
statistics fingerprint go to perfbench/results/.  Any wrong result
makes the exit code 1 and names the first mismatching input.

Other modes:

    python3 perfbench/run.py --series OUT.json [--seed-base 1]
        runs every workload ten times with consecutive seeds, one
        process at a time, plus one traced run each, writes OUT.json
        and prints each end-to-end metric's quartile spread.
    python3 perfbench/run.py --compare BASE.json... --against NEW.json...
        compares --series files of two checkouts metric by metric,
        runs paired by seed (see compare.py).
    python3 perfbench/run.py --kernels [--repeats 5]
        times the four hot kernels on fixed inputs (see kernels.py).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

from srcpath import BENCH_FILE, RESULTS, SINGLE_THREAD_ENV, MissingSourcesError, ensure_src


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One measured run of a workload; returns the full result record."""
    import redundarith

    from measure import end_to_end, environment, run_loop, setup_probes
    from tracer import LAYER_METRICS, Tracer
    from workloads import WORKLOADS

    env = environment()
    workload = WORKLOADS[name](seed)
    setup = setup_probes(name, seed)
    loop = run_loop(workload, seconds)
    metrics, tail = end_to_end(loop, workload.tail_pct)
    metrics["setup_s"] = (setup["setup_s"], "s")
    raw, _ = end_to_end(loop, workload.tail_pct, raw=True)
    raw["setup_s"] = (setup["raw_setup_s"], "s")
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": env,
        "chunks": loop.chunks,
        "calls": loop.call_times.n,
        "tail_pct": tail,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "first_failure": loop.first_failure,
        "fingerprint": loop.fingerprint,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "raw_end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "speed_factor_quartiles": statistics.quantiles(loop.speed_factors, n=4),
    }
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_loop(WORKLOADS[name](seed), 0.0, chunks=workload.trace_chunks, tracer=tracer)
        finally:
            tracer.uninstall()
        layers = tracer.layer_metrics()
        speed = statistics.median(traced.speed_factors)  # span times scale like call times
        for key in layers:
            if key.endswith(".self_s"):
                layers[key] *= speed
        layers["setup.import_s"] = setup["import_s"]
        layers["setup.first_call_s"] = setup["first_call_s"]
        layers["trace.ops"] = traced.attempted
        layers["trace.overhead_ratio"] = traced.ops_per_s / loop.ops_per_s
        record["per_layer"] = {k: {"value": layers[k], "unit": u} for k, u in LAYER_METRICS.items()}
        record["absent"] = tracer.absent
        # model counts only the wrappers can observe, from the traced prefix
        record["fingerprint"] = {
            **loop.fingerprint,
            "stages_by_shape": {
                f"{rows}r{radix}": stages for (rows, radix), stages in sorted(tracer.reduce_stages.items())
            },
            "map_stack_rows": tracer.counts["map_unit.stack_rows"],
        }
        record["attempted"] += traced.attempted
        record["failed"] += traced.failed
        record["first_failure"] = record["first_failure"] or traced.first_failure
        problems = []
        if traced.fingerprint != loop.fingerprint:
            problems.append("traced fingerprint differs from the untraced one")
        for (rows, radix), stages in sorted(tracer.reduce_stages.items()):
            planned = redundarith.stage_plan(rows, radix).stages
            if stages != planned:
                problems.append(f"reduce of {rows} rows radix {radix} ran {stages} stages, plan says {planned}")
        if problems:
            record["failed"] += 1
            record["attempted"] += 1
            record["first_failure"] = record["first_failure"] or {"error": problems[0]}
        record["model_problems"] = problems
        RESULTS.mkdir(exist_ok=True)
        spans_path = RESULTS / f"{name}-seed{seed}.spans.json"
        tracer.write_spans(spans_path)
        record["spans_file"] = spans_path.name
    record["env"]["loadavg_end"] = list(os.getloadavg())
    return record


def summary_line(record: dict) -> dict:
    """The contract's last line: correct, attempted, failed, metrics."""
    metrics = record["per_layer"] if record["trace"] else record["end_to_end"]
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def print_record(record: dict) -> None:
    env = record["env"]
    print(
        f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
        f"{record['chunks']} chunks, {record['calls']} calls, tail percentile p{record['tail_pct']:g}"
    )
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    fp = record["fingerprint"]
    print(f"fingerprint results={fp['results_sha256'][:16]} ops={fp['ops']} counts={fp['counts']}")
    for key in ("end_to_end", "per_layer"):
        for name, m in record.get(key, {}).items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
    if record.get("absent"):
        print(f"absent spans (reported as 0): {', '.join(record['absent'])}")
    if record["failed"]:
        print(f"FAILED {record['failed']} of {record['attempted']}; first: {record['first_failure']}", file=sys.stderr)


def _main_workload(args) -> int:
    try:
        ensure_src()
    except MissingSourcesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print_record(record)
    print(json.dumps(summary_line(record)))
    return 0 if record["failed"] == 0 else 1


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def main(argv=None) -> int:
    os.environ.update(SINGLE_THREAD_ENV)  # before anything imports numpy
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload")
    mode.add_argument("--series", metavar="OUT.json")
    mode.add_argument("--compare", nargs="+", metavar="BASE.json")
    mode.add_argument("--kernels", action="store_true")
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--against", nargs="+", metavar="NEW.json")
    parser.add_argument("--seed-base", type=_seed, default=1)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    if bool(args.compare) != bool(args.against):
        parser.error("--compare and --against go together")
    if args.seconds is None and (args.workload or args.series):
        with open(BENCH_FILE, encoding="utf-8") as fh:
            args.seconds = float(json.load(fh)["run_seconds"])
    if args.workload:
        return _main_workload(args)
    if args.compare:
        from compare import compare_files

        return compare_files(args.compare, args.against)
    if args.series:
        from compare import run_series

        return run_series(args.series, args.seed_base, args.seconds)
    try:
        ensure_src()
    except MissingSourcesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from kernels import run_kernels

    return run_kernels(args.seed, args.repeats)


if __name__ == "__main__":
    raise SystemExit(main())
