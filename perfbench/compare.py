"""Series of benchmark runs, and the comparison of series from two checkouts.

A series file holds, for every workload, the metrics (reference-scaled
and raw), fingerprint and start time of SERIES_RUNS untraced runs with
consecutive seeds, and the per-layer metrics of one traced run.  Every
run is its own process, and only one runs at a time.

Comparing pairs the runs of each side by seed (the k-th run of a seed
on one side with the k-th on the other), so several series files may
make up a side.  For a speed claim, make at least ten pairs on one
machine, alternating which checkout runs first: for example base
seeds 1-10, new seeds 1-10, new seeds 11-20, base seeds 11-20, then

    run.py --compare base-1.json base-11.json --against new-1.json new-11.json

The verdict for each workload x end-to-end metric follows the
choosing-metrics rule: `improved` when the new side wins at least nine
tenths of the pairs and the medians differ by more than the base's
quartile spread; `unresolved` when the base's own spread is wider than
the metric's bound and not every new run beats every base run;
`regressed` when the new median is worse than the base median by more
than the bound; `within bound` otherwise.  The gated verdict uses the
reference-scaled figures (see measure.py); the same verdict on the raw
figures is printed beside it, and a row where the two differ is
flagged, because a change that slows the whole process also slows the
reference kernel and so hides from the scaled figures.

The exit code is 1 when any gated verdict is `regressed`, any
fingerprint differs between paired runs, or any run failed.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

from srcpath import BENCH_DIR, BENCH_FILE, RESULTS, ROOT

SERIES_RUNS = 10  # untraced runs per workload in a series


def _bench() -> dict:
    with open(BENCH_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def _run(name: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
        "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
    ]
    started = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{name} seed {seed} printed no result: {proc.stderr.strip()[-800:]}")
    last = json.loads(lines[-1])
    with open(RESULTS / f"{name}-seed{seed}-trace{trace}.json", encoding="utf-8") as fh:
        full = json.load(fh)
    return {
        "seed": seed,
        "started": started,
        "returncode": proc.returncode,
        "correct": last["correct"],
        "attempted": last["attempted"],
        "failed": last["failed"],
        "metrics": {k: v["value"] for k, v in last["metrics"].items()},
        "raw_metrics": {k: v["value"] for k, v in full["raw_end_to_end"].items()},
        "tail_pct": full["tail_pct"],
        "fingerprint": full["fingerprint"],
        "env": full["env"],
    }


def run_series(out_path: str, seed_base: int, seconds: float) -> int:
    bench = _bench()
    names = [w["name"] for w in bench["workloads"]]
    series = {"seconds": seconds, "seed_base": seed_base, "runs": {n: [] for n in names}, "traced": {}}
    for i in range(SERIES_RUNS):
        for name in names:
            rec = _run(name, seed_base + i, seconds, 0)
            series["runs"][name].append(rec)
            print(f"{name} seed {rec['seed']}: " + " ".join(f"{k}={v:.6g}" for k, v in rec["metrics"].items()), flush=True)
    for name in names:
        series["traced"][name] = _run(name, seed_base, seconds, 1)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(series, fh, indent=1, sort_keys=True)
    print_spreads(series, bench)
    return 0 if all(_ok(r) for r in _all_runs(series)) else 1


def _all_runs(series: dict) -> list:
    return [r for rs in series["runs"].values() for r in rs] + list(series["traced"].values())


def _ok(run: dict) -> bool:
    return run["correct"] and run["returncode"] == 0


def print_spreads(series: dict, bench: dict) -> None:
    print(f"{'workload':<12} {'metric':<15} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, recs in series["runs"].items():
        if len(recs) < 2:
            continue
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]] for r in recs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            s = (q3 - q1) / statistics.median(values)
            flag = "" if s < m["bound"] / 3 else "  wide" if s < m["bound"] else "  OVER BOUND"
            print(
                f"{name:<12} {m['name']:<15} {statistics.median(values):>12.6g} {q1:>12.6g} "
                f"{q3:>12.6g} {s:>8.4f} {m['bound']:>6}{flag}"
            )


def verdict(base, new, better: str, bound: float) -> tuple:
    """(verdict, pair wins, pairs) for one workload x metric, runs paired in order."""
    sign = 1.0 if better == "higher" else -1.0
    med_a, med_b = statistics.median(base), statistics.median(new)
    q1, _, q3 = statistics.quantiles(base, n=4)
    gain = sign * (med_b - med_a)  # > 0 means the new side is better
    pairs = list(zip(base, new))
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    all_better = all(sign * (b - a) > 0 for a in base for b in new)
    if wins >= 0.9 * len(pairs) and gain > (q3 - q1):
        return "improved", wins, len(pairs)
    if (q3 - q1) / med_a > bound and not all_better:
        return "unresolved", wins, len(pairs)
    if -gain > bound * med_a:
        return "regressed", wins, len(pairs)
    return "within bound", wins, len(pairs)


def _load_side(paths) -> tuple:
    """Runs and traced runs per workload, merged from several series files."""
    runs, traced = {}, {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            series = json.load(fh)
        for name, recs in series["runs"].items():
            runs.setdefault(name, []).extend(recs)
        for name, rec in series["traced"].items():
            traced.setdefault(name, []).append(rec)
    return runs, traced


def _paired(a_runs, b_runs) -> list:
    """(base, new) pairs: the k-th run of a seed on each side."""
    def keyed(recs):
        seen: dict = {}
        out = {}
        for r in recs:
            k = seen[r["seed"]] = seen.get(r["seed"], -1) + 1
            out[(r["seed"], k)] = r
        return out

    b_by_key = keyed(b_runs)
    return [(a, b_by_key[key]) for key, a in keyed(a_runs).items() if key in b_by_key]


def compare_files(base_paths, new_paths) -> int:
    bench = _bench()
    base_runs, base_traced = _load_side(base_paths)
    new_runs, new_traced = _load_side(new_paths)
    bad = []
    print(
        f"{'workload':<12} {'metric':<15} {'base median [q1, q3]':>34} "
        f"{'new median [q1, q3]':>34} {'wins':>6}  verdict (raw figures: verdict)"
    )
    for name, recs in base_runs.items():
        pairs = _paired(recs, new_runs.get(name, []))
        if len(pairs) < 2:
            bad.append(f"{name}: fewer than two paired runs")
            continue
        for m in bench["end_to_end"]:
            rows = {}
            for key in ("metrics", "raw_metrics"):
                a = [x[key][m["name"]] for x, _ in pairs]
                b = [y[key][m["name"]] for _, y in pairs]
                rows[key] = (a, b, *verdict(a, b, m["better"], m["bound"]))
            a, b, v, wins, n = rows["metrics"]
            raw_v = rows["raw_metrics"][2]
            if v == "regressed":
                bad.append(f"{name} {m['name']} regressed")
            flag = "" if raw_v == v else "  <- raw and scaled verdicts differ"
            print(f"{name:<12} {m['name']:<15} {_fmt(a):>34} {_fmt(b):>34} {wins:>3}/{n:<2}  {v} (raw: {raw_v}){flag}")
            ra, rb, _, raw_wins, _ = rows["raw_metrics"]
            print(f"{'':<12} {'  raw':<15} {_fmt(ra):>34} {_fmt(rb):>34} {raw_wins:>3}/{n:<2}")
        same = sum(1 for x, y in pairs if x["fingerprint"] == y["fingerprint"])
        base_first = sum(1 for x, y in pairs if x["started"] < y["started"])
        print(
            f"{name:<12} {len(pairs)} pairs, base ran first in {base_first}; "
            f"fingerprint identical in {same}/{len(pairs)}"
        )
        if same != len(pairs):
            bad.append(f"{name}: fingerprints differ")
        if len(pairs) < 10 or base_first in (0, len(pairs)):
            print(f"{name:<12} note: a speed claim needs at least ten pairs, alternating which side runs first")
    traced_pairs = {
        name: _paired(recs, new_traced.get(name, [])) for name, recs in base_traced.items()
    }
    for name, pairs in traced_pairs.items():
        if any(x["fingerprint"] != y["fingerprint"] for x, y in pairs):
            bad.append(f"{name}: traced fingerprints (with observed stages) differ")
    for side in (base_runs, new_runs, base_traced, new_traced):
        for name, recs in side.items():
            bad.extend(f"{name} seed {r['seed']}: run failed" for r in recs if not _ok(r))
    print()
    print(f"{'workload':<12} {'per-layer metric':<32} {'base':>12} {'new':>12} {'delta':>9}")
    for name, pairs in traced_pairs.items():
        if not pairs:
            continue
        rec, other = pairs[0]
        for key, value in rec["metrics"].items():
            nv = other["metrics"].get(key)
            if nv is None:
                print(f"{name:<12} {key:<32} {value:>12.6g} {'absent':>12}")
                continue
            if value == 0 and nv == 0:
                continue
            delta = f"{(nv - value) / value * 100:+.1f}%" if value else "new"
            print(f"{name:<12} {key:<32} {value:>12.6g} {nv:>12.6g} {delta:>9}")
    for problem in bad:
        print(f"FAIL {problem}")
    return 1 if bad else 0


def _fmt(values) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.5g} [{q1:.5g}, {q3:.5g}]"
