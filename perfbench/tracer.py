"""Run-time span tracing of redundarith's public functions, for the traced run.

`Tracer.install()` wraps each function named in SPANS both where it is
defined and wherever another module imported it by name (for example
`multiplier.reduce_to_two` or the package-level `redundarith.multiply`).
While `active` is set, every wrapped call records a span (name, start,
end, parent) in memory; `uninstall()` puts the original functions back.
Counters hooked to the same wrappers record work done (cells, steps,
digits) at the boundary where it happens.

A span's self time is its duration minus the durations of its direct
children.  A wrapped name that the library no longer has is reported
as absent and does not fail the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "redundarith"

# span name -> the (module, attribute) pairs it wraps
SPANS = {
    "kernels.reduce": [("_kernels", "reduce_once_digits"), ("_kernels", "reduce_to_two_digits")],
    "kernels.stream": [("_kernels", "acc_stream1"), ("_kernels", "acc_stream2")],
    "kernels.pp": [("_kernels", "pp_unsigned_digits")],
    "kernels.popcount": [("_kernels", "popcount_batch")],
    "codes.construct": [("codes", "MultiRowCode.__post_init__")],
    "codes.make": [("codes", "make_from_value")],
    "codes.value": [("codes", "value_of"), ("codes", "scaled_value")],
    "reducer.reduce_to_two": [("reducer", "reduce_to_two")],
    "reducer.reduce_once": [("reducer", "reduce_once")],
    "reducer.stage_plan": [("reducer", "stage_plan")],
    "reducer.add_two_row": [("reducer", "add_two_row")],
    "multiplier.multiply": [("multiplier", "multiply")],
    "multiplier.pp_matrix": [("multiplier", "pp_matrix_unsigned"), ("multiplier", "pp_matrix_signed")],
    "multiplier.fused_mac": [("multiplier", "fused_mac")],
    "accumulator.acc_run": [("accumulator", "acc_run")],
    "accumulator.acc_total": [("accumulator", "acc_total")],
    "map_unit.map_eval": [("map_unit", "map_eval")],
    "map_unit.map_accumulate": [("map_unit", "map_accumulate")],
    "divider.divide": [("divider", "divide")],
    "divider.build_scale": [("divider", "build_scale")],
    "evalexpr.evaluate": [("evalexpr", "evaluate")],
    "report.fuzz_verify": [("report", "fuzz_verify")],
    "oracle": [
        ("oracle", "exact_scaled_value"),
        ("oracle", "exact_value"),
        ("oracle", "restoring_division_digits"),
    ],
    "cli.main": [("cli", "main")],
}

# per-layer metric -> unit; every one is printed by a traced run
LAYER_METRICS = {
    "kernels.reduce.self_s": "s",
    "kernels.reduce.calls": "count",
    "kernels.reduce.stages": "count",
    "kernels.reduce.cells": "count",
    "kernels.stream.self_s": "s",
    "kernels.stream.steps": "count",
    "kernels.pp.self_s": "s",
    "kernels.pp.cells": "count",
    "codes.construct.self_s": "s",
    "codes.construct.calls": "count",
    "codes.make.self_s": "s",
    "codes.value.self_s": "s",
    "reducer.reduce_to_two.self_s": "s",
    "reducer.stage_plan.self_s": "s",
    "reducer.add_two_row.self_s": "s",
    "reducer.shape_repeat_ratio": "ratio",
    "multiplier.multiply.self_s": "s",
    "multiplier.pp_matrix.self_s": "s",
    "multiplier.fused_mac.self_s": "s",
    "accumulator.acc_run.self_s": "s",
    "accumulator.acc_total.self_s": "s",
    "accumulator.overflow_total": "count",
    "map_unit.map_eval.self_s": "s",
    "map_unit.map_accumulate.self_s": "s",
    "map_unit.stack_rows": "count",
    "map_unit.spill_total": "count",
    "divider.divide.self_s": "s",
    "divider.build_scale.self_s": "s",
    "divider.build_scale.calls": "count",
    "divider.scale_repeat_ratio": "ratio",
    "divider.digits": "count",
    "evalexpr.evaluate.self_s": "s",
    "report.fuzz_verify.self_s": "s",
    "report.trials": "count",
    "oracle.self_s": "s",
    "cli.main.self_s": "s",
    "setup.import_s": "s",
    "setup.first_call_s": "s",
    "trace.ops": "count",
    "trace.overhead_ratio": "ratio",
}


def _resolve(module, path: str):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list = []  # span name per span
        self.parents: list = []  # index of the parent span, -1 at the root
        self.starts: list = []
        self.ends: list = []
        self._stack: list = []
        self.counts: Counter = Counter()
        self.reduce_stages: dict = {}  # (rows, radix) -> stages the kernel ran
        self._shapes: set = set()
        self._scales: set = set()
        self._patched: list = []  # (owner, attribute, original)
        self.absent: list = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(tracer, args, kwargs, out)
            return out

        return wrapper

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for name, targets in SPANS.items():
            found = False
            for module_name, path in targets:
                try:
                    module = importlib.import_module(f"{PACKAGE}.{module_name}")
                    owner, attr, original = _resolve(module, path)
                except (ImportError, AttributeError):
                    continue
                found = True
                wrapper = self._wrap(original, name, _HOOKS.get((module_name, path)))
                if isinstance(owner, type):
                    self._patch(owner, attr, original, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapper)
            if not found:
                self.absent.append(name)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict:
        """Summed self time and call count per span name."""
        n = len(self.starts)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        total: dict = defaultdict(float)
        calls: Counter = Counter()
        for i in range(n):
            total[self.names[i]] += self.ends[i] - self.starts[i] - child[i]
            calls[self.names[i]] += 1
        return {name: (total[name], calls[name]) for name in total}

    def layer_metrics(self) -> dict:
        """Every per-layer metric the spans and counters give (setup.* and
        trace.* come from the caller)."""
        spans = self.self_times()
        out = {}
        for metric in LAYER_METRICS:
            span, _, field = metric.rpartition(".")
            if field == "self_s":
                out[metric] = spans.get(span, (0.0, 0))[0]
            elif field == "calls":
                out[metric] = spans.get(span, (0.0, 0))[1]
            else:
                out[metric] = self.counts[metric]  # 0 when no hook counted it
        out["reducer.shape_repeat_ratio"] = _repeat_ratio(
            self.counts["reducer.reduce_to_two.calls"], len(self._shapes)
        )
        out["divider.scale_repeat_ratio"] = _repeat_ratio(
            spans.get("divider.build_scale", (0.0, 0))[1], len(self._scales)
        )
        return out

    def write_spans(self, path) -> None:
        """Write every span as [name, parent, start_ns, end_ns], times
        relative to the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        names = sorted(set(self.names))
        ids = {name: i for i, name in enumerate(names)}
        rows = [
            [ids[self.names[i]], self.parents[i], round((self.starts[i] - t0) * 1e9), round((self.ends[i] - t0) * 1e9)]
            for i in range(len(self.starts))
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "fields": ["name", "parent", "start_ns", "end_ns"], "spans": rows}, fh)


def _repeat_ratio(calls: int, distinct: int) -> float:
    """Share of calls whose key was seen before; 0 when there were none."""
    return (calls - distinct) / calls if calls else 0.0


# ---------------------------------------------------------------------------
# counter hooks: (tracer, args, kwargs, result) after a traced call


def _hook_reduce_once(t, args, kwargs, out):
    t.counts["kernels.reduce.stages"] += 1
    t.counts["kernels.reduce.cells"] += args[0].size


def _hook_reduce_to_two(t, args, kwargs, out):
    digits, radix = args[0], args[1]
    t.counts["kernels.reduce.stages"] += int(out[1])
    t.counts["kernels.reduce.cells"] += digits.size
    t.reduce_stages[(digits.shape[0], int(radix))] = int(out[1])


def _hook_stream(t, args, kwargs, out):
    t.counts["kernels.stream.steps"] += args[0].shape[0]


def _hook_pp(t, args, kwargs, out):
    t.counts["kernels.pp.cells"] += args[0].shape[0] * args[1].shape[0]


def _hook_reducer_reduce_to_two(t, args, kwargs, out):
    code = args[0]
    t.counts["reducer.reduce_to_two.calls"] += 1
    t._shapes.add((code.rows, code.width, code.radix))
    if t._stack and t.names[t._stack[-1]].startswith("map_unit."):
        t.counts["map_unit.stack_rows"] += code.rows


def _hook_acc_run(t, args, kwargs, out):
    t.counts["accumulator.overflow_total"] += out.overflow_count - args[0].overflow_count


def _hook_map(t, args, kwargs, out):
    t.counts["map_unit.spill_total"] += out.overflow_count


def _hook_build_scale(t, args, kwargs, out):
    t._scales.add((out.z, out.k, out.radix, out.size))


def _hook_divide(t, args, kwargs, out):
    t.counts["divider.digits"] += len(out[0])


def _hook_fuzz(t, args, kwargs, out):
    t.counts["report.trials"] += out.trials


_HOOKS = {
    ("_kernels", "reduce_once_digits"): _hook_reduce_once,
    ("_kernels", "reduce_to_two_digits"): _hook_reduce_to_two,
    ("_kernels", "acc_stream1"): _hook_stream,
    ("_kernels", "acc_stream2"): _hook_stream,
    ("_kernels", "pp_unsigned_digits"): _hook_pp,
    ("reducer", "reduce_to_two"): _hook_reducer_reduce_to_two,
    ("accumulator", "acc_run"): _hook_acc_run,
    ("map_unit", "map_eval"): _hook_map,
    ("map_unit", "map_accumulate"): _hook_map,
    ("divider", "build_scale"): _hook_build_scale,
    ("divider", "divide"): _hook_divide,
    ("report", "fuzz_verify"): _hook_fuzz,
}
