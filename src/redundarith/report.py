"""Golden-table reproduction reports and the randomized oracle harness.

Reports recompute every derivable cell (stage counts, delay levels, tree
plans, structural gate counts) and set each against its golden value
through one comparison, `_compare`.  A difference at a cell the golden
file lists in `known_anomalies` is flagged with that file's own note; any
other difference is a mismatch and makes the report carry a nonzero exit
code, since it means this implementation regressed rather than that the
data is odd.  A row's status column reads its worst cell: "ok", "see
notes" or "MISMATCH".

The fuzz harness drives every operation against the pure-Python big-int
oracles and shrinks failures to the smallest width that still fails.  A
trial's width is a hash of (seed, trial), and its inputs come from one
standard-library generator keyed by (seed, trial, width), binary
operands drawn as ints.
"""

from __future__ import annotations

import json
import random
from typing import NamedTuple

from . import accumulator, divider, map_unit, multiplier, oracle, reducer
from .codes import MultiRowCode, check_int, made_code, unpack_rows, value_of
from .compressor import (
    golden_costs,
    golden_delay_bands,
    load_golden,
    oca_cost_structural,
    plan_tree,
    tree_depth,
)

TABLE_KINDS = ("2.1", "3.1", "3.2")


class Report(NamedTuple):
    kind: str
    columns: list
    rows: list
    flags: list | tuple = ()
    mismatches: list | tuple = ()

    @property
    def exit_code(self) -> int:
        return 1 if self.mismatches else 0

    def to_json(self) -> str:
        return json.dumps(self._asdict(), sort_keys=True)

    def to_text(self) -> str:
        cols = self.columns
        table = [cols] + [
            ["" if row.get(c) is None else str(row.get(c)) for c in cols]
            for row in self.rows
        ]
        widths = [max(len(r[i]) for r in table) for i in range(len(cols))]
        lines = [f"report {self.kind}"]
        for r in table:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
        for flag in self.flags:
            lines.append(f"note: {flag}")
        for mismatch in self.mismatches:
            lines.append(f"MISMATCH: {mismatch}")
        return "\n".join(lines) + "\n"


def report_tables(which: str) -> Report:
    if which not in TABLE_KINDS:
        raise ValueError(f"unknown table {which!r}; expected one of {TABLE_KINDS}")
    if which == "2.1":
        return _report_2_1()
    if which == "3.1":
        return _report_3_1()
    return _report_3_2()


# a row's status: its worst cell as `_compare` grades it
_STATUS = ("ok", "see notes", "MISMATCH")


def _notes(data: dict, field: str | None = None) -> dict:
    """A golden file's known anomalies as (field, m) -> note; an entry
    without a field of its own belongs to `field`."""
    return {(e.get("field", field), e["m"]): e["note"] for e in data.get("known_anomalies", ())}


def _compare(field, m, golden, derived, notes, flags, mismatches) -> int:
    """Set one golden cell against its derived value: 0 when they agree,
    1 at a known anomaly (flagged with the golden file's note), else 2
    (a mismatch)."""
    if golden == derived:
        return 0
    if (field, m) in notes:
        flags.append(f"m={m}: {field}: {notes[field, m]}")
        return 1
    mismatches.append(f"{field} at m={m}: golden {golden}, derived {derived}")
    return 2


def _report_2_1() -> Report:
    data = load_golden("table_2_1.json")
    notes = _notes(data)
    rows, flags, mismatches = [], [], []
    for band in data["bands"]:
        worst = 0
        for m in range(band["lo"], band["hi"] + 1):
            counts = reducer.stage_plan(m, 2).row_counts
            # rows after stages 1..3 (None past the last stage), then the stage count
            derived = [*counts[1:4], None, None, None][:3] + [len(counts) - 1]
            for field, value in zip(("m2", "m3", "m4", "stages"), derived):
                worst = max(worst, _compare(field, m, band[field], value, notes, flags, mismatches))
        label = f"{band['lo']}..{band['hi']}" if band["lo"] != band["hi"] else str(band["lo"])
        rows.append(
            {
                "m": label,
                "m2": band["m2"],
                "m3": band["m3"],
                "m4": band["m4"],
                "stages": band["stages"],
                "derived": _STATUS[worst],
            }
        )
    columns = ["m", "m2", "m3", "m4", "stages", "derived"]
    return Report("2.1", columns, rows, flags, mismatches)


def _report_3_1() -> Report:
    notes = _notes(load_golden("table_3_1.json"), "levels")
    rows, flags, mismatches = [], [], []
    for lo, hi, levels in golden_delay_bands():
        depths = [tree_depth(m) for m in range(lo, hi + 1)]
        worst = max(
            _compare("levels", m, levels, depth, notes, flags, mismatches)
            for m, depth in enumerate(depths, start=lo)
        )
        span = (
            str(depths[0])
            if min(depths) == max(depths)
            else f"{min(depths)}..{max(depths)}"
        )
        rows.append(
            {
                "m": f"{lo}..{hi}",
                "delay": f"{levels}*t_and + t_cc",
                "tree_depth": span,
                "agrees": _STATUS[worst],
            }
        )
    return Report("3.1", ["m", "delay", "tree_depth", "agrees"], rows, flags, mismatches)


def _report_3_2() -> Report:
    data = load_golden("table_3_2.json")
    notes = _notes(data)
    rows, flags, mismatches = [], [], []
    counts_index = {m: i for i, m in enumerate(data["m"])}
    for m, sigma_and in golden_costs().items():
        spec = plan_tree(m)
        derived_counts = tuple(spec.table_counts) + (0,) * (5 - spec.levels)
        golden_counts = None
        if m in counts_index:
            golden_counts = tuple(
                data["m_counts"][str(t)][counts_index[m]] for t in range(1, 6)
            )
            _compare("m_counts", m, golden_counts, derived_counts, notes, flags, mismatches)
        exact = oca_cost_structural(m, cells="exact")
        _compare("sigma_and", m, sigma_and, exact, notes, flags, mismatches)
        rows.append(
            {
                "m": m,
                "tables": "/".join(str(c) for c in golden_counts) if golden_counts else None,
                "tables_derived": "/".join(str(c) for c in derived_counts),
                "sigma_and": sigma_and,
                "structural_exact": exact,
                "structural_square": oca_cost_structural(m, cells="square"),
            }
        )
    columns = ["m", "tables", "tables_derived", "sigma_and", "structural_exact", "structural_square"]
    return Report("3.2", columns, rows, flags, mismatches)


# ---------------------------------------------------------------------------
# fuzz harness


class FuzzResult(NamedTuple):
    seed: int
    trials: int
    scope: tuple
    passed: int
    failures: list

    @property
    def exit_code(self) -> int:
        return 1 if self.failures else 0

    def to_json(self) -> str:
        return json.dumps(self._asdict(), sort_keys=True)

    def to_text(self) -> str:
        lines = [
            f"fuzz seed={self.seed} trials={self.trials} scope={','.join(self.scope)}",
            f"passed {self.passed}/{self.trials}",
        ]
        for f in self.failures:
            lines.append(
                f"FAIL op={f['op']} trial={f['trial']} width={f['width']}: {f['detail']}"
            )
        return "\n".join(lines) + "\n"


def _random_code(rng, rows: int, width: int, radix: int) -> tuple:
    """A random code and the value of the digits drawn for it."""
    if radix == 2:
        ints = [rng.getrandbits(width) for _ in range(rows)]
        return made_code(ints, width), sum(ints)
    digits = [rng.choices(range(radix), k=width) for _ in range(rows)]
    return MultiRowCode(rows, width, radix, 0, digits), oracle.exact_scaled_value(digits, radix)


def _check_reduce(rng, width: int):
    rows = rng.randrange(1, 25)
    radix = rng.choice((2, 2, 2, 3, 10))
    code, want = _random_code(rng, rows, width, radix)
    got = value_of(reducer.reduce_to_two(code))
    if got != want:
        return f"reduce value {got} != {want} (rows={rows} radix={radix})"
    return None


def _check_add(rng, width: int):
    radix = rng.choice((2, 3, 10))
    a, av = _random_code(rng, 2, width, radix)
    b, bv = _random_code(rng, 2, width, radix)
    out = reducer.add_two_row(a, b)
    if value_of(out) != av + bv:
        return f"add value {value_of(out)} != {av + bv} (radix={radix})"
    if out.width > width + 2:
        return f"add width {out.width} > {width + 2}"
    return None


def _check_mul(rng, width: int):
    signed = width > 1 and rng.getrandbits(1) == 1
    av, bv = rng.getrandbits(width), rng.getrandbits(width)
    out = multiplier.multiply(made_code([av], width), made_code([bv], width), signed=signed)
    if signed:  # two's complement: the top bit weighs -2**(width - 1)
        av, bv = av - (av >> width - 1 << width), bv - (bv >> width - 1 << width)
        got = multiplier.signed_product_value(out, width)
    else:
        got = value_of(out)
    if got != av * bv:
        return f"{'signed ' if signed else ''}mul {av}*{bv}: got {got}"
    return None


def _check_mac(rng, width: int):
    av, bv, fv = rng.getrandbits(width), rng.getrandbits(width), rng.getrandbits(2 * width)
    out = multiplier.fused_mac(made_code([fv, 0], 2 * width), made_code([av], width),
                               made_code([bv], width))
    if value_of(out) != fv + av * bv:
        return f"mac {fv}+{av}*{bv}: got {value_of(out)}"
    return None


def _check_div(rng, width: int):
    radix = rng.choice((2, 2, 10))
    z = rng.randrange(1, 1 << width)
    x = rng.randrange(radix * z)
    k = rng.randrange(1, 4)
    iters = rng.randrange(1, 5)
    digits, residual = divider.divide(x, z, k, iters, radix=radix)
    want_digits, want_res = oracle.restoring_division_digits(x, z, k, iters, radix)
    if digits != want_digits or residual != want_res:
        return f"div {x}/{z} k={k}: {digits},{residual} != {want_digits},{want_res}"
    scale = radix ** (k * iters)
    if x * scale != z * divider.quotient_value(digits, k, radix) * scale + residual:
        return f"div identity broken for {x}/{z}"
    return None


def _check_map(rng, width: int):
    n = max(width, 2)
    cfg = map_unit.MapConfig(width=n, mode="one-shot")
    vals = {name: rng.getrandbits(n) for name in ("a", "b", *map_unit.ADDITIVE_OPERANDS)}
    state = map_unit.map_eval(cfg, **{name: made_code([v], n) for name, v in vals.items()})
    want = vals["a"] * vals["b"] + sum(vals[k] for k in map_unit.ADDITIVE_OPERANDS)
    if map_unit.map_total(state) != want:
        return f"map total {map_unit.map_total(state)} != {want}"
    return None


def _check_acc(rng, width: int):
    ints = [rng.getrandbits(width) for _ in range(64)]
    acc = accumulator.acc_run(accumulator.acc_new(width), unpack_rows(ints, width))
    if accumulator.acc_total(acc) != sum(ints):
        return f"acc total {accumulator.acc_total(acc)} != {sum(ints)}"
    return None


_CHECKS = {
    "reduce": (_check_reduce, 32),
    "add": (_check_add, 24),
    "mul": (_check_mul, 16),
    "mac": (_check_mac, 12),
    "div": (_check_div, 10),
    "map": (_check_map, 12),
    "acc": (_check_acc, 16),
}
FUZZ_OPS = tuple(_CHECKS)
_M64, _P61 = (1 << 64) - 1, (1 << 61) - 1


def _trial_width(seed: int, trial: int, cap: int) -> int:
    """1..cap for trial `trial` of `seed`, with no generator: output `trial`
    of a SplitMix64 stream (Steele, Lea & Flood, OOPSLA 2014) started at
    seed mod 2**61 - 1, a prime, so that every bit of the seed counts."""
    z = seed % _P61 + (trial + 1) * 0x9E3779B97F4A7C15 & _M64
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _M64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & _M64
    return 1 + (z ^ z >> 31) % cap


def _run_trial(op: str, seed: int, trial: int, width: int):
    """The failure detail of trial `trial` of `seed` at `width`, or None.
    Every draw comes from one generator keyed by all three, so a trial
    replays at any width whatever the run's length."""
    return _CHECKS[op][0](random.Random(f"{seed}/{trial}/{width}"), width)


def fuzz_verify(seed: int = 0, trials: int = 100, scope=None) -> FuzzResult:
    """Randomized oracle checks; deterministic per (seed, trial index)."""
    check_int("seed", seed, 0)
    check_int("trials", trials, 0)
    if isinstance(scope, str):
        raise ValueError("scope must be a sequence of op names, not a str")
    scope = tuple(scope) if scope else FUZZ_OPS
    unknown = set(scope) - set(FUZZ_OPS)
    if unknown:
        raise ValueError(f"unknown fuzz ops: {sorted(unknown)}")
    failures = []
    passed = 0
    for trial in range(trials):
        op = scope[trial % len(scope)]
        width = _trial_width(seed, trial, _CHECKS[op][1])
        if _run_trial(op, seed, trial, width) is None:
            passed += 1
            continue
        # shrink: the smallest width at which this trial still fails
        width = next((w for w in range(1, width) if _run_trial(op, seed, trial, w)), width)
        failures.append({"op": op, "trial": trial, "width": width,
                         "detail": _run_trial(op, seed, trial, width)})
    return FuzzResult(
        seed=seed, trials=trials, scope=scope, passed=passed, failures=failures
    )
