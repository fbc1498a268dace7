"""Golden-table reproduction reports and the randomized oracle harness.

Reports recompute every derivable cell (stage counts, delay levels, tree
plans, structural gate counts) and set them side by side with the golden
data.  Differences at cells listed as known anomalies in the golden
files are flagged; any other difference is a mismatch and makes the
report carry a nonzero exit code, since it means this implementation
regressed rather than that the data is odd.

The fuzz harness drives every operation against the pure-Python big-int
oracles with per-trial deterministic seeds and shrinks failures to the
smallest width that still fails.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import accumulator, divider, map_unit, multiplier, oracle, reducer
from .codes import MultiRowCode, make_from_value, value_of
from .compressor import (
    golden_costs,
    golden_delay_bands,
    load_golden,
    oca_cost_structural,
    plan_tree,
    tree_depth,
)

TABLE_KINDS = ("2.1", "3.1", "3.2")


@dataclass
class Report:
    kind: str
    columns: list
    rows: list
    flags: list = field(default_factory=list)
    mismatches: list = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 1 if self.mismatches else 0

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

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


def _report_2_1() -> Report:
    data = load_golden("table_2_1.json")
    report = Report(
        kind="2.1",
        columns=["m", "m2", "m3", "m4", "stages", "derived"],
        rows=[],
    )
    for band in data["bands"]:
        golden = tuple(band[k] for k in ("m2", "m3", "m4", "stages"))
        ok = True
        for m in range(band["lo"], band["hi"] + 1):
            counts = reducer.stage_plan(m, 2).row_counts
            derived = (
                counts[1] if len(counts) > 1 else None,
                counts[2] if len(counts) > 2 else None,
                counts[3] if len(counts) > 3 else None,
                len(counts) - 1,
            )
            if derived != golden:
                ok = False
                report.mismatches.append(
                    f"stage counts at m={m}: derived {derived}, golden {golden}"
                )
        label = f"{band['lo']}..{band['hi']}" if band["lo"] != band["hi"] else str(band["lo"])
        report.rows.append(
            {
                "m": label,
                "m2": band["m2"],
                "m3": band["m3"],
                "m4": band["m4"],
                "stages": band["stages"],
                "derived": "ok" if ok else "MISMATCH",
            }
        )
    return report


def _report_3_1() -> Report:
    known = {e["m"]: e["note"] for e in load_golden("table_3_1.json").get("known_anomalies", [])}
    report = Report(
        kind="3.1",
        columns=["m", "delay", "tree_depth", "agrees"],
        rows=[],
    )
    for lo, hi, levels in golden_delay_bands():
        depths = [tree_depth(m) for m in range(lo, hi + 1)]
        for m, depth in enumerate(depths, start=lo):
            if levels != depth:
                if m in known:
                    report.flags.append(f"m={m}: {known[m]}")
                else:
                    report.mismatches.append(
                        f"delay levels at m={m}: band {levels}, tree depth {depth}"
                    )
        span = (
            str(depths[0])
            if min(depths) == max(depths)
            else f"{min(depths)}..{max(depths)}"
        )
        flagged = any(lo <= k <= hi for k in known)
        report.rows.append(
            {
                "m": f"{lo}..{hi}",
                "delay": f"{levels}*t_and + t_cc",
                "tree_depth": span,
                "agrees": "see notes" if flagged else "ok",
            }
        )
    return report


def _report_3_2() -> Report:
    data = load_golden("table_3_2.json")
    anomalies = data.get("known_anomalies", [])
    sigma_known = {e["m"] for e in anomalies if e["field"] == "sigma_and"}
    counts_known = {e["m"] for e in anomalies if e["field"] == "m_counts"}
    report = Report(
        kind="3.2",
        columns=[
            "m",
            "tables",
            "tables_derived",
            "sigma_and",
            "structural_exact",
            "structural_square",
        ],
        rows=[],
    )
    counts_index = {m: i for i, m in enumerate(data["m"])}
    for m, sigma_and in golden_costs().items():
        golden_counts = None
        if m in counts_index:
            golden_counts = tuple(
                data["m_counts"][str(t)][counts_index[m]] for t in range(1, 6)
            )
        spec = plan_tree(m)
        derived_counts = tuple(spec.table_counts) + (0,) * (5 - spec.levels)
        exact = oca_cost_structural(m, cells="exact")
        square = oca_cost_structural(m, cells="square")
        if golden_counts is not None and derived_counts != golden_counts:
            if m in counts_known:
                report.flags.append(
                    f"m={m}: table counts {golden_counts} vs derived {derived_counts}"
                    " (known anomaly: golden tree does not merge all inputs)"
                )
            else:
                report.mismatches.append(
                    f"table counts at m={m}: golden {golden_counts}, derived {derived_counts}"
                )
        if exact != sigma_and:
            if m in sigma_known:
                report.flags.append(
                    f"m={m}: sigma_and {sigma_and} breaks monotonicity; "
                    f"exact-cell model gives {exact}"
                )
            else:
                report.mismatches.append(
                    f"sigma_and at m={m}: golden {sigma_and}, exact-cell model {exact}"
                )
        report.rows.append(
            {
                "m": m,
                "tables": "/".join(str(c) for c in golden_counts) if golden_counts else None,
                "tables_derived": "/".join(str(c) for c in derived_counts),
                "sigma_and": sigma_and,
                "structural_exact": exact,
                "structural_square": square,
            }
        )
    return report


# ---------------------------------------------------------------------------
# fuzz harness


@dataclass
class FuzzResult:
    seed: int
    trials: int
    scope: tuple
    passed: int
    failures: list

    @property
    def exit_code(self) -> int:
        return 1 if self.failures else 0

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

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


def _random_code(rng, rows: int, width: int, radix: int) -> MultiRowCode:
    digits = rng.integers(0, radix, size=(rows, width), dtype=np.int64)
    return MultiRowCode(rows, width, radix, 0, digits)


def _check_reduce(rng, width: int):
    rows = int(rng.integers(1, 25))
    radix = int(rng.choice([2, 2, 2, 3, 10]))
    code = _random_code(rng, rows, width, radix)
    out = reducer.reduce_to_two(code)
    want = oracle.exact_value(code.digits.tolist(), radix, 0)
    got = oracle.exact_value(out.digits.tolist(), radix, 0)
    if want != got:
        return f"reduce value {got} != {want} (rows={rows} radix={radix})"
    return None


def _check_add(rng, width: int):
    radix = int(rng.choice([2, 3, 10]))
    a = _random_code(rng, 2, width, radix)
    b = _random_code(rng, 2, width, radix)
    out = reducer.add_two_row(a, b)
    want = value_of(a) + value_of(b)
    if value_of(out) != want:
        return f"add value {value_of(out)} != {want} (radix={radix})"
    if out.width > width + 2:
        return f"add width {out.width} > {width + 2}"
    return None


def _check_mul(rng, width: int):
    if width < 2 or rng.integers(0, 2) == 0:
        av = int(rng.integers(0, 1 << width))
        bv = int(rng.integers(0, 1 << width))
        a = make_from_value(av, 1, width)
        b = make_from_value(bv, 1, width)
        out = multiplier.multiply(a, b)
        if value_of(out) != av * bv:
            return f"mul {av}*{bv}: got {value_of(out)}"
    else:
        a = _random_code(rng, 1, width, 2)
        b = _random_code(rng, 1, width, 2)
        out = multiplier.multiply(a, b, signed=True)
        want = multiplier.signed_operand_value(a) * multiplier.signed_operand_value(b)
        if multiplier.signed_product_value(out, width) != want:
            return f"signed mul: got {multiplier.signed_product_value(out, width)}, want {want}"
    return None


def _check_mac(rng, width: int):
    av = int(rng.integers(0, 1 << width))
    bv = int(rng.integers(0, 1 << width))
    fv = int(rng.integers(0, 1 << (2 * width)))
    a = make_from_value(av, 1, width)
    b = make_from_value(bv, 1, width)
    f = make_from_value(fv, 2, 2 * width)
    out = multiplier.fused_mac(f, a, b)
    if value_of(out) != fv + av * bv:
        return f"mac {fv}+{av}*{bv}: got {value_of(out)}"
    return None


def _check_div(rng, width: int):
    radix = int(rng.choice([2, 2, 10]))
    z = int(rng.integers(1, 1 << max(width, 1)))
    x = int(rng.integers(0, radix * z))
    k = int(rng.integers(1, 4))
    iters = int(rng.integers(1, 5))
    if radix**(k + 1) > divider.MAX_SCALE_ENTRIES:
        k = 1
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
    vals = {name: int(rng.integers(0, 1 << n)) for name in ("a", "b", *map_unit.ADDITIVE_OPERANDS)}
    ops = {name: make_from_value(v, 1, n) for name, v in vals.items()}
    state = map_unit.map_eval(cfg, **ops)
    want = vals["a"] * vals["b"] + sum(vals[k] for k in map_unit.ADDITIVE_OPERANDS)
    if map_unit.map_total(state) != want:
        return f"map total {map_unit.map_total(state)} != {want}"
    return None


def _check_acc(rng, width: int):
    steps = 64
    ops = rng.integers(0, 2, size=(steps, width), dtype=np.int64)
    acc = accumulator.acc_new(width)
    acc = accumulator.acc_run(acc, ops)
    want = sum(oracle.exact_scaled_value([row.tolist()], 2) for row in ops)
    if accumulator.acc_total(acc) != want:
        return f"acc total {accumulator.acc_total(acc)} != {want}"
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


def fuzz_verify(seed: int = 0, trials: int = 100, scope=None) -> FuzzResult:
    """Randomized oracle checks; deterministic per (seed, trial index)."""
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    scope = tuple(scope) if scope else FUZZ_OPS
    unknown = set(scope) - set(FUZZ_OPS)
    if unknown:
        raise ValueError(f"unknown fuzz ops: {sorted(unknown)}")
    failures = []
    passed = 0
    for trial in range(trials):
        op = scope[trial % len(scope)]
        check, width_cap = _CHECKS[op]
        width = int(np.random.default_rng((seed, trial)).integers(1, width_cap + 1))
        rng = np.random.default_rng((seed, trial, width))
        detail = check(rng, width)
        if detail is None:
            passed += 1
            continue
        # shrink: smallest width at which this trial's generator still fails
        shrunk = width
        shrunk_detail = detail
        for w in range(1, width):
            d = check(np.random.default_rng((seed, trial, w)), w)
            if d is not None:
                shrunk = w
                shrunk_detail = d
                break
        failures.append(
            {"op": op, "trial": trial, "width": shrunk, "detail": shrunk_detail}
        )
    return FuzzResult(
        seed=seed, trials=trials, scope=scope, passed=passed, failures=failures
    )
