"""The benchmark workloads: seeded inputs, the timed calls, and their checks.

A workload is a sequence of chunks.  Every chunk follows one fixed
recipe of operation classes (kind, width, mode, length); the seed and
the chunk index change only the operand values.  So every chunk costs
about the same, and a median over chunks moves little from seed to
seed.  The library receives only generated Python ints and bit arrays.

Each Op carries a zero-argument `call` (the timed closed-loop call into
the public API) and a `check`.  A check returns (error, record): error
is None when the result equals the exact answer computed with Python
ints, redundarith.oracle or Fraction, and record is the canonical exact
result that goes into the run's fingerprint.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

import numpy as np

import redundarith as R
from redundarith import cli, oracle


@dataclass
class Op:
    kind: str  # operation class, e.g. "mul/8" or "acc/2x64/xor/1000"
    units: int  # operations this call counts for
    call: Callable[[], object]
    check: Callable[[object, list], tuple]
    inputs: str  # the inputs, for failure messages


class Raised:
    """Stands in for the result of a call that raised."""

    def __init__(self, exc: BaseException):
        self.exc = exc

    def __repr__(self) -> str:
        return f"raised {type(self.exc).__name__}: {self.exc}"


class Fingerprint:
    """Exact model counts and a hash of every exact result of a run prefix.

    Every entry is read from what the library returned.  Reduction stages
    per shape and the rows map_unit stacks are observed by the traced
    pass instead (see run.py), since only its wrappers can see them."""

    def __init__(self):
        self._results = hashlib.sha256()
        self._divider_digits = hashlib.sha256()
        self.ops = 0
        self.counts: Counter = Counter()

    def add(self, record: dict) -> None:
        self.ops += 1
        self._results.update(json.dumps(record, sort_keys=True).encode())
        self.counts.update(record.get("counts", {}))
        if "divider_digits" in record:
            self._divider_digits.update(repr(record["divider_digits"]).encode())

    def summary(self) -> dict:
        return {
            "ops": self.ops,
            "results_sha256": self._results.hexdigest(),
            "divider_digits_sha256": self._divider_digits.hexdigest(),
            "counts": dict(sorted(self.counts.items())),
        }


# ---------------------------------------------------------------------------
# shared helpers (all outside the timed calls)


def _digest(arr) -> str:
    arr = np.ascontiguousarray(arr, dtype=np.int64)
    return f"{arr.shape}:{hashlib.sha256(arr.tobytes()).hexdigest()[:16]}"


def _rand_bits(rng, width: int) -> int:
    return int.from_bytes(rng.bytes((width + 7) // 8), "little") & ((1 << width) - 1)


def _rows_total(bits) -> int:
    """Exact sum of the values of many LSB-first bit rows, via column sums."""
    cols = np.asarray(bits).sum(axis=0, dtype=np.int64)
    return sum(int(c) << j for j, c in enumerate(cols))


def _signed(value: int, width: int) -> int:
    return value - ((value >> (width - 1)) << width)


def _interleave(groups):
    """Spread each group's ops evenly over the chunk, deterministically."""
    keyed = [
        ((j + 0.5) / len(ops), g, j, op)
        for g, ops in enumerate(groups)
        for j, op in enumerate(ops)
    ]
    keyed.sort(key=lambda item: item[:3])
    return [item[3] for item in keyed]


class Workload:
    name = ""
    tail_pct = 99.0  # highest percentile reported as call_tail_us (see measure.tail_percentile)
    trace_chunks = 1  # chunks in the traced pass and in the fingerprint

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, index: int):
        return np.random.default_rng([self.seed, index])

    def chunk(self, index: int) -> list:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# products


def _mul_call(a, b, w):
    out = R.multiply(R.make_from_value(a, 1, w), R.make_from_value(b, 1, w))
    return out, R.value_of(out)


def _smul_call(a, b, w):
    out = R.multiply(R.make_from_value(a, 1, w), R.make_from_value(b, 1, w), signed=True)
    return out, R.signed_product_value(out, w)


def _mac_call(f_digits, a, b, w):
    f = R.MultiRowCode(2, 2 * w, 2, 0, f_digits)
    out = R.fused_mac(f, R.make_from_value(a, 1, w), R.make_from_value(b, 1, w))
    return out, R.value_of(out)


def _check_product(result, results, want):
    code, value = result
    record = {"value": str(value), "code": _digest(code.digits)}
    if value != want:
        return f"value {value}, want {want}", record
    return None, record


class Products(Workload):
    """Independent products: per-call overhead on small matrices (code
    construction, dispatch, reduction), which a batch axis would remove.
    The accumulator kernels do no work here."""

    name = "products"
    tail_pct = 99.0
    trace_chunks = 200
    # (kind, width, ops per chunk); 8-bit pairs walk a seeded permutation
    # of all 65 536 operand pairs
    MIX = (
        ("mul", 8, 16), ("smul", 8, 16), ("mac", 8, 8),
        ("mul", 24, 4), ("smul", 24, 4), ("mac", 24, 2),
        ("mul", 64, 2), ("smul", 64, 2), ("mac", 64, 2),
    )
    EIGHT_BIT_PER_CHUNK = sum(n for _, w, n in MIX if w == 8)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.pairs = np.random.default_rng([seed, 1 << 30]).permutation(1 << 16)

    def chunk(self, index: int) -> list:
        rng = self.rng(index)
        pair_pos = index * self.EIGHT_BIT_PER_CHUNK
        groups = []
        for kind, w, count in self.MIX:
            ops = []
            for _ in range(count):
                if w == 8:
                    pair = int(self.pairs[pair_pos % (1 << 16)])
                    pair_pos += 1
                    a, b = pair >> 8, pair & 0xFF
                else:
                    a, b = _rand_bits(rng, w), _rand_bits(rng, w)
                if kind == "mul":
                    call = partial(_mul_call, a, b, w)
                    want = a * b
                elif kind == "smul":
                    call = partial(_smul_call, a, b, w)
                    want = _signed(a, w) * _signed(b, w)
                else:
                    f_digits = rng.integers(0, 2, size=(2, 2 * w), dtype=np.int64)
                    call = partial(_mac_call, f_digits, a, b, w)
                    want = _rows_total(f_digits) + a * b
                ops.append(
                    Op(
                        kind=f"{kind}/{w}",
                        units=1,
                        call=call,
                        check=partial(_check_product, want=want),
                        inputs=f"{kind} width={w} a={a} b={b}",
                    )
                )
            groups.append(ops)
        return _interleave(groups)


# ---------------------------------------------------------------------------
# acc_stream


def _acc_call(ops_a, ops_b, w, mode):
    acc = R.acc_run(R.acc_new(w, counter_mode=mode), ops_a, ops_b)
    return acc, R.acc_total(acc)


def _acc_record(acc, total, mode):
    return {
        "total": str(total),
        "rows": _digest(np.stack([acc.sum_row, acc.carry_row])),
        "counts": {f"acc_overflow_{mode}": acc.overflow_count},
    }


def _check_acc_exact(result, results, want):
    acc, total = result
    record = _acc_record(acc, total, "exact")
    if total != want:
        return f"total {total}, want {want}", record
    return None, record


def _check_acc_xor(result, results, pair):
    acc, total = result
    record = _acc_record(acc, total, "xor")
    exact = results[pair]
    if isinstance(exact, Raised):
        return f"exact-mode counterpart {exact!r}", record
    exact_acc = exact[0]
    if not (
        np.array_equal(acc.sum_row, exact_acc.sum_row)
        and np.array_equal(acc.carry_row, exact_acc.carry_row)
    ):
        return "sum/carry rows differ from the exact-mode run", record
    if acc.overflow_count > exact_acc.overflow_count:
        return (
            f"xor overflow {acc.overflow_count} > exact {exact_acc.overflow_count}",
            record,
        )
    return None, record


class AccStream(Workload):
    """Accumulator streams: the per-step carry-save loop dominates and no
    reduction runs.  Short streams put the fixed per-call cost into the
    median call time; long streams set the step throughput."""

    name = "acc_stream"
    trace_chunks = 1
    tail_pct = 95.0
    # Every chunk runs each (rows, width) class at every log-spaced length,
    # once per counter mode on the same bits, then a 1e5-step one-row
    # stream.  Call times cluster by (length, rows).  These counts (154
    # calls) put the median inside the one-row 32-step cluster and p95
    # inside the one-row 1e4-step cluster, away from the edges where a
    # neighbouring cluster would take over.
    SHORT = (1, 3, 10, 32, 100)
    SHORT_REPEATS = 3
    LENGTHS = (316, 1000, 3162, 10000)
    CLASSES = ((1, 16), (1, 64), (2, 16), (2, 64))
    LONG = ((100_000, 1, 16),)

    def chunk(self, index: int) -> list:
        rng = self.rng(index)
        lengths = self.SHORT * self.SHORT_REPEATS + self.LENGTHS
        specs = [(n, rows, w) for n in lengths for rows, w in self.CLASSES]
        specs.extend(self.LONG)
        ops = []
        for n, rows, w in specs:
            a = rng.integers(0, 2, size=(n, w), dtype=np.uint8)
            b = rng.integers(0, 2, size=(n, w), dtype=np.uint8) if rows == 2 else None
            want = _rows_total(a) + (_rows_total(b) if b is not None else 0)
            kind = f"acc/{rows}x{w}"
            inputs = f"acc_run rows={rows} width={w} steps={n} chunk={index}"
            ops.append(
                Op(
                    kind=f"{kind}/exact/{n}",
                    units=n,
                    call=partial(_acc_call, a, b, w, "exact"),
                    check=partial(_check_acc_exact, want=want),
                    inputs=inputs + " mode=exact",
                )
            )
            ops.append(
                Op(
                    kind=f"{kind}/xor/{n}",
                    units=n,
                    call=partial(_acc_call, a, b, w, "xor"),
                    check=partial(_check_acc_xor, pair=len(ops) - 1),
                    inputs=inputs + " mode=xor",
                )
            )
        return ops


# ---------------------------------------------------------------------------
# map_stream


def _map_operand(value, w):
    if isinstance(value, np.ndarray):
        return R.MultiRowCode(2, w, 2, 0, value)
    return R.make_from_value(value, 1, w)


def _map_eval_call(w, signedness, values):
    cfg = R.MapConfig(width=w, signedness=signedness)
    state = R.map_eval(cfg, **{n: _map_operand(v, w) for n, v in values.items()})
    signed = signedness == "twos-complement"
    return state, R.map_signed_total(state) if signed else R.map_total(state)


def _map_acc_call(w, signedness, steps):
    cfg = R.MapConfig(width=w, mode="accumulate", signedness=signedness)
    codes = [{n: R.make_from_value(v, 1, w) for n, v in step.items()} for step in steps]
    state = R.map_accumulate(cfg, codes)
    signed = signedness == "twos-complement"
    return state, R.map_signed_total(state) if signed else R.map_total(state)


def _map_exact(values, w, signed):
    def val(v):
        if isinstance(v, np.ndarray):
            return _rows_total(v)
        return _signed(v, w) if signed else v

    return val(values["a"]) * val(values["b"]) + sum(
        val(v) for n, v in values.items() if n not in ("a", "b")
    )


def _check_map(result, results, want):
    state, total = result
    record = {
        "total": str(total),
        "f": _digest(state.f.digits),
        "counts": {"map_spill": state.overflow_count, "map_bias_units": state.bias_units},
    }
    if total != want:
        return f"total {total}, want {want}", record
    return None, record


class MapStream(Workload):
    """The matrix unit: tall stacks (16 to 72 rows), feedback rows and
    grid spills use the reducer differently from single products, and
    map_unit gathers the rows."""

    name = "map_stream"
    tail_pct = 90.0
    trace_chunks = 200
    # (width, signedness, one-shot evaluations per chunk)
    EVALS = (
        (24, "unsigned-direct", 2), (24, "twos-complement", 2),
        (8, "unsigned-direct", 2), (8, "twos-complement", 2),
        (64, "unsigned-direct", 1), (64, "twos-complement", 1),
    )
    # (width, signedness, steps) accumulate streams per chunk
    ACCUMULATE = ((24, "unsigned-direct", 4), (24, "twos-complement", 4))
    TWO_ROW_ADDENDS = ("c", "d")  # unsigned-direct only; twos-complement needs one row

    def chunk(self, index: int) -> list:
        rng = self.rng(index)
        groups = []
        for w, signedness, count in self.EVALS:
            signed = signedness == "twos-complement"
            ops = []
            for _ in range(count):
                # product operands have their top bit set, so the grid spills
                values = {n: _rand_bits(rng, w) | (1 << (w - 1)) for n in ("a", "b")}
                for n in R.map_unit.ADDITIVE_OPERANDS:
                    if not signed and n in self.TWO_ROW_ADDENDS:
                        values[n] = rng.integers(0, 2, size=(2, w), dtype=np.int64)
                    else:
                        values[n] = _rand_bits(rng, w)
                ops.append(
                    Op(
                        kind=f"map_eval/{w}/{signedness}",
                        units=1,
                        call=partial(_map_eval_call, w, signedness, values),
                        check=partial(_check_map, want=_map_exact(values, w, signed)),
                        inputs=f"map_eval width={w} {signedness} chunk={index}",
                    )
                )
            groups.append(ops)
        for w, signedness, steps in self.ACCUMULATE:
            signed = signedness == "twos-complement"
            stream = [
                {n: _rand_bits(rng, w) for n in ("a", "b", "c", "d", "e", "g")}
                for _ in range(steps)
            ]
            groups.append(
                [
                    Op(
                        kind=f"map_accumulate/{w}/{signedness}",
                        units=steps,
                        call=partial(_map_acc_call, w, signedness, stream),
                        check=partial(
                            _check_map, want=sum(_map_exact(s, w, signed) for s in stream)
                        ),
                        inputs=f"map_accumulate width={w} {signedness} "
                        f"steps={steps} chunk={index}",
                    )
                ]
            )
        return _interleave(groups)


# ---------------------------------------------------------------------------
# verify_mix


# the library is looked up at call time, so a traced run sees its wrappers
def _fuzz_call(seed, op):
    return R.fuzz_verify(seed=seed, trials=1, scope=(op,))


def _divide_call(x, z, k, iters, method):
    return R.divide(x, z, k, iters, method=method)


def _evaluate_call(text):
    return R.evaluate(text)


def _check_fuzz(result, results):
    record = {"fuzz": result.to_json(), "counts": {"fuzz_trials": result.trials}}
    if result.failures or result.passed != result.trials:
        return f"fuzz failure {result.failures[:1]}", record
    return None, record


def _check_divide(result, results, x, z, k, iters):
    digits, residual = result
    record = {
        "divider_digits": list(digits),
        "residual": residual,
        "counts": {"divider_digits": len(digits)},
    }
    want = oracle.restoring_division_digits(x, z, k, iters)
    if (list(digits), residual) != (want[0], want[1]):
        return f"digits {digits} residual {residual}, want {want}", record
    return None, record


def _check_evaluate(result, results, want):
    record = {"value": str(result.value)}
    if result.value != want:
        return f"value {result.value}, want {want}", record
    return None, record


def _cli_call(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad usage by exiting
            code = exc.code
    return code, out.getvalue()


def _code_json_value(obj: dict) -> int:
    rows = [list(reversed(row)) for row in obj["digits"]]  # JSON rows are MSB first
    return oracle.exact_scaled_value(rows, obj["radix"]) * 2 ** obj["lsb_exp"]


def _check_cli(result, results, sub, want):
    code, text = result
    record = {"cli": text}
    if code != 0:
        return f"exit code {code}", record
    try:
        payload = json.loads(text)
        if sub == "mul":
            got = _code_json_value(payload)
        elif sub == "div":
            got = (payload["digits"], payload["residual"], payload["identity"])
        elif sub == "eval":
            got = Fraction(payload["value"])
        else:
            got = Fraction(payload["total"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output {text!r}: {exc}", record
    if sub == "div":
        record["divider_digits"] = payload["digits"]
    if got != want:
        return f"{sub} output {got}, want {want}", record
    return None, record


def _expression(rng, depth: int, top: bool = True):
    """A seeded +, -, * expression and its exact value.  The top level is
    always a parenthesized binary operation, so the text never starts
    with '-' (which argparse would read as an option)."""
    if not top and (depth == 0 or rng.random() < 0.25):
        num = int(rng.integers(0, 1000))
        if rng.random() < 0.3:
            den = 1 << int(rng.integers(1, 5))
            text, value = f"{num}/{den}", Fraction(num, den)
        else:
            text, value = str(num), Fraction(num)
        if rng.random() < 0.2:
            text, value = "-" + text, -value
        return text, value
    op = "+-*"[int(rng.integers(0, 3))]
    lt, lv = _expression(rng, depth - 1, top=False)
    rt, rv = _expression(rng, depth - 1, top=False)
    value = lv + rv if op == "+" else lv - rv if op == "-" else lv * rv
    return f"({lt} {op} {rt})", value


class VerifyMix(Workload):
    """Fuzz trials over every FUZZ_OPS entry mixed with direct divide,
    evaluate and cli calls, so divider, evalexpr, cli and report are
    measured too."""

    name = "verify_mix"
    tail_pct = 99.0
    trace_chunks = 60
    FUZZ_PER_OP = 4  # fuzz trials per FUZZ_OPS entry per chunk
    DIVIDE = ((1, "bisect"), (1, "eager"), (4, "bisect"), (4, "eager"), (8, "bisect"), (8, "eager"))
    DIVIDE_PER_KIND = 2
    DIVISOR_BITS = 24
    DIVISOR_POOL = 8  # divide() reuses these; fuzz div trials draw fresh divisors
    EVALUATES = 8
    EXPR_DEPTH = 3
    CLI = ("mul", "div", "eval", "map")

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = np.random.default_rng([seed, 1 << 30])
        low = 1 << (self.DIVISOR_BITS - 1)
        self.divisors = [low | _rand_bits(rng, self.DIVISOR_BITS - 1) for _ in range(self.DIVISOR_POOL)]

    def _divide_args(self, rng, k):
        z = self.divisors[int(rng.integers(0, self.DIVISOR_POOL))]
        x = int(rng.integers(0, 2 * z))
        return x, z, k, self.DIVISOR_BITS // k

    def chunk(self, index: int) -> list:
        rng = self.rng(index)
        groups = []
        fuzz = []
        for _ in range(self.FUZZ_PER_OP):
            for op in R.report.FUZZ_OPS:
                s = int(rng.integers(0, 1 << 31))
                fuzz.append(
                    Op(
                        kind=f"fuzz/{op}",
                        units=1,
                        call=partial(_fuzz_call, s, op),
                        check=_check_fuzz,
                        inputs=f"fuzz_verify seed={s} scope={op}",
                    )
                )
        groups.append(fuzz)
        divides = []
        for k, method in self.DIVIDE:
            for _ in range(self.DIVIDE_PER_KIND):
                x, z, k, iters = self._divide_args(rng, k)
                divides.append(
                    Op(
                        kind=f"divide/k{k}/{method}",
                        units=1,
                        call=partial(_divide_call, x, z, k, iters, method),
                        check=partial(_check_divide, x=x, z=z, k=k, iters=iters),
                        inputs=f"divide x={x} z={z} k={k} iters={iters} method={method}",
                    )
                )
        groups.append(divides)
        evals = []
        for _ in range(self.EVALUATES):
            text, value = _expression(rng, self.EXPR_DEPTH)
            evals.append(
                Op(
                    kind="evaluate",
                    units=1,
                    call=partial(_evaluate_call, text),
                    check=partial(_check_evaluate, want=value),
                    inputs=f"evaluate {text!r}",
                )
            )
        groups.append(evals)
        groups.append([self._cli_op(rng, sub) for sub in self.CLI])
        return _interleave(groups)

    def _cli_op(self, rng, sub):
        if sub == "mul":
            a, b = _rand_bits(rng, 16), _rand_bits(rng, 16)
            argv = ["mul", str(a), str(b), "--width", "16", "--json"]
            want = a * b
        elif sub == "div":
            x, z, k, iters = self._divide_args(rng, 4)
            argv = ["div", str(x), str(z), str(k), str(iters), "--json"]
            digits, residual = oracle.restoring_division_digits(x, z, k, iters)
            want = (digits, residual, True)
        elif sub == "eval":
            text, want = _expression(rng, self.EXPR_DEPTH)
            argv = ["eval", text, "--json"]
        else:
            values = {n: _rand_bits(rng, 8) for n in ("a", "b", *R.map_unit.ADDITIVE_OPERANDS)}
            argv = ["map", *(f"{n}={v}" for n, v in values.items()), "--width", "8", "--json"]
            want = _map_exact(values, 8, signed=False)
        return Op(
            kind=f"cli/{sub}",
            units=1,
            call=partial(_cli_call, argv),
            check=partial(_check_cli, sub=sub, want=want),
            inputs=f"cli {' '.join(argv)}",
        )


WORKLOADS = {w.name: w for w in (Products, AccStream, MapStream, VerifyMix)}
