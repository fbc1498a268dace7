"""Command-line front end.

Exit codes: 0 success, 1 verification mismatch (report/fuzz/identity
failures), 2 usage errors.  `--trace`, on every subcommand, leaves stdout
unchanged and writes the command's trace events to stderr as JSON lines,
a stage's output code as its "digits".  Inputs past the size caps below
are usage errors, rejected before anything of their size is allocated.

numpy loads on first use: the binary `reduce`, `mul`, `mac`, `add`,
`div`, `eval`, `map` and `report` commands, and `fuzz --scope
mul,mac,div,map`, run without it, traced or not, while `accumulate`, the
`reduce`, `add` and `acc` fuzz ops and any radix > 2 code import it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from typing import TYPE_CHECKING

from . import accumulator, codes, divider, evalexpr, map_unit, multiplier, reducer, trace
from .report import FUZZ_OPS, TABLE_KINDS, fuzz_verify, report_tables

if TYPE_CHECKING:
    import numpy as np

SEED_ENV = "REDUNDARITH_SEED"
# largest --width or --acc-width that add, mul, mac and accumulate take
MAX_WIDTH = 1 << 16
# largest digit matrix a mul or mac may stack: W x (2W - 1) partial
# products, plus mac's accumulator rows
MAX_MATRIX_CELLS = 1 << 22


def _read_text(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    with open(source, "r", encoding="utf-8") as fh:
        return fh.read()


def _parse_code_text(text: str) -> codes.MultiRowCode:
    return codes.from_json(text) if text.lstrip().startswith("{") else codes.from_text(text)


def _read_operand(spec: str, width: int | None, radix: int) -> codes.MultiRowCode:
    """An operand is '@path', '-' (stdin), or a non-negative integer: decimal
    text in base 10, as `int` reads every other integer argument, so leading
    zeros are fine; other text (0x, 0o, 0b) with its prefix."""
    if spec == "-" or spec.startswith("@"):
        return _parse_code_text(_read_text(spec[1:] if spec.startswith("@") else spec))
    if spec.isdecimal() and (past := codes.past_digit_limit(spec)):
        raise ValueError(f"integer operand {past}")
    try:
        value = int(spec, 10 if spec.isdecimal() else 0)
    except ValueError:
        cut = spec if len(spec) <= 40 else spec[:40] + "..."
        raise ValueError(f"operand {cut!r} is neither an integer nor @file nor '-'") from None
    if value < 0:
        raise ValueError("integer operands must be non-negative; use eval for signs")
    return codes.make_from_value(value, 1, width, radix)


def _int_arg(text: str) -> int:
    """`int` for argparse, which names a text past the digit limit by its size, not its text."""
    if past := codes.past_digit_limit(text):
        raise argparse.ArgumentTypeError(past)
    return int(text)


_int_arg.__name__ = "int"  # argparse's "invalid int value" names the type


def _capped_width(width: int | None, flag: str = "--width") -> int | None:
    if width is not None and not 0 <= width <= MAX_WIDTH:
        raise ValueError(f"{codes.shown(width, flag)} is outside 0..{MAX_WIDTH}")
    return width


def _check_matrix(a: codes.MultiRowCode, b: codes.MultiRowCode, acc_width: int = 0) -> None:
    """Reject a product whose stacked digit matrix passes MAX_MATRIX_CELLS."""
    w = max(a.width, b.width)
    rows, cols = w + (2 if acc_width else 0), max(2 * w - 1, acc_width)
    if rows * cols > MAX_MATRIX_CELLS:
        raise ValueError(f"a {w}-bit product needs a {rows}x{cols} digit matrix, "
                         f"above the limit of {MAX_MATRIX_CELLS} cells")


def _two_rows(code: codes.MultiRowCode) -> codes.MultiRowCode:
    """A one-row operand padded to two rows; any other is left to the engine's operand rule."""
    return reducer.reduce_to_two(code) if code.rows == 1 else code


def _printed(name: str, value) -> str:
    """`value` as text; one Python cannot print is a usage error naming `name` and its size."""
    if past := codes.past_digit_limit(value):
        raise ValueError(f"{name} {past}")
    return str(value)


def _code_result(code: codes.MultiRowCode) -> tuple[int, dict, str]:
    return 0, codes.to_json_dict(code), codes.to_text(code)


# ---------------------------------------------------------------------------
# subcommands: each returns (exit status, its --json payload, its text output)


def _cmd_reduce(args) -> tuple[int, dict, str]:
    code = _parse_code_text(_read_text(args.code))
    return _code_result(code if code.rows <= 2 else reducer.reduce_to_two(code))


def _cmd_add(args) -> tuple[int, dict, str]:
    width = _capped_width(args.width)
    a = _two_rows(_read_operand(args.a, width, args.radix))
    b = _two_rows(_read_operand(args.b, width, args.radix))
    return _code_result(reducer.add_two_row(a, b))


def _cmd_mul(args) -> tuple[int, dict, str]:
    width = _capped_width(args.width)
    a = _read_operand(args.a, width, 2)
    b = _read_operand(args.b, width, 2)
    _check_matrix(a, b)
    out = multiplier.multiply(a, b, signed=args.signed)
    if not args.signed:
        return _code_result(out)
    value = _printed("value", multiplier.signed_product_value(out, a.width))
    return (0, {"product": codes.to_json_dict(out), "value": value},
            codes.to_text(out) + f"value {value}\n")


def _cmd_mac(args) -> tuple[int, dict, str]:
    width = _capped_width(args.width)
    f = _two_rows(_read_operand(args.f, _capped_width(args.acc_width, "--acc-width"), 2))
    a = _read_operand(args.a, width, 2)
    b = _read_operand(args.b, width, 2)
    _check_matrix(a, b, f.width)
    return _code_result(multiplier.fused_mac(f, a, b))


def _cmd_div(args) -> tuple[int, dict, str]:
    divider.check_printable(args.k, args.iters, args.radix)
    digits, residual = divider.divide(args.x, args.z, args.k, args.iters, radix=args.radix,
                                      method=args.method)
    quotient = divider.quotient_value(digits, args.k, args.radix)
    scale = args.radix ** (args.k * args.iters)
    identity = args.x * scale == args.z * quotient * scale + residual
    payload = {"digits": digits, "residual": residual, "quotient": str(quotient),
               "identity": identity}
    text = f"digits {' '.join(map(str, digits))}\nresidual {residual}\nquotient {quotient}\n"
    return 0 if identity else 1, payload, text


def _rows_from_lines(text: str, width: int | None) -> np.ndarray:
    import numpy as np

    lines = [(lineno, line.strip()) for lineno, line in enumerate(text.splitlines(), start=1)]
    lines = [(lineno, line) for lineno, line in lines if line and not line.startswith("#")]
    if not lines:
        raise ValueError("no operand rows found")
    linenos, rows = zip(*lines)
    w = max(width or 0, *map(len, rows))
    # the rows' characters less "0", zero-padded: one (rows, w) matrix,
    # LSB column first.  A non-ASCII character encodes as one "?", and
    # uint8 wraps every character below "0" past 1, so one comparison
    # finds every row that is not binary
    chars = "".join(row.rjust(w, "0") for row in rows).encode("ascii", "replace")
    bits = np.frombuffer(chars, np.uint8).reshape(len(rows), w)[:, ::-1] - ord("0")
    bad = (bits > 1).any(axis=1)
    if bad.any():
        raise ValueError(f"line {linenos[bad.argmax()]}: operand rows must be binary")
    if width is not None and w > width:
        first = next(i for i, row in enumerate(rows) if len(row) > width)
        raise ValueError(f"operand row {first + 1} wider than --width {width}")
    return bits


def _cmd_accumulate(args) -> tuple[int, dict, str]:
    width = _capped_width(args.width)
    mat = _rows_from_lines(_read_text(args.stream), width)
    width = mat.shape[1]
    acc = accumulator.acc_new(width, counter_mode=args.counter_mode)
    if args.pairs:
        if mat.shape[0] % 2:
            raise ValueError("--pairs needs an even number of rows")
        acc = accumulator.acc_run(acc, mat[0::2], mat[1::2])
    else:
        acc = accumulator.acc_run(acc, mat)
    total = _printed("total", accumulator.acc_total(acc))
    steps = mat.shape[0] // (2 if args.pairs else 1)
    payload = {"width": width, "steps": steps, "overflow_count": acc.overflow_count, "total": total}
    return 0, payload, f"total {total}\noverflow_count {acc.overflow_count}\n"


def _cmd_map(args) -> tuple[int, dict, str]:
    signedness = "twos-complement" if args.tc else "unsigned-direct"
    cfg = map_unit.MapConfig(width=args.width, mode="one-shot", signedness=signedness)
    operands = {}
    for item in args.operands:
        if "=" not in item:
            raise ValueError(f"operand {item!r} must look like name=value")
        name, _, value = item.partition("=")
        name = name.lower()
        if name in operands:
            raise ValueError(f"operand {name} given twice")
        operands[name] = _read_operand(value, args.width, 2)
    state = map_unit.map_eval(cfg, **operands)
    payload = {"total": _printed("total", map_unit.map_total(state)), "overflow_count": state.overflow_count}
    if args.tc:
        payload["signed_total"] = _printed("signed_total", map_unit.map_signed_total(state))
    if args.timing:
        t = map_unit.map_timing(cfg)
        payload["timing"] = {"total": t.total, "source": t.source,
                             "derived_levels": list(t.derived_levels),
                             "derived_total": t.derived_total}
    if args.gates:
        est = map_unit.map_gate_estimate(cfg)
        payload["gates"] = {k: est[k] for k in ("pp_and_gates", "counter_gates", "total")}
    lines = []
    for key, value in payload.items():
        if isinstance(value, dict):
            lines += (f"{key}.{sub} {item}\n" for sub, item in value.items())
        else:
            lines.append(f"{key} {value}\n")
    return 0, payload, "".join(lines)


def _cmd_report(args) -> tuple[int, dict, str]:
    rep = report_tables(args.table)
    return rep.exit_code, rep._asdict(), rep.to_text()


def _cmd_fuzz(args) -> tuple[int, dict, str]:
    seed = args.seed
    if seed is None:
        text = os.environ.get(SEED_ENV, "0")
        if not codes._is_decimal(text):
            raise ValueError(f"${SEED_ENV} must be ASCII decimal digits, got {text!r}")
        if past := codes.past_digit_limit(text):
            raise ValueError(f"${SEED_ENV} {past}")
        seed = int(text)
    scope = None if args.scope is None else args.scope.split(",")
    result = fuzz_verify(seed=seed, trials=args.trials, scope=scope)
    return result.exit_code, result._asdict(), result.to_text()


def _cmd_eval(args) -> tuple[int, dict, str]:
    result = evalexpr.evaluate(args.expression)
    value, code = _printed("value", result.value), result.code
    payload = {"value": value, "pos": codes.to_json_dict(code.pos), "neg": codes.to_json_dict(code.neg)}
    return 0, payload, f"value {value}\n"


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument tree, built on the first call and shared by every later `main`."""
    parser = argparse.ArgumentParser(
        prog="redundarith",
        description="Multi-row redundant arithmetic: reduce, add, multiply, "
        "divide, accumulate, matrix unit, golden-table reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true")
    common.add_argument(
        "--trace", action="store_true", help="write trace events to stderr as JSON lines"
    )

    p = sub.add_parser("reduce", parents=[common], help="reduce a code to 2 rows")
    p.add_argument("code", help="code file, or - for stdin")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("add", parents=[common], help="carry-free addition of two codes")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--width", type=_int_arg)
    p.add_argument("--radix", type=_int_arg, default=2)
    p.set_defaults(func=_cmd_add)

    p = sub.add_parser("mul", parents=[common], help="multiply two 1-row binary operands")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--width", type=_int_arg)
    p.add_argument("--signed", action="store_true", help="twos-complement operands")
    p.set_defaults(func=_cmd_mul)

    p = sub.add_parser("mac", parents=[common], help="fused multiply-accumulate f + a*b")
    p.add_argument("f")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--width", type=_int_arg, help="operand width for a and b")
    p.add_argument("--acc-width", type=_int_arg, help="width for f")
    p.set_defaults(func=_cmd_mac)

    p = sub.add_parser("div", parents=[common], help="high-radix division by table lookup")
    p.add_argument("x", type=_int_arg)
    p.add_argument("z", type=_int_arg)
    p.add_argument("k", type=_int_arg, help="digit group size: one pass yields a radix**k digit")
    p.add_argument("iters", type=_int_arg)
    p.add_argument("--radix", type=_int_arg, default=2)
    p.add_argument("--method", choices=("bisect", "eager"), default="bisect")
    p.set_defaults(func=_cmd_div)

    p = sub.add_parser(
        "accumulate", parents=[common], help="stream binary rows into the accumulator"
    )
    p.add_argument("stream", help="file of binary rows (MSB first), or -")
    p.add_argument("--width", type=_int_arg)
    p.add_argument("--pairs", action="store_true", help="consume rows two at a time")
    p.add_argument("--counter-mode", choices=("exact", "xor"), default="exact")
    p.set_defaults(func=_cmd_accumulate)

    p = sub.add_parser("map", parents=[common], help="one-shot a*b + c + d + e + g + h + l")
    p.add_argument("operands", nargs="+", metavar="name=value")
    p.add_argument("--width", type=_int_arg, required=True)
    p.add_argument("--tc", action="store_true", help="twos-complement operands")
    p.add_argument("--timing", action="store_true")
    p.add_argument("--gates", action="store_true")
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("report", parents=[common], help="golden tables vs derived values")
    p.add_argument("--table", choices=TABLE_KINDS, required=True)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("fuzz", parents=[common], help="randomized checks against big-int oracles")
    p.add_argument("--trials", type=_int_arg, default=100)
    p.add_argument("--seed", type=_int_arg, default=None, help=f"default: ${SEED_ENV} or 0")
    p.add_argument("--scope", help="comma-separated subset of: " + ",".join(FUZZ_OPS))
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("eval", parents=[common], help="evaluate an expression through the engines")
    p.add_argument("expression")
    p.set_defaults(func=_cmd_eval)

    return parser


def _event_field(value):
    """JSON form of an event field json.dumps cannot write: codes as
    MSB-first row lists (`codes.msb_rows`), Fractions as `_printed` strings."""
    return codes.msb_rows(value) if isinstance(value, codes.MultiRowCode) else _printed("trace field", value)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    recorder = trace.record() if args.trace else contextlib.nullcontext(())
    try:
        with recorder as events:
            status, payload, text = args.func(args)
        # all output is built before any is written, so a failure writes only its error line
        out = json.dumps(payload, sort_keys=True) + "\n" if args.json else text
        lines = "".join(json.dumps({"digits" if k == "code" else k: v for k, v in event.items()},
                                   default=_event_field) + "\n" for event in events)
    except (ValueError, OSError) as exc:  # usage, format and evaluation errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(out)
    sys.stderr.write(lines)
    return status


if __name__ == "__main__":
    sys.exit(main())
