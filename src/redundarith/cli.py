"""Command-line front end.

Exit codes: 0 success, 1 verification mismatch (report/fuzz/identity
failures), 2 usage errors.  `--trace`, on every subcommand, leaves stdout
unchanged and writes the command's trace events to stderr, one JSON
object per line.  Inputs past the size caps below are usage errors,
rejected before anything of their size is allocated.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

import numpy as np

from . import accumulator, codes, divider, evalexpr, map_unit, multiplier, reducer, trace
from .report import FUZZ_OPS, TABLE_KINDS, fuzz_verify, report_tables

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
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return codes.from_json(text)
    return codes.from_text(text)


def _read_operand(spec: str, width: int | None, radix: int) -> codes.MultiRowCode:
    """An operand is '@path', '-' (stdin), or a non-negative integer."""
    if spec == "-" or spec.startswith("@"):
        return _parse_code_text(_read_text(spec[1:] if spec.startswith("@") else spec))
    try:
        value = int(spec, 0)
    except ValueError:
        shown = spec if len(spec) <= 40 else spec[:40] + "..."
        # Python refuses decimal strings past its int-string digit limit
        limit = codes.int_string_limit()
        if 0 < limit < len(spec) and spec.isdecimal():
            raise ValueError(
                f"integer operand {shown} has {len(spec)} digits, past Python's "
                f"limit of {limit}"
            ) from None
        raise ValueError(
            f"operand {shown!r} is neither an integer nor @file nor '-'"
        ) from None
    if value < 0:
        raise ValueError("integer operands must be non-negative; use eval for signs")
    return codes.make_from_value(value, 1, width, radix)


def _capped_width(width: int | None, flag: str = "--width") -> int | None:
    if width is not None and not 0 <= width <= MAX_WIDTH:
        raise ValueError(f"{flag} {width} is outside 0..{MAX_WIDTH}")
    return width


def _check_matrix(a: codes.MultiRowCode, b: codes.MultiRowCode, acc_width: int = 0) -> None:
    """Reject a product whose stacked digit matrix passes MAX_MATRIX_CELLS."""
    w = max(a.width, b.width)
    rows, cols = w + (2 if acc_width else 0), max(2 * w - 1, acc_width)
    if rows * cols > MAX_MATRIX_CELLS:
        raise ValueError(f"a {w}-bit product needs a {rows}x{cols} digit matrix, "
                         f"above the limit of {MAX_MATRIX_CELLS} cells")


def _emit_code(code: codes.MultiRowCode, as_json: bool) -> None:
    if as_json:
        print(codes.to_json(code))
    else:
        sys.stdout.write(codes.to_text(code))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_reduce(args) -> int:
    code = _parse_code_text(_read_text(args.code))
    _emit_code(code if code.rows <= 2 else reducer.reduce_to_two(code), args.json)
    return 0


def _cmd_add(args) -> int:
    width = _capped_width(args.width)
    a = reducer._pad_to_two(_read_operand(args.a, width, args.radix))
    b = reducer._pad_to_two(_read_operand(args.b, width, args.radix))
    out = reducer.add_two_row(a, b)
    _emit_code(out, args.json)
    return 0


def _cmd_mul(args) -> int:
    width = _capped_width(args.width)
    a = _read_operand(args.a, width, 2)
    b = _read_operand(args.b, width, 2)
    if args.signed and a.width != b.width:
        raise ValueError("--signed needs equal operand widths")
    _check_matrix(a, b)
    out = multiplier.multiply(a, b, signed=args.signed)
    if args.signed:
        value = multiplier.signed_product_value(out, a.width)
        if args.json:
            print(json.dumps({"product": codes.to_json_dict(out), "value": str(value)},
                             sort_keys=True))
        else:
            sys.stdout.write(codes.to_text(out))
            print(f"value {value}")
    else:
        _emit_code(out, args.json)
    return 0


def _cmd_mac(args) -> int:
    width = _capped_width(args.width)
    f = reducer._pad_to_two(_read_operand(args.f, _capped_width(args.acc_width, "--acc-width"), 2))
    a = _read_operand(args.a, width, 2)
    b = _read_operand(args.b, width, 2)
    _check_matrix(a, b, f.width)
    out = multiplier.fused_mac(f, a, b)
    _emit_code(out, args.json)
    return 0


def _cmd_div(args) -> int:
    divider.check_printable(args.k, args.iters, args.radix)
    digits, residual = divider.divide(
        args.x, args.z, args.k, args.iters, radix=args.radix, method=args.method
    )
    quotient = divider.quotient_value(digits, args.k, args.radix)
    scale = args.radix ** (args.k * args.iters)
    identity = args.x * scale == args.z * quotient * scale + residual
    payload = {
        "digits": digits,
        "residual": residual,
        "quotient": str(quotient),
        "identity": identity,
    }
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"digits {' '.join(str(d) for d in digits)}")
        print(f"residual {residual}")
        print(f"quotient {payload['quotient']}")
    return 0 if identity else 1


def _rows_from_lines(text: str, width: int | None):
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if not set(line) <= {"0", "1"}:
            raise ValueError(f"line {lineno}: operand rows must be binary")
        rows.append(line)
    if not rows:
        raise ValueError("no operand rows found")
    w = width if width is not None else max(map(len, rows))
    for i, row in enumerate(rows):
        if len(row) > w:
            raise ValueError(f"operand row {i + 1} wider than --width {w}")
    return codes.unpack_rows([int(row, 2) for row in rows], w)


def _cmd_accumulate(args) -> int:
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
    total = accumulator.acc_total(acc)
    if args.json:
        steps = mat.shape[0] // (2 if args.pairs else 1)
        print(json.dumps({"width": width, "steps": steps, "overflow_count": acc.overflow_count,
                          "total": str(total)}, sort_keys=True))
    else:
        print(f"total {total}")
        print(f"overflow_count {acc.overflow_count}")
    return 0


def _cmd_map(args) -> int:
    cfg = map_unit.MapConfig(
        width=args.width,
        mode="one-shot",
        signedness="twos-complement" if args.tc else "unsigned-direct",
    )
    operands = {}
    for item in args.operands:
        if "=" not in item:
            raise ValueError(f"operand {item!r} must look like name=value")
        name, _, value = item.partition("=")
        name = name.lower()
        if name not in ("a", "b", *map_unit.ADDITIVE_OPERANDS):
            raise ValueError(f"unknown operand {name!r}")
        operands[name] = _read_operand(value, args.width, 2)
    state = map_unit.map_eval(cfg, **operands)
    payload = {
        "total": str(map_unit.map_total(state)),
        "overflow_count": state.overflow_count,
    }
    if args.tc:
        payload["signed_total"] = str(map_unit.map_signed_total(state))
    if args.timing:
        t = map_unit.map_timing(cfg)
        payload["timing"] = {
            "total": t.total,
            "source": t.source,
            "derived_levels": list(t.derived_levels),
            "derived_total": t.derived_total,
        }
    if args.gates:
        est = map_unit.map_gate_estimate(cfg)
        payload["gates"] = {
            k: est[k] for k in ("pp_and_gates", "counter_gates", "total")
        }
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for key, value in payload.items():
            if isinstance(value, dict):
                for sub, item in value.items():
                    print(f"{key}.{sub} {item}")
            else:
                print(f"{key} {value}")
    return 0


def _cmd_report(args) -> int:
    rep = report_tables(args.table)
    sys.stdout.write(rep.to_json() + "\n" if args.json else rep.to_text())
    return rep.exit_code


def _cmd_fuzz(args) -> int:
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get(SEED_ENV, "0"))
    scope = args.scope.split(",") if args.scope else None
    result = fuzz_verify(seed=seed, trials=args.trials, scope=scope)
    sys.stdout.write(result.to_json() + "\n" if args.json else result.to_text())
    return result.exit_code


def _cmd_eval(args) -> int:
    result = evalexpr.evaluate(args.expression)
    if args.json:
        code = result.code
        print(json.dumps({"value": str(result.value), "pos": codes.to_json_dict(code.pos),
                          "neg": codes.to_json_dict(code.neg)}, sort_keys=True))
    else:
        print(f"value {result.value}")
    return 0


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
    p.add_argument("--width", type=int)
    p.add_argument("--radix", type=int, default=2)
    p.set_defaults(func=_cmd_add)

    p = sub.add_parser("mul", parents=[common], help="multiply two 1-row binary operands")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--width", type=int)
    p.add_argument("--signed", action="store_true", help="twos-complement operands")
    p.set_defaults(func=_cmd_mul)

    p = sub.add_parser("mac", parents=[common], help="fused multiply-accumulate f + a*b")
    p.add_argument("f")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--width", type=int, help="operand width for a and b")
    p.add_argument("--acc-width", type=int, help="width for f")
    p.set_defaults(func=_cmd_mac)

    p = sub.add_parser("div", parents=[common], help="high-radix division by table lookup")
    p.add_argument("x", type=int)
    p.add_argument("z", type=int)
    p.add_argument("k", type=int, help="digit group size: one pass yields a radix**k digit")
    p.add_argument("iters", type=int)
    p.add_argument("--radix", type=int, default=2)
    p.add_argument("--method", choices=("bisect", "eager"), default="bisect")
    p.set_defaults(func=_cmd_div)

    p = sub.add_parser(
        "accumulate", parents=[common], help="stream binary rows into the accumulator"
    )
    p.add_argument("stream", help="file of binary rows (MSB first), or -")
    p.add_argument("--width", type=int)
    p.add_argument("--pairs", action="store_true", help="consume rows two at a time")
    p.add_argument("--counter-mode", choices=("exact", "xor"), default="exact")
    p.set_defaults(func=_cmd_accumulate)

    p = sub.add_parser("map", parents=[common], help="one-shot a*b + c + d + e + g + h + l")
    p.add_argument("operands", nargs="+", metavar="name=value")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--tc", action="store_true", help="twos-complement operands")
    p.add_argument("--timing", action="store_true")
    p.add_argument("--gates", action="store_true")
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("report", parents=[common], help="golden tables vs derived values")
    p.add_argument("--table", choices=TABLE_KINDS, required=True)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("fuzz", parents=[common], help="randomized checks against big-int oracles")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=None, help=f"default: ${SEED_ENV} or 0")
    p.add_argument("--scope", help="comma-separated subset of: " + ",".join(FUZZ_OPS))
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("eval", parents=[common], help="evaluate an expression through the engines")
    p.add_argument("expression")
    p.set_defaults(func=_cmd_eval)

    return parser


def _event_field(value):
    """JSON form of an event field json.dumps cannot write: digit arrays
    as MSB-first row lists (as in codes.to_json_dict), Fractions as strings."""
    if isinstance(value, np.ndarray):
        return codes.msb_rows(value)
    return str(value)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    recorder = trace.record() if args.trace else contextlib.nullcontext(())
    try:
        with recorder as events:
            status = args.func(args)
    except (ValueError, OSError) as exc:  # usage, format and evaluation errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for event in events:
        print(json.dumps(event, default=_event_field), file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
