"""Command-line front end.

Exit codes: 0 success, 1 verification mismatch (report/fuzz/identity
failures), 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import accumulator, codes, divider, evalexpr, map_unit, multiplier, reducer
from .report import FUZZ_OPS, TABLE_KINDS, fuzz_verify, report_tables

SEED_ENV = "REDUNDARITH_SEED"


class UsageError(ValueError):
    pass


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
        raise UsageError(
            f"operand {spec!r} is neither an integer nor @file nor '-'"
        ) from None
    if value < 0:
        raise UsageError("integer operands must be non-negative; use eval for signs")
    need = max(1, value.bit_length()) if radix == 2 else len(np.base_repr(value, radix))
    w = width if width is not None else need
    return codes.make_from_value(value, 1, w, radix)


def _emit_code(code: codes.MultiRowCode, as_json: bool) -> None:
    if as_json:
        print(codes.to_json(code))
    else:
        sys.stdout.write(codes.to_text(code))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_reduce(args) -> int:
    code = _parse_code_text(_read_text(args.code))
    if code.rows <= 2:
        _emit_code(code, args.json)
        return 0
    if args.trace:
        for i, out in enumerate(reducer.reduce_stages(code), start=1):
            print(f"stage {i}: {out.rows} rows")
            sys.stdout.write(codes.to_text(out))
    else:
        out = reducer.reduce_to_two(code)
    _emit_code(out, args.json)
    return 0


def _cmd_add(args) -> int:
    a = _read_operand(args.a, args.width, args.radix)
    b = _read_operand(args.b, args.width, args.radix)
    if a.rows == 1:
        a = codes.MultiRowCode(2, a.width, a.radix, a.lsb_exp, np.vstack([a.digits, np.zeros_like(a.digits)]))
    if b.rows == 1:
        b = codes.MultiRowCode(2, b.width, b.radix, b.lsb_exp, np.vstack([b.digits, np.zeros_like(b.digits)]))
    out = reducer.add_two_row(a, b)
    _emit_code(out, args.json)
    return 0


def _cmd_mul(args) -> int:
    a = _read_operand(args.a, args.width, 2)
    b = _read_operand(args.b, args.width, 2)
    if args.signed and a.width != b.width:
        raise UsageError("--signed needs equal operand widths")
    out = multiplier.multiply(a, b, signed=args.signed)
    if args.signed:
        value = multiplier.signed_product_value(out, a.width)
        if args.json:
            print(json.dumps({"product": codes.to_json_dict(out), "value": str(value)}))
        else:
            sys.stdout.write(codes.to_text(out))
            print(f"value {value}")
    else:
        _emit_code(out, args.json)
    return 0


def _cmd_mac(args) -> int:
    f = _read_operand(args.f, args.acc_width, 2)
    a = _read_operand(args.a, args.width, 2)
    b = _read_operand(args.b, args.width, 2)
    if f.rows == 1:
        f = codes.MultiRowCode(2, f.width, f.radix, f.lsb_exp, np.vstack([f.digits, np.zeros_like(f.digits)]))
    out = multiplier.fused_mac(f, a, b)
    _emit_code(out, args.json)
    return 0


def _cmd_div(args) -> int:
    trace = [] if args.trace else None
    digits, residual = divider.divide(
        args.x, args.z, args.k, args.iters, radix=args.radix,
        method=args.method, trace=trace,
    )
    if trace:
        for st in trace:
            line = f"iter {st.iteration}: digit {st.digit} residual {st.residual}"
            if st.thermometer is not None:
                line += " flags " + "".join(str(f) for f in st.thermometer)
            print(line)
    identity = (
        args.x * args.radix ** (args.k * args.iters)
        == args.z * sum(
            d * args.radix ** (args.k * (args.iters - 1 - j))
            for j, d in enumerate(digits)
        )
        + residual
    )
    payload = {
        "digits": digits,
        "residual": residual,
        "quotient": str(divider.quotient_value(digits, args.k, args.radix)),
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
            raise UsageError(f"line {lineno}: operand rows must be binary")
        rows.append([int(ch) for ch in reversed(line)])
    if not rows:
        raise UsageError("no operand rows found")
    w = width if width is not None else max(len(r) for r in rows)
    mat = np.zeros((len(rows), w), dtype=np.int64)
    for i, r in enumerate(rows):
        if len(r) > w:
            raise UsageError(f"operand row {i + 1} wider than --width {w}")
        mat[i, : len(r)] = r
    return mat


def _cmd_accumulate(args) -> int:
    mat = _rows_from_lines(_read_text(args.stream), args.width)
    width = mat.shape[1]
    acc = accumulator.acc_new(width, counter_mode=args.counter_mode)
    if args.pairs:
        if mat.shape[0] % 2:
            raise UsageError("--pairs needs an even number of rows")
        acc = accumulator.acc_run(acc, mat[0::2], mat[1::2])
    else:
        acc = accumulator.acc_run(acc, mat)
    total = accumulator.acc_total(acc)
    if args.json:
        print(
            json.dumps(
                {
                    "width": width,
                    "steps": int(mat.shape[0] // (2 if args.pairs else 1)),
                    "overflow_count": acc.overflow_count,
                    "total": str(total),
                },
                sort_keys=True,
            )
        )
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
            raise UsageError(f"operand {item!r} must look like name=value")
        name, _, value = item.partition("=")
        name = name.lower()
        if name not in ("a", "b", *map_unit.ADDITIVE_OPERANDS):
            raise UsageError(f"unknown operand {name!r}")
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
    if args.trace:
        for step in result.steps:
            print(f"step {step}")
    if args.json:
        print(
            json.dumps(
                {
                    "value": str(result.value),
                    "pos": codes.to_json_dict(result.code.pos),
                    "neg": codes.to_json_dict(result.code.neg),
                },
                sort_keys=True,
            )
        )
    else:
        print(f"value {result.value}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="redundarith",
        description="Multi-row redundant arithmetic: reduce, add, multiply, "
        "divide, accumulate, matrix unit, golden-table reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="reduce a code to 2 rows")
    p.add_argument("code", help="code file, or - for stdin")
    p.add_argument("--trace", action="store_true", help="print every stage")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("add", help="carry-free addition of two codes")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--width", type=int)
    p.add_argument("--radix", type=int, default=2)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_add)

    p = sub.add_parser("mul", help="multiply two 1-row binary operands")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--width", type=int)
    p.add_argument("--signed", action="store_true", help="twos-complement operands")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_mul)

    p = sub.add_parser("mac", help="fused multiply-accumulate f + a*b")
    p.add_argument("f")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--width", type=int, help="operand width for a and b")
    p.add_argument("--acc-width", type=int, help="width for f")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_mac)

    p = sub.add_parser("div", help="high-radix division by table lookup")
    p.add_argument("x", type=int)
    p.add_argument("z", type=int)
    p.add_argument("k", type=int, help="digit group size: one pass yields a radix**k digit")
    p.add_argument("iters", type=int)
    p.add_argument("--radix", type=int, default=2)
    p.add_argument("--method", choices=("bisect", "eager"), default="bisect")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_div)

    p = sub.add_parser("accumulate", help="stream binary rows into the accumulator")
    p.add_argument("stream", help="file of binary rows (MSB first), or -")
    p.add_argument("--width", type=int)
    p.add_argument("--pairs", action="store_true", help="consume rows two at a time")
    p.add_argument("--counter-mode", choices=("exact", "xor"), default="exact")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_accumulate)

    p = sub.add_parser("map", help="one-shot a*b + c + d + e + g + h + l")
    p.add_argument("operands", nargs="+", metavar="name=value")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--tc", action="store_true", help="twos-complement operands")
    p.add_argument("--timing", action="store_true")
    p.add_argument("--gates", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("report", help="golden tables vs derived values")
    p.add_argument("--table", choices=TABLE_KINDS, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("fuzz", help="randomized checks against big-int oracles")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=None, help=f"default: ${SEED_ENV} or 0")
    p.add_argument("--scope", help="comma-separated subset of: " + ",".join(FUZZ_OPS))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("eval", help="evaluate an expression through the engines")
    p.add_argument("expression")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (codes.CodeFormatError, evalexpr.EvalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
