"""Matrix arithmetic processor: one fused product-and-sums matrix pass.

One evaluation stacks the partial products of A*B with the rows of up to
six additive operands (C, D, E, G, H, L), reduces everything to a 2-row
result F on a fixed grid of 2n-1 columns, and charges any digits that
land beyond the grid to a serial overflow counter.  In accumulate mode
the previous F re-enters the stack in place of H and L, so a running sum
of products never leaves redundant form.  The grid's LSB weighs
2**lsb_exp: additive operands must share that lsb_exp, and the product's
operands must have lsb_exps summing to it.

Unsigned-direct mode sums exactly.  Two's-complement mode reuses the
signed partial-product matrix and sign-extends one-row additive operands
across the grid; the signed product and every complement row overshoot
their true value by one grid unit 2**(2n-1), which is tallied in
bias_units so the signed total stays exactly recoverable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .codes import MultiRowCode, check_int, check_operand, made_code, scale_fraction, scaled_value
from .compressor import oca_cost_structural, tree_depth
from .multiplier import _pp_rows, signed_bias
from .reducer import next_row_count, reduce_rows, stage_plan

ADDITIVE_OPERANDS = ("c", "d", "e", "g", "h", "l")
_LABELS = {name: f"operand {name}" for name in ADDITIVE_OPERANDS}  # error-message names
REFERENCE_WIDTH = 24
REFERENCE_LEVELS = (6, 4, 3)  # shipped stage levels for the 24-bit unit
REFERENCE_GATES = 12500  # shipped "approximately" figure, informational


class _MapConfig(NamedTuple):
    width: int
    mode: str = "one-shot"
    signedness: str = "unsigned-direct"
    lsb_exp: int = 0


class MapConfig(_MapConfig):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        cfg = super().__new__(cls, *args, **kwargs)
        check_int("width", cfg.width, 2, 121)
        check_int("lsb_exp", cfg.lsb_exp)
        if cfg.mode not in ("one-shot", "accumulate"):
            raise ValueError("mode must be 'one-shot' or 'accumulate'")
        if cfg.signedness not in ("unsigned-direct", "twos-complement"):
            raise ValueError(
                "signedness must be 'unsigned-direct' or 'twos-complement'"
            )
        return cfg

    @classmethod
    def _make(cls, fields):  # so that _replace checks too
        return cls(*fields)

    @property
    def grid_width(self) -> int:
        return 2 * self.width - 1


class MapState(NamedTuple):
    config: MapConfig
    f: MultiRowCode  # 2-row, grid_width columns
    overflow_count: int
    bias_units: int = 0  # complement-row overshoot, twos-complement mode only


def map_new(config: MapConfig) -> MapState:
    f = MultiRowCode.zero(2, config.grid_width, 2, config.lsb_exp)
    return MapState(config=config, f=f, overflow_count=0)


def _gather(cfg: MapConfig, operands: dict, feedback: MultiRowCode | None):
    """Collect the packed rows that make up the matrix, in row order, plus
    the bias units introduced by complement encodings."""
    gw = cfg.grid_width
    tc = cfg.signedness == "twos-complement"
    # a two's-complement addend is one row with a sign digit to extend
    add_rows, add_min = ((1,), 1) if tc else ((1, 2), 0)
    rows = []
    bias = 0

    a = operands.get("a")
    b = operands.get("b")
    if (a is None) != (b is None):
        raise ValueError("product needs both a and b (or neither)")
    if a is not None:
        # the product's digits carry weight 2**(a.lsb_exp + b.lsb_exp)
        if a.lsb_exp + b.lsb_exp != cfg.lsb_exp:
            raise ValueError("a.lsb_exp + b.lsb_exp must equal the grid lsb_exp")
        # one row each; signed products take operands of the full width,
        # unsigned 1 up to it, so the multiplier's own checks are met
        low = cfg.width if tc else 1
        check_operand(a, "operand a", (1,), min_width=low, max_width=cfg.width)
        check_operand(b, "operand b", (1,), min_width=low, max_width=cfg.width)
        if tc and signed_bias(a.width) != 1 << gw:
            raise RuntimeError(f"signed product bias {signed_bias(a.width)} != 2**{gw}")
        rows += _pp_rows(a, b, tc)
        bias += tc  # the signed matrix is one grid unit over

    for name in ADDITIVE_OPERANDS:
        code = operands.get(name)
        if code is None:
            continue
        check_operand(code, _LABELS[name], add_rows, cfg.lsb_exp, add_min, cfg.width)
        if tc:
            row = code.packed[0]
            sign = row >> (code.width - 1)
            # the two's-complement value modulo 2**gw: the row sign-extended
            rows.append((row - (sign << code.width)) % (1 << gw))
            bias += sign
        else:
            rows += code.packed

    if feedback is not None:
        rows += feedback.packed

    return rows, bias


def _reduce_to_state(cfg: MapConfig, rows, overflow: int, bias_units: int) -> MapState:
    gw = cfg.grid_width
    # every row fits the gw-wide grid, so the reduced F is at least that
    # wide; digits past the grid go to the overflow counter
    rows, _ = reduce_rows(rows, gw)
    overflow += sum(row >> gw for row in rows)
    f = made_code([row & ((1 << gw) - 1) for row in rows], gw, 2, cfg.lsb_exp)
    return MapState(config=cfg, f=f, overflow_count=overflow, bias_units=bias_units)


def map_eval(cfg: MapConfig, /, **operands) -> MapState:
    """One-shot evaluation of A*B + C + D + E + G + H + L."""
    unknown = set(operands) - {"a", "b", *ADDITIVE_OPERANDS}
    if unknown:
        raise ValueError(f"unknown operands: {sorted(unknown)}")
    rows, bias = _gather(cfg, operands, feedback=None)
    if not rows:
        return map_new(cfg)
    return _reduce_to_state(cfg, rows, 0, bias)


def map_accumulate(cfg: MapConfig, steps) -> MapState:
    """Fold a stream of operand dicts; the running F replaces H and L."""
    if cfg.mode != "accumulate":
        raise ValueError("config mode must be 'accumulate'")
    state = map_new(cfg)
    names = ("a", "b", *ADDITIVE_OPERANDS[:-2])  # all but H and L
    for operands in steps:
        unknown = set(operands) - set(names)
        if unknown:
            raise ValueError(f"accumulate steps take {'/'.join(names)} only, got {sorted(unknown)}")
        rows, bias = _gather(cfg, operands, feedback=state.f)
        state = _reduce_to_state(cfg, rows, state.overflow_count, state.bias_units + bias)
    return state


def map_total(state: MapState) -> Fraction:
    """Exact total: overflow counter at grid weight plus the 2-row value."""
    gw = state.config.grid_width
    scaled = (state.overflow_count << gw) + scaled_value(state.f)
    return scale_fraction(scaled, 2, state.config.lsb_exp)


def map_signed_total(state: MapState) -> Fraction:
    """Total with complement-row bias removed (twos-complement mode)."""
    gw = state.config.grid_width
    bias = scale_fraction(state.bias_units << gw, 2, state.config.lsb_exp)
    return map_total(state) - bias


class MapTiming(NamedTuple):
    t_and: int
    t_q: int
    t_s: int
    t_p: int
    total: int
    source: str  # "reference" or "derived"
    stack_rows: int
    derived_levels: tuple
    derived_total: int
    note: str | None


def _datapath_rows(cfg: MapConfig) -> list:
    """The stack `_gather` builds at lsb_exp 0 from every operand, each row the OR of its
    all-zero and all-ones forms: a digit in every column some operand values set."""
    n = cfg.width
    cfg = MapConfig(n, signedness=cfg.signedness)
    names = ("a", "b", *ADDITIVE_OPERANDS)
    low, high = (_gather(cfg, dict.fromkeys(names, made_code([v], n)), feedback=None)[0]
                 for v in (0, (1 << n) - 1))
    return [x | y for x, y in zip(low, high)]


def map_timing(cfg: MapConfig) -> MapTiming:
    """Per-stage delay breakdown for one evaluation.

    The derived numbers charge one AND level (t_and = 1) for the partial
    products, then each reduction stage of the stack the datapath runs
    (n product rows, n + 2 if signed, plus one row per additive operand)
    its merge-tree depth.  The 24-bit configuration reports the shipped
    reference levels (6, 4, 3) instead, which exceed the derivable ones;
    the derived breakdown is attached and the difference noted.
    """
    stack = len(_datapath_rows(cfg))
    heads = stage_plan(stack, 2).row_counts[:-1]
    derived = tuple(tree_depth(m) for m in heads)
    derived_total = 1 + sum(derived)
    if cfg.width == REFERENCE_WIDTH:
        levels = REFERENCE_LEVELS
        note = (
            f"reference stage levels {levels} exceed the derived "
            f"{derived} for the {stack}-row stack"
        )
        source = "reference"
    else:
        levels = derived
        note = None
        source = "derived"
    t_q, t_s, t_p = levels[:3]  # a stack of 8 or more rows runs 3 or more stages
    return MapTiming(
        t_and=1,
        t_q=t_q,
        t_s=t_s,
        t_p=t_p,
        total=1 + sum(levels),
        source=source,
        stack_rows=stack,
        derived_levels=derived,
        derived_total=derived_total,
        note=note,
    )


def map_gate_estimate(cfg: MapConfig) -> dict:
    """Structural AND-gate estimate for one evaluation datapath.

    Counts the n*n partial-product AND array plus, in each stage that
    `stage_plan` gives the stack `_gather` builds in the config's
    signedness, an exact-cell counting adder per column of 2+ digits.
    Informational: reported alongside the shipped rough figure, never
    asserted against it.
    """
    n = cfg.width
    rows = _datapath_rows(cfg)
    heights = {c: h for c in range(max(rows).bit_length()) if (h := sum(row >> c & 1 for row in rows))}
    counter_gates = 0
    stages = stage_plan(len(rows), 2).stages
    for _ in range(stages):
        nxt = {}
        for c, h in sorted(heights.items()):
            if h >= 2:
                counter_gates += oca_cost_structural(h, cells="exact")
            for k in range(next_row_count(h, 2)):  # digits holding a count of h
                nxt[c + k] = nxt.get(c + k, 0) + 1
        heights = nxt
    return {
        "width": n,
        "pp_and_gates": n * n,
        "counter_gates": counter_gates,
        "stages": stages,
        "total": n * n + counter_gates,
        "reference_total": REFERENCE_GATES if n == REFERENCE_WIDTH else None,
    }
