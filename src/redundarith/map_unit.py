"""Matrix arithmetic processor: one fused product-and-sums matrix pass.

One evaluation stacks the partial products of A*B with the rows of up to
six additive operands (C, D, E, G, H, L), reduces everything to a 2-row
result F on a fixed grid of 2n-1 columns, and charges any digits that
land beyond the grid to a serial overflow counter.  In accumulate mode
the previous F re-enters the stack in place of H and L, so a running sum
of products never leaves redundant form.

Unsigned-direct mode sums exactly.  Two's-complement mode reuses the
signed partial-product matrix and sign-extends one-row additive operands
across the grid; every complement row overshoots its true value by one
grid unit 2**(2n-1), which is tallied in bias_units so the signed total
stays exactly recoverable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .codes import MultiRowCode, scale_fraction, scaled_value
from .compressor import DelayModel, oca_cost_structural, tree_depth
from .multiplier import pp_matrix_signed, pp_matrix_unsigned
from .reducer import reduce_to_two, stage_plan

ADDITIVE_OPERANDS = ("c", "d", "e", "g", "h", "l")
REFERENCE_WIDTH = 24
REFERENCE_LEVELS = (6, 4, 3)  # shipped stage levels for the 24-bit unit
REFERENCE_GATES = 12500  # shipped "approximately" figure, informational


@dataclass(frozen=True)
class MapConfig:
    width: int
    mode: str = "one-shot"
    signedness: str = "unsigned-direct"
    lsb_exp: int = 0

    def __post_init__(self):
        if not 2 <= self.width <= 121:
            raise ValueError("width must be in 2..121")
        if self.mode not in ("one-shot", "accumulate"):
            raise ValueError("mode must be 'one-shot' or 'accumulate'")
        if self.signedness not in ("unsigned-direct", "twos-complement"):
            raise ValueError(
                "signedness must be 'unsigned-direct' or 'twos-complement'"
            )

    @property
    def grid_width(self) -> int:
        return 2 * self.width - 1


@dataclass(frozen=True)
class MapState:
    config: MapConfig
    f: MultiRowCode  # 2-row, grid_width columns
    overflow_count: int
    bias_units: int = 0  # complement-row overshoot, twos-complement mode only
    steps: int = 0


def map_new(config: MapConfig) -> MapState:
    f = MultiRowCode.zero(2, config.grid_width, 2, config.lsb_exp)
    return MapState(config=config, f=f, overflow_count=0)


def _check_additive(cfg: MapConfig, name: str, code: MultiRowCode) -> None:
    if code.radix != 2:
        raise ValueError(f"operand {name} must be binary")
    if code.lsb_exp != cfg.lsb_exp:
        raise ValueError(f"operand {name} lsb_exp must match the grid")
    if code.rows not in (1, 2):
        raise ValueError(f"operand {name} must have 1 or 2 rows")
    if code.width > cfg.width:
        raise ValueError(f"operand {name} wider than {cfg.width}")


def _gather(cfg: MapConfig, operands: dict, feedback: MultiRowCode | None):
    """Collect all matrix rows (as arrays on the grid) plus the bias units
    introduced by complement encodings."""
    gw = cfg.grid_width
    rows = []
    bias = 0

    a = operands.get("a")
    b = operands.get("b")
    if (a is None) != (b is None):
        raise ValueError("product needs both a and b (or neither)")
    if a is not None:
        if cfg.signedness == "twos-complement":
            if a.width != cfg.width or b.width != cfg.width:
                raise ValueError("signed product operands must have the full width")
            ppm = pp_matrix_signed(a, b)
            if ppm.bias_scaled != 1 << gw:
                raise RuntimeError(f"signed product bias {ppm.bias_scaled} != 2**{gw}")
            bias += 1
        else:
            _check_additive(cfg, "a", a)
            _check_additive(cfg, "b", b)
            if a.rows != 1 or b.rows != 1:
                raise ValueError("product operands must be one-row codes")
            ppm = pp_matrix_unsigned(a, b)
        for i in range(ppm.matrix.rows):
            rows.append(ppm.matrix.digits[i])

    for name in ADDITIVE_OPERANDS:
        code = operands.get(name)
        if code is None:
            continue
        _check_additive(cfg, name, code)
        if cfg.signedness == "twos-complement":
            if code.rows != 1:
                raise ValueError(
                    f"operand {name}: two-row operands are not sign-extendable"
                )
            sign = int(code.digits[0, code.width - 1])
            ext = np.zeros(gw, dtype=np.int64)
            ext[: code.width - 1] = code.digits[0, : code.width - 1]
            ext[code.width - 1 :] = sign
            rows.append(ext)
            bias += sign
        else:
            for i in range(code.rows):
                rows.append(code.digits[i])

    if feedback is not None:
        if feedback.width > gw:
            raise ValueError("feedback wider than the grid")
        for i in range(feedback.rows):
            rows.append(feedback.digits[i])

    return rows, bias


def _reduce_to_state(cfg: MapConfig, state: MapState, rows, bias: int) -> MapState:
    gw = cfg.grid_width
    if not rows:
        return replace(state, steps=state.steps + 1)
    width = max(gw, max(r.shape[0] for r in rows))
    stacked = np.zeros((len(rows), width), dtype=np.int64)
    for i, r in enumerate(rows):
        stacked[i, : r.shape[0]] = r
    code = MultiRowCode(stacked.shape[0], width, 2, cfg.lsb_exp, stacked)
    reduced = reduce_to_two(code)
    digits = reduced.digits
    overflow = state.overflow_count
    if digits.shape[1] > gw:
        spill = digits[:, gw:]
        for j in range(spill.shape[1]):
            overflow += int(spill[:, j].sum()) << j
        digits = digits[:, :gw]
    f_digits = np.zeros((2, gw), dtype=np.int64)
    f_digits[:, : digits.shape[1]] = digits
    f = MultiRowCode(2, gw, 2, cfg.lsb_exp, f_digits)
    return MapState(
        config=cfg,
        f=f,
        overflow_count=overflow,
        bias_units=state.bias_units + bias,
        steps=state.steps + 1,
    )


def map_eval(cfg: MapConfig, **operands) -> MapState:
    """One-shot evaluation of A*B + C + D + E + G + H + L."""
    unknown = set(operands) - {"a", "b", *ADDITIVE_OPERANDS}
    if unknown:
        raise ValueError(f"unknown operands: {sorted(unknown)}")
    rows, bias = _gather(cfg, operands, feedback=None)
    return _reduce_to_state(cfg, map_new(cfg), rows, bias)


def map_accumulate(cfg: MapConfig, steps, state: MapState | None = None) -> MapState:
    """Fold a stream of operand dicts; the running F replaces H and L."""
    if cfg.mode != "accumulate":
        raise ValueError("config mode must be 'accumulate'")
    if state is None:
        state = map_new(cfg)
    for operands in steps:
        unknown = set(operands) - {"a", "b", "c", "d", "e", "g"}
        if unknown:
            raise ValueError(
                f"accumulate steps take a/b/c/d/e/g only, got {sorted(unknown)}"
            )
        rows, bias = _gather(cfg, operands, feedback=state.f)
        state = _reduce_to_state(cfg, state, rows, bias)
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


@dataclass(frozen=True)
class MapTiming:
    t_and: int
    t_q: int
    t_s: int | None
    t_p: int | None
    total: int
    source: str  # "reference" or "derived"
    stack_rows: int
    derived_levels: tuple
    derived_total: int
    note: str | None


def map_timing(
    cfg: MapConfig, model: DelayModel | None = None, operand_rows: int = 6
) -> MapTiming:
    """Per-stage delay breakdown for one evaluation.

    The derived numbers charge each reduction stage of the stacked
    matrix (width-n product rows plus `operand_rows` additive rows) its
    merge-tree depth.  The 24-bit configuration reports the shipped
    reference levels (6, 4, 3) instead, which exceed the derivable ones;
    the derived breakdown is attached and the difference noted.
    """
    model = model or DelayModel()
    stack = cfg.width + operand_rows
    heads = stage_plan(max(stack, 2), 2).row_counts[:-1]
    derived = tuple(tree_depth(m) * model.t_and for m in heads)
    derived_total = model.t_and + sum(derived)
    if cfg.width == REFERENCE_WIDTH and operand_rows == 6:
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
    t_q = levels[0] if len(levels) > 0 else 0
    t_s = levels[1] if len(levels) > 1 else None
    t_p = levels[2] if len(levels) > 2 else None
    total = model.t_and + sum(levels)
    return MapTiming(
        t_and=model.t_and,
        t_q=t_q,
        t_s=t_s,
        t_p=t_p,
        total=total,
        source=source,
        stack_rows=stack,
        derived_levels=derived,
        derived_total=derived_total,
        note=note,
    )


def map_gate_estimate(cfg: MapConfig, operand_rows: int = 6) -> dict:
    """Structural AND-gate estimate for one evaluation datapath.

    Counts the n*n partial-product AND array plus, per reduction stage,
    an exact-cell counting adder for every column holding two or more
    digits.  Informational: reported alongside the shipped rough
    figure, never asserted against it.
    """
    n = cfg.width
    heights = {}
    for j in range(n):  # product rows, diagonal occupancy
        for c in range(j, j + n):
            heights[c] = heights.get(c, 0) + 1
    for _ in range(operand_rows):
        for c in range(n):
            heights[c] = heights.get(c, 0) + 1
    counter_gates = 0
    stages = 0
    while max(heights.values()) > 2:
        stages += 1
        nxt = {}
        for c, h in sorted(heights.items()):
            if h >= 2:
                counter_gates += oca_cost_structural(h, cells="exact")
            bits = tree_depth(h + 1)  # digits needed to hold a count of h
            for k in range(max(bits, 1)):
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
