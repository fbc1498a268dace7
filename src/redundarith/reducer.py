"""Reduction of multi-row codes down to two rows, and its delay model.

One reduction stage sums every column and rewrites each column sum in
radix q across m2 = ceil(log_q(1 + m*(q-1))) digits, placing digit h of
column j at row h, column j+h.  That diagonal placement keeps the layout
deterministic and produces the classic trapezoid occupancy pattern.
Stages repeat until two rows remain; two-row codes add without carry
propagation by simply stacking and reducing again.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from . import _kernels
from ._kernels import SHAPE_CACHE_SIZE, next_row_count
from .codes import MultiRowCode, QuadSignedCode, check_int, made_code, made_quad, quad_negate, shown, stack_codes
from .compressor import FINAL_3TO2_LEVELS, T_CC_REDUCE_TOTAL, oca_delay, tree_depth


class _StagePlan(NamedTuple):
    row_counts: tuple
    radix: int


class StagePlan(_StagePlan):
    """Row counts of every stage of a full reduction, ending at 2."""

    __slots__ = ()

    def __new__(cls, row_counts, radix: int):
        # a tuple of its own, so the caller's list cannot change a checked plan
        counts = tuple(row_counts)
        check_int("radix", radix)
        for m in counts:
            check_int("row count", m)
        if not counts or counts[-1] != 2:
            raise ValueError("plan must end at 2 rows")
        for a, b in zip(counts, counts[1:]):
            if next_row_count(a, radix) != b:
                raise ValueError(f"inconsistent plan step {shown(a)} -> {shown(b)}")
        return super().__new__(cls, counts, radix)

    @classmethod
    def _make(cls, fields):  # so that _replace checks too
        return cls(*fields)

    @property
    def stages(self) -> int:
        return len(self.row_counts) - 1


@lru_cache(maxsize=SHAPE_CACHE_SIZE, typed=True)
def stage_plan(m: int, q: int = 2) -> StagePlan:
    """Row counts of a full reduction of m rows; cached per shape, which is
    safe because a StagePlan is a tuple of ints, and per type: 5.0 must
    not get 5's."""
    check_int("m", m, 2)
    counts = [m]
    while counts[-1] > 2:
        counts.append(next_row_count(counts[-1], q))
    return StagePlan(row_counts=tuple(counts), radix=q)


def reduce_once(code: MultiRowCode) -> MultiRowCode:
    """One reduction stage.  Requires at least 3 rows."""
    if code.rows < 3:
        raise ValueError("reduce_once requires >= 3 rows")
    if code.radix == 2:
        rows, width, _ = _kernels.reduce_packed(code.packed, code.width, 1)
        return made_code(rows, width, 2, code.lsb_exp)
    out = _kernels.reduce_once_digits(code.digits, code.radix)
    return made_code(out, out.shape[1], code.radix, code.lsb_exp)


def reduce_rows(rows, width: int, radix: int = 2) -> tuple:
    """Reduce a code's stored rows (see made_code) to two, the engines' one entry: (rows, width).
    One row gets a zero row; more than two run stages, whose count is checked against stage_plan."""
    if len(rows) == 1:
        return ((*rows, 0) if radix == 2 else rows.repeat(2, axis=0) * [[1], [0]]), width
    if len(rows) == 2:
        return rows, width
    if radix == 2:
        out, width, stages = _kernels.reduce_packed(rows, width)
    else:
        out, stages = _kernels.reduce_to_two_digits(rows, radix)
        width = out.shape[1]
    planned = stage_plan(len(rows), radix).stages
    if stages != planned:
        raise RuntimeError(f"reduction ran {stages} stages, stage_plan gives {planned}")
    return out, width


def reduce_to_two(code: MultiRowCode) -> MultiRowCode:
    """Reduce to exactly two rows (padding a one-row input)."""
    rows = code.packed if code.radix == 2 else code.digits
    return made_code(*reduce_rows(rows, code.width, code.radix), code.radix, code.lsb_exp)


def add_two_row(a: MultiRowCode, b: MultiRowCode) -> MultiRowCode:
    """Carry-free addition of two 2-row codes via stack-and-reduce.

    The reduction adds columns past the wider operand's w (two stages of
    one column each at radix 2, one stage above); zero top columns are
    trimmed down to w, so the width stays within w + 2 (the sum is below
    q**(w+2)).  At radix 2 the four packed rows are reduced as they are.
    """
    if a.rows != 2 or b.rows != 2:
        raise ValueError("operands must be 2-row codes")
    if a.radix != b.radix:
        raise ValueError("radix mismatch")
    if a.lsb_exp != b.lsb_exp:
        raise ValueError("lsb_exp mismatch; align operands explicitly first")
    width = max(a.width, b.width)
    if a.radix == 2:
        rows, _ = reduce_rows(a.packed + b.packed, width)
        return made_code(rows, max(width, *(row.bit_length() for row in rows)), 2, a.lsb_exp)
    out = reduce_to_two(stack_codes((a, b)))  # one stage: width + 1 columns
    if out.digits[:, width:].any():
        return out
    return made_code(out.digits[:, :width].copy(), width, out.radix, out.lsb_exp)


def quad_add(x: QuadSignedCode, y: QuadSignedCode) -> QuadSignedCode:
    return made_quad(add_two_row(x.pos, y.pos), add_two_row(x.neg, y.neg))


def quad_sub(x: QuadSignedCode, y: QuadSignedCode) -> QuadSignedCode:
    return quad_add(x, quad_negate(y))


class TrapezoidGeometry(NamedTuple):
    """Occupancy pattern of one reduction stage's output matrix.

    Row h of the output holds digit h of every column sum, shifted h
    columns left-to-right, so all rows have the input width and the
    column heights ramp 1, 2, ... up to full height on each flank.
    n_min counts the full-height columns.
    """

    n1: int
    m2: int
    n_max: int
    n_min: int
    row_lengths: tuple
    row_offsets: tuple
    column_heights: tuple
    degenerate: bool


def trapezoid_geometry(n1: int, m2: int) -> TrapezoidGeometry:
    check_int("n1", n1, 1)
    check_int("m2", m2, 1)
    n_max = n1 + m2 - 1
    heights = tuple(
        min(m2 - 1, c) - max(0, c - n1 + 1) + 1 for c in range(n_max)
    )
    full = max(heights)
    return TrapezoidGeometry(
        n1=n1,
        m2=m2,
        n_max=n_max,
        n_min=sum(1 for h in heights if h == full),
        row_lengths=(n1,) * m2,
        row_offsets=tuple(range(m2)),
        column_heights=heights,
        degenerate=n1 < m2,
    )


def reduce_delay(plan: StagePlan, accounting: str = "aggregate") -> int:
    """Total reduction delay for a stage plan, in t_and units.

    "aggregate" charges ceil(log2 m) per stage (the terminal 3->2 stage
    one adder level) plus a single lumped encoder term.  "per-stage"
    charges every stage its banded counting-adder delay including one
    encoder crossing each; the two accountings differ by design.
    """
    if accounting not in ("aggregate", "per-stage"):
        raise ValueError("accounting must be 'aggregate' or 'per-stage'")
    heads = plan.row_counts[:-1]
    if accounting == "per-stage":
        return sum(oca_delay(m) for m in heads)
    levels = (tree_depth(m) if m > 3 else FINAL_3TO2_LEVELS for m in heads)
    return T_CC_REDUCE_TOTAL + sum(levels) if heads else 0
