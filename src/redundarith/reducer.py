"""Reduction of multi-row codes down to two rows, and its delay model.

One reduction stage sums every column and rewrites each column sum in
radix q across m2 = ceil(log_q(1 + m*(q-1))) digits, placing digit h of
column j at row h, column j+h.  That diagonal placement keeps the layout
deterministic and produces the classic trapezoid occupancy pattern.
Stages repeat until two rows remain; two-row codes add without carry
propagation by simply stacking and reducing again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _kernels
from ._kernels import SHAPE_CACHE_SIZE, next_row_count
from .codes import MultiRowCode, QuadSignedCode, quad_negate
from .compressor import DelayModel, oca_delay, tree_depth


@dataclass(frozen=True)
class StagePlan:
    """Row counts of every stage of a full reduction, ending at 2."""

    row_counts: tuple
    radix: int

    @property
    def stages(self) -> int:
        return len(self.row_counts) - 1

    def __post_init__(self):
        counts = self.row_counts
        if not counts or counts[-1] != 2:
            raise ValueError("plan must end at 2 rows")
        for a, b in zip(counts, counts[1:]):
            if next_row_count(a, self.radix) != b:
                raise ValueError(f"inconsistent plan step {a} -> {b}")


@lru_cache(maxsize=SHAPE_CACHE_SIZE)
def stage_plan(m: int, q: int = 2) -> StagePlan:
    """Row counts of a full reduction of m rows; cached per shape, which is
    safe because StagePlan is frozen."""
    if m < 2:
        raise ValueError("m must be >= 2")
    counts = [m]
    while counts[-1] > 2:
        counts.append(next_row_count(counts[-1], q))
    return StagePlan(row_counts=tuple(counts), radix=q)


def reduce_once(code: MultiRowCode) -> MultiRowCode:
    """One reduction stage.  Requires at least 3 rows."""
    if code.rows < 3:
        raise ValueError("reduce_once requires >= 3 rows")
    out = _kernels.reduce_once_digits(code.digits, code.radix)
    return MultiRowCode(
        out.shape[0], out.shape[1], code.radix, code.lsb_exp, out
    )


def reduce_stages(code: MultiRowCode):
    """Yield the matrix after each stage until two rows remain."""
    cur = _pad_to_two(code)
    while cur.rows > 2:
        cur = reduce_once(cur)
        yield cur


def _pad_to_two(code: MultiRowCode) -> MultiRowCode:
    if code.rows >= 2:
        return code
    digits = np.zeros((2, code.width), dtype=np.int64)
    digits[0] = code.digits[0]
    return MultiRowCode(2, code.width, code.radix, code.lsb_exp, digits)


def reduce_to_two(code: MultiRowCode) -> MultiRowCode:
    """Reduce to exactly two rows (padding a one-row input)."""
    code = _pad_to_two(code)
    if code.rows == 2:
        return code
    out, stages = _kernels.reduce_to_two_digits(code.digits, code.radix)
    planned = stage_plan(code.rows, code.radix).stages
    if stages != planned:
        raise RuntimeError(f"reduction ran {stages} stages, stage_plan gives {planned}")
    return MultiRowCode(2, out.shape[1], code.radix, code.lsb_exp, out)


def _trim_msb_zeros(code: MultiRowCode, min_width: int) -> MultiRowCode:
    nonzero = np.nonzero(code.digits.any(axis=0))[0]
    used = int(nonzero[-1]) + 1 if nonzero.size else 0
    keep = max(used, min_width)
    if keep == code.width:
        return code
    return MultiRowCode(
        code.rows, keep, code.radix, code.lsb_exp, code.digits[:, :keep].copy()
    )


def add_two_row(a: MultiRowCode, b: MultiRowCode) -> MultiRowCode:
    """Carry-free addition of two 2-row codes via stack-and-reduce.

    The structural reduction spreads two extra columns past the wider
    operand; anything beyond that is provably zero (the sum is below
    q**(w+2)) and gets trimmed so the width bound holds.
    """
    if a.rows != 2 or b.rows != 2:
        raise ValueError("operands must be 2-row codes")
    if a.radix != b.radix:
        raise ValueError("radix mismatch")
    if a.lsb_exp != b.lsb_exp:
        raise ValueError("lsb_exp mismatch; align operands explicitly first")
    w = max(a.width, b.width)
    stacked = np.zeros((4, w), dtype=np.int64)
    stacked[0:2, : a.width] = a.digits
    stacked[2:4, : b.width] = b.digits
    out = reduce_to_two(MultiRowCode(4, w, a.radix, a.lsb_exp, stacked))
    return _trim_msb_zeros(out, w)


def quad_add(x: QuadSignedCode, y: QuadSignedCode) -> QuadSignedCode:
    return QuadSignedCode(
        pos=add_two_row(x.pos, y.pos), neg=add_two_row(x.neg, y.neg)
    )


def quad_sub(x: QuadSignedCode, y: QuadSignedCode) -> QuadSignedCode:
    return quad_add(x, quad_negate(y))


@dataclass(frozen=True)
class TrapezoidGeometry:
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
    if n1 < 1 or m2 < 1:
        raise ValueError("n1 and m2 must be >= 1")
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


def reduce_delay(
    plan: StagePlan,
    model: DelayModel | None = None,
    accounting: str = "aggregate",
) -> int:
    """Total reduction delay for a stage plan, in t_and units.

    "aggregate" charges ceil(log2 m) per stage (the terminal 3->2 stage
    one adder level) plus a single lumped encoder term.  "per-stage"
    charges every stage its banded counting-adder delay including one
    encoder crossing each; the two accountings differ by design.
    """
    model = model or DelayModel()
    heads = plan.row_counts[:-1]
    if not heads:
        return 0
    if accounting == "aggregate":
        total = model.t_cc_reduce_total
        for m in heads:
            if m > 3:
                total += tree_depth(m) * model.t_and
            else:
                total += model.final_3to2_levels * model.t_and
        return total
    if accounting == "per-stage":
        return sum(oca_delay(m, model) for m in heads)
    raise ValueError("accounting must be 'aggregate' or 'per-stage'")
