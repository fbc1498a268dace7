"""Bit-exact arithmetic on multi-row redundant digit codes.

A value is held as an m x n matrix of digits where column j carries
weight radix**(j + lsb_exp) in every row; the value is the sum over all
entries.  Keeping several rows makes addition carry-free: operands are
stacked and the row count is reduced by counting ones per column and
re-spreading the totals diagonally.  On top of that primitive sit a
parallel multiplier, a fused multiply-accumulate, a serial accumulator
with an overflow counter, a high-radix divider driven by a table of
divisor multiples, and a matrix unit combining a product with six
addends in one reduction.  The hot kernels are plain numpy, in
`_kernels`.
"""

from .accumulator import AccumulatorState, acc_new, acc_run, acc_step, acc_step2, acc_total
from .codes import (
    CodeFormatError,
    GranularityError,
    MultiRowCode,
    NumericDomainError,
    QuadSignedCode,
    WidthOverflowError,
    from_json,
    from_text,
    make_from_value,
    quad_from_value,
    quad_negate,
    quad_value,
    scaled_value,
    to_json,
    to_text,
    value_of,
    with_lsb_exp,
)
from .compressor import (
    DelayModel,
    OcaSpec,
    UntabulatedCostError,
    delay_levels,
    oca_cost_lookup,
    oca_cost_structural,
    oca_delay,
    plan_tree,
    popcount_tree,
    tree_depth,
)
from .divider import ScaleTable, build_scale, divide, quotient_value, select_digit
from .evalexpr import EvalError, evaluate
from .map_unit import (
    MapConfig,
    MapState,
    map_accumulate,
    map_eval,
    map_gate_estimate,
    map_signed_total,
    map_timing,
    map_total,
)
from .multiplier import (
    fused_mac,
    mac_injection_stage,
    mul_delay,
    multiply,
    pp_matrix_signed,
    pp_matrix_unsigned,
    signed_operand_value,
    signed_product_value,
)
from .reducer import (
    StagePlan,
    add_two_row,
    next_row_count,
    quad_add,
    quad_sub,
    reduce_delay,
    reduce_once,
    reduce_to_two,
    stage_plan,
    trapezoid_geometry,
)
from .report import fuzz_verify, report_tables

__version__ = "0.1.0"

__all__ = [
    "AccumulatorState",
    "CodeFormatError",
    "DelayModel",
    "EvalError",
    "GranularityError",
    "MapConfig",
    "MapState",
    "MultiRowCode",
    "NumericDomainError",
    "OcaSpec",
    "QuadSignedCode",
    "ScaleTable",
    "StagePlan",
    "UntabulatedCostError",
    "WidthOverflowError",
    "acc_new",
    "acc_run",
    "acc_step",
    "acc_step2",
    "acc_total",
    "add_two_row",
    "build_scale",
    "delay_levels",
    "divide",
    "evaluate",
    "from_json",
    "from_text",
    "fused_mac",
    "fuzz_verify",
    "mac_injection_stage",
    "make_from_value",
    "map_accumulate",
    "map_eval",
    "map_gate_estimate",
    "map_signed_total",
    "map_timing",
    "map_total",
    "mul_delay",
    "multiply",
    "next_row_count",
    "oca_cost_lookup",
    "oca_cost_structural",
    "oca_delay",
    "plan_tree",
    "popcount_tree",
    "pp_matrix_signed",
    "pp_matrix_unsigned",
    "quad_add",
    "quad_from_value",
    "quad_negate",
    "quad_sub",
    "quad_value",
    "quotient_value",
    "reduce_delay",
    "reduce_once",
    "reduce_to_two",
    "report_tables",
    "scaled_value",
    "select_digit",
    "signed_operand_value",
    "signed_product_value",
    "stage_plan",
    "to_json",
    "to_text",
    "trapezoid_geometry",
    "tree_depth",
    "value_of",
    "with_lsb_exp",
]
