"""One-column counting adders (bit-count tables) and their cost/delay models.

A column of m bits is summed by a binary tree of table lookups: a type-t
table merges two partial counts bounded by 2**(t-1) into one bounded by
2**t.  Inputs that are not a power of two are split into the largest
power-of-two half plus the rest, recursively, the shallower side acting
as if padded with zero inputs.

Delay bands and gate counts ship as golden data files; the structural
cost model recomputes gate counts from the generated tree so the two can
be cross-reported.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from . import _kernels


class UntabulatedCostError(LookupError):
    """Requested a gate-count value outside the golden table."""


@dataclass(frozen=True)
class DelayModel:
    """Unit delays, all in multiples of a two-input AND gate delay.

    t_cc_per_stage is the encoder crossing charged by the banded
    per-stage accounting; t_cc_reduce_total is the aggregate encoder
    term used by the whole-reduction accounting (see reducer).
    """

    t_and: int = 1
    t_cc_per_stage: int = 1
    final_3to2_levels: int = 1
    t_cc_reduce_total: int = 3

    def __post_init__(self):
        for name in ("t_and", "t_cc_per_stage", "final_3to2_levels", "t_cc_reduce_total"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class OcaSpec:
    """Structure of one counting-adder tree: tables per type.

    table_counts[t-1] is the number of type-t tables; table_dims[t-1]
    is the square side length 2**(t-1) + 1 of that type.
    """

    inputs: int
    levels: int
    table_counts: tuple
    table_dims: tuple


def load_golden(name: str) -> dict:
    with resources.files("redundarith.golden").joinpath(name).open() as fh:
        return json.load(fh)


@lru_cache(maxsize=None)
def _golden_delay_bands() -> tuple:
    data = load_golden("table_3_1.json")
    return tuple((b["lo"], b["hi"], b["levels"]) for b in data["bands"])


@lru_cache(maxsize=None)
def _golden_costs() -> dict:
    data = load_golden("table_3_2.json")
    table = dict(zip(data["m"], data["sigma_and"]))
    for entry in data["extra"]:
        table[entry["m"]] = entry["sigma_and"]
    return table


def tree_depth(m: int) -> int:
    """Depth of the merge tree over m inputs: ceil(log2 m)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return (m - 1).bit_length()


@lru_cache(maxsize=None)
def _merge_nodes(m: int) -> tuple:
    """Merge nodes of the binary-split tree as (level, bound_l, bound_r).

    A subtree over k leaf bits yields a partial count bounded by k; the
    merge of two subtrees sits one level above the deeper child.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return ()

    def build(k: int) -> tuple[int, tuple]:
        if k == 1:
            return 0, ()
        half = 1 << ((k - 1).bit_length() - 1)  # largest power of two below k
        d1, n1 = build(half)
        d2, n2 = build(k - half)
        depth = max(d1, d2) + 1
        return depth, n1 + n2 + ((depth, half, k - half),)

    _, nodes = build(m)
    return nodes


def plan_tree(m: int) -> OcaSpec:
    """Table counts per type for the counting adder over m inputs."""
    if not 2 <= m <= 128:
        raise ValueError("plan_tree requires 2 <= m <= 128")
    levels = tree_depth(m)
    counts = [0] * levels
    for level, _, _ in _merge_nodes(m):
        counts[level - 1] += 1
    dims = tuple(2 ** (t - 1) + 1 for t in range(1, levels + 1))
    return OcaSpec(inputs=m, levels=levels, table_counts=tuple(counts), table_dims=dims)


def popcount_tree(bits) -> int:
    """Count set bits via the pairwise merge tree.

    Intermediate partial counts are checked against the table bound
    2**t at every level t; violating that bound would mean a table
    overflow in hardware.
    """
    arr = np.asarray(bits, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError("bits must be one-dimensional")
    m = arr.shape[0]
    if not 1 <= m <= 2**30:
        raise ValueError("need 1 <= m <= 2**30 input bits")
    if arr.min(initial=0) < 0 or arr.max(initial=0) > 1:
        raise ValueError("inputs must be bits")
    return int(_kernels.popcount_batch(arr[None, :])[0])


def delay_levels(m: int) -> int:
    """Golden banded level count for an m-input counting adder."""
    for lo, hi, levels in _golden_delay_bands():
        if lo <= m <= hi:
            return levels
    raise ValueError(f"no delay band covers m={m}")


def oca_delay(m: int, model: DelayModel | None = None) -> int:
    """Delay of one counting adder: banded levels * t_and + one encoder."""
    if not 3 <= m <= 128:
        raise ValueError("oca_delay requires 3 <= m <= 128")
    model = model or DelayModel()
    return delay_levels(m) * model.t_and + model.t_cc_per_stage


def oca_cost_lookup(m: int) -> int:
    """Golden total AND-gate count for an m-input counting adder."""
    try:
        return _golden_costs()[m]
    except KeyError:
        raise UntabulatedCostError(f"no tabulated gate count for m={m}") from None


def oca_cost_structural(m: int, cells: str = "square") -> int:
    """Gate count recomputed from the generated tree.

    cells="square" charges every type-t table its full square size
    (2**(t-1) + 1)**2.  cells="exact" sizes each table by the actual
    bounds of its two partial counts, (bound_l + 1) * (bound_r + 1),
    which reproduces the golden sigma_and column except at its known
    m=30 anomaly.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if cells == "square":
        return sum((2 ** (level - 1) + 1) ** 2 for level, _, _ in _merge_nodes(m))
    if cells == "exact":
        return sum((bl + 1) * (br + 1) for _, bl, br in _merge_nodes(m))
    raise ValueError("cells must be 'square' or 'exact'")
