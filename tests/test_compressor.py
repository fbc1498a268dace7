"""Counting-adder trees: depth, golden delay bands, table plans, costs."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import redundarith
from redundarith import _kernels
from redundarith.compressor import (
    UntabulatedCostError,
    delay_levels,
    load_golden,
    oca_cost_lookup,
    oca_cost_structural,
    oca_delay,
    plan_tree,
    popcount_tree,
    tree_depth,
)


def test_tree_depth_is_ceil_log2():
    assert tree_depth(1) == 0
    assert tree_depth(2) == 1
    assert tree_depth(3) == 2
    assert tree_depth(4) == 2
    assert tree_depth(5) == 3
    assert tree_depth(128) == 7
    for m in range(2, 4097):
        d = tree_depth(m)
        assert 2 ** (d - 1) < m <= 2**d
    with pytest.raises(ValueError):
        tree_depth(0)


def test_popcount_tree_counts_ones(rng):
    for _ in range(100):
        bits = rng.integers(0, 2, size=int(rng.integers(2, 129)), dtype=np.int64)
        assert popcount_tree(bits) == int(bits.sum())
    for m in (1, 2, 3, 63, 64, 65):  # around the power-of-two padding
        batch = np.vstack([rng.integers(0, 2, size=(8, m)), np.ones((1, m), np.int64)])
        assert np.array_equal(_kernels.popcount_batch(batch), batch.sum(axis=1))


def test_popcount_tree_rejects_non_bits():
    with pytest.raises(ValueError):
        popcount_tree(np.array([0, 2], dtype=np.int64))


def test_delay_levels_golden_bands():
    bands = {
        (3, 4): 2, (5, 7): 3, (8, 16): 4,
        (17, 32): 5, (33, 64): 6, (65, 128): 7,
    }
    for (lo, hi), levels in bands.items():
        for m in range(lo, hi + 1):
            assert delay_levels(m) == levels


def test_oca_delay_adds_carry_conversion():
    assert oca_delay(3) == 3  # 2 levels + 1 conversion
    assert oca_delay(63) == 7


def test_plan_tree_matches_golden_table_counts():
    golden = load_golden("table_3_2.json")
    anomalies = {e["m"] for e in golden["known_anomalies"] if e["field"] == "m_counts"}
    for i, m in enumerate(golden["m"]):
        if m in anomalies:
            continue
        spec = plan_tree(m)
        derived = tuple(spec.table_counts) + (0,) * (5 - spec.levels)
        want = tuple(golden["m_counts"][str(t)][i] for t in range(1, 6))
        assert derived == want, f"m={m}"


def test_plan_tree_structure_is_consistent():
    for m in (2, 3, 17, 64, 128):
        spec = plan_tree(m)
        assert spec.inputs == m
        assert spec.levels == tree_depth(m)
        assert len(spec.table_counts) == spec.levels
        assert spec.table_dims == tuple(2 ** (t - 1) + 1 for t in range(1, spec.levels + 1))
        # one merge node per level-1 pair, and the counts sum to m-1 merges
        assert sum(spec.table_counts) == m - 1


def test_cost_lookup_verbatim_and_bounds():
    assert oca_cost_lookup(3) == 10
    assert oca_cost_lookup(32) == 687
    assert oca_cost_lookup(64) == 2463
    assert oca_cost_lookup(30) == 582
    with pytest.raises(UntabulatedCostError):
        oca_cost_lookup(5)
    with pytest.raises(UntabulatedCostError):
        oca_cost_lookup(128)


def test_structural_exact_cells_match_lookup_except_flagged():
    golden = load_golden("table_3_2.json")
    flagged = {e["m"] for e in golden["known_anomalies"] if e["field"] == "sigma_and"}
    pairs = list(zip(golden["m"], golden["sigma_and"]))
    pairs += [(e["m"], e["sigma_and"]) for e in golden["extra"]]
    for m, sigma in pairs:
        structural = oca_cost_structural(m, cells="exact")
        if m in flagged:
            assert structural != sigma
        else:
            assert structural == sigma, f"m={m}"


def test_structural_square_cells_upper_bounds_exact():
    for m in range(3, 65):
        assert oca_cost_structural(m, cells="square") >= oca_cost_structural(
            m, cells="exact"
        )


def test_popcount_bound_check_survives_optimize():
    # python -O strips asserts; the adder-tree bound must still raise
    src = str(Path(redundarith.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    script = (
        "import numpy as np\n"
        "from redundarith import _kernels\n"
        "print(_kernels.popcount_batch(np.array([[5, 7, 9]])))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 1
    assert "ValueError" in proc.stderr
