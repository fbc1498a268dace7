"""Counting-adder trees: depth, golden delay bands, table plans, costs."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import redundarith
from redundarith import _kernels, compressor
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
    with pytest.raises(ValueError, match="^m must be >= 1$"):
        tree_depth(0)
    # a row count that is not a plain int is refused, not rounded or looked up
    for call in (lambda: tree_depth(True), lambda: plan_tree(4.0), lambda: oca_cost_structural(4.0),
                 lambda: delay_levels(3.5), lambda: oca_delay(3.5),
                 lambda: oca_cost_lookup(3.0), lambda: oca_cost_lookup(True)):  # 3.0 once gave 10
        with pytest.raises(ValueError, match="must be an int"):
            call()
    # and one inside each model's range
    cases = ((lambda: popcount_tree([]), r"^m must be in 1\.\.128$"),
             (lambda: popcount_tree([1] * 129), r"^m must be in 1\.\.128$"),
             (lambda: plan_tree(1), r"^m must be in 2\.\.128$"),
             (lambda: oca_delay(2), r"^m must be in 3\.\.128$"),
             (lambda: oca_cost_structural(4, cells="bogus"), "^cells must be 'square' or 'exact'$"),
             (lambda: oca_cost_structural(1), r"^m must be in 2\.\.128$"),
             (lambda: delay_levels(200), "^no delay band covers m=200$"))
    for call, message in cases:
        with pytest.raises(ValueError, match=message):
            call()


def test_popcount_tree_counts_ones(rng):
    for _ in range(100):
        bits = rng.integers(0, 2, size=int(rng.integers(2, 129)), dtype=np.int64)
        assert popcount_tree(bits) == int(bits.sum())
    for m in range(1, 129):
        for bits in (np.zeros(m, np.int64), np.ones(m, np.int64), rng.integers(0, 2, size=m)):
            assert popcount_tree(bits) == int(bits.sum()), m
        assert type(popcount_tree(rng.integers(0, 2, size=m).astype(bool))) is int, m
    for m in (0, 1, 2, 3, 63, 64, 65):  # no column, and around the powers of two
        batch = np.vstack([rng.integers(0, 2, size=(8, m)), np.ones((1, m), np.int64)])
        assert np.array_equal(_kernels.popcount_batch(batch), batch.sum(axis=1))


def test_popcount_tree_rejects_non_bits():
    for bits in (np.array([0, 2], dtype=np.int64), [0.5, 1, 1.9]):
        with pytest.raises(ValueError):
            popcount_tree(bits)
    # popcount_tree checks its bits first; a direct call of the benchmark's
    # adapter meets the bounds of the merge node over the bad leaf
    cases = (([[2, 2]], "2, 2", "1, 1", 1), ([[1, 1, 2]], "2, 2", "2, 1", 2),
             ([[0, 0, 0, 2]], "0, 2", "1, 1", 1), ([[2, 0, 0, 0, 0]], "2, 0", "1, 1", 1))
    for bits, counts, bounds, level in cases:
        with pytest.raises(ValueError, match=rf"^partial counts {counts} above their bounds {bounds} "
                                             rf"at level {level}: inputs must be bits$"):
            _kernels.popcount_batch(np.array(bits))


def test_popcount_tree_walks_the_costed_tree(monkeypatch):
    # the walk reads its bounds from the same nodes the models cost: one
    # node bound short fails the count at that node
    assert compressor._merge_nodes(5)[-1] == (3, 0, 4, 1)
    nodes = compressor._merge_nodes(5)[:-1] + ((3, 0, 4, 0),)
    monkeypatch.setattr(compressor, "_merge_nodes", lambda m: nodes)
    message = r"^partial counts 4, 1 above their bounds 4, 0 at level 3: inputs must be bits$"
    with pytest.raises(ValueError, match=message):
        popcount_tree([1] * 5)


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


def test_structural_cost_stays_in_the_counter_domain():
    # any m >= 2 was once taken, and each kept a merge tree in the
    # unbounded cache: m = 2..3000 held about 327 MB
    compressor._merge_nodes.cache_clear()
    for m in (129, 3000):
        with pytest.raises(ValueError, match=r"^m must be in 2\.\.128$"):
            oca_cost_structural(m)
    for m in range(2, 129):
        oca_cost_structural(m, cells="exact")
        plan_tree(m)
    for m in range(1, 129):
        popcount_tree([1] * m)
    assert compressor._merge_nodes.cache_info().currsize <= 128


def test_popcount_bound_check_survives_optimize():
    # python -O strips asserts; the adder-tree bound must still raise
    src = str(Path(redundarith.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    script = (
        "import numpy as np\n"
        "from redundarith import _kernels\n"
        "for bits in ([[5, 7, 9]], [[1, 1, 2]]):\n"
        "    try:\n"
        "        _kernels.popcount_batch(np.array(bits))\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "partial counts 5, 7 above their bounds 1, 1 at level 1: inputs must be bits",
        "partial counts 2, 2 above their bounds 2, 1 at level 2: inputs must be bits",
    ]
