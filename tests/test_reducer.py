"""Row reduction: stage plans, value preservation, carry-free addition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redundarith import _kernels
from redundarith.codes import (
    MultiRowCode,
    make_from_value,
    quad_from_value,
    quad_value,
    scaled_value,
    value_of,
)
from redundarith.reducer import (
    StagePlan,
    add_two_row,
    next_row_count,
    quad_add,
    quad_sub,
    reduce_delay,
    reduce_once,
    reduce_stages,
    reduce_to_two,
    stage_plan,
    trapezoid_geometry,
)

from conftest import random_code


def test_next_row_count_binary():
    # m ones per column need ceil(log2(m+1)) binary digits
    assert next_row_count(3, 2) == 2
    assert next_row_count(4, 2) == 3
    assert next_row_count(7, 2) == 3
    assert next_row_count(8, 2) == 4
    assert next_row_count(127, 2) == 7


def test_next_row_count_high_radix():
    # column sum of m digits <= m*(q-1); count its radix-q digits
    assert next_row_count(10, 10) == 2
    assert next_row_count(12, 10) == 3
    assert next_row_count(3, 3) == 2


def test_stage_plan_bands():
    assert stage_plan(3).row_counts == (3, 2)
    assert stage_plan(7).row_counts == (7, 3, 2)
    assert stage_plan(15).row_counts == (15, 4, 3, 2)
    assert stage_plan(31).row_counts == (31, 5, 3, 2)
    assert stage_plan(63).row_counts == (63, 6, 3, 2)
    assert stage_plan(127).row_counts == (127, 7, 3, 2)


def test_stage_plan_validates_chain():
    with pytest.raises(ValueError):
        StagePlan(radix=2, row_counts=(63, 5, 3, 2))
    with pytest.raises(ValueError):
        StagePlan(radix=2, row_counts=(7, 3))


def test_reduce_once_shifts_diagonally():
    # three rows of all-ones: column sums of 3 -> digits 1,1 at offsets 0,1
    code = MultiRowCode(3, 4, 2, 0, np.ones((3, 4), dtype=np.int64))
    out = reduce_once(code)
    assert out.rows == 2
    assert scaled_value(out) == scaled_value(code)
    assert out.width >= code.width + 1


def test_reduce_preserves_value_random(rng):
    for radix in (2, 3, 10):
        for _ in range(60):
            rows = int(rng.integers(3, 40))
            width = int(rng.integers(1, 64))
            code = random_code(rng, rows, width, radix)
            out = reduce_to_two(code)
            assert out.rows == 2
            assert scaled_value(out) == scaled_value(code)


def test_reduce_stage_count_matches_plan(rng):
    for rows in (3, 7, 9, 31, 64, 127):
        code = random_code(rng, rows, 16, 2)
        stages = list(reduce_stages(code))
        assert len(stages) == len(stage_plan(rows).row_counts) - 1
        assert [s.rows for s in stages[:-1]] == list(stage_plan(rows).row_counts[1:-1])
        assert stages[-1].rows == 2


def _reference_stage(digits, q):
    # per-row loop: digit h of every column sum goes to row h, shifted h columns
    m, n = digits.shape
    m2 = next_row_count(m, q)
    col = digits.sum(axis=0, dtype=np.int64)
    out = np.zeros((m2, n + m2 - 1), dtype=np.int64)
    rem = col
    for h in range(m2):
        out[h, h : h + n] = rem % q
        rem = rem // q
    return out


def test_stage_body_matches_per_row_reference(rng):
    for radix in (2, 3, 7, 10, 2**20):
        for rows in (3, 4, 5, 9, 63, 127):
            for width in (1, 2, 64):  # width 1 and 2 are below m2 for most shapes
                full = np.full((rows, width), radix - 1, dtype=np.int64)
                for digits in (random_code(rng, rows, width, radix).digits, full):
                    once = _kernels.reduce_once_digits(digits, radix)
                    np.testing.assert_array_equal(once, _reference_stage(digits, radix))
                    want, want_stages = digits, 0
                    while want.shape[0] > 2:
                        want = _reference_stage(want, radix)
                        want_stages += 1
                    got, stages = _kernels.reduce_to_two_digits(digits, radix)
                    assert stages == want_stages == stage_plan(rows, radix).stages
                    np.testing.assert_array_equal(got, want)


def test_reduce_handles_degenerate_inputs():
    one = make_from_value(9, 1, 6, 2)
    out = reduce_to_two(one)
    assert out.rows == 2 and value_of(out) == 9


def test_add_two_row_values_and_width_bound(rng):
    for radix in (2, 3, 10):
        for _ in range(40):
            w = int(rng.integers(1, 32))
            a = random_code(rng, 2, w, radix)
            b = random_code(rng, 2, w, radix)
            out = add_two_row(a, b)
            assert value_of(out) == value_of(a) + value_of(b)
            assert out.width <= w + 2


def test_add_two_row_rejects_misaligned():
    a = make_from_value(3, 2, 4, 2, lsb_exp=0)
    b = make_from_value(3, 2, 4, 2, lsb_exp=-1)
    with pytest.raises(ValueError):
        add_two_row(a, b)
    c = make_from_value(3, 2, 4, 3)
    with pytest.raises(ValueError):
        add_two_row(a, c)


def test_quad_add_sub():
    x = quad_from_value(5, 6)
    y = quad_from_value(-9, 6)
    assert quad_value(quad_add(x, y)) == -4
    assert quad_value(quad_sub(x, y)) == 14
    assert quad_value(quad_sub(y, x)) == -14


def test_trapezoid_geometry_known_shape():
    # 8 columns reduced from 5 rows: 3-row band with single-height edges
    geo = trapezoid_geometry(8, 3)
    assert geo.n_max == 8 + 3 - 1
    assert list(geo.column_heights) == [1, 2, 3, 3, 3, 3, 3, 3, 2, 1]
    assert geo.n_min == 6
    assert not geo.degenerate
    assert trapezoid_geometry(2, 3).degenerate


def test_reduce_delay_accountings():
    plan = StagePlan(radix=2, row_counts=(63, 6, 3, 2))
    assert reduce_delay(plan) == 13
    assert reduce_delay(plan, accounting="aggregate") == 13
    assert reduce_delay(plan, accounting="per-stage") == 14
    with pytest.raises(ValueError):
        reduce_delay(plan, accounting="bogus")


@settings(max_examples=50, deadline=None)
@given(
    rows=st.integers(3, 20),
    width=st.integers(1, 20),
    radix=st.sampled_from([2, 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_reduce_value_preservation_hypothesis(rows, width, radix, seed):
    rng = np.random.default_rng(seed)
    code = random_code(rng, rows, width, radix)
    assert scaled_value(reduce_to_two(code)) == scaled_value(code)
