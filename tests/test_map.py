"""Matrix arithmetic unit: one-shot totals, accumulate stream, timing, gates."""

from fractions import Fraction

import numpy as np
import pytest

from redundarith import map_unit, trace
from redundarith.codes import MultiRowCode, make_from_value
from redundarith.compressor import tree_depth
from redundarith.map_unit import (
    ADDITIVE_OPERANDS,
    REFERENCE_GATES,
    MapConfig,
    map_accumulate,
    map_eval,
    map_gate_estimate,
    map_signed_total,
    map_timing,
    map_total,
)
from redundarith.oracle import exact_scaled_value
from redundarith.reducer import stage_plan


def _bits(v, width, lsb_exp=0):
    return MultiRowCode(
        1, width, 2, lsb_exp,
        np.array([[(v >> i) & 1 for i in range(width)]], dtype=np.int64),
    )


def test_one_shot_total_all_operands(rng):
    n = 10
    cfg = MapConfig(width=n, mode="one-shot")
    for _ in range(30):
        vals = {k: int(rng.integers(0, 1 << n)) for k in ("a", "b", *ADDITIVE_OPERANDS)}
        state = map_eval(cfg, **{k: _bits(v, n) for k, v in vals.items()})
        want = vals["a"] * vals["b"] + sum(vals[k] for k in ADDITIVE_OPERANDS)
        assert map_total(state) == want


def test_one_shot_partial_operands():
    cfg = MapConfig(width=6, mode="one-shot")
    state = map_eval(cfg, c=_bits(17, 6), g=_bits(40, 6))
    assert map_total(state) == 57
    state = map_eval(cfg, a=_bits(63, 6), b=_bits(63, 6))
    assert map_total(state) == 63 * 63
    assert map_total(map_eval(cfg)) == 0


def test_product_needs_both_factors():
    cfg = MapConfig(width=6, mode="one-shot")
    for operands in ({"a": _bits(3, 6)}, {"b": _bits(3, 6)}):
        with pytest.raises(ValueError, match=r"^product needs both a and b \(or neither\)$"):
            map_eval(cfg, **operands)
    # every operand is checked against the grid before anything is stacked
    tc = MapConfig(width=6, signedness="twos-complement")
    cases = (
        (cfg, {"c": make_from_value(3, 1, 6, 3)}, "^operand c must be binary$"),
        (cfg, {"d": _bits(3, 6, -1)}, "^operand d lsb_exp must be 0$"),
        (cfg, {"e": make_from_value(3, 3, 6)}, "^operand e must be a 1-row or 2-row code$"),
        (cfg, {"g": _bits(3, 7)}, r"^operand g width must be in 0\.\.6$"),
        (cfg, {"a": _bits(3, 7), "b": _bits(3, 6)}, r"^operand a width must be in 1\.\.6$"),
        (tc, {"a": _bits(3, 5), "b": _bits(3, 6)}, r"^operand a width must be in 6\.\.6$"),
        # one check per product operand: rows before width, a before b
        (cfg, {"a": make_from_value(3, 2, 7), "b": _bits(3, 7)}, "^operand a must be a 1-row code$"),
        (tc, {"a": _bits(3, 6), "b": make_from_value(3, 2, 6)}, "^operand b must be a 1-row code$"),
        (tc, {"a": _bits(3, 6), "b": make_from_value(3, 1, 6, 3)}, "^operand b must be binary$"),
    )
    for config, operands, message in cases:
        with pytest.raises(ValueError, match=message):
            map_eval(config, **operands)
    with pytest.raises(ValueError, match="^config mode must be 'accumulate'$"):
        map_accumulate(cfg, [])


def test_width0_product_operand_is_named():
    # an unsigned product operand needs a digit; the grid's check names it
    cfg = MapConfig(width=4)
    zero, three = make_from_value(0, 1, 0), make_from_value(3, 1, 4)
    for operands, name in (({"a": zero, "b": three}, "a"), ({"a": three, "b": zero}, "b")):
        with pytest.raises(ValueError, match=rf"^operand {name} width must be in 1\.\.4$"):
            map_eval(cfg, **operands)


def test_two_row_additive_operands_allowed_unsigned():
    cfg = MapConfig(width=5, mode="one-shot")
    two = make_from_value(19, 2, 5, 2)
    assert map_total(map_eval(cfg, c=two)) == 19


def test_overflow_counter_weights_grid_width():
    n = 4
    cfg = MapConfig(width=n, mode="one-shot")
    state = map_eval(cfg, a=_bits(15, n), b=_bits(15, n), c=_bits(15, n))
    assert map_total(state) == 15 * 15 + 15
    assert state.overflow_count >= 1  # 240 needs more than 7 grid columns
    # a full stack of two-row addends spills over several columns, and
    # the counter holds their exact value
    n = 3
    cfg = MapConfig(width=n, mode="one-shot")
    full = MultiRowCode(2, n, 2, 0, np.ones((2, n), dtype=np.int64))
    with trace.record() as events:
        state = map_eval(cfg, a=_bits(7, n), b=_bits(7, n), **dict.fromkeys(ADDITIVE_OPERANDS, full))
    spill = events[-1]["code"].digits[:, cfg.grid_width :]
    assert np.count_nonzero(spill.any(axis=0)) >= 2
    assert state.overflow_count == exact_scaled_value(spill.tolist(), 2)
    assert map_total(state) == 7 * 7 + 6 * 14


def test_accumulate_stream_matches_running_sum(rng):
    n = 8
    cfg = MapConfig(width=n, mode="accumulate")
    steps = []
    want = 0
    for _ in range(40):
        vals = {k: int(rng.integers(0, 1 << n)) for k in ("a", "b", "c", "d", "e", "g")}
        want += vals["a"] * vals["b"] + vals["c"] + vals["d"] + vals["e"] + vals["g"]
        steps.append({k: _bits(v, n) for k, v in vals.items()})
    state = map_accumulate(cfg, steps)
    assert map_total(state) == want


def test_accumulate_single_step_equals_eval_without_hl(rng):
    n = 6
    acc_cfg = MapConfig(width=n, mode="accumulate")
    one_cfg = MapConfig(width=n, mode="one-shot")
    vals = {k: int(rng.integers(0, 1 << n)) for k in ("a", "b", "c", "d", "e", "g")}
    ops = {k: _bits(v, n) for k, v in vals.items()}
    assert map_total(map_accumulate(acc_cfg, [ops])) == map_total(map_eval(one_cfg, **ops))


def test_accumulate_rejects_h_and_l():
    cfg = MapConfig(width=4, mode="accumulate")
    with pytest.raises(ValueError):
        map_accumulate(cfg, [{"h": _bits(1, 4)}])
    with pytest.raises(ValueError):
        map_eval(MapConfig(width=4, mode="one-shot"), q=_bits(1, 4))


def test_twos_complement_signed_totals(rng):
    n = 8
    cfg = MapConfig(width=n, mode="one-shot", signedness="twos-complement")
    for _ in range(40):
        vals = {
            k: int(rng.integers(-(1 << (n - 1)), 1 << (n - 1)))
            for k in ("a", "b", *ADDITIVE_OPERANDS)
        }
        ops = {k: _bits(v & ((1 << n) - 1), n) for k, v in vals.items()}
        state = map_eval(cfg, **ops)
        want = vals["a"] * vals["b"] + sum(vals[k] for k in ADDITIVE_OPERANDS)
        assert map_signed_total(state) == want


def test_signed_bias_drift_is_caught(monkeypatch):
    monkeypatch.setattr(map_unit, "signed_bias", lambda w: 1 << 8)
    cfg = MapConfig(width=4, signedness="twos-complement")
    with pytest.raises(RuntimeError, match=r"^signed product bias 256 != 2\*\*7$"):
        map_eval(cfg, a=_bits(5, 4), b=_bits(3, 4))


def test_product_weight_is_the_sum_of_operand_lsb_exps():
    # a*b carries weight 2**(a.lsb_exp + b.lsb_exp); additive operands sit
    # at the grid's lsb_exp.  Scaled operand values are 4-bit words.
    n = 4
    for lsb, ea, eb in ((-2, -1, -1), (-2, -2, 0), (1, 0, 1), (1, 2, -1)):
        for tc in (False, True):
            cfg = MapConfig(
                width=n, lsb_exp=lsb,
                signedness="twos-complement" if tc else "unsigned-direct",
            )
            ia, ib, ic = (-3, 5, -7) if tc else (3, 13, 9)
            state = map_eval(
                cfg,
                a=_bits(ia % (1 << n), n, ea),
                b=_bits(ib % (1 << n), n, eb),
                c=_bits(ic % (1 << n), n, lsb),
            )
            want = ia * ib * Fraction(2) ** (ea + eb) + ic * Fraction(2) ** lsb
            assert (map_signed_total if tc else map_total)(state) == want


def test_misaligned_product_is_rejected():
    n = 4
    tc = MapConfig(width=n, signedness="twos-complement")
    cases = (  # each used to give a wrong total with exit status 0
        (MapConfig(width=n, lsb_exp=-1), _bits(3, n, -1), _bits(3, n, -1)),  # 3/2 * 3/2: 5
        (MapConfig(width=n, lsb_exp=1), _bits(1, n, 1), _bits(1, n, 1)),  # 2 * 2: 2
        (tc, _bits(1, n, -3), _bits(1, n, 0)),  # 1/8 * 1: 1
    )
    for cfg, a, b in cases:
        with pytest.raises(ValueError, match="lsb_exp"):
            map_eval(cfg, a=a, b=b, c=_bits(1, n, cfg.lsb_exp))
    acc = MapConfig(width=n, mode="accumulate", lsb_exp=-1)
    with pytest.raises(ValueError, match="lsb_exp"):
        map_accumulate(acc, [{"a": _bits(3, n, -1), "b": _bits(3, n, -1)}])


def test_twos_complement_additive_must_be_one_row():
    cfg = MapConfig(width=5, mode="one-shot", signedness="twos-complement")
    two = make_from_value(3, 2, 5, 2)
    with pytest.raises(ValueError, match="^operand c must be a 1-row code$"):
        map_eval(cfg, c=two)
    with pytest.raises(ValueError, match=r"^operand c width must be in 1\.\.5$"):  # width 0: no sign to extend
        map_eval(cfg, c=make_from_value(0, 1, 0, 2))


def test_config_validation():
    with pytest.raises(ValueError):
        MapConfig(width=1, mode="one-shot")
    with pytest.raises(ValueError):
        MapConfig(width=122, mode="one-shot")
    with pytest.raises(ValueError):
        MapConfig(width=8, mode="bogus")
    with pytest.raises(ValueError):
        MapConfig(width=8, mode="one-shot", signedness="bogus")
    for fields in ({"width": 8.0}, {"width": 8, "lsb_exp": 0.5}):
        with pytest.raises(ValueError, match="must be an int"):
            MapConfig(**fields)
    cfg = MapConfig(width=121, mode="one-shot")
    assert cfg.grid_width == 241


def test_timing_reference_configuration():
    t = map_timing(MapConfig(width=24, mode="one-shot"))
    assert (t.t_and, t.t_q, t.t_s, t.t_p) == (1, 6, 4, 3)
    assert t.total == 14
    assert t.source == "reference"
    assert t.note  # the derivable breakdown disagrees and says so
    assert t.derived_total < t.total


def test_timing_derived_configuration():
    t = map_timing(MapConfig(width=8, mode="one-shot"))
    assert t.source == "derived"
    assert t.total == 1 + sum(t.derived_levels) + 0  # t_and + levels
    assert t.stack_rows == 8 + 6


def test_timing_stack_and_levels_are_what_the_datapath_runs(rng):
    for tc in (False, True):
        for n in range(2, 25):
            cfg = MapConfig(width=n, signedness="twos-complement" if tc else "unsigned-direct")
            ops = {k: _bits(int(rng.integers(0, 1 << n)), n) for k in ("a", "b", *ADDITIVE_OPERANDS)}
            with trace.record() as events:
                map_eval(cfg, **ops)
            t = map_timing(cfg)
            assert t.stack_rows == events[0]["rows_in"], (tc, n)
            assert t.derived_levels == tuple(tree_depth(e["rows_in"]) for e in events), (tc, n)


def test_gate_estimate_structure():
    cfg = MapConfig(width=24, mode="one-shot")
    est = map_gate_estimate(cfg)
    assert est["pp_and_gates"] == 24 * 24
    assert est["total"] == est["pp_and_gates"] + est["counter_gates"]
    assert est["reference_total"] == REFERENCE_GATES
    assert est["stages"] == 3  # 24 + 6 rows reduce in three stages
    # informational comparison only: same order of magnitude, not asserted equal
    assert est["total"] > 0


def test_gate_estimate_charges_the_stages_the_datapath_runs():
    # the column heights of a short or wide stack fall to 2 before its
    # row count does; the estimate still charges every stage that runs
    for tc in (False, True):
        for n in range(2, 122):
            cfg = MapConfig(width=n, signedness="twos-complement" if tc else "unsigned-direct")
            stages = map_gate_estimate(cfg)["stages"]
            assert stages == len(map_timing(cfg).derived_levels), (tc, n)
            assert stages == stage_plan(len(map_unit._datapath_rows(cfg))).stages, (tc, n)
            ops = {k: _bits((1 << n) - 1, n) for k in ("a", "b", *ADDITIVE_OPERANDS)}
            with trace.record() as events:
                map_eval(cfg, **ops)
            assert stages == sum(e["op"] == "reduce" for e in events), (tc, n)


def test_gate_estimate_follows_signedness():
    # the signed stack has two more product rows and sign-extended
    # addends across the grid; the unsigned figures are those of the
    # n-row trapezoid plus six addend rows
    for n, unsigned, signed in ((2, 128, 203), (8, 1209, 1805), (24, 11636, 14676)):
        got = [map_gate_estimate(MapConfig(width=n, signedness=s))["counter_gates"]
               for s in ("unsigned-direct", "twos-complement")]
        assert got == [unsigned, signed], n
