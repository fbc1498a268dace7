"""The public records: immutable, and compared by their fields."""

import pytest

from redundarith import accumulator, codes, compressor, divider, evalexpr, map_unit, reducer, report


def _samples():
    """name -> one record of that type, built through the library."""
    one = codes.make_from_value(5, 1, 4)
    cfg = map_unit.MapConfig(4)
    return {
        "StagePlan": reducer.stage_plan(7),
        "TrapezoidGeometry": reducer.trapezoid_geometry(4, 3),
        "MapConfig": cfg,
        "MapState": map_unit.map_eval(cfg, a=one, b=one),
        "MapTiming": map_unit.map_timing(cfg),
        "OcaSpec": compressor.plan_tree(5),
        "ScaleTable": divider.build_scale(3, 2),
        "EvalResult": evalexpr.evaluate("1 + 2"),
        "Report": report.report_tables("2.1"),
        "FuzzResult": report.FuzzResult(0, 0, ("mul",), 0, []),
        "QuadSignedCode": codes.quad_from_value(-3, 4),
        "MultiRowCode": one,
        "AccumulatorState": accumulator.acc_new(4),
    }


FIELDS = {
    "StagePlan": ("row_counts", "radix"),
    "TrapezoidGeometry": ("n1", "m2", "n_max", "n_min", "row_lengths", "row_offsets",
                          "column_heights", "degenerate"),
    "MapConfig": ("width", "mode", "signedness", "lsb_exp"),
    "MapState": ("config", "f", "overflow_count", "bias_units"),
    "MapTiming": ("t_and", "t_q", "t_s", "t_p", "total", "source", "stack_rows",
                  "derived_levels", "derived_total", "note"),
    "OcaSpec": ("inputs", "levels", "table_counts", "table_dims"),
    "ScaleTable": ("z", "k", "radix", "size"),
    "EvalResult": ("value", "code"),
    "Report": ("kind", "columns", "rows", "flags", "mismatches"),
    "FuzzResult": ("seed", "trials", "scope", "passed", "failures"),
}
DEFAULTS = {
    "MapConfig": {"mode": "one-shot", "signedness": "unsigned-direct", "lsb_exp": 0},
    "MapState": {"bias_units": 0},
    "Report": {"flags": (), "mismatches": ()},
}


def test_records_refuse_attribute_assignment():
    for name, record in _samples().items():
        first = FIELDS.get(name, ("pos", "pos", "width", "width"))[0]
        for attr in (first, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, attr, None)
    scale = divider.build_scale(3, 2)
    with pytest.raises(AttributeError, match="^ScaleTable is immutable: cannot set extra$"):
        scale.extra = 1
    with pytest.raises(AttributeError, match="^QuadSignedCode is immutable: cannot set neg$"):
        codes.quad_from_value(1, 4).neg = None


def test_records_are_named_tuples_of_their_fields():
    samples = _samples()
    for name, fields in FIELDS.items():
        record = samples[name]
        kind = type(record)
        assert kind.__name__ == name and kind._fields == fields, name
        assert kind._field_defaults == DEFAULTS.get(name, {}), name
        # rebuilt from its fields, a record equals the original, and it is
        # a tuple of them; one changed field makes it differ
        again = kind(*record)
        assert again == record and tuple(record) == record and repr(again) == repr(record), name
        assert record != (*record[:-1], "x"), name
    assert repr(samples["StagePlan"]) == "StagePlan(row_counts=(7, 3, 2), radix=2)"
    assert repr(samples["MapConfig"]) == ("MapConfig(width=4, mode='one-shot', "
                                          "signedness='unsigned-direct', lsb_exp=0)")
    assert reducer.stage_plan(7) < reducer.stage_plan(15)
    # the records that check their fields check them in _replace too
    with pytest.raises(ValueError, match="^width must be in 2..121$"):
        samples["MapConfig"]._replace(width=122)
    with pytest.raises(ValueError, match="^inconsistent plan step 7 -> 3$"):
        samples["StagePlan"]._replace(radix=10)
    assert report.Report("k", [], []).to_json() == (
        '{"columns": [], "flags": [], "kind": "k", "mismatches": [], "rows": []}')


def test_scale_bank_is_cached_on_the_record():
    scale = divider.build_scale(5, 2)
    assert divider.select_digit(12, scale, "eager") == (2, 2)
    assert scale._bank is scale._bank is vars(scale)["_bank"]
    assert scale == divider.build_scale(5, 2)
