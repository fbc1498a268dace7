"""Report generation and the fuzz harness, including its self-test."""

import json

import pytest

from redundarith import multiplier, report
from redundarith.report import FuzzResult, fuzz_verify, report_tables


def test_all_tables_clean():
    for kind in ("2.1", "3.1", "3.2"):
        rep = report_tables(kind)
        assert rep.mismatches == [], kind
        assert rep.exit_code == 0


def test_known_anomalies_are_flagged_not_failed():
    rep31 = report_tables("3.1")
    assert any("m=8" in f for f in rep31.flags)
    rep32 = report_tables("3.2")
    assert any("m=30" in f for f in rep32.flags)
    assert sum("table counts" in f for f in rep32.flags) == 3  # m = 6, 8, 14


def test_report_serializations_are_deterministic():
    a = report_tables("3.2")
    b = report_tables("3.2")
    assert a.to_json() == b.to_json()
    assert a.to_text() == b.to_text()
    parsed = json.loads(a.to_json())
    assert parsed["kind"] == "3.2"
    assert parsed["mismatches"] == []


def test_report_rejects_unknown_table():
    for kind in ("9.9", "table-2.1", "table 3.1"):  # exactly TABLE_KINDS
        with pytest.raises(ValueError):
            report_tables(kind)


def test_fuzz_clean_run_is_deterministic():
    a = fuzz_verify(seed=11, trials=35)
    b = fuzz_verify(seed=11, trials=35)
    assert a.passed == 35
    assert a.exit_code == 0
    assert a.to_json() == b.to_json()


def test_fuzz_scope_filters_ops():
    result = fuzz_verify(seed=1, trials=10, scope=("div", "acc"))
    assert result.passed == 10
    with pytest.raises(ValueError):
        fuzz_verify(seed=1, trials=2, scope=("nonsense",))
    with pytest.raises(ValueError):
        fuzz_verify(seed=1, trials=-5)
    assert fuzz_verify(seed=1, trials=0).passed == 0


def test_fuzz_catches_injected_bug(monkeypatch):
    """Self-test: a broken multiply must surface as a shrunk failure."""

    real_multiply = multiplier.multiply

    def broken(a, b, signed=False):
        out = real_multiply(a, b, signed=signed)
        if out.width >= 6:  # corrupt only wide products so shrinking matters
            digits = out.digits.copy()
            digits[0, 5] ^= 1
            return type(out)(out.rows, out.width, out.radix, out.lsb_exp, digits)
        return out

    monkeypatch.setattr(report.multiplier, "multiply", broken)
    result = fuzz_verify(seed=3, trials=40, scope=("mul",))
    assert result.exit_code == 1
    assert result.failures
    for failure in result.failures:
        assert failure["op"] == "mul"
        assert failure["width"] <= 16
    # shrinking drove at least one failure to a smaller width than the cap
    assert min(f["width"] for f in result.failures) <= 8


def test_fuzz_result_text_lists_failures():
    result = FuzzResult(
        seed=0, trials=1, scope=("mul",), passed=0,
        failures=[{"op": "mul", "trial": 0, "width": 3, "detail": "boom"}],
    )
    text = result.to_text()
    assert "FAIL op=mul" in text
    assert "width=3" in text
