"""The fault bench reports the recovery run's own counters."""

import pytest

from repro.perf import format_fault_report, run_fault_bench


@pytest.fixture(scope="module")
def payload():
    return run_fault_bench(quick=True)


def test_lossy_rows_report_recovery_retransmits(payload):
    for row in payload["rows"]:
        if row["loss_rate"] > 0.0:
            # The bare lossy run loses messages and never resends them;
            # the recovery run resends every loss.
            assert row["dropped"] > 0, row
            assert row["retransmits"] == 0, row
            assert row["retransmits_retransmit"] > 0, row
        else:
            assert row["dropped"] == row["dropped_retransmit"] == 0, row
            assert row["retransmits_retransmit"] == 0, row


def test_report_prints_recovery_retransmits(payload):
    text = format_fault_report(payload)
    assert "retx" in text
    lossy = payload["rows"][-1]
    assert str(lossy["retransmits_retransmit"]) in text
