"""The one verdict type and the exit status every checker CLI shares."""

import pytest

from repro.testing.oracle import Verdict, exit_status


def _verdict(dirty):
    verdict = Verdict()
    verdict.tag = "[probe]"
    if dirty:
        verdict.violation("leak", "slot 3 still pinned")
    return verdict


@pytest.mark.parametrize("dirty, expect_violations, status, line", [
    (False, False, 0, "[probe] OK: held"),
    (True, False, 1, "[probe] FAIL: broken"),
    (False, True, 1, "[probe] FAIL: expected violations, the run was clean"),
    (True, True, 0, "[probe] OK: 1 violation(s) found, as expected"),
])
def test_exit_status(capsys, dirty, expect_violations, status, line):
    verdict = _verdict(dirty)
    assert exit_status(verdict, expect_violations,
                       held="held", broken="broken") == status
    assert capsys.readouterr().out.splitlines() == [line]


def test_summary_lists_violations_then_counts_the_rest():
    verdict = Verdict()
    for index in range(Verdict.LISTED + 3):
        verdict.violation("kind", f"detail {index}")
    lines = verdict.summary().splitlines()
    assert lines[0] == f"[check] {Verdict.LISTED + 3} violation(s):"
    assert lines[1] == "[check]   kind: detail 0"
    assert len(lines) == Verdict.LISTED + 2
    assert lines[-1] == "[check]   ... 3 more"


def test_clean_verdict_summary_and_messages():
    verdict = Verdict()
    assert verdict.ok
    assert verdict.summary() == "[check] no violations"
    verdict.violation("a", "b")
    assert not verdict.ok
    assert verdict.messages() == ["a: b"]
