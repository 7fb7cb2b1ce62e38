import pytest

import mqcsim.inversion


@pytest.fixture(autouse=True)
def _peaks_match_scipy(monkeypatch):
    """Every peak search a test makes, through ``analyze`` or the CLI, is
    checked afterwards against scipy's ``find_peaks`` on the same input."""
    calls = []
    own = mqcsim.inversion._find_peaks

    def recorded(x, min_prominence):
        peaks = own(x, min_prominence)
        calls.append((x.copy(), min_prominence, peaks))
        return peaks

    monkeypatch.setattr(mqcsim.inversion, "_find_peaks", recorded)
    yield
    if calls:
        from scipy.signal import find_peaks

        for x, min_prominence, peaks in calls:
            assert peaks == find_peaks(x, prominence=min_prominence)[0].tolist()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    rows = []
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" in nodeid and "::test_c" in nodeid:
                rows.append((nodeid.split("::")[-1], "PASS" if status == "passed" else "FAIL"))
    if rows:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, status in sorted(rows):
            terminalreporter.write_line(f"{status}  {name}")
