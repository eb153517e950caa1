import sys


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay the acceptance battery's one-line verdicts after the run.

    The criterion tests buffer their lines in test_acceptance.REPORT_LINES;
    emitting them here keeps them visible under output capture.
    """
    mod = None
    for name in ("test_acceptance", "tests.test_acceptance"):
        if name in sys.modules:
            mod = sys.modules[name]
            break
    lines = getattr(mod, "REPORT_LINES", None) if mod else None
    if not lines:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria", sep="-")
    for line in lines:
        terminalreporter.write_line(line)
