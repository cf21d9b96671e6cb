from dtqw.profiles import parse_profile, profile_table


def angles(text, L):
    """The angle table of the profile spec `text` on an L-site axis."""
    return profile_table(parse_profile(text), L // 2)


def pytest_terminal_summary(terminalreporter):
    """Replay the acceptance battery's per-criterion lines (pytest captures
    stdout of passing tests, which would otherwise hide them)."""
    import sys

    mod = next((m for name, m in sys.modules.items()
                if name.rpartition(".")[2] == "test_acceptance"
                and hasattr(m, "REPORT_LINES")), None)
    if mod is not None and mod.REPORT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(mod.REPORT_LINES):
            terminalreporter.write_line(line)
