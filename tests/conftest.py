import sys

import pytest

acceptance_lines: list[str] = []


@pytest.fixture
def probe_builds(monkeypatch):
    """Every probe state the package builds while the test runs, in build order."""
    from tpa_metrology import fock

    original = fock.make_probe_state
    built = []

    def counting(*args, **kwargs):
        built.append(original(*args, **kwargs))
        return built[-1]

    for name, module in list(sys.modules.items()):
        if name.startswith("tpa_metrology") and getattr(module, "make_probe_state", None) is original:
            monkeypatch.setattr(module, "make_probe_state", counting)
    return built


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
