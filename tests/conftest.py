from functools import reduce

from cstar_systems.linalg import compose

_criterion_results: list[tuple[str, bool]] = []


def chain_matrix(chain):
    """The dense matrix of the composite chain[0] o chain[1] o ..., for comparing a
    nested-expansion oracle entrywise."""
    return reduce(compose, chain).matrix


def record_criterion(label: str, passed: bool):
    _criterion_results.append((label, passed))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criterion_results:
        return
    terminalreporter.section("acceptance criteria")
    for label, passed in _criterion_results:
        terminalreporter.write_line(f"[{'PASS' if passed else 'FAIL'}] {label}")
