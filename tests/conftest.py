import numpy as np
import pytest

from nematic_hydro.gci.coefficients import compute_coefficients
from nematic_hydro.gci.radial import solve_bundle


@pytest.fixture(scope="session")
def bundle_k2d3():
    return solve_bundle(2.0, 3, 1024)


@pytest.fixture(scope="session")
def bundle_k4d2():
    return solve_bundle(4.0, 2, 1024)


@pytest.fixture(scope="session")
def coeffs_k2d3(bundle_k2d3):
    return compute_coefficients(bundle_k2d3)


@pytest.fixture(scope="session")
def coeffs_k4d2(bundle_k4d2):
    return compute_coefficients(bundle_k4d2)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


_CRITERION_LINES: list[tuple[int, str]] = []


@pytest.fixture(scope="session")
def criterion_report():
    """Collector for the acceptance suite: one summary line per criterion."""

    def record(number: int, status: str, detail: str) -> None:
        _CRITERION_LINES.append((number, f"[criterion {number:2d}] {status} - {detail}"))

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(_CRITERION_LINES):
            terminalreporter.write_line(line)
