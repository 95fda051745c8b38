import tempfile

import numpy as np
import pytest
from hypothesis import configuration

from geoladders import BumpMetric2D, make_space

FLEET_NAMES = ("euclidean-3", "sphere-2", "hyperbolic-2", "spd-3", "so3")

# pass/fail lines collected by the acceptance suite, printed in the summary
ACCEPTANCE_LINES = []


def pytest_configure(config):
    # hypothesis caches the constants it reads from the package's source in
    # its home directory, ./.hypothesis by default, even with no example
    # database; a temporary home keeps test runs out of the working tree
    global _HYPOTHESIS_HOME
    _HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
    configuration.set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def pytest_unconfigure(config):
    configuration.set_hypothesis_home_dir(None)
    _HYPOTHESIS_HOME.cleanup()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def fleet():
    return {name: make_space(name) for name in FLEET_NAMES}


@pytest.fixture(scope="session")
def bump():
    return BumpMetric2D(1.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
