import tempfile

import pytest
from hypothesis import HealthCheck, configuration, settings

from wassmdp import lp

# Derandomized and without an example database: every property test draws the
# same examples on every run and writes nothing under .hypothesis/.
settings.register_profile(
    "default",
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


_HYPOTHESIS_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    # Hypothesis caches the constants it reads from source files while pytest
    # collects, database or not; that cache goes to a temporary directory.
    config.stash[_HYPOTHESIS_HOME] = home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    configuration.set_hypothesis_home_dir(home.name)


def pytest_unconfigure(config):
    configuration.set_hypothesis_home_dir(None)
    config.stash[_HYPOTHESIS_HOME].cleanup()


@pytest.fixture(autouse=True)
def empty_lp_memo():
    """Start every test with an empty LP memo, phase-1 results and stored answers
    alike, and zeroed memo counts, so no test sees another's LPs."""
    lp.clear_memo()
    yield
