import pytest
from hypothesis import HealthCheck, settings

from wassmdp import lp

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture(autouse=True)
def empty_lp_memo():
    """Start every test with an empty LP memo, phase-1 results and stored answers
    alike, and zeroed memo counts, so no test sees another's LPs."""
    lp.clear_memo()
    yield
