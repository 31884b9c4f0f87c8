import pytest
from hypothesis import settings

from hkprod import Ring

# Hypothesis' "ci" profile (derandomized, no example database) on every
# run, so a local run draws the same examples as CI.
settings.load_profile("ci")


@pytest.fixture
def F2xy():
    return Ring(2, ["x", "y"])


@pytest.fixture
def F3xy():
    return Ring(3, ["x", "y"])


@pytest.fixture
def F5xy():
    return Ring(5, ["x", "y"])


@pytest.fixture
def F2xyz():
    return Ring(2, ["x", "y", "z"])


@pytest.fixture
def F3xyz():
    return Ring(3, ["x", "y", "z"])


@pytest.fixture
def F5xyz():
    return Ring(5, ["x", "y", "z"])


@pytest.fixture
def fermat():
    return Ring(2, ["x", "y", "z"], relations=["x^3+y^3+z^3"])
