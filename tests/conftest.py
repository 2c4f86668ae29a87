import pytest
from bench_modules import ladder_systems

from tracesys.fixtures import (
    ALL_SYSTEMS,
    aztec_system,
    smallest_irreducible_monoid,
    two_state_system,
    two_terminal_system,
)
from tracesys.analysis import uniform_measure
from tracesys.system import ConcurrentSystem


@pytest.fixture(scope="session")
def e1():
    return two_state_system()


@pytest.fixture(scope="session")
def aztec():
    return aztec_system()


@pytest.fixture(scope="session")
def canonical_abc():
    return ConcurrentSystem.canonical(smallest_irreducible_monoid())


@pytest.fixture(scope="session")
def twelve():
    return two_terminal_system()


@pytest.fixture(scope="session")
def irreducible_fixtures(e1, aztec, canonical_abc, twelve):
    return {"e1": e1, "aztec": aztec, "canonical_abc": canonical_abc, "twelve": twelve}


@pytest.fixture(scope="session")
def e1_measure(e1):
    return uniform_measure(e1)


@pytest.fixture(scope="session")
def aztec_measure(aztec):
    return uniform_measure(aztec)


@pytest.fixture(scope="session")
def twelve_measure(twelve):
    return uniform_measure(twelve)


@pytest.fixture(scope="session")
def reference_systems():
    """The four fixtures, phil3-phil5, path8 and path10, by name."""
    return {**{name: f() for name, f in ALL_SYSTEMS.items()}, **ladder_systems()}
