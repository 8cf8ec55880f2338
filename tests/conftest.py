import pytest

from netforms import Network, assemble


@pytest.fixture
def unit_edge():
    return assemble(Network(2, [(0, 1, 1.0)]))


@pytest.fixture
def path3():
    return assemble(Network(3, [(0, 1, 1.0), (1, 2, 1.0)]))


@pytest.fixture
def triangle():
    return assemble(Network(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]))
