import numpy as np
import pytest
from hypothesis import strategies as st

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


def edge_sum_energy(net: Network, f, g=None) -> float:
    """Independent oracle: evaluate the form directly from the network data."""
    f = np.asarray(f, dtype=float)
    g = f if g is None else np.asarray(g, dtype=float)
    total = 0.0
    for u, v, c in net.edges:
        total += c * (f[u] - f[v]) * (g[u] - g[v])
    for x in range(net.n):
        total += net.killing[x] * f[x] * g[x]
    return total


_finite = st.floats(allow_nan=False, allow_infinity=False)
_label = st.one_of(st.integers(), _finite, st.text(max_size=3), st.tuples(st.integers(), st.integers()), st.tuples(_finite, _finite))


@st.composite
def networks(draw, max_n: int = 8) -> Network:
    """Networks with integer, float, string or flat tuple labels (the builders
    make integers, floats and tuples), any finite positive conductances and
    any finite killing weights >= 0."""
    n = draw(st.integers(1, max_n))
    vertices = draw(st.one_of(st.just(n), st.lists(_label, min_size=n, max_size=n)))
    ordered_pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    pairs = draw(st.lists(st.sampled_from(ordered_pairs), unique_by=frozenset)) if ordered_pairs else []
    c = draw(st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False), min_size=len(pairs), max_size=len(pairs)))
    killing = draw(st.none() | st.lists(st.floats(min_value=0.0, allow_infinity=False), min_size=n, max_size=n))
    return Network(vertices, [(a, b, x) for (a, b), x in zip(pairs, c)], killing)
