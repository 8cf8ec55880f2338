"""Seeded random networks for property testing.

All generators take a ``numpy.random.Generator`` so callers control the seed;
nothing here draws from global state.
"""

from __future__ import annotations

import numpy as np

from .network import FormMatrix, Network, assemble

__all__ = [
    "random_connected_network",
    "random_network",
    "random_markov_form",
]


def random_connected_network(
    rng: np.random.Generator,
    n_max: int = 30,
    n_min: int = 2,
    with_killing: bool = False,
) -> Network:
    """Random spanning tree plus extra edges; connected by construction."""
    n = int(rng.integers(n_min, n_max + 1))
    edges = {}
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges[(u, v)] = float(rng.uniform(0.1, 3.0))
    n_extra = int(rng.integers(0, max(1, n) + 1))
    for _ in range(n_extra):
        u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
        if (u, v) not in edges:
            edges[(u, v)] = float(rng.uniform(0.1, 3.0))
    killing = None
    if with_killing:
        killing = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 2.0, size=n))
    return Network(n, [(u, v, c) for (u, v), c in edges.items()], killing)


def random_network(
    rng: np.random.Generator,
    n_max: int = 30,
    with_killing: bool = True,
) -> Network:
    """Random network that may be disconnected and may carry killing."""
    n = int(rng.integers(2, n_max + 1))
    edges = {}
    n_edges = int(rng.integers(0, 2 * n))
    for _ in range(n_edges):
        u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
        if (u, v) not in edges:
            edges[(u, v)] = float(rng.uniform(0.1, 3.0))
    killing = None
    if with_killing:
        killing = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 2.0, size=n))
    return Network(n, [(u, v, c) for (u, v), c in edges.items()], killing)


def random_markov_form(rng: np.random.Generator, n_max: int = 30, with_killing: bool = True) -> FormMatrix:
    """Form matrix of a random network; Markov by construction."""
    return assemble(random_network(rng, n_max=n_max, with_killing=with_killing))
