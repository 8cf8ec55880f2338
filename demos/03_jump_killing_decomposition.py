"""Splitting a Markov form into jump and killing parts.

Every finite symmetric Markov form is a sum of a jump part (half the
conductance on each ordered pair, so the double sum counts each edge twice)
and a killing part (the row sums). The split is unique, and recomposition is
bit-exact.
"""

import numpy as np

from netforms import Network, assemble, decompose, evaluate, recompose

A = assemble(Network(3, [(0, 1, 2.0), (1, 2, 0.5)], killing=[0.0, 1.0, 0.25]))
d = decompose(A)
print("jump kernel J (ordered pairs, J = c/2):")
print(d.jump.toarray())
print("killing vector:", d.kappa)
print("strongly local part on a finite discrete space:", d.local_part)

# --- the bilinear identity ---------------------------------------------------
rng = np.random.default_rng(2)
f, g = rng.uniform(-1, 1, (2, 3))
direct = evaluate(A, f, g)
J = d.jump.toarray()
via_parts = sum(
    J[x, y] * (f[x] - f[y]) * (g[x] - g[y])
    for x in range(3)
    for y in range(3)
    if x != y
) + float(np.sum(d.kappa * f * g))
print(f"\nE(f, g) = {direct:.12f}  via jump+killing sum = {via_parts:.12f}")

# --- roundtrip is bit-exact --------------------------------------------------
print("recompose(decompose(A)) == A bitwise:", np.array_equal(recompose(d).matrix, A.matrix))

# --- uniqueness: indicators pin the coefficients -----------------------------
e = np.eye(3)
J_recovered = -evaluate(A, e[0], e[1]) / 2.0
print("J(0,1) recovered from indicator evaluations:", J_recovered, "==", J[0, 1])
