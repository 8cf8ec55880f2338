"""The reversible continuous-time chain of a form and a measure.

Jump rates c_xy / mu(x) make the chain mu-symmetric; killing sends it to an
explicit cemetery. Two classical identities tie the process back to the
analytic side: hitting probabilities are harmonic extensions, and commute
times equal R(x, y) mu(V). Results are a pure function of (seed, n): the
same seed twice gives the same bits.
"""

import numpy as np

from netforms import (
    AtomicMeasure,
    Network,
    assemble,
    build_generator,
    commute_time,
    effective_resistance,
    harmonic_extension,
    hitting_probability,
    occupation_check,
    simulate,
    trace,
)

path = assemble(Network(3, [(0, 1, 1.0), (1, 2, 1.0)]))
gen = build_generator(path, AtomicMeasure(np.ones(3)))

# --- hitting probabilities are harmonic ----------------------------------------
est = hitting_probability(gen, 0, 2, x0=1, n_traj=40000, seed=7)
analytic = harmonic_extension(trace(path, [0, 2]), [1.0, 0.0])[1]
print(f"P_1(hit 0 before 2): simulated {est.value:.4f} +- {est.stderr:.4f}, harmonic value {analytic}")

# --- commute time = R(x, y) mu(V) -----------------------------------------------
com = commute_time(gen, 0, 2, n_traj=40000, seed=8)
target = effective_resistance(path, 0, 2) * 3.0
print(f"commute time 0 <-> 2: simulated {com.value:.4f} +- {com.stderr:.4f}, R mu(V) = {target}")
print(f"  {com.jumps / 40000:.2f} jumps per trajectory, longest trajectory {com.max_jumps} jumps")

# --- occupation converges to mu / mu(V) ------------------------------------------
edge = assemble(Network(2, [(0, 1, 1.0)]))
gen2 = build_generator(edge, AtomicMeasure([2.0, 1.0]))
occ = occupation_check(gen2, horizon=1000.0, n_traj=100, seed=9)
print(f"\noccupation with mu = (2, 1): {np.round(occ.occupation, 4)} target {np.round(occ.target, 4)}")
print(f"L1 distance {occ.l1_distance:.4f} (band {occ.band:.4f})")

# --- killing and the cemetery ------------------------------------------------------
killed = assemble(Network(1, [], killing=[1.0]))
res = simulate(build_generator(killed, AtomicMeasure([1.0])), 0, horizon=10.0, n_traj=20000, seed=10)
print(f"\npure killing at rate 1, horizon 10: killed fraction {res.killed_fraction:.5f}"
      f" (analytic {1 - np.exp(-10):.5f})")

# --- same seed twice, bitwise equal -------------------------------------------------
a = commute_time(gen, 0, 2, n_traj=2000, seed=11)
b = commute_time(gen, 0, 2, n_traj=2000, seed=11)
print("\nseed 11 twice agrees bitwise:", a.value == b.value and a.stderr == b.stderr)
