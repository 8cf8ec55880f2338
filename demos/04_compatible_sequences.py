"""Compatible sequences: nested networks linked by the trace relation.

When each level is the trace of the next, energies of restrictions are
non-decreasing and converge to the limit energy. The dyadic interval is
compatible exactly (series law); the gasket needs the 5/3 conductance
renormalization, which one level-1 trace recovers (the trace is homogeneous
of degree 1 in the conductances).
"""

import numpy as np

from netforms import (
    build_dyadic_interval,
    build_sierpinski_gasket,
    calibrate_gasket_factor,
    check_compatibility,
    energy_profile,
    limit_energy_estimate,
)

# --- dyadic interval ---------------------------------------------------------
seq = build_dyadic_interval(8)
rep = check_compatibility(seq)
print("dyadic compatibility deviations per level:", rep.deviations.max(), "(ok:", bool(rep), ")")

x = np.array(seq.networks[-1].vertices, dtype=float)
print("\nenergy profile of f(x) = x   :", energy_profile(seq, x))
print("energy profile of f(x) = x^2 :", np.round(energy_profile(seq, x * x), 6))
est, inc = limit_energy_estimate(seq, x * x)
print(f"limit estimate {est:.6f} (target 4/3 = {4 / 3:.6f}), last increment {inc:.2e}")

# --- monotonicity for arbitrary functions ------------------------------------
rng = np.random.default_rng(3)
prof = energy_profile(seq, rng.standard_normal(seq.networks[-1].n))
print("\nrandom f profile is non-decreasing:", bool(np.all(np.diff(prof) >= -1e-9)))

# --- the gasket and its renormalization --------------------------------------
g = build_sierpinski_gasket(4)
grep = check_compatibility(g)
print("\ngasket levels 0..4 compatible:", bool(grep), " max deviation:", grep.deviations.max())
print("factor calibrated by one level-1 trace:", calibrate_gasket_factor(), "(standard value 5/3)")

bad = check_compatibility(build_sierpinski_gasket(2, factor=1.6))
print("wrong factor 1.6 detected:", not bool(bad), " deviation:", bad.deviations.max())
