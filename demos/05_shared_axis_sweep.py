"""Frames misaligned only around a shared axis: two settings always suffice.

When every party's frame differs only by a rotation about z (a standard
noise model for polarization-, time- or path-encoded photons), two fixed
in-plane settings per party give closed-form Bell values depending only on
the total angle. The better of two fixed strategies certifies maximal
genuine multipartite entanglement (Mermin, odd n) and complete
nonseparability (Svetlichny) at every angle.
"""

import math

import numpy as np

from bellframes import restricted as rst
from bellframes.optimizer import inplane_candidate_set, max_bell_value
from bellframes.polynomials import make_polynomial

N = 3
GRID = 24

print(f"=== mermin-{N} under shared-axis rotations ===")
print(f"{'Theta/pi':>9s} {'primary':>9s} {'swapped':>9s} {'best':>9s} "
      f"{'optimizer':>10s}")
candidates = inplane_candidate_set([0.0, math.pi / 2.0])
poly = make_polynomial("mermin", N)
rng = np.random.default_rng(3)
for k in range(GRID):
    theta = 2.0 * math.pi * k / GRID
    primary, swapped = rst.strategy_value("mermin", N, theta)
    # split the total angle over the parties arbitrarily: only the sum matters
    thetas = rng.dirichlet(np.ones(N)) * theta
    rotations = [rst.z_rotation(t) for t in thetas]
    scanned = max_bell_value(poly, rotations, candidates).bell_value
    print(f"{theta / math.pi:>9.3f} {primary:>9.4f} {swapped:>9.4f} "
          f"{max(primary, swapped):>9.4f} {scanned:>10.4f}")

bound = 2.0 ** (N / 2.0 - 1.0)
print()
print(f"The 'best' column never drops below 2^(n/2-1) = {bound:.4f}: full")
print(f"genuine {N}-party entanglement is certified at every angle, with")
print("equality only at Theta = pi/4 (mod pi/2).")

print()
print(f"=== svetlichny-{N}: nonseparability with certainty ===")
worst = rst.best_value("svetlichny", N, 2.0 * math.pi * np.arange(1000) / 1000).min()
print(f"min over 1000 angles of the two-strategy maximum = {worst:.6f}")
print(f"threshold for complete nonseparability: > {1.0:.1f} "
      "(met with equality only at isolated angles)")
