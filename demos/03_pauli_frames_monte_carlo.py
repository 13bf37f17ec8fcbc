"""How often do three misaligned parties still violate a Bell inequality?

Each party measures the Pauli operators in its own (Haar-random) frame and
keeps the two settings that maximize the Bell value. The run estimates the
violation probability, then revisits two specific frame rotations for which
no choice of Pauli (or tetrahedral) settings violates.
"""

import math

import numpy as np

from bellframes import su2
from bellframes.montecarlo import ExperimentConfig, run_experiment
from bellframes.optimizer import make_candidate_set, max_bell_value
from bellframes.polynomials import make_polynomial

SAMPLES = 5000

print(f"=== mermin-3, Pauli candidates, {SAMPLES} Haar-random frame samples ===")
result = run_experiment(ExperimentConfig(3, "mermin", "pauli", SAMPLES, seed=11))
print(f"  P(value > 1)       = {result.lhv_violation_prob:.4f}"
      f"  (+- {result.lhv_stderr:.4f})")
for row in result.bounds:
    if row.label.startswith("GME"):
        print(f"  P(value > {row.label} = {row.value:.4f}) = {row.prob:.4f}")
print(f"  value range: [{result.min:.4f}, {result.max:.4f}], mean {result.mean:.4f}")

print()
print("=== The rare frames that defeat the Pauli triple ===")
m3 = make_polynomial("mermin", 3)
axis = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
tilt = su2.Rotation.from_axis_angle(axis, math.atan(math.sqrt(2.0)))
value = max_bell_value(m3, [tilt] * 3, make_candidate_set("pauli")).bell_value
print("  all parties tilted by arctan(sqrt 2) about (1,1,0)/sqrt2:")
print(f"    best Pauli value = {value:.4f}  -> no violation")

print()
print("=== A frame that defeats even the tetrahedron ===")
xrot = su2.Rotation.from_axis_angle(su2.X_AXIS, 3.0 * math.pi / 10.0)
ident = su2.Rotation.identity()
value = max_bell_value(m3, [ident, ident, xrot],
                       make_candidate_set("tetrahedron")).bell_value
print("  third party rotated by 3*pi/10 about x:")
print(f"    best tetrahedral value = {value:.4f}  -> no violation")
print()
print("  (Across Haar-random frames such failures are rare: the tetrahedral")
print("   failure rate is of order 1e-5, so resolving it needs >= 1e6 samples,")
print("   e.g. `bellframes sample --n 3 --family mermin --candidates tetrahedron")
print("   --samples 2000000 --budget 30000000000 ...` as a long-run preset.)")
