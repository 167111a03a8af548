#!/usr/bin/env python3
"""Two endpoints of the story: flat characteristic connections and the
sphere-bundle complex structure.

First half: draw free torsion components at random, solve the flatness
constraints exactly, and confirm the model carries the full space of
parallel spinors.  Second half: compare the structure-data prediction
for integrability of the canonical almost-complex structure with the
direct residual computation.
"""

import random
import sys

from so3five.catalog import (
    flat_char_model,
    solve_flat_constraints,
    tor23_model,
    tor27_model,
)
from so3five.scalar import get_tol
from so3five.spin import spinor_obstruction
from so3five.twistor import cr_residuals, predicted_verdict

try:
    TOL = get_tol()
except ValueError as e:
    sys.exit(f"error: {e}")

rng = random.Random(23)
free = [rng.randint(-3, 3) for _ in range(6)] + [rng.randint(1, 4)]
print("free torsion components t4..t10:", free)
t = solve_flat_constraints(*free)
print("solved tuple t1..t10:", [x.to_string() for x in t])

model = flat_char_model(t)
spin = spinor_obstruction(model, TOL)
print("characteristic connection flat:", spin["flat"])
print("parallel spinor dimension:", spin["solution_dim"])
print()

for m in (tor23_model(1, 0, 1, 0), tor27_model(1, 0)):
    pred = predicted_verdict(m, TOL)
    direct = cr_residuals(m, "j0")
    print("%s:" % m.name)
    print("  torsion in the 3-class:   %s" % pred["torsion_in_t3"])
    print("  9-summand curvature zero: %s" % pred["curvature_c9_zero"])
    print("  predicted integrable:     %s" % pred["integrable"])
    print("  direct residual verdict:  %s  (max residual %.3g)"
          % (direct["integrable"], direct["max_residual"]))
