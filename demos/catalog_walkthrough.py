#!/usr/bin/env python3
"""One-line geometric summary of every catalog entry at default parameters.

For each homogeneous model: torsion class, which curvature components
survive, whether the metric Ricci tensor is proportional to the metric,
and the dimension of the space of parallel spinors.
"""

import sys

from so3five.catalog import CATALOG, build_entry
from so3five.connection import build_report
from so3five.repr import Tensor2
from so3five.scalar import get_tol
from so3five.spin import spinor_obstruction

try:
    TOL = get_tol()
except ValueError as e:
    sys.exit(f"error: {e}")


def torsion_class(rep):
    if rep.torsion is None or rep.torsion.is_zero(TOL):
        return "zero"
    t3 = not rep.torsion_t3.is_zero(TOL)
    t7 = not rep.torsion_t7.is_zero(TOL)
    if t3 and not t7:
        return "pure 3-class"
    if t7 and not t3:
        return "pure 7-class"
    return "mixed"


def einstein(rep):
    ric = rep.ric_lc
    diff = ric - Tensor2.metric().scale(ric.trace() / 5)
    if diff.is_exact:
        return diff.max_mag() == 0.0
    return diff.max_mag() <= TOL


def main():
    header = "%-13s %-7s %-14s %-18s %-9s %s" % (
        "entry", "dim", "torsion", "curvature", "einstein", "spinors")
    print(header)
    print("-" * len(header))
    for name in sorted(CATALOG):
        model, entry, _resolved = build_entry(name, {})
        rep = build_report(model, TOL)
        present = sorted(
            k for k, v in rep.curvature_components["present"].items() if v)
        spin = spinor_obstruction(model, TOL)
        print("%-13s %-7s %-14s %-18s %-9s %d" % (
            name, model.dim, torsion_class(rep),
            "+".join(present) if present else "flat",
            "yes" if einstein(rep) else "no",
            spin["solution_dim"]))
    print()
    print("spinors = dimension of the space the holonomy obstruction")
    print("leaves for parallel spinor fields (4 means flat connection)")


if __name__ == "__main__":
    main()
