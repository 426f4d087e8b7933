"""Myerson ironing and the Bayes-optimal menu, on a bimodal distribution.

Stacking a narrow uniform bump on top of a wide one makes the density drop
abruptly, so the raw virtual value is non-monotone; the optimal menu irons
it flat across the trough, pooling a range of types onto a single quality.
This script shows the raw vs ironed virtual value, the resulting menu, and
cross-checks profit against the discrete-type oracle, an exact dynamic
program over the quality grid.
"""

import numpy as np

import markup_guarantee as mg

F = mg.Mixture(components=(mg.Uniform(0.0, 1.0), mg.Uniform(0.0, 0.2)),
               weights=(0.5, 0.5))
cost = mg.IsoElasticCost(eta=2.0)

curve = mg.iron(F)
print("ironed intervals (pooling regions) and the constant ironed value:")
for lo, hi, const in curve.ironed_intervals:
    print(f"  [{lo:.4f}, {hi:.4f}]  phi_bar = {const:.4f}")

vs = np.array([0.05, 0.15, 0.25, 0.5, 0.9])
print()
print(f"{'v':>6s} {'phi(v)':>10s} {'phi_bar(v)':>12s}")
for v in vs:
    print(f"{v:6.2f} {float(curve.phi(v)):10.4f} {float(curve.phi_bar(v)):12.4f}")

mech = mg.bayes_optimal_mechanism(F, cost)
rep = mg.full_report(F, mech, cost)
print()
print(f"Bayes-optimal menu: Pi/S = {rep.pi_ratio:.4f}, U/S = {rep.u_ratio:.4f}")
print(f"guarantee-menu benchmark:  Pi/S = {mg.guarantee_ratio(2.0):.4f}")

# Cross-check against the exact dynamic program over the quality grid on a
# matched discretization.
F10 = mg.discretize(F, 10)
oracle = mg.discrete_oracle(
    F10, cost, tuple(np.linspace(0.0, 1.2 * max(F10.values) / 2.0, 15)))
print()
print(f"10-type grid oracle profit:        {oracle.profit:.6f}")
print(f"continuous-menu profit:            {rep.Pi:.6f}")
