"""Trace the profit/consumer-surplus frontier and verify it is attained.

Across all value distributions, the Bayes-optimal menu's normalized outcome
(Pi/S, U/S) lies on or below the curve U/S = (eta/(eta-1)) (beta^{1/eta} - beta),
and Pareto distributions attain it exactly.  This script sweeps the frontier,
then computes the Bayes-optimal menu's report on Pareto(alpha) at the
attaining shape (always above eta/(eta-1), so surplus is finite) and checks
the two coincide.
"""

import numpy as np

import markup_guarantee as mg

ETA = 2.0
COST = mg.IsoElasticCost(ETA)
beta_lo, beta_hi = mg.feasible_beta_interval(ETA)
print(f"eta = {ETA:g}: feasible profit shares beta in [{beta_lo:g}, {beta_hi:g}]")
print()
print(f"{'beta':>8s} {'U/S frontier':>14s} {'Pareto alpha':>14s} "
      f"{'Bayes Pi/S':>12s} {'Bayes U/S':>12s}")

for beta in np.linspace(beta_lo + 0.03, 0.97, 8):
    u = mg.frontier(beta, ETA)
    alpha = mg.frontier_attaining_shape(beta, ETA)
    F = mg.Pareto(alpha)
    rep = mg.full_report(F, mg.bayes_optimal_mechanism(F, COST), COST)
    pi_s, u_s = rep.pi_ratio, rep.u_ratio
    print(f"{beta:8.4f} {u:14.6f} {alpha:14.4f} {pi_s:12.6f} {u_s:12.6f}")
    assert abs(pi_s - beta) < 1e-5 and abs(u_s - u) < 1e-5

print()
print("left endpoint: as alpha -> 1+ the Bayes outcome tends to the")
print("constant-markup guarantee point")
print(f"  (guarantee_ratio, frontier there) = "
      f"({beta_lo:g}, {mg.frontier(beta_lo, ETA):g})")
print(f"  consumer_share({ETA:g}) = {mg.consumer_share(ETA):g}")
