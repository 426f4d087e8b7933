"""The exact feasible set of (U/S, Pi/S) pairs under quadratic cost.

At every cost elasticity eta the set of normalized outcomes achievable by
*some* distribution and *some* incentive-compatible menu has a closed-form
boundary, `boundary(alpha, eta)`: an upper branch traced by Pareto shapes
alpha >= r = eta/(eta-1) on the Hoelder frontier, a lower branch traced by
the untruncated limit of truncated Pareto laws with alpha in [1, r], and a
zero-consumer-surplus segment.  At eta = 2 the lower branch is the straight
edge x + 2y = 1.  This script tabulates the eta = 2 boundary, classifies a
few candidate points with `membership(x, y, eta)`, and shows that at other
elasticities the two branches still meet at the guarantee point.
"""

import numpy as np

import markup_guarantee as mg

print("boundary parametrized by Pareto shape alpha:")
print(f"{'alpha':>8s} {'branch':>8s} {'U/S':>10s} {'Pi/S':>10s}")
for alpha in [1.1, 1.5, 2.0, 3.0, 5.0, 20.0]:
    pt = mg.boundary(alpha, 2.0)
    print(f"{alpha:8.2f} {pt.branch:>8s} {pt.u_over_s:10.6f} {pt.beta:10.6f}")

print()
print("classifying candidate normalized outcomes (x = U/S, y = Pi/S):")
candidates = [
    (0.30, 0.30),   # strictly inside
    (0.50, 0.25),   # junction of the two branches (Pareto alpha = 2)
    (0.00, 0.75),   # zero-CS segment
    (0.45, 0.45),   # above the upper branch
    (0.10, 0.10),   # below the lower edge: total surplus share under 1/2
]
for x, y in candidates:
    print(f"  ({x:.2f}, {y:.2f}) -> {mg.membership(x, y, 2.0)}")

print()
print("every guarantee-menu outcome (U/S, Pi/S) = (1/2, 1/4) sits at the")
print("junction where both branches meet:")
print(f"  membership(0.5, 0.25) = {mg.membership(0.5, 0.25, 2.0)}")

print()
print("at other elasticities the branches meet at the guarantee point")
print("(eta^(-1/(eta-1)), eta^(-eta/(eta-1))) when alpha = eta/(eta-1):")
for eta in (1.5, 3.0, 5.0):
    pt = mg.boundary(eta / (eta - 1.0), eta)
    print(f"  eta = {eta:g}: ({pt.u_over_s:.6f}, {pt.beta:.6f}), guarantee "
          f"({mg.consumer_share(eta):.6f}, {mg.guarantee_ratio(eta):.6f})")

# Monte Carlo sanity check: Bayes-optimal outcomes over a spread of laws
# should never land outside the set.
rng = np.random.default_rng(7)
cost = mg.IsoElasticCost(eta=2.0)
worst = "interior"
for _ in range(25):
    F = mg.Uniform(0.0, float(rng.uniform(0.5, 3.0)))
    mech = mg.bayes_optimal_mechanism(F, cost)
    rep = mg.full_report(F, mech, cost)
    verdict = mg.membership(rep.u_ratio, rep.pi_ratio, 2.0)
    assert verdict != "exterior", (F, rep)
print()
print("25 random uniform laws: all Bayes-optimal outcomes inside the set.")
