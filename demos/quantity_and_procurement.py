"""Robust guarantees beyond the quality-screening seller.

Three variations on the same constant-markup idea:

  1. selling *quantity* under a demand-elasticity bound: a single uniform
     price earns (eta/(eta+1))^eta of the efficient surplus;
  2. a buyer *procuring quality* from a seller with iso-elastic cost: a
     linear offer at unit price 1/eta secures (1/eta)^{1/(eta-1)} of surplus;
  3. a buyer procuring *quantity*: a constant-markup tariff p(q) = z q^{1/eta}
     secures (eta/(eta+1))^{eta+1}.

All three hold uniformly over the private information, which the per-type
certificates below confirm.
"""

import numpy as np

import markup_guarantee as mg

# -- 1. quantity sale with elasticity bound ---------------------------------
eta_bar = -3.0
model = mg.SeparableQuantityUtility(eta=eta_bar)
p_star, share = mg.quantity_guarantee(eta_bar)
print(f"quantity sale, demand elasticity bound {eta_bar:g}:")
print(f"  post price p* = {p_star:.6f}, "
      f"guaranteed profit share = {share:.6f}")
certs = mg.verify_quantity_guarantee(
    model, [mg.Uniform(0.5, 2.0), mg.Binary(1.0, 3.0, 0.4)])
for c in certs:
    print(f"  {c.parameters['distribution']['kind']:8s} "
          f"measured {c.measured_value:.6f}  passed={c.passed}")

# -- 2. quality procurement -------------------------------------------------
eta = 2.0
price, share = mg.procurement_quality(eta)
print()
print(f"quality procurement, cost elasticity {eta:g}:")
print(f"  offer unit price {price:g}, guaranteed buyer share {share:g}")
certs = mg.verify_procurement_quality(eta, np.geomspace(0.2, 5.0, 5))
print(f"  pointwise over seller types: "
      f"{'all pass' if all(c.passed for c in certs) else 'FAILURE'}, "
      f"worst slack {min(c.slack for c in certs):.2e}")

# -- 3. quantity procurement ------------------------------------------------
eta_d = -2.0
z, share = mg.procurement_quantity(eta_d)
print()
print(f"quantity procurement, demand elasticity {eta_d:g}:")
print(f"  markup coefficient z = {z:g}, guaranteed buyer share {share:g}")
certs = mg.verify_procurement_quantity(eta_d, np.geomspace(0.2, 5.0, 5))
print(f"  pointwise over seller types: "
      f"{'all pass' if all(c.passed for c in certs) else 'FAILURE'}, "
      f"worst slack {min(c.slack for c in certs):.2e}")
