"""Closed-form guarantees, frontiers, and their verification certificates.

Every closed form from the theory lives here, once; verifiers measure the
corresponding quantity with the quadrature / screening machinery and emit a
GuaranteeCertificate.  Limits (elasticity to 1 or infinity, shapes at the
finite-surplus boundary) are evaluated explicitly, never special-cased as
magic constants.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, asdict
from typing import Iterable

import numpy as np

from .distributions import ValueDistribution
from .functionals import full_report, quantity_surplus_report
from .mechanisms import constant_markup_mechanism
from .screening import bayes_optimal_mechanism
from .technology import IsoElasticCost

__all__ = [
    "GuaranteeCertificate",
    "FrontierPoint",
    "guarantee_ratio",
    "consumer_share",
    "pareto_profit_ratio",
    "frontier",
    "feasible_beta_interval",
    "frontier_attaining_shape",
    "surplus_lower_bound",
    "verify_lower_bound",
    "boundary",
    "membership",
    "holder_audit",
    "convex_cost_guarantee",
    "verify_convex_cost_guarantee",
    "quantity_guarantee",
    "verify_quantity_guarantee",
    "procurement_quality",
    "verify_procurement_quality",
    "procurement_quantity",
    "verify_procurement_quantity",
]

DEFAULT_TOL = 1e-6
# the procurement shares are closed forms evaluated at each theta, so only
# rounding separates them from their bounds
_PROCUREMENT_TOL = 1e-9


@dataclass(frozen=True)
class GuaranteeCertificate:
    claim_id: str
    parameters: dict
    bound_value: float
    measured_value: float
    tolerance: float

    def __post_init__(self):
        # a NaN would neither pass nor fail: the measurement broke
        if not (math.isfinite(self.bound_value)
                and math.isfinite(self.measured_value)):
            raise ArithmeticError(
                f"{self.claim_id} "
                f"{json.dumps(self.parameters, sort_keys=True)}: measured "
                f"{float(self.measured_value)!r} vs bound "
                f"{float(self.bound_value)!r} is not finite")

    @property
    def slack(self):
        return float(self.measured_value) - float(self.bound_value)

    @property
    def passed(self):
        return bool(self.slack >= -self.tolerance)

    def to_json(self):
        d = asdict(self)
        d["bound_value"] = float(self.bound_value)
        d["measured_value"] = float(self.measured_value)
        d["slack"] = self.slack
        d["pass"] = self.passed
        return json.dumps(d, sort_keys=True)


@dataclass(frozen=True)
class FrontierPoint:
    beta: float         # Pi / S
    u_over_s: float     # U / S
    alpha: float        # attaining Pareto shape
    branch: str         # upper | lower | zero_cs


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def guarantee_ratio(eta: float) -> float:
    """Profit guarantee of the constant-markup menu: eta^{-eta/(eta-1)}.

    Limits: 1/e as eta -> 1+, 1/4 at eta = 2, 0 as eta -> inf.
    """
    if not eta > 1.0:
        raise ValueError("cost elasticity must exceed 1")
    if math.isinf(eta):
        return 0.0
    return eta ** (-eta / (eta - 1.0))


def consumer_share(eta: float) -> float:
    """Consumer surplus share under the guarantee menu: eta^{-1/(eta-1)}.

    Limits: 1/e as eta -> 1+, 1/2 at eta = 2, 1 as eta -> inf.
    """
    if not eta > 1.0:
        raise ValueError("cost elasticity must exceed 1")
    return eta ** (-1.0 / (eta - 1.0))


def pareto_profit_ratio(alpha: float, eta: float) -> float:
    """Bayes-optimal profit share under Pareto(alpha): ((alpha-1)/alpha)^{eta/(eta-1)}.

    Valid on the finite-surplus region alpha > eta/(eta-1); approaches the
    guarantee ratio as alpha falls to the boundary.
    """
    boundary = eta / (eta - 1.0)
    if alpha < boundary:
        raise ValueError(
            f"profit share requires alpha >= eta/(eta-1) = {boundary:g} "
            "(finite surplus)")
    return ((alpha - 1.0) / alpha) ** (eta / (eta - 1.0))


def feasible_beta_interval(eta: float) -> tuple:
    return (guarantee_ratio(eta), 1.0)


def frontier(beta: float, eta: float) -> float:
    """Max U/S given Pi/S = beta: (eta/(eta-1)) (beta^{1/eta} - beta)."""
    lo, hi = feasible_beta_interval(eta)
    if not (lo - 1e-12 <= beta <= hi + 1e-12):
        raise ValueError(
            f"beta={beta:g} infeasible; must lie in [{lo:g}, 1]")
    return (eta / (eta - 1.0)) * (beta ** (1.0 / eta) - beta)


def frontier_attaining_shape(beta: float, eta: float) -> float:
    """The Pareto shape whose Bayes-optimal outcome attains the frontier."""
    lo, hi = feasible_beta_interval(eta)
    if not (lo - 1e-12 <= beta <= hi + 1e-12):
        raise ValueError(f"beta={beta:g} infeasible; must lie in [{lo:g}, 1]")
    if beta >= 1.0:
        return math.inf
    return 1.0 / (1.0 - beta ** ((eta - 1.0) / eta))


def surplus_lower_bound(eta: float) -> float:
    """Realized share of efficient surplus under Bayes-optimal selling: >= 1/eta.

    Requires a convex marginal cost (eta >= 2); the bound fails toward
    eta -> 1.
    """
    if eta < 2.0:
        raise ValueError("the surplus lower bound requires eta >= 2")
    return 1.0 / eta


def boundary(alpha: float, eta: float) -> FrontierPoint:
    """Boundary of the feasible (U/S, Pi/S) set at cost elasticity eta,
    parametrized by the Pareto shape alpha >= 1, with r = eta/(eta-1).

    alpha >= r: upper branch, the Bayes outcome under Pareto(alpha), with
    beta = pareto_profit_ratio(alpha, eta) and U/S = frontier(beta, eta).
    alpha in [1, r]: lower branch, the k -> inf limit of
    TruncatedPareto(alpha, k): with t = 1 - 1/alpha, U/S = t^(r-1) and
    beta = (alpha t^r + r - alpha)/r.  The branches meet at the guarantee
    point at alpha = r; alpha = 1 gives (0, 1/eta).
    """
    if alpha < 1.0:
        raise ValueError("shape must be at least 1")
    r = eta / (eta - 1.0)
    if alpha >= r:
        beta = pareto_profit_ratio(alpha, eta)
        return FrontierPoint(beta=beta, u_over_s=frontier(beta, eta),
                             alpha=alpha, branch="upper")
    t = 1.0 - 1.0 / alpha
    return FrontierPoint(beta=(alpha * t ** r + r - alpha) / r,
                         u_over_s=t ** (r - 1.0), alpha=alpha, branch="lower")


def membership(x: float, y: float, eta: float, tol: float = 1e-9) -> str:
    """Classify (U/S, Pi/S) = (x, y) against the feasible set at eta.

    Returns 'interior', 'boundary', or 'exterior'.  The set is bounded by the
    Hoelder frontier x <= frontier(y), the lower branch of `boundary` (shape
    alpha = 1/(1 - x^(eta-1)) at U/S = x), the segment x = 0, y in [1/eta, 1],
    and the guarantee point's U/S, x <= consumer_share(eta).
    """
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise ValueError("ratios must lie in [0,1]")
    x_tip = consumer_share(eta)
    y_lo = boundary(1.0 / (1.0 - min(x, x_tip) ** (eta - 1.0)), eta).beta
    x_hi = frontier(max(y, guarantee_ratio(eta)), eta)
    if x > x_tip + tol or y < y_lo - tol or x > x_hi + tol:
        return "exterior"
    if (abs(x - x_hi) <= tol or abs(y - y_lo) <= tol or x <= tol
            or abs(x - x_tip) <= tol):
        return "boundary"
    return "interior"


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------

def verify_lower_bound(eta: float, distributions: Iterable[ValueDistribution],
                       tol: float = DEFAULT_TOL):
    """Certify (U + Pi)/S >= 1/eta under Bayes-optimal menus."""
    bound = surplus_lower_bound(eta)
    cost = IsoElasticCost(eta=eta)
    certs = []
    for F in distributions:
        M = bayes_optimal_mechanism(F, cost)
        rep = full_report(F, M, cost)
        certs.append(GuaranteeCertificate(
            claim_id="surplus_lower_bound",
            parameters={"eta": eta, "distribution": F.to_spec()},
            bound_value=bound,
            measured_value=rep.pi_ratio + rep.u_ratio,
            tolerance=tol))
    return certs


def holder_audit(F: ValueDistribution, eta: float,
                 tol: float = DEFAULT_TOL) -> GuaranteeCertificate:
    """Certify U/S <= (eta/(eta-1)) ((Pi/S)^{1/eta} - Pi/S) at the optimum."""
    cost = IsoElasticCost(eta=eta)
    M = bayes_optimal_mechanism(F, cost)
    rep = full_report(F, M, cost)
    bound = (eta / (eta - 1.0)) * (rep.pi_ratio ** (1.0 / eta) - rep.pi_ratio)
    # certificate convention: measured slack = bound - U/S must be >= -tol
    return GuaranteeCertificate(
        claim_id="holder_frontier_bound",
        parameters={"eta": eta, "distribution": F.to_spec()},
        bound_value=rep.u_ratio,
        measured_value=bound,
        tolerance=tol)


def convex_cost_guarantee(eta_bar: float) -> tuple:
    """Seller's robust offer for convex costs with elasticity bound eta_bar:
    markup multiplier z = 1/(sqrt(eta_bar - 1) + 1), guaranteed profit share
    1/(eta_bar + 2 sqrt(eta_bar - 1)).

    The share is derived for eta_bar >= 2; below 2 it warns.  It is weaker
    than the iso-elastic guarantee at the same bound; the two agree only at
    eta_bar = 2.
    """
    if eta_bar <= 1.0:
        raise ValueError("elasticity bound must exceed 1")
    if eta_bar < 2.0:
        warnings.warn("constant-markup guarantee is derived for "
                      "eta_bar >= 2", stacklevel=2)
    root = math.sqrt(eta_bar - 1.0)
    return 1.0 / (root + 1.0), 1.0 / (eta_bar + 2.0 * root)


def verify_convex_cost_guarantee(cost, distributions, tol: float = DEFAULT_TOL):
    """Run the constant-markup mechanism and certify Pi >= bound * S.

    A cost with c'(0) > 0 raises ValueError: the menu sells nothing to
    PointMass(v), c'(0) < v <= c'(0)/z, while S > 0, so no bound holds."""
    marginal_at_zero = float(cost.c_prime(0.0))
    if marginal_at_zero > 0.0:
        raise ValueError(f"the convex-cost guarantee needs c'(0) = 0; this "
                         f"cost has c'(0) = {marginal_at_zero!r}")
    z, bound = convex_cost_guarantee(cost.eta_bar)
    menu = constant_markup_mechanism(cost, z)
    certs = []
    for F in distributions:
        rep = full_report(F, menu, cost)
        certs.append(GuaranteeCertificate(
            claim_id="convex_cost_guarantee",
            parameters={"eta_bar": cost.eta_bar, "z": z,
                        "distribution": F.to_spec()},
            bound_value=bound,
            measured_value=rep.pi_ratio,
            tolerance=tol))
    return certs


def quantity_guarantee(eta_bar: float) -> tuple:
    """Seller's robust offer with demand elasticity bound eta_bar < -1 and
    unit cost 1: uniform price p* = eta_bar/(eta_bar + 1), guaranteed profit
    share (p*)^eta_bar."""
    if eta_bar >= -1.0:
        raise ValueError("demand elasticity bound must be below -1")
    p_star = eta_bar / (eta_bar + 1.0)
    return p_star, p_star ** eta_bar


def verify_quantity_guarantee(model, distributions, tol: float = DEFAULT_TOL):
    """Price at p* = eta_bar/(eta_bar+1) and certify the profit share.

    For the separable model the ratio is exact and uniform across F; for
    nonlinear demand the bound holds pointwise in v, so it holds in
    aggregate.
    """
    eta_bar = model.eta_bar
    p_star, bound = quantity_guarantee(eta_bar)
    if hasattr(model, "check_band"):
        model.check_band(v_grid=np.geomspace(0.5, 8.0, 7))
    certs = []
    for F in distributions:
        rep = quantity_surplus_report(F, model, p_star)
        certs.append(GuaranteeCertificate(
            claim_id="quantity_guarantee",
            parameters={"eta_bar": eta_bar, "p_star": p_star,
                        "distribution": F.to_spec()},
            bound_value=bound,
            measured_value=rep.pi_ratio,
            tolerance=tol))
    return certs


def procurement_quality(eta: float) -> tuple:
    """Buyer's robust offer for quality procurement: unit price 1/eta,
    guaranteed surplus share eta^{-1/(eta-1)}, the consumer share of the
    selling side's guarantee menu."""
    share = consumer_share(eta)
    return 1.0 / eta, share


# an overflow in the procurement verifiers shows as a non-finite share,
# which the certificate rejects
@np.errstate(over="ignore", invalid="ignore")
def verify_procurement_quality(eta: float, theta_grid):
    """Simulate the seller's best response and certify the pointwise share."""
    price, share = procurement_quality(eta)
    certs = []
    for theta in np.asarray(theta_grid, dtype=float):
        q = (price / theta) ** (1.0 / (eta - 1.0))
        buyer_surplus = q - price * q
        s_theta = ((eta - 1.0) / eta) * (1.0 / theta) ** (1.0 / (eta - 1.0))
        certs.append(GuaranteeCertificate(
            claim_id="procurement_quality",
            parameters={"eta": eta, "theta": float(theta), "price": price},
            bound_value=share,
            measured_value=buyer_surplus / s_theta,
            tolerance=_PROCUREMENT_TOL))
    return certs


def procurement_quantity(eta: float) -> tuple:
    """Buyer's robust constant-markup offer for quantity procurement:
    p(q) = z q^{1/eta} with z = (eta+1)/eta; share (eta/(eta+1))^{eta+1}."""
    if eta >= -1.0:
        raise ValueError("demand elasticity must be below -1")
    z = (eta + 1.0) / eta
    share = (eta / (eta + 1.0)) ** (eta + 1.0)
    return z, share


@np.errstate(over="ignore", invalid="ignore")
def verify_procurement_quantity(eta: float, theta_grid):
    """Seller picks q with theta = p(q); certify the buyer's surplus share."""
    z, share = procurement_quantity(eta)
    certs = []
    for theta in np.asarray(theta_grid, dtype=float):
        q = (theta / z) ** eta
        gross = (eta / (eta + 1.0)) * q ** ((eta + 1.0) / eta)
        paid = z * (eta / (eta + 1.0)) * q ** ((eta + 1.0) / eta)
        buyer_surplus = gross - paid
        s_theta = -(theta ** (eta + 1.0)) / (eta + 1.0)
        certs.append(GuaranteeCertificate(
            claim_id="procurement_quantity",
            parameters={"eta": eta, "theta": float(theta), "z": z},
            bound_value=share,
            measured_value=buyer_surplus / s_theta,
            tolerance=_PROCUREMENT_TOL))
    return certs

