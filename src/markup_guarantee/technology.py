"""Cost-side and demand-side primitives.

Quality discrimination uses convex costs: iso-elastic, inverted in closed
form, or polynomial with a declared elasticity bound, checked exactly at
construction and inverted by Newton from a closed-form upper start.
Quantity discrimination with separable demand of elasticity eta < -1 is the
quality problem at the iso-elastic cost of elasticity eta_c = eta/(eta+1),
which a `separable_quantity` spec reads as.  Non-separable demand has no
such map: the nonlinear model states its surplus above a price,
int_p^inf D(v, s) ds, and the error of that value, for an array of values
in one quadrature whose stack has a row per value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import _from_spec, _in_range
from .quadrature import QuadResult, adaptive_quad

__all__ = [
    "CostValidationError",
    "RootFindError",
    "IsoElasticCost",
    "PolynomialCost",
    "NonlinearDemandModel",
    "cost_from_spec",
    "quantity_model_from_spec",
]


class CostValidationError(ValueError):
    pass


class RootFindError(RuntimeError):
    pass


@dataclass(frozen=True)
class IsoElasticCost:
    """c(q) = q^eta / eta with constant pointwise elasticity eta in (1, inf)."""

    eta: float

    def __post_init__(self):
        _in_range(self.eta, "'eta'", 1.0, math.inf)

    def c(self, q):
        q = np.asarray(q, dtype=float)
        return q ** self.eta / self.eta

    def c_prime(self, q):
        q = np.asarray(q, dtype=float)
        return q ** (self.eta - 1.0)

    @property
    def eta_bar(self):
        return self.eta

    def efficient_quality(self, v):
        v = np.asarray(v, dtype=float)
        return v ** (1.0 / (self.eta - 1.0))


# Newton passes one root solve may take before it raises RootFindError
_NEWTON_PASSES = 100


def _monotone_root(marginal, target):
    """q >= 0 with marginal(q) = target elementwise, for a polynomial
    marginal with coefficients b_k >= 0 and every target above b_0.

    Newton starts at q0 = min_k ((t - b_0)/b_k)^(1/k) over the terms with
    b_k > 0: that term alone reaches t - b_0 there, so marginal(q0) >= t.
    The marginal is convex and increasing on [0, inf), so Newton from above
    falls monotonically to the root (Fourier's condition) and needs no
    bracket.  An element stops at the first step that does not lower it,
    exactly as a solve of that element alone would.  Each term's bound is
    taken as (t - b_0)^(1/k) / b_k^(1/k), which overflows only where the
    bound itself passes the float64 maximum.  Raises RootFindError when a
    step is not finite or after _NEWTON_PASSES passes.
    """
    t = np.asarray(target, dtype=float)
    b = marginal.coef
    slope = marginal.deriv()
    k = np.flatnonzero(b[1:] > 0.0) + 1
    with np.errstate(all="ignore"):
        # 1/k is rounded, which moves x^(1/k) by up to |ln x| eps/(2k)
        # relative, a few hundred eps; the factor keeps q0 above the root
        q = (1.0 + 1e-12) * np.min(
            (t - b[0])[..., None] ** (1.0 / k) / b[k] ** (1.0 / k), axis=-1)
        live = np.ones(t.shape, dtype=bool)
        for _ in range(_NEWTON_PASSES):
            step = (marginal(q) - t) / slope(q)
            bad = live & ~np.isfinite(step)
            if bad.any():
                raise RootFindError(
                    f"Newton step toward c'(q) = {float(t[bad][0])!r} is not "
                    f"finite: the target is not finite, or the marginal "
                    f"passes the float64 limit {float(np.finfo(float).max)!r} "
                    "on the way")
            q_new = q - step
            live &= q_new < q
            q = np.where(live, q_new, q)
            if not live.any():
                return q
    raise RootFindError(f"Newton does not settle on c'(q) = "
                        f"{float(t[live][0])!r} in {_NEWTON_PASSES} passes")


class PolynomialCost:
    """Convex polynomial cost c(q) = sum_k coeffs[k] q^k, checked exactly.

    The checks are c(0) = 0 (coeffs[0] == 0), every coefficient finite and
    >= 0, degree d >= 2, and eta_bar finite and >= d.  With nonnegative
    coefficients, c', c'' and c''' are >= 0 on [0, inf), and the elasticity
    q c'(q)/c(q) = sum_k k a_k q^k / sum_k a_k q^k is a weighted mean of the
    powers that rises to d, so eta_bar bounds it everywhere.
    """

    def __init__(self, coeffs, eta_bar):
        coeffs = tuple(float(x) for x in coeffs)
        if not all(0.0 <= x < math.inf for x in coeffs):
            raise CostValidationError(
                f"polynomial cost needs finite coefficients >= 0, got {coeffs}")
        degree = max((k for k, x in enumerate(coeffs) if x > 0.0), default=0)
        if degree < 2:
            raise CostValidationError(
                f"polynomial cost needs degree >= 2, got degree {degree}")
        if coeffs[0] != 0.0:
            raise CostValidationError("polynomial cost must have c(0) = 0")
        if not (isinstance(eta_bar, (int, float))
                and degree <= eta_bar < math.inf):
            raise CostValidationError(
                f"'eta_bar' must be a finite number at least the degree "
                f"{degree}, the elasticity's supremum, got {eta_bar!r}")
        self.coeffs = coeffs
        self.eta_bar = eta_bar
        self.c = np.polynomial.Polynomial(coeffs)
        self.c_prime = self.c.deriv()

    def efficient_quality(self, v):
        """q with c'(q) = v, and exactly 0 where v <= c'(0): one root call
        for the whole array.  Returns an array, or a float for scalar v."""
        v_arr = np.atleast_1d(np.asarray(v, dtype=float))
        out = np.zeros_like(v_arr)
        live = ~(v_arr <= self.coeffs[1])
        if live.any():
            out[live] = _monotone_root(self.c_prime, v_arr[live])
        return out if np.ndim(v) else float(out[0])


# the prices p >= 1 (= marginal cost) on which check_band probes the band
_BAND_PRICES = np.geomspace(1.0, 1e3, 64)


@dataclass(frozen=True)
class NonlinearDemandModel:
    """Quantity-side demand D(v,p) with a band on elasticity.

    Elasticities come from central differences in p.

    The elasticity band eta(v,p) in [eta_bar - 1, eta_bar] is enforced on a
    probe grid over p >= 1 only (= marginal cost).
    """

    eta_bar: float
    D: Callable

    def __post_init__(self):
        if self.eta_bar >= -1.0:
            raise ValueError("elasticity bound must be below -1")

    def demand(self, v, p):
        if np.any(np.asarray(p) <= 0):
            raise ValueError("price must be positive")
        return np.asarray(self.D(v, p), dtype=float)

    def elasticity(self, v, p):
        p = np.asarray(p, dtype=float)
        step = np.maximum(1e-6, 1e-6 * p)
        d_hi = self.demand(v, p + step)
        d_lo = self.demand(v, p - step)
        d_mid = self.demand(v, p)
        return (d_hi - d_lo) / (2.0 * step) * p / d_mid

    def check_band(self, v_grid):
        """Verify the elasticity band and monotonicity on a probe grid."""
        for v in np.atleast_1d(v_grid):
            e = np.asarray(self.elasticity(v, _BAND_PRICES), dtype=float)
            if np.any(e >= 0):
                raise CostValidationError("demand elasticity must be negative")
            if np.any(e > self.eta_bar + 1e-8) or np.any(e < self.eta_bar - 1.0 - 1e-8):
                raise CostValidationError(
                    "demand elasticity leaves the band [eta_bar-1, eta_bar]")
            if np.any(np.diff(e) > 1e-8):
                raise CostValidationError(
                    "demand elasticity must be non-increasing in p")

    def surplus_above(self, v, p):
        """(value, error) of int_p^inf D(v, s) ds for every value in v: one
        quadrature over [p, inf) on a stack with a row per value, so the
        rows share panels.  Both are shaped like v."""
        v = np.asarray(v, dtype=float)
        rows = adaptive_quad(lambda s: self.demand(v.reshape(-1, 1), s),
                             p, math.inf)
        return QuadResult(*(np.reshape(x, v.shape) for x in rows))


def _cost_elasticity(eta):
    """eta_c = eta/(eta+1) > 1 for separable demand of elasticity eta < -1.

    A buyer's v h(q), h(q) = (eta/(eta+1)) q^((eta+1)/eta), for a quantity q
    at unit cost 1 is a buyer of quality x = h(q) at the cost h^-1(x), which
    is iso-elastic with elasticity eta_c (Mussa and Rosen, 1978).  A uniform
    price p is the constant-markup menu of IsoElasticCost(eta_c) at z = 1/p:
    a value buys the quantity eta_c c(Q(v)), and its surplus, profit and
    rent are eta_c times the quality side's, so the shares agree.
    """
    eta = _in_range(eta, "'eta'", -math.inf, -1.0)
    return eta / (eta + 1.0)


# each kind's constructor, and the spec fields it takes in order
_COST_KINDS = {
    "iso_elastic": (IsoElasticCost, ("eta",)),
    "poly_cost": (PolynomialCost, ("coeffs", "eta_bar")),
}
_QUANTITY_KINDS = {
    "separable_quantity": (
        lambda eta: IsoElasticCost(eta=_cost_elasticity(eta)), ("eta",)),
}


def cost_from_spec(spec: dict):
    return _from_spec(spec, _COST_KINDS, "cost")


def quantity_model_from_spec(spec: dict):
    """A `separable_quantity` spec of demand elasticity eta, read as its
    quality problem: IsoElasticCost(eta/(eta+1))."""
    return _from_spec(spec, _QUANTITY_KINDS, "quantity model")
