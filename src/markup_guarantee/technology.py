"""Cost-side and demand-side primitives.

Quality discrimination uses convex costs: iso-elastic, inverted in closed
form, or polynomial with a declared elasticity bound, checked exactly at
construction and inverted by Newton from a closed-form upper start.
Quantity discrimination uses concave buyer utilities with linear production
cost normalized to 1.  Each demand model states its surplus above a price,
int_p^inf D(v, s) ds, and the error of that value, for an array of values:
the separable model in closed form with error 0, the nonlinear model in one
quadrature whose stack has a row per value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import _spec_field
from .quadrature import QuadResult, adaptive_quad

__all__ = [
    "CostValidationError",
    "RootFindError",
    "IsoElasticCost",
    "PolynomialCost",
    "SeparableQuantityUtility",
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
        if not 1.0 < self.eta < np.inf:
            raise ValueError("iso-elastic cost needs a finite eta > 1")

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
        if not degree <= eta_bar < math.inf:
            raise CostValidationError(
                f"declared elasticity bound {eta_bar!r} must be finite and at "
                f"least the degree {degree}, the elasticity's supremum")
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


@dataclass(frozen=True)
class SeparableQuantityUtility:
    """h(v, q) = v (eta/(eta+1)) q^{(eta+1)/eta}, demand elasticity eta < -1.

    Marginal cost is normalized to 1.
    """

    eta: float

    def __post_init__(self):
        if self.eta >= -1.0:
            raise ValueError("demand elasticity must be below -1")

    def demand(self, v, p):
        v = np.asarray(v, dtype=float)
        p = np.asarray(p, dtype=float)
        return (p / v) ** self.eta

    @property
    def eta_bar(self):
        return self.eta

    def surplus_above(self, v, p):
        """(value, 0) of int_p^inf D(v, s) ds = -v^{-eta} p^{eta+1}/(eta+1)."""
        v = np.asarray(v, dtype=float)
        p = np.asarray(p, dtype=float)
        e = self.eta
        value = -(v ** -e) * p ** (e + 1.0) / (e + 1.0)
        return QuadResult(value, np.zeros_like(value))


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


def cost_from_spec(spec: dict):
    kind = _spec_field(spec, "kind", "cost spec")
    if kind == "iso_elastic":
        return IsoElasticCost(eta=_spec_field(spec, "eta", "iso_elastic spec"))
    if kind == "poly_cost":
        what = "poly_cost spec"
        return PolynomialCost(coeffs=_spec_field(spec, "coeffs", what),
                              eta_bar=_spec_field(spec, "eta_bar", what))
    raise ValueError(f"unknown cost kind {kind!r}")


def quantity_model_from_spec(spec: dict):
    kind = _spec_field(spec, "kind", "quantity model spec")
    if kind == "separable_quantity":
        return SeparableQuantityUtility(
            eta=_spec_field(spec, "eta", "separable_quantity spec"))
    raise ValueError(f"unknown quantity model kind {kind!r}")
