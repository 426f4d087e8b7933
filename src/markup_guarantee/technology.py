"""Cost-side and demand-side primitives.

Quality discrimination uses convex costs (iso-elastic or general convex with
a declared elasticity bound); quantity discrimination uses concave buyer
utilities with linear production cost normalized to 1.  Each demand model
states its surplus above a price, int_p^inf D(v, s) ds, and the error of
that value, for an array of values: the separable model in closed form with
error 0, the nonlinear model in one quadrature whose stack has a row per
value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .distributions import _spec_field
from .quadrature import QuadResult, adaptive_quad

__all__ = [
    "CostValidationError",
    "RootFindError",
    "IsoElasticCost",
    "GeneralConvexCost",
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

    def c_double_prime(self, q):
        q = np.asarray(q, dtype=float)
        return (self.eta - 1.0) * q ** (self.eta - 2.0)

    @property
    def eta_bar(self):
        return self.eta

    def elasticity(self, q):
        return self.eta

    def efficient_quality(self, v):
        v = np.asarray(v, dtype=float)
        return v ** (1.0 / (self.eta - 1.0))

    def to_spec(self):
        return {"kind": "iso_elastic", "eta": self.eta}


def _monotone_root(g, target, lo=0.0, g_prime=None):
    """Solve g(q) = target elementwise for nondecreasing g.

    target and lo broadcast to one shape; g and g_prime map an array of that
    shape elementwise.  Each element is bracketed (the upper end doubled
    from max(1, 2 lo + 1)), bisected 80 times and polished by up to 100
    Newton steps that stay inside its bracket, until a step is below
    1e-12 max(1, |q|), exactly as a solve of that element alone would be.
    Returns an array, or a float for scalar input.
    """
    target = np.asarray(target, dtype=float)
    shape = np.broadcast_shapes(target.shape, np.shape(lo))
    t = np.broadcast_to(target, shape)
    a = np.array(np.broadcast_to(np.asarray(lo, dtype=float), shape))
    with np.errstate(all="ignore"):
        b = np.maximum(1.0, 2.0 * a + 1.0)
        short = np.ones(shape, dtype=bool)
        for _ in range(200):
            short &= ~(g(b) >= t)
            if not short.any():
                break
            a = np.where(short, b, a)
            b = np.where(short, 2.0 * b, b)
        else:
            raise RootFindError(
                f"marginal evaluator never reaches {t[short].flat[0]!r} "
                "on the search interval")
        for _ in range(80):
            mid = 0.5 * (a + b)
            below = g(mid) < t
            a = np.where(below, mid, a)
            b = np.where(below, b, mid)
        q = 0.5 * (a + b)
        if g_prime is not None:
            live = np.ones(shape, dtype=bool)
            for _ in range(100):
                d = g_prime(q)
                live &= ~(d <= 0)
                step = (g(q) - t) / d
                q_new = q - step
                live &= (a <= q_new) & (q_new <= b)
                q = np.where(live, q_new, q)
                live &= ~(np.abs(step) <= 1e-12 * np.maximum(1.0, np.abs(q)))
                if not live.any():
                    break
    return q if q.ndim else float(q)


def _positive_root(c_prime, v, c_double_prime=None):
    """q with c'(q) = v where v > 0 and q = 0 elsewhere: one root call for
    the whole array.  Returns an array, or a float for scalar v."""
    v_arr = np.atleast_1d(np.asarray(v, dtype=float))
    out = np.zeros_like(v_arr)
    pos = ~(v_arr <= 0)
    if pos.any():
        out[pos] = _monotone_root(c_prime, v_arr[pos], g_prime=c_double_prime)
    return out if np.ndim(v) else float(out[0])


@dataclass(frozen=True)
class GeneralConvexCost:
    """Convex cost with convex marginal (c''' >= 0) and bounded elasticity.

    Validation is best-effort: c''' >= 0 and eta(q) <= eta_bar are checked by
    finite differences on 256 geometric probe points in [1e-4, 1e4], which
    cannot certify the conditions globally.
    """

    c: Callable
    c_prime: Callable
    c_double_prime: Optional[Callable] = None
    eta_bar: float = 2.0

    def __post_init__(self):
        if self.eta_bar <= 1.0:
            raise CostValidationError("declared elasticity bound must exceed 1")
        grid = np.geomspace(1e-4, 1e4, 256)
        c0 = np.asarray(self.c(grid), dtype=float)
        if abs(float(self.c(0.0))) > 1e-12:
            raise CostValidationError("cost must satisfy c(0) = 0")
        cp = np.asarray(self.c_prime(grid), dtype=float)
        if np.any(np.diff(cp) < -1e-10 * np.maximum(1.0, np.abs(cp[:-1]))):
            raise CostValidationError("marginal cost must be nondecreasing")
        # c''' >= 0 via second differences of c' on the probe grid
        h = grid * 1e-4
        cpp = (np.asarray(self.c_prime(grid + h)) - np.asarray(self.c_prime(grid - h))) / (2 * h)
        if np.any(np.diff(cpp) < -1e-6 * np.maximum(1.0, np.abs(cpp[:-1]))):
            raise CostValidationError("marginal cost must be convex (c''' >= 0)")
        eta = cp * grid / c0
        if np.any(eta > self.eta_bar + 1e-8):
            raise CostValidationError(
                f"measured elasticity {eta.max():.6g} exceeds declared bound "
                f"{self.eta_bar:.6g}")

    def elasticity(self, q):
        q = np.asarray(q, dtype=float)
        return np.asarray(self.c_prime(q)) * q / np.asarray(self.c(q))

    def efficient_quality(self, v):
        return _positive_root(self.c_prime, v, self.c_double_prime)


class PolynomialCost(GeneralConvexCost):
    """Convex polynomial cost c(q) = sum coeffs[i] q^i (no constant term)."""

    def __init__(self, coeffs, eta_bar):
        coeffs = tuple(float(x) for x in coeffs)
        if coeffs and coeffs[0] != 0.0:
            raise CostValidationError("polynomial cost must have c(0) = 0")
        poly = np.polynomial.Polynomial(coeffs)
        d1 = poly.deriv(1)
        d2 = poly.deriv(2)
        super().__init__(c=poly, c_prime=d1, c_double_prime=d2,
                         eta_bar=eta_bar)
        self.coeffs = coeffs

    def to_spec(self):
        return {"kind": "poly_cost", "coeffs": list(self.coeffs),
                "eta_bar": self.eta_bar}


@dataclass(frozen=True)
class SeparableQuantityUtility:
    """h(v, q) = v (eta/(eta+1)) q^{(eta+1)/eta}, demand elasticity eta < -1.

    Marginal cost is normalized to 1.
    """

    eta: float

    def __post_init__(self):
        if self.eta >= -1.0:
            raise ValueError("demand elasticity must be below -1")

    def h(self, v, q):
        v = np.asarray(v, dtype=float)
        q = np.asarray(q, dtype=float)
        e = self.eta
        return v * (e / (e + 1.0)) * q ** ((e + 1.0) / e)

    def h_q(self, v, q):
        v = np.asarray(v, dtype=float)
        q = np.asarray(q, dtype=float)
        return v * q ** (1.0 / self.eta)

    def demand(self, v, p):
        v = np.asarray(v, dtype=float)
        p = np.asarray(p, dtype=float)
        return (p / v) ** self.eta

    def elasticity(self, v, p):
        return self.eta

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

    def to_spec(self):
        return {"kind": "separable_quantity", "eta": self.eta}


# the prices p >= 1 (= marginal cost) on which check_band probes the band
_BAND_PRICES = np.geomspace(1.0, 1e3, 64)


@dataclass(frozen=True)
class NonlinearDemandModel:
    """Quantity-side demand D(v,p) = h_q^{-1}(v,p) with a band on elasticity.

    Either supply the marginal utility h_q (decreasing in q) and let demand
    be obtained by monotone inversion, or supply D directly.  Elasticities
    come from central differences in p.

    The elasticity band eta(v,p) in [eta_bar - 1, eta_bar] is enforced on a
    probe grid over p >= 1 only (= marginal cost).
    """

    eta_bar: float
    D: Optional[Callable] = None
    h_q: Optional[Callable] = None

    def __post_init__(self):
        if self.eta_bar >= -1.0:
            raise ValueError("elasticity bound must be below -1")
        if self.D is None and self.h_q is None:
            raise ValueError("provide demand D or marginal utility h_q")

    def demand(self, v, p):
        if np.any(np.asarray(p) <= 0):
            raise ValueError("price must be positive")
        if self.D is not None:
            return np.asarray(self.D(v, p), dtype=float)
        # invert h_q(v, .) = p; h concave in q makes h_q decreasing
        v_arr, p_arr = np.broadcast_arrays(np.asarray(v, dtype=float),
                                           np.asarray(p, dtype=float))
        g = lambda q: -np.asarray(self.h_q(v_arr, q), dtype=float)
        return _monotone_root(g, -p_arr, lo=1e-12)

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
