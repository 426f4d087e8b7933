"""Bayes-optimal screening: virtual values, ironing, and a discrete oracle.

Ironing operates in quantile space: the running integral of the virtual
value along quantiles is replaced by its greatest convex minorant, whose
(nondecreasing) derivative is the ironed virtual value.  Outside ironed
intervals the curve coincides with the raw virtual value exactly; inside,
it equals the conditional mean of the raw value, recomputed by quadrature
so the reported constants do not inherit grid noise.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import ValueDistribution
from .mechanisms import DirectMechanism
from .quadrature import adaptive_quad
from .technology import IsoElasticCost

__all__ = [
    "VirtualValueCurve",
    "DiscreteScreeningInstance",
    "OracleResult",
    "virtual_value",
    "iron",
    "bayes_optimal_mechanism",
    "bayes_markup_curve",
    "discrete_oracle",
    "discrete_virtual_values",
    "discretize",
]

# phi_bar values in (-EXCLUSION_TOL, 0) are clipped to 0 to avoid spurious
# exclusion jitter at the participation boundary
EXCLUSION_TOL = 1e-12


class AtomError(ValueError):
    """Virtual value requested at a mass point of the distribution."""


def virtual_value(F: ValueDistribution, v):
    """phi(v) = v - (1 - F(v)) / f(v), for F absolutely continuous at v."""
    v_arr = np.asarray(v, dtype=float)
    atom_locs = np.asarray([loc for loc, _ in F.atoms()])
    if atom_locs.size and np.any(np.isclose(np.atleast_1d(v_arr)[:, None],
                                            atom_locs[None, :],
                                            rtol=1e-13, atol=0.0)):
        raise AtomError("virtual value is undefined at a mass point; use the "
                        "discrete screening path")
    f = np.asarray(F.pdf(v_arr), dtype=float)
    if np.any(f <= 0.0):
        raise ValueError("virtual value needs a positive density at v")
    return v_arr - np.asarray(F.sf(v_arr), dtype=float) / f


@dataclass(frozen=True)
class VirtualValueCurve:
    """Raw and ironed virtual values with the intervals where ironing binds."""

    distribution: ValueDistribution
    ironed_intervals: tuple          # ((v_lo, v_hi, constant), ...)
    top_atom: Optional[tuple] = None  # (location, mass) or None

    def phi(self, v):
        return virtual_value(self.distribution, v)

    def phi_bar(self, v):
        v_arr = np.atleast_1d(np.asarray(v, dtype=float))
        out = np.empty_like(v_arr)
        regular = np.ones(v_arr.shape, dtype=bool)
        for lo, hi, const in self.ironed_intervals:
            inside = (v_arr >= lo) & (v_arr <= hi)
            out[inside] = const
            regular &= ~inside
        if self.top_atom is not None:
            at_top = v_arr >= self.top_atom[0]
            out[at_top] = self.top_atom[0]
            regular &= ~at_top
        if regular.any():
            out[regular] = virtual_value(self.distribution, v_arr[regular])
        return out if np.ndim(v) else float(out[0])

    def is_ironed(self, v):
        v_arr = np.atleast_1d(np.asarray(v, dtype=float))
        flag = np.zeros(v_arr.shape, dtype=bool)
        for lo, hi, _ in self.ironed_intervals:
            flag |= (v_arr >= lo) & (v_arr <= hi)
        return flag if np.ndim(v) else bool(flag[0])

    def breakpoints(self):
        pts = []
        for lo, hi, _ in self.ironed_intervals:
            pts.extend([lo, hi])
        if self.top_atom is not None:
            pts.append(self.top_atom[0])
        return tuple(sorted(pts))


def _lower_convex_hull(x, y):
    """Indices of the greatest convex minorant of the points (x, y).

    Single monotone-chain pass; x must be strictly increasing.
    """
    hull = []
    for i in range(len(x)):
        while len(hull) >= 2:
            i1, i2 = hull[-2], hull[-1]
            # drop i2 if it lies on or above the chord i1 -> i
            cross = ((x[i2] - x[i1]) * (y[i] - y[i1])
                     - (y[i2] - y[i1]) * (x[i] - x[i1]))
            if cross <= 0.0:
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


def iron(F: ValueDistribution, n_grid: int = 10_000) -> VirtualValueCurve:
    """Iron the virtual value of F by concavification in quantile space.

    Atoms are allowed only at the top of the support; the atom is handled as
    a terminal segment where the ironed value equals the atom location (no
    rent is owed above the top type).
    """
    lo, hi = F.support
    atoms = F.atoms()
    top_atom = None
    if atoms:
        if len(atoms) > 1 or atoms[0][0] < hi:
            raise ValueError("ironing supports atoms only at the top of the "
                             "support; use the discrete path for atomic laws")
        top_atom = atoms[0]
    cont_mass = 1.0 - (top_atom[1] if top_atom else 0.0)
    if cont_mass <= 0.0:
        raise ValueError("distribution has no continuous part to iron")

    # quantile grid over the continuous part; skip the exact endpoints where
    # the density may vanish
    eps = cont_mass / n_grid * 1e-6
    s = np.linspace(eps, cont_mass - eps, n_grid)
    v = np.asarray(F.quantile(s), dtype=float)
    # guard against flat quantile stretches from numerical inversion
    keep = np.concatenate([[True], np.diff(v) > 0.0])
    s, v = s[keep], v[keep]
    phi = np.asarray(virtual_value(F, v), dtype=float)

    # cumulative virtual value along quantiles (trapezoid)
    psi = np.concatenate([[0.0], np.cumsum(0.5 * (phi[1:] + phi[:-1]) * np.diff(s))])
    hull = _lower_convex_hull(s, psi)

    intervals = []
    cell = (s[-1] - s[0]) / max(len(s) - 1, 1)
    for i1, i2 in zip(hull, hull[1:]):
        if i2 - i1 <= 1:
            continue
        a, b = float(v[i1]), float(v[i2])
        if (s[i2] - s[i1]) < 4 * cell:
            warnings.warn(
                f"ironed interval ({a:g}, {b:g}) spans fewer than 4 grid "
                "cells; increase n_grid", stacklevel=2)
        # polish the constant: conditional mean of phi on (a, b)
        num = adaptive_quad(
            lambda x: np.asarray(virtual_value(F, x), dtype=float)
            * np.asarray(F.pdf(x), dtype=float), a, b).value
        den = float(np.asarray(F.cdf(b)) - np.asarray(F.cdf(a)))
        const = num / den if den > 0 else float((psi[i2] - psi[i1]) / (s[i2] - s[i1]))
        intervals.append((a, b, const))

    return VirtualValueCurve(distribution=F, ironed_intervals=tuple(intervals),
                             top_atom=top_atom)


def _is_purely_atomic(F):
    return bool(F.atoms()) and not F.density_segments()


def _exclusion_threshold(curve: VirtualValueCurve):
    """Smallest served value: where phi_bar crosses 0 (None if all served)."""
    F = curve.distribution
    lo, hi = F.support
    probe_hi = curve.top_atom[0] if curve.top_atom else hi
    if math.isinf(probe_hi):
        # walk up until phi_bar turns nonnegative; nondecreasing, so the
        # crossing is bracketed once found
        probe_hi = max(2.0 * lo, lo + 1.0)
        while float(np.asarray(curve.phi_bar(probe_hi))) < 0.0:
            probe_hi *= 2.0
            if probe_hi > 1e12:
                raise ValueError("ironed virtual value never turns positive")
    probe_lo = lo + max(1e-12, abs(lo) * 1e-12, (probe_hi - lo) * 1e-9)
    if float(np.asarray(curve.phi_bar(probe_lo))) >= 0.0:
        return None
    # bisect on phi_bar (nondecreasing)
    a, b = lo, probe_hi
    for _ in range(200):
        mid = 0.5 * (a + b)
        if float(np.asarray(curve.phi_bar(mid))) < 0.0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def bayes_optimal_mechanism(F: ValueDistribution, cost: IsoElasticCost,
                            n_grid: int = 10_000) -> DirectMechanism:
    """Seller-optimal menu for F under iso-elastic cost.

    First-order condition c'(Q) = phi_bar gives Q(v) = max(phi_bar(v), 0)
    raised to 1/(eta-1); types with negative ironed virtual value are
    excluded (Q = 0, T = 0).  Purely atomic laws are solved exactly by the
    discrete screening reduction instead of ironing.
    """
    eta = cost.eta
    if not F.tail_condition(eta):
        raise ValueError("surplus is infinite for this (F, eta); truncate the "
                         "tail explicitly")
    if _is_purely_atomic(F):
        values = np.array([loc for loc, _ in F.atoms()])
        masses = np.array([m for _, m in F.atoms()])
        phi_bar = _ironed_discrete_virtuals(values, masses)
        q = np.maximum(phi_bar, 0.0) ** (1.0 / (eta - 1.0))
        t = _adjacent_ic_transfers(values, q)

        def Q(v):
            v_arr = np.asarray(v, dtype=float)
            idx = np.searchsorted(values, v_arr, side="right") - 1
            alloc = np.where(idx >= 0, q[np.maximum(idx, 0)], 0.0)
            return alloc

        def T(v):
            v_arr = np.asarray(v, dtype=float)
            idx = np.searchsorted(values, v_arr, side="right") - 1
            return np.where(idx >= 0, t[np.maximum(idx, 0)], 0.0)

        return DirectMechanism(Q=Q, T=T, breakpoints=tuple(values),
                               label="bayes_optimal(discrete)")

    curve = iron(F, n_grid=n_grid)
    lo, hi = F.support
    v_cut = _exclusion_threshold(curve)
    power = 1.0 / (eta - 1.0)
    top = curve.top_atom

    def Q(v):
        v_arr = np.atleast_1d(np.asarray(v, dtype=float))
        out = np.zeros_like(v_arr)
        served = v_arr >= (v_cut if v_cut is not None else lo)
        if top is not None:
            at_top = v_arr >= top[0]
            out[at_top] = top[0] ** power
            served &= ~at_top
        if served.any():
            pb = np.asarray(curve.phi_bar(v_arr[served]), dtype=float)
            pb = np.where(pb > -EXCLUSION_TOL, np.maximum(pb, 0.0), pb)
            out[served] = np.maximum(pb, 0.0) ** power
        return out if np.ndim(v) else float(out[0])

    bps = set(curve.breakpoints())
    bps.add(lo)
    if v_cut is not None:
        bps.add(v_cut)
    mech = DirectMechanism(Q=Q, breakpoints=tuple(sorted(bps)),
                           label="bayes_optimal")
    # stash the curve for callers that want markup diagnostics
    object.__setattr__(mech, "virtual_curve", curve)
    return mech


def bayes_markup_curve(F: ValueDistribution, cost: IsoElasticCost,
                       curve: Optional[VirtualValueCurve] = None):
    """Lerner markup of the Bayes-optimal menu: (1-F(v)) / (f(v) v).

    Defined only on the regular region; raises inside ironed intervals.
    """
    if curve is None:
        curve = iron(F)

    def markup(v):
        v_arr = np.atleast_1d(np.asarray(v, dtype=float))
        if np.any(curve.is_ironed(v_arr)):
            raise ValueError("markup is undefined inside ironed intervals")
        f = np.asarray(F.pdf(v_arr), dtype=float)
        m = np.asarray(F.sf(v_arr), dtype=float) / (f * v_arr)
        return m if np.ndim(v) else float(m[0])

    return markup


# ---------------------------------------------------------------------------
# discrete screening oracle
# ---------------------------------------------------------------------------

def discrete_virtual_values(values, masses):
    """Adjacent-IC virtual values: phi_i = v_i - (1 - F_i)(v_{i+1} - v_i)/f_i."""
    values = np.asarray(values, dtype=float)
    masses = np.asarray(masses, dtype=float)
    cum = np.cumsum(masses)
    phi = values.copy()
    phi[:-1] -= (1.0 - cum[:-1]) * np.diff(values) / masses[:-1]
    return phi


def _ironed_discrete_virtuals(values, masses):
    """Iron discrete virtual values via the convex minorant of their
    mass-weighted running sum."""
    phi = discrete_virtual_values(values, masses)
    masses = np.asarray(masses, dtype=float)
    x = np.concatenate([[0.0], np.cumsum(masses)])
    y = np.concatenate([[0.0], np.cumsum(phi * masses)])
    hull = _lower_convex_hull(x, y)
    out = np.empty_like(phi)
    for i1, i2 in zip(hull, hull[1:]):
        slope = (y[i2] - y[i1]) / (x[i2] - x[i1])
        out[i1:i2] = slope
    return out


def _adjacent_ic_transfers(values, q):
    """t_i = v_i q_i - sum_{j<i} (v_{j+1} - v_j) q_j (IR binds at the bottom)."""
    values = np.asarray(values, dtype=float)
    q = np.asarray(q, dtype=float)
    rent = np.concatenate([[0.0], np.cumsum(np.diff(values) * q[:-1])])
    return values * q - rent


@dataclass(frozen=True)
class DiscreteScreeningInstance:
    values: tuple
    masses: tuple
    cost: IsoElasticCost
    quality_grid: tuple = ()

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        masses = tuple(float(m) for m in self.masses)
        grid = tuple(sorted(float(q) for q in self.quality_grid))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "quality_grid", grid)
        if any(v2 <= v1 for v1, v2 in zip(values, values[1:])):
            raise ValueError("values must be strictly ascending")
        if abs(sum(masses) - 1.0) > 1e-12:
            raise ValueError("masses must sum to 1")
        if grid and grid[0] != 0.0:
            raise ValueError("quality grid must include 0")

    def to_spec(self):
        return {"values": list(self.values), "masses": list(self.masses),
                "eta": self.cost.eta, "quality_grid": list(self.quality_grid)}

    @classmethod
    def from_spec(cls, spec):
        return cls(values=tuple(spec["values"]), masses=tuple(spec["masses"]),
                   cost=IsoElasticCost(eta=spec["eta"]),
                   quality_grid=tuple(spec.get("quality_grid", ())))


@dataclass(frozen=True)
class OracleResult:
    profit: float
    allocation: tuple
    mode: str
    warnings: tuple = ()


def discrete_oracle(inst: DiscreteScreeningInstance,
                    mode: str = "exhaustive") -> OracleResult:
    """Optimal screening for a discrete-type instance.

    exhaustive: exact dynamic program over nondecreasing quality vectors on
    the grid, priced by binding adjacent ICs downward.  With those ICs profit
    is separable, sum_i w_i q_i - m_i c(q_i) with marginal revenue
    w_i = m_i v_i - (v_{i+1} - v_i)(1 - F_i), so a suffix maximum from the
    top type down and a forward pass of first maximisers give the
    lexicographically smallest optimal menu.  reduced: maximize the
    ironed-virtual-value objective type by type (exact, no grid).
    """
    values = np.asarray(inst.values, dtype=float)
    masses = np.asarray(inst.masses, dtype=float)
    cost = inst.cost
    notes = []

    if mode == "reduced":
        phi_bar = _ironed_discrete_virtuals(values, masses)
        q = np.maximum(phi_bar, 0.0) ** (1.0 / (cost.eta - 1.0))
        profit = float((masses * (phi_bar * q - np.asarray(cost.c(q)))).sum())
        return OracleResult(profit=profit, allocation=tuple(q), mode="reduced")

    if mode != "exhaustive":
        raise ValueError("mode must be 'exhaustive' or 'reduced'")
    grid = np.asarray(inst.quality_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("exhaustive mode needs a quality grid")

    weight = masses * values
    weight[:-1] -= np.diff(values) * (1.0 - np.cumsum(masses)[:-1])
    gain = weight[:, None] * grid - masses[:, None] * np.asarray(cost.c(grid))
    # after this loop gain[i, g] is the best profit from types i.. with
    # type i at grid point g and every type above at g or higher
    best_above = np.zeros(grid.size)
    for row in gain[::-1]:
        row += best_above
        best_above = np.maximum.accumulate(row[::-1])[::-1]
    idx = [0]
    for row in gain:
        idx.append(idx[-1] + int(np.argmax(row[idx[-1]:])))
    best_alloc = grid[idx[1:]]
    # price the menu by its transfers, as a seller would collect them
    t = _adjacent_ic_transfers(values, best_alloc)
    best_profit = float(((t - np.asarray(cost.c(best_alloc))) * masses).sum())

    if np.any(np.isclose(best_alloc, grid[-1])) and grid[-1] > 0:
        notes.append("optimum touches the top of the quality grid; the grid "
                     "may be too coarse")
    return OracleResult(profit=best_profit, allocation=tuple(best_alloc),
                        mode="exhaustive", warnings=tuple(notes))


def discretize(F: ValueDistribution, n_types: int) -> tuple:
    """Equal-mass discretization by conditional means on quantile bins.

    Returns (values, masses).
    """
    edges = np.linspace(0.0, 1.0, n_types + 1)
    v_edges = np.asarray(F.quantile(np.clip(edges, 1e-12, 1.0 - 1e-12)), dtype=float)
    values = []
    for a, b in zip(v_edges[:-1], v_edges[1:]):
        if b <= a:
            values.append(a)
            continue
        num = adaptive_quad(lambda v: np.asarray(v) * F.pdf(v), a, b).value
        den = adaptive_quad(lambda v: np.asarray(F.pdf(v), dtype=float), a, b).value
        # fold any atom mass in the bin into the conditional mean
        for loc, mass in F.atoms():
            if a < loc <= b:
                num += mass * loc
                den += mass
        values.append(num / den if den > 0 else 0.5 * (a + b))
    masses = np.full(n_types, 1.0 / n_types)
    return tuple(values), tuple(masses)
