"""Selling mechanisms: direct menus, indirect tariffs, and markup rules.

A direct mechanism is a pair of evaluators (Q, T) over buyer values, with Q
nondecreasing.  The iso-elastic constant-markup menu, the guarantee menu
among them, states its envelope transfer c(Q)/z in closed form.  The
root-solved markup menu and the Bayes-optimal menus of screening.py state no
T; their transfers come from T(v) = v Q(v) - int_0^v Q(s) ds by quadrature.
Either way the menu is incentive compatible.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .quadrature import adaptive_quad
from .technology import IsoElasticCost, _monotone_root

__all__ = [
    "DirectMechanism",
    "IndirectTariff",
    "MarkupMechanism",
    "UniformPriceMechanism",
    "guarantee_mechanism",
    "envelope_transfer",
    "marginal_price",
    "constant_markup_mechanism",
    "uniform_price_mechanism",
    "ic_audit",
    "menu_to_csv",
    "tariff_to_csv",
]


@dataclass(frozen=True)
class DirectMechanism:
    """Menu {Q(v), T(v)}; Q nondecreasing.

    Q (and T, when given) must accept numpy arrays.  A stated T is what the
    menu charges, and reports take it as given; without T, transfers come
    from the envelope identity.  breakpoints lists the values where Q or T
    is not smooth (kinks, jumps, exclusion thresholds) so integrators can
    split panels there.
    """

    Q: Callable
    T: Optional[Callable] = None
    breakpoints: tuple = ()
    label: str = ""

    def transfer(self, v):
        if self.T is not None:
            return self.T(v)
        v_arr = np.atleast_1d(np.asarray(v, dtype=float))
        out = np.array([envelope_transfer(self.Q, x, breakpoints=self.breakpoints)
                        for x in v_arr])
        return out if np.ndim(v) else float(out[0])

    def rent(self, v):
        """Information rent v Q(v) - T(v)."""
        return np.asarray(v, dtype=float) * np.asarray(self.Q(v)) - np.asarray(self.transfer(v))


@dataclass(frozen=True)
class IndirectTariff:
    """Marginal price schedule p(q) and total payment P(q), which is
    int_0^q p when the menu charges the envelope transfer."""

    p: Callable
    P: Callable


@dataclass(frozen=True)
class MarkupMechanism:
    """Allocation rule c'(q(v)) = z v wrapped as a direct mechanism."""

    z: float
    mechanism: DirectMechanism

    def __post_init__(self):
        if not (0.0 < self.z < 1.0):
            raise ValueError("markup multiplier z must lie in (0,1)")

    @property
    def lerner_markup(self):
        return 1.0 - self.z


@dataclass(frozen=True)
class UniformPriceMechanism:
    """Constant per-unit price; marginal cost normalized to 1."""

    p_star: float

    def __post_init__(self):
        if self.p_star <= 1.0:
            raise ValueError("uniform price must exceed the unit cost")


def guarantee_mechanism(eta: float) -> DirectMechanism:
    """The distribution-free profit-guarantee menu: the constant-markup menu
    of the iso-elastic cost c(q) = q^eta/eta at z = 1/eta.

    Q(v) = (v/eta)^{1/(eta-1)} and T(v) = c(Q(v))/z = (v/eta)^{eta/(eta-1)}.
    """
    markup = constant_markup_mechanism(IsoElasticCost(eta), z=1.0 / eta)
    return markup.mechanism


def envelope_transfer(Q, v, breakpoints=()):
    """T(v) = v Q(v) - int_0^v Q(s) ds by quadrature."""
    v = float(v)
    if v <= 0.0:
        return 0.0
    integral = adaptive_quad(lambda s: np.asarray(Q(s), dtype=float), 0.0, v,
                             points=breakpoints).value
    return v * float(np.asarray(Q(v))) - integral


def marginal_price(M: DirectMechanism, v_hi=None) -> IndirectTariff:
    """Indirect tariff p(q) = Q^{-1}(q) by monotone inversion, and the
    payment P(q) = T(p(q)), the menu's transfer at the type that buys q.

    Q must be strictly increasing and continuous on the queried range; flat
    segments (ironed menus) raise on inversion rather than inventing prices
    inside quantity gaps.
    """
    def p(q):
        q_arr = np.atleast_1d(np.asarray(q, dtype=float))
        out = np.zeros_like(q_arr)
        pos = ~(q_arr <= 0)
        if pos.any():
            qq = q_arr[pos]
            g = lambda v: np.asarray(M.Q(v), dtype=float)
            v = _monotone_root(g, qq, lo=0.0, hi=v_hi)
            gap = np.abs(g(v) - qq) > 1e-6 * np.maximum(1.0, qq)
            # detect flat segments: Q must actually move near v
            h = np.maximum(1e-8, 1e-8 * v)
            flat = g(v + h) - g(np.maximum(v - h, 0.0)) <= 0.0
            bad = np.flatnonzero(gap | flat)
            if bad.size:
                i = bad[0]
                if gap[i]:
                    raise ValueError(
                        f"no type is allocated q={qq[i]:g}; the menu jumps "
                        "past it (quantity gap)")
                raise ValueError(
                    f"allocation is flat near q={qq[i]:g}; the tariff has a "
                    "quantity gap there")
            out[pos] = v
        return out if np.ndim(q) else float(out[0])

    def P(q):
        # Young's identity: int_0^{Q(v)} Q^{-1} = v Q(v) - int_0^v Q = T(v)
        return float(M.transfer(p(q)))

    return IndirectTariff(p=p, P=P)


def constant_markup_mechanism(cost, z=None) -> MarkupMechanism:
    """Allocate q(v) with c'(q(v)) = z v, z = 1/(sqrt(eta_bar - 1) + 1).

    The default z certifies a bound derived for eta_bar >= 2; below 2 it
    warns.  Substituting s = c'(q)/z in the envelope identity gives
    T(v) = c(Q(v))/z, which the iso-elastic menu states in closed form,
    (z v)^r/(eta z) with r = eta/(eta-1).
    """
    eta_bar = cost.eta_bar
    if z is None:
        z = 1.0 / (math.sqrt(eta_bar - 1.0) + 1.0)
        if eta_bar < 2.0:
            import warnings
            warnings.warn("constant-markup guarantee is derived for "
                          "eta_bar >= 2", stacklevel=2)

    def Q(v):
        return cost.efficient_quality(
            z * np.maximum(np.asarray(v, dtype=float), 0.0))

    T = None
    if isinstance(cost, IsoElasticCost):
        p = 1.0 / (cost.eta - 1.0)

        def T(v):
            zv = z * np.maximum(np.asarray(v, dtype=float), 0.0)
            return zv ** (p + 1.0) / (cost.eta * z)

    mech = DirectMechanism(Q=Q, T=T, label=f"constant_markup(z={z:g})")
    return MarkupMechanism(z=z, mechanism=mech)


def uniform_price_mechanism(eta_bar: float) -> UniformPriceMechanism:
    """Quantity-discrimination guarantee price p* = eta_bar/(eta_bar + 1)."""
    if eta_bar >= -1.0:
        raise ValueError("demand elasticity bound must be below -1")
    return UniformPriceMechanism(p_star=eta_bar / (eta_bar + 1.0))


@dataclass(frozen=True)
class ICAuditReport:
    max_ic_violation: float
    max_ir_violation: float
    worst_pair: tuple

    @property
    def passed(self):
        return max(self.max_ic_violation, self.max_ir_violation) <= 1e-9


def ic_audit(M: DirectMechanism, grid: Sequence[float]) -> ICAuditReport:
    """Pairwise incentive and participation audit on a value grid.

    Pairwise checks catch global deviations that derivative conditions miss
    under ironing-induced flats.
    """
    grid = np.asarray(sorted(grid), dtype=float)
    if grid.size > 512:
        raise ValueError("audit grid capped at 512 points (O(n^2) pairs)")
    Qv = np.asarray(M.Q(grid), dtype=float)
    Tv = np.asarray(M.transfer(grid), dtype=float)
    utility = grid * Qv - Tv                     # truthful payoff per type
    deviate = grid[:, None] * Qv[None, :] - Tv[None, :]
    gaps = deviate - utility[:, None]
    i, j = np.unravel_index(np.argmax(gaps), gaps.shape)
    return ICAuditReport(
        max_ic_violation=float(max(gaps.max(), 0.0)),
        max_ir_violation=float(max((-utility).max(), 0.0)),
        worst_pair=(float(grid[i]), float(grid[j])),
    )


def menu_to_csv(M: DirectMechanism, grid, path):
    """Export (v, Q(v), T(v)) rows with 17 significant digits."""
    grid = np.asarray(grid, dtype=float)
    Qv = np.asarray(M.Q(grid), dtype=float)
    Tv = np.asarray(M.transfer(grid), dtype=float)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["v", "Q", "T"])
        for v, q, t in zip(grid, Qv, Tv):
            w.writerow([f"{v:.17g}", f"{q:.17g}", f"{t:.17g}"])


def tariff_to_csv(tariff: IndirectTariff, grid, path):
    """Export (q, p(q), P(q)) rows with 17 significant digits."""
    grid = np.asarray(grid, dtype=float)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["q", "p", "P"])
        for q in grid:
            w.writerow([f"{q:.17g}", f"{tariff.p(q):.17g}", f"{tariff.P(q):.17g}"])
