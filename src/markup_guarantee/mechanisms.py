"""Selling mechanisms: direct menus and the constant-markup rule.

A direct mechanism is a pair of evaluators (Q, T) over buyer values, with Q
nondecreasing.  The iso-elastic constant-markup menu, the guarantee menu
among them, states its envelope transfer c(Q)/z in closed form.  The
root-solved markup menu and the Bayes-optimal menus of screening.py state no
T; their transfers come from T(v) = v Q(v) - int_0^v Q(s) ds by quadrature.
Either way the menu is incentive compatible.  The markups and prices the
guarantees certify, with their shares, are closed forms in guarantees.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .quadrature import adaptive_quad
from .technology import IsoElasticCost

__all__ = [
    "DirectMechanism",
    "guarantee_mechanism",
    "envelope_transfer",
    "constant_markup_mechanism",
    "ic_audit",
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


def guarantee_mechanism(eta: float) -> DirectMechanism:
    """The distribution-free profit-guarantee menu: the constant-markup menu
    of the iso-elastic cost c(q) = q^eta/eta at z = 1/eta.

    Q(v) = (v/eta)^{1/(eta-1)} and T(v) = c(Q(v))/z = (v/eta)^{eta/(eta-1)}.
    """
    return constant_markup_mechanism(IsoElasticCost(eta), 1.0 / eta)


def envelope_transfer(Q, v, breakpoints):
    """T(v) = v Q(v) - int_0^v Q(s) ds by quadrature."""
    v = float(v)
    if v <= 0.0:
        return 0.0
    integral = adaptive_quad(lambda s: np.asarray(Q(s), dtype=float), 0.0, v,
                             points=breakpoints).value
    return v * float(np.asarray(Q(v))) - integral


def constant_markup_mechanism(cost, z) -> DirectMechanism:
    """Allocate q(v) with c'(q(v)) = z v, for a markup multiplier z in (0, 1).

    Substituting s = c'(q)/z in the envelope identity gives
    T(v) = c(Q(v))/z, which the iso-elastic menu states in closed form,
    (z v)^r/(eta z) with r = eta/(eta-1).
    """
    if not 0.0 < z < 1.0:
        raise ValueError("markup multiplier z must lie in (0,1)")

    def Q(v):
        return cost.efficient_quality(
            z * np.maximum(np.asarray(v, dtype=float), 0.0))

    T = None
    if isinstance(cost, IsoElasticCost):
        p = 1.0 / (cost.eta - 1.0)

        def T(v):
            zv = z * np.maximum(np.asarray(v, dtype=float), 0.0)
            return zv ** (p + 1.0) / (cost.eta * z)

    return DirectMechanism(Q=Q, T=T)


@dataclass(frozen=True)
class ICAuditReport:
    max_ic_violation: float
    max_ir_violation: float


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
    return ICAuditReport(
        max_ic_violation=float(max(gaps.max(), 0.0)),
        max_ir_violation=float(max((-utility).max(), 0.0)),
    )

