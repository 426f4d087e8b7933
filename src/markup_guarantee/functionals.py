"""Surplus functionals: efficient surplus, mechanism profit, consumer surplus.

Expectations are split into the absolutely continuous part (one adaptive
quadrature per run of touching density segments, split at their ends and
at the menu's breakpoints, with the tail folded by u = 1/v) and the atom sum,
which is added exactly.  An integrand may return a (k, n) stack of rows that
share the panels, and the expectation is then one value and error per row.

A menu that states its transfers T is reported on them, by definition:
    Pi = E[T(v) - c(Q(v))],    U = E[v Q(v) - T(v)],
one stacked expectation in `full_report` with Q and T evaluated once per
node.  A menu without T is reported by the envelope identity,
    Pi = E[v Q(v) - c(Q(v))] - U,    U = int_0^vbar Q(v) (1 - F(v)) dv,
and `full_report` computes U once and passes it to `mechanism_profit`.

Separable quantity demand is the quality problem at eta_c = eta/(eta+1)
and is reported by `full_report` on the guarantee menu there.  The quantity
report serves non-separable demand, which has no such map: under a uniform
price p* it is one stacked expectation of int_1^inf D dp, D(v, p*)(p* - 1)
and int_{p*}^inf D dp, with the inner quadrature errors of the two surplus
rows as two more rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import ValueDistribution
from .mechanisms import DirectMechanism
from .quadrature import adaptive_quad
from .technology import IsoElasticCost, PolynomialCost

__all__ = [
    "InfiniteSurplusError",
    "SurplusReport",
    "expectation",
    "survival_integral",
    "efficient_surplus",
    "mechanism_profit",
    "consumer_surplus",
    "full_report",
    "quantity_surplus_report",
]

# feasibility slack multiplier over the summed quadrature errors
_FEASIBILITY_HEADROOM = 10.0
_FEASIBILITY_FLOOR = 1e-9


class InfiniteSurplusError(ValueError):
    """Tail condition fails: the efficient surplus diverges."""


def _require_finite_surplus(F: ValueDistribution, cost):
    """Raise InfiniteSurplusError unless F passes the tail condition at the
    cost's elasticity bound.  A cost of elasticity at most eta_bar leaves a
    value v a surplus that grows at least like v^(eta_bar/(eta_bar-1)), so
    the check is necessary under every convex cost.  A polynomial cost of
    degree d >= 2 leaves exactly v^(d/(d-1)), so it is checked at d."""
    eta, name = cost.eta_bar, "eta_bar"
    degree = cost.c.trim().degree() if isinstance(cost, PolynomialCost) else 0
    if degree >= 2:
        eta, name = degree, "the cost's degree"
    if not F.tail_condition(eta):
        raise InfiniteSurplusError(
            f"surplus is infinite: the law fails the tail condition at "
            f"{name} = {eta!r}; truncate the tail explicitly")


def _require_positive_surplus(S):
    """Shares of S are undefined when S is 0 (or underflows to 0)."""
    if not S > 0.0:
        raise ValueError(f"efficient surplus is {S!r}; the shares Pi/S and "
                         "U/S need a law with positive surplus")


def _weighted(g, weight):
    """v -> g(v) weight(v), with g evaluated only where |weight| is at least
    the smallest normal float64, about 2.2e-308, and 0 elsewhere.

    Where a law's density or survival underflows the product is below
    2.2e-308 |g|, and g need not be defined or finite there (a menu's
    virtual value needs a positive density, which a subnormal survival can
    outlive by no margin; a power of v may overflow).
    """
    def integrand(v):
        w = np.asarray(weight(v), dtype=float)
        live = np.abs(w) >= np.finfo(float).tiny
        if live.all():
            return np.asarray(g(v), dtype=float) * w
        gv = np.asarray(g(v[live]), dtype=float)
        out = np.zeros(gv.shape[:-1] + w.shape)
        out[..., live] = gv * w[live]
        return out
    return integrand


def expectation(F: ValueDistribution, g: Callable, breakpoints=()):
    """E[g(v)] = integral of g f over the density segments + atom sum.

    Segments that touch are integrated in one call; the gaps between runs
    of them, where g f is 0, are skipped.  Returns (value, error_estimate),
    arrays with one entry per row when g returns a (k, n) stack.  Raises
    ValueError when g is not finite at an atom, where the sum would be inf
    or NaN.
    """
    value = 0.0
    err = 0.0
    segments = sorted(F.density_segments())
    ends = [e for seg in segments for e in seg]
    runs = []
    for a, b in segments:
        if runs and runs[-1][1] == a:
            runs[-1][1] = b
        else:
            runs.append([a, b])
    integrand = _weighted(g, F.pdf)
    for a, b in runs:
        run_value, run_err = adaptive_quad(integrand, a, b,
                                           points=[*ends, *breakpoints])
        value += run_value
        err += run_err
    if F.atoms():
        locs, masses = np.array(F.atoms()).T
        at_atoms = np.asarray(g(locs), dtype=float)
        finite = np.isfinite(at_atoms).reshape(-1, locs.size).all(axis=0)
        if not finite.all():
            raise ValueError(f"the integrand is not finite at the atom v = "
                             f"{float(locs[~finite][0])!r}: a term there "
                             "passes the float64 limit (about 1.8e308)")
        atom_sum = at_atoms @ masses
        value = value + (atom_sum if np.ndim(atom_sum) else float(atom_sum))
    if np.ndim(value) and not np.ndim(err):
        err = np.zeros_like(value)      # atoms only: the sum is exact
    return value, err


def survival_integral(F: ValueDistribution, g: Callable, breakpoints):
    """int_0^vbar g(v) (1 - F(v)) dv.  Returns (value, error_estimate)."""
    pts = [F.support[0], *breakpoints, *(loc for loc, _ in F.atoms())]
    pts += [e for seg in F.density_segments() for e in seg]
    return adaptive_quad(_weighted(g, F.sf), 0.0, F.support[1], points=pts)


def efficient_surplus(F: ValueDistribution, cost) -> tuple:
    """First-best surplus S_F = E[max_q v q - c(q)].  Returns (value, error).

    For iso-elastic cost this is ((eta-1)/eta) E[v^{eta/(eta-1)}], evaluated
    in closed form when the distribution provides a closed moment.
    """
    _require_finite_surplus(F, cost)
    if isinstance(cost, IsoElasticCost):
        eta = cost.eta
        r = eta / (eta - 1.0)
        try:
            moment = F.power_moment(r)
        except OverflowError:
            moment = math.inf
        if not math.isfinite(moment):
            # the tail condition holds, so the moment is finite: it is past
            # the largest float64, and so is S
            raise ValueError(
                f"efficient surplus overflows float64: E[v^{r:.6g}] at "
                f"eta = {eta!r} is past the largest float")
        return ((eta - 1.0) / eta) * moment, 0.0

    # general convex cost: per-value surplus via the efficient quality
    def s_of_v(v):
        v_arr = np.atleast_1d(np.asarray(v, dtype=float))
        q = np.asarray(cost.efficient_quality(v_arr), dtype=float)
        return v_arr * q - np.asarray(cost.c(q), dtype=float)

    return expectation(F, s_of_v)


def _stated_payoffs(F: ValueDistribution, M: DirectMechanism, cost):
    """((Pi, U), (err_Pi, err_U)) of a menu that states T: E[T - c(Q)] and
    E[v Q - T] in one stacked expectation, Q and T evaluated once per node."""
    def payoffs(v):
        v_arr = np.asarray(v, dtype=float)
        q = np.asarray(M.Q(v_arr), dtype=float)
        t = np.asarray(M.T(v_arr), dtype=float)
        return np.stack([t - np.asarray(cost.c(q), dtype=float), v_arr * q - t])
    return expectation(F, payoffs, breakpoints=M.breakpoints)


def mechanism_profit(F: ValueDistribution, M: DirectMechanism, cost, *,
                     rent=None) -> tuple:
    """Expected profit of menu M against F.  Returns (value, error).

    A menu that states its transfers is reported on them, not on the
    envelope: Pi = E[T(v) - c(Q(v))], and rent is not used.  Otherwise
    Pi = E[v Q(v) - c(Q(v))] - U, with rent the (value, error) pair
    `consumer_surplus(F, M)` returns when the caller has it; computed here
    when None.
    """
    if M.T is not None:
        (Pi, _), (err, _) = _stated_payoffs(F, M, cost)
        return Pi, err

    def margin(v):
        v_arr = np.asarray(v, dtype=float)
        q = np.asarray(M.Q(v_arr), dtype=float)
        return v_arr * q - np.asarray(cost.c(q), dtype=float)

    first, e1 = expectation(F, margin, breakpoints=M.breakpoints)
    U, e2 = consumer_surplus(F, M) if rent is None else rent
    return first - U, e1 + e2


def consumer_surplus(F: ValueDistribution, M: DirectMechanism) -> tuple:
    """Expected buyer surplus U of menu M against F.  Returns (value, error).

    A menu that states its transfers is reported on them, not on the
    envelope: U = E[v Q(v) - T(v)].  Otherwise U = int Q(v)(1 - F(v)) dv,
    the envelope form.
    """
    if M.T is not None:
        return expectation(F, lambda v: np.asarray(M.rent(v), dtype=float),
                           breakpoints=M.breakpoints)
    return survival_integral(F, M.Q, breakpoints=M.breakpoints)


@dataclass(frozen=True)
class SurplusReport:
    S: float
    Pi: float
    U: float
    pi_ratio: float
    u_ratio: float
    err_S: float
    err_Pi: float
    err_U: float

    def csv_row(self):
        return [f"{x:.17g}" for x in
                (self.S, self.Pi, self.U, self.pi_ratio, self.u_ratio,
                 self.err_S, self.err_Pi, self.err_U)]

    csv_header = ("S", "Pi", "U", "pi_ratio", "u_ratio",
                  "err_S", "err_Pi", "err_U")


def full_report(F: ValueDistribution, M: DirectMechanism, cost) -> SurplusReport:
    """Bundle (S, Pi, U) with normalized ratios and quadrature errors.

    A menu that states its transfers is reported on them, not on the
    envelope: Pi = E[T - c(Q)] and U = E[v Q - T] come from one stacked
    expectation, with Q and T evaluated once per node and no survival
    integral.  A menu without T gets U from the survival integral, once,
    and Pi from `mechanism_profit`.
    """
    S, err_S = efficient_surplus(F, cost)
    _require_positive_surplus(S)
    if M.T is not None:
        (Pi, U), (err_Pi, err_U) = _stated_payoffs(F, M, cost)
    else:
        U, err_U = consumer_surplus(F, M)
        Pi, err_Pi = mechanism_profit(F, M, cost, rent=(U, err_U))
    slack = max(_FEASIBILITY_HEADROOM * (err_S + err_Pi + err_U),
                _FEASIBILITY_FLOOR * max(1.0, S))
    if Pi + U > S + slack:
        raise ArithmeticError(
            f"feasibility violated beyond quadrature noise: Pi+U={Pi + U!r} "
            f"> S={S!r}")
    return SurplusReport(S=S, Pi=Pi, U=U, pi_ratio=Pi / S, u_ratio=U / S,
                         err_S=err_S, err_Pi=err_Pi, err_U=err_U)


def quantity_surplus_report(F: ValueDistribution, model, p_star: float) -> SurplusReport:
    """Surplus report for quantity discrimination under a uniform price.

    Per value, with unit cost 1: S = int_1^inf D(v, p) dp, Pi = D(v, p*)
    (p* - 1) and U = int_{p*}^inf D(v, p) dp, one stacked expectation with
    one `model.surplus_above` call per surplus row and integrand call; the
    errors of those rows are two more rows, added to err_S and err_U.
    """
    def rows(v):
        v_arr = np.asarray(v, dtype=float)
        demand = np.asarray(model.demand(v_arr, p_star), dtype=float)
        s, err_s = model.surplus_above(v_arr, 1.0)
        u, err_u = model.surplus_above(v_arr, p_star)
        return np.stack([s, demand * (p_star - 1.0), u, err_s, err_u])

    (S, Pi, U, inner_S, inner_U), (err_S, err_Pi, err_U, _, _) = \
        expectation(F, rows)
    _require_positive_surplus(S)
    return SurplusReport(S=S, Pi=Pi, U=U, pi_ratio=Pi / S, u_ratio=U / S,
                         err_S=err_S + inner_S, err_Pi=err_Pi,
                         err_U=err_U + inner_U)
