"""End-to-end acceptance battery.

Each test prints a single PASS/FAIL line for its criterion (visible with
pytest -s or in failure output) and asserts at the stated tolerance.
"""

import math
import time

import numpy as np
import pytest

import markup_guarantee as mg
from markup_guarantee import screening

ETA_GRID = (1.5, 2.0, 3.0, 5.0)


def _battery(eta):
    boundary = eta / (eta - 1.0)
    ten = mg.Discrete(values=tuple(1.0 + 0.4 * i for i in range(10)),
                      masses=(0.1,) * 10)
    return [
        mg.Uniform(0.0, 1.0),
        mg.Binary(1.0, 2.0, 0.3),
        mg.TruncatedPareto(alpha=boundary + 0.5, k=100.0),
        mg.PointMass(1.0),
        ten,
    ]


def _random_mixtures(n=200, seed=20260823):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        k = int(rng.integers(1, 4))
        comps = []
        for _ in range(k):
            if rng.uniform() < 0.5:
                comps.append(mg.Uniform(0.0, float(rng.uniform(0.5, 3.0))))
            else:
                comps.append(mg.Power(alpha=float(rng.uniform(0.5, 4.0))))
        w = rng.dirichlet(np.ones(len(comps)))
        out.append(mg.Mixture(components=tuple(comps), weights=tuple(w.tolist())))
    return out


_MIXTURES = _random_mixtures()
_MIXTURE_REPORTS = {}   # (eta, index) -> SurplusReport, filled lazily


def _mixture_report(eta, i):
    key = (eta, i)
    if key not in _MIXTURE_REPORTS:
        F = _MIXTURES[i]
        cost = mg.IsoElasticCost(eta=eta)
        M = mg.bayes_optimal_mechanism(F, cost)
        _MIXTURE_REPORTS[key] = mg.full_report(F, M, cost)
    return _MIXTURE_REPORTS[key]


def _verdict(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")
    return ok


def test_criterion_01_uniform_profit_ratio():
    t0 = time.time()
    worst = 0.0
    for eta in ETA_GRID:
        M = mg.guarantee_mechanism(eta)
        cost = mg.IsoElasticCost(eta=eta)
        target = mg.guarantee_ratio(eta)
        for F in _battery(eta):
            rep = mg.full_report(F, M, cost)
            worst = max(worst, abs(rep.pi_ratio - target))
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < 10.0
    assert _verdict("criterion 1: uniform profit ratio", ok,
                    f"max dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_uniform_consumer_share():
    worst = 0.0
    for eta in ETA_GRID:
        M = mg.guarantee_mechanism(eta)
        cost = mg.IsoElasticCost(eta=eta)
        target = mg.consumer_share(eta)
        for F in _battery(eta):
            rep = mg.full_report(F, M, cost)
            worst = max(worst, abs(rep.u_ratio - target))
    assert _verdict("criterion 2: uniform consumer share", worst <= 1e-6,
                    f"max dev {worst:.2e}")


def test_criterion_03_limit_values():
    near_one = abs(mg.guarantee_ratio(1.0 + 1e-6) - 1.0 / math.e)
    exact_pi = mg.guarantee_ratio(2.0) == 0.25
    exact_u = mg.consumer_share(2.0) == 0.5
    ok = near_one <= 1e-4 and exact_pi and exact_u
    assert _verdict("criterion 3: limit values", ok,
                    f"|ratio(1+1e-6)-1/e| = {near_one:.2e}")


def _rational_limit(xs, fs):
    """Limit at x = 0 of a (1,1) rational function fit through three points.

    Solves f (1 + c x) = a + b x for (a, b, c); the limit is a.  Exact for
    ratios that are degree-(1,1) rationals of x, which is the form the
    truncated-Pareto surplus ratios take in x = 1/log k.
    """
    xs = np.asarray(xs, dtype=float)
    fs = np.asarray(fs, dtype=float)
    if np.all(fs == fs[0]):
        # the system is singular only for f = a + b/x, whose limit is
        # finite only when b = 0: a constant is its own limit
        return float(fs[0])
    A = np.column_stack([np.ones(3), xs, -xs * fs])
    a, b, c = np.linalg.solve(A, fs)
    return float(a)


def test_rational_limit_recovers_exact_rationals():
    f = lambda x: (0.25 + 3.0 * x) / (1.0 + 2.0 * x)
    xs = [0.1, 0.05, 0.02]
    assert _rational_limit(xs, [f(x) for x in xs]) == pytest.approx(0.25,
                                                                    abs=1e-12)


def test_rational_limit_of_constant_samples():
    # equal samples make the fitting system singular; a constant is an
    # exact (1,1) rational whose limit is itself
    assert _rational_limit([1 / 8, 1 / 14, 1 / 20], [0.3, 0.3, 0.3]) == 0.3


def _bayes_shares(F, cost):
    rep = mg.full_report(F, mg.bayes_optimal_mechanism(F, cost), cost)
    return rep.pi_ratio, rep.u_ratio


def test_criterion_04_saddle_gap():
    """Bayes-optimal edge over the guarantee menu on TruncatedPareto(2, k).

    With quadratic cost the virtual value on [1, k) is v - v^-2 / (2 v^-3)
    = v / 2, and the residual mass k^-2 at k is served efficiently, so
    Pi_bayes = ln k / 4 + 1/2 while the guarantee menu earns S / 4 =
    (ln k + 1/2) / 4.  The absolute edge is 3/8 at every k: 1/8 from the
    top atom, 1/4 from paying no rent to the absent types in [0, 1).  The
    relative gap 3/8 / Pi_bayes = 1.5 / (ln k + 2) = 1.5 x / (1 + 2 x),
    x = 1 / ln k, is a (1,1) rational whose limit at x = 0 is the extremal
    family's zero gap.
    """
    tol = 1e-9
    cost = mg.IsoElasticCost(eta=2.0)
    M_star = mg.guarantee_mechanism(2.0)
    xs, offsets, gaps = [], [], []
    for k in (1e2, 1e3, 1e4):
        F = mg.TruncatedPareto(alpha=2.0, k=k)
        Mb = mg.bayes_optimal_mechanism(F, cost)
        Pi_b, _ = mg.mechanism_profit(F, Mb, cost)
        Pi_g, _ = mg.mechanism_profit(F, M_star, cost)
        xs.append(1.0 / math.log(k))
        offsets.append(Pi_b - Pi_g)
        gaps.append((Pi_b - Pi_g) / Pi_b)
    limit = _rational_limit(xs, gaps)
    monotone = gaps[0] > gaps[1] > gaps[2]
    offset_dev = max(abs(d - 0.375) for d in offsets)
    gap_dev = max(abs(g - 1.5 * x / (1.0 + 2.0 * x)) for g, x in zip(gaps, xs))
    ok = (monotone and offset_dev <= tol and gap_dev <= tol
          and abs(limit) <= tol)
    assert _verdict("criterion 4: saddle gap", ok,
                    f"offset-3/8 {offset_dev:.1e}, "
                    f"gaps {[f'{g:.3%}' for g in gaps]} "
                    f"(closed-form dev {gap_dev:.1e}), limit {limit:.1e}")


def test_criterion_05_frontier_tightness():
    """Bayes outcomes on Pareto(alpha) land on the frontier.  At beta = 1/4
    the shape is alpha = r = 2, where S is infinite; there the outcome is
    the k -> inf limit of the TruncatedPareto(2, k) outcomes, extrapolated
    in x = 1/ln k."""
    cost = mg.IsoElasticCost(eta=2.0)
    worst = 0.0
    for beta in (0.25, 4.0 / 9.0, 0.64, 0.81):
        alpha = 1.0 / (1.0 - math.sqrt(beta))
        if alpha > 2.0:
            pi, u = _bayes_shares(mg.Pareto(alpha), cost)
        else:
            log_ks = (8.0, 14.0, 20.0)
            xs = [1.0 / lk for lk in log_ks]
            shares = [_bayes_shares(mg.TruncatedPareto(alpha, math.exp(lk)),
                                    cost) for lk in log_ks]
            pi, u = (_rational_limit(xs, f) for f in zip(*shares))
        worst = max(worst, abs(pi - beta),
                    abs(u - 2.0 * (math.sqrt(beta) - beta)))
    assert _verdict("criterion 5: frontier tightness", worst <= 1e-4,
                    f"max dev {worst:.2e}")


def test_criterion_06_holder_bound():
    violations = 0
    worst = -1.0
    for i in range(len(_MIXTURES)):
        rep = _mixture_report(2.0, i)
        bound = 2.0 * (math.sqrt(rep.pi_ratio) - rep.pi_ratio)
        gap = rep.u_ratio - bound
        worst = max(worst, gap)
        if gap > 1e-6:
            violations += 1
    assert _verdict("criterion 6: Holder bound on 200 mixtures",
                    violations == 0, f"worst slack {worst:.2e}")


def test_criterion_07_lower_bound():
    bad = 0
    for eta in (2.0, 3.0, 5.0):
        for i in range(len(_MIXTURES)):
            rep = _mixture_report(eta, i)
            if rep.pi_ratio + rep.u_ratio < 1.0 / eta - 1e-6:
                bad += 1
    # near-extremal case: almost all surplus realized, almost none to buyers
    F = mg.TruncatedPareto(alpha=1.001, k=1e3)
    cost = mg.IsoElasticCost(eta=2.0)
    Mb = mg.bayes_optimal_mechanism(F, cost)
    rep = mg.full_report(F, Mb, cost)
    total = rep.pi_ratio + rep.u_ratio
    edge_ok = abs(total - 0.5) < 0.01 * 0.5 and rep.u_ratio < 1e-2
    ok = bad == 0 and edge_ok
    assert _verdict("criterion 7: lower bound", ok,
                    f"violations {bad}, edge total {total:.4f}, "
                    f"edge U/S {rep.u_ratio:.2e}")


def test_bayes_shares_do_not_depend_on_grid(monkeypatch):
    """The ironing grid only finds the intervals; their ends and constants
    are solved exactly, so Pi/S and U/S agree across grid sizes."""
    cost = mg.IsoElasticCost(eta=2.0)
    worst = 0.0
    for i in range(60):
        ref = _mixture_report(2.0, i)
        for n_grid in (1000, 10_000):
            F = _MIXTURES[i]
            with monkeypatch.context() as m:
                m.setattr(screening, "_N_GRID", n_grid)
                rep = mg.full_report(
                    F, mg.bayes_optimal_mechanism(F, cost), cost)
            worst = max(worst, abs(rep.pi_ratio - ref.pi_ratio),
                        abs(rep.u_ratio - ref.u_ratio))
    assert _verdict("grid independence on 60 mixtures", worst <= 1e-9,
                    f"max move {worst:.1e}")


def test_criterion_08_eta2_boundary():
    junction_upper = mg.boundary(2.0, 2.0)
    junction_lower = mg.boundary(2.0 - 1e-16, 2.0)
    agree = (abs(junction_upper.beta - junction_lower.beta) < 1e-15
             and abs(junction_upper.u_over_s - junction_lower.u_over_s) < 1e-15)

    upper = [mg.boundary(a, 2.0) for a in np.geomspace(2.0, 500.0, 50)]
    lower = [mg.boundary(a, 2.0) for a in np.linspace(1.0, 2.0, 50)]
    up_mono = (all(p1.beta < p2.beta for p1, p2 in zip(upper, upper[1:]))
               and all(p1.u_over_s > p2.u_over_s
                       for p1, p2 in zip(upper, upper[1:])))
    lo_mono = (all(p1.beta > p2.beta for p1, p2 in zip(lower, lower[1:]))
               and all(p1.u_over_s < p2.u_over_s
                       for p1, p2 in zip(lower, lower[1:])))

    cost = mg.IsoElasticCost(eta=2.0)
    overlays = [mg.Binary(1.0, 2.0, p) for p in (0.2, 0.5, 0.8)]
    overlays += [mg.Uniform(0.0, 1.0), mg.Uniform(0.5, 1.5)]
    overlays += [mg.Power(alpha=a) for a in (0.5, 1.0, 2.0, 4.0)]
    verdicts = []
    for F in overlays:
        M = mg.bayes_optimal_mechanism(F, cost)
        rep = mg.full_report(F, M, cost)
        verdicts.append(mg.membership(rep.u_ratio, rep.pi_ratio, 2.0,
                                       tol=1e-6))
    no_exterior = all(v in ("interior", "boundary") for v in verdicts)
    ok = agree and up_mono and lo_mono and no_exterior
    assert _verdict("criterion 8: eta=2 boundary", ok,
                    f"junction={agree}, monotone={up_mono and lo_mono}, "
                    f"overlays {sorted(set(verdicts))}")


def test_criterion_09_convex_cost_guarantee():
    cost = mg.PolynomialCost(coeffs=[0.0, 0.0, 0.5, 0.0, 0.25], eta_bar=4.0)
    z, _ = mg.convex_cost_guarantee(cost.eta_bar)
    assert z == pytest.approx(1.0 / (math.sqrt(3.0) + 1.0))
    M = mg.constant_markup_mechanism(cost, z)
    bound = 1.0 / (4.0 + 2.0 * math.sqrt(3.0))
    worst = math.inf
    for F in _battery(2.0):
        S, _ = mg.efficient_surplus(F, cost)
        Pi, _ = mg.mechanism_profit(F, M, cost)
        worst = min(worst, Pi / S - bound)
    assert _verdict("criterion 9: convex-cost guarantee", worst >= -1e-6,
                    f"min slack {worst:.2e}")


def test_criterion_10_quantity_discrimination():
    # separable demand D(v, p) = (p/v)^eta at eta = -2 is the quality
    # problem at eta_c = 2, sold on its guarantee menu; the oracle is the
    # quantity side's own closed forms per value at the uniform price
    # p* = eta_c and unit cost 1: S = -v^-eta/(eta+1), Pi = D(v, p*)(p* - 1)
    # and U = -v^-eta p*^(eta+1)/(eta+1)
    eta = -2.0
    p_star, _ = mg.quantity_guarantee(eta)
    assert p_star == 2.0
    cost = mg.quantity_model_from_spec({"kind": "separable_quantity",
                                        "eta": eta})
    menu = mg.guarantee_mechanism(cost.eta)

    def quantity_side(v):
        v = np.asarray(v, dtype=float)
        return np.stack([-v ** -eta / (eta + 1.0),
                         (p_star / v) ** eta * (p_star - 1.0),
                         -v ** -eta * p_star ** (eta + 1.0) / (eta + 1.0)])

    worst = 0.0
    battery = [mg.Uniform(0.5, 2.0), mg.Binary(1.0, 2.0, 0.3),
               mg.PointMass(1.0), mg.TruncatedPareto(alpha=2.5, k=100.0),
               mg.Discrete(values=tuple(1.0 + 0.4 * i for i in range(10)),
                           masses=(0.1,) * 10)]
    for F in battery:
        (S, Pi, U), _ = mg.expectation(F, quantity_side)
        rep = mg.full_report(F, menu, cost)
        worst = max(worst, abs(Pi / S - 0.25), abs(rep.pi_ratio - Pi / S),
                    abs(rep.u_ratio - U / S))
    sep_ok = all(c.passed for c in mg.verify_quantity_guarantee(cost, battery))

    # nonlinear demand whose elasticity drifts through [-3, -2]
    D = lambda v, p: 2.0 * np.asarray(v, dtype=float) / (
        np.asarray(p, dtype=float) ** 2 * (1.0 + np.asarray(p, dtype=float)))
    nd = mg.NonlinearDemandModel(eta_bar=-2.0, D=D)
    certs = mg.verify_quantity_guarantee(nd, [mg.Uniform(0.5, 2.0),
                                              mg.PointMass(1.0)])
    nl_ok = all(c.passed for c in certs)
    ok = worst <= 1e-6 and sep_ok and nl_ok
    assert _verdict("criterion 10: quantity discrimination", ok,
                    f"max dev {worst:.2e}, separable pass {sep_ok}, "
                    f"nonlinear pass {nl_ok}")


def test_criterion_11_procurement():
    theta = np.geomspace(0.1, 10.0, 100)
    certs_q = mg.verify_procurement_quality(2.0, theta)
    # quantity procurement at eta = -2 is quality procurement at eta_c = 2;
    # the oracle is the seller's best response to the buyer's marginal price
    # p(q) = z q^(1/eta), z = (eta+1)/eta: with unit cost theta it sells
    # q = (theta/z)^eta, the buyer keeps (1 - z) h(q) of
    # h(q) = (eta/(eta+1)) q^((eta+1)/eta), and S = -theta^(eta+1)/(eta+1)
    eta = -2.0
    eta_c, _ = mg.quantity_guarantee(eta)
    z, share = mg.procurement_quality(eta_c)
    theta2 = np.geomspace(1.05, 10.0, 100)
    certs_n = mg.verify_procurement_quality(eta_c, theta2)
    q = (theta2 / z) ** eta
    h = (eta / (eta + 1.0)) * q ** ((eta + 1.0) / eta)
    quantity_share = (1.0 - z) * h / (-theta2 ** (eta + 1.0) / (eta + 1.0))
    worst = max(max(abs(c.slack) for c in certs_q),
                max(abs(c.slack) for c in certs_n),
                max(abs(c.measured_value - s)
                    for c, s in zip(certs_n, quantity_share)),
                abs(z - (eta + 1.0) / eta),
                abs(share - (eta / (eta + 1.0)) ** (eta + 1.0)))
    ok = worst <= 1e-9
    assert _verdict("criterion 11: procurement shares", ok,
                    f"max |slack| {worst:.2e}")


def test_criterion_12_oracle_equivalence():
    t0 = time.time()
    cost = mg.IsoElasticCost(eta=2.0)
    from markup_guarantee.screening import discrete_oracle, discretize
    F10 = discretize(mg.Pareto(3.0), 10)
    Pi10, _ = mg.mechanism_profit(F10, mg.bayes_optimal_mechanism(F10, cost),
                                  cost)
    grid = tuple(np.linspace(0.0, 1.1 * max(F10.values), 15))
    res10 = discrete_oracle(F10, cost, grid, mode="exhaustive")
    gap10 = abs(Pi10 - res10.profit) / res10.profit

    F40 = discretize(mg.Pareto(3.0), 40)
    Pi40, _ = mg.mechanism_profit(F40, mg.bayes_optimal_mechanism(F40, cost),
                                  cost)
    res40 = discrete_oracle(F40, cost, mode="reduced")
    gap40 = abs(Pi40 - res40.profit) / res40.profit
    elapsed = time.time() - t0
    ok = gap10 < 0.02 and gap40 < 0.005 and elapsed < 60.0
    assert _verdict("criterion 12: oracle equivalence", ok,
                    f"10-type gap {gap10:.3%}, 40-type gap {gap40:.3%}, "
                    f"{elapsed:.1f}s")
