"""Virtual values, ironing, Bayes-optimal menus, and the discrete oracle.

The ironing routine is checked against an independent concave-envelope
construction built on scipy's qhull bindings, and the ironed allocation is
checked to dominate the naive one in expected virtual surplus.
"""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import ConvexHull

from markup_guarantee import screening
from markup_guarantee.distributions import (Binary, Discrete, Mixture, Pareto,
                                            PointMass, Power, TruncatedPareto,
                                            Uniform)
from markup_guarantee.cli import _default_battery
from markup_guarantee.functionals import (InfiniteSurplusError, full_report,
                                          mechanism_profit)
from markup_guarantee.guarantees import boundary, convex_cost_guarantee
from markup_guarantee.mechanisms import constant_markup_mechanism, ic_audit
from markup_guarantee.screening import (AtomError, bayes_optimal_mechanism,
                                        discrete_oracle, discretize, iron,
                                        virtual_value)
from markup_guarantee.technology import IsoElasticCost, PolynomialCost


def qhull_ironed_values(F, n_grid=10_000):
    """Independent ironing oracle: lower convex hull via scipy's qhull.

    Returns (v, phi_bar) sampled on the quantile grid.
    """
    atoms = F.atoms()
    cont = 1.0 - sum(m for _, m in atoms)
    s = np.linspace(cont * 1e-9, cont * (1 - 1e-9), n_grid)
    v = np.asarray(F.quantile(s), dtype=float)
    keep = np.concatenate([[True], np.diff(v) > 0])
    s, v = s[keep], v[keep]
    phi = np.asarray(virtual_value(F, v), dtype=float)
    psi = np.concatenate([[0.0],
                          np.cumsum(0.5 * (phi[1:] + phi[:-1]) * np.diff(s))])
    pts = np.column_stack([s, psi])
    hull = ConvexHull(pts)
    idx = np.array(sorted(hull.vertices))
    # keep only the lower envelope: vertices reachable by nondecreasing slope
    lower = [idx[0]]
    for i in idx[1:]:
        while len(lower) >= 2:
            i1, i2 = lower[-2], lower[-1]
            if ((psi[i2] - psi[i1]) * (s[i] - s[i2])
                    >= (psi[i] - psi[i2]) * (s[i2] - s[i1])):
                lower.pop()
            else:
                break
        lower.append(i)
    # ironed virtual value = derivative of the envelope; a centered gradient
    # avoids the half-cell bias of assigning chord slopes to endpoints
    psi_env = np.interp(s, s[lower], psi[lower])
    phi_bar = np.gradient(psi_env, s)
    return v, phi_bar


class TestVirtualValue:
    def test_uniform_closed_form(self):
        F = Uniform(0.0, 1.0)
        # phi(v) = v - (1 - v) = 2v - 1
        assert float(np.asarray(virtual_value(F, 1.0))) == pytest.approx(1.0)
        assert float(np.asarray(virtual_value(F, 0.25))) == pytest.approx(-0.5)

    def test_pareto_closed_form(self):
        F = Pareto(2.0)
        v = np.array([1.0, 3.0, 10.0])
        np.testing.assert_allclose(virtual_value(F, v), v / 2.0, rtol=1e-12)

    def test_atom_raises(self):
        F = TruncatedPareto(alpha=2.0, k=100.0)
        with pytest.raises(AtomError):
            virtual_value(F, 100.0)

    def test_zero_density_raises(self):
        with pytest.raises(ValueError):
            virtual_value(Uniform(0.5, 1.0), 0.2)


def _acceptance_mixtures(n, seed=20260823):
    """The first n mixtures of 1-3 Uniform(0, b) and Power(alpha)
    components, drawn as the acceptance battery draws them."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        comps = [Uniform(0.0, float(rng.uniform(0.5, 3.0)))
                 if rng.uniform() < 0.5
                 else Power(alpha=float(rng.uniform(0.5, 4.0)))
                 for _ in range(int(rng.integers(1, 4)))]
        w = rng.dirichlet(np.ones(len(comps)))
        out.append(Mixture(components=tuple(comps), weights=tuple(w.tolist())))
    return out


# Seeded mixtures of the benchmark's Bayes sweep whose smooth chord end
# lies in a cell next to its hull vertex where phi crosses the slope twice
# (the first, third and fourth, at the bottom of the support) or beyond
# those cells (the second)
_FAR_END_LAWS = {
    "power-power": Mixture(
        (Power(0.9188992244257372), Power(1.607393237590527)),
        (0.06212311632796173, 0.9378768836720381)),
    "uniform-end-inside": Mixture(
        (Uniform(0.0, 0.9869968083173973), Power(3.051995263790547),
         Power(1.564367414080205)),
        (0.028503131534496306, 0.35690828809377384, 0.6145885803717299)),
    "power-power-uniform": Mixture(
        (Power(0.9984547343513467), Power(1.6786124061531351),
         Uniform(0.0, 2.0437610424733603)),
        (0.3249166267832645, 0.042064460911294003, 0.6330189123054415)),
    "three-powers": Mixture(
        (Power(0.9663502860385832), Power(1.674695933732613),
         Power(2.5994451470936304)),
        (0.17734902499124197, 0.6539688623907887, 0.16868211261796937)),
}


class TestIroning:
    def test_regular_distribution_untouched(self):
        curve = iron(Uniform(0.0, 1.0))
        assert curve.ironed_intervals == ()
        v = np.linspace(0.05, 0.95, 9)
        np.testing.assert_allclose(curve.phi_bar(v), 2 * v - 1, atol=1e-10)

    def test_matches_qhull_oracle_on_bimodal_mixture(self):
        F = Mixture(components=(Uniform(0.0, 1.0), Uniform(0.0, 0.2)),
                    weights=(0.5, 0.5))
        curve = iron(F)
        assert len(curve.ironed_intervals) == 1
        v, oracle = qhull_ironed_values(F, n_grid=10_000)
        mine = np.asarray(curve.phi_bar(v), dtype=float)
        # the oracle's centered derivative is biased within one grid cell of
        # the envelope kinks and one-sided at the grid ends; mask those cells
        cell = np.max(np.diff(v))
        mask = np.ones(v.size, dtype=bool)
        mask[[0, -1]] = False
        for lo, hi, _ in curve.ironed_intervals:
            mask &= (np.abs(v - lo) > cell) & (np.abs(v - hi) > cell)
        assert np.max(np.abs(mine - oracle)[mask]) < 1e-4

    def test_ironed_value_is_nondecreasing(self):
        F = Mixture(components=(Power(alpha=4.0), Uniform(0.0, 0.3)),
                    weights=(0.6, 0.4))
        curve = iron(F)
        v = np.linspace(0.01, 0.99, 500)
        pb = np.asarray(curve.phi_bar(v), dtype=float)
        assert np.all(np.diff(pb) >= -1e-9)

    def test_ironed_dominates_naive_virtual_surplus(self):
        # expected ironed virtual surplus of the optimal allocation weakly
        # exceeds what the raw virtual value would deliver with monotone q
        F = Mixture(components=(Uniform(0.0, 1.0), Uniform(0.0, 0.2)),
                    weights=(0.5, 0.5))
        cost = IsoElasticCost(eta=2.0)
        M = bayes_optimal_mechanism(F, cost)
        curve = iron(F)
        v = np.linspace(1e-4, 1.0 - 1e-4, 4001)
        f = np.asarray(F.pdf(v), dtype=float)
        q = np.asarray(M.Q(v), dtype=float)
        phi = np.asarray(virtual_value(F, v), dtype=float)
        pb = np.asarray(curve.phi_bar(v), dtype=float)
        ironed = np.trapezoid((pb * q - cost.c(q)) * f, v)
        naive = np.trapezoid((phi * q - cost.c(q)) * f, v)
        assert ironed >= naive - 1e-9

    def test_interior_atom_closed_form(self):
        # U(0, 2) and an atom at 1, half each: phi = 2v - 4 below the atom
        # and 2v - 2 above it; the atom's linear piece (slope 1) irons with
        # the types above it up to b = sqrt(6) - 1, where
        # phi(b) = 2 sqrt(6) - 4 equals the chord's slope
        F = Mixture(components=(Uniform(0.0, 2.0), PointMass(1.0)),
                    weights=(0.5, 0.5))
        cost = IsoElasticCost(eta=2.0)
        M = bayes_optimal_mechanism(F, cost)
        curve = iron(F)
        r6 = math.sqrt(6.0)
        assert len(curve.ironed_intervals) == 1
        lo, hi, const = curve.ironed_intervals[0]
        assert lo == 1.0
        assert hi == pytest.approx(r6 - 1.0, abs=1e-12)
        assert const == pytest.approx(2.0 * r6 - 4.0, abs=1e-12)
        assert curve.cutoff == 1.0
        assert float(np.asarray(M.Q(1.0))) == pytest.approx(2.0 * r6 - 4.0,
                                                            abs=1e-12)
        rep = full_report(F, M, cost)
        assert rep.Pi == pytest.approx(2.0 * r6 - 4.5, abs=1e-12)
        assert rep.U == pytest.approx((25.0 - 10.0 * r6) / 4.0, abs=1e-12)

    def test_binary_goes_through_iron(self):
        # two atoms are two linear pieces of the revenue curve: slopes
        # (v_lo - v_hi p_hi) / (1 - p_hi) and v_hi
        F = Binary(1.0, 2.0, 0.3)
        M = bayes_optimal_mechanism(F, IsoElasticCost(eta=2.0))
        np.testing.assert_allclose(
            iron(F).ironed_intervals,
            ((1.0, 2.0, 0.4 / 0.7), (2.0, math.inf, 2.0)), rtol=0, atol=1e-15)
        np.testing.assert_allclose(M.Q([1.0, 1.5, 2.0]),
                                   [0.4 / 0.7, 0.4 / 0.7, 2.0], atol=1e-15)

    def test_top_atom_becomes_terminal_segment(self):
        F = TruncatedPareto(alpha=2.0, k=50.0)
        curve = iron(F)
        assert float(np.asarray(curve.phi_bar(50.0))) == pytest.approx(50.0)

    def test_narrow_interval_at_density_jump(self, monkeypatch):
        # the end of Uniform(0, 0.8774...) inside the other components'
        # support starts a sub-cell ironed interval; its exact ends and
        # constant do not depend on the grid
        F = Mixture(components=(Power(2.5243254431811293),
                                Uniform(0.0, 0.8774323861523563),
                                Uniform(0.0, 2.891633776394981)),
                    weights=(0.9058024524923581, 0.023564756434647127,
                             0.0706327910729948))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coarse = iron(F).ironed_intervals
            monkeypatch.setattr(screening, "_N_GRID", 8000)
            fine = iron(F).ironed_intervals
        assert len(coarse) == len(fine)
        np.testing.assert_allclose(coarse, fine, rtol=0.0, atol=1e-12)
        assert coarse[0][:2] == pytest.approx(
            (0.87694178533102, 0.87792565682834), abs=1e-13)

    def test_small_density_drop_starts_an_interval(self, monkeypatch):
        # at 1/2 the density drops by 0.2%: phi = 2v - 1/(1+w) below and
        # 2v - 1 above, a jump smaller than phi moves across one cell at
        # a grid of 1000 quantiles, so the knot can be a vertex of its hull;
        # the drop still starts an interval of width w / (2 (1 + w))
        w = 0.001
        F = Mixture(components=(Uniform(0.0, 1.0), Uniform(0.0, 0.5)),
                    weights=(1.0 - w, w))
        monkeypatch.setattr(screening, "_N_GRID", 1000)
        (a, b, lam), = iron(F).ironed_intervals
        assert a < 0.5 < b
        assert b - a == pytest.approx(w / (2.0 * (1.0 + w)), abs=1e-12)
        np.testing.assert_allclose(virtual_value(F, [a, b]), [lam, lam],
                                   rtol=0.0, atol=1e-12)
        qa, qb = F.sf([a, b])
        assert lam == pytest.approx((a * qa - b * qb) / (qa - qb), abs=1e-10)

    @pytest.mark.parametrize("F", [
        Mixture((Power(0.975018113559694), Uniform(0.0, 1.272354172199643)),
                (0.09371150524118829, 0.9062884947588118)),
        Mixture((PointMass(0.05), Uniform(0.0, 2.0)), (0.01, 0.99)),
    ], ids=["power-uniform", "atom-at-start"])
    def test_chord_slope_near_the_bottom_does_not_cancel(self, F):
        # the first chord sells to shares near 1 at both ends (F(b) is
        # about 3e-3 on the first law), where q(a) - q(b) = 1 - sf(b)
        # cancels; its slope is (R(a) - R(b)) / (F(b-) - F(a-)) to 2 ulps
        atoms = dict(F.atoms())
        a, b, lam = iron(F).ironed_intervals[0]
        R = lambda p: p * (float(F.sf(p)) + atoms.get(p, 0.0))
        below = lambda p: float(F.cdf(p)) - atoms.get(p, 0.0)
        assert float(F.sf(b)) > 0.5
        exact = (R(a) - R(b)) / (below(b) - below(a))
        assert abs(lam - exact) <= 2 * np.spacing(abs(exact))

    @pytest.mark.parametrize("alpha, log_k, eta", [
        (1.6, 100.0, 1.5), (1.3, 300.0, 2.0), (1.7, 100.0, 2.0)])
    def test_truncated_pareto_at_large_k_reaches_the_lower_branch(
            self, alpha, log_k, eta):
        # q runs from 1 down to the top atom's k^-alpha (1.5e-74 at
        # alpha = 1.7, k = e^100); the hull must keep that atom's point,
        # or the top of the support is ironed at the wrong constant
        F, cost = TruncatedPareto(alpha, math.exp(log_k)), IsoElasticCost(eta)
        rep = full_report(F, bayes_optimal_mechanism(F, cost), cost)
        limit = boundary(alpha, eta)
        assert rep.pi_ratio == pytest.approx(limit.beta, rel=0.0, abs=1e-9)
        assert rep.u_ratio == pytest.approx(limit.u_over_s, rel=0.0, abs=1e-9)

    @pytest.mark.parametrize("n_grid", [1000, 2000, 8000])
    @pytest.mark.parametrize("name, exact", [
        # from a 40-digit solve of phi(b) = -b P(V > b) / F(b), the slope
        # of the chord from (q, R) = (1, 0)
        ("power-power", [(0.0, 0.0010387545011945881, -8.1355938463970043)]),
        # from a 40-digit solve of phi(a) = phi(b) = the chord's slope
        ("uniform-end-inside", [(0.98695102896733158, 0.98704290886057472,
                                 0.97397085181755648)]),
    ])
    def test_far_chord_end_is_solved(self, monkeypatch, n_grid, name,
                                     exact):
        monkeypatch.setattr(screening, "_N_GRID", n_grid)
        np.testing.assert_allclose(
            iron(_FAR_END_LAWS[name]).ironed_intervals, exact,
            rtol=1e-9, atol=0.0)

    def test_ironed_intervals_do_not_depend_on_the_grid(self, monkeypatch):
        # the grid only locates the chords: their ends, constants and the
        # cutoff agree across grids (Bayes shares would miss an interval
        # below the cutoff)
        laws = _acceptance_mixtures(60) + list(_FAR_END_LAWS.values())
        curves = []
        for n_grid in (1000, 2000, 8000):
            monkeypatch.setattr(screening, "_N_GRID", n_grid)
            curves.append([iron(F) for F in laws])
        for coarse, mid, fine in zip(*curves):
            for other in (coarse, fine):
                assert len(other.ironed_intervals) == len(mid.ironed_intervals)
                np.testing.assert_allclose(
                    other.ironed_intervals, mid.ironed_intervals,
                    rtol=1e-11, atol=0.0)
                assert (other.cutoff is None) == (mid.cutoff is None)
                if mid.cutoff is not None:
                    assert other.cutoff == pytest.approx(mid.cutoff,
                                                         rel=1e-11)

    def test_iron_calls_per_law(self, monkeypatch):
        # the searches read sf and pdf at every cell end from one array call
        # each, so a law takes the grid's calls plus its roots' steps; the
        # sample points come from the quantile's first iterate, which reads
        # neither
        calls, per_eta = [], []
        for name in ("sf", "pdf"):
            method = getattr(Mixture, name)

            def counted(self, v, method=method):
                calls.append(1)
                return method(self, v)

            monkeypatch.setattr(Mixture, name, counted)
        for eta in (2.0, 3.0):
            per_law = []
            for F in _acceptance_mixtures(20):
                calls.clear()
                bayes_optimal_mechanism(F, IsoElasticCost(eta=eta))
                per_law.append(len(calls))
            per_eta.append(per_law)
        assert per_eta[0] == per_eta[1]
        assert max(per_eta[0]) <= 141 and sum(per_eta[0]) <= 828


def _bisect(g, a, b):
    """Bisection down to adjacent floats; the end with the smaller |g|."""
    while math.nextafter(a, b) < b:
        c = 0.5 * (a + b)
        a, b = (c, b) if g(c) > 0.0 else (a, c)
    return a if g(a) < -g(b) else b


@pytest.mark.parametrize("g", [
    lambda x: 1e-20 - (x - 1.0) * (1.0 + x),
    lambda x: (2.0 - x) * (1.0 + x) - 1e-20,
    lambda x: 1e-17 - math.expm1(x - 1.0),
], ids=["root-at-lo", "root-at-hi", "exp-root-at-lo"])
def test_root_steps_inside_an_end_on_the_root(g):
    # on [1, 2] the root lies within one float of an end, so the first
    # false-position step rounds onto that end; bisection would take
    # about 50 evaluations to close in on it
    seen = []

    def counted(x):
        seen.append(x)
        return g(x)

    x = screening._root(counted, 1.0, 2.0, g(1.0), g(2.0))
    assert len(seen) <= 10
    # the sign change lies within one float of x
    assert g(math.nextafter(x, 0.0)) > 0.0 > g(math.nextafter(x, 3.0))
    assert x == _bisect(g, 1.0, 2.0)


def _monotone_chain(x, y):
    """Reference: the whole monotone chain, with the hull's predicate."""
    hull = []
    for i in range(len(x)):
        while len(hull) >= 2 and ((y[hull[-1]] - y[hull[-2]])
                                  * (x[i] - x[hull[-1]])
                                  >= (y[i] - y[hull[-1]])
                                  * (x[hull[-1]] - x[hull[-2]])):
            hull.pop()
        hull.append(i)
    return hull


@pytest.mark.parametrize("seed", range(5))
def test_hull_starts_its_chain_at_the_first_dropped_turn(seed):
    # one numpy pass skips the chain up to the first consecutive triple it
    # drops and past the last, and skips it on a curve with none; the hull
    # is the whole chain's
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 200))

    def hull(x, y):
        return screening._lower_convex_hull(x, y).tolist()

    x = np.cumsum(rng.uniform(0.1, 1.0, n))
    slopes = np.cumsum(rng.uniform(0.1, 1.0, n - 1))
    y = np.concatenate([[0.0], np.cumsum(slopes * np.diff(x))])
    assert hull(x, y) == _monotone_chain(x, y) == list(range(n))
    # one reflex point
    bent = y.copy()
    bent[int(rng.integers(1, n - 1))] += 10.0 * slopes.max()
    assert hull(x, bent) == _monotone_chain(x, bent) != list(range(n))
    # integer slopes with repeats: collinear middle points are dropped
    xi = np.arange(float(n))
    steps = np.sort(rng.integers(-5, 5, n - 1)).astype(float)
    yi = np.concatenate([[0.0], np.cumsum(steps)])
    assert hull(xi, yi) == _monotone_chain(xi, yi)
    assert len(hull(xi, yi)) == np.unique(steps).size + 1
    # the revenue curve (-q, -R) of a Pareto body on the grid's shares, a
    # top atom at q from 1e-40 down to 1e-74, and q = 0: every point is a
    # vertex, though a cross product anchored at the grid's last point
    # rounds to 0 at the atom
    q = np.concatenate([np.logspace(0.0, np.log10(5e-10), n),
                        [10.0 ** -rng.uniform(40.0, 74.0), 0.0]])
    xq, yq = -q, -q ** (1.0 - 1.0 / rng.uniform(1.5, 3.0))
    assert hull(xq, yq) == _monotone_chain(xq, yq) == list(range(n + 2))
    flat = yq.copy()
    flat[-2] = 0.5 * (flat[-3] + flat[-1])
    assert hull(xq, flat) == _monotone_chain(xq, flat)
    # a reflex point in the body: the chain runs over the atom's point too
    bent = yq.copy()
    bent[n // 2] = bent[n // 2 + 1]
    assert hull(xq, bent) == _monotone_chain(xq, bent)
    assert n // 2 not in hull(xq, bent) and n in hull(xq, bent)


class TestBayesOptimal:
    def test_pareto_closed_form_allocation(self):
        # phi(v) = v/2 for alpha = 2... use alpha = 3: phi = 2v/3, Q = 2v/3
        F = Pareto(3.0)
        cost = IsoElasticCost(eta=2.0)
        M = bayes_optimal_mechanism(F, cost)
        v = np.array([1.5, 4.0, 20.0])
        np.testing.assert_allclose(M.Q(v), 2.0 * v / 3.0, rtol=1e-6)

    def test_uniform_exclusion_at_half(self):
        # phi = 2v - 1 crosses zero at 1/2
        F = Uniform(0.0, 1.0)
        cost = IsoElasticCost(eta=2.0)
        M = bayes_optimal_mechanism(F, cost)
        assert float(np.asarray(M.Q(0.4))) == 0.0
        assert float(np.asarray(M.Q(0.75))) == pytest.approx(0.5, abs=1e-6)
        assert any(abs(b - 0.5) < 1e-6 for b in M.breakpoints)

    def test_infinite_surplus_rejected(self):
        with pytest.raises(ValueError):
            bayes_optimal_mechanism(Pareto(2.0), IsoElasticCost(eta=2.0))
        # the tail check reads the elasticity bound of any convex cost
        with pytest.raises(InfiniteSurplusError, match="^surplus is infinite"):
            bayes_optimal_mechanism(Pareto(1.3), _QUARTIC)

    def test_profit_beats_guarantee_menu(self):
        from markup_guarantee.mechanisms import guarantee_mechanism
        cost = IsoElasticCost(eta=2.0)
        for F in (Uniform(0.0, 1.0), Power(alpha=2.0),
                  TruncatedPareto(alpha=3.0, k=30.0)):
            Mb = bayes_optimal_mechanism(F, cost)
            Pi_b, _ = mechanism_profit(F, Mb, cost)
            Pi_g, _ = mechanism_profit(F, guarantee_mechanism(2.0), cost)
            assert Pi_b >= Pi_g - 1e-8

    def test_purely_atomic_two_types(self):
        # equal-mass types {1, 2}: low type excluded, profit = 0.5 * 2^2/2
        F = Discrete(values=(1.0, 2.0), masses=(0.5, 0.5))
        cost = IsoElasticCost(eta=2.0)
        M = bayes_optimal_mechanism(F, cost)
        assert float(np.asarray(M.Q(1.0))) == 0.0
        assert float(np.asarray(M.Q(2.0))) == pytest.approx(2.0)
        Pi, _ = mechanism_profit(F, M, cost)
        assert Pi == pytest.approx(1.0, abs=1e-9)

    def test_discrete_menu_is_ic(self):
        F = Discrete(values=(1.0, 1.5, 2.0, 3.0),
                     masses=(0.25, 0.25, 0.25, 0.25))
        cost = IsoElasticCost(eta=2.0)
        M = bayes_optimal_mechanism(F, cost)
        report = ic_audit(M, np.array(F.values))
        assert report.max_ic_violation <= 1e-9
        assert report.max_ir_violation <= 1e-9


_QUARTIC = PolynomialCost(coeffs=[0.0, 0.0, 0.5, 0.0, 0.25], eta_bar=4.0)


class TestBayesUnderConvexCost:
    def test_quadratic_polynomial_gives_the_iso_elastic_menu(self):
        F = Mixture(components=(Uniform(0.0, 1.0), Uniform(0.0, 0.2),
                                TruncatedPareto(alpha=3.0, k=30.0)),
                    weights=(0.4, 0.4, 0.2))
        iso = IsoElasticCost(eta=2.0)
        poly = PolynomialCost(coeffs=[0.0, 0.0, 0.5], eta_bar=2.0)
        M_iso, M_poly = (bayes_optimal_mechanism(F, c) for c in (iso, poly))
        v = np.linspace(0.0, 30.0, 3001)
        assert np.max(np.abs(M_iso.Q(v) - M_poly.Q(v))) <= 1e-12
        assert M_iso.breakpoints == M_poly.breakpoints
        a, b = full_report(F, M_iso, iso), full_report(F, M_poly, poly)
        for x in ("S", "Pi", "U"):
            assert (abs(getattr(a, x) - getattr(b, x))
                    <= getattr(a, "err_" + x) + getattr(b, "err_" + x))

    @pytest.mark.parametrize("F", _default_battery(4.0),
                             ids=lambda F: F.to_spec()["kind"])
    def test_quartic_cost_menu(self, F):
        # the menu is IC and IR, earns at least the constant-markup menu,
        # and meets c'(Q) = max(phi_bar, 0) above the exclusion cutoff
        M = bayes_optimal_mechanism(F, _QUARTIC)
        grid = np.linspace(*F.support, 40)
        audit = ic_audit(M, grid)
        assert audit.max_ic_violation <= 1e-9
        assert audit.max_ir_violation <= 1e-9
        bayes = full_report(F, M, _QUARTIC)
        z, _ = convex_cost_guarantee(_QUARTIC.eta_bar)
        markup = full_report(F, constant_markup_mechanism(_QUARTIC, z),
                             _QUARTIC)
        assert bayes.Pi >= markup.Pi - bayes.err_Pi - markup.err_Pi
        curve = iron(F)
        v = grid[grid >= (curve.cutoff or F.support[0])]
        np.testing.assert_allclose(
            _QUARTIC.c_prime(M.Q(v)), np.maximum(curve.phi_bar(v), 0.0),
            rtol=1e-10, atol=1e-12)

    def test_reduced_oracle_bounds_the_exhaustive_one(self):
        F = Discrete(values=(0.8, 1.3, 2.1), masses=(0.3, 0.4, 0.3))
        red = discrete_oracle(F, _QUARTIC, mode="reduced")
        ex = discrete_oracle(F, _QUARTIC, tuple(np.linspace(0.0, 1.5, 61)),
                             mode="exhaustive")
        assert np.allclose(_QUARTIC.c_prime(np.array(red.allocation)),
                           np.maximum(iron(F).phi_bar(F.values), 0.0))
        assert ex.profit <= red.profit
        assert (red.profit - ex.profit) / red.profit < 1e-3


def _enumerate_menus(F, cost, grid):
    """The oracle's own oracle: price every nondecreasing menu on the
    sorted grid by binding adjacent ICs downward; the first best in
    lexicographic order wins.  Returns (profit, allocation)."""
    values = np.asarray(F.values)
    masses = np.asarray(F.masses)
    best = (-math.inf, None)
    for idx in itertools.combinations_with_replacement(
            range(len(grid)), len(values)):
        q = np.asarray(grid)[list(idx)]
        rent = np.concatenate([[0.0], np.cumsum(np.diff(values) * q[:-1])])
        t = values * q - rent
        profit = float(((t - np.asarray(cost.c(q))) * masses).sum())
        if profit > best[0]:
            best = (profit, tuple(q))
    return best


class TestDiscreteOracle:
    def test_two_type_hand_computation(self):
        # phi_1 = 1 - 0.5/0.5 = 0 -> excluded; phi_2 = 2 -> q = 2, profit 1
        res = discrete_oracle(Discrete(values=(1.0, 2.0), masses=(0.5, 0.5)),
                              IsoElasticCost(eta=2.0),
                              tuple(np.linspace(0.0, 2.5, 26)),
                              mode="exhaustive")
        assert res.profit == pytest.approx(1.0, abs=1e-9)
        assert res.allocation[0] == 0.0
        assert res.allocation[1] == pytest.approx(2.0)

    def test_reduced_matches_exhaustive(self):
        values = (0.8, 1.3, 2.1)
        masses = (0.3, 0.4, 0.3)
        cost = IsoElasticCost(eta=2.0)
        grid = tuple(np.linspace(0.0, 2.5, 51))
        F = Discrete(values=values, masses=masses)
        ex = discrete_oracle(F, cost, grid, mode="exhaustive")
        red = discrete_oracle(F, cost, grid, mode="reduced")
        assert ex.profit == pytest.approx(red.profit, rel=2e-3)

    def test_large_instance_stays_below_reduced(self):
        # 15 types x 40 grid points is ~8.7e12 nondecreasing menus; the
        # grid optimum cannot beat the exact continuous-quality optimum
        F = Discrete(values=tuple(range(1, 16)), masses=tuple([1.0 / 15] * 15))
        cost, grid = IsoElasticCost(eta=2.0), tuple(np.linspace(0, 20, 40))
        ex = discrete_oracle(F, cost, grid, mode="exhaustive")
        red = discrete_oracle(F, cost, grid, mode="reduced")
        assert ex.profit <= red.profit
        assert (red.profit - ex.profit) / red.profit < 1e-3

    def test_exact_tie_takes_smallest_menu(self):
        # w = (0, 1): q2 = 1.5 and q2 = 2.5 both earn q - q^2 / 4 = 0.9375
        res = discrete_oracle(Discrete(values=(1.0, 2.0), masses=(0.5, 0.5)),
                              IsoElasticCost(eta=2.0), (0.0, 1.5, 2.5),
                              mode="exhaustive")
        assert res.allocation == (0.0, 1.5)
        assert res.profit == 0.9375
        assert res.warnings == ()

    def test_matches_enumeration_on_random_instances(self):
        rng = np.random.default_rng(20261018)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            eta = float(rng.choice([1.5, 2.0, 3.0]))
            values = np.sort(rng.uniform(0.1, 3.0, n))
            masses = rng.dirichlet(np.ones(n))
            g_top = 1.2 * values[-1] ** (1.0 / (eta - 1.0))
            grid = np.concatenate(
                [[0.0], np.sort(rng.uniform(0.0, g_top, int(rng.integers(1, 11))))])
            F = Discrete(values=tuple(values), masses=tuple(masses))
            cost = IsoElasticCost(eta=eta)
            profit, alloc = _enumerate_menus(F, cost, grid)
            res = discrete_oracle(F, cost, tuple(grid), mode="exhaustive")
            assert res.profit == pytest.approx(profit, rel=1e-12, abs=0.0)
            assert res.allocation == alloc

    def test_grid_boundary_warning(self):
        res = discrete_oracle(Discrete(values=(1.0, 2.0), masses=(0.5, 0.5)),
                              IsoElasticCost(eta=2.0),
                              (0.0, 0.5, 1.0),  # optimum wants q = 2
                              mode="exhaustive")
        assert res.warnings

    @pytest.mark.parametrize("values, masses", [
        ((1.0, 2.0), (1.5, -0.5)),
        ((math.nan, 2.0), (0.5, 0.5)),
        ((-1.0, 2.0), (0.5, 0.5)),
    ], ids=["negative-mass", "nan-value", "negative-value"])
    def test_invalid_law_never_reaches_the_oracle(self, values, masses):
        # these once gave profits of 0.5, NaN and 1.0; the law is now
        # rejected when it is built
        with pytest.raises(ValueError):
            discrete_oracle(Discrete(values=values, masses=masses),
                            IsoElasticCost(eta=2.0), (0.0, 1.0, 2.0))

    @pytest.mark.parametrize("grid, mode, message", [
        ((), "exhaustive", "needs a quality grid"),
        ((0.5, 1.0), "exhaustive", "must include 0"),
        ((0.0, 1.0, math.nan), "exhaustive", "must be finite"),
        ((0.0, math.inf), "exhaustive", "must be finite"),
        ((0.0, 1.0), "greedy", "mode must be"),
    ], ids=["empty", "no-zero", "nan", "inf", "bad-mode"])
    def test_bad_grid_or_mode_rejected(self, grid, mode, message):
        F = Discrete(values=(1.0, 2.0), masses=(0.5, 0.5))
        with pytest.raises(ValueError, match=message):
            discrete_oracle(F, IsoElasticCost(eta=2.0), grid, mode=mode)

    def test_grid_is_sorted(self):
        F, cost = Discrete(values=(1.0, 2.0), masses=(0.5, 0.5)), IsoElasticCost(2.0)
        shuffled = discrete_oracle(F, cost, (2.5, 0.0, 1.5), mode="exhaustive")
        assert shuffled == discrete_oracle(F, cost, (0.0, 1.5, 2.5))

    def test_discrete_virtuals_formula(self):
        phi = _discrete_virtual_values((1.0, 2.0), (0.5, 0.5))
        np.testing.assert_allclose(phi, [0.0, 2.0])


def test_discretize_preserves_mean():
    F = Power(alpha=2.0)
    D = discretize(F, 20)
    mean = sum(v * m for v, m in D.atoms())
    assert mean == pytest.approx(F.power_moment(1.0), rel=1e-3)


@pytest.mark.parametrize("F, expected", [
    (Binary(1.0, 2.0, 0.3), ((1.0, 0.7), (2.0, 0.3))),
    (Discrete((0.5, 1.0, 2.5), (0.2, 0.5, 0.3)),
     ((0.5, 0.2), (1.0, 0.5), (2.5, 0.3))),
    (Discrete((1.0, 2.0, 3.0, 4.0, 5.0), (0.1, 0.2, 0.3, 0.1, 0.3)),
     ((1.0, 0.1), (2.0, 0.2), (3.0, 0.3), (4.0, 0.1), (5.0, 0.3))),
    (Mixture((Uniform(0.0, 1.0), PointMass(0.5)), (0.7, 0.3)),
     ((0.5, 0.2),)),
], ids=["binary", "three-atoms", "five-atoms", "uniform-and-atom"])
def test_discretize_laws_with_atoms(F, expected):
    # bins inside one atom take its value exactly and merge into one atom;
    # a bin's value is the mean of V over its share, so the values ascend
    # and the mean is kept.  An atomic law gives back its own atoms: the
    # u-edge 0.7000000000000001 passes Binary's F(1) = 0.7 by one ulp, and
    # a share's lower end F(loc) - m can miss F at the atom below by one,
    # and neither may hand a bin a sliver of the next atom
    D = discretize(F, 10)
    assert set(expected) <= set(D.atoms())
    assert sum(v * m for v, m in D.atoms()) == pytest.approx(
        F.power_moment(1.0), rel=1e-12)


def test_discretize_splits_bins_at_density_jumps():
    # the density jumps where each uniform component ends; the bin means
    # are checked against scipy with the jumps as points
    from scipy.integrate import quad
    F = Mixture((Uniform(0, 2.09832845016647), Power(3.872848054957398),
                 Uniform(0, 1.7055309704983412)),
                (0.38315019488531304, 0.546797758968425, 0.07005204614626195))
    jumps = (1.0, 1.7055309704983412)
    n = 13
    D = discretize(F, n)
    values, masses = D.values, D.masses
    edges = F.quantile(np.clip(np.linspace(0.0, 1.0, n + 1), 1e-12,
                               1.0 - 1e-12))
    for value, a, b in zip(values, edges[:-1], edges[1:]):
        pts = [p for p in jumps if a < p < b]
        kw = dict(points=pts or None, epsabs=1e-14, epsrel=1e-13, limit=200)
        num = quad(lambda v: v * float(F.pdf(v)), a, b, **kw)[0]
        den = quad(lambda v: float(F.pdf(v)), a, b, **kw)[0]
        assert value == pytest.approx(num / den, rel=1e-12, abs=0.0)
    np.testing.assert_array_equal(masses, 1.0 / n)


def _discrete_virtual_values(values, masses):
    """Adjacent-IC virtual values: phi_i = v_i - (1 - F_i)(v_{i+1} - v_i)/f_i."""
    values = np.asarray(values, dtype=float)
    masses = np.asarray(masses, dtype=float)
    cum = np.cumsum(masses)
    phi = values.copy()
    phi[:-1] -= (1.0 - cum[:-1]) * np.diff(values) / masses[:-1]
    return phi


def _pooled(values, masses):
    """Pool-adjacent-violators on the adjacent-IC virtual values: the
    mass-weighted isotonic fit, an oracle for ironing atomic laws."""
    blocks = []                  # [weighted sum, mass, count]
    for phi, m in zip(_discrete_virtual_values(values, masses), masses):
        blocks.append([phi * m, m, 1])
        while (len(blocks) > 1 and blocks[-2][0] * blocks[-1][1]
               >= blocks[-1][0] * blocks[-2][1]):
            s, m, n = blocks.pop()
            blocks[-1] = [blocks[-1][0] + s, blocks[-1][1] + m,
                          blocks[-1][2] + n]
    return np.concatenate([[s / m] * n for s, m, n in blocks])


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_ironed_discrete_virtuals_are_monotone(n, seed):
    rng = np.random.default_rng(seed)
    values = np.sort(rng.uniform(0.1, 5.0, n))
    values += np.arange(n) * 1e-6          # enforce strict ascent
    masses = rng.dirichlet(np.ones(n))
    masses[-1] = 1.0 - masses[:-1].sum()
    out = iron(Discrete(values=tuple(values), masses=tuple(masses))).phi_bar(values)
    assert np.all(np.diff(out) >= -1e-9)
    np.testing.assert_allclose(out, _pooled(values, masses), rtol=1e-12,
                               atol=1e-12)
