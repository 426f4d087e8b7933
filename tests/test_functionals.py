import math

import numpy as np
import pytest

from markup_guarantee.distributions import (Binary, Discrete, Mixture, Pareto,
                                            PointMass, Power, TruncatedPareto,
                                            Uniform)
from markup_guarantee.functionals import (InfiniteSurplusError, SurplusReport,
                                          _weighted, consumer_surplus,
                                          efficient_surplus,
                                          expectation, full_report,
                                          mechanism_profit,
                                          quantity_surplus_report,
                                          survival_integral)
from markup_guarantee.guarantees import consumer_share, guarantee_ratio
from markup_guarantee.mechanisms import DirectMechanism, guarantee_mechanism
from markup_guarantee.screening import bayes_optimal_mechanism
from markup_guarantee.technology import (IsoElasticCost,
                                         NonlinearDemandModel, PolynomialCost,
                                         SeparableQuantityUtility)


class TestExpectation:
    def test_uniform_mean(self):
        val, err = expectation(Uniform(0.0, 2.0), lambda v: np.asarray(v))
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_atom_contributions_are_exact(self):
        F = Binary(1.0, 3.0, 0.25)
        val, _ = expectation(F, lambda v: np.asarray(v) ** 2)
        assert val == pytest.approx(0.75 * 1.0 + 0.25 * 9.0)

    def test_pareto_tail(self):
        F = Pareto(3.0)
        val, _ = expectation(F, lambda v: np.asarray(v, dtype=float))
        assert val == pytest.approx(1.5, rel=1e-9)  # alpha/(alpha-1)

    def test_mixture_combines(self):
        F = Mixture(components=(Uniform(0.0, 1.0), PointMass(2.0)),
                    weights=(0.5, 0.5))
        val, _ = expectation(F, lambda v: np.asarray(v, dtype=float))
        assert val == pytest.approx(0.5 * 0.5 + 0.5 * 2.0)


class TestSurvivalIntegral:
    def test_uniform_closed_form(self):
        # int_0^1 (1 - v) dv = 1/2
        val, _ = survival_integral(Uniform(0.0, 1.0), lambda v: np.ones_like(np.asarray(v, dtype=float)), ())
        assert val == pytest.approx(0.5, abs=1e-10)

    def test_binary_steps(self):
        F = Binary(1.0, 2.0, 0.3)
        # survival: 1 on [0,1), 0.3 on [1,2)
        val, _ = survival_integral(F, lambda v: np.ones_like(np.asarray(v, dtype=float)), ())
        assert val == pytest.approx(1.0 + 0.3)

    def test_heavy_tail(self):
        F = Pareto(2.5)
        val, _ = survival_integral(F, lambda v: np.ones_like(np.asarray(v, dtype=float)), ())
        # 1 + int_1^inf v^{-2.5} = 1 + 1/1.5
        assert val == pytest.approx(1.0 + 1.0 / 1.5, rel=1e-9)

    def test_subnormal_survival_skips_the_integrand(self):
        # at this v the survival is the subnormal 5e-324 while the density
        # is 0, so the Bayes menu's virtual value cannot be evaluated; the
        # product is below 2.2e-308 |Q| and counts as 0
        F = Pareto(1000.0)
        M = bayes_optimal_mechanism(F, IsoElasticCost(eta=2.0))
        v = np.array([2.10659638392184])
        assert F.sf(v)[0] == 5e-324 and F.pdf(v)[0] == 0.0
        assert _weighted(M.Q, F.sf)(v).tolist() == [0.0]


class TestEfficientSurplus:
    def test_iso_elastic_closed_form(self):
        # S = (1/2) E[v^2] for eta = 2
        S, err = efficient_surplus(Uniform(0.0, 1.0), IsoElasticCost(eta=2.0))
        assert S == pytest.approx(1.0 / 6.0, rel=1e-12)
        assert err == 0.0

    def test_divergence_at_boundary(self):
        with pytest.raises(InfiniteSurplusError):
            efficient_surplus(Pareto(2.0), IsoElasticCost(eta=2.0))

    def test_divergent_moment(self):
        with pytest.raises(InfiniteSurplusError):
            efficient_surplus(Pareto(2.1), IsoElasticCost(eta=1.5))

    def test_general_convex_past_the_tail_condition(self):
        # s(v) grows like v^(4/3) under q^2/2 + q^4/4, and E[v^(4/3)]
        # diverges on Pareto(1.3): no quadrature may return a finite S
        cost = PolynomialCost(coeffs=[0.0, 0.0, 0.5, 0.0, 0.25], eta_bar=4.0)
        with pytest.raises(InfiniteSurplusError, match="^surplus is infinite"):
            efficient_surplus(Pareto(1.3), cost)

    def test_general_convex_matches_iso_elastic(self):
        iso = IsoElasticCost(eta=2.0)
        poly = PolynomialCost(coeffs=[0.0, 0.0, 0.5], eta_bar=2.0)
        F = Uniform(0.2, 1.0)
        S_iso, _ = efficient_surplus(F, iso)
        S_poly, _ = efficient_surplus(F, poly)
        assert S_poly == pytest.approx(S_iso, rel=1e-8)


class TestProfitAndSurplus:
    def test_point_mass_hand_computation(self):
        # v = 1, eta = 2, M*: Q = 1/2, T = 1/4; Pi = 1/4 - 1/8 = 1/8, S = 1/2
        F = PointMass(1.0)
        cost = IsoElasticCost(eta=2.0)
        M = guarantee_mechanism(2.0)
        Pi, _ = mechanism_profit(F, M, cost)
        U, _ = consumer_surplus(F, M)
        S, _ = efficient_surplus(F, cost)
        assert S == pytest.approx(0.5)
        assert Pi == pytest.approx(0.125, abs=1e-9)
        assert U == pytest.approx(0.25, abs=1e-9)

    def test_mixture_density_jump_inside_support(self):
        # Uniform(0, 1.7055...) ends inside the other components' supports,
        # so the mixture density jumps there; the guarantee menu's shares
        # are exact for every law
        F = Mixture((Uniform(0, 2.09832845016647), Power(3.872848054957398),
                     Uniform(0, 1.7055309704983412)),
                    (0.38315019488531304, 0.546797758968425,
                     0.07005204614626195))
        rep = full_report(F, guarantee_mechanism(2.0), IsoElasticCost(eta=2.0))
        assert abs(rep.pi_ratio - 0.25) < 1e-12
        assert abs(rep.u_ratio - 0.5) < 1e-12

    def test_expectation_skips_density_gaps(self, monkeypatch):
        # the density is 0 on the gap (1, 2): E[.] never evaluates there.
        # The guarantee menu states T, so its report is one stacked
        # expectation on the two runs: 2 first passes of 21 points.  The
        # Bayes menu's report costs 5: E[margin] on the two runs and one
        # survival integral on [0, 1], [1, 2] and [2, 3]
        import markup_guarantee.functionals as fn
        from markup_guarantee.screening import bayes_optimal_mechanism
        F = Mixture((Uniform(0.0, 1.0), Uniform(2.0, 3.0)), (0.5, 0.5))
        seen = []

        def g(v):
            seen.append(np.asarray(v, dtype=float).copy())
            return np.asarray(v, dtype=float) ** 2

        value, _ = expectation(F, g)
        assert value == pytest.approx(10.0 / 3.0, abs=1e-12)
        seen = np.concatenate(seen)
        assert not np.any((seen > 1.0) & (seen < 2.0))

        evals = []
        quad = fn.adaptive_quad

        def counting_quad(f, a, b, **kw):
            def counted(v):
                evals.append(np.size(v))
                return f(v)
            return quad(counted, a, b, **kw)

        surv_calls = []
        surv = fn.survival_integral

        def counting_survival(*args, **kw):
            surv_calls.append(1)
            return surv(*args, **kw)

        monkeypatch.setattr(fn, "adaptive_quad", counting_quad)
        monkeypatch.setattr(fn, "survival_integral", counting_survival)
        cost = IsoElasticCost(eta=2.0)
        # S = 5/3; the Bayes menu serves v in [2, 3] with Q = 2v - 3, so
        # Pi = 13/12 and U = 5/12
        for M, pi, u, n_evals, n_surv in (
                (guarantee_mechanism(2.0), 0.25, 0.5, 42, 0),
                (bayes_optimal_mechanism(F, cost), 0.65, 0.25,
                 105, 1)):
            evals.clear()
            surv_calls.clear()
            rep = full_report(F, M, cost)
            assert sum(evals) == n_evals
            assert len(surv_calls) == n_surv
            assert abs(rep.pi_ratio - pi) < 1e-12
            assert abs(rep.u_ratio - u) < 1e-12

    def test_full_report_ratios(self):
        rep = full_report(Uniform(0.0, 1.0), guarantee_mechanism(2.0),
                          IsoElasticCost(eta=2.0))
        assert rep.pi_ratio == pytest.approx(0.25, abs=1e-9)
        assert rep.u_ratio == pytest.approx(0.5, abs=1e-9)
        assert rep.S == pytest.approx(1.0 / 6.0)

    def test_feasibility_guard(self):
        # Pi + U equals E[vQ - c(Q)], so no genuine mechanism can violate
        # Pi + U <= S; force a violation with an inconsistent cost whose
        # production expense vanishes while S keeps its closed form.
        class FreeLunchCost(IsoElasticCost):
            def c(self, q):
                return -np.asarray(q, dtype=float)

        with pytest.raises(ArithmeticError):
            full_report(Uniform(0.0, 1.0), guarantee_mechanism(2.0),
                        FreeLunchCost(eta=2.0))

    @pytest.mark.parametrize("F", [PointMass(0.0), Uniform(0.0, 1e-300)],
                             ids=["point-mass-0", "underflow"])
    def test_zero_surplus_rejected(self, F):
        with pytest.raises(ValueError, match="efficient surplus"):
            full_report(F, guarantee_mechanism(2.0), IsoElasticCost(eta=2.0))

    def test_report_serialization(self):
        rep = full_report(Uniform(0.0, 1.0), guarantee_mechanism(2.0),
                          IsoElasticCost(eta=2.0))
        assert set(vars(rep)) == set(SurplusReport.csv_header)
        row = rep.csv_row()
        assert len(row) == len(SurplusReport.csv_header)
        assert float(row[3]) == pytest.approx(rep.pi_ratio)


GUARANTEE_ETAS = (1.5, 2.0, 3.0, 5.0)
GUARANTEE_LAWS = {
    "uniform": lambda eta: Uniform(0.5, 2.5),
    "power": lambda eta: Power(0.7),
    "pareto": lambda eta: Pareto(eta / (eta - 1.0) + 1.0),
    "truncated-pareto": lambda eta: TruncatedPareto(2.0, 50.0),
    "discrete": lambda eta: Discrete((0.5, 1.0, 2.5), (0.2, 0.5, 0.3)),
    "point-mass": lambda eta: PointMass(1.7),
    "gap-mixture": lambda eta: Mixture(
        (Uniform(0.0, 1.0), Power(2.0), Uniform(2.0, 3.0), PointMass(4.0)),
        (0.3, 0.2, 0.4, 0.1)),
}


class TestStatedTransfers:
    """The guarantee menu states T: its report is E[T - c(Q)] and
    E[v Q - T], one stacked expectation."""

    @pytest.mark.parametrize("eta", GUARANTEE_ETAS)
    @pytest.mark.parametrize("law", sorted(GUARANTEE_LAWS))
    def test_guarantee_shares_are_exact(self, law, eta):
        rep = full_report(GUARANTEE_LAWS[law](eta), guarantee_mechanism(eta),
                          IsoElasticCost(eta=eta))
        assert (abs(rep.pi_ratio - guarantee_ratio(eta))
                <= 10.0 * rep.err_Pi / rep.S + 1e-15)
        assert (abs(rep.u_ratio - consumer_share(eta))
                <= 10.0 * rep.err_U / rep.S + 1e-15)

    def test_one_pass_without_survival_integral(self, monkeypatch):
        # Q is evaluated once per quadrature node and once per atom
        import markup_guarantee.functionals as fn
        F = GUARANTEE_LAWS["gap-mixture"](3.0)
        M = guarantee_mechanism(3.0)
        q_points, nodes, surv_calls = [], [], []

        def counted_Q(v):
            q_points.append(np.size(v))
            return M.Q(v)

        quad = fn.adaptive_quad

        def counting_quad(f, a, b, **kw):
            def counted(v):
                nodes.append(np.size(v))
                return f(v)
            return quad(counted, a, b, **kw)

        surv = fn.survival_integral
        monkeypatch.setattr(fn, "adaptive_quad", counting_quad)
        monkeypatch.setattr(fn, "survival_integral",
                            lambda *a, **kw: surv_calls.append(1) or surv(
                                *a, **kw))
        full_report(F, DirectMechanism(Q=counted_Q, T=M.T),
                    IsoElasticCost(eta=3.0))
        assert not surv_calls
        assert sum(nodes) > 0
        assert sum(q_points) == sum(nodes) + len(F.atoms())

    @pytest.mark.parametrize("law", ["uniform", "pareto", "gap-mixture"])
    def test_fixed_fee_moves_rent_to_profit(self, law):
        eta, fee = 2.0, 0.125
        F, cost = GUARANTEE_LAWS[law](eta), IsoElasticCost(eta=eta)
        M = guarantee_mechanism(eta)
        charged = DirectMechanism(Q=M.Q, T=lambda v: M.T(v) + fee,
                                  breakpoints=M.breakpoints)
        base, fee_rep = full_report(F, M, cost), full_report(F, charged, cost)
        rounding = 1e-15 * base.S
        assert (abs(fee_rep.U - (base.U - fee))
                <= base.err_U + fee_rep.err_U + rounding)
        assert (abs(fee_rep.Pi - (base.Pi + fee))
                <= base.err_Pi + fee_rep.err_Pi + rounding)
        # the single functionals report on the same transfers
        U, err_U = consumer_surplus(F, charged)
        Pi, err_Pi = mechanism_profit(F, charged, cost)
        assert abs(U - fee_rep.U) <= err_U + fee_rep.err_U + rounding
        assert Pi == fee_rep.Pi and err_Pi == fee_rep.err_Pi


class TestQuantityReport:
    def test_separable_quarter_share(self):
        model = SeparableQuantityUtility(eta=-2.0)
        for F in (Uniform(0.5, 2.0), PointMass(1.0), Binary(1.0, 2.0, 0.3)):
            rep = quantity_surplus_report(F, model, p_star=2.0)
            assert rep.pi_ratio == pytest.approx(0.25, abs=1e-9)

    def test_zero_surplus_rejected(self):
        model = SeparableQuantityUtility(eta=-2.0)
        with pytest.raises(ValueError, match="efficient surplus"):
            quantity_surplus_report(PointMass(0.0), model, p_star=2.0)

    def test_pointmass_hand_values(self):
        # v=1, eta=-2: S = 1, D(1,2) = 1/4, Pi = 1/4; U = int_2^inf p^-2 = 1/2
        model = SeparableQuantityUtility(eta=-2.0)
        rep = quantity_surplus_report(PointMass(1.0), model, p_star=2.0)
        assert rep.S == pytest.approx(1.0, abs=1e-9)
        assert rep.Pi == pytest.approx(0.25, abs=1e-9)
        assert rep.U == pytest.approx(0.5, abs=1e-9)

    # D = 2v / (p^2 (1 + p)) makes every row v times a constant:
    # int_1^inf D dp = 2v (1 - ln 2), D(v, 2) = v/6 and
    # int_2^inf D dp = v (1 + 2 ln(2/3)), so the shares hold for every law
    NONLINEAR = NonlinearDemandModel(
        eta_bar=-2.0,
        D=lambda v, p: 2.0 * np.asarray(v, dtype=float) / (
            np.asarray(p, dtype=float) ** 2 * (1.0 + np.asarray(p, dtype=float))))
    NONLINEAR_LAWS = {
        "uniform": (Uniform(0.5, 2.0), 1.25),
        "point-mass": (PointMass(1.0), 1.0),
        "uniform-and-atom": (Mixture((Uniform(0.5, 2.0), PointMass(3.0)),
                                    (0.6, 0.4)), 1.95),
    }

    @pytest.mark.parametrize("law", sorted(NONLINEAR_LAWS))
    def test_nonlinear_shares_match_closed_forms(self, law):
        F, mean = self.NONLINEAR_LAWS[law]
        rep = quantity_surplus_report(F, self.NONLINEAR, p_star=2.0)
        s_per_v = 2.0 * (1.0 - math.log(2.0))
        pi = (1.0 / 6.0) / s_per_v
        u = (1.0 + 2.0 * math.log(2.0 / 3.0)) / s_per_v
        assert abs(rep.S - s_per_v * mean) <= 10.0 * rep.err_S + 1e-15 * rep.S
        assert (abs(rep.pi_ratio - pi)
                <= 10.0 * (rep.err_Pi + pi * rep.err_S) / rep.S + 1e-15)
        assert (abs(rep.u_ratio - u)
                <= 10.0 * (rep.err_U + u * rep.err_S) / rep.S + 1e-15)

    @pytest.mark.parametrize("F, mean", [(PointMass(1.0), 1.0),
                                         (Uniform(0.5, 2.0), 1.25)])
    def test_inner_quadrature_error_is_stated(self, F, mean):
        # D = v p^-1.5: int_1^inf D dp = 2v and int_3^inf D dp = 2v/sqrt(3),
        # both integrated numerically, with a slow tail
        model = NonlinearDemandModel(
            eta_bar=-1.5,
            D=lambda v, p: np.asarray(v, dtype=float)
            * np.asarray(p, dtype=float) ** -1.5)
        rep = quantity_surplus_report(F, model, p_star=3.0)
        assert abs(rep.S - 2.0 * mean) <= rep.err_S
        assert abs(rep.U - 2.0 * mean / math.sqrt(3.0)) <= rep.err_U

    def test_one_inner_quadrature_per_surplus_row_per_call(self, monkeypatch):
        import markup_guarantee.functionals as fn
        import markup_guarantee.technology as tech
        quad = fn.adaptive_quad
        outer_calls, inner_calls = [], []

        def counting_outer(f, a, b, **kw):
            def counted(v):
                outer_calls.append(np.size(v))
                return f(v)
            return quad(counted, a, b, **kw)

        def counting_inner(f, a, b, **kw):
            inner_calls.append(1)
            return quad(f, a, b, **kw)

        monkeypatch.setattr(fn, "adaptive_quad", counting_outer)
        monkeypatch.setattr(tech, "adaptive_quad", counting_inner)
        F, _ = self.NONLINEAR_LAWS["uniform-and-atom"]
        quantity_surplus_report(F, self.NONLINEAR, p_star=2.0)
        assert outer_calls and min(outer_calls) > 1
        # two surplus rows per integrand call, and per call on the atoms
        assert len(inner_calls) == 2 * (len(outer_calls) + 1)
