import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from markup_guarantee.distributions import (Binary, Pareto, PointMass, Power,
                                            TruncatedPareto, Uniform)
from markup_guarantee.guarantees import (GuaranteeCertificate, boundary,
                                         consumer_share,
                                         convex_cost_guarantee,
                                         feasible_beta_interval, frontier,
                                         frontier_attaining_shape,
                                         guarantee_ratio, holder_audit,
                                         membership, pareto_profit_ratio,
                                         procurement_quality,
                                         procurement_quantity,
                                         quantity_guarantee,
                                         surplus_lower_bound,
                                         verify_convex_cost_guarantee,
                                         verify_lower_bound,
                                         verify_procurement_quality,
                                         verify_procurement_quantity)
from markup_guarantee.functionals import full_report
from markup_guarantee.screening import bayes_optimal_mechanism
from markup_guarantee.technology import IsoElasticCost, PolynomialCost


class TestClosedForms:
    def test_guarantee_ratio_values(self):
        assert guarantee_ratio(2.0) == 0.25
        assert guarantee_ratio(3.0) == pytest.approx(3.0 ** -1.5)
        # limiting behavior at both ends
        assert guarantee_ratio(1.0 + 1e-6) == pytest.approx(1.0 / math.e,
                                                            abs=1e-4)
        assert guarantee_ratio(1e6) < 1e-5

    def test_consumer_share_values(self):
        assert consumer_share(2.0) == 0.5
        assert consumer_share(3.0) == pytest.approx(3.0 ** -0.5)

    def test_sum_of_shares_below_one(self):
        for eta in (1.5, 2.0, 3.0, 10.0):
            assert guarantee_ratio(eta) + consumer_share(eta) < 1.0

    def test_pareto_profit_ratio(self):
        assert pareto_profit_ratio(3.0, 2.0) == pytest.approx(4.0 / 9.0)
        # approaches the guarantee at the boundary shape
        assert pareto_profit_ratio(2.0, 2.0) == pytest.approx(0.25)
        with pytest.raises(ValueError):
            pareto_profit_ratio(1.4, 2.0)

    def test_invalid_eta(self):
        for fn in (guarantee_ratio, consumer_share):
            with pytest.raises(ValueError):
                fn(1.0)

    @pytest.mark.parametrize("fn, eta, expected", [
        (guarantee_ratio, math.inf, 0.0),
        (consumer_share, math.inf, 1.0),
        (guarantee_ratio, math.nan, ValueError),
        (consumer_share, math.nan, ValueError),
        (guarantee_ratio, -math.inf, ValueError),
        (consumer_share, -math.inf, ValueError),
    ], ids=["ratio-inf", "share-inf", "ratio-nan", "share-nan",
            "ratio-neg-inf", "share-neg-inf"])
    def test_non_finite_eta(self, fn, eta, expected):
        if expected is ValueError:
            with pytest.raises(ValueError):
                fn(eta)
        else:
            assert fn(eta) == expected


class TestFrontier:
    def test_endpoints_eta2(self):
        lo, hi = feasible_beta_interval(2.0)
        assert lo == 0.25 and hi == 1.0
        assert frontier(0.25, 2.0) == pytest.approx(0.5)
        assert frontier(1.0, 2.0) == pytest.approx(0.0)

    def test_left_endpoint_eta3(self):
        lo, _ = feasible_beta_interval(3.0)
        assert lo == pytest.approx(3.0 ** -1.5)
        assert frontier(lo, 3.0) == pytest.approx(3.0 ** -0.5)

    def test_infeasible_beta_rejected(self):
        with pytest.raises(ValueError):
            frontier(0.1, 2.0)
        with pytest.raises(ValueError):
            frontier_attaining_shape(0.1, 2.0)

    def test_attaining_shape(self):
        assert frontier_attaining_shape(4.0 / 9.0, 2.0) == pytest.approx(3.0)
        assert frontier_attaining_shape(0.25, 2.0) == pytest.approx(2.0)
        assert math.isinf(frontier_attaining_shape(1.0, 2.0))

    def test_strictly_decreasing(self):
        lo, hi = feasible_beta_interval(2.0)
        betas = np.linspace(lo, hi, 40)
        vals = [frontier(b, 2.0) for b in betas]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_tightness_on_a_beta_grid(self):
        # Bayes-optimal Pareto outcomes land on the frontier
        lo, hi = feasible_beta_interval(2.0)
        cost = IsoElasticCost(eta=2.0)
        for beta in np.linspace(lo + 0.02, 0.95, 8):
            alpha = frontier_attaining_shape(beta, 2.0)
            assert alpha > 2.0          # S is finite above r = 2
            F = Pareto(alpha)
            rep = full_report(F, bayes_optimal_mechanism(F, cost), cost)
            assert rep.pi_ratio == pytest.approx(beta, abs=1e-4)
            assert rep.u_ratio == pytest.approx(frontier(beta, 2.0), abs=1e-4)


class TestEta2Boundary:
    def test_branch_junction(self):
        up = boundary(2.0, 2.0)
        lo = boundary(2.0 - 1e-15, 2.0)
        assert up.beta == pytest.approx(0.25)
        assert up.u_over_s == pytest.approx(0.5)
        assert lo.beta == pytest.approx(0.25)
        assert lo.u_over_s == pytest.approx(0.5)

    def test_lower_branch_endpoint(self):
        pt = boundary(1.0, 2.0)
        assert pt.u_over_s == pytest.approx(0.0)
        assert pt.beta == pytest.approx(0.5)
        assert pt.branch == "lower"

    def test_upper_branch_limit(self):
        pt = boundary(1e9, 2.0)
        assert pt.beta == pytest.approx(1.0, abs=1e-8)
        assert pt.u_over_s == pytest.approx(0.0, abs=1e-8)

    def test_membership_junction_and_segments(self):
        assert membership(0.5, 0.25, 2.0) == "boundary"
        assert membership(0.0, 0.75, 2.0) == "boundary"   # zero-CS segment
        assert membership(0.0, 1.0, 2.0) == "boundary"
        assert membership(0.25, 0.5, 2.0) == "interior"
        assert membership(0.6, 0.3, 2.0) == "exterior"
        assert membership(0.1, 0.95, 2.0) == "exterior"
        assert membership(0.4, 0.2, 2.0) == "exterior"    # below the line

    def test_membership_tracks_boundary_parametrization(self):
        for alpha in (1.3, 1.7, 2.0, 3.0, 8.0):
            pt = boundary(alpha, 2.0)
            assert membership(pt.u_over_s, pt.beta, 2.0) == "boundary"

    def test_lower_branch_is_the_line(self):
        for alpha in np.linspace(1.0, 2.0, 20):
            pt = boundary(float(alpha), 2.0)
            assert pt.u_over_s + 2.0 * pt.beta == pytest.approx(1.0)


@pytest.mark.parametrize("eta", [1.5, 3.0, 5.0])
class TestBoundaryEveryEta:
    def test_branches_meet_at_the_guarantee_point(self, eta):
        r = eta / (eta - 1.0)
        for pt in (boundary(r, eta), boundary(math.nextafter(r, 0.0), eta)):
            assert pt.u_over_s == pytest.approx(consumer_share(eta), abs=1e-15)
            assert pt.beta == pytest.approx(guarantee_ratio(eta), abs=1e-15)
        assert boundary(r, eta).branch == "upper"
        assert boundary(math.nextafter(r, 0.0), eta).branch == "lower"

    def test_unit_shape_is_the_zero_surplus_corner(self, eta):
        pt = boundary(1.0, eta)
        assert (pt.u_over_s, pt.branch) == (0.0, "lower")
        assert pt.beta == pytest.approx(1.0 / eta, abs=1e-15)

    def test_lower_branch_is_the_untruncated_limit(self, eta):
        # the Bayes outcome under TruncatedPareto(alpha, k), alpha < r,
        # reaches the lower branch at least as fast as k^-(r - alpha)
        r = eta / (eta - 1.0)
        alpha = 1.0 + 0.3 * (r - 1.0)
        pt = boundary(alpha, eta)
        cost = IsoElasticCost(eta=eta)
        for log_k in (20.0, 50.0):
            F = TruncatedPareto(alpha=alpha, k=math.exp(log_k))
            rep = full_report(F, bayes_optimal_mechanism(F, cost), cost)
            gap = math.exp(-log_k * (r - alpha)) + 1e-12
            assert abs(rep.pi_ratio - pt.beta) <= gap
            assert abs(rep.u_ratio - pt.u_over_s) <= gap

    def test_membership_tracks_the_parametrization(self, eta):
        r = eta / (eta - 1.0)
        alphas = [*np.linspace(1.0, r, 40), *np.geomspace(r, 100.0 * r, 40)]
        for alpha in alphas:
            pt = boundary(float(alpha), eta)
            assert membership(pt.u_over_s, pt.beta, eta) == "boundary"

    def test_membership_separates_the_sides(self, eta):
        r = eta / (eta - 1.0)
        low = boundary(1.0 + 0.5 * (r - 1.0), eta)
        assert membership(low.u_over_s, low.beta + 1e-2, eta) == "interior"
        assert membership(low.u_over_s, low.beta - 1e-2, eta) == "exterior"
        top = boundary(2.0 * r, eta)
        assert membership(top.u_over_s - 1e-2, top.beta, eta) == "interior"
        assert membership(top.u_over_s + 1e-2, top.beta, eta) == "exterior"
        tip = consumer_share(eta) + 1e-3
        assert membership(tip, guarantee_ratio(eta), eta) == "exterior"
        assert membership(0.0, 0.5 * (1.0 + 1.0 / eta), eta) == "boundary"


class TestLowerBound:
    def test_closed_form(self):
        assert surplus_lower_bound(2.0) == 0.5
        assert surplus_lower_bound(5.0) == 0.2
        with pytest.raises(ValueError):
            surplus_lower_bound(1.5)

    def test_verifier_battery(self):
        certs = verify_lower_bound(
            2.0, [Uniform(0.0, 1.0), Power(alpha=2.0), Binary(1.0, 2.0, 0.3)])
        assert all(c.passed for c in certs)
        assert all(c.claim_id == "surplus_lower_bound" for c in certs)


class TestHolder:
    def test_pareto_attains_with_equality(self):
        cert = holder_audit(Pareto(3.0), 2.0)
        # measured bound minus U/S should be ~ 0 (tightness)
        assert abs(cert.slack) < 1e-6
        assert cert.passed

    def test_interior_distribution_has_slack(self):
        cert = holder_audit(Uniform(0.0, 1.0), 2.0)
        assert cert.passed
        assert cert.slack > 0.01


class TestConvexCost:
    def test_closed_form(self):
        assert convex_cost_guarantee(2.0) == pytest.approx((0.5, 0.25))
        assert convex_cost_guarantee(4.0) == pytest.approx(
            (1.0 / (math.sqrt(3.0) + 1.0), 1.0 / (4.0 + 2.0 * math.sqrt(3.0))))
        with pytest.raises(ValueError):
            convex_cost_guarantee(1.0)

    def test_warns_below_two(self):
        with pytest.warns(UserWarning, match="derived for eta_bar >= 2"):
            convex_cost_guarantee(1.5)

    def test_weaker_than_iso_elastic_away_from_two(self):
        for eta in (3.0, 4.0, 8.0):
            assert convex_cost_guarantee(eta)[1] < guarantee_ratio(eta)
        assert convex_cost_guarantee(2.0)[1] == pytest.approx(
            guarantee_ratio(2.0))

    def test_verifier(self):
        cost = PolynomialCost(coeffs=[0.0, 0.0, 0.5, 0.0, 0.25], eta_bar=4.0)
        certs = verify_convex_cost_guarantee(
            cost, [Uniform(0.0, 1.0), PointMass(1.0)])
        assert all(c.passed for c in certs)

    def test_positive_marginal_cost_at_zero_rejected(self):
        # c = q + q^2/2: on PointMass(1.5) the menu sells nothing, since
        # c'(q) = z v has no positive root for v <= c'(0)/z = 2, yet S > 0
        cost = PolynomialCost(coeffs=[0.0, 1.0, 0.5], eta_bar=2.0)
        with pytest.raises(ValueError, match=r"c'\(0\) = 0; this cost has "
                           r"c'\(0\) = 1\.0"):
            verify_convex_cost_guarantee(cost, [PointMass(1.5)])

    def test_zero_surplus_rejected(self):
        cost = PolynomialCost(coeffs=[0.0, 0.0, 0.5, 0.0, 0.25], eta_bar=4.0)
        with pytest.raises(ValueError, match="efficient surplus"):
            verify_convex_cost_guarantee(cost, [PointMass(0.0)])


class TestQuantityAndProcurement:
    def test_quantity_guarantee_closed_form(self):
        assert quantity_guarantee(-2.0) == pytest.approx((2.0, 0.25))
        with pytest.raises(ValueError):
            quantity_guarantee(-0.5)
        with pytest.raises(ValueError):
            quantity_guarantee(-1.0)

    def test_procurement_quality_closed_form(self):
        price, share = procurement_quality(2.0)
        assert price == 0.5 and share == 0.5
        price3, share3 = procurement_quality(3.0)
        assert price3 == pytest.approx(1.0 / 3.0)
        assert share3 == pytest.approx((1.0 / 3.0) ** 0.5)

    def test_procurement_quantity_closed_form(self):
        z, share = procurement_quantity(-2.0)
        assert z == pytest.approx(0.5)
        assert share == pytest.approx(0.5)

    def test_pointwise_verifiers(self):
        theta = np.geomspace(0.2, 5.0, 20)
        assert all(c.passed for c in verify_procurement_quality(2.0, theta))
        theta_q = np.geomspace(1.1, 5.0, 20)
        assert all(c.passed
                   for c in verify_procurement_quantity(-2.0, theta_q))


class TestParetoOutcomes:
    def test_interior_alpha_matches_closed_form(self):
        # at alpha = 1000 the density underflows to 0 beyond v = 3, where the
        # menu's virtual value cannot be evaluated and need not be
        cost = IsoElasticCost(eta=2.0)
        for alpha in (5.0, 1000.0):
            F = Pareto(alpha)
            rep = full_report(F, bayes_optimal_mechanism(F, cost), cost)
            pi_exact = pareto_profit_ratio(alpha, 2.0)
            assert rep.pi_ratio == pytest.approx(pi_exact, abs=1e-6)
            assert rep.u_ratio == pytest.approx(frontier(pi_exact, 2.0),
                                                abs=1e-6)


def test_certificate_serialization():
    cert = GuaranteeCertificate(claim_id="x", parameters={"eta": 2.0},
                                bound_value=np.float64(0.5),
                                measured_value=np.float64(0.6),
                                tolerance=1e-6)
    import json
    payload = json.loads(cert.to_json())
    assert payload["pass"] is True
    assert payload["slack"] == pytest.approx(0.1)


@pytest.mark.parametrize("bound, measured", [
    (0.5, math.nan), (math.nan, 0.5), (0.5, math.inf), (-math.inf, 0.5)])
def test_certificate_on_a_non_finite_value_raises(bound, measured):
    # a NaN slack would fail every comparison: the certificate neither
    # passes nor fails, it raises
    with pytest.raises(ArithmeticError, match="is not finite"):
        GuaranteeCertificate(claim_id="x", parameters={"eta": 2.0},
                             bound_value=bound,
                             measured_value=np.float64(measured),
                             tolerance=1e-6)


@given(st.floats(min_value=1.05, max_value=20.0))
@settings(max_examples=80, deadline=None)
def test_frontier_stays_feasible(eta):
    lo, hi = feasible_beta_interval(eta)
    beta = 0.5 * (lo + hi)
    u = frontier(beta, eta)
    assert 0.0 <= u <= 1.0
    assert beta + u <= 1.0 + 1e-9
