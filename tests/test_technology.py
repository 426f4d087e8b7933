import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

import markup_guarantee.technology as tech
from markup_guarantee.guarantees import convex_cost_guarantee
from markup_guarantee.mechanisms import constant_markup_mechanism
from markup_guarantee.technology import (CostValidationError, IsoElasticCost,
                                         NonlinearDemandModel, PolynomialCost,
                                         RootFindError,
                                         SeparableQuantityUtility,
                                         cost_from_spec,
                                         quantity_model_from_spec)


class TestIsoElastic:
    def test_quadratic_case(self):
        cost = IsoElasticCost(eta=2.0)
        assert cost.c(2.0) == pytest.approx(2.0)
        assert cost.c_prime(3.0) == pytest.approx(3.0)
        assert cost.efficient_quality(5.0) == pytest.approx(5.0)

    def test_elasticity_is_constant(self):
        cost = IsoElasticCost(eta=3.0)
        for q in (0.1, 1.0, 7.0):
            assert q * cost.c_prime(q) / cost.c(q) == pytest.approx(3.0)

    def test_rejects_eta_at_most_one(self):
        with pytest.raises(ValueError):
            IsoElasticCost(eta=1.0)

    @given(st.floats(min_value=1.2, max_value=8.0),
           st.floats(min_value=0.1, max_value=50.0))
    @settings(max_examples=60, deadline=None)
    def test_efficient_quality_solves_foc(self, eta, v):
        cost = IsoElasticCost(eta=eta)
        q = cost.efficient_quality(v)
        assert float(cost.c_prime(q)) == pytest.approx(v, rel=1e-9)


class TestGeneralConvex:
    def test_polynomial_matches_iso_elastic(self):
        # q^2/2 is iso-elastic with eta = 2
        poly = PolynomialCost(coeffs=[0.0, 0.0, 0.5], eta_bar=2.0)
        iso = IsoElasticCost(eta=2.0)
        q = np.geomspace(0.01, 10.0, 30)
        np.testing.assert_allclose(poly.c(q), iso.c(q), rtol=1e-12)
        np.testing.assert_allclose(q * poly.c_prime(q) / poly.c(q), 2.0,
                                   rtol=1e-12)

    def test_mixed_polynomial_elasticity_band(self):
        cost = PolynomialCost(coeffs=[0.0, 0.0, 0.5, 0.0, 0.25], eta_bar=4.0)
        q = np.geomspace(0.01, 100.0, 50)
        eta = q * cost.c_prime(q) / cost.c(q)
        assert np.all(eta <= 4.0 + 1e-9)
        assert np.all(eta >= 2.0 - 1e-9)

    def test_validation_rejects_declared_bound_violation(self):
        with pytest.raises(CostValidationError):
            # true elasticity reaches 4 but the declared bound is 3
            PolynomialCost(coeffs=[0.0, 0.0, 0.5, 0.0, 0.25], eta_bar=3.0)

    def test_validation_rejects_concave_marginal(self):
        with pytest.raises(CostValidationError):
            # c''' = 2 - 2q is negative past q = 1
            PolynomialCost(coeffs=[0.0, 0.0, 0.5, 1.0 / 3.0, -1.0 / 12.0],
                           eta_bar=4.0)

    @pytest.mark.parametrize("coeffs, eta_bar", [
        # an infinite coefficient made every Q 4.1e-25
        ([0.0, 0.0, np.inf], 2.0),
        ([0.0, 0.0, np.nan], 2.0),
        ([0.0, 0.0, 0.5], np.nan),
        ([0.0, 0.0, 0.5], np.inf),
        # linear: no efficient quality
        ([0.0, 1.0], 2.0),
        # the elasticity rises to the degree 4, past the declared 2.5
        ([0.0, 0.0, 0.5, 0.0, 0.25e-20], 2.5),
        # sign-mixed: the elasticity reaches 5.03, past the degree 5
        ([0.0, 0.0, 0.5, 1.0, -0.5, 1.0], 6.0),
    ], ids=["inf-coeff", "nan-coeff", "nan-eta-bar", "inf-eta-bar", "linear",
            "tiny-top-coeff", "sign-mixed"])
    def test_validation_is_exact(self, coeffs, eta_bar):
        with pytest.raises(CostValidationError):
            cost_from_spec({"kind": "poly_cost", "coeffs": coeffs,
                            "eta_bar": eta_bar})

    def test_validation_rejects_nonzero_origin(self):
        with pytest.raises(CostValidationError):
            PolynomialCost(coeffs=[1.0, 0.0, 0.5], eta_bar=2.0)

    def test_efficient_quality_general(self):
        cost = PolynomialCost(coeffs=[0.0, 0.0, 0.5, 0.0, 0.25], eta_bar=4.0)
        v = 3.0
        q = cost.efficient_quality(v)
        assert float(cost.c_prime(q)) == pytest.approx(v, rel=1e-9)


class TestMonotoneRoot:
    COST = PolynomialCost(coeffs=[0.0, 0.0, 0.5, 0.0, 0.25], eta_bar=4.0)

    def test_array_solve_equals_one_element_solves_bit_for_bit(self):
        rng = np.random.default_rng(8)
        v = np.concatenate([rng.uniform(0.0, 5.0, 500),
                            10.0 ** rng.uniform(-6.0, 4.0, 500)])
        cost = self.COST
        q = tech._monotone_root(cost.c_prime, v)
        one = [tech._monotone_root(cost.c_prime, v[i:i + 1])[0]
               for i in range(v.size)]
        assert q.shape == v.shape
        assert np.array_equal(q, np.array(one))
        assert np.allclose(cost.c_prime(q), v, rtol=1e-12, atol=0)

    def test_roots_past_two_to_the_200(self):
        # c'(q) = q: the roots are the targets themselves
        target = np.array([0.5, 2.0 ** 201, 4.6e61, 1e300])
        quadratic = PolynomialCost(coeffs=[0.0, 0.0, 0.5], eta_bar=2.0)
        assert np.array_equal(quadratic.efficient_quality(target), target)
        assert self.COST.efficient_quality(1e300) == pytest.approx(
            1e100, rel=1e-15)

    @pytest.mark.parametrize("coeffs", [[0.0, 0.0, 0.5],
                                        [0.0, 0.0, 0.5, 0.0, 0.25]],
                             ids=["quadratic", "quartic"])
    def test_roots_match_brentq(self, monkeypatch, coeffs):
        monkeypatch.setattr(tech, "_NEWTON_PASSES", 8)
        cost = PolynomialCost(coeffs=coeffs, eta_bar=4.0)
        target = 10.0 ** np.linspace(-300.0, 300.0, 241)
        q = cost.efficient_quality(target)
        for t, root in zip(target, q):
            # c'(q) = q or q + q^3 passes t at 2t and at 2 t^(1/3)
            hi = 2.0 * (t if len(coeffs) == 3 else min(t, t ** (1.0 / 3.0)))
            oracle = brentq(lambda x: float(cost.c_prime(x)) - t, 0.0, hi,
                            xtol=1e-320, rtol=4.0 * np.finfo(float).eps,
                            maxiter=500)
            assert abs(root - oracle) <= 4.0 * np.spacing(oracle)

    def test_marginal_past_the_float_limit_raises(self):
        # c'(q) = q + q^3 meets the float64 maximum at a finite q, but the
        # marginal overflows on the way down to it
        top = np.finfo(float).max
        with pytest.raises(RootFindError, match="float64 limit"):
            self.COST.efficient_quality(top)
        with pytest.raises(RootFindError, match="float64 limit"):
            self.COST.efficient_quality(np.array([0.5, top]))

    def test_nonpositive_values_get_zero_quality(self):
        cost = self.COST
        v = np.array([-2.0, 0.0, 1.5, -0.0, 3.0])
        z, _ = convex_cost_guarantee(cost.eta_bar)
        Q = constant_markup_mechanism(cost, z).Q
        for q in (cost.efficient_quality(v), Q(v)):
            assert np.all(q[[0, 1, 3]] == 0.0)
            assert np.all(q[[2, 4]] > 0.0)
        assert cost.efficient_quality(-1.0) == 0.0
        assert Q(0.0) == 0.0
        # below c'(0) = 1 nothing is sold, exactly
        shifted = PolynomialCost(coeffs=[0.0, 1.0, 0.5], eta_bar=2.0)
        assert shifted.efficient_quality(0.5) == 0.0

    def test_one_root_call_per_array(self, monkeypatch):
        calls = []
        root = tech._monotone_root

        def counting_root(*args, **kw):
            calls.append(np.size(args[1]))
            return root(*args, **kw)

        monkeypatch.setattr(tech, "_monotone_root", counting_root)
        v = np.linspace(-1.0, 4.0, 50)
        self.COST.efficient_quality(v)
        z, _ = convex_cost_guarantee(self.COST.eta_bar)
        constant_markup_mechanism(self.COST, z).Q(v)
        assert calls == [40, 40]


class TestQuantitySide:
    def test_separable_demand_closed_form(self):
        m = SeparableQuantityUtility(eta=-2.0)
        # D(v, p) = (p/v)^eta = (v/p)^2
        assert float(m.demand(2.0, 4.0)) == pytest.approx(0.25)
        # d ln D / d ln p, from a 0.1% step in p
        step = np.log(m.demand(1.0, 3.003) / m.demand(1.0, 3.0))
        assert float(step / np.log(1.001)) == pytest.approx(-2.0, rel=1e-9)

    def test_separable_marginal_utility_inverts_demand(self):
        m = SeparableQuantityUtility(eta=-3.0)
        v, p = 1.5, 2.5
        q = float(m.demand(v, p))
        # h_q(v, q) = v q^(1/eta), the marginal utility, is the price
        assert v * q ** (1.0 / m.eta) == pytest.approx(p, rel=1e-12)

    def test_efficient_surplus_per_value(self):
        m = SeparableQuantityUtility(eta=-2.0)
        # -v^2/(eta+1) with eta = -2 gives v^2, in closed form
        value, error = m.surplus_above(3.0, 1.0)
        assert (float(value), float(error)) == (pytest.approx(9.0), 0.0)

    def test_nonlinear_band_check_passes_for_drifting_elasticity(self):
        D = lambda v, p: 2.0 * np.asarray(v, dtype=float) / (
            np.asarray(p, dtype=float) ** 2 * (1.0 + np.asarray(p, dtype=float)))
        m = NonlinearDemandModel(eta_bar=-2.0, D=D)
        m.check_band(v_grid=[0.5, 1.0, 4.0])
        e = float(np.asarray(m.elasticity(1.0, 1.0)))
        assert e == pytest.approx(-2.5, abs=1e-4)

    def test_nonlinear_band_check_rejects_out_of_band(self):
        D = lambda v, p: np.asarray(v, dtype=float) * np.asarray(p, dtype=float) ** -5.0
        m = NonlinearDemandModel(eta_bar=-2.0, D=D)
        with pytest.raises(CostValidationError):
            m.check_band(v_grid=[1.0])


def test_cost_specs_round_trip():
    iso = cost_from_spec({"kind": "iso_elastic", "eta": 2.5})
    assert iso.eta == 2.5
    poly = cost_from_spec({"kind": "poly_cost",
                           "coeffs": [0.0, 0.0, 0.5, 0.0, 0.25],
                           "eta_bar": 4.0})
    assert poly.eta_bar == 4.0
    sep = quantity_model_from_spec({"kind": "separable_quantity", "eta": -2.0})
    assert sep.eta == -2.0
    with pytest.raises(ValueError):
        cost_from_spec({"kind": "nope"})
