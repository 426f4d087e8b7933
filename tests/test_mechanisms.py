import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from markup_guarantee.guarantees import (convex_cost_guarantee,
                                         quantity_guarantee)
from markup_guarantee.mechanisms import (DirectMechanism,
                                         constant_markup_mechanism,
                                         envelope_transfer,
                                         guarantee_mechanism, ic_audit)
from markup_guarantee.technology import IsoElasticCost, PolynomialCost


def test_guarantee_allocation_closed_form():
    M = guarantee_mechanism(2.0)
    v = np.array([0.0, 1.0, 4.0])
    np.testing.assert_allclose(M.Q(v), [0.0, 0.5, 2.0])
    # transfer via envelope: T(v) = v Q - int Q = z v^2 - z v^2/2 = v^2/4
    np.testing.assert_allclose(M.T(v), [0.0, 0.25, 4.0])


def test_guarantee_transfer_consistent_with_quadrature():
    M = guarantee_mechanism(3.0)
    for v in (0.5, 1.0, 2.0):
        assert float(np.asarray(M.T(v))) == pytest.approx(
            envelope_transfer(M.Q, v, ()), rel=1e-9)


def test_guarantee_markup_is_constant():
    # marginal cost at the allocated quality is v/eta for every type: the
    # Lerner index (v - c')/v = 1 - 1/eta is uniform across the menu
    for eta in (1.5, 2.0, 4.0):
        M = guarantee_mechanism(eta)
        cost = IsoElasticCost(eta=eta)
        for v in (0.3, 1.0, 5.0):
            q = float(np.asarray(M.Q(v)))
            assert float(cost.c_prime(q)) == pytest.approx(v / eta, rel=1e-12)


def test_ic_audit_on_guarantee_menu():
    M = guarantee_mechanism(2.0)
    report = ic_audit(M, np.linspace(0.0, 5.0, 200))
    assert report.max_ic_violation <= 1e-12
    assert report.max_ir_violation <= 1e-9


def test_ic_audit_flags_broken_menu():
    # a menu with transfers too low for the top types invites mimicry
    bad = DirectMechanism(Q=lambda v: np.asarray(v, dtype=float),
                          T=lambda v: np.zeros_like(np.asarray(v, dtype=float)))
    report = ic_audit(bad, np.linspace(0.0, 2.0, 50))
    assert report.max_ic_violation > 0.1


def test_ic_audit_grid_cap():
    M = guarantee_mechanism(2.0)
    with pytest.raises(ValueError):
        ic_audit(M, np.linspace(0, 1, 600))


def test_constant_markup_iso_elastic_fast_path():
    cost = IsoElasticCost(eta=2.0)
    z, _ = convex_cost_guarantee(cost.eta_bar)
    assert z == pytest.approx(0.5)
    # allocation solves c'(q) = z v
    M = constant_markup_mechanism(cost, z)
    assert float(np.asarray(M.Q(4.0))) == pytest.approx(2.0)


def test_constant_markup_general_cost():
    cost = PolynomialCost(coeffs=[0.0, 0.0, 0.5, 0.0, 0.25], eta_bar=4.0)
    z, _ = convex_cost_guarantee(cost.eta_bar)
    assert z == pytest.approx(1.0 / (math.sqrt(3.0) + 1.0))
    v = 3.0
    q = float(np.asarray(constant_markup_mechanism(cost, z).Q(v)))
    assert float(cost.c_prime(q)) == pytest.approx(z * v, rel=1e-9)


@pytest.mark.parametrize("eta", [1.5, 2.0, 3.0])
def test_guarantee_menu_is_the_constant_markup_menu(eta):
    cost = IsoElasticCost(eta=eta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # building a menu does not warn
        M = constant_markup_mechanism(cost, 1.0 / eta)
    v = np.array([0.0, 0.3, 1.0, 5.0])
    # Q = (v/eta)^{1/(eta-1)} and T = c(Q)/z = (v/eta)^{eta/(eta-1)}
    for menu in (M, guarantee_mechanism(eta)):
        np.testing.assert_allclose(menu.Q(v), (v / eta) ** (1.0 / (eta - 1.0)),
                                   rtol=1e-14)
        np.testing.assert_allclose(menu.T(v), (v / eta) ** (eta / (eta - 1.0)),
                                   rtol=1e-14)


def test_iso_elastic_markup_states_the_envelope_transfer():
    cost = IsoElasticCost(eta=3.0)
    M = constant_markup_mechanism(cost, convex_cost_guarantee(3.0)[0])
    for v in (0.5, 1.0, 2.0):
        assert float(M.T(v)) == pytest.approx(
            envelope_transfer(M.Q, v, ()), rel=1e-9)
    general = PolynomialCost(coeffs=[0.0, 0.0, 0.5, 0.0, 0.25], eta_bar=4.0)
    z, _ = convex_cost_guarantee(general.eta_bar)
    assert constant_markup_mechanism(general, z).T is None


def test_uniform_price():
    # the quantity-model menu is one uniform price p*, the first half of
    # quantity_guarantee's (p*, share)
    p_star, _ = quantity_guarantee(-2.0)
    assert p_star == pytest.approx(2.0)
    with pytest.raises(ValueError):
        quantity_guarantee(-0.5)
    # the uniform price exceeds the unit cost at every bound below -1
    for eta_bar in (-1.0 - 1e-9, -1.5, -3.0, -1e6):
        assert quantity_guarantee(eta_bar)[0] > 1.0


def test_markup_multiplier_validated():
    cost = IsoElasticCost(eta=2.0)
    for z in (1.5, 1.0, 0.0, -0.5, math.nan):
        with pytest.raises(ValueError, match=r"must lie in \(0,1\)"):
            constant_markup_mechanism(cost, z)


@given(st.floats(min_value=1.2, max_value=6.0))
@settings(max_examples=30, deadline=None)
def test_guarantee_menu_is_ic_for_all_eta(eta):
    M = guarantee_mechanism(eta)
    report = ic_audit(M, np.linspace(0.0, 4.0, 120))
    assert report.max_ic_violation <= 1e-9
    assert report.max_ir_violation <= 1e-9
