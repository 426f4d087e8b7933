import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from markup_guarantee.distributions import (Binary, Discrete, Mixture, Pareto,
                                            PointMass, Power, TruncatedPareto,
                                            Uniform, distribution_from_spec,
                                            minimax_distribution,
                                            tail_condition)
from markup_guarantee.technology import IsoElasticCost

ALL_EXAMPLES = [
    Pareto(2.5),
    TruncatedPareto(alpha=2.0, k=100.0),
    Uniform(0.0, 1.0),
    Binary(1.0, 2.0, 0.3),
    Power(alpha=2.0),
    Discrete(values=(1.0, 2.0, 3.0), masses=(0.2, 0.3, 0.5)),
    PointMass(1.5),
    Mixture(components=(Uniform(0.0, 1.0), Power(alpha=3.0)),
            weights=(0.4, 0.6)),
]


@pytest.mark.parametrize("F", ALL_EXAMPLES, ids=lambda F: F.to_spec()["kind"])
def test_cdf_monotone_and_bounded(F):
    lo, hi = F.support
    top = hi if math.isfinite(hi) else 50.0
    v = np.linspace(lo - 1.0, top + 1.0, 400)
    c = np.asarray(F.cdf(v), dtype=float)
    assert np.all(np.diff(c) >= -1e-12)
    assert np.all((c >= 0.0) & (c <= 1.0))
    assert F.cdf(lo - 0.5) == pytest.approx(0.0)
    if math.isfinite(hi):
        assert F.cdf(hi) == pytest.approx(1.0)


@pytest.mark.parametrize("F", ALL_EXAMPLES, ids=lambda F: F.to_spec()["kind"])
def test_sf_complements_cdf(F):
    lo, hi = F.support
    top = hi if math.isfinite(hi) else 50.0
    v = np.linspace(lo, top, 97)
    np.testing.assert_allclose(np.asarray(F.sf(v)) + np.asarray(F.cdf(v)),
                               1.0, atol=1e-12)


@pytest.mark.parametrize("F", ALL_EXAMPLES, ids=lambda F: F.to_spec()["kind"])
def test_total_mass_is_one(F):
    from markup_guarantee.quadrature import adaptive_quad
    mass = sum(m for _, m in F.atoms())
    for a, b in F.density_segments():
        mass += adaptive_quad(lambda v: np.asarray(F.pdf(v), dtype=float),
                              a, b).value
    assert mass == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("F", ALL_EXAMPLES, ids=lambda F: F.to_spec()["kind"])
def test_quantile_inverts_cdf(F):
    u = np.linspace(0.01, 0.99, 25)
    v = np.asarray(F.quantile(u), dtype=float)
    # galois inequality for generalized inverses: F(Q(u)) >= u
    assert np.all(np.asarray(F.cdf(v)) >= u - 1e-9)


@pytest.mark.parametrize("F", ALL_EXAMPLES, ids=lambda F: F.to_spec()["kind"])
def test_spec_round_trip(F):
    rebuilt = distribution_from_spec(F.to_spec())
    assert rebuilt.to_spec() == F.to_spec()
    v = np.linspace(0.0, 3.0, 11)
    np.testing.assert_allclose(rebuilt.cdf(v), F.cdf(v))


def test_pareto_moments():
    F = Pareto(3.0)
    assert F.power_moment(2.0) == pytest.approx(3.0)       # alpha/(alpha-r)
    assert F.power_moment(3.5) == math.inf


def test_truncated_pareto_moment_closed_form():
    F = TruncatedPareto(alpha=2.0, k=100.0)
    # alpha(1-k^{r-a})/(a-r) + k^{r-a} at r = 1
    expected = 2.0 * (1.0 - 0.01) / 1.0 + 0.01
    assert F.power_moment(1.0) == pytest.approx(expected, rel=1e-12)


def test_truncated_pareto_atom():
    F = TruncatedPareto(alpha=2.0, k=100.0)
    assert F.atoms() == ((100.0, 1e-4),)
    assert F.cdf(100.0) == 1.0
    assert F.cdf(99.999) < 1.0


def test_tail_condition_boundary():
    # (1 - F(v)) v^2 is identically 1 for Pareto(2) at eta = 2
    assert not tail_condition(Pareto(2.0), 2.0)
    assert tail_condition(Pareto(2.5), 2.0)
    assert tail_condition(TruncatedPareto(alpha=2.0, k=10.0), 2.0)
    assert tail_condition(Uniform(0, 1), 2.0)


def test_minimax_distribution_shape():
    assert minimax_distribution(2.0).alpha == 2.0
    assert minimax_distribution(3.0).alpha == pytest.approx(1.5)
    with pytest.raises(ValueError):
        minimax_distribution(1.0)


def test_mixture_merges_atoms():
    F = Mixture(components=(Binary(1.0, 2.0, 0.5), PointMass(2.0)),
                weights=(0.5, 0.5))
    atoms = dict(F.atoms())
    assert atoms[2.0] == pytest.approx(0.75)
    assert atoms[1.0] == pytest.approx(0.25)


def test_spec_rejects_unknown():
    with pytest.raises(ValueError):
        distribution_from_spec({"kind": "uniform", "a": 0, "b": 1, "huh": 3})
    with pytest.raises(ValueError):
        distribution_from_spec({"kind": "lognormal", "mu": 0})
    with pytest.raises(ValueError):
        distribution_from_spec({"alpha": 2.0})


def test_discrete_validation():
    with pytest.raises(ValueError):
        Discrete(values=(2.0, 1.0), masses=(0.5, 0.5))
    with pytest.raises(ValueError):
        Discrete(values=(1.0, 2.0), masses=(0.5, 0.6))


@pytest.mark.parametrize("build", [
    pytest.param(lambda: Pareto(math.nan), id="pareto-nan"),
    pytest.param(lambda: Pareto(math.inf), id="pareto-inf"),
    pytest.param(lambda: TruncatedPareto(2.0, math.inf), id="truncated-k-inf"),
    pytest.param(lambda: TruncatedPareto(math.nan, 10.0), id="truncated-nan"),
    pytest.param(lambda: Uniform(0.0, math.inf), id="uniform-inf"),
    pytest.param(lambda: Uniform(math.nan, 1.0), id="uniform-nan"),
    pytest.param(lambda: Binary(1.0, math.inf, 0.3), id="binary-inf"),
    pytest.param(lambda: Power(math.nan), id="power-nan"),
    pytest.param(lambda: Power(math.inf), id="power-inf"),
    pytest.param(lambda: Discrete((1.0, math.nan), (0.5, 0.5)),
                 id="discrete-nan"),
    pytest.param(lambda: Discrete((1.0, 2.0, 3.0), (0.5, 0.0, 0.5)),
                 id="discrete-zero-mass"),
    pytest.param(lambda: PointMass(math.inf), id="point-mass-inf"),
    pytest.param(lambda: Mixture((Uniform(0.0, 1.0), Power(2.0)),
                                 (math.nan, 1.0)), id="mixture-nan"),
    pytest.param(lambda: IsoElasticCost(math.nan), id="cost-nan"),
    pytest.param(lambda: IsoElasticCost(math.inf), id="cost-inf"),
])
def test_invalid_parameters_rejected_at_construction(build):
    with pytest.raises(ValueError):
        build()


def test_sampling_matches_cdf():
    rng = np.random.default_rng(7)
    F = Power(alpha=2.0)
    draws = F.sample(rng, size=20_000)
    # one-sample KS-style check at a few fixed points
    for t in (0.25, 0.5, 0.75):
        assert np.mean(draws <= t) == pytest.approx(float(F.cdf(t)), abs=0.02)


@given(st.floats(min_value=1.1, max_value=10.0),
       st.floats(min_value=0.001, max_value=0.999))
@settings(max_examples=60, deadline=None)
def test_pareto_quantile_round_trip(alpha, u):
    F = Pareto(alpha)
    assert float(F.cdf(F.quantile(u))) == pytest.approx(u, abs=1e-9)
