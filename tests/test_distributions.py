import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from markup_guarantee.distributions import (Binary, Discrete, Mixture, Pareto,
                                            PointMass, Power, TruncatedPareto,
                                            Uniform, distribution_from_spec)
from markup_guarantee.functionals import full_report
from markup_guarantee.mechanisms import guarantee_mechanism
from markup_guarantee.screening import bayes_optimal_mechanism
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
    # 50^-1000 underflows to 0, and a zero mass is no atom
    assert TruncatedPareto(alpha=1000.0, k=50.0).atoms() == ()


def test_tail_condition_boundary():
    # (1 - F(v)) v^2 is identically 1 for Pareto(2) at eta = 2
    assert not Pareto(2.0).tail_condition(2.0)
    assert Pareto(2.5).tail_condition(2.0)
    assert TruncatedPareto(alpha=2.0, k=10.0).tail_condition(2.0)
    assert Uniform(0, 1).tail_condition(2.0)


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
    # each kind reads its own fields only: another kind's field is no
    # field of this one
    with pytest.raises(ValueError, match=r"unknown fields in pareto spec: \['k'\]"):
        distribution_from_spec({"kind": "pareto", "alpha": 3.0, "k": 9.0})
    with pytest.raises(ValueError, match="pareto spec needs a 'alpha' field"):
        distribution_from_spec({"kind": "pareto"})


# Binary and PointMass are Discrete laws named by their parameters
_NAMED_ATOMIC = [
    (Binary(1.0, 2.0, 0.3), Discrete((1.0, 2.0), (0.7, 0.3))),
    (Binary(0.0, 5.0, 1e-3), Discrete((0.0, 5.0), (1.0 - 1e-3, 1e-3))),
    (PointMass(1.5), Discrete((1.5,), (1.0,))),
]


@pytest.mark.parametrize("F, twin", _NAMED_ATOMIC,
                         ids=lambda F: repr(F).replace(" ", ""))
def test_named_atomic_law_matches_its_discrete_twin(F, twin):
    assert isinstance(F, Discrete)
    v = np.array([-1.0, 0.0, 0.5, 1.0, 1.5, 1.7, 2.0, 3.0, 5.0, 6.0])
    np.testing.assert_array_equal(F.cdf(v), twin.cdf(v))
    np.testing.assert_array_max_ulp(F.sf(v), twin.sf(v), maxulp=1)
    assert F.atoms() == twin.atoms()
    u = np.linspace(0.0, 1.0, 101)
    np.testing.assert_array_equal(F.quantile(u), twin.quantile(u))
    for eta in (2.0, 3.0):
        cost = IsoElasticCost(eta)
        for menu in (lambda G: bayes_optimal_mechanism(G, cost),
                     lambda G: guarantee_mechanism(eta)):
            a, b = full_report(F, menu(F), cost), full_report(twin, menu(twin),
                                                                cost)
            assert abs(a.pi_ratio - b.pi_ratio) <= 1e-15
            assert abs(a.u_ratio - b.u_ratio) <= 1e-15


def test_binary_sf_sums_from_the_top():
    # P(V > v) between the atoms is p_hi itself, not 1 - (1 - p_hi)
    assert Binary(1.0, 2.0, 0.3).sf(1.5) == 0.3


@pytest.mark.parametrize("F, spec", [
    (Binary(1.0, 2.0, 0.1), {"kind": "binary", "v_lo": 1.0, "v_hi": 2.0,
                             "p_hi": 0.1}),
    (Binary(0.5, 3.0, 1e-17), {"kind": "binary", "v_lo": 0.5, "v_hi": 3.0,
                               "p_hi": 1e-17}),
    (PointMass(0.7), {"kind": "point_mass", "v0": 0.7}),
], ids=["binary", "binary-tiny-p", "point-mass"])
def test_named_atomic_spec_keeps_kind_and_exact_parameters(F, spec):
    # p_hi is kept exactly even where 1 - p_hi rounds to 1
    assert F.to_spec() == spec
    rebuilt = distribution_from_spec(spec)
    assert type(rebuilt) is type(F) and rebuilt == F
    assert rebuilt.to_spec() == spec


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
    pytest.param(lambda: Binary(math.nan, 2.0, 0.3), id="binary-nan"),
    pytest.param(lambda: Binary(-1.0, 2.0, 0.3), id="binary-negative"),
    pytest.param(lambda: Binary(2.0, 1.0, 0.3), id="binary-descending"),
    pytest.param(lambda: Binary(1.0, 1.0, 0.3), id="binary-equal"),
    pytest.param(lambda: Binary(1.0, 2.0, 0.0), id="binary-p-zero"),
    pytest.param(lambda: Binary(1.0, 2.0, 1.0), id="binary-p-one"),
    pytest.param(lambda: Binary(1.0, 2.0, 1.5), id="binary-p-above-one"),
    pytest.param(lambda: Binary(1.0, 2.0, math.nan), id="binary-p-nan"),
    pytest.param(lambda: Power(math.nan), id="power-nan"),
    pytest.param(lambda: Power(math.inf), id="power-inf"),
    pytest.param(lambda: Discrete((1.0, math.nan), (0.5, 0.5)),
                 id="discrete-nan"),
    pytest.param(lambda: Discrete((1.0, 2.0, 3.0), (0.5, 0.0, 0.5)),
                 id="discrete-zero-mass"),
    pytest.param(lambda: PointMass(math.inf), id="point-mass-inf"),
    pytest.param(lambda: PointMass(math.nan), id="point-mass-nan"),
    pytest.param(lambda: PointMass(-0.5), id="point-mass-negative"),
    pytest.param(lambda: Mixture((Uniform(0.0, 1.0), Power(2.0)),
                                 (math.nan, 1.0)), id="mixture-nan"),
    pytest.param(lambda: IsoElasticCost(math.nan), id="cost-nan"),
    pytest.param(lambda: IsoElasticCost(math.inf), id="cost-inf"),
])
def test_invalid_parameters_rejected_at_construction(build):
    with pytest.raises(ValueError):
        build()


def test_mass_within_one_float_spacing_of_one_rejected():
    # past these shapes the density is 0.0 in float64 at every v but 1, so
    # a quadrature sees no mass: reports used to give Pi = U = 0
    for build in (lambda: Pareto(1e300), lambda: TruncatedPareto(1e300, 19.0),
                  lambda: Power(1e300), lambda: Power(1e20)):
        with pytest.raises(ValueError, match="density underflows float64"):
            build()
    # mass a float64 grid still resolves near 1 makes a law
    Pareto(1e18), TruncatedPareto(1e18, 2.0), Power(1e18)


def test_sampling_matches_cdf():
    rng = np.random.default_rng(7)
    F = Power(alpha=2.0)
    draws = F.quantile(rng.uniform(size=20_000))
    # one-sample KS-style check at a few fixed points
    for t in (0.25, 0.5, 0.75):
        assert np.mean(draws <= t) == pytest.approx(float(F.cdf(t)), abs=0.02)


@given(st.floats(min_value=1.1, max_value=10.0),
       st.floats(min_value=0.001, max_value=0.999))
@settings(max_examples=60, deadline=None)
def test_pareto_quantile_round_trip(alpha, u):
    F = Pareto(alpha)
    assert float(F.cdf(F.quantile(u))) == pytest.approx(u, abs=1e-9)


# --- Mixture.quantile -------------------------------------------------------

def _acceptance_family(n, seed=20260823):
    """Mixtures of 1-3 Uniform(0, b) and Power(alpha) components, drawn as
    the acceptance battery draws them."""
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


def _grid(n=2000):
    """The quantile levels `iron` asks for on a grid of n (2000, its own)."""
    eps = 1e-6 / n
    return np.linspace(eps, 1.0 - eps, n)


def _ulps(x, y):
    """Distance in floats between arrays of nonnegative floats."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return np.abs(x.view(np.int64) - y.view(np.int64))


def _assert_generalised_inverse(F, u, x):
    """F(x) >= u, and F of the float below x is < u, unless x is the bottom
    of the support."""
    assert np.all(np.asarray(F.cdf(x)) >= u)
    below = np.asarray(F.cdf(np.nextafter(x, -np.inf)))
    assert np.all((below < u) | (x == F.support[0]))


_QUANTILE_LAWS = [
    *_acceptance_family(12),
    Mixture((Uniform(0.0, 1.0), Uniform(2.0, 3.0)), (0.5, 0.5)),
    Mixture((Pareto(1.5), Uniform(0.0, 2.0)), (0.5, 0.5)),
    Mixture((TruncatedPareto(2.0, 100.0), Power(0.55)), (0.7, 0.3)),
    Mixture((Binary(1.0, 2.0, 0.3), Uniform(0.0, 3.0)), (0.5, 0.5)),
    Mixture((Mixture((Uniform(0.0, 1.0), Power(3.0)), (0.4, 0.6)),
             Pareto(3.0)), (0.3, 0.7)),
]


@pytest.mark.parametrize("F", _QUANTILE_LAWS, ids=range(len(_QUANTILE_LAWS)))
def test_mixture_quantile_is_minimal(F):
    u = np.concatenate([_grid(), np.random.default_rng(3).uniform(size=200)])
    _assert_generalised_inverse(F, u, F.quantile(u))


def _bisected_quantile(F, u):
    """Reference: bisection on float bit patterns from the support's ends
    down to adjacent floats lo < hi with F(lo) < u <= F(hi)."""
    lo, hi = (np.full(np.shape(u), e).view(np.int64) for e in F.support)
    for _ in range(64):
        mid = lo + (hi - lo) // 2
        below = F.cdf(mid.view(float)) < u
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return hi.view(float)


@pytest.mark.parametrize("F", _QUANTILE_LAWS, ids=range(len(_QUANTILE_LAWS)))
def test_mixture_quantile_matches_bisection(F):
    u = _grid()
    assert np.array_equal(F.quantile(u), _bisected_quantile(F, u))


@pytest.mark.parametrize("C", [Uniform(0.5, 2.5), Power(0.55), Power(3.0),
                               Pareto(1.5), TruncatedPareto(2.0, 50.0)],
                         ids=lambda C: C.to_spec()["kind"])
def test_single_component_mixture_matches_closed_form(C):
    # above u = 0.9 a heavy tail's F stays flat over many floats, and below
    # u = 1e-3 the closed form's power is off by about |ln u| floats, so
    # there the two inverses may differ by more than a few floats
    u = np.linspace(1e-3, 0.9, 2000)
    assert np.max(_ulps(Mixture((C,), (1.0,)).quantile(u), C.quantile(u))) <= 4


def test_quantile_inside_an_atom_is_the_atom():
    # F jumps by 0.35 at 1 and by 0.5 * 0.4 at 2
    F = Mixture((Binary(1.0, 2.0, 0.4), Uniform(0.0, 3.0)), (0.5, 0.5))
    for loc in (1.0, 2.0):
        lo, hi = float(F.cdf(np.nextafter(loc, 0.0))), float(F.cdf(loc))
        u = np.linspace(lo, hi, 9)[1:]
        assert np.all(F.quantile(u) == loc)


def test_nested_mixture_quantile():
    inner = Mixture((Uniform(0.0, 1.0), Power(3.0)), (0.4, 0.6))
    nested = Mixture((inner, Pareto(3.0)), (0.3, 0.7))
    flat = Mixture((Uniform(0.0, 1.0), Power(3.0), Pareto(3.0)),
                   (0.12, 0.18, 0.7))
    u = _grid()
    x = nested.quantile(u)
    _assert_generalised_inverse(nested, u, x)
    np.testing.assert_allclose(x, flat.quantile(u), rtol=1e-14)


def test_quantile_near_zero_with_infinite_density():
    # F(x) = x^0.55 reaches 5e-10 at x ~ 1.5e-17, where f ~ 2e7
    C = Power(0.55)
    x = Mixture((C,), (1.0,)).quantile(5e-10)
    _assert_generalised_inverse(Mixture((C,), (1.0,)), 5e-10, x)
    assert float(x[0]) == pytest.approx(float(C.quantile(5e-10)), rel=1e-14)


def test_quantile_calls_per_grid(monkeypatch):
    # each of cdf and pdf is a full pass over the mixture's components:
    # iron's sample interpolates in one table, and the exact inverse adds
    # one bisection step per halving of the widest bracket
    calls = {"cdf": 0, "pdf": 0}
    for name in calls:
        method = getattr(Mixture, name)

        def counted(self, v, method=method, name=name):
            calls[name] += 1
            return method(self, v)

        monkeypatch.setattr(Mixture, name, counted)
    near, exact = set(), set()
    for F in _acceptance_family(60):
        for seen, inverse in ((near, F._near_quantile), (exact, F.quantile)):
            calls.update(cdf=0, pdf=0)
            inverse(_grid())
            seen.add((calls["cdf"], calls["pdf"]))
    assert near == {(1, 0)}
    assert max(cdf for cdf, _ in exact) <= 64
    assert {pdf for _, pdf in exact} == {0}
