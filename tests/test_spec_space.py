"""Property over the whole distribution-spec space.

Every JSON spec either fails at construction with a ValueError, or gives
the guarantee menu and the Bayes-optimal menu reports with finite shares
that respect feasibility, Pi + U <= S within the report's own slack, with
the Bayes report's (U/S, Pi/S) in the feasible set of its elasticity within
that slack as a share of S, or fails with one of the documented errors:
infinite surplus, zero surplus, a surplus past the largest float64, or a
density that underflows float64 where the Bayes menu divides by it.
Specs are drawn for every kind, with nested mixtures, NaN and infinite
parameters, zero masses and weights, and zero widths.  A second property
searches atomic laws for a Bayes outcome below the feasible set's lower
branch.
"""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st, target

from markup_guarantee.distributions import Discrete, distribution_from_spec
from markup_guarantee.functionals import InfiniteSurplusError, full_report
from markup_guarantee.guarantees import boundary, consumer_share, membership
from markup_guarantee.mechanisms import guarantee_mechanism
from markup_guarantee.screening import bayes_optimal_mechanism
from markup_guarantee.technology import IsoElasticCost

_SPECIAL = (0.0, 1.0, math.nan, math.inf, -math.inf, -1.0, 1e-300, 1e300)
_PARAM = st.one_of(st.floats(min_value=0.0, max_value=20.0),
                   st.sampled_from(_SPECIAL))
_WIDTH = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=20.0),
                   st.sampled_from(_SPECIAL))


@st.composite
def _shares(draw, n):
    """n masses: normalised nonnegative draws (zeros included), or raw."""
    raw = draw(st.lists(st.one_of(st.floats(min_value=0.0, max_value=1.0),
                                  st.sampled_from(_SPECIAL)),
                        min_size=n, max_size=n))
    total = sum(raw)
    if draw(st.booleans()) and math.isfinite(total) and total > 0.0:
        return [x / total for x in raw]
    return raw


@st.composite
def _uniform(draw):
    a = draw(_PARAM)
    return {"kind": "uniform", "a": a, "b": a + draw(_WIDTH)}


@st.composite
def _binary(draw):
    v_lo = draw(_PARAM)
    return {"kind": "binary", "v_lo": v_lo, "v_hi": v_lo + draw(_WIDTH),
            "p_hi": draw(st.one_of(st.floats(min_value=0.0, max_value=1.0),
                                   st.sampled_from(_SPECIAL)))}


@st.composite
def _discrete(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    values = [draw(_PARAM)]
    for _ in range(n - 1):
        values.append(values[-1] + draw(_WIDTH))
    return {"kind": "discrete", "values": values, "masses": draw(_shares(n))}


@st.composite
def _mixture(draw, children):
    components = draw(st.lists(children, min_size=1, max_size=3))
    return {"kind": "mixture", "components": components,
            "weights": draw(_shares(len(components)))}


_LEAVES = st.one_of(
    st.builds(lambda a: {"kind": "pareto", "alpha": a}, _PARAM),
    st.builds(lambda a, k: {"kind": "truncated_pareto", "alpha": a, "k": k},
              _PARAM, _PARAM),
    _uniform(),
    _binary(),
    st.builds(lambda a: {"kind": "power", "alpha": a}, _PARAM),
    _discrete(),
    st.builds(lambda v: {"kind": "point_mass", "v0": v}, _PARAM),
)
_SPECS = st.recursive(_LEAVES, _mixture, max_leaves=4)

# the documented ways a valid law has no finite, positive share of surplus,
# or no Bayes menu within float64
_NO_SHARES = ("surplus is infinite", "efficient surplus is",
              "efficient surplus overflows float64",
              "the density underflows float64")


@given(_SPECS)
@example({"kind": "truncated_pareto", "alpha": 8.04, "k": 1e300})
@settings(max_examples=60, deadline=None, derandomize=True)
def test_every_spec_is_rejected_or_reported(spec):
    try:
        F = distribution_from_spec(spec)
    except ValueError:
        return
    for eta in (1.5, 2.0, 3.0):
        cost = IsoElasticCost(eta=eta)
        for menu in ("guarantee", "bayes_optimal"):
            try:
                M = (guarantee_mechanism(eta) if menu == "guarantee"
                     else bayes_optimal_mechanism(F, cost))
                rep = full_report(F, M, cost)
            except InfiniteSurplusError:
                continue
            except ValueError as exc:
                if str(exc).startswith(_NO_SHARES):
                    continue
                raise
            assert math.isfinite(rep.pi_ratio) and math.isfinite(rep.u_ratio)
            slack = max(10.0 * (rep.err_S + rep.err_Pi + rep.err_U),
                        1e-9 * max(1.0, rep.S))
            assert rep.Pi + rep.U <= rep.S + slack
            if menu == "bayes_optimal":
                tol = slack / rep.S
                x, y = rep.u_ratio, rep.pi_ratio
                assert -tol <= min(x, y) and max(x, y) <= 1.0 + tol
                verdict = membership(min(max(x, 0.0), 1.0),
                                     min(max(y, 0.0), 1.0), eta, tol)
                assert verdict != "exterior"


@st.composite
def _atomic_law(draw):
    """2 to 4 atoms with gaps from e^-6 to e^6 and masses from 1 down to
    e^-12 before normalising: laws that iron exactly."""
    n = draw(st.integers(min_value=2, max_value=4))
    gaps = draw(st.lists(st.floats(min_value=-6.0, max_value=6.0),
                         min_size=n, max_size=n))
    logs = draw(st.lists(st.floats(min_value=-12.0, max_value=0.0),
                         min_size=n, max_size=n))
    values = tuple(float(v) for v in np.cumsum(np.exp(gaps)))
    weights = np.exp(logs)
    return Discrete(values=values, masses=tuple(weights / weights.sum()))


def _lower_branch_beta(x, eta):
    """Pi/S on the lower branch of the feasible set at U/S = x."""
    x = min(x, consumer_share(eta))
    return boundary(1.0 / (1.0 - x ** (eta - 1.0)), eta).beta


@given(_atomic_law())
@settings(max_examples=1000, deadline=None, derandomize=True)
def test_atomic_bayes_outcomes_stay_above_the_lower_branch(F):
    # an adversarial search: hypothesis steers each elasticity's draws
    # toward the smallest margin Pi/S - beta_low(U/S).  The lower branch is
    # derived from truncated Pareto limits, so this tests it as a conjecture
    for eta in (1.5, 3.0, 5.0):
        cost = IsoElasticCost(eta=eta)
        rep = full_report(F, bayes_optimal_mechanism(F, cost), cost)
        margin = rep.pi_ratio - _lower_branch_beta(rep.u_ratio, eta)
        target(-margin, label=f"eta={eta:g}")
        slack = max(10.0 * (rep.err_S + rep.err_Pi + rep.err_U),
                    1e-9 * max(1.0, rep.S))
        assert margin >= -slack / rep.S
