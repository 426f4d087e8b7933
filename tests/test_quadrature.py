import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from markup_guarantee import quadrature
from markup_guarantee.quadrature import QuadratureError, adaptive_quad


def test_gauss_subset_is_the_10_point_rule():
    nodes, weights = np.polynomial.legendre.leggauss(10)
    gauss = quadrature._GAUSS_WEIGHTS > 0
    assert gauss.sum() == 10
    np.testing.assert_allclose(quadrature._NODES[gauss], nodes, rtol=0,
                               atol=1e-15)
    np.testing.assert_allclose(quadrature._GAUSS_WEIGHTS[gauss], weights,
                               rtol=0, atol=1e-15)


def test_kronrod_rule_is_exact_to_degree_31():
    x, w = quadrature._NODES, quadrature._KRONROD_WEIGHTS
    assert x.size == 21 and np.all(np.diff(x) > 0)
    for k in range(32):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(w @ x**k - exact) <= 1e-15, k


def test_both_weight_sets_sum_to_two():
    assert quadrature._KRONROD_WEIGHTS.sum() == pytest.approx(2.0, abs=1e-15)
    assert quadrature._GAUSS_WEIGHTS.sum() == pytest.approx(2.0, abs=1e-15)


def test_polynomial_exact():
    # degree well below the rule's exactness threshold
    res = adaptive_quad(lambda x: 3 * x**2, 0.0, 2.0)
    assert res.value == pytest.approx(8.0, abs=1e-12)
    assert res.error < 1e-10


def test_empty_interval():
    assert adaptive_quad(lambda x: x, 1.0, 1.0).value == 0.0


def test_oscillatory():
    res = adaptive_quad(np.sin, 0.0, 50.0)
    assert res.value == pytest.approx(1.0 - math.cos(50.0), rel=1e-8)


def test_log_wide_range():
    # 1/v over eight decades: geometric seeding must keep this cheap
    res = adaptive_quad(lambda v: 1.0 / np.asarray(v), 1.0, 1e8)
    assert res.value == pytest.approx(math.log(1e8), rel=1e-9)


def test_endpoint_singularity():
    # integrable power singularity at the left endpoint
    res = adaptive_quad(lambda x: 1.0 / np.sqrt(np.asarray(x)), 0.0, 1.0)
    assert res.value == pytest.approx(2.0, rel=1e-6)


def _counted(f):
    seen = []

    def g(x):
        seen.append(np.size(x))
        return f(x)
    return g, seen


@pytest.mark.parametrize("f, a, b, exact, max_calls", [
    # x^(-1/2) at 0: plain bisection needs 51 integrand calls
    (lambda x: np.asarray(x) ** -0.5, 0.0, 1.0, 2.0, 10),
    # the Bayes allocation at eta = 3 starts like (v - c)^(1/2) at the
    # exclusion cutoff c: plain bisection needs 13
    (lambda x: np.sqrt(np.maximum(np.asarray(x) - 0.3, 0.0)), 0.3, 1.0,
     (2.0 / 3.0) * 0.7 ** 1.5, 3),
    # a Pareto-type tail, folded to u^(-0.57) at u = 0: plain bisection
    # needs 60
    (lambda v: np.asarray(v, dtype=float) ** -1.43, 1.0, math.inf,
     1.0 / 0.43, 11),
], ids=["inverse-sqrt", "cutoff-sqrt", "folded-tail"])
def test_endpoint_singularity_converges_in_a_few_calls(f, a, b, exact,
                                                       max_calls):
    # a piece is only singular at its ends, and a failing end panel is cut
    # geometrically toward that end and shrinks 128-fold per round
    g, seen = _counted(f)
    res = adaptive_quad(g, a, b)
    assert abs(res.value - exact) <= res.error
    assert res.error <= max(1e-11, 1e-9 * abs(res.value))
    assert len(seen) <= max_calls


@pytest.mark.parametrize("f, a, b, value, error", [
    (np.cos, 0.0, 2.0, "0x1.d18f6ead1b445p-1", "0x1.0000000000000p-53"),
    # eight decades: the geometric seed panels
    (lambda v: 1.0 / np.asarray(v), 1.0, 1e8, "0x1.26bb1bbb55514p+4",
     "0x1.5400000000000p-47"),
], ids=["one-panel", "geometric-seed"])
def test_piece_accepted_in_its_first_round_keeps_its_bits(f, a, b, value,
                                                          error):
    # the first round is not refined, so grading cannot change its sums
    g, seen = _counted(f)
    res = adaptive_quad(g, a, b)
    assert len(seen) == 1
    assert res.value.hex() == value and res.error.hex() == error


def test_split_grades_only_panels_at_a_piece_end():
    # panels on [0, 8]: one at each end and one inside
    lo, hi = quadrature._split(np.array([0.0, 2.0, 6.0]),
                               np.array([2.0, 6.0, 8.0]), 0.0, 8.0)
    h = 1.0     # the end panels' half-width
    cuts = [0.0, h / 64, h / 16, h / 4, 1.0, 2.0, 4.0, 6.0, 7.0,
            8.0 - h / 4, 8.0 - h / 16, 8.0 - h / 64, 8.0]
    assert sorted(zip(lo, hi)) == list(zip(cuts[:-1], cuts[1:]))
    # the children at the piece's ends stay first and last
    assert (lo[0], hi[-1]) == (0.0, 8.0)
    # a panel that spans the piece is graded toward both ends
    lo, hi = quadrature._split(np.array([0.0]), np.array([2.0]), 0.0, 2.0)
    cuts = [0.0, h / 64, h / 16, h / 4, 1.0, 2.0 - h / 4, 2.0 - h / 16,
            2.0 - h / 64, 2.0]
    assert sorted(zip(lo, hi)) == list(zip(cuts[:-1], cuts[1:]))
    # a panel inside the piece is bisected
    lo, hi = quadrature._split(np.array([2.0]), np.array([6.0]), 0.0, 8.0)
    assert (lo.tolist(), hi.tolist()) == ([2.0, 4.0], [4.0, 6.0])


def test_tail_pareto():
    # int_1^inf v^{-2} dv = 1
    res = adaptive_quad(lambda v: np.asarray(v, dtype=float) ** -2, 1.0,
                        math.inf)
    assert res.value == pytest.approx(1.0, rel=1e-9)


def test_tail_requires_positive_start():
    with pytest.raises(ValueError):
        adaptive_quad(lambda v: v, 0.0, math.inf, points=(-1.0, 0.0))


def test_step_split_at_its_jump_is_exact():
    # a constant on each piece: both rules are exact on the first pass,
    # one call on the 21 Kronrod nodes per piece
    seen = []

    def step(x):
        x = np.asarray(x, dtype=float)
        seen.append(x.size)
        return np.where(x < 1.0 / 3.0, 1.0, 2.0)

    res = adaptive_quad(step, 0.0, 1.0, points=(1.0 / 3.0,))
    assert res.value == pytest.approx(5.0 / 3.0, abs=1e-15)
    assert res.error <= 1e-15
    assert seen == [21, 21]


def test_points_outside_the_range_are_ignored():
    f = lambda x: 3 * np.asarray(x) ** 2
    res = adaptive_quad(f, 0.0, 2.0, points=(-1.0, 0.0, 2.0, 5.0, math.nan))
    assert res == adaptive_quad(f, 0.0, 2.0)


def test_tail_starts_from_the_last_point():
    # 1 on [0, 1), v^-2 beyond: the tail is folded from 1, not from 0
    f = lambda v: np.where(np.asarray(v) < 1.0, 1.0,
                           np.asarray(v, dtype=float) ** -2)
    res = adaptive_quad(f, 0.0, math.inf, points=(1.0,))
    assert res.value == pytest.approx(2.0, rel=1e-12)
    # the tail starts at the last point, 3: 1/2 + 2/3 + 1/3
    res = adaptive_quad(f, 0.5, math.inf, points=(3.0, 1.0))
    assert res.value == pytest.approx(1.5, rel=1e-9)


def test_infinite_limits_rejected():
    with pytest.raises(ValueError):
        adaptive_quad(lambda v: v, 0.0, math.inf)


def test_budget_exhaustion_reports_partial(monkeypatch):
    # a nasty integrand with a tiny budget still reports its best estimate
    monkeypatch.setattr(quadrature, "_MAX_EVALS", 200)
    f = lambda x: np.sin(1.0 / (np.asarray(x) + 1e-4))
    with pytest.raises(QuadratureError) as exc:
        adaptive_quad(f, 0.0, 1.0)
    assert exc.value.value is not None
    assert exc.value.error is not None


@given(st.floats(min_value=-5.0, max_value=5.0),
       st.floats(min_value=0.01, max_value=10.0))
@settings(max_examples=50, deadline=None)
def test_linear_is_exact(a, width):
    b = a + width
    res = adaptive_quad(lambda x: 2.0 * np.asarray(x) + 1.0, a, b)
    exact = (b**2 + b) - (a**2 + a)
    assert res.value == pytest.approx(exact, rel=1e-12, abs=1e-12)


def _powers(x):
    x = np.asarray(x, dtype=float)
    return np.stack([x**k for k in range(6)])


def test_stack_of_powers_is_exact_on_a_finite_range():
    res = adaptive_quad(_powers, -1.0, 2.0, points=(0.5,))
    exact = [(2.0 ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1) for k in range(6)]
    assert res.value.shape == res.error.shape == (6,)
    np.testing.assert_allclose(res.value, exact, rtol=1e-15, atol=1e-15)
    assert np.all(res.error <= 1e-14)


def test_stack_shares_the_tail_fold():
    # int_1^inf v^-(k+2) dv = 1/(k+1); after u = 1/v each row is u^k
    res = adaptive_quad(lambda v: 1.0 / (v * v * _powers(v)), 1.0, math.inf)
    np.testing.assert_allclose(res.value, 1.0 / np.arange(1, 7), rtol=1e-15)
    assert np.all(res.error <= 1e-15)


def test_each_row_matches_its_own_scalar_call():
    rows = (np.sqrt, lambda v: np.abs(v - 0.3), np.sin,
            lambda v: np.maximum(v - 0.7, 0.0) ** 1.5)
    stacked = adaptive_quad(lambda v: np.stack([g(v) for g in rows]), 0.0, 1.0,
                            points=(0.3,))
    assert stacked.value.shape == stacked.error.shape == (len(rows),)
    assert np.all(stacked.error >= 0.0)
    for g, value, error in zip(rows, stacked.value, stacked.error):
        alone = adaptive_quad(g, 0.0, 1.0, points=(0.3,))
        # the stated errors, plus the rounding of sums over other panels
        # (the floor at which _adapt calls a panel converged)
        assert (abs(value - alone.value)
                <= error + alone.error + 1e-15 * abs(value))
        # each row meets its own tolerance, not the stack's largest
        assert error <= max(1e-11, 1e-9 * abs(value))


def test_stack_budget_exhaustion_reports_every_row(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_EVALS", 200)
    f = lambda x: np.stack([np.asarray(x, dtype=float),
                            np.sin(1.0 / (np.asarray(x) + 1e-4))])
    with pytest.raises(QuadratureError) as exc:
        adaptive_quad(f, 0.0, 1.0)
    assert exc.value.value.shape == exc.value.error.shape == (2,)


def test_one_integrand_still_gives_floats():
    res = adaptive_quad(lambda x: 3 * np.asarray(x) ** 2, 0.0, 2.0)
    assert type(res.value) is float and type(res.error) is float
