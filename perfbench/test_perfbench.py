"""Tests of the benchmark's own reference values and checks.

    python3 -m pytest perfbench/test_perfbench.py -q

The dynamic program is tested against brute-force enumeration, each closed
form against scipy.integrate.quad, and the checks against real program
output that is perturbed just past their tolerances.
"""

import contextlib
import io
import itertools
import json
import math
import os
import sys

import numpy as np
import pytest
from scipy import integrate, optimize

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import reference as ref  # noqa: E402
import workloads  # noqa: E402

QUAD = dict(epsabs=1e-13, epsrel=1e-12, limit=200)


def _quad(f, a, b, points=None):
    return integrate.quad(f, a, b, points=points, **QUAD)[0]


# ---------------------------------------------------------------------------
# the dynamic program
# ---------------------------------------------------------------------------

def _brute_force(values, masses, eta, grid):
    """Best menu by enumeration, pricing each with explicit IC transfers."""
    best = -math.inf
    menus = itertools.combinations_with_replacement(sorted(grid), len(values))
    for q in menus:
        rent, t = 0.0, []
        for i, v in enumerate(values):
            if i:
                rent += (values[i] - values[i - 1]) * q[i - 1]
            t.append(v * q[i] - rent)
        best = max(best, sum(m * (ti - qi ** eta / eta)
                             for m, ti, qi in zip(masses, t, q)))
    return best


@pytest.mark.parametrize("seed", range(12))
def test_dynamic_program_matches_enumeration(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    values = sorted(rng.uniform(0.2, 3.0, n))
    masses = rng.dirichlet(np.ones(n))
    eta = float(rng.choice([1.5, 2.0, 3.0]))
    grid = np.linspace(0.0, float(rng.uniform(0.5, 4.0)),
                       int(rng.integers(2, 7)))
    profit, alloc = ref.monotone_dp(values, masses, eta, grid)
    assert profit == pytest.approx(_brute_force(values, masses, eta, grid),
                                   rel=1e-12, abs=1e-15)
    assert list(alloc) == sorted(alloc)
    assert ref.menu_profit(values, masses, eta, alloc) == pytest.approx(
        profit, rel=1e-12, abs=1e-15)


# ---------------------------------------------------------------------------
# closed forms against quadrature
# ---------------------------------------------------------------------------

def _menu_outcome(Q, pdf, lo, hi, eta, atoms=(), sf=None, points=None):
    """(Pi, U) of allocation Q by the envelope formula:
    Pi = E[v Q - c(Q)] - int Q (1 - F), U = int Q (1 - F)."""
    margin = lambda v: v * Q(v) - Q(v) ** eta / eta
    e = _quad(lambda v: margin(v) * pdf(v), lo, hi, points)
    e += sum(m * margin(x) for x, m in atoms)
    u = _quad(lambda v: Q(v) * sf(v), lo, hi, points)
    return e - u, u


@pytest.mark.parametrize("spec,r", [
    ({"kind": "uniform", "a": 0.3, "b": 2.5}, 2.0),
    ({"kind": "power", "alpha": 0.7}, 1.5),
    ({"kind": "pareto", "alpha": 3.5}, 2.0),
    ({"kind": "truncated_pareto", "alpha": 2.0, "k": 1e4}, 2.0),
    ({"kind": "truncated_pareto", "alpha": 2.5, "k": 50.0}, 1.5),
])
def test_moment_matches_quadrature(spec, r):
    kind = spec["kind"]
    if kind == "uniform":
        a, b = spec["a"], spec["b"]
        want = _quad(lambda v: v ** r / (b - a), a, b)
    elif kind == "power":
        al = spec["alpha"]
        want = _quad(lambda v: v ** r * al * v ** (al - 1.0), 0.0, 1.0)
    elif kind == "pareto":
        al = spec["alpha"]
        want = _quad(lambda v: v ** r * al * v ** (-al - 1.0), 1.0, math.inf)
    else:
        al, k = spec["alpha"], spec["k"]
        want = (_quad(lambda lv: al * math.exp(lv * (r - al)), 0.0,
                      math.log(k))
                + k ** (r - al))          # the atom k^-alpha at k
    assert ref.moment(spec, r) == pytest.approx(want, rel=1e-10)


def test_mixture_moment_is_weighted():
    spec = workloads.DENSITY_JUMP_MIXTURE
    want = sum(w * ref.moment(c, 2.0)
               for c, w in zip(spec["components"], spec["weights"]))
    assert ref.moment(spec, 2.0) == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("eta", [1.5, 2.0, 3.0, 5.0])
def test_guarantee_shares_on_uniform(eta):
    Q = lambda v: (v / eta) ** (1.0 / (eta - 1.0))
    pi, u = _menu_outcome(Q, lambda v: 1.0, 0.0, 1.0, eta, sf=lambda v: 1 - v)
    S = ref.efficient_surplus({"kind": "uniform", "a": 0.0, "b": 1.0}, eta)
    g, h = ref.guarantee_shares(eta)
    assert pi / S == pytest.approx(g, rel=1e-10)
    assert u / S == pytest.approx(h, rel=1e-10)


@pytest.mark.parametrize("b,eta", [(1.0, 2.0), (2.7, 3.0), (0.6, 1.5)])
def test_uniform_bayes(b, eta):
    Q = lambda v: max(2.0 * v - b, 0.0) ** (1.0 / (eta - 1.0))
    pi, u = _menu_outcome(Q, lambda v: 1.0 / b, 0.0, b, eta,
                          sf=lambda v: 1.0 - v / b, points=[b / 2])
    assert ref.uniform_bayes(b, eta) == pytest.approx((pi, u), rel=1e-10)


@pytest.mark.parametrize("alpha,eta", [(2.5, 2.0), (4.0, 3.0), (3.2, 1.5)])
def test_pareto_bayes_shares(alpha, eta):
    p = 1.0 / (eta - 1.0)
    Q = lambda v: (v * (alpha - 1.0) / alpha) ** p
    pi, u = _menu_outcome(Q, lambda v: alpha * v ** (-alpha - 1.0), 1.0,
                          math.inf, eta, sf=lambda v: v ** -alpha)
    S = _quad(lambda v: (1 - 1 / eta) * v ** (eta / (eta - 1))
              * alpha * v ** (-alpha - 1.0), 1.0, math.inf)
    beta, share = ref.pareto_bayes_shares(alpha, eta)
    assert beta == pytest.approx(pi / S, rel=1e-9)
    assert share == pytest.approx(u / S, rel=1e-9)


@pytest.mark.parametrize("k", [1e2, 3e3, 1e4])
def test_truncated_pareto_2_bayes(k):
    # Q = v/2 on [1, k), the top atom k^-2 served efficiently (Q = k);
    # integrate in log v so the wide range is one smooth panel
    Q = lambda v: v / 2.0
    margin = lambda v: v * Q(v) - Q(v) ** 2 / 2.0
    cont = _quad(lambda lv: margin(math.exp(lv)) * 2.0 * math.exp(-2.0 * lv),
                 0.0, math.log(k))
    top = k ** -2.0 * (k * k - k * k / 2.0)
    u = _quad(lambda lv: Q(math.exp(lv)) * math.exp(-lv), 0.0, math.log(k))
    assert ref.truncated_pareto2_bayes(k) == pytest.approx(
        (cont + top - u, u), rel=1e-10)


@pytest.mark.parametrize("v_lo,v_hi,p_hi,eta", [
    (1.0, 2.0, 0.3, 2.0), (1.0, 2.0, 0.8, 2.0), (0.7, 2.4, 0.5, 3.0)])
def test_binary_bayes(v_lo, v_hi, p_hi, eta):
    pi, u = ref.binary_bayes(v_lo, v_hi, p_hi, eta)
    m = (1.0 - p_hi, p_hi)

    def profit(q):
        q_lo, q_hi = q
        if q_lo < 0 or q_hi < q_lo:
            return -math.inf
        rent = (v_hi - v_lo) * q_lo
        return (m[0] * (v_lo * q_lo - q_lo ** eta / eta)
                + m[1] * (v_hi * q_hi - rent - q_hi ** eta / eta))

    best = optimize.minimize(lambda q: -profit(q), x0=[0.5, 1.0],
                             method="Nelder-Mead",
                             options={"xatol": 1e-12, "fatol": 1e-15})
    assert pi == pytest.approx(-best.fun, rel=1e-9)
    phi_lo = v_lo - p_hi * (v_hi - v_lo) / (1 - p_hi)
    q_lo = max(phi_lo, 0.0) ** (1 / (eta - 1))
    Q = lambda v: q_lo if v < v_hi else v_hi ** (1 / (eta - 1))
    assert u == pytest.approx(_quad(lambda v: Q(v) * p_hi, v_lo, v_hi),
                              rel=1e-10)


@pytest.mark.parametrize("v0", [0.5, 1.3, 2.9])
def test_quartic_point_mass_ratio(v0):
    eta_bar = 4.0
    z = 1.0 / (math.sqrt(eta_bar - 1.0) + 1.0)
    c = lambda q: q * q / 2.0 + q ** 4 / 4.0
    root = lambda w: optimize.brentq(lambda q: q + q ** 3 - w, 0.0,
                                     max(1.0, w), xtol=1e-15, rtol=1e-15)
    Q = lambda v: root(z * v) if v > 0 else 0.0
    u = _quad(Q, 0.0, v0)
    q_m, q_s = Q(v0), root(v0)
    want = (v0 * q_m - c(q_m) - u) / (v0 * q_s - c(q_s))
    assert ref.quartic_point_mass_ratio(v0, eta_bar) == pytest.approx(
        want, rel=1e-10)


def test_convex_bound_meets_isoelastic_at_two():
    assert ref.convex_cost_bound(2.0) == pytest.approx(
        ref.guarantee_shares(2.0)[0], rel=1e-15)


# ---------------------------------------------------------------------------
# the checks catch small errors in real program output
# ---------------------------------------------------------------------------

def _run(tmp_path, cmd):
    import markup_guarantee.cli as cli
    config = tmp_path / f"{cmd.name}.json"
    config.write_text(json.dumps(cmd.config))
    out = tmp_path / cmd.name
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(cmd.argv(str(config), str(out)))
    return code, (out / cmd.output).read_text()


def _sweep(mechanism, rows, eta=2.0):
    return workloads.Command(
        "sweep", "sweep", {"version": 1, "eta": eta, "mechanism": mechanism,
                           "battery": [r.spec for r in rows]},
        "sweep.jsonl", rows, ("--format", "json"))


def _perturbed(text, i, d_ratio):
    recs = [json.loads(line) for line in text.splitlines()]
    recs[i]["pi_ratio"] += d_ratio
    recs[i]["Pi"] += d_ratio * recs[i]["S"]
    return "\n".join(json.dumps(r) for r in recs) + "\n"


def _failed(cmd, code, text):
    return [label for label, fails in workloads.check_command(cmd, code, text)
            if fails]


def test_guarantee_row_perturbed_by_1e6_fails(tmp_path):
    rng = np.random.default_rng(0)
    rows = [workloads.Row("uniform", {"kind": "uniform", "a": 0.0, "b": 1.0},
                          2.0),
            workloads.Row("mixture", workloads.common_end_mixtures(1, rng)[0],
                          2.0)]
    cmd = _sweep("guarantee", rows)
    code, text = _run(tmp_path, cmd)
    assert _failed(cmd, code, text) == []
    for i, row in enumerate(rows):
        assert _failed(cmd, code, _perturbed(text, i, 1e-6)) == [row.label]


def test_bayes_anchor_perturbed_by_1e6_fails(tmp_path):
    eta = 2.0
    rows = [workloads.Row("pareto", {"kind": "pareto", "alpha": 3.0}, eta,
                          "pareto"),
            workloads.Row("uniform", {"kind": "uniform", "a": 0.0, "b": 1.5},
                          eta, "uniform"),
            workloads.Row("binary", {"kind": "binary", "v_lo": 1.0,
                                     "v_hi": 2.0, "p_hi": 0.3}, eta, "binary"),
            workloads.Row("tp2", {"kind": "truncated_pareto", "alpha": 2.0,
                                  "k": 100.0}, eta, "truncated_pareto_2")]
    cmd = _sweep("bayes_optimal", rows, eta)
    code, text = _run(tmp_path, cmd)
    assert _failed(cmd, code, text) == []
    for i, row in enumerate(rows):
        assert _failed(cmd, code, _perturbed(text, i, 1e-6)) == [row.label]


def test_density_jump_example_fails():
    spec = workloads.DENSITY_JUMP_MIXTURE
    row = workloads.Row("example", spec, 2.0)
    # Pi/S and err_Pi as the program reports them for this mixture at eta = 2
    rep = {"S": ref.efficient_surplus(spec, 2.0),
           "pi_ratio": 0.24997539984848413, "u_ratio": 0.5,
           "err_S": 0.0, "err_Pi": 4.0e-10, "err_U": 0.0}
    assert workloads.check_guarantee_report(row, rep)


def test_oracle_profit_raised_by_1e9_fails(tmp_path):
    config = {"version": 1, "eta": 2.0, "mode": "exhaustive",
              "values": [0.8, 1.4, 2.2], "masses": [0.5, 0.3, 0.2],
              "quality_grid": [0.0, 0.5, 1.0, 1.5, 2.0, 2.5]}
    row = workloads.Row("oracle", {}, 2.0, "oracle",
                        {k: config[k] for k in ("values", "masses",
                                                "quality_grid")})
    cmd = workloads.Command("oracle", "oracle", config, "oracle.json", [row])
    code, text = _run(tmp_path, cmd)
    assert _failed(cmd, code, text) == []
    rep = json.loads(text)
    rep["oracle_profit"] *= 1.0 + 1e-9
    assert _failed(cmd, code, json.dumps(rep)) == ["oracle"]


def test_seeded_inputs_repeat():
    for name, make in workloads.WORKLOADS.items():
        a = [c.config for c in make(7)]
        assert a == [c.config for c in make(7)], name
        assert a != [c.config for c in make(8)], name


def test_strata_put_one_draw_in_each_subinterval():
    v = workloads._strata(np.random.default_rng(3), 7, 0.5, 4.0)
    assert sorted(int((x - 0.5) / 3.5 * 7) for x in v) == list(range(7))


@pytest.mark.parametrize("make, n, n_power", [
    (workloads.stratified_mixtures, 40, 40),
    (workloads.common_end_mixtures, 20, 27),
])
def test_stratified_batteries_fix_their_make_up(make, n, n_power):
    for seed in (1, 2):
        mixtures = make(n, np.random.default_rng(seed))
        sizes = sorted(len(m["components"]) for m in mixtures)
        kinds = [c["kind"] for m in mixtures for c in m["components"]]
        assert sizes == sorted(1 + i % 3 for i in range(n))
        assert kinds.count("power") == n_power
