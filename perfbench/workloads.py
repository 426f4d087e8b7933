"""The benchmark's workloads: seeded inputs, CLI commands and output checks.

A workload is a list of CLI commands.  Each command reads a JSON config
built here from the seed and writes one output file; every row of that file
is one operation, checked against `reference` on its own.  Only the inputs
come from the seed: the checks never read a saved copy of earlier output.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

import reference as ref

# The acceptance battery's mixture family and seed (tests/test_acceptance.py).
ACCEPTANCE_SEED = 20260823

# A mixture on which the constant-markup report misses Pi/S = 1/4 at eta = 2
# by 2.5e-5 while stating err_Pi = 4e-10: the end of Uniform(0, 1.7055...)
# lies inside the other components' support.
DENSITY_JUMP_MIXTURE = {
    "kind": "mixture",
    "components": [{"kind": "uniform", "a": 0.0, "b": 2.09832845016647},
                   {"kind": "power", "alpha": 3.872848054957398},
                   {"kind": "uniform", "a": 0.0, "b": 1.7055309704983412}],
    "weights": [0.38315019488531304, 0.546797758968425, 0.07005204614626195],
}

# Tolerances, none looser than the acceptance battery's for the same claim.
TOL_BOUND = 1e-6        # profit floor, Hoelder, lower bound (criteria 6, 7, 9)
# Closed forms must hold to 1e-9 (criterion 4's tolerance), or to ten times
# the error the report states, the headroom full_report allows, if larger.
TOL_CLOSED = 1e-9
HEADROOM = 10.0
TOL_SURPLUS = 1e-12     # S against the component moments, relative
TOL_ORACLE = 1e-12      # oracle profit against the dynamic program, relative
ORACLE_GAP_TOL = 0.02   # the CLI's default pass threshold for the oracle gap

CONVEX_COST = {"kind": "poly_cost", "coeffs": [0.0, 0.0, 0.5, 0.0, 0.25],
               "eta_bar": 4.0}


@dataclass
class Row:
    """One operation: a battery item and what it is checked against."""
    label: str
    spec: dict
    eta: float = 0.0
    anchor: str = ""          # closed-form anchor kind, or "" for none
    data: dict = field(default_factory=dict)


@dataclass
class Command:
    name: str
    subcommand: str
    config: dict
    output: str               # file the command writes into its --out dir
    rows: list
    extra_args: tuple = ()

    def argv(self, config_path, out_dir):
        return [self.subcommand, "--config", config_path, "--out", out_dir,
                *self.extra_args]


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def _rng(seed, stream):
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def _uniform(b):
    return {"kind": "uniform", "a": 0.0, "b": float(b)}


def _power(alpha):
    return {"kind": "power", "alpha": float(alpha)}


def _mixture(comps, rng):
    w = rng.dirichlet(np.ones(len(comps)))
    return {"kind": "mixture", "components": comps,
            "weights": [float(x) for x in w]}


def acceptance_mixtures(n, rng):
    """Mixtures of Uniform(0, b) and Power(alpha), as the acceptance battery
    draws them (same draws in the same order)."""
    out = []
    for _ in range(n):
        k = int(rng.integers(1, 4))
        comps = []
        for _ in range(k):
            if rng.uniform() < 0.5:
                comps.append(_uniform(rng.uniform(0.5, 3.0)))
            else:
                comps.append(_power(rng.uniform(0.5, 4.0)))
        out.append(_mixture(comps, rng))
    return out


def _strata(rng, n, lo, hi):
    """n draws from U(lo, hi), one in each of n equal subintervals, in seeded
    order.  Every seed then gets the same spread of values, so the cost of a
    workload moves little with the seed."""
    u = (np.arange(n) + rng.uniform(size=n)) / n
    return [float(lo + (hi - lo) * x) for x in rng.permutation(u)]


def stratified_mixtures(n, rng):
    """The acceptance family, stratified: the mixtures have 1, 2 and 3
    components in turn (shuffled), half of all components are Uniform(0, b)
    and half Power(alpha), and b and alpha cover U(0.5, 3) and U(0.5, 4) one
    per stratum.  Weights are Dirichlet(1)."""
    sizes = rng.permutation([1 + i % 3 for i in range(n)])
    n_comp = int(sum(sizes))
    n_uniform = n_comp // 2
    bs = iter(_strata(rng, n_uniform, 0.5, 3.0))
    alphas = iter(_strata(rng, n_comp - n_uniform, 0.5, 4.0))
    is_uniform = iter(rng.permutation([True] * n_uniform
                                      + [False] * (n_comp - n_uniform)))
    out = []
    for k in sizes:
        comps = [_uniform(next(bs)) if next(is_uniform)
                 else _power(next(alphas)) for _ in range(k)]
        out.append(_mixture(comps, rng))
    return out


def common_end_mixtures(n, rng):
    """Mixtures of Power(alpha) and Uniform(0, 1): every component's support
    is [0, 1], so no density jumps inside the support.

    Stratified: the mixtures have 1, 2 and 3 components in turn (shuffled),
    70% of all components are Power, and their alphas cover U(0.5, 4) one per
    stratum.
    """
    sizes = rng.permutation([1 + i % 3 for i in range(n)])
    n_comp = int(sum(sizes))
    n_power = round(0.7 * n_comp)
    alphas = iter(_strata(rng, n_power, 0.5, 4.0))
    is_power = iter(rng.permutation([True] * n_power
                                    + [False] * (n_comp - n_power)))
    out = []
    for k in sizes:
        comps = [_power(next(alphas)) if next(is_power) else _uniform(1.0)
                 for _ in range(k)]
        out.append(_mixture(comps, rng))
    return out


def _binary(rng):
    v_lo = float(rng.uniform(0.5, 1.5))
    return {"kind": "binary", "v_lo": v_lo,
            "v_hi": v_lo + float(rng.uniform(0.2, 2.0)),
            "p_hi": float(rng.uniform(0.1, 0.9))}


def _discrete(rng, n):
    values = np.sort(rng.uniform(0.5, 3.0, n))
    masses = rng.dirichlet(2.0 * np.ones(n))
    return {"kind": "discrete", "values": [float(v) for v in values],
            "masses": [float(m) for m in masses]}


def _boundary(eta):
    return eta / (eta - 1.0)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

BAYES_ETAS = (2.0, 3.0)
MARKUP_ETAS = (1.5, 2.0, 3.0, 5.0)
N_BAYES_MIXTURES = 40
N_PINNED_MIXTURES = 60
N_COMMON_END = 20


def bayes_sweep(seed):
    """Bayes-optimal sweeps at eta = 2 and 3, each on half of the seeded
    mixtures plus closed-form anchors."""
    rng = _rng(seed, 1)
    mixtures = stratified_mixtures(N_BAYES_MIXTURES, rng)
    commands = []
    half = len(mixtures) // len(BAYES_ETAS)
    for j, eta in enumerate(BAYES_ETAS):
        rows = [Row(f"mixture[{i}]", mixtures[i], eta)
                for i in range(j * half, (j + 1) * half)]
        for k, excess in enumerate(_strata(rng, 2, 0.25, 3.0)):
            rows.append(Row(f"pareto[{k}]", {"kind": "pareto",
                                             "alpha": _boundary(eta) + excess},
                            eta, "pareto"))
        rows.append(Row("uniform", _uniform(rng.uniform(0.5, 3.0)), eta,
                        "uniform"))
        rows.append(Row("binary", _binary(rng), eta, "binary"))
        if eta == 2.0:
            k = float(10.0 ** rng.uniform(2.0, 4.0))
            rows.append(Row("truncated_pareto_2",
                            {"kind": "truncated_pareto", "alpha": 2.0, "k": k},
                            eta, "truncated_pareto_2"))
        commands.append(Command(
            f"sweep_bayes_eta{eta:g}", "sweep",
            {"version": 1, "eta": eta, "mechanism": "bayes_optimal",
             "battery": [r.spec for r in rows]},
            "sweep.jsonl", rows, ("--format", "json")))
    return commands


def markup_menus(seed):
    rng = _rng(seed, 2)
    pinned = [DENSITY_JUMP_MIXTURE] + acceptance_mixtures(
        N_PINNED_MIXTURES, np.random.default_rng(ACCEPTANCE_SEED))
    commands = []
    for eta in MARKUP_ETAS:
        rows = [Row("density_jump_example", pinned[0], eta)]
        rows += [Row(f"pinned_mixture[{i}]", s, eta)
                 for i, s in enumerate(pinned[1:])]
        rows += [Row(f"common_end_mixture[{i}]", s, eta)
                 for i, s in enumerate(common_end_mixtures(N_COMMON_END, rng))]
        for j, log_k in enumerate(_strata(rng, 3, 2.0, 6.0)):
            rows.append(Row(f"truncated_pareto_boundary[{j}]",
                            {"kind": "truncated_pareto",
                             "alpha": _boundary(eta), "k": 10.0 ** log_k},
                            eta))
        for j, excess in enumerate(_strata(rng, 3, 0.25, 3.0)):
            rows.append(Row(f"pareto[{j}]", {"kind": "pareto",
                                             "alpha": _boundary(eta) + excess},
                            eta))
        rows.append(Row("binary", _binary(rng), eta))
        rows.append(Row("discrete", _discrete(rng, 10), eta))
        rows.append(Row("point_mass",
                        {"kind": "point_mass",
                         "v0": float(rng.uniform(0.5, 3.0))}, eta))
        commands.append(Command(
            f"sweep_guarantee_eta{eta:g}", "sweep",
            {"version": 1, "eta": eta, "mechanism": "guarantee",
             "battery": [r.spec for r in rows]},
            "sweep.jsonl", rows, ("--format", "json")))

    eta_bar = CONVEX_COST["eta_bar"]
    rows = [
        Row("uniform", _uniform(rng.uniform(0.5, 3.0)), eta_bar),
        Row("binary", _binary(rng), eta_bar),
        Row("truncated_pareto",
            {"kind": "truncated_pareto",
             "alpha": float(rng.uniform(1.5, 3.0)),
             "k": float(10.0 ** rng.uniform(1.0, 2.0))}, eta_bar),
        Row("discrete", _discrete(rng, 5), eta_bar),
        Row("point_mass", {"kind": "point_mass",
                           "v0": float(rng.uniform(0.5, 3.0))}, eta_bar,
            "quartic_point_mass"),
    ]
    commands.append(Command(
        "verify_convex_cost", "verify",
        {"version": 1, "scenario": "convex_cost", "cost": CONVEX_COST,
         "battery": [r.spec for r in rows]},
        "certificates.jsonl", rows))
    return commands


N_ORACLE_TYPES = 10
N_ORACLE_GRID = 15


def oracle_exhaustive(seed):
    rng = _rng(seed, 3)
    eta = 2.0
    values = np.sort(rng.uniform(0.5, 3.0, N_ORACLE_TYPES))
    masses = rng.dirichlet(2.0 * np.ones(N_ORACLE_TYPES))
    q_top = float(values[-1]) ** (1.0 / (eta - 1.0))
    grid = np.linspace(0.0, 1.1 * q_top, N_ORACLE_GRID)
    config = {"version": 1, "eta": eta, "mode": "exhaustive",
              "values": [float(v) for v in values],
              "masses": [float(m) for m in masses],
              "quality_grid": [float(q) for q in grid]}
    row = Row("oracle", {}, eta, "oracle",
              {k: config[k] for k in ("values", "masses", "quality_grid")})
    return [Command("oracle_exhaustive", "oracle", config, "oracle.json",
                    [row])]


WORKLOADS = {
    "bayes_sweep": bayes_sweep,
    "markup_menus": markup_menus,
    "oracle_exhaustive": oracle_exhaustive,
}

# Worker threads the CLI is given (MARKUP_GUARANTEE_THREADS); a workload not
# named here runs the CLI's default pool.  markup_menus measures the serial
# quadrature, functionals and root finding: with its pool, GIL hand-offs
# between the workers leave the CPUs idle for a share of the pass that
# follows the host's load, which doubled the spread of its pass times.
PINNED_WORKERS = {"markup_menus": 1}


def build(workload, seed, config_dir):
    """Make the workload's commands and write their configs; returns
    [(command, config_path)]."""
    os.makedirs(config_dir, exist_ok=True)
    out = []
    for cmd in WORKLOADS[workload](seed):
        path = os.path.join(config_dir, cmd.name + ".json")
        with open(path, "w") as fh:
            json.dump(cmd.config, fh)
        out.append((cmd, path))
    return out


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _rel_close(x, y, tol):
    return abs(x - y) <= tol * max(1.0, abs(y))


def _stated_error(rep):
    """The headroom full_report allows: 10 x its summed quadrature errors."""
    return HEADROOM * (rep["err_S"] + rep["err_Pi"] + rep["err_U"])


def check_bayes_report(row, rep):
    eta = row.eta
    fails = []
    if not _rel_close(rep["S"], ref.efficient_surplus(row.spec, eta),
                      TOL_SURPLUS):
        fails.append("S != ((eta-1)/eta) E[v^(eta/(eta-1))]")
    beta, u = rep["pi_ratio"], rep["u_ratio"]
    floor, _ = ref.guarantee_shares(eta)
    if not beta >= floor - TOL_BOUND:
        fails.append("Pi/S below the guarantee share")
    if not u <= ref.frontier(beta, eta) + TOL_BOUND:
        fails.append("U/S above the Hoelder frontier")
    if not beta + u >= 1.0 / eta - TOL_BOUND:
        fails.append("(Pi+U)/S below 1/eta")
    spec = row.spec
    if row.anchor == "pareto":
        b_ref, u_ref = ref.pareto_bayes_shares(spec["alpha"], eta)
        tol = max(TOL_CLOSED, _stated_error(rep) / rep["S"])
        if not (abs(beta - b_ref) <= tol and abs(u - u_ref) <= tol):
            fails.append("Pareto outcome off ((a-1)/a)^(eta/(eta-1)) "
                         "or off the frontier")
    elif row.anchor in ("uniform", "binary", "truncated_pareto_2"):
        if row.anchor == "uniform":
            pi_ref, u_ref = ref.uniform_bayes(spec["b"], eta)
        elif row.anchor == "binary":
            pi_ref, u_ref = ref.binary_bayes(spec["v_lo"], spec["v_hi"],
                                             spec["p_hi"], eta)
        else:
            pi_ref, u_ref = ref.truncated_pareto2_bayes(spec["k"])
        tol = max(TOL_CLOSED * max(1.0, abs(pi_ref), abs(u_ref)),
                  _stated_error(rep))
        if not (abs(rep["Pi"] - pi_ref) <= tol
                and abs(rep["U"] - u_ref) <= tol):
            fails.append(f"{row.anchor} Pi or U off its closed form")
    return fails


def check_guarantee_report(row, rep):
    eta = row.eta
    fails = []
    if not _rel_close(rep["S"], ref.efficient_surplus(row.spec, eta),
                      TOL_SURPLUS):
        fails.append("S != ((eta-1)/eta) E[v^(eta/(eta-1))]")
    pi_ref, u_ref = ref.guarantee_shares(eta)
    tol = max(TOL_CLOSED, _stated_error(rep) / rep["S"])
    if not abs(rep["pi_ratio"] - pi_ref) <= tol:
        fails.append(f"Pi/S off eta^(-eta/(eta-1)) by "
                     f"{rep['pi_ratio'] - pi_ref:.3g} (tol {tol:.3g})")
    if not abs(rep["u_ratio"] - u_ref) <= tol:
        fails.append(f"U/S off eta^(-1/(eta-1)) by "
                     f"{rep['u_ratio'] - u_ref:.3g} (tol {tol:.3g})")
    return fails


def check_convex_certificate(row, cert):
    fails = []
    measured = cert["measured_value"]
    if not measured >= ref.convex_cost_bound(row.eta) - TOL_BOUND:
        fails.append("Pi/S below 1/(eta_bar + 2 sqrt(eta_bar - 1))")
    if row.anchor == "quartic_point_mass":
        r = ref.quartic_point_mass_ratio(row.spec["v0"], row.eta)
        if not abs(measured - r) <= TOL_CLOSED:
            fails.append(f"point-mass Pi/S off its closed form by "
                         f"{measured - r:.3g}")
    if cert.get("pass") is not (measured - cert["bound_value"]
                                >= -cert["tolerance"]):
        fails.append("certificate verdict disagrees with its own numbers")
    return fails


def check_oracle(row, rep, exit_code):
    d = row.data
    fails = []
    eta = row.eta
    dp_profit, _ = ref.monotone_dp(d["values"], d["masses"], eta,
                                   d["quality_grid"])
    oracle = rep["oracle_profit"]
    if not abs(oracle - dp_profit) <= TOL_ORACLE * abs(dp_profit):
        fails.append(f"oracle profit {oracle!r} != dynamic program "
                     f"{dp_profit!r}")
    alloc = rep["allocation"]
    grid = set(d["quality_grid"])
    if (len(alloc) != len(d["values"]) or any(q not in grid for q in alloc)
            or any(b < a for a, b in zip(alloc, alloc[1:]))):
        fails.append("allocation is not a nondecreasing menu on the grid")
    elif not abs(ref.menu_profit(d["values"], d["masses"], eta, alloc)
                 - oracle) <= TOL_ORACLE * abs(oracle):
        fails.append("allocation does not earn the reported profit")
    cont = rep["continuous_profit"]
    if not cont >= oracle - TOL_ORACLE * abs(oracle):
        fails.append("continuous profit below the grid-restricted optimum")
    gap = abs(cont - oracle) / abs(oracle)
    verdict = gap <= ORACLE_GAP_TOL
    if rep["pass"] is not verdict or exit_code != (0 if verdict else 1):
        fails.append("oracle verdict or exit code disagrees with its gap")
    return fails


def check_command(cmd, exit_code, text):
    """Check every row of one command's output.

    Returns [(label, [failure, ...])], one entry per row in cmd.rows.  A
    command that exits with an unexpected code, writes no output, or writes
    the wrong number of rows fails every row.
    """
    def all_fail(reason):
        return [(r.label, [reason]) for r in cmd.rows]

    if exit_code not in (0, 1):
        return all_fail(f"exit code {exit_code}")
    if text is None:
        return all_fail("no output file")
    if cmd.subcommand == "oracle":
        return [(cmd.rows[0].label,
                 check_oracle(cmd.rows[0], json.loads(text), exit_code))]
    records = [json.loads(line) for line in text.splitlines() if line]
    if len(records) != len(cmd.rows):
        return all_fail(f"{len(records)} output rows for {len(cmd.rows)} laws")
    results = []
    for row, rec in zip(cmd.rows, records):
        if cmd.subcommand == "verify":
            got = rec["parameters"]["distribution"]
            fails = check_convex_certificate(row, rec)
        else:
            got = rec["distribution"]
            fails = (check_bayes_report(row, rec)
                     if cmd.config["mechanism"] == "bayes_optimal"
                     else check_guarantee_report(row, rec))
        if got != row.spec:
            fails = ["output row is for another distribution"]
        results.append((row.label, fails))
    if cmd.subcommand == "sweep" and exit_code != 0:
        results = [(label, fails + [f"exit code {exit_code}"])
                   for label, fails in results]
    if cmd.subcommand == "verify":
        want = 0 if all(rec["pass"] for rec in records) else 1
        if exit_code != want:
            results = [(label, fails + [f"exit code {exit_code}"])
                       for label, fails in results]
    return results
