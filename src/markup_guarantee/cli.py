"""Command-line front end: configs in, tables / certificates / plots out.

Subcommands: guarantee, boundary, verify, oracle, procure, sweep.
Exit codes: 0 all pass, 1 certificate failure, 2 config error, 3 numerical
failure.  CSV is the canonical artifact; SVG plots are a self-contained
convenience (version string embedded, no timestamps, byte-deterministic).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .distributions import (Binary, Discrete, PointMass, Power,
                            TruncatedPareto, Uniform, _in_range,
                            _spec_field, distribution_from_spec)
from .functionals import (InfiniteSurplusError, SurplusReport, full_report,
                          mechanism_profit)
from .guarantees import (DEFAULT_TOL, FrontierPoint, boundary,
                         consumer_share, feasible_beta_interval, frontier,
                         frontier_attaining_shape, guarantee_ratio,
                         holder_audit, membership, procurement_quality,
                         quantity_guarantee, verify_convex_cost_guarantee,
                         verify_lower_bound, verify_procurement_quality,
                         verify_quantity_guarantee)
from .mechanisms import guarantee_mechanism
from .quadrature import QuadratureError
from .screening import bayes_optimal_mechanism, discrete_oracle, discretize
from .technology import (CostValidationError, IsoElasticCost, RootFindError,
                         cost_from_spec, quantity_model_from_spec)

EXIT_OK = 0
EXIT_CERT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

CONFIG_VERSION = 1

# the oracle passes when the screening profit is within this relative gap
# of the exact optimum on the quality grid
ORACLE_PASS_GAP = 0.02


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _load_config(path, allowed_fields):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if cfg.get("version") != CONFIG_VERSION:
        raise ConfigError(
            f"config version must be {CONFIG_VERSION}, got {cfg.get('version')!r}")
    unknown = set(cfg) - set(allowed_fields) - {"version"}
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    return cfg


def _battery_from_config(cfg, eta):
    specs = cfg.get("battery") if cfg else None
    if specs is None:
        return _default_battery(eta)
    if not isinstance(specs, list):
        raise ConfigError("'battery' must be a list of distribution specs")
    if not specs:
        raise ConfigError("the distribution battery is empty; usage: give "
                          "the config's 'battery' list at least one spec")
    return [_law(s) for s in specs]


def _law(spec):
    try:
        return distribution_from_spec(spec)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad distribution spec: {exc}")


def _default_battery(eta):
    boundary = eta / (eta - 1.0)
    vals = tuple(1.0 + 0.5 * i for i in range(10))
    masses = tuple(1.0 / 10 for _ in range(10))
    return [
        Uniform(0.0, 1.0),
        Binary(1.0, 2.0, 0.3),
        TruncatedPareto(alpha=boundary + 0.5, k=100.0),
        PointMass(1.0),
        Discrete(values=vals, masses=masses),
    ]


def _out_path(out_dir, name):
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        return os.path.join(out_dir, name)
    return name


# ---------------------------------------------------------------------------
# SVG writer (self-contained, deterministic)
# ---------------------------------------------------------------------------

def _svg_plot(curves, points, xlabel, ylabel, title):
    """Render polyline curves and labelled scatter points, spanning a
    rectangle of positive width and height, into a standalone SVG.

    curves: list of (xs, ys, color); points: list of (x, y, color, label).
    """
    W, H, pad = 640, 480, 60
    all_x = [x for xs, _, _ in curves for x in xs] + [p[0] for p in points]
    all_y = [y for _, ys, _ in curves for y in ys] + [p[1] for p in points]
    x0, x1 = min(all_x), max(all_x)
    y0, y1 = min(all_y), max(all_y)

    def sx(x):
        return pad + (x - x0) / (x1 - x0) * (W - 2 * pad)

    def sy(y):
        return H - pad - (y - y0) / (y1 - y0) * (H - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<!-- markup-guarantee {__version__} -->',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<line x1="{pad}" y1="{H - pad}" x2="{W - pad}" y2="{H - pad}" '
        'stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{H - pad}" stroke="black"/>',
        f'<text x="{W // 2}" y="{H - 15}" text-anchor="middle" '
        f'font-size="14">{xlabel}</text>',
        f'<text x="18" y="{H // 2}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {H // 2})">{ylabel}</text>',
        f'<text x="{W // 2}" y="28" text-anchor="middle" '
        f'font-size="16">{title}</text>',
    ]
    for i in range(5):
        xv = x0 + i * (x1 - x0) / 4
        yv = y0 + i * (y1 - y0) / 4
        parts.append(f'<text x="{sx(xv):.1f}" y="{H - pad + 18}" '
                     f'text-anchor="middle" font-size="11">{xv:.3g}</text>')
        parts.append(f'<text x="{pad - 8:.1f}" y="{sy(yv) + 4:.1f}" '
                     f'text-anchor="end" font-size="11">{yv:.3g}</text>')
    for xs, ys, color in curves:
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="2"/>')
    for x, y, color, label in points:
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="4" '
                     f'fill="{color}"/>')
        parts.append(f'<text x="{sx(x) + 6:.2f}" y="{sy(y) - 6:.2f}" '
                     f'font-size="10">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_guarantee(args):
    eta = _in_range(args.eta, "--eta", 1.0, math.inf)
    cfg = _load_config(args.config, {"battery"}) if args.config else None
    battery = _battery_from_config(cfg, eta)
    M = guarantee_mechanism(eta)
    cost = IsoElasticCost(eta=eta)
    pi_target = guarantee_ratio(eta)
    u_target = consumer_share(eta)

    reports = [full_report(F, M, cost) for F in battery]
    rows = []
    all_pass = True
    for F, rep in zip(battery, reports):
        ok = (abs(rep.pi_ratio - pi_target) <= DEFAULT_TOL
              and abs(rep.u_ratio - u_target) <= DEFAULT_TOL)
        all_pass &= ok
        rows.append([json.dumps(F.to_spec(), sort_keys=True),
                     f"{rep.S:.17g}", f"{rep.Pi:.17g}", f"{rep.U:.17g}",
                     f"{rep.pi_ratio:.17g}", f"{rep.u_ratio:.17g}",
                     "pass" if ok else "fail"])
    header = ["distribution", "S", "Pi", "U", "pi_ratio", "u_ratio", "status"]
    path = _out_path(args.out, "guarantee.csv")
    _write_csv(path, header, rows)
    print(f"wrote {path}")
    for r in rows:
        print(f"{r[0]}: Pi/S={r[4]} U/S={r[5]} [{r[6]}]")
    return EXIT_OK if all_pass else EXIT_CERT_FAIL


def cmd_boundary(args):
    eta = _in_range(args.eta, "--eta", 1.0, math.inf)
    n = args.grid
    if n < 2:
        raise ConfigError("--grid must be at least 2")
    # the Hoelder frontier, attained by Pareto laws, evenly in Pi/S; the
    # truncated-Pareto limits for alpha in [1, r]; the zero-surplus segment
    upper = [FrontierPoint(b, frontier(b, eta),
                           frontier_attaining_shape(b, eta), "upper")
             for b in np.linspace(*feasible_beta_interval(eta), n)]
    lower = [boundary(float(a), eta)
             for a in np.linspace(1.0, eta / (eta - 1.0), n)]
    zero_cs = [FrontierPoint(y, 0, math.inf, "zero_cs")
               for y in np.linspace(1.0 / eta, 1.0, n)]
    rows = [[f"{pt.alpha:.17g}", f"{pt.beta:.17g}", f"{pt.u_over_s:.17g}",
             pt.branch] for pt in upper + lower + zero_cs]
    path = _out_path(args.out, "boundary.csv")
    _write_csv(path, ["alpha", "beta", "u_over_s", "branch"], rows)
    print(f"wrote {path}")

    # overlay points: Bayes-optimal outcomes for simple families
    cost = IsoElasticCost(eta=eta)
    pts, bad = [], []
    for name, F in (("uniform", Uniform(0.0, 1.0)),
                    ("binary", Binary(1.0, 2.0, 0.3)),
                    ("power", Power(alpha=2.0))):
        rep = full_report(F, bayes_optimal_mechanism(F, cost), cost)
        verdict = membership(rep.u_ratio, rep.pi_ratio, eta, tol=1e-6)
        pts.append((rep.u_ratio, rep.pi_ratio, "firebrick", name))
        print(f"overlay {name}: (U/S, Pi/S) = ({rep.u_ratio:.6f}, "
              f"{rep.pi_ratio:.6f}) -> {verdict}")
        if verdict == "exterior":
            bad.append(name)
    curves = [([pt.u_over_s for pt in branch], [pt.beta for pt in branch],
               color) for branch, color in ((upper, "steelblue"),
                                            (lower, "darkorange"),
                                            (zero_cs, "seagreen"))]
    svg_path = _out_path(args.out, "boundary.svg")
    with open(svg_path, "w") as fh:
        fh.write(_svg_plot(curves, pts,
                           xlabel="consumer share of efficient surplus",
                           ylabel="profit share of efficient surplus",
                           title=f"feasible surplus splits, cost "
                                 f"elasticity {eta:g}"))
    print(f"wrote {svg_path}")
    if bad:
        print(f"exterior overlay points: {bad}", file=sys.stderr)
        return EXIT_CERT_FAIL
    return EXIT_OK


# the field each scenario reads besides 'scenario', 'battery' and 'tol'
_VERIFY_SCENARIOS = {"lower_bound": "eta", "holder": "eta",
                     "convex_cost": "cost", "quantity": "model"}


def cmd_verify(args):
    if not args.config:
        raise ConfigError("'verify' requires --config")
    cfg = _load_config(args.config, {"scenario", "battery", "tol",
                                     *_VERIFY_SCENARIOS.values()})
    scenario = cfg.get("scenario")
    names = tuple(_VERIFY_SCENARIOS)
    if scenario not in names:
        raise ConfigError(
            f"scenario must be one of {names}, got {scenario!r}")
    field = _VERIFY_SCENARIOS[scenario]
    unread = set(cfg) & set(_VERIFY_SCENARIOS.values()) - {field}
    if unread:
        raise ConfigError(
            f"the {scenario!r} scenario reads no {sorted(unread)} field")
    spec = _spec_field(cfg, field, f"{scenario!r} scenario")
    tol = cfg.get("tol", DEFAULT_TOL)
    if not (isinstance(tol, (int, float)) and 0.0 <= tol < math.inf):
        raise ConfigError(f"'tol' must lie in [0, inf), got {tol!r}")

    if field == "eta":
        eta = _in_range(spec, "'eta'", 1.0, math.inf)
        battery = _battery_from_config(cfg, eta)
        certs = (verify_lower_bound(eta, battery, tol=tol)
                 if scenario == "lower_bound"
                 else [holder_audit(F, eta, tol=tol) for F in battery])
    elif field == "cost":
        cost = cost_from_spec(spec)
        battery = _battery_from_config(cfg, cost.eta_bar)
        certs = verify_convex_cost_guarantee(cost, battery, tol=tol)
    else:  # quantity: separable demand read as its quality problem
        cost = quantity_model_from_spec(spec)
        battery = _battery_from_config(cfg, cost.eta)
        try:
            certs = verify_quantity_guarantee(cost, battery, tol=tol)
        except InfiniteSurplusError:  # checked at eta_c: name eta instead
            raise InfiniteSurplusError(
                f"surplus is infinite: the law fails the tail condition at "
                f"eta = {spec['eta']!r} (eta_c = {cost.eta!r}); truncate "
                "the tail explicitly") from None

    return _emit_certs(args, certs)


def _emit_certs(args, certs):
    lines = [c.to_json() for c in certs]
    _emit(args, "certificates.jsonl", "\n".join(lines) + "\n")
    failing = [c for c in certs if not c.passed]
    if failing:
        c = failing[0]
        print(f"FAIL {c.claim_id} {json.dumps(c.parameters, sort_keys=True)}: "
              f"measured {c.measured_value:.12g} vs bound "
              f"{c.bound_value:.12g} (slack {c.slack:.3g})", file=sys.stderr)
        return EXIT_CERT_FAIL
    print(f"all {len(certs)} certificates pass")
    return EXIT_OK


def _numbers(cfg, name, what):
    """cfg[name], a list of numbers that `what` needs, as floats."""
    value = _spec_field(cfg, name, what)
    if not (isinstance(value, list)
            and all(isinstance(x, (int, float)) for x in value)):
        raise ConfigError(f"'{name}' must be a list of numbers, got {value!r}")
    return tuple(float(x) for x in value)


def cmd_oracle(args):
    if not args.config:
        raise ConfigError("'oracle' requires --config")
    cfg = _load_config(args.config,
                       {"values", "masses", "eta", "quality_grid", "mode",
                        "n_types", "distribution"})
    cost = IsoElasticCost(eta=_in_range(cfg.get("eta", 2.0), "'eta'", 1.0,
                                        math.inf))
    mode = cfg.get("mode", "exhaustive")

    # one atomic law feeds both the dynamic program and the Bayes menu: a
    # 'distribution' binned into 'n_types' atoms, or 'values' and 'masses'
    binned = "distribution" in cfg
    what = f"'oracle' config with{'' if binned else 'out'} a 'distribution'"
    unread = set(cfg) & ({"values", "masses"} if binned else {"n_types"})
    if unread:
        raise ConfigError(f"an {what} reads no {sorted(unread)} field")
    if binned:
        n_types = cfg.get("n_types", 10)
        if type(n_types) is not int or n_types < 1:
            raise ConfigError(
                f"'n_types' must be a positive integer, got {n_types!r}")
        F = discretize(_law(cfg["distribution"]), n_types)
    else:
        F = Discrete(values=_numbers(cfg, "values", what),
                     masses=_numbers(cfg, "masses", what))
    if "quality_grid" in cfg:
        grid = _numbers(cfg, "quality_grid", what)
    else:
        q_top = cost.efficient_quality(F.values[-1])
        grid = tuple(np.linspace(0.0, 1.2 * q_top, 15))
    oracle = discrete_oracle(F, cost, grid, mode=mode)

    M = bayes_optimal_mechanism(F, cost)
    Pi, _ = mechanism_profit(F, M, cost)

    gap = abs(Pi - oracle.profit) / max(abs(oracle.profit), 1e-300)
    report = {
        "oracle_profit": oracle.profit,
        "continuous_profit": Pi,
        "relative_gap": gap,
        "mode": mode,
        "allocation": list(oracle.allocation),
        "pass": gap <= ORACLE_PASS_GAP,
    }
    _emit(args, "oracle.json", json.dumps(report, sort_keys=True) + "\n")
    print(f"oracle profit {oracle.profit:.12g}, screening profit {Pi:.12g}, "
          f"relative gap {gap:.3%} [{'pass' if report['pass'] else 'fail'}]")
    for note in oracle.warnings:
        print(f"warning: {note}", file=sys.stderr)
    return EXIT_OK if report["pass"] else EXIT_CERT_FAIL


def cmd_procure(args):
    # the elasticity picks the side: quality above 1, and below -1
    # quantity, which is the quality problem at eta_c = eta/(eta+1)
    eta = args.eta
    if eta is not None and 1.0 < eta < math.inf:
        side, eta_c, offer, theta_lo = "quality", eta, "unit_price", 0.1
    elif eta is not None and -math.inf < eta < -1.0:
        side, offer, theta_lo = "quantity", "markup_factor", 1.1
        eta_c, _ = quantity_guarantee(eta)
    else:
        raise ConfigError(
            f"--eta must lie in (-inf, -1) or (1, inf), got {eta!r}")
    price, share = procurement_quality(eta_c)
    certs = verify_procurement_quality(eta_c,
                                       np.geomspace(theta_lo, 10.0, 100))
    header = ["side", "eta", offer, "surplus_share"]
    rows = [[side, f"{eta:.17g}", f"{price:.17g}", f"{share:.17g}"]]

    path = _out_path(args.out, f"procure_{side}.csv")
    _write_csv(path, header, rows)
    print(f"wrote {path}")
    print(", ".join(f"{h}={v}" for h, v in zip(header, rows[0])))
    return _emit_certs(args, certs)


def cmd_sweep(args):
    if not args.config:
        raise ConfigError("'sweep' requires --config")
    cfg = _load_config(args.config, {"eta", "battery", "mechanism"})
    eta = _in_range(cfg.get("eta", 2.0), "'eta'", 1.0, math.inf)
    battery = _battery_from_config(cfg, eta)
    mech_kind = cfg.get("mechanism", "bayes_optimal")
    if mech_kind not in ("bayes_optimal", "guarantee"):
        raise ConfigError("mechanism must be 'bayes_optimal' or 'guarantee'")
    cost = IsoElasticCost(eta=eta)

    def run(F):
        if mech_kind == "guarantee":
            M = guarantee_mechanism(eta)
        else:
            M = bayes_optimal_mechanism(F, cost)
        return full_report(F, M, cost)

    reports = [run(F) for F in battery]
    if args.format == "json":
        text = "\n".join(
            json.dumps({"distribution": F.to_spec(), **vars(rep)},
                       sort_keys=True)
            for F, rep in zip(battery, reports)) + "\n"
        _emit(args, "sweep.jsonl", text)
    else:
        rows = [[json.dumps(F.to_spec(), sort_keys=True), *rep.csv_row()]
                for F, rep in zip(battery, reports)]
        path = _out_path(args.out, "sweep.csv")
        _write_csv(path, ["distribution", *SurplusReport.csv_header], rows)
        print(f"wrote {path}")
    return EXIT_OK


def _emit(args, name, text):
    if args.out:
        path = _out_path(args.out, name)
        with open(path, "w") as fh:
            fh.write(text)
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_SHARED_FLAGS = {
    "--eta": dict(type=float, default=None,
                  help="cost (or demand) elasticity"),
    "--config": dict(type=str, default=None, help="JSON scenario config"),
    "--out": dict(type=str, default=None, help="output directory"),
}


@functools.cache
def build_parser():
    """The command-line parser, built once per process on its first call
    and shared by every later `main` call: parsing returns a fresh
    namespace and leaves the parser as it was."""
    p = argparse.ArgumentParser(
        prog="markup-guarantee",
        description="Robust nonlinear pricing: guarantees, frontiers, "
                    "screening menus, and verification certificates.")
    p.add_argument("--version", action="version",
                   version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, fn, *flags):
        """A subcommand that takes exactly the flags its handler reads."""
        sp = sub.add_parser(name)
        for flag in flags:
            sp.add_argument(flag, **_SHARED_FLAGS[flag])
        sp.set_defaults(fn=fn)
        return sp

    command("guarantee", cmd_guarantee, "--eta", "--config", "--out")
    sp = command("boundary", cmd_boundary, "--eta", "--out")
    sp.add_argument("--grid", type=int, default=50,
                    help="points per boundary branch")
    command("verify", cmd_verify, "--config", "--out")
    command("oracle", cmd_oracle, "--config", "--out")
    command("procure", cmd_procure, "--eta", "--out")
    sp = command("sweep", cmd_sweep, "--config", "--out")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching the config-error code
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (QuadratureError, RootFindError, ArithmeticError,
            FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (CostValidationError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
