import json
import math
import os
import re
import shlex

import numpy as np
import pytest

import markup_guarantee as mg
from markup_guarantee.cli import build_parser, main


def run(args):
    return main(list(args))


def write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestGuarantee:
    def test_default_battery_passes(self, tmp_path, capsys):
        code = run(["guarantee", "--eta", "2", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "[pass]" in out and "[fail]" not in out
        assert (tmp_path / "guarantee.csv").exists()

    def test_missing_eta_is_config_error(self, capsys):
        assert run(["guarantee"]) == 2

    def test_empty_battery_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", {"version": 1, "battery": []})
        assert run(["guarantee", "--eta", "2", "--config", cfg]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_config_field_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", {"version": 1, "surprise": 1})
        assert run(["guarantee", "--eta", "2", "--config", cfg]) == 2

    def test_version_mismatch_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {"version": 99, "battery": []})
        assert run(["guarantee", "--eta", "2", "--config", cfg]) == 2


def _rows(path, branch):
    return [line.split(",") for line in path.read_text().splitlines()[1:]
            if line.endswith("," + branch)]


class TestFrontier:
    """`boundary`'s upper branch: the Hoelder frontier, with beta evenly
    over [guarantee_ratio(eta), 1]."""

    def test_endpoints(self, tmp_path):
        assert run(["boundary", "--eta", "2", "--grid", "11",
                    "--out", str(tmp_path)]) == 0
        # the lower branch's last point, alpha = r, is the junction, which
        # boundary() files under the upper branch
        upper = _rows(tmp_path / "boundary.csv", "upper")[:11]
        first, last = upper[0], upper[-1]
        assert float(first[1]) == pytest.approx(0.25)
        assert float(first[2]) == pytest.approx(0.5)
        assert float(last[1]) == pytest.approx(1.0)
        assert float(last[2]) == pytest.approx(0.0, abs=1e-12)
        svg = (tmp_path / "boundary.svg").read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert "cost elasticity 2<" in svg

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["boundary", "--eta", "3", "--grid", "7", "--out", str(a)])
        run(["boundary", "--eta", "3", "--grid", "7", "--out", str(b)])
        assert (a / "boundary.csv").read_bytes() == (b / "boundary.csv").read_bytes()
        assert (a / "boundary.svg").read_bytes() == (b / "boundary.svg").read_bytes()


class TestBoundary:
    def test_overlays_never_exterior(self, tmp_path, capsys):
        code = run(["boundary", "--eta", "2", "--grid", "10",
                    "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        verdicts = [line for line in out.splitlines()
                    if line.startswith("overlay")]
        assert verdicts and all(line.endswith(("interior", "boundary"))
                                for line in verdicts)
        body = (tmp_path / "boundary.csv").read_text()
        assert "upper" in body and "lower" in body and "zero_cs" in body

    @pytest.mark.parametrize("eta", ["1.01", "1.5", "5"])
    def test_every_eta_draws_its_own_set(self, tmp_path, capsys, eta):
        # at 1.01 the binary law's Bayes menu sells to both types at Pi/S
        # one rounding above 1, which is the set's top edge
        assert run(["boundary", "--eta", eta, "--grid", "5",
                    "--out", str(tmp_path)]) == 0
        verdicts = [line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("overlay")]
        assert len(verdicts) == 3 and all(
            line.endswith(("interior", "boundary")) for line in verdicts)
        e = float(eta)
        lower = _rows(tmp_path / "boundary.csv", "lower")
        assert float(lower[0][1]) == pytest.approx(1.0 / e)
        zero_cs = _rows(tmp_path / "boundary.csv", "zero_cs")
        assert [float(r[1]) for r in zero_cs] == pytest.approx(
            list(np.linspace(1.0 / e, 1.0, 5)))
        assert f"cost elasticity {e:g}<" in (
            tmp_path / "boundary.svg").read_text()

    @pytest.mark.parametrize("grid", ["1", "0", "-5"])
    def test_grid_below_two_is_config_error(self, tmp_path, capsys, grid):
        assert run(["boundary", "--eta", "2", "--grid", grid,
                    "--out", str(tmp_path)]) == 2
        assert "--grid must be at least 2" in capsys.readouterr().err
        assert not (tmp_path / "boundary.csv").exists()


class TestVerify:
    def test_lower_bound_scenario(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "v.json",
                        {"version": 1, "scenario": "lower_bound", "eta": 2.0})
        assert run(["verify", "--config", cfg]) == 0
        assert "certificates pass" in capsys.readouterr().out

    def test_requires_config(self):
        assert run(["verify"]) == 2

    def test_unknown_scenario(self, tmp_path):
        cfg = write_cfg(tmp_path, "v.json",
                        {"version": 1, "scenario": "nope"})
        assert run(["verify", "--config", cfg]) == 2

    def test_quantity_scenario(self, tmp_path):
        cfg = write_cfg(tmp_path, "v.json", {
            "version": 1, "scenario": "quantity",
            "model": {"kind": "separable_quantity", "eta": -2.0},
            "battery": [{"kind": "uniform", "a": 0.5, "b": 2.0},
                        {"kind": "point_mass", "v0": 1.0}]})
        assert run(["verify", "--config", cfg]) == 0

    def test_quantity_scenario_checks_the_tail(self, tmp_path, capsys):
        # at eta = -3, S = E[v^3]/2 diverges on Pareto(2.5): the quantity
        # scenario is the quality problem at eta_c = 3/2, and its tail check
        # needs a shape above 3
        cfg = write_cfg(tmp_path, "v.json", {
            "version": 1, "scenario": "quantity",
            "model": {"kind": "separable_quantity", "eta": -3.0},
            "battery": [{"kind": "pareto", "alpha": 2.5}]})
        out = tmp_path / "out"
        assert run(["verify", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        # the message names the demand elasticity the config gives
        assert err.startswith("config error: surplus is infinite: the law "
                              "fails the tail condition at eta = -3.0 "
                              "(eta_c = 1.5)")
        assert not out.exists()

    def test_empty_battery_is_config_error(self, tmp_path, capsys):
        # an empty battery certifies nothing, as in guarantee and sweep
        cfg = write_cfg(tmp_path, "v.json", {
            "version": 1, "scenario": "lower_bound", "eta": 2.0,
            "battery": []})
        out = tmp_path / "out"
        assert run(["verify", "--config", cfg, "--out", str(out)]) == 2
        assert "battery is empty" in capsys.readouterr().err
        assert not out.exists()


class TestOracle:
    def test_two_type_instance(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "o.json", {
            "version": 1, "eta": 2.0,
            "values": [1.0, 2.0], "masses": [0.5, 0.5],
            "quality_grid": list(np.linspace(0.0, 2.5, 26))})
        assert run(["oracle", "--config", cfg]) == 0
        assert "pass" in capsys.readouterr().out

    @pytest.mark.parametrize("law", [
        {"kind": "binary", "v_lo": 1, "v_hi": 2, "p_hi": 0.3},
        {"kind": "mixture", "weights": [0.7, 0.3],
         "components": [{"kind": "uniform", "a": 0, "b": 1},
                        {"kind": "point_mass", "v0": 0.5}]},
    ], ids=["binary", "uniform-and-atom"])
    def test_law_with_atoms_is_discretized(self, tmp_path, capsys, law):
        # bins inside an atom once repeated its value, which the atomic law
        # rejected as not ascending (exit 2)
        cfg = write_cfg(tmp_path, "o.json", {
            "version": 1, "distribution": law, "n_types": 10})
        assert run(["oracle", "--config", cfg, "--out", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "oracle.json").read_text())
        assert rep["pass"] and rep["relative_gap"] < 0.005

    def test_grid_top_warning_reaches_stderr(self, tmp_path, capsys):
        # the top type's efficient quality is 2, past the grid's top of 1
        cfg = write_cfg(tmp_path, "o.json", {
            "version": 1, "eta": 2.0, "values": [1.0, 2.0],
            "masses": [0.5, 0.5], "quality_grid": [0.0, 0.5, 1.0]})
        # the capped grid misses the continuous profit by a third: exit 1
        assert run(["oracle", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert ("optimum touches the top of the quality grid"
                in capsys.readouterr().err)
        rep = json.loads((tmp_path / "oracle.json").read_text())
        assert set(rep) == {"oracle_profit", "continuous_profit",
                            "relative_gap", "mode", "allocation", "pass"}

    def test_invalid_masses_are_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "o.json", {
            "version": 1, "values": [1.0, 2.0], "masses": [1.5, -0.5],
            "quality_grid": [0.0, 1.0, 2.0]})
        assert run(["oracle", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "masses must be positive" in capsys.readouterr().err


class TestProcure:
    def test_quality_table(self, tmp_path, capsys):
        code = run(["procure", "--eta", "2",
                    "--out", str(tmp_path)])
        assert code == 0
        row = (tmp_path / "procure_quality.csv").read_text().splitlines()[1]
        _, _, price, share = row.split(",")
        assert float(price) == 0.5 and float(share) == 0.5

    def test_quantity_side(self, tmp_path):
        # the offer is the markup factor (eta+1)/eta and the share
        # (eta/(eta+1))^(eta+1)
        for eta, factor, share in (("-2", 0.5, 0.5),
                                   ("-3", 2.0 / 3.0, 4.0 / 9.0)):
            out = tmp_path / eta
            code = run(["procure", "--eta", eta,
                        "--out", str(out)])
            assert code == 0
            header, row = (out / "procure_quantity.csv").read_text().splitlines()
            assert header == "side,eta,markup_factor,surplus_share"
            side, eta_out, factor_out, share_out = row.split(",")
            assert (side, float(eta_out)) == ("quantity", float(eta))
            assert (float(factor_out), float(share_out)) == (factor, share)

    def test_bad_eta(self):
        # no side sells at an elasticity in [-1, 1]
        for eta in ("0.5", "-1", "1", "-0.5"):
            assert run(["procure", f"--eta={eta}"]) == 2

    def test_eta_bar_option_is_gone(self, capsys):
        assert run(["procure", "--eta-bar", "-2"]) == 2
        assert "--eta-bar" in capsys.readouterr().err

    def test_side_option_is_gone(self, capsys):
        # the sign of --eta picks the side
        assert run(["procure", "--side", "quality", "--eta", "2"]) == 2
        assert "unrecognized arguments: --side" in capsys.readouterr().err


class TestSweep:
    def test_csv_roundtrip(self, tmp_path):
        cfg = write_cfg(tmp_path, "s.json", {
            "version": 1, "eta": 2.0, "mechanism": "guarantee",
            "battery": [{"kind": "uniform", "a": 0.0, "b": 1.0}]})
        assert run(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert len(rows) == 2
        assert "pi_ratio" in rows[0]

    def test_rows_keep_input_order(self, tmp_path):
        cfg = write_cfg(tmp_path, "s.json", {
            "version": 1, "eta": 2.0, "mechanism": "guarantee",
            "battery": [{"kind": "uniform", "a": 0.0, "b": 1.0},
                        {"kind": "power", "alpha": 2.0},
                        {"kind": "point_mass", "v0": 1.0}]})
        assert run(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()[1:]
        assert ("uniform" in rows[0] and "power" in rows[1]
                and "point_mass" in rows[2])

    @pytest.mark.parametrize("mechanism", ["guarantee", "bayes_optimal"])
    def test_json_rows_are_the_reports_own_json(self, tmp_path, mechanism):
        # each sweep.jsonl row is the law's spec merged into the report's
        # fields, byte for byte
        battery = [{"kind": "uniform", "a": 0.0, "b": 1.0},
                   {"kind": "pareto", "alpha": 3.1},
                   {"kind": "binary", "v_lo": 1.0, "v_hi": 2.0, "p_hi": 0.3}]
        cfg = write_cfg(tmp_path, "s.json", {
            "version": 1, "eta": 2.0, "mechanism": mechanism,
            "battery": battery})
        assert run(["sweep", "--config", cfg, "--format", "json",
                    "--out", str(tmp_path)]) == 0
        cost = mg.IsoElasticCost(eta=2.0)
        expected = []
        for spec in battery:
            F = mg.distribution_from_spec(spec)
            M = (mg.guarantee_mechanism(2.0) if mechanism == "guarantee"
                 else mg.bayes_optimal_mechanism(F, cost))
            rep = mg.full_report(F, M, cost)
            expected.append(json.dumps(
                {"distribution": F.to_spec(), **vars(rep)},
                sort_keys=True))
        assert (tmp_path / "sweep.jsonl").read_text() == \
            "\n".join(expected) + "\n"

    @pytest.mark.parametrize("spec", [
        {"kind": "power", "alpha": float("nan")},
        {"kind": "pareto", "alpha": float("inf")},
        {"kind": "discrete", "values": [1.0, 2.0, 3.0],
         "masses": [0.5, 0.0, 0.5]},
        {"kind": "mixture", "weights": [1.0, 0.0],
         "components": [{"kind": "uniform", "a": 0.0, "b": 1.0},
                        {"kind": "power", "alpha": 2.0}]},
    ], ids=["power-nan", "pareto-inf", "discrete-zero-mass",
            "mixture-zero-weight"])
    def test_invalid_law_is_config_error(self, tmp_path, capsys, spec):
        cfg = write_cfg(tmp_path, "s.json", {
            "version": 1, "eta": 2.0, "mechanism": "bayes_optimal",
            "battery": [spec]})
        assert run(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err


_POINT_MASS_0 = {"kind": "point_mass", "v0": 0.0}
_UNDERFLOW = {"kind": "uniform", "a": 0.0, "b": 1e-300}


@pytest.mark.parametrize("argv, cfg", [
    (["sweep"], {"eta": 2.0, "mechanism": "bayes_optimal",
                 "battery": [_POINT_MASS_0]}),
    (["sweep"], {"eta": 2.0, "mechanism": "guarantee",
                 "battery": [_POINT_MASS_0]}),
    (["sweep"], {"eta": 2.0, "mechanism": "bayes_optimal",
                 "battery": [_UNDERFLOW]}),
    (["guarantee", "--eta", "2"], {"battery": [_POINT_MASS_0]}),
    (["verify"], {"scenario": "convex_cost",
                  "cost": {"kind": "poly_cost",
                           "coeffs": [0.0, 0.0, 0.5, 0.0, 0.25],
                           "eta_bar": 4.0},
                  "battery": [_POINT_MASS_0]}),
], ids=["sweep-bayes", "sweep-guarantee", "sweep-underflow", "guarantee",
        "verify-convex-cost"])
def test_zero_surplus_is_config_error(tmp_path, capsys, argv, cfg):
    path = write_cfg(tmp_path, "c.json", {"version": 1, **cfg})
    assert run([*argv, "--config", path, "--out", str(tmp_path)]) == 2
    assert "efficient surplus" in capsys.readouterr().err


def test_positive_marginal_cost_at_zero_is_config_error(tmp_path, capsys):
    # the convex-cost bound assumes c'(0) = 0; c = q + q^2/2 breaks it
    path = write_cfg(tmp_path, "c.json", {
        "version": 1, "scenario": "convex_cost",
        "cost": {"kind": "poly_cost", "coeffs": [0.0, 1.0, 0.5],
                 "eta_bar": 2.0},
        "battery": [{"kind": "point_mass", "v0": 1.5}]})
    assert run(["verify", "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "c'(0) = 0" in err
    assert not (tmp_path / "certificates.jsonl").exists()


@pytest.mark.parametrize("mechanism", ["guarantee", "bayes_optimal"])
def test_unrepresentable_surplus_is_config_error(tmp_path, capsys, mechanism):
    # at eta = 1.0001, S holds k^(r - alpha) = 1e6^9999.5: finite, but not a
    # float64
    path = write_cfg(tmp_path, "c.json", {
        "version": 1, "eta": 1.0001, "mechanism": mechanism,
        "battery": [{"kind": "truncated_pareto", "alpha": 1.5, "k": 1e6}]})
    assert run(["sweep", "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "overflows float64" in err


def test_infinite_surplus_is_one_config_error(tmp_path, capsys):
    # Pareto(1.4) fails the tail condition at eta = 3 (shape 1.5 needed):
    # the Bayes menu and the guarantee menu's report stop on one check
    errs = []
    for mechanism in ("bayes_optimal", "guarantee"):
        path = write_cfg(tmp_path, f"{mechanism}.json", {
            "version": 1, "eta": 3.0, "mechanism": mechanism,
            "battery": [{"kind": "pareto", "alpha": 1.4}]})
        assert run(["sweep", "--config", path, "--out", str(tmp_path)]) == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert errs[0].startswith("config error: surplus is infinite")
    assert not (tmp_path / "sweep.csv").exists()


def test_convex_cost_past_the_tail_condition_is_config_error(tmp_path, capsys):
    # E[v^(4/3)] diverges on Pareto(1.3), and so does S under q^2/2 + q^4/4
    path = write_cfg(tmp_path, "c.json", {
        "version": 1, "scenario": "convex_cost",
        "cost": {"kind": "poly_cost", "coeffs": [0.0, 0.0, 0.5, 0.0, 0.25],
                 "eta_bar": 4.0},
        "battery": [{"kind": "pareto", "alpha": 1.3}]})
    assert run(["verify", "--config", path, "--out", str(tmp_path)]) == 2
    assert "surplus is infinite" in capsys.readouterr().err
    assert not (tmp_path / "certificates.jsonl").exists()


def _quadratic_cost_cfg(tmp_path, alpha):
    return write_cfg(tmp_path, "c.json", {
        "version": 1, "scenario": "convex_cost",
        "cost": {"kind": "poly_cost", "coeffs": [0.0, 0.0, 0.5],
                 "eta_bar": 4.0},
        "battery": [{"kind": "pareto", "alpha": alpha}]})


@pytest.mark.parametrize("alpha, code, message", [
    # S = E[v^2] / 2 diverges on Pareto(1.5), though 1.5 > 4/3 passes the
    # tail condition at eta_bar = 4
    (1.5, 2, "config error: surplus is infinite"),
])
def test_quadratic_cost_on_a_heavy_tail_is_one_line(tmp_path, capsys, alpha,
                                                    code, message):
    path = _quadratic_cost_cfg(tmp_path, alpha)
    assert run(["verify", "--config", path, "--out", str(tmp_path)]) == code
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert not (tmp_path / "certificates.jsonl").exists()


def test_quadratic_cost_on_a_finite_heavy_tail_is_certified(tmp_path):
    # S is finite on Pareto(2.1), and the folded tail asks for c'(q) = v up
    # to 4.6e61; under q^2/2 every law earns Pi/S = z (1 - z)
    path = _quadratic_cost_cfg(tmp_path, 2.1)
    assert run(["verify", "--config", path, "--out", str(tmp_path)]) == 0
    cert = json.loads((tmp_path / "certificates.jsonl").read_text())
    z = cert["parameters"]["z"]
    assert cert["pass"] and z == pytest.approx(0.366025403784, rel=1e-12)
    assert cert["measured_value"] == pytest.approx(z * (1.0 - z), rel=1e-9)


@pytest.mark.parametrize("spec, message", [
    # mass 1e-300 at v = 1e300, where the menu's margin v Q - c(Q) is
    # inf - inf
    ({"kind": "truncated_pareto", "alpha": 1.0, "k": 1e300},
     "not finite at the atom v = 1e+300"),
    # the density is 0.0 in float64 where P(V > v) > 0: past about 3.7e66,
    # and everywhere in (0, 1)
    ({"kind": "truncated_pareto", "alpha": 4.0, "k": 1e300},
     "density underflows float64"),
    ({"kind": "power", "alpha": 1e20}, "density underflows float64"),
    # the Bayes menu's virtual value at 9.2e35 divides by a density of 0.0
    ({"kind": "truncated_pareto", "alpha": 8.04, "k": 1e300},
     "the density underflows float64 at v = 9.18"),
], ids=["top-atom-overflow", "pareto-density-underflow",
        "power-density-underflow", "steep-pareto-density-underflow"])
def test_law_past_float64_is_config_error(tmp_path, capsys, spec, message):
    path = write_cfg(tmp_path, "c.json", {
        "version": 1, "eta": 2.0, "mechanism": "bayes_optimal",
        "battery": [spec]})
    assert run(["sweep", "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("argv, cfg, field", [
    (["oracle"], {"eta": 2.0}, "values"),
    (["oracle"], {"eta": 2.0, "values": [1.0, 2.0]}, "masses"),
    (["verify"], {"scenario": "convex_cost",
                  "cost": {"kind": "poly_cost", "eta_bar": 4.0}}, "coeffs"),
    (["verify"], {"scenario": "convex_cost",
                  "cost": {"coeffs": [0.0, 0.0, 0.5]}}, "kind"),
    (["verify"], {"scenario": "quantity",
                  "model": {"kind": "separable_quantity"}}, "eta"),
    # verify reads eta and tol from its config alone
    (["verify"], {"scenario": "lower_bound"}, "eta"),
    (["verify"], {"scenario": "holder"}, "eta"),
    (["oracle"], {"distribution": {"kind": "pareto"}}, "alpha"),
], ids=["oracle-values", "oracle-masses", "poly-cost-coeffs", "cost-kind",
        "quantity-eta", "lower-bound-eta", "holder-eta",
        "oracle-distribution-alpha"])
def test_missing_spec_field_is_config_error(tmp_path, capsys, argv, cfg,
                                            field):
    path = write_cfg(tmp_path, "c.json", {"version": 1, **cfg})
    assert run([*argv, "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and repr(field) in err


@pytest.mark.parametrize("argv, name", [
    (["boundary", "--eta", "inf"], "--eta"),
    (["boundary", "--eta", "nan"], "--eta"),
    (["guarantee", "--eta", "inf"], "--eta"),
    (["procure", "--eta", "nan"], "--eta"),
    (["procure", "--eta=-inf"], "--eta"),
    (["boundary"], "--eta"),
    (["procure"], "--eta"),
    (["procure", "--eta", "inf"], "--eta"),
], ids=["boundary-inf", "boundary-nan", "guarantee-inf", "procure-quality-nan",
        "procure-quantity-minus-inf", "boundary-missing", "procure-missing",
        "procure-inf"])
def test_non_finite_eta_flag_is_config_error(tmp_path, capsys, argv, name):
    # NaN fails no `eta <= 1` comparison, so the range check must reject it
    # itself
    assert run([*argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {name} must lie in")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv, cfg, name", [
    (["verify"], {"scenario": "lower_bound", "eta": 2.0, "tol": math.nan},
     "'tol'"),
    (["verify"], {"scenario": "lower_bound", "eta": 2.0, "tol": -1.0},
     "'tol'"),
    (["verify"], {"scenario": "holder", "eta": math.inf}, "'eta'"),
    (["sweep"], {"eta": math.inf, "mechanism": "guarantee",
                 "battery": [{"kind": "uniform", "a": 0.0, "b": 1.0}]},
     "'eta'"),
    (["oracle"], {"eta": math.nan, "values": [1.0, 2.0],
                  "masses": [0.5, 0.5]}, "'eta'"),
    (["verify"], {"scenario": "lower_bound", "eta": 2.0, "tol": [1e-6]},
     "'tol'"),
    (["sweep"], {"eta": [2.0]}, "'eta'"),
    (["verify"], {"scenario": "convex_cost",
                  "cost": {"kind": "iso_elastic", "eta": "2"}}, "'eta'"),
    (["verify"], {"scenario": "convex_cost",
                  "cost": {"kind": "poly_cost", "coeffs": [0.0, 0.0, 0.5],
                           "eta_bar": "4"}}, "'eta_bar'"),
    (["verify"], {"scenario": "quantity",
                  "model": {"kind": "separable_quantity", "eta": "-2"}},
     "'eta'"),
    (["verify"], {"scenario": "quantity",
                  "model": {"kind": "separable_quantity", "eta": math.nan}},
     "'eta'"),
    (["verify"], {"scenario": "quantity",
                  "model": {"kind": "separable_quantity", "eta": -math.inf}},
     "'eta'"),
    (["oracle"], {"distribution": {"kind": "uniform", "a": 0.0, "b": 1.0},
                  "n_types": 1.7}, "'n_types'"),
    (["oracle"], {"distribution": {"kind": "uniform", "a": 0.0, "b": 1.0},
                  "n_types": True}, "'n_types'"),
    (["oracle"], {"values": 5, "masses": [1.0]}, "'values'"),
    (["oracle"], {"values": [1.0, 2.0], "masses": [0.5, 0.5],
                  "quality_grid": 5}, "'quality_grid'"),
], ids=["verify-tol-nan", "verify-tol-negative", "holder-eta-inf",
        "sweep-eta-inf", "oracle-eta-nan", "verify-tol-list", "sweep-eta-list",
        "iso-elastic-eta-string", "poly-cost-eta-bar-string",
        "quantity-eta-string", "quantity-eta-nan", "quantity-eta-minus-inf",
        "oracle-n-types-fraction", "oracle-n-types-bool",
        "oracle-values-number", "oracle-quality-grid-number"])
def test_bad_config_number_is_config_error(tmp_path, capsys, argv, cfg, name):
    # a NaN or negative tolerance would fail every certificate of a
    # passing battery, a list or a string is no number, and a spec's
    # elasticity is range-checked as the config's own eta is
    path = write_cfg(tmp_path, "c.json", {"version": 1, **cfg})
    out = tmp_path / "out"
    assert run([*argv, "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {name} must")
    assert not out.exists()


def test_oracle_pass_gap_is_not_a_config_field(tmp_path, capsys):
    path = write_cfg(tmp_path, "o.json", {
        "version": 1, "values": [1.0, 2.0], "masses": [0.5, 0.5],
        "tol": 0.5})
    assert run(["oracle", "--config", path, "--out", str(tmp_path)]) == 2
    assert "unknown config fields: ['tol']" in capsys.readouterr().err


_POLY_COST = {"kind": "poly_cost", "coeffs": [0.0, 0.0, 0.5], "eta_bar": 2.0}
_SEPARABLE = {"kind": "separable_quantity", "eta": -2.0}


@pytest.mark.parametrize("cfg, message", [
    ({"scenario": "lower_bound", "eta": 2.0, "eta_bar": "anything"},
     "unknown config fields: ['eta_bar']"),
    ({"scenario": "lower_bound", "eta": 2.0, "zzz": "anything"},
     "unknown config fields: ['zzz']"),
    # a field another scenario reads
    ({"scenario": "convex_cost", "cost": _POLY_COST, "eta": 2.0},
     "the 'convex_cost' scenario reads no ['eta'] field"),
    ({"scenario": "lower_bound", "eta": 2.0, "cost": _POLY_COST},
     "the 'lower_bound' scenario reads no ['cost'] field"),
    ({"scenario": "lower_bound", "eta": 2.0, "model": _SEPARABLE},
     "the 'lower_bound' scenario reads no ['model'] field"),
], ids=["eta_bar", "zzz", "convex-cost-eta", "lower-bound-cost",
        "lower-bound-model"])
def test_verify_rejects_a_field_no_scenario_reads(tmp_path, capsys, cfg,
                                                  message):
    # the convex-cost bound is the cost spec's own eta_bar, and the
    # quantity bound comes from the model spec
    path = write_cfg(tmp_path, "v.json", {"version": 1, **cfg})
    out = tmp_path / "out"
    assert run(["verify", "--config", path, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


_UNIFORM = {"kind": "uniform", "a": 0.0, "b": 1.0}


@pytest.mark.parametrize("cfg, message", [
    ({"distribution": _UNIFORM, "values": [1.0], "masses": [1.0]},
     "an 'oracle' config with a 'distribution' reads no ['masses', 'values']"),
    ({"distribution": _UNIFORM, "masses": [1.0]},
     "an 'oracle' config with a 'distribution' reads no ['masses']"),
    ({"values": [1.0, 2.0], "masses": [0.5, 0.5], "n_types": 4},
     "an 'oracle' config without a 'distribution' reads no ['n_types']"),
], ids=["values-and-masses", "masses", "n-types-without-distribution"])
def test_oracle_rejects_a_field_its_law_does_not_read(tmp_path, capsys, cfg,
                                                      message):
    path = write_cfg(tmp_path, "o.json", {"version": 1, **cfg})
    out = tmp_path / "out"
    assert run(["oracle", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message} field\n"
    assert not out.exists()


def _written(out_dir):
    return {path.relative_to(out_dir): path.read_bytes()
            for path in out_dir.rglob("*") if path.is_file()}


def test_commands_in_a_row_write_what_each_writes_alone(tmp_path):
    # main shares one parser between calls: a subcommand run after others
    # writes the same files as with a parser of its own
    sweep = write_cfg(tmp_path, "s.json", {
        "version": 1, "eta": 2.0,
        "battery": [{"kind": "uniform", "a": 0.0, "b": 1.0}]})
    commands = [["sweep", "--config", sweep, "--format", "json"],
                ["procure", "--eta", "2"],
                ["boundary", "--eta", "3", "--grid", "4"]]
    alone = []
    for argv in commands:
        build_parser.cache_clear()
        out = tmp_path / "alone" / argv[0]
        alone.append((run([*argv, "--out", str(out)]), _written(out)))
    parser = build_parser()
    in_a_row = []
    for argv in commands:
        out = tmp_path / "in_a_row" / argv[0]
        in_a_row.append((run([*argv, "--out", str(out)]), _written(out)))
    assert build_parser() is parser
    assert in_a_row == alone
    assert all(code == 0 and files for code, files in alone)


def test_non_finite_certificate_is_one_numerical_failure(tmp_path, capsys):
    # at eta = 1.001, q = (p/theta)^(1/(eta-1)) overflows at theta = 0.1 and
    # the measured share is NaN, which neither passes nor fails
    assert run(["procure", "--eta", "1.001",
                "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: procurement_quality")
    assert err.endswith("measured nan vs bound 0.36806330428877704 is not "
                        "finite\n")
    assert err.count("\n") == 1
    assert not (tmp_path / "certificates.jsonl").exists()


# the flags each subcommand reads, and so accepts
_FLAGS = {
    "guarantee": {"--eta", "--config", "--out"},
    "boundary": {"--eta", "--out", "--grid"},
    "verify": {"--config", "--out"},
    "oracle": {"--config", "--out"},
    "procure": {"--eta", "--out"},
    "sweep": {"--config", "--out", "--format"},
}
_SHARED = {"--eta", "--config", "--out", "--tol", "--grid", "--format"}


@pytest.mark.parametrize("command", sorted(_FLAGS))
def test_help_lists_exactly_the_flags_read(capsys, command):
    assert run([command, "--help"]) == 0
    listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*",
                            capsys.readouterr().out))
    assert listed == _FLAGS[command] | {"--help"}


@pytest.mark.parametrize("command, flag", sorted(
    (c, f) for c, flags in _FLAGS.items() for f in _SHARED - flags))
def test_flag_a_subcommand_ignores_is_rejected(capsys, command, flag):
    assert run([command, flag, "1"]) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and flag in err


def _readme_commands():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path) as fh:
        blocks = re.findall(r"```sh\n(.*?)```", fh.read(), flags=re.S)
    return [shlex.split(line, comments=True)
            for block in blocks for line in block.splitlines()
            if line.startswith("markup-guarantee ")]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert {argv[1] for argv in commands} == set(_FLAGS)
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv[1:])
        assert args.command == argv[1]
