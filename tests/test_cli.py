import csv
import functools
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import dirweight
from dirweight import arith, cli, condition


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def omega_cfg(tmp_path):
    return write_config(tmp_path, "omega.json", {
        "family": {"kind": "named", "name": "omega"},
        "n_max": 300,
        "methods": ["divisor_sum", "additive_Tt"],
    })


@pytest.fixture
def negctrl_cfg(tmp_path):
    return write_config(tmp_path, "neg.json", {
        "family": {"kind": "named", "name": "geometric",
                    "parameters": {"ratio": "1/2"}, "delta": 0.0},
        "n_max": 100,
    })


def run(argv):
    return cli.main(argv)


def _no_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def strict_loads(text):
    """json.loads that rejects NaN, Infinity and -Infinity, as strict parsers do."""
    return json.loads(text, parse_constant=_no_constant)


# -- exit codes ---------------------------------------------------------------


def test_check_condition_nonneg_exits_zero(omega_cfg, tmp_path, capsys):
    out = str(tmp_path / "rep")
    assert run(["check-condition", "--config", omega_cfg, "--out", out]) == 0
    report = json.loads((tmp_path / "rep.json").read_text())
    assert report["result"]["verdict"] == "nonneg_exact"
    assert report["schema_version"] == "1.0"
    assert "timestamp" in report


def test_check_condition_divisor_pow_all_ones(tmp_path):
    cfg = write_config(tmp_path, "d.json", {
        "family": {"kind": "named", "name": "divisor_pow", "parameters": {"alpha": 1}},
        "n_max": 500,
    })
    out = str(tmp_path / "rep")
    assert run(["check-condition", "--config", cfg, "--out", out]) == 0
    report = json.loads((tmp_path / "rep.json").read_text())
    assert all(r["value"] == 1 for r in report["result"]["records"])


def test_classify_ones_multiplicative_route(tmp_path, capsys):
    cfg = write_config(tmp_path, "ones.json", {
        "family": {"kind": "named", "name": "ones"}, "n_max": 200,
    })
    assert run(["classify", "--config", cfg, "--no-timestamp", "--stdout"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert "multiplicative product route" in report["result"]["applicable_routes"]
    # every condition value past n = 1 collapses to 0
    counts = report["result"]["condition_sample"]["counts"]
    assert counts == {"nonneg_exact": 200}


def test_check_condition_negative_exits_two(negctrl_cfg, tmp_path):
    out = str(tmp_path / "neg")
    assert run(["check-condition", "--config", negctrl_cfg, "--out", out]) == 2
    report = json.loads((tmp_path / "neg.json").read_text())
    assert report["result"]["verdict"] == "negative_certified"


def test_unknown_config_key_exits_one(tmp_path):
    bad = write_config(tmp_path, "bad.json", {"family": {"kind": "named", "name": "ones"},
                                               "wat": 1})
    assert run(["check-condition", "--config", bad]) == 1


def test_bad_family_exits_one(tmp_path):
    bad = write_config(tmp_path, "bad2.json", {"family": {"kind": "named", "name": "huh"}})
    assert run(["check-condition", "--config", bad]) == 1


def test_missing_family_exits_one(tmp_path):
    bad = write_config(tmp_path, "bad3.json", {"n_max": 10})
    assert run(["check-condition", "--config", bad]) == 1


def test_exact_mode_rejected_for_float_family(tmp_path):
    cfg = write_config(tmp_path, "f.json", {
        "family": {"kind": "named", "name": "log_pow", "parameters": {"alpha": 1}},
        "n_max": 50,
    })
    assert run(["check-condition", "--config", cfg, "--exact"]) == 1
    assert run(["check-condition", "--config", cfg, "--float",
                "--out", str(tmp_path / "ok")]) == 0


def test_no_command_exits_one():
    assert run([]) == 1


@pytest.mark.parametrize("argv", [
    ["check-condition", "--bogus"],
    ["check-condition", "--delta", "abc"],
    ["check-condition", "--n-max", "ten"],
    ["gram", "--kernel", "nope"],
])
def test_usage_errors_exit_one(argv, capsys):
    # exit 2 is reserved for a certified violation
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: dirweight")
    assert len([line for line in err.splitlines() if "error:" in line]) == 1


def test_delta_flag_accepts_rational(omega_cfg, capsys):
    assert run(["check-condition", "--config", omega_cfg, "--delta", "1/2",
                "--no-timestamp", "--stdout"]) == 2
    result = json.loads(capsys.readouterr().out)["result"]
    assert (result["delta"], result["verdict"]) == (0.5, "negative_certified")


@pytest.mark.parametrize("alpha", [400])
def test_large_gamma_alpha_exits_one(alpha, tmp_path, capsys):
    # (log n)^400 is past the float range from n = 364 on
    cfg = write_config(tmp_path, "g.json", {
        "family": {"kind": "measure", "spec": {"type": "gamma_density", "alpha": alpha}},
        "n_max": 1000,
    })
    assert run(["check-condition", "--config", cfg, "--stdout"]) == 1
    captured = capsys.readouterr()
    assert [line for line in captured.err.splitlines() if "error:" in line] == [
        "error: measure-induced weight at n=364 is inf; no weight defined"]
    assert captured.out == ""


OMEGA = {"kind": "named", "name": "omega"}


@pytest.mark.parametrize("argv,cfg,message", [
    # omega's S(n) is 0 or 1, yet tol = -1 called it negative (exit 2)
    (["check-condition", "--float", "--n-max", "12", "--tol", "-1"], {},
     "error: tol must be a finite number > 0, got -1.0"),
    # nan switched the agreement check off
    (["check-condition", "--float", "--methods", "divisor_sum,additive_Tt", "--tol", "nan"], {},
     "error: tol must be a finite number > 0, got nan"),
    # the quotient route certified tol = 0, the other two routes did not
    (["eval-kernel", "--kernel", "ratio", "--s", "2.0", "--tol", "0"], {},
     "config error: tol must be a finite number > 0, got 0.0"),
    (["gram", "--kernel", "weight", "--points", "2.0"], {"tol": None},
     "error: expected a number, got None"),
], ids=["negative", "nan", "zero", "null"])
def test_tolerance_must_be_finite_and_positive(argv, cfg, message, tmp_path, capsys):
    path = write_config(tmp_path, "c.json", {"family": OMEGA, **cfg})
    assert run([*argv, "--config", path, "--stdout"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1] == message
    assert len([line for line in captured.err.splitlines() if "error" in line]) == 1
    assert captured.out == ""


MEASURE = {"kind": "measure", "spec": {"type": "gamma_density", "alpha": 2}}


@pytest.mark.parametrize("command,cfg,message", [
    ("check-condition", {"n_max": None}, "n_max: expected a number, got None"),
    ("check-condition", {"n_max": 1.5}, "n_max: expected an integer, got 1.5"),
    ("check-condition", {"n_max": True}, "n_max: expected a number, got True"),
    ("check-condition", {"n_max": 20, "k": 2.5}, "k: expected an integer, got 2.5"),
    ("classify", {"n_max": None}, "n_max: expected a number, got None"),
    ("gram", {"grid": {"n_points": None}}, "n_points: expected a number, got None"),
    ("gram", {"grid": {"n_points": 2.5}}, "n_points: expected an integer, got 2.5"),
    ("von-mangoldt", {"alpha": None}, "alpha: expected a number, got None"),
    ("von-mangoldt", {"alpha": True}, "alpha: expected a number, got True"),
    ("von-mangoldt", {"n": 6.5}, "n: expected an integer, got 6.5"),
    ("check-condition", {"family": {**MEASURE, "n0": None}}, "expected a number, got None"),
    ("check-condition", {"family": {**MEASURE, "n0": 2.5}}, "expected an integer, got 2.5"),
    ("check-condition", {"family": {**OMEGA, "start_index": True}},
     "expected a number, got True"),
    ("check-condition", {"family": {
        "kind": "explicit", "values": [1, 2], "start_index": 1.5, "sigma": 1.0,
        "delta": 0.0, "growth_bound": [2.0, 0.0]}}, "expected an integer, got 1.5"),
])
def test_integer_config_values_are_integers(command, cfg, message, tmp_path, capsys):
    path = write_config(tmp_path, "c.json", {"family": OMEGA, **cfg})
    assert run([command, "--config", path, "--stdout"]) == 1
    captured = capsys.readouterr()
    assert [line for line in captured.err.splitlines() if "error" in line] == [
        f"config error: {message}"]
    assert captured.out == ""


@pytest.mark.parametrize("command,cfg,message", [
    ("check-condition", {"methods": None}, "methods: expected a list of method names, got None"),
    ("check-condition", {"methods": "divisor_sum"},
     "methods: expected a list of method names, got 'divisor_sum'"),
    ("check-condition", {"methods": ["divisor_sum", 1]},
     "methods: expected a list of method names, got ['divisor_sum', 1]"),
    ("eval-kernel", {"s": None}, "s: expected a pair [re, im], got None"),
    ("eval-kernel", {"s": [2.0]}, "s: expected a pair [re, im], got [2.0]"),
    ("eval-kernel", {"s": [2.0, 0.0], "u": [2.0, None]}, "u: expected a number, got None"),
    ("gram", {"grid": {"points": [[2.0]]}}, "grid.points: expected a pair [re, im], got [2.0]"),
    ("gram", {"grid": {"points": 2.0}},
     "grid.points: expected a list of [re, im] pairs, got 2.0"),
    ("gram", {"grid": {"points": [[2.0, "i"]]}}, "grid.points: expected a number, got 'i'"),
    ("gram", {"grid": [2.0]}, "grid: expected an object, got [2.0]"),
])
def test_config_shapes_are_checked(command, cfg, message, tmp_path, capsys):
    path = write_config(tmp_path, "c.json", {"family": OMEGA, **cfg})
    assert run([command, "--config", path, "--stdout"]) == 1
    captured = capsys.readouterr()
    assert [line for line in captured.err.splitlines() if "error" in line] == [
        f"config error: {message}"]
    assert captured.out == ""


def test_config_points_accept_rational_strings(tmp_path, capsys):
    path = write_config(tmp_path, "c.json", {"family": OMEGA, "kernel": "weight",
                                             "s": ["5/2", 0], "u": [2.5, "0"]})
    assert run(["eval-kernel", "--config", path, "--no-timestamp", "--stdout"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["s"] == report["result"]["u"] == [2.5, 0.0]


def test_integral_float_config_values_are_accepted(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text('{"family": {"kind": "named", "name": "omega", "start_index": 2.0},'
                    ' "n_max": 1e2, "k": 2.0}')
    assert run(["check-condition", "--config", str(path), "--no-timestamp", "--stdout"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["result"]["range"], report["result"]["k"]) == ([2, 100], 2)
    # the embedded config keeps the values as written
    assert (report["config"]["n_max"], report["config"]["k"]) == (100.0, 2.0)


# -- determinism and round-trips ----------------------------------------------


def test_reports_byte_identical_without_timestamp(omega_cfg, capsys):
    assert run(["check-condition", "--config", omega_cfg, "--no-timestamp",
                "--stdout"]) == 0
    first = capsys.readouterr().out
    assert run(["check-condition", "--config", omega_cfg, "--no-timestamp",
                "--stdout"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "timestamp" not in json.loads(first)


def test_rerun_from_embedded_config(omega_cfg, tmp_path, capsys):
    out1 = str(tmp_path / "r1")
    assert run(["check-condition", "--config", omega_cfg, "--no-timestamp",
                "--out", out1]) == 0
    # a report file is a valid --config: its embedded config is extracted
    out2 = str(tmp_path / "r2")
    assert run(["check-condition", "--config", out1 + ".json", "--no-timestamp",
                "--out", out2]) == 0
    rep1 = json.loads((tmp_path / "r1.json").read_text())
    rep2 = json.loads((tmp_path / "r2.json").read_text())
    assert rep1["result"] == rep2["result"]


def test_csv_projection(omega_cfg, tmp_path):
    out = str(tmp_path / "rep")
    run(["check-condition", "--config", omega_cfg, "--out", out])
    lines = (tmp_path / "rep.csv").read_text().strip().splitlines()
    assert lines[0] == "n,value,method,verdict,margin"
    # 299 checked indices, two methods each
    assert len(lines) == 1 + 2 * 299


# -- other subcommands --------------------------------------------------------


def test_classify_omega(omega_cfg, capsys):
    assert run(["classify", "--config", omega_cfg, "--no-timestamp", "--stdout"]) == 0
    report = json.loads(capsys.readouterr().out)
    routes = report["result"]["applicable_routes"]
    assert "additive per-term route" in routes
    assert "direct condition route" in routes
    assert report["result"]["growth_check"]["passed"]


def test_classify_runs_at_the_delta_override(tmp_path, capsys):
    # d(p) p^(-1/2) - 1 < 0 from p = 5 on: the check and the sample both fail there
    cfg = write_config(tmp_path, "d.json", {
        "family": {"kind": "named", "name": "divisor_pow", "parameters": {"alpha": 1}}})
    assert run(["classify", "--config", cfg, "--delta", "0.5", "--no-timestamp", "--stdout"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    growth, sample = result["growth_check"], result["condition_sample"]
    assert (growth["delta"], growth["passed"], growth["first_violation"][:2]) == (0.5, False, [5, 1])
    assert (sample["delta"], sample["verdict"]) == (0.5, "negative_certified")
    assert result["delta"] == 0.0 and result["applicable_routes"] == []


@pytest.mark.parametrize("methods", ["divisor_sum", "additive_Tt", "divisor_sum,additive_Tt"])
def test_check_condition_past_the_float_range_is_inconclusive(tmp_path, capsys, methods):
    # p^2000 overflows: every route's rows past it are not finite
    cfg = write_config(tmp_path, "omega.json", {"family": {"kind": "named", "name": "omega"}})
    assert run(["check-condition", "--config", cfg, "--delta", "-2000", "--n-max", "100",
                "--methods", methods, "--out", str(tmp_path / "rep")]) == 3
    assert capsys.readouterr().err.endswith("verdict: inconclusive\n")


def test_classify_past_the_float_range_counts_the_factors_not_finite(tmp_path, capsys):
    cfg = write_config(tmp_path, "omega.json", {"family": {"kind": "named", "name": "omega"}})
    assert run(["classify", "--config", cfg, "--delta", "-2000", "--no-timestamp",
                "--stdout"]) == 0
    result = strict_loads(capsys.readouterr().out)["result"]
    growth = result["growth_check"]
    assert (growth["passed"], growth["violations"], growth["checks"]) == (False, 30, 30)
    assert growth["first_violation"] == [2, 2, "inf"]
    assert result["condition_sample"]["verdict"] == "inconclusive"
    assert result["applicable_routes"] == []


def test_classify_smooth_sums_run_at_the_delta_override(tmp_path, capsys):
    cfg = write_config(tmp_path, "d.json", {
        "family": {"kind": "named", "name": "divisor_pow", "parameters": {"alpha": 1}}})
    assert run(["classify", "--config", cfg, "--delta", "0.3", "--no-timestamp", "--stdout"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    smooth = result["smooth_sum_diagnostic"]
    assert (smooth["delta"], smooth["s"]) == (0.3, 0.8) == (
        result["condition_sample"]["delta"], 0.8)


@pytest.mark.parametrize("family,method", [
    ({"kind": "named", "name": "omega", "start_index": 3}, "additive_Tt"),
    ({"kind": "named", "name": "geometric", "start_index": 2}, "mult_product")],
    ids=["omega", "geometric"])
def test_classify_lists_factored_routes_only_at_their_start_index(family, method, tmp_path,
                                                                  capsys):
    cfg = write_config(tmp_path, "f.json", {"family": family, "n_max": 200})
    assert run(["classify", "--config", cfg, "--no-timestamp", "--stdout"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["growth_check"]["passed"]
    assert not {"multiplicative product route", "additive per-term route"} & set(
        result["applicable_routes"])
    assert run(["check-condition", "--config", cfg, "--methods", method, "--stdout"]) == 1
    assert "agrees with the condition only for k =" in capsys.readouterr().err


def test_classify_writes_to_stdout_without_out_or_stdout(omega_cfg, capsys):
    assert run(["classify", "--config", omega_cfg, "--no-timestamp"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["result"]["family"] == "omega"
    assert captured.err == ""


def test_classify_divisor_pow(tmp_path, capsys):
    cfg = write_config(tmp_path, "d.json", {
        "family": {"kind": "named", "name": "divisor_pow", "parameters": {"alpha": 2}},
        "n_max": 300,
    })
    assert run(["classify", "--config", cfg, "--no-timestamp", "--stdout"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert "multiplicative product route" in report["result"]["applicable_routes"]


def test_classify_one_plus(tmp_path, capsys):
    cfg = write_config(tmp_path, "op.json", {
        "family": {"kind": "named", "name": "one_plus",
                    "parameters": {"base": {"kind": "named", "name": "divisor_pow",
                                             "parameters": {"alpha": 1}}}},
        "n_max": 200,
    })
    assert run(["classify", "--config", cfg, "--no-timestamp", "--stdout"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert "one-plus composition route" in report["result"]["applicable_routes"]


def test_gram_psd_exits_zero(tmp_path):
    cfg = write_config(tmp_path, "d.json", {
        "family": {"kind": "named", "name": "divisor_pow", "parameters": {"alpha": 1}},
    })
    out = str(tmp_path / "gram")
    assert run(["gram", "--config", cfg, "--kernel", "series", "--out", out]) == 0
    report = json.loads((tmp_path / "gram.json").read_text())
    assert report["result"]["verdict"] == "psd_within_tol"
    assert len(report["result"]["points"]) == 8


def test_gram_explicit_points(tmp_path):
    cfg = write_config(tmp_path, "d.json", {
        "family": {"kind": "named", "name": "divisor_pow", "parameters": {"alpha": 1}},
    })
    out = str(tmp_path / "gram2")
    code = run(["gram", "--config", cfg, "--kernel", "series",
                "--points", "2.5;2.7;3.0+0.2j", "--tol", "1e-6", "--out", out])
    assert code == 0
    report = json.loads((tmp_path / "gram2.json").read_text())
    assert len(report["result"]["points"]) == 3


def test_eval_kernel(tmp_path, capsys):
    cfg = write_config(tmp_path, "ones.json", {
        "family": {"kind": "named", "name": "ones"},
    })
    assert run(["eval-kernel", "--config", cfg, "--kernel", "weight",
                "--s", "1.0", "--tol", "1e-6", "--no-timestamp", "--stdout"]) == 0
    report = json.loads(capsys.readouterr().out)
    value = report["result"]["value"]
    assert value[0] == pytest.approx(0.6449331, abs=1e-5)
    assert report["result"]["certified"]


def test_eval_kernel_unknown_route_in_the_config_exits_one(tmp_path, capsys):
    # --kernel is checked by argparse; the config value reaches the route dispatch
    cfg = write_config(tmp_path, "k.json", {"family": {"kind": "named", "name": "omega"},
                                            "kernel": "bogus"})
    assert run(["eval-kernel", "--config", cfg, "--s", "2.0"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["config error: unknown kernel route 'bogus'"]
    assert captured.out == ""


def test_eval_kernel_outside_domain_exits_one(tmp_path):
    cfg = write_config(tmp_path, "ones.json", {
        "family": {"kind": "named", "name": "ones"},
    })
    assert run(["eval-kernel", "--config", cfg, "--kernel", "weight",
                "--s", "0.4"]) == 1


def test_von_mangoldt_values(capsys):
    assert run(["von-mangoldt", "--alpha", "1", "--n-max", "12",
                "--no-timestamp", "--stdout"]) == 0
    report = json.loads(capsys.readouterr().out)
    values = {row["n"]: row["value"] for row in report["result"]["values"]}
    assert values[8] == pytest.approx(0.6931471805599453)
    assert values[6] == 0.0
    assert report["result"]["min_value"] >= 0.0


@pytest.mark.parametrize("flag", ["--n", "--n-max"])
def test_von_mangoldt_input_past_the_ceiling_exits_one(flag, capsys, monkeypatch):
    def no_trial_division(n):
        raise AssertionError(f"factorize({n}) ran")

    monkeypatch.setattr(arith, "factorize", no_trial_division)
    assert run(["von-mangoldt", flag, str(2**61 - 1), "--stdout"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: sieve length {2**61 - 1} exceeds ceiling {arith.MAX_SIEVE}"]
    assert captured.out == ""


@pytest.mark.parametrize("argv,n", [
    (["--n", "30030", "--alpha", "3000"], 30030),  # (log 13)^2995 overflows
    (["--n", "9", "--alpha", "950"], 9),  # finite factors, an infinite product
    (["--n-max", "10", "--alpha", "3000"], 4),  # 2^3000 - 1 does not convert to float
    (["--n-max", "9", "--alpha", "950"], 8),
])
def test_von_mangoldt_past_the_float_range_exits_one(argv, n, capsys):
    assert run(["von-mangoldt", *argv, "--stdout"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: von Mangoldt value at n={n}, alpha={argv[-1]} overflows float64"]
    assert captured.out == ""


def test_von_mangoldt_past_the_run_ceiling_exits_one(capsys):
    # 8167696 compositions took about 44 s to sum: refused before the first value
    t0 = time.perf_counter()
    assert run(["von-mangoldt", "--alpha", "25", "--n-max", "20000", "--stdout"]) == 1
    assert time.perf_counter() - t0 < 5.0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: von Mangoldt values for n <= 20000, alpha=25 sum 8167696 compositions, "
        f"past the run ceiling {condition.MAX_RUN_COMPOSITIONS}"]
    assert captured.out == ""


def test_von_mangoldt_past_the_composition_ceiling_exits_one(capsys):
    assert run(["von-mangoldt", "--n", "30030", "--alpha", "40", "--stdout"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: von Mangoldt value at n=30030, alpha=40 sums 575757 compositions, "
        f"past the ceiling {condition.MAX_COMPOSITIONS}"]
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["eval-kernel", "--kernel", "weight", "--s", "1e400"],
    ["eval-kernel", "--kernel", "ratio", "--s", "1e400"],
    ["eval-kernel", "--kernel", "series", "--s", "1e400"],
    ["eval-kernel", "--kernel", "series", "--s", "2", "--u", "2+1e400j"],
    ["gram", "--points", "1e400;2"],
    ["gram", "--kernel", "weight", "--points", "2;nan"]])
def test_non_finite_kernel_points_exit_one(argv, tmp_path, capsys):
    # at the parent: value 0 "certified", an OverflowError, or NaN/Infinity tokens
    cfg = write_config(tmp_path, "o.json", {"family": {"kind": "named", "name": "omega"}})
    assert run([*argv, "--config", cfg, "--stdout"]) == 1
    captured = capsys.readouterr()
    assert re.fullmatch(r"(config )?error: point \((inf|nan|2)\+(0|inf)j\) is not finite",
                        captured.err.splitlines()[-1])
    assert "Traceback" not in captured.err and captured.out == ""


def test_duplicate_methods_exit_one(omega_cfg, capsys):
    assert run(["check-condition", "--config", omega_cfg, "--stdout",
                "--methods", "divisor_sum,divisor_sum"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1] == (
        "error: need one or more distinct methods, got ['divisor_sum', 'divisor_sum']")
    assert captured.out == ""


# -- columnar check-condition reports -----------------------------------------

DPOW = {"kind": "named", "name": "divisor_pow", "parameters": {"alpha": 1}}
GEOM = {"kind": "named", "name": "geometric", "parameters": {"ratio": "1/2"}, "delta": 0.0}

# name: (config, flags, exit code, a token the report must contain)
REPORT_CASES = {
    "omega-exact": ({"family": {"kind": "named", "name": "omega"}, "n_max": 300,
                     "methods": ["divisor_sum", "additive_Tt"]}, ["--exact"], 0, '"value": 1,'),
    "divisor-pow-exact": ({"family": DPOW, "n_max": 300,
                           "methods": ["divisor_sum", "mult_product"]}, ["--exact"], 0, '"n": 1,'),
    "geometric-fraction": ({"family": GEOM, "n_max": 100,
                            "methods": ["divisor_sum", "mult_product"]}, [], 2, '"value": "-1/2"'),
    "float-delta": ({"family": DPOW, "n_max": 300, "delta": 0.5,
                     "methods": ["divisor_sum", "mult_product"]}, [], 2, '"margin": -'),
    "float-inconclusive": ({"family": {**DPOW, "parameters": {"alpha": 1.5}}, "n_max": 300,
                            "tol": 1e-18, "methods": ["divisor_sum", "mult_product"]},
                           [], 3, '"verdict": "inconclusive"'),
}


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("case", sorted(REPORT_CASES))
def test_check_condition_reports_match_reference_rendering(case, chunk, tmp_path, monkeypatch):
    cfg, flags, code, token = REPORT_CASES[case]
    reports = []
    check_range = condition.check_range
    monkeypatch.setattr(condition, "check_range",
                        lambda *a, **kw: reports.append(check_range(*a, **kw)) or reports[-1])
    if chunk:  # rows split across many column chunks
        monkeypatch.setattr(condition.ConditionReport, "render", functools.partialmethod(
            condition.ConditionReport.render, chunk=chunk))
    out = tmp_path / "rep"
    assert run(["check-condition", *flags, "--config", write_config(tmp_path, "c.json", cfg),
                "--out", str(out), "--no-timestamp"]) == code
    (report,) = reports
    text = (tmp_path / "rep.json").read_bytes().decode()
    assert token in text
    # the references never read the renderer: json.dumps and csv.writer over the records
    envelope = json.loads(text)
    envelope["result"] = {**report.to_json_dict(with_records=False), "records": [
        {"n": r.n, "value": condition._strict_json(r.value), "method": r.method,
         "verdict": r.verdict, "margin": r.margin} for r in report.records]}
    assert text == json.dumps(envelope, sort_keys=True, indent=2) + "\n"
    buf = io.StringIO()
    csv.writer(buf).writerows([condition.FIELDS, *(
        (r.n, r.value, r.method, r.verdict, r.margin) for r in report.records)])
    assert (tmp_path / "rep.csv").read_bytes().decode() == buf.getvalue()


def test_float_run_writes_the_n1_value_as_a_float(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"family": DPOW, "n_max": 20})
    assert run(["check-condition", "--float", "--config", cfg, "--no-timestamp", "--stdout"]) == 0
    text = capsys.readouterr().out
    first = json.loads(text)["result"]["records"][0]
    assert (first["n"], first["value"], type(first["value"])) == (1, 1.0, float)
    assert '"value": 1,' not in text


@pytest.mark.parametrize("family,k", [
    ({"kind": "named", "name": "omega"}, 3),
    ({"kind": "named", "name": "omega", "start_index": 3}, None),
])
def test_additive_route_off_k2_exits_one(family, k, tmp_path, capsys):
    cfg = {"family": family, "n_max": 50, "methods": ["divisor_sum", "additive_Tt"]}
    if k is not None:
        cfg["k"] = k
    assert run(["check-condition", "--exact", "--config",
                write_config(tmp_path, "c.json", cfg), "--stdout"]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("error: additive_Tt")
    assert "Traceback" not in err


def test_exact_disagreement_exits_three(omega_cfg, capsys, monkeypatch):
    factored = condition._factored

    def corrupted(*args):
        col = factored(*args)
        col[7] += 1
        return col

    monkeypatch.setattr(condition, "_factored", corrupted)
    assert run(["check-condition", "--exact", "--config", omega_cfg, "--stdout"]) == 3
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1].startswith("error: exact methods disagree at n=7")
    assert captured.out == ""


def test_top_level_delta_accepts_rational_string(tmp_path, capsys):
    cfg = {"family": {"kind": "named", "name": "omega"}, "n_max": 50, "delta": "1/2"}
    path = write_config(tmp_path, "c.json", cfg)
    assert run(["check-condition", "--config", path, "--no-timestamp", "--stdout"]) == 2
    result = json.loads(capsys.readouterr().out)["result"]
    assert (result["delta"], result["mode"], result["verdict"]) == (0.5, "float", "negative_certified")
    cfg["delta"] = "1/0"
    path = write_config(tmp_path, "bad.json", cfg)
    assert run(["check-condition", "--config", path]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == "error: expected a number, got '1/0'"


def test_classify_explicit_clamps_n_max(tmp_path, capsys):
    cfg = write_config(tmp_path, "e.json", {"family": {
        "kind": "explicit", "values": ["1", "2", "3", "4", "5"], "start_index": 2,
        "sigma": 1.0, "delta": 0.0, "growth_bound": [5.0, 0.0]}})
    assert run(["classify", "--config", cfg, "--no-timestamp", "--stdout"]) == 0
    sample = json.loads(capsys.readouterr().out)["result"]["condition_sample"]
    assert (sample["n_max"], sample["clamped_from"]) == (6, 2000)
    assert sample["counts"] == {"nonneg_exact": 5}


def test_python_dash_m_runs_the_cli():
    src = str(Path(dirweight.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "dirweight", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert "check-condition" in proc.stdout


# -- values past the float range ----------------------------------------------

# every f(p, r) = (r + 1)^350.5 with r <= 5 is finite, but the products at
# d(n) >= 8 overflow to inf, and inf - inf gives NaN values of S(n)
OVERFLOWING = {"kind": "named", "name": "divisor_pow", "parameters": {"alpha": "701/2"}}
# f(2, 5) = 6^400.5 is past the float range
PAST_FLOAT = {"kind": "named", "name": "divisor_pow", "parameters": {"alpha": "801/2"}}


def test_non_finite_condition_values_are_inconclusive(tmp_path, capsys):
    # numpy's overflow and inf - inf warn nothing: the values are inconclusive
    cfg = write_config(tmp_path, "d.json", {"family": OVERFLOWING, "n_max": 50})
    out = str(tmp_path / "d")
    assert run(["check-condition", "--config", cfg, "--no-timestamp", "--stdout",
                "--out", out]) == 3
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "checking condition for divisor_pow(alpha=701/2) up to n = 50",
        f"wrote {out}.json", f"wrote {out}.csv", "verdict: inconclusive"]
    result = strict_loads(captured.out)["result"]
    values = [float(r["value"]) for r in result["records"]]  # "nan" and "inf" are strings
    assert (sum(map(math.isnan, values)), sum(map(math.isinf, values))) == (1, 5)
    assert result["counts"] == {"nonneg_within_tol": 44, "inconclusive": 6}
    assert all((r["verdict"] == "inconclusive") == (not math.isfinite(float(r["value"])))
               for r in result["records"])


def test_non_finite_kernel_values_are_inconclusive(tmp_path, capsys):
    cfg = write_config(tmp_path, "d.json", {"family": OVERFLOWING})
    common = ["--config", cfg, "--no-timestamp", "--stdout"]
    assert run(["eval-kernel", "--kernel", "weight", "--s", "300", *common]) == 3
    result = strict_loads(capsys.readouterr().out)["result"]
    assert (result["certified"], result["tail_bound"]) == (False, "inf")
    assert result["value"][0] == "nan"
    for route in ("weight", "series"):
        assert run(["gram", "--kernel", route, "--points", "300;301", *common]) == 3
        result = strict_loads(capsys.readouterr().out)["result"]
        assert result["verdict"] == "inconclusive" and result["min_eigenvalue"] == "nan"


# growth constants 2^2000 and 2^1999 are past the float range: +inf, so no
# kernel tail is certified, while the exact condition check is unaffected
@pytest.mark.parametrize("family", [
    {"kind": "named", "name": "divisor_pow", "parameters": {"alpha": 2000}},
    {"kind": "named", "name": "d_beta", "parameters": {"beta": 2000}}],
    ids=["divisor_pow", "d_beta"])
def test_growth_constant_past_the_float_range_is_infinite(family, tmp_path, capsys):
    cfg = write_config(tmp_path, "d.json", {"family": family, "n_max": 100})
    common = ["--config", cfg, "--no-timestamp", "--stdout"]
    assert run(["check-condition", *common]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["verdict"] == "nonneg_exact"
    assert run(["classify", *common]) == 0
    assert strict_loads(capsys.readouterr().out)["result"]["growth_bound"][0] == "inf"
    assert run(["eval-kernel", "--kernel", "weight", "--s", "600", *common]) == 3
    result = json.loads(capsys.readouterr().out)["result"]
    assert (result["certified"], result["tail_bound"]) == (False, "inf")


@pytest.mark.parametrize("argv", [
    ["classify"], ["check-condition", "--methods", "mult_product"],
    ["check-condition", "--methods", "divisor_sum"], ["eval-kernel", "--s", "300"],
    ["gram", "--points", "300;301"]])
def test_prime_power_past_the_float_range_exits_one(argv, tmp_path, capsys):
    cfg = write_config(tmp_path, "d.json", {"family": PAST_FLOAT, "n_max": 50})
    assert run([*argv, "--config", cfg, "--stdout"]) == 1
    captured = capsys.readouterr()
    # eval-kernel reports a family that cannot evaluate as a config error
    assert re.fullmatch(r"(config )?error: prime-power value f\(2,5\) of "
                        r"divisor_pow\(alpha=801/2\) is past the float range",
                        captured.err.splitlines()[-1])
    assert captured.out == ""


# f(2, 5) = 6^400 > 2^1024: exact runs keep it, float runs read inf
EXACT_PAST_FLOAT = {"kind": "named", "name": "divisor_pow", "parameters": {"alpha": 400}}
# w_n = 10^400 n past n = 1: S(n) = 10^400 (phi(n) - mu(n)) + mu(n) > 0
EXPLICIT_PAST_FLOAT = {"kind": "explicit", "values": ["1", *(f"{j}e400" for j in range(2, 41))],
                       "start_index": 1, "sigma": 1.0, "delta": 0.0, "growth_bound": [1e300, 0.0]}


@pytest.mark.parametrize("family,argv,code,verdict", [
    (EXACT_PAST_FLOAT, ["check-condition"], 0, "nonneg_exact"),
    (EXACT_PAST_FLOAT, ["check-condition", "--methods", "divisor_sum,mult_product"], 0,
     "nonneg_exact"),
    (EXACT_PAST_FLOAT, ["check-condition", "--float"], 3, "inconclusive"),
    (EXACT_PAST_FLOAT, ["classify"], 0, None),
    (EXACT_PAST_FLOAT, ["gram", "--kernel", "weight", "--points", "300"], 3, "inconclusive"),
    (EXPLICIT_PAST_FLOAT, ["check-condition"], 0, "nonneg_exact"),
    (EXPLICIT_PAST_FLOAT, ["check-condition", "--float"], 3, "inconclusive"),
    (EXPLICIT_PAST_FLOAT, ["classify"], 0, None),
], ids=["exact", "exact-factored", "float", "classify", "gram", "explicit-exact",
        "explicit-float", "explicit-classify"])
def test_exact_weights_past_the_float_range_read_inf(family, argv, code, verdict, tmp_path,
                                                     capsys):
    cfg = write_config(tmp_path, "d.json", {"family": family, "n_max": 40})
    assert run([*argv, "--config", cfg, "--no-timestamp", "--stdout"]) == code
    result = strict_loads(capsys.readouterr().out)["result"]
    if argv[0] == "classify":
        sample = result["condition_sample"]
        assert sample["verdict"] == "nonneg_exact" and "direct condition route" in result[
            "applicable_routes"]
        return
    assert result["verdict"] == verdict
    if argv[0] == "gram":
        assert result["min_eigenvalue"] == "nan"
        return
    margins = [r["margin"] for r in result["records"]]
    assert "inf" in margins and "-inf" not in margins
    if verdict == "nonneg_exact":  # the Python-int routes: +inf margins, exact values
        assert all(r["verdict"] == "nonneg_exact" for r in result["records"])
        assert any(isinstance(r["value"], int) and r["value"] > 2**1024
                   for r in result["records"])
    else:
        assert all((r["verdict"] == "inconclusive") == (not math.isfinite(float(r["value"])))
                   for r in result["records"])


@pytest.mark.parametrize("argv,family", [
    (["check-condition", "--delta", "-200", "--n-max", "100"], {"kind": "named", "name": "omega"}),
    (["check-condition", "--methods", "divisor_sum,mult_product", "--n-max", "40"],
     EXACT_PAST_FLOAT),
    (["classify", "--n-max", "100"],
     {"kind": "named", "name": "d_beta", "parameters": {"beta": 2000}}),
    (["gram", "--points", "300;301"], OVERFLOWING),
    (["eval-kernel", "--s", "300"], OVERFLOWING),
    (["von-mangoldt", "--n-max", "50"], None),
], ids=["check-condition", "check-condition-exact", "classify", "gram", "eval-kernel",
        "von-mangoldt"])
def test_every_report_is_strict_json(argv, family, tmp_path):
    # a float that is not finite is the string "inf", "-inf" or "nan" in JSON; the
    # CSV keeps inf and nan
    cfg = write_config(tmp_path, "c.json", {} if family is None else {"family": family})
    out = tmp_path / "rep"
    run([*argv, "--config", cfg, "--no-timestamp", "--out", str(out)])
    text = (tmp_path / "rep.json").read_text()
    report = strict_loads(text)
    assert report["command"] == argv[0]
    if family is not None:
        assert '"inf"' in text or '"nan"' in text
    if argv[0] == "check-condition":
        rows = list(csv.reader((tmp_path / "rep.csv").read_text().splitlines()))
        assert any(row[4] in ("inf", "nan") for row in rows[1:])


def test_gram_on_the_default_grid_with_inf_weights_is_inconclusive(tmp_path, capsys):
    # d(n)^400 is inf past d(n) = 6: the matrix is not finite, so no eigen step
    cfg = write_config(tmp_path, "d.json", {"family": EXACT_PAST_FLOAT, "kernel": "series"})
    assert run(["gram", "--config", cfg, "--no-timestamp", "--stdout"]) == 3
    result = strict_loads(capsys.readouterr().out)["result"]
    assert result["verdict"] == "inconclusive" and result["min_eigenvalue"] == "nan"


@pytest.mark.parametrize("name,key,value,message", [
    ("divisor_pow", "alpha", "1e400", "number too large for a float: '1e400'"),
    ("divisor_pow", "alpha", math.nan, "expected a finite number, got nan"),
    ("divisor_pow", "alpha", math.inf, "expected a finite number, got inf"),
    ("d_beta", "beta", math.nan, "expected a finite number, got nan"),
    ("d_beta", "beta", "1e400", "number too large for a float: '1e400'"),
    ("geometric", "ratio", math.nan, "expected a finite number, got nan"),
    ("geometric", "ratio", -math.inf, "expected a finite number, got -inf"),
    ("geometric", "ratio", "1e-400", "geometric ratio must be a positive float, got 0.0"),
    ("log_pow", "alpha", "1e400", "number too large for a float: '1e400'"),
    ("log_pow", "alpha", math.inf, "expected a finite number, got inf"),
])
def test_named_family_parameters_are_finite_floats(name, key, value, message, tmp_path,
                                                   capsys):
    # JSON NaN and Infinity once ran (exit 3) or failed with a traceback
    family = {"kind": "named", "name": name, "parameters": {key: value}}
    cfg = write_config(tmp_path, "p.json", {"family": family, "n_max": 20})
    assert run(["check-condition", "--config", cfg, "--stdout"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"config error: {key}: {message}"]
    assert captured.out == ""


# -- smallest inputs ----------------------------------------------------------


@pytest.mark.parametrize("n_max", [1, 2, 3])
def test_classify_at_the_smallest_n_max_ends(n_max, tmp_path):
    # in a subprocess with a timeout: a run at these n_max must end
    cfg = write_config(tmp_path, "ones.json", {"family": {"kind": "named", "name": "ones"}})
    src = str(Path(dirweight.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "dirweight", "classify", "--config", cfg,
                           "--n-max", str(n_max), "--no-timestamp", "--stdout"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["result"]
    assert result["condition_sample"] == {"n_max": n_max, "delta": 0.0, "verdict": "nonneg_exact",
                                          "counts": {"nonneg_exact": n_max}}


@pytest.mark.parametrize("n_points", [0, -3, 65])
def test_gram_rejects_n_points_outside_its_range(n_points, tmp_path, capsys):
    cfg = write_config(tmp_path, "ones.json", {"family": {"kind": "named", "name": "ones"}})
    assert run(["gram", "--config", cfg, "--n-points", str(n_points), "--stdout"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1] == (
        f"error: need between 1 and 64 points, got n_points = {n_points}")
    assert captured.out == ""


# -- README -------------------------------------------------------------------


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    # every command of the bash block under "## CLI", heredocs included
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("\n```", 1)[0]
    monkeypatch.chdir(tmp_path)
    lines, ran = iter(block.splitlines()), []
    for line in lines:
        if heredoc := re.fullmatch(r"cat > (\S+) <<'(\w+)'", line):
            path, end = heredoc.groups()
            (tmp_path / path).write_text("".join(f"{body}\n" for body in iter(lines.__next__, end)))
        elif line.strip():
            argv = shlex.split(line)
            assert argv[0] == "dirweight", line
            assert run(argv[1:]) == 0, line
            ran.append(argv[1])
    assert ran
