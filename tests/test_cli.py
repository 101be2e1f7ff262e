import csv
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
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


@pytest.mark.parametrize("alpha", [400, 120])
def test_large_gamma_alpha_exits_one(alpha, tmp_path, capsys):
    cfg = write_config(tmp_path, "g.json", {
        "family": {"kind": "measure", "spec": {"type": "gamma_density", "alpha": alpha}},
    })
    assert run(["eval-kernel", "--config", cfg, "--s", "2.0", "--stdout"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"config error: the gamma-density quadrature needs 0.0001 <= alpha <= 44, got {alpha}.0"]
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
        {"n": r.n, "value": condition._scalar_json(r.value), "method": r.method,
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

# d(n)^400.5 overflows to inf at d(n) >= 6, and inf - inf gives NaN values of S(n)
OVERFLOWING = {"kind": "named", "name": "divisor_pow", "parameters": {"alpha": "801/2"}}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow and inf - inf
def test_non_finite_condition_values_are_inconclusive(tmp_path, capsys):
    cfg = write_config(tmp_path, "d.json", {"family": OVERFLOWING, "n_max": 50})
    assert run(["check-condition", "--config", cfg, "--no-timestamp", "--stdout"]) == 3
    result = json.loads(capsys.readouterr().out)["result"]
    values = [r["value"] for r in result["records"]]
    assert (sum(map(math.isnan, values)), sum(map(math.isinf, values))) == (4, 10)
    assert result["counts"] == {"nonneg_within_tol": 36, "inconclusive": 14}
    assert all((r["verdict"] == "inconclusive") == (not math.isfinite(r["value"]))
               for r in result["records"])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_kernel_values_are_inconclusive(tmp_path, capsys):
    cfg = write_config(tmp_path, "d.json", {"family": OVERFLOWING})
    common = ["--config", cfg, "--no-timestamp", "--stdout"]
    assert run(["eval-kernel", "--kernel", "weight", "--s", "300", *common]) == 3
    result = json.loads(capsys.readouterr().out)["result"]
    assert (result["certified"], result["tail_bound"]) == (False, "inf")
    assert math.isnan(result["value"][0])
    for route in ("weight", "series"):
        assert run(["gram", "--kernel", route, "--points", "300;301", *common]) == 3
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["verdict"] == "inconclusive" and math.isnan(result["min_eigenvalue"])


@pytest.mark.parametrize("argv", [["classify"], ["check-condition", "--methods", "mult_product"]])
def test_prime_power_past_the_float_range_exits_one(argv, tmp_path, capsys):
    cfg = write_config(tmp_path, "d.json", {"family": OVERFLOWING, "n_max": 50})
    assert run([*argv, "--config", cfg, "--stdout"]) == 1
    captured = capsys.readouterr()
    assert re.fullmatch(r"error: prime-power value f\(\d+,\d+\) of divisor_pow\(alpha=801/2\) "
                        r"is past the float range", captured.err.splitlines()[-1])
    assert captured.out == ""


# -- smallest inputs ----------------------------------------------------------


@pytest.mark.parametrize("n_max", [1, 2, 3])
def test_classify_at_the_smallest_n_max_ends(n_max, tmp_path):
    # in a subprocess with a timeout: a structural audit without a coprime pair never ends
    cfg = write_config(tmp_path, "ones.json", {"family": {"kind": "named", "name": "ones"}})
    src = str(Path(dirweight.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "dirweight", "classify", "--config", cfg,
                           "--n-max", str(n_max), "--no-timestamp", "--stdout"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["result"]
    assert result["multiplicative_law_sampled"]
    assert result["condition_sample"] == {"n_max": n_max, "verdict": "nonneg_exact",
                                          "counts": {"nonneg_exact": n_max}}


@pytest.mark.parametrize("n_points", [0, -3, 65])
def test_gram_rejects_n_points_outside_its_range(n_points, tmp_path, capsys):
    cfg = write_config(tmp_path, "ones.json", {"family": {"kind": "named", "name": "ones"}})
    assert run(["gram", "--config", cfg, "--n-points", str(n_points), "--stdout"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1] == (
        f"error: need between 1 and 64 points, got n_points = {n_points}")
    assert captured.out == ""
