import argparse
import csv
import functools
import gc
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import dirweight
from dirweight import arith, cli, condition, weights


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
                    "parameters": {"ratio": "1/2"}},
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
    out = str(tmp_path / "neg_report")
    assert run(["check-condition", "--config", negctrl_cfg, "--out", out]) == 2
    report = json.loads((tmp_path / "neg_report.json").read_text())
    result = report["result"]
    assert (result["mode"], result["verdict"]) == ("exact", "negative_certified")


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


USAGE_ERRORS = [  # argv, the parser that refuses it, and its message where it names a flag
    (["check-condition", "--bogus"], "dirweight check-condition",
     "unrecognized arguments: --bogus"),
    (["check-condition", "--delta", "abc"], "dirweight check-condition", None),
    (["check-condition", "--n-max", "ten"], "dirweight check-condition", None),
    (["gram", "--kernel", "nope"], "dirweight gram", None),
    # von-mangoldt reads no family, so no delta or tol: both were once accepted and embedded
    (["von-mangoldt", "--n", "12", "--delta", "0.5"], "dirweight von-mangoldt",
     "unrecognized arguments: --delta 0.5"),
    (["von-mangoldt", "--n", "12", "--tol", "5"], "dirweight von-mangoldt",
     "unrecognized arguments: --tol 5"),
    # a flag the subcommand does not take is refused by its own parser, which names it, and
    # one before the subcommand by the top-level parser
    (["gram", "--bogus", "1"], "dirweight gram", "unrecognized arguments: --bogus 1"),
    (["--stdout", "classify"], "dirweight", "unrecognized arguments: --stdout"),
]


@pytest.mark.parametrize("argv,prog,error", USAGE_ERRORS,
                         ids=[f"argv{i}" for i in range(len(USAGE_ERRORS))])
def test_usage_errors_exit_one(argv, prog, error, capsys):
    # exit 2 is reserved for a certified violation
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: {prog} ")
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert error is None or errors == [f"{prog}: error: {error}"]


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
     "config error: tol: expected a finite number > 0, got -1.0"),
    # nan switched the agreement check off
    (["check-condition", "--float", "--methods", "divisor_sum,additive_Tt", "--tol", "nan"], {},
     "config error: tol: expected a finite number > 0, got nan"),
    # the quotient route certified tol = 0, the other two routes did not
    (["eval-kernel", "--kernel", "ratio", "--s", "2.0", "--tol", "0"], {},
     "config error: tol: expected a finite number > 0, got 0.0"),
    (["gram", "--kernel", "weight", "--points", "2.0"], {"tol": None},
     "config error: tol: expected a number, got None"),
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
    ("check-condition", {"family": {**MEASURE, "n0": None}}, "n0: expected a number, got None"),
    ("check-condition", {"family": {**MEASURE, "n0": 2.5}}, "n0: expected an integer, got 2.5"),
    ("check-condition", {"family": {**OMEGA, "start_index": True}},
     "start_index: expected a number, got True"),
    ("check-condition", {"family": {
        "kind": "explicit", "values": [1, 2], "start_index": 1.5, "sigma": 1.0,
        "delta": 0.0, "growth_bound": [2.0, 0.0]}}, "start_index: expected an integer, got 1.5"),
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


EXPLICIT = {"kind": "explicit", "values": [1, 2, 3], "start_index": 2, "sigma": 1.0,
            "delta": 0.0, "growth_bound": [2, 1]}


@pytest.mark.parametrize("family,message", [
    ({**OMEGA, "parameters": []}, "parameters: expected an object, got []"),
    ({**OMEGA, "parameters": 5}, "parameters: expected an object, got 5"),
    ({**OMEGA, "name": ["omega"]}, "name: expected a family name, got ['omega']"),
    ({**EXPLICIT, "values": "123"}, "values: expected a list of numbers, got '123'"),
    ({**EXPLICIT, "growth_bound": "35"}, "growth_bound: expected a pair [c, tau], got '35'"),
    ({**EXPLICIT, "growth_bound": [1]}, "growth_bound: expected a pair [c, tau], got [1]"),
    ({**EXPLICIT, "growth_bound": [2, "1/2"]}, None),  # config scalars, as everywhere else
    # a bad entry is named by its index
    ({**EXPLICIT, "values": [1, "x"]}, "values[1]: expected a number, got 'x'"),
    ({**EXPLICIT, "values": [True, 2, 3]}, "values[0]: expected a number, got True"),
    ({**EXPLICIT, "values": [1, 2, None]}, "values[2]: expected a number, got None"),
    ({**EXPLICIT, "growth_bound": [1, "x"]}, "growth_bound[1]: expected a number, got 'x'"),
    ({**EXPLICIT, "growth_bound": ["1/0", 1]}, "growth_bound[0]: expected a number, got '1/0'"),
    ({**EXPLICIT, "growth_bound": [2, "1e400"]},
     "growth_bound[1]: number too large for a float: '1e400'"),
])
def test_family_configs_of_the_wrong_shape_are_config_errors(family, message, tmp_path, capsys):
    # these once ended in a traceback, or read "123" as [1, 2, 3] and "35" as (3.0, 5.0)
    path = write_config(tmp_path, "c.json", {"family": family, "n_max": 4})
    code = run(["classify", "--config", path, "--no-timestamp", "--stdout"])
    captured = capsys.readouterr()
    if message is None:
        assert code == 0 and json.loads(captured.out)["result"]["growth_bound"] == [2.0, 0.5]
    else:
        assert code == 1 and captured.out == ""
        assert captured.err.splitlines() == [f"config error: {message}"]


DISCRETE = {"kind": "measure", "spec": {"type": "discrete", "atoms": [[0.0, 1.0], [0.5, 1.0]]}}
# named and measure families take sigma and delta from their definition: the cases of a bad
# sigma or delta that once ran on them run on explicit families, none repeating a case
RATIONAL = {**EXPLICIT, "values": ["1", "1/2", "1/3"], "start_index": 1}


@pytest.mark.parametrize("family,message", [
    ({**RATIONAL, "sigma": "x"}, "sigma: expected a number, got 'x'"),
    ({**EXPLICIT, "delta": "d"}, "delta: expected a number, got 'd'"),
    ({**OMEGA, "start_index": "x"}, "start_index: expected a number, got 'x'"),
    ({**EXPLICIT, "sigma": "x"}, "sigma: expected a number, got 'x'"),
    ({**EXPLICIT, "delta": None}, "delta: expected a number, got None"),
    ({**EXPLICIT, "start_index": "x"}, "start_index: expected a number, got 'x'"),
    ({**MEASURE, "n0": "x"}, "n0: expected a number, got 'x'"),
    ({**EXPLICIT, "values": [1.5, 2.5, 3.5], "sigma": "x"}, "sigma: expected a number, got 'x'"),
    ({**EXPLICIT, "delta": "1/0"}, "delta: expected a number, got '1/0'"),
    ({**MEASURE, "spec": {"type": "gamma_density", "alpha": "x"}},
     "spec.alpha: expected a number, got 'x'"),
    ({**DISCRETE, "spec": {"type": "discrete", "atoms": [[0.5, "m"]]}},
     "spec.atoms[0][1]: expected a number, got 'm'"),
    ({**DISCRETE, "spec": {"type": "discrete", "atoms": [[0.0, 1.0], [True, 1.0]]}},
     "spec.atoms[1][0]: expected a number, got True"),
    ({**DISCRETE, "spec": {"type": "discrete", "atoms": [["1e400", 1.0]]}},
     "spec.atoms[0][0]: number too large for a float: '1e400'"),
    # a declaration out of range once passed the config, then ran or failed unkeyed
    ({**EXPLICIT, "delta": math.nan}, "delta: expected a finite number, got nan"),
    ({**EXPLICIT, "sigma": math.nan}, "sigma: expected a finite number, got nan"),
    ({**OMEGA, "start_index": 0}, "start_index: expected an integer >= 1, got 0"),
    ({**EXPLICIT, "delta": -math.inf}, "delta: expected a finite number, got -inf"),
    ({**EXPLICIT, "growth_bound": [math.nan, 0]},
     "growth_bound: expected c >= 0 and a finite tau, got [nan, 0.0]"),
    ({**EXPLICIT, "growth_bound": [1, math.nan]},
     "growth_bound: expected c >= 0 and a finite tau, got [1.0, nan]"),
    ({**RATIONAL, "delta": math.nan}, "delta: expected a finite number, got nan"),
    ({**EXPLICIT, "sigma": math.inf}, "sigma: expected a finite number, got inf"),
    # null is not a number
    ({**EXPLICIT, "sigma": None}, "sigma: expected a number, got None"),
    ({**RATIONAL, "delta": None}, "delta: expected a number, got None"),
    # 2 * position is w_n's exponent and delta_w: it once overflowed the growth bound's tau
    ({**DISCRETE, "spec": {"type": "discrete", "atoms": [[1e308, 1.0]]}},
     "spec.atoms[0][0]: atom position 1e+308 must be finite and >= 0, with 2 * position finite"),
    # a bad mass was once named by no key
    *(({**DISCRETE, "spec": {"type": "discrete", "atoms": [[0.5, m]]}},
       f"spec.atoms[0][1]: atom mass {m!r} must be finite and positive")
      for m in (0, -1, 1e400, math.nan)),
    # sigma and delta come from a named or measure family's definition
    ({**OMEGA, "sigma": 1.0}, "unknown family config keys: ['sigma']"),
    ({**MEASURE, "delta": 0.0}, "unknown family config keys: ['delta']"),
    ({**DISCRETE, "sigma": 2.0, "delta": 1.0}, "unknown family config keys: ['delta', 'sigma']"),
    # a nonpositive alpha was once named by no key
    ({**MEASURE, "spec": {"type": "gamma_density", "alpha": -1}},
     "spec.alpha: gamma density needs a finite alpha > 0, got -1.0"),
])
def test_a_bad_family_scalar_names_its_key(family, message, tmp_path, capsys):
    path = write_config(tmp_path, "c.json", {"family": family, "n_max": 4})
    assert run(["classify", "--config", path, "--no-timestamp", "--stdout"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [f"config error: {message}"]


@pytest.mark.parametrize("atoms", [[[600, 1.0]], [[1, 1e-308]]])  # w_2 = 2^1200, 4e308
@pytest.mark.parametrize("argv", [["check-condition"], ["classify"], ["gram"],
                                  ["eval-kernel", "--s", "2"]])
def test_a_measure_with_no_finite_first_weight_is_a_config_error(atoms, argv, tmp_path, capsys):
    # these once printed the progress line, then an error that named no key
    family = {"kind": "measure", "spec": {"type": "discrete", "atoms": atoms}}
    cfg = write_config(tmp_path, "c.json", {"family": family, "n_max": 4})
    out = tmp_path / "rep"
    assert run([*argv, "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [
        "config error: spec: measure-induced weight at n=2 is inf; no weight defined"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


# the top-level config keys each subcommand reads
READS = {
    "check-condition": ["family", "delta", "k", "n_max", "methods", "tol", "mode", "out",
                        "timestamp"],
    "classify": ["family", "delta", "n_max", "tol", "out", "timestamp"],
    "gram": ["family", "delta", "kernel", "tol", "grid", "out", "timestamp"],
    "eval-kernel": ["family", "delta", "kernel", "tol", "s", "u", "out", "timestamp"],
    "von-mangoldt": ["alpha", "n", "n_max", "out", "timestamp"],
}
BAD_VALUES = [
    ("family", 5), ("delta", "1/0"), ("delta", math.inf), ("k", 2.5), ("n_max", 1.5), ("methods", "divisor_sum"),
    ("tol", None), ("tol", 0), ("mode", [1]), ("kernel", 5), ("grid", [2.0]), ("alpha", True),
    ("n", 6.5), ("s", [2.0]), ("u", None), ("out", [1]), ("out", ""), ("timestamp", "no"),
    # integers out of range once failed unkeyed, the first three after the progress line
    ("k", 0), ("n_max", 0), ("grid", {"n_points": 0}), ("alpha", 0), ("n", 1),
]


def test_every_config_key_has_a_bad_value_and_a_reader():
    assert {key for key, _ in BAD_VALUES} == set().union(*READS.values()) == set(cli._READERS)


def test_every_flag_sets_a_key_its_subcommand_reads():
    # von-mangoldt once took --delta and --tol, and embedded both in its report unread
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    for command, parser in subparsers.choices.items():
        for action in parser._actions:
            if action.option_strings and action.dest not in ("help", "config", "stdout"):
                key = "grid" if action.dest == "n_points" else action.dest
                assert key in READS[command], (command, action.option_strings)


@pytest.mark.parametrize("command,key,value", [
    pytest.param(command, key, value, id=f"{command}-{key}={json.dumps(value)}")
    for key, value in BAD_VALUES for command, keys in READS.items() if key in keys])
def test_a_bad_value_of_any_key_is_one_keyed_config_error(command, key, value, tmp_path,
                                                          monkeypatch, capsys):
    # at the parent "out": [1] wrote [1].json, "out": "" and "timestamp": "no" exited 0,
    # "kernel": 5 failed inside the kernel, "delta": "1/0" and "tol": null were unkeyed,
    # and "delta": Infinity certified omega's condition and a Gram matrix of zeros
    monkeypatch.chdir(tmp_path)
    cfg = {"family": OMEGA, **({"s": [2.0, 0.0]} if command == "eval-kernel" else {}),
           key: value}
    path = write_config(tmp_path, "c.json", cfg)
    assert run([command, "--config", path]) == 1
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1
    # a bad entry of an object names its own key, as n_points does in grid
    assert captured.err.startswith(f"config error: {next(iter(value), key)}: "
                                   if isinstance(value, dict) else f"config error: {key}: ")
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


def test_n_points_flag_over_a_grid_that_is_no_object_is_a_config_error(tmp_path, capsys):
    # at the parent --n-points indexed the list [2.0] and ended in a traceback
    path = write_config(tmp_path, "c.json", {"family": OMEGA, "grid": [2.0]})
    assert run(["gram", "--config", path, "--n-points", "3", "--stdout"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["config error: grid: expected an object, got [2.0]"]
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


@pytest.mark.parametrize("config,out,argv", [
    ("omega.json", None, ["--out", "{dir}/omega"]),
    ("condition_report.json", None, []),  # the default prefix
    ("omega.csv", None, ["--out", "{dir}/omega"]),  # the CSV projection
    ("omega.json", None, ["--out", "{dir}/sub/../omega", "--stdout"]),
    ("omega.json", "omega", []),  # a report's embedded config, rerun
], ids=["out", "default", "csv", "same-file", "config-out"])
def test_a_report_never_overwrites_its_config(config, out, argv, tmp_path, monkeypatch, capsys):
    # the run is refused before any work: --out omega once replaced omega.json by its report
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    text = json.dumps({"family": {"kind": "named", "name": "omega"}, "n_max": 300,
                       **({} if out is None else {"out": out})})
    (tmp_path / config).write_text(text)
    argv = [arg.format(dir=tmp_path) for arg in argv]
    assert run(["check-condition", "--config", config, "--no-timestamp", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith("config error: the report ")
    assert captured.err.rstrip().endswith(f"would overwrite the config {config}")
    assert (tmp_path / config).read_text() == text
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([config, "sub"])


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


@pytest.mark.parametrize("family,delta", [
    ({"kind": "named", "name": "geometric", "parameters": {"ratio": "1/2"}}, 0.0),
    ({"kind": "measure", "spec": {"type": "discrete", "atoms": [[0.5, 1]]}}, 1.0),  # w_n = n
    ({"kind": "explicit", "values": [1, 2, 3], "start_index": 2, "sigma": 1.0, "delta": 0.0,
      "growth_bound": [2, 1]}, 0.0),
], ids=["geometric", "discrete", "explicit"])
def test_classify_reports_the_family_delta(family, delta, tmp_path, capsys):
    # a named or measure family's delta is its delta_w, and the condition sample runs at it
    cfg = write_config(tmp_path, "f.json", {"family": family, "n_max": 4})
    assert run(["classify", "--config", cfg, "--no-timestamp", "--stdout"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert (result["delta"], result["condition_sample"]["delta"]) == (delta, delta)
    assert not {"delta_w", "smooth_sum_diagnostic"} & set(result)


def test_classify_lists_no_product_route_for_the_negative_control(negctrl_cfg, capsys):
    # at the delta geometric(1/2) once declared, -1, its growth check passed
    assert run(["classify", "--config", negctrl_cfg, "--n-max", "50", "--no-timestamp"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["growth_check"]["first_violation"] == [2, 1, -0.5]
    assert "multiplicative product route" not in result["applicable_routes"]


def test_classify_checks_the_one_plus_base_at_the_run_tol(tmp_path, capsys):
    # w_p - w_1 = -1e-12 of the base is within the default tol, not within 1e-15
    base = {"kind": "named", "name": "geometric", "parameters": {"ratio": 0.999999999999}}
    cfg = write_config(tmp_path, "f.json", {
        "family": {"kind": "named", "name": "one_plus", "parameters": {"base": base}},
        "n_max": 50, "tol": 1e-15})
    assert run(["classify", "--config", cfg, "--no-timestamp", "--stdout"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["condition_sample"]["verdict"] == "negative_certified"
    assert result["one_plus_base"]["prime_power_values_increasing"] is False
    assert result["applicable_routes"] == []


@pytest.mark.parametrize("family,method", [
    ({"kind": "named", "name": "omega", "start_index": 3}, "additive_Tt"),
    ({"kind": "named", "name": "geometric", "parameters": {"ratio": 1}, "start_index": 2},
     "mult_product")],
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
    # --kernel is checked by argparse, the config value by its reader
    cfg = write_config(tmp_path, "k.json", {"family": {"kind": "named", "name": "omega"},
                                            "kernel": "bogus"})
    assert run(["eval-kernel", "--config", cfg, "--s", "2.0"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "config error: kernel: expected weight/ratio/series, got 'bogus'"]
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
    (["--n", "30030", "--alpha", "3000"], 30030),  # (log 13)^2995 alone overflows
    (["--n", "9", "--alpha", "950"], 9),  # (2^950 - 1) (log 3)^950
    (["--n-max", "10", "--alpha", "3000"], 4),  # the least n past float64, not the first
    (["--n-max", "9", "--alpha", "950"], 9),  # Lambda_950(8) = 1.12e302 is finite
])
def test_von_mangoldt_past_the_float_range_exits_one(argv, n, capsys):
    assert run(["von-mangoldt", *argv, "--stdout"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: von Mangoldt value at n={n}, alpha={argv[-1]} overflows float64"]
    assert captured.out == ""


def test_von_mangoldt_past_the_run_ceiling_exits_one(capsys):
    # 21 steps of 10^6 + 5000 each are past the work ceiling: refused before any column
    t0 = time.perf_counter()
    assert run(["von-mangoldt", "--alpha", "21", "--n-max", "1000000", "--stdout"]) == 1
    assert time.perf_counter() - t0 < 5.0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: von Mangoldt values for n <= 1000000, alpha=21: work 21105000 "
        f"past the ceiling {condition.MAX_VON_MANGOLDT_WORK}"]
    assert captured.out == ""


def test_von_mangoldt_past_the_composition_ceiling_exits_one(capsys):
    # one value is bounded by the same work ceiling: 10^7 steps of 10 divisor
    # pairs and the fixed cost, refused before the first
    t0 = time.perf_counter()
    assert run(["von-mangoldt", "--n", "27", "--alpha", "10000000", "--stdout"]) == 1
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: von Mangoldt value at n=27, alpha=10000000: work 50100000000 "
        f"past the ceiling {condition.MAX_VON_MANGOLDT_WORK}"]
    assert captured.out == ""


def test_von_mangoldt_alpha_25_to_20000_exits_zero(tmp_path):
    # 24 convolutions of 2 * 10^4 terms; the values sum 8167696 compositions
    out = tmp_path / "lam25"
    assert run(["von-mangoldt", "--alpha", "25", "--n-max", "20000", "--no-timestamp",
                "--out", str(out)]) == 0
    values = [row["value"] for row in json.loads((tmp_path / "lam25.json").read_text())
              ["result"]["values"]]
    assert len(values) == 19999 and all(math.isfinite(v) and v > 0.0 for v in values)


def _assert_von_mangoldt_reference(out, alpha, rows):
    """The report files at out equal json.dumps of the envelope with rows [(n, value)]
    and the CSV written row by row: the references never read the renderer."""
    text = out.with_suffix(".json").read_bytes().decode()
    envelope = json.loads(text)
    values = [v for _, v in rows]
    envelope["result"] = {"alpha": alpha, "values": [{"n": n, "value": v} for n, v in rows],
                          "zero_count": values.count(0.0), "min_value": min(values, default=0.0)}
    assert text == json.dumps(envelope, sort_keys=True, indent=2) + "\n"
    assert out.with_suffix(".csv").read_bytes().decode() == "n,value\r\n" + "".join(
        f"{n},{v!r}\r\n" for n, v in rows)
    return text


@pytest.mark.parametrize("mode", ["default", "chunk", "stdout"])
@pytest.mark.parametrize("argv", [["--n-max", "1"], ["--n-max", "2"], ["--n-max", "12"],
                                  ["--n-max", "16384"], ["--n-max", "16385"],
                                  ["--n", "30030", "--alpha", "12"]], ids=" ".join)
def test_von_mangoldt_reports_match_reference_rendering(argv, mode, tmp_path, monkeypatch, capsys):
    if argv[0] == "--n":
        alpha, rows = 12, [(30030, condition.von_mangoldt_alpha(30030, 12))]
    else:
        n_max = int(argv[1])
        alpha, rows = 1, list(zip(range(2, n_max + 1),
                                  map(float, condition.von_mangoldt_range(n_max, 1))))
    if mode == "chunk":  # rows split across many column chunks
        monkeypatch.setattr(cli, "_value_rows", functools.partial(cli._value_rows, chunk=7))
    out = tmp_path / "lam"
    flags = ["--stdout"] if mode == "stdout" else []
    assert run(["von-mangoldt", *argv, *flags, "--no-timestamp", "--out", str(out)]) == 0
    text = _assert_von_mangoldt_reference(out, alpha, rows)
    assert capsys.readouterr().out == (text if flags else "")


def test_von_mangoldt_rows_land_in_the_result_past_an_empty_config_list(tmp_path):
    # the embedded config holds a second "values": [], before the result's
    family = {"kind": "explicit", "values": [], "start_index": 2}
    cfg = write_config(tmp_path, "c.json", {"family": family, "alpha": 2, "n_max": 300})
    out = tmp_path / "lam"
    assert run(["von-mangoldt", "--config", cfg, "--no-timestamp", "--out", str(out)]) == 0
    rows = list(zip(range(2, 301), map(float, condition.von_mangoldt_range(300, 2))))
    text = _assert_von_mangoldt_reference(out, 2, rows)
    assert json.loads(text)["config"]["family"] == family


def test_von_mangoldt_report_memory_is_the_columns_and_one_chunk(tmp_path):
    # 2 * 10^5 values: the float64 columns of the recurrence (1.5 MiB each) and
    # one chunk of row text, not a dict per row and the whole report as one string
    tracemalloc.start()
    try:
        assert cli.main(["von-mangoldt", "--alpha", "3", "--n-max", "200000", "--no-timestamp",
                         "--out", str(tmp_path / "lam")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20, peak


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


@pytest.mark.parametrize("methods,got", [
    ("divisor_sum,divisor_sum", "['divisor_sum', 'divisor_sum']"), ("foo", "['foo']"), (",", "[]"),
], ids=["duplicate", "unknown", "empty"])
def test_bad_methods_are_config_errors(omega_cfg, tmp_path, capsys, methods, got):
    # these once printed the progress line and then an unkeyed error, "foo" as a method
    # "not applicable" to omega
    out = tmp_path / "rep"
    assert run(["check-condition", "--config", omega_cfg, "--out", str(out),
                "--methods", methods]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "config error: methods: expected one or more distinct methods of "
        f"divisor_sum/mult_product/additive_Tt, got {got}"]
    assert captured.out == "" and list(tmp_path.glob("rep*")) == []


# -- columnar check-condition reports -----------------------------------------

DPOW = {"kind": "named", "name": "divisor_pow", "parameters": {"alpha": 1}}
GEOM = {"kind": "named", "name": "geometric", "parameters": {"ratio": "1/2"}}

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
    envelope["result"] = {**report.to_json_dict(), "records": [
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

    def corrupted(*args):  # S(7) off by one
        window, bound = factored(*args)
        return (lambda lo, hi: window(lo, hi) + (np.arange(lo, hi) == 7)), bound

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
    assert capsys.readouterr().err.splitlines() == [
        "config error: delta: expected a number, got '1/0'"]


def test_classify_explicit_clamps_n_max(tmp_path, capsys):
    cfg = write_config(tmp_path, "e.json", {"family": {
        "kind": "explicit", "values": ["1", "2", "3", "4", "5"], "start_index": 2,
        "sigma": 1.0, "delta": 0.0, "growth_bound": [5.0, 0.0]}})
    assert run(["classify", "--config", cfg, "--no-timestamp", "--stdout"]) == 0
    sample = json.loads(capsys.readouterr().out)["result"]["condition_sample"]
    assert (sample["n_max"], sample["clamped_from"]) == (6, 2000)
    assert sample["counts"] == {"nonneg_exact": 5}


def test_check_condition_refuses_n_max_past_an_explicit_family(tmp_path, monkeypatch, capsys):
    # once a progress line, then "error: explicit family has no value at n=6"
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, "e.json", {"family": {
        "kind": "explicit", "values": [1, 2, 3, 4, 5], "start_index": 1, "sigma": 1.0,
        "delta": 0.0, "growth_bound": [5.0, 1.0]}, "n_max": 20})
    assert run(["check-condition", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "config error: n_max: expected at most 5, the last index of explicit, got 20"]
    assert [p.name for p in tmp_path.iterdir()] == ["e.json"]


def _python(*args, **kwargs):
    """python args... with dirweight's sources on the path; the completed process."""
    src = str(Path(dirweight.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=60, **kwargs)


def test_python_dash_m_runs_the_cli():
    proc = _python("-m", "dirweight", "--help")
    assert proc.returncode == 0
    assert "check-condition" in proc.stdout


# -- the cyclic garbage collector ---------------------------------------------


@pytest.mark.parametrize("enabled", [True, False])
def test_importing_the_cli_leaves_the_collector_as_it_found_it(enabled):
    # atexit runs its handlers last in, first out: this one runs after the cli's
    proc = _python("-c", f"""if True:
        import atexit, gc
        atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count() > 0))
        gc.enable() if {enabled} else gc.disable()
        before = gc.isenabled(), gc.get_freeze_count()
        import dirweight
        print("library:", (gc.isenabled(), gc.get_freeze_count()) == before)
        import dirweight.cli
        print("cli:", (gc.isenabled(), gc.get_freeze_count()) == before)
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["library: True", "cli: True", "frozen at exit: True"]


def _von_mangoldt_raises(args):
    raise RuntimeError("subcommand failed")


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("outcome", [0, 1, RuntimeError])  # a report, a config error, a raise
def test_main_pauses_the_collector_and_restores_it(enabled, outcome, tmp_path, monkeypatch, capsys):
    argv = ["von-mangoldt", "--n", "12", "--stdout"]
    if outcome == 1:
        argv = ["von-mangoldt", "--config", write_config(tmp_path, "c.json", {"alpha": "x"})]
    seen = []
    subcommand = _von_mangoldt_raises if outcome is RuntimeError else cli.cmd_von_mangoldt
    monkeypatch.setattr(cli, "cmd_von_mangoldt",
                        lambda args: seen.append(gc.isenabled()) or subcommand(args))
    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        if outcome is RuntimeError:
            with pytest.raises(RuntimeError, match="subcommand failed"):
                run(argv)
        else:
            assert run(argv) == outcome
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()
    assert seen == [False]
    if outcome == 1:
        assert capsys.readouterr().err.splitlines() == [
            "config error: alpha: expected a number, got 'x'"]


def test_no_output_is_lost_at_shutdown(omega_cfg, tmp_path, monkeypatch, capsys):
    # the shutdown that skips the collection still writes every byte of every report
    argv = ["eval-kernel", "--config", omega_cfg, "--kernel", "weight", "--s", "2.5",
            "--no-timestamp", "--stdout"]
    proc = _python("-m", "dirweight", *argv)
    assert proc.returncode == 0, proc.stderr
    assert run(argv) == 0
    assert json.loads(proc.stdout)["result"]["certified"] is True
    assert proc.stdout == capsys.readouterr().out

    argv = ["check-condition", "--config", omega_cfg, "--n-max", "30000", "--no-timestamp",
            "--out", "report"]
    for where in ("sub", "in"):
        (tmp_path / where).mkdir()
    proc = _python("-m", "dirweight", *argv, cwd=tmp_path / "sub")
    assert proc.returncode == 0, proc.stderr
    monkeypatch.chdir(tmp_path / "in")
    assert run(argv) == 0
    for suffix in (".json", ".csv"):
        sub, ref = ((tmp_path / where / f"report{suffix}").read_bytes() for where in ("sub", "in"))
        assert len(ref) > 1_000_000 and sub == ref
    report = (tmp_path / "sub" / "report.json").read_text()
    assert json.loads(report)["result"]["verdict"] == "nonneg_exact" and report.endswith("}\n")


# -- values past the float range ----------------------------------------------

# every f(p, r) = (r + 1)^350.5 with r <= 5 is finite, but the products at
# d(n) >= 8 overflow to inf, and inf - inf gives NaN values of S(n)
OVERFLOWING = {"kind": "named", "name": "divisor_pow", "parameters": {"alpha": "701/2"}}
# f(2, 5) = 6^400.5 is past the float range
PAST_FLOAT = {"kind": "named", "name": "divisor_pow", "parameters": {"alpha": "801/2"}}


def test_non_finite_condition_values_are_inconclusive(tmp_path, capsys):
    # numpy's overflow and inf - inf warn nothing: the values are inconclusive
    cfg = write_config(tmp_path, "d.json", {"family": OVERFLOWING, "n_max": 50})
    out = str(tmp_path / "d_report")
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
    # a nonpositive parameter once failed unkeyed, d_beta's after the progress line
    *(("d_beta", "beta", b, f"d_beta needs beta > 0, got {f!r}")
      for b, f in ((0, 0.0), (-1, -1.0), ("-1/2", -0.5))),
    ("log_pow", "alpha", -1, "gamma density needs a finite alpha > 0, got -1.0"),
    # (log 2)^3000 underflows: once the progress line, then an unkeyed error
    ("log_pow", "alpha", 3000, "measure-induced weight at n=2 is 0.0; no weight defined"),
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
    proc = _python("-m", "dirweight", "classify", "--config", cfg, "--n-max", str(n_max),
                   "--no-timestamp", "--stdout")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["result"]
    assert result["condition_sample"] == {"n_max": n_max, "delta": 0.0, "verdict": "nonneg_exact",
                                          "counts": {"nonneg_exact": n_max}}


@pytest.mark.parametrize("n_points", [0, -3, 65])
def test_gram_rejects_n_points_outside_its_range(n_points, tmp_path, capsys):
    cfg = write_config(tmp_path, "ones.json", {"family": {"kind": "named", "name": "ones"}})
    assert run(["gram", "--config", cfg, "--n-points", str(n_points), "--stdout"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"config error: n_points: expected an integer in [1, 64], got {n_points}"]
    assert captured.out == ""


# -- README -------------------------------------------------------------------


def test_readme_lists_exactly_the_config_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n### Config schema\n", 1)[1]
    listing = section.split("Top-level keys", 1)[1].split(".\n", 1)[0]
    assert re.findall(r"`(\w+)`", listing) == list(cli._READERS)


def test_readme_lists_exactly_the_family_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n### Config schema\n", 1)[1]
    block = re.sub(r"\s*//.*", "", section.split("```jsonc\n", 1)[1].split("\n```", 1)[0])
    listed = {}
    for family in re.findall(r"^\{.*?\}$", block, re.M | re.S):
        top = family[1:-1]
        while "{" in top:  # drop the nested objects, spec and parameters
            top = re.sub(r"\{[^{}]*\}", "", top)
        kind = re.search(r'"kind": "(\w+)"', family)[1]
        listed.setdefault(kind, set()).update(re.findall(r'"(\w+)":', top))
    assert listed == weights._FAMILY_KEYS


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
