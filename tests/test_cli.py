"""Config parsing, artifact schemas, exit codes, byte-level determinism."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from savbdf import DivergenceError, SettingError, StabilityResult
from savbdf import cli
from savbdf.cli import (
    EXIT_OK,
    EXIT_USAGE,
    TRACE_COLUMNS,
    CheckFailed,
    ConfigError,
    main,
    parse_config,
)


def write_config(tmp_path: Path, data: dict) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


# -- parsing ----------------------------------------------------------------------


def test_minimal_converge_config_defaults(tmp_path):
    cfg = parse_config(write_config(tmp_path, {
        "experiment": "converge", "problem": "allen_cahn", "order": 2,
    }))
    assert cfg.alpha == pytest.approx(1e-4)
    assert cfg.T == 1.0
    assert cfg.grid == (64, 64)
    assert cfg.dt_list == (1 / 40, 1 / 80, 1 / 160, 1 / 320, 1 / 640)
    assert cfg.mode == "sav"


def test_burgers_defaults(tmp_path):
    cfg = parse_config(write_config(tmp_path, {"experiment": "burgers"}))
    assert cfg.problem == "burgers"
    assert cfg.nu == pytest.approx(1.0 / 314.0)
    assert cfg.grid == (320,)
    assert cfg.dt == pytest.approx(8.5e-3)
    assert cfg.dt_ref == pytest.approx(1e-4)


def test_cahn_hilliard_defaults(tmp_path):
    cfg = parse_config(write_config(tmp_path, {
        "experiment": "converge", "problem": "cahn_hilliard", "order": 4,
    }))
    assert cfg.alpha == pytest.approx(0.04)
    assert cfg.m0 == pytest.approx(0.005)
    assert cfg.dt_list == (1 / 10, 1 / 20, 1 / 40, 1 / 80)


def test_rejects_out_of_range_order(tmp_path, capsys):
    # the range is the library's (`tableau`) to check, under the key all the same
    out = tmp_path / "o"
    path = write_config(tmp_path, {"experiment": "converge", "order": 7})
    assert main(["converge", "--config", path, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "key 'order'" in err[0]
    assert not out.exists()


def test_rejects_unknown_key(tmp_path):
    with pytest.raises(ConfigError, match="unknown key 'frobnicate'"):
        parse_config(write_config(tmp_path, {"experiment": "run", "frobnicate": 1}))


def test_rejects_unknown_problem_and_mode(tmp_path):
    with pytest.raises(ConfigError, match="problem"):
        parse_config(write_config(tmp_path, {"experiment": "run", "problem": "heat"}))
    with pytest.raises(ConfigError, match="mode"):
        parse_config(write_config(tmp_path, {"experiment": "run", "mode": "semi"}))
    with pytest.raises(ConfigError, match="manufactured"):
        parse_config(write_config(tmp_path, {"experiment": "converge", "problem": "burgers"}))


@pytest.mark.parametrize("key, value", [
    ("T", "abc"), ("out", 5), ("order", True), ("grid", "abc"), ("grid", 16.5), ("dt_list", "a,b"),
    # list entries from a file follow the scalar type rule
    ("grid", [16.7]), ("grid", [True, True]), ("grid", ["16"]), ("grid", [[16]]),
    ("dt_list", [True, 0.5, 0.25]), ("dt_list", ["0.5", 0.25, 0.125]),
    # an empty list is no grid, not the default one
    ("grid", "x"), ("grid", ","), ("grid", ""), ("grid", []), ("dt_list", []), ("dt_list", ","),
])
def test_malformed_values_are_config_errors(tmp_path, key, value):
    experiment = "converge" if key == "dt_list" else "run"
    with pytest.raises(ConfigError, match=f"key '{key}'"):
        parse_config(write_config(tmp_path, {"experiment": experiment, key: value}))


def test_requires_experiment():
    with pytest.raises(ConfigError, match="experiment"):
        parse_config(None, {})


def test_flag_overrides_beat_config(tmp_path):
    path = write_config(tmp_path, {"experiment": "run", "T": 1.0, "order": 1})
    cfg = parse_config(path, {"T": 0.5})
    assert cfg.T == 0.5
    assert cfg.order == 1


def test_grid_string_forms(tmp_path):
    cfg = parse_config(None, {"experiment": "run", "grid": "32x32"})
    assert cfg.grid == (32, 32)
    cfg = parse_config(None, {"experiment": "run", "grid": "48"})
    assert cfg.grid == (48,)


def test_dt_list_string_form():
    cfg = parse_config(None, {"experiment": "converge", "dt_list": "0.1,0.05,0.025"})
    assert cfg.dt_list == (0.1, 0.05, 0.025)


def test_list_forms_from_a_file(tmp_path):
    cfg = parse_config(write_config(tmp_path, {"experiment": "run", "grid": [32, 16]}))
    assert cfg.grid == (32, 16)
    cfg = parse_config(write_config(tmp_path, {"experiment": "run", "grid": 48}))
    assert cfg.grid == (48,)
    # an integer entry is a float too, as for a scalar setting
    cfg = parse_config(write_config(tmp_path, {"experiment": "converge", "dt_list": [1, 0.5, 0.25]}))
    assert cfg.dt_list == (1.0, 0.5, 0.25) and all(type(dt) is float for dt in cfg.dt_list)


def test_consecutive_main_calls_behave_like_fresh_ones(tmp_path, capsys):
    # the parser is built once per process; each call must still see only its own argv
    calls = [
        (["run", "--grid", "8", "--T", "0.2", "--dt", "0.05", "--order", "3"], EXIT_OK),
        (["run", "--grid", "8", "--dt-list", "0.1"], EXIT_USAGE),
        (["stability", "--grid", "8", "--n-steps", "6", "--dt", "0.5"], EXIT_OK),
    ]

    def invoke(argv, out):
        code = main(argv + ["--out", str(out)])
        captured = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else None
        return code, captured.out, captured.err, files

    shared = [invoke(argv, tmp_path / f"shared{i}") for i, (argv, _) in enumerate(calls)]
    for i, ((argv, code), got) in enumerate(zip(calls, shared)):
        cli._parser.cache_clear()
        assert got == invoke(argv, tmp_path / f"fresh{i}"), argv
        assert got[0] == code and (got[3] is None) == (code != EXIT_OK), argv


# (experiment, problem or None for the experiment's default, key, value)
UNREAD = [
    ("converge", None, "mode", "imex"),
    ("converge", None, "dt", 0.1),
    ("stability", None, "T", 2.0),
    ("stability", None, "dt_list", "0.1,0.05,0.025"),
    ("burgers", None, "c_shift", 1000.0),
    ("burgers", None, "alpha", 9.0),
    ("run", None, "seed", 4),
    ("run", None, "dt_ref", 1e-3),
    ("converge", "allen_cahn", "m0", 0.01),
    ("run", "cahn_hilliard", "nu", 0.1),
    ("run", "burgers", "alpha", 9.0),
    ("burgers", None, "grid", "32x7"),
    ("run", None, "grid", "16x16x99"),
    # p follows the order (`tableau`): no experiment reads it
    ("run", None, "eta_exponent", 4),
]


@pytest.mark.parametrize("experiment, problem, key, value", UNREAD,
                         ids=[f"{e}-{p or 'default'}-{k}" for e, p, k, _ in UNREAD])
def test_unread_key_is_rejected(tmp_path, capsys, experiment, problem, key, value):
    settings = {"experiment": experiment, key: value}
    if problem is not None:
        settings["problem"] = problem
    path = write_config(tmp_path, settings)
    with pytest.raises(ConfigError, match=f"key '{key}'"):
        parse_config(path)

    flag = "--" + key.replace("_", "-")
    argv = [experiment, flag, str(value)] + (["--problem", problem] if problem else [])
    out = tmp_path / "o"
    for args in (argv, [experiment, "--config", path]):
        assert main(args + ["--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert f"key '{key}'" in err[0] or flag in err[0]
        assert not out.exists()


HELP_FLAGS = {
    "converge": "problem order grid T dt-list alpha stabilization c-shift m0 nu",
    "stability": "problem order grid dt n-steps seed alpha stabilization c-shift m0 nu",
    "burgers": "order grid nu dt dt-ref T",
    "run": "problem order grid dt T mode alpha stabilization c-shift m0 nu",
}


@pytest.mark.parametrize("experiment", sorted(HELP_FLAGS))
def test_help_lists_exactly_the_read_flags(capsys, experiment):
    with pytest.raises(SystemExit) as stop:
        main([experiment, "--help"])
    assert stop.value.code == 0
    listed = set(re.findall(r"--[A-Za-z][\w-]*", capsys.readouterr().out))
    expected = {"--" + f for f in HELP_FLAGS[experiment].split()} | {"--help", "--config", "--out"}
    assert listed == expected


def test_config_file_keys_reach_the_run(tmp_path):
    out = tmp_path / "from_file"
    path = write_config(tmp_path, {"experiment": "run", "order": 1, "grid": 16, "dt": 0.1,
                                   "T": 0.3, "out": str(out)})
    assert main(["run", "--config", path, "--T", "0.2"]) == EXIT_OK
    assert len((out / "trace.csv").read_text().splitlines()) == 1 + 3  # T from the flag


def test_missing_config_file_is_usage_error(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "absent.json")])
    assert rc == EXIT_USAGE
    assert "config error" in capsys.readouterr().err


def test_invalid_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    rc = main(["run", "--config", str(path)])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: config file")


def test_non_utf8_config_is_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_bytes(b'\xff\xfe{"experiment": "run"}')
    rc = main(["run", "--config", str(path)])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: config file")


# -- execution --------------------------------------------------------------------


def run_cli(args):
    return main(args)


def test_run_experiment_artifacts(tmp_path):
    out = tmp_path / "artifacts" / "nested"
    rc = run_cli([
        "run", "--problem", "allen_cahn", "--order", "1", "--grid", "16",
        "--dt", "0.1", "--T", "0.3", "--out", str(out),
    ])
    assert rc == EXIT_OK
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == ",".join(TRACE_COLUMNS)
    assert len(trace) == 1 + 4  # startup level + 3 steps
    summary = json.loads((out / "summary.json").read_text())
    assert summary["problem"] == "allen_cahn"
    # first order at dt = 0.1: the error is O(dt), just check sanity
    assert summary["final_err_l2"] < 0.2


def test_trace_error_columns_empty_without_exact(tmp_path):
    out = tmp_path / "b"
    rc = run_cli([
        "run", "--problem", "burgers", "--grid", "32", "--nu", "0.05",
        "--order", "2", "--dt", "0.01", "--T", "0.1", "--out", str(out),
    ])
    assert rc == EXIT_OK
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[1].endswith(",,,")


def test_stability_experiment(tmp_path):
    out = tmp_path / "s"
    rc = run_cli([
        "stability", "--problem", "allen_cahn", "--grid", "16", "--order", "2",
        "--dt", "0.5", "--n-steps", "20", "--out", str(out),
    ])
    assert rc == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["violations"] == []
    assert summary["monotone_violations"] == 0
    rows = (out / "trace.csv").read_text().splitlines()[1:]
    rs = [float(row.split(",")[2]) for row in rows]
    assert all(b <= a * (1 + 1e-14) for a, b in zip(rs, rs[1:]))


def test_converge_experiment(tmp_path):
    out = tmp_path / "c"
    rc = run_cli([
        "converge", "--problem", "allen_cahn", "--grid", "32", "--order", "1",
        "--dt-list", "0.1,0.05,0.025", "--T", "0.5", "--out", str(out),
    ])
    assert rc == EXIT_OK
    table = (out / "convergence.csv").read_text().splitlines()
    assert table[0] == "dt,err_l2,err_h1,err_h2"
    assert len(table) == 4
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {"slope_l2", "slope_h1", "slope_h2"}
    assert summary["slope_l2"] == pytest.approx(1.0, abs=0.35)


def test_burgers_experiment(tmp_path):
    out = tmp_path / "bg"
    rc = run_cli([
        "burgers", "--grid", "48", "--nu", "0.05", "--dt", "0.005",
        "--dt-ref", "0.0025", "--T", "0.05", "--out", str(out),
    ])
    assert rc == EXIT_OK
    for name in ("snapshot_ref.csv", "snapshot_sav.csv", "snapshot_imex.csv"):
        lines = (out / name).read_text().splitlines()
        assert lines[0] == "x,u"
        assert len(lines) == 49
    summary = json.loads((out / "summary.json").read_text())
    assert summary["imex_diverged"] is False


def test_divergence_exit_code(tmp_path):
    out = tmp_path / "d"
    rc = run_cli([
        "run", "--problem", "burgers", "--mode", "imex", "--dt", "0.02",
        "--T", "1.0", "--out", str(out),
    ])
    assert rc == DivergenceError.exit_code


def test_converge_with_too_few_slope_points_exits_2_after_its_artifacts(tmp_path, capsys):
    # every rung's error sits at the rounding floor, so no slope is fitted
    out = tmp_path / "c"
    argv = ["converge", "--grid", "8", "--order", "5", "--dt-list", "0.004,0.002,0.001",
            "--T", "0.02", "--out", str(out)]
    assert main(argv) == CheckFailed.exit_code
    assert capsys.readouterr().err == "converge: too few finite error points to fit all slopes\n"
    assert sorted(p.name for p in out.iterdir()) == ["convergence.csv", "summary.json"]


def test_stability_violations_exit_2_after_the_artifacts(tmp_path, monkeypatch, capsys):
    probe = cli.stability_probe
    monkeypatch.setattr(cli, "stability_probe",
                        lambda *a, **k: StabilityResult(probe(*a, **k).report, ["first", "second"]))
    out = tmp_path / "s"
    argv = ["stability", "--grid", "8", "--n-steps", "6", "--out", str(out)]
    assert main(argv) == CheckFailed.exit_code
    assert capsys.readouterr().err == "stability violation: first\nstability violation: second\n"
    assert sorted(p.name for p in out.iterdir()) == ["summary.json", "trace.csv"]
    assert json.loads((out / "summary.json").read_text())["violations"] == ["first", "second"]


def test_byte_identical_reruns(tmp_path):
    args = [
        "converge", "--problem", "cahn_hilliard", "--grid", "32", "--order", "2",
        "--dt-list", "0.1,0.05,0.025", "--T", "0.5",
    ]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_cli(args + ["--out", str(out1)]) == EXIT_OK
    assert run_cli(args + ["--out", str(out2)]) == EXIT_OK
    for name in ("convergence.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def strict_json(raw):
    """The parsed JSON text; a non-finite literal (Infinity, NaN), which is not JSON, fails."""
    def reject(name):
        raise AssertionError(f"non-finite literal {name} in JSON")
    return json.loads(raw, parse_constant=reject)


@pytest.mark.parametrize("T, nulls", [
    ("3.5", ["final_energy"]),
    ("4.0", ["final_energy", "final_err_l2", "final_err_h1", "final_err_h2"]),
])
def test_non_finite_summary_values_are_null(tmp_path, T, nulls):
    # the IMEX baseline at dt = 0.5 grows to about 1e296: its energy and errors overflow,
    # while the solution itself stays finite
    out = tmp_path / "o"
    argv = ["run", "--problem", "allen_cahn", "--mode", "imex", "--order", "1", "--grid", "8",
            "--dt", "0.5", "--T", T, "--out", str(out)]
    assert main(argv) == EXIT_OK
    summary = strict_json((out / "summary.json").read_bytes())
    assert [k for k, v in summary.items() if v is None] == nulls
    last = (out / "trace.csv").read_text().splitlines()[-1].split(",")
    assert last[TRACE_LINE.split(",").index("energy")] == "inf"  # a CSV keeps inf and nan


TRACE_LINE = "step,t,r,xi,eta,energy,principal_norm_sq,err_l2,err_h1,err_h2"
RUN_KEYS = ["problem", "order", "dt", "mode", "max_xi_deviation", "min_eta", "max_eta",
            "final_r", "final_energy"]
BURGERS_KEYS = ["deviation_sav", "deviation_imex", "overshoot_sav", "overshoot_imex",
                "imex_diverged", "min_eta_sav", "max_eta_sav"]
SNAPSHOTS = dict.fromkeys(("snapshot_ref.csv", "snapshot_sav.csv"), "x,u")


@pytest.mark.parametrize("argv, headers, keys", [
    pytest.param(["converge", "--problem", "allen_cahn", "--grid", "16", "--order", "2",
                  "--dt-list", "0.1,0.05,0.025", "--T", "0.2"],
                 {"convergence.csv": "dt,err_l2,err_h1,err_h2"},
                 ["slope_l2", "slope_h1", "slope_h2"], id="converge"),
    pytest.param(["stability", "--problem", "cahn_hilliard", "--grid", "16", "--order", "2",
                  "--dt", "0.1", "--n-steps", "4"],
                 {"trace.csv": TRACE_LINE},
                 ["violations", "monotone_violations", "min_r", "min_xi", "sup_principal_norm_sq",
                  "sup_principal_norm_sq_first10", "mean_drift"], id="stability"),
    pytest.param(["burgers", "--grid", "16", "--nu", "0.05", "--dt", "0.01", "--dt-ref", "0.005",
                  "--T", "0.05"],
                 {**SNAPSHOTS, "snapshot_imex.csv": "x,u", "trace.csv": TRACE_LINE}, BURGERS_KEYS,
                 id="burgers"),
    # the baseline diverges: no imex snapshot, null imex values
    pytest.param(["burgers", "--dt", "0.02", "--dt-ref", "0.01", "--T", "1.0"],
                 {**SNAPSHOTS, "trace.csv": TRACE_LINE}, BURGERS_KEYS, id="burgers_imex_diverged"),
    pytest.param(["run", "--problem", "allen_cahn", "--grid", "16", "--dt", "0.05", "--T", "0.2"],
                 {"trace.csv": TRACE_LINE},
                 RUN_KEYS + ["final_err_l2", "final_err_h1", "final_err_h2"], id="run_allen_cahn"),
    pytest.param(["run", "--problem", "burgers", "--grid", "16", "--nu", "0.05", "--dt", "0.01",
                  "--T", "0.05"],
                 {"trace.csv": TRACE_LINE}, RUN_KEYS, id="run_burgers"),
])
def test_artifact_format(tmp_path, argv, headers, keys):
    """Header lines, summary key order, '\n' endings, floats printed as '.17g', strict JSON."""
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == sorted([*headers, "summary.json"])

    def check_number(text):
        assert text == format(float(text), ".17g"), text

    for name, header in headers.items():
        raw = (out / name).read_bytes()
        assert raw.endswith(b"\n") and b"\r" not in raw
        lines = raw.decode().split("\n")[:-1]
        assert lines[0] == header
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == header.count(",") + 1
            for text in filter(None, fields):
                check_number(text)

    raw = (out / "summary.json").read_bytes()
    assert raw.endswith(b"}\n") and b"\r" not in raw
    strict_json(raw)
    lines = raw.decode().split("\n")[:-1]
    assert lines[0] == "{" and lines[-1] == "}"
    pairs = [line.rstrip(",").split(": ", 1) for line in lines[1:-1]]
    assert [json.loads(k.strip()) for k, _ in pairs] == keys
    for _, text in pairs:
        value = json.loads(text)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            check_number(text)


# -- error model --------------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["stability", "--c-shift", "-10"],
    ["run", "--dt", "0.3", "--T", "1"],
    ["stability", "--grid", "63"],
    ["run", "--order", "5", "--dt", "0.25", "--T", "1"],
    ["converge", "--dt-list", "0.1,0.2,0.05"],
    ["run", "--order", "x"],
    ["frob"],
    ["run", "--eta", "4"],
    ["converge", "--dt", "0.1"],
    ["converge", "--mode", "imex"],
])
def test_bad_settings_exit_without_traceback(tmp_path, capsys, argv):
    # in-process: an escaping exception, or a RuntimeWarning (an error under
    # the suite's warning filter), fails the test
    assert main([*argv, "--out", str(tmp_path / "o")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_run_horizon_is_checked_before_output_exists(tmp_path, capsys):
    # in-process, then once through `python -m savbdf.cli`
    out = tmp_path / "o"
    assert main(["run", "--dt", "0.3", "--T", "1", "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "key 'dt'" in err[0]
    assert not out.exists()
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "savbdf.cli", "run", "--dt", "0.3", "--T", "1",
                           "--out", str(out)],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == EXIT_USAGE
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "key 'dt'" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("argv, key", [
    (["stability", "--grid", "63"], "grid"),
    (["stability", "--seed", "-1"], "seed"),
    (["run", "--grid", "0"], "grid"),
    (["stability", "--n-steps", "1", "--order", "3"], "n_steps"),
    (["burgers", "--grid", "0"], "grid"),
    (["converge", "--grid", "32x0"], "grid"),
    (["converge", "--dt-list", "0.1,0.2,0.05"], "dt_list"),
    (["converge", "--dt-list", "0.3,0.2,0.1"], "dt_list"),
    (["converge", "--dt-list", "0.1,0.05"], "dt_list"),
    (["run", "--T", "inf"], "T"),
    (["converge", "--T", "inf"], "T"),
    (["stability", "--dt", "1e307"], "dt"),
    (["stability", "--dt", "inf"], "dt"),
    (["run", "--dt", "1e-300"], "dt"),
    (["burgers", "--dt", "1e-300"], "dt"),
    (["burgers", "--dt-ref", "1e-300"], "dt_ref"),
    (["stability", "--n-steps", "100000000"], "n_steps"),
    (["burgers", "--grid", "1"], "grid"),
    (["run", "--dt", "1e-310"], "dt"),
    (["burgers", "--dt", "1e-310"], "dt"),
    # checked by the library function that uses the value, named by its key
    (["run", "--alpha", "-1"], "alpha"),
    (["stability", "--problem", "cahn_hilliard", "--m0", "0"], "m0"),
    (["burgers", "--nu", "inf"], "nu"),
    (["run", "--c-shift", "nan"], "c_shift"),
    (["run", "--stabilization", "-1"], "stabilization"),
    (["run", "--T", "0"], "T"),
    (["run", "--grid", "8", "--T", "1e-10", "--dt", "3e-11"], "dt"),  # would end at t = 9e-11
    (["burgers", "--T", "inf"], "T"),
    (["burgers", "--dt", "nan"], "dt"),
    (["stability", "--dt", "nan"], "dt"),
    (["converge", "--order", "6"], "order"),
], ids=lambda v: "_".join(v) if isinstance(v, list) else None)
def test_bad_grid_seed_or_n_steps_is_rejected_before_output_exists(tmp_path, capsys, argv, key):
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert f"key '{key}'" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("argv, code", [
    (["run", "--problem", "burgers", "--mode", "imex", "--dt", "0.02", "--T", "1.0"],
     DivergenceError.exit_code),
    (["burgers", "--nu", "1e300", "--grid", "8", "--dt-ref", "0.01"], EXIT_USAGE),
], ids=["divergence", "library_value_error"])
def test_failed_run_leaves_no_output(tmp_path, capsys, argv, code):
    # the output directory appears with the first artifact, and these fail before it
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == code
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not out.exists()


EXTREME = [
    (["run", "--problem", "allen_cahn", "--stabilization", "1e300", "--dt", "0.1", "--T", "1"],
     DivergenceError.exit_code, "step 1: non-finite correction factor"),
    (["burgers", "--nu", "1e300", "--grid", "8", "--dt-ref", "0.01"],
     EXIT_USAGE, "reference decayed to zero"),
    # E(ubar) overflows on unforced Allen-Cahn: r, xi and eta go to 0, and the run finishes
    (["stability", "--dt", "1e300", "--n-steps", "5"], EXIT_OK, None),
    (["run", "--alpha", "1e300"], DivergenceError.exit_code, "non-finite scalar variable"),
    # a cascade substep that overflows names the startup level it builds
    (["stability", "--alpha", "1e100", "--grid", "16", "--n-steps", "20"], DivergenceError.exit_code,
     "detected at step 1: non-finite uncorrected solution"),
    (["run", "--c-shift", "1e-300", "--dt", "1", "--T", "20"], DivergenceError.exit_code,
     "non-finite scalar variable"),
    (["burgers", "--nu", "1e-300", "--grid", "8", "--dt-ref", "0.01"], EXIT_OK, None),
    # a step so small that alpha_k/dt overflows is a bad dt, in a cascade substep too
    (["stability", "--dt", "1e-320", "--grid", "8", "--n-steps", "5"], EXIT_USAGE,
     "config error: key 'dt': a step of 1e-320 is too small"),
    (["stability", "--dt", "2e-323", "--grid", "8", "--n-steps", "5"], EXIT_USAGE,
     "config error: key 'dt': a step of 2e-323 is too small"),
    (["run", "--dt", "5e-324", "--T", "1e-323", "--grid", "8"], EXIT_USAGE,
     "config error: key 'dt': a step of 5e-324 is too small"),
    # a symbol, or the energy's shift c_shift |Omega|, that overflows is a bad setting
    (["stability", "--alpha", "1e308"], EXIT_USAGE, "key 'alpha'"),
    (["stability", "--problem", "cahn_hilliard", "--m0", "1e308"], EXIT_USAGE, "key 'm0'"),
    (["run", "--problem", "burgers", "--nu", "1e308", "--grid", "16", "--dt", "0.1", "--T", "0.2"],
     EXIT_USAGE, "key 'nu'"),
    (["run", "--c-shift", "1e308"], EXIT_USAGE, "key 'c_shift'"),
    # a grid too large for any numpy array
    (["run", "--grid", "100000000000000000000"], EXIT_USAGE, "key 'grid'"),
    # a symbol built from a setting overflows while setting * |k|^2 stays finite: the
    # conjugate-pair weighted L on 8^2 (max mult |k|^2 = 493.5, max |k|^2 = 315.8), and A = G L
    (["stability", "--alpha", "4e305", "--grid", "8", "--n-steps", "5", "--order", "1"],
     EXIT_USAGE, "key 'alpha'"),
    (["run", "--problem", "cahn_hilliard", "--alpha", "1e200", "--m0", "1e200", "--grid", "8"],
     EXIT_USAGE, "key 'm0'"),
    (["stability", "--problem", "cahn_hilliard", "--alpha", "1e200", "--m0", "1e200", "--grid", "8"],
     EXIT_USAGE, "key 'm0'"),
]


@pytest.mark.parametrize("argv, code, message", EXTREME, ids=["_".join(argv) for argv, _, _ in EXTREME])
def test_extreme_finite_settings_exit_without_traceback(tmp_path, capsys, argv, code, message):
    # in-process, so an escaping exception fails the test rather than a stderr scan
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == code
    err = capsys.readouterr().err.strip().splitlines()
    if message is None:
        assert err == []
    else:
        assert len(err) == 1 and message in err[0]
    assert out.exists() == (code == EXIT_OK)


HUGE_DT = [(problem, k, dt) for problem in ("allen_cahn", "cahn_hilliard")
           for k in (1, 3, 5) for dt in ("1e80", "1e200", "1e300")]


@pytest.mark.parametrize("problem, k, dt", HUGE_DT)
def test_unforced_stability_finishes_at_any_finite_dt(tmp_path, capsys, problem, k, dt):
    # the paper's bound holds for every dt: where E(ubar) overflows, xi = r / E = 0
    # for any r in [0, r^n], so r goes to its limit 0 and u to the equilibrium 0
    out = tmp_path / "o"
    argv = ["stability", "--problem", problem, "--grid", "16", "--n-steps", "20",
            "--order", str(k), "--dt", dt, "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().err == ""
    text = (out / "trace.csv").read_text()
    assert "nan" not in text and "inf" not in text
    r = [float(row.split(",")[2]) for row in text.splitlines()[1:]]
    assert len(r) == 21 and all(0.0 <= b <= a for a, b in zip(r, r[1:]))


@pytest.mark.parametrize("argv, key", [
    (["stability", "--alpha", "1e308"], "alpha"),
    # the built L and G reach 493.5 |k|^2 on 8^2, past the settings' max|k|^2 = 315.8 check
    (["stability", "--alpha", "4e305", "--grid", "8"], "alpha"),
    # A = G (L + lam) is the product of two checked factors
    (["run", "--problem", "cahn_hilliard", "--alpha", "1e200", "--m0", "1e200", "--grid", "8"], "m0"),
], ids=["stability_alpha_1e308", "stability_alpha_4e305", "run_cahn_hilliard_m0_1e200"])
def test_overflowing_symbol_is_one_line_without_a_warning(tmp_path, argv, key):
    # out of process, where no warning filter turns numpy's overflow warning into an error
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "savbdf.cli", *argv, "--out", str(tmp_path / "o")],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr.startswith(f"config error: key '{key}': ")
    assert len(proc.stderr.splitlines()) == 1


def _fail_stability_with(monkeypatch, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "stability_probe", fail)


@pytest.mark.parametrize("error, code", [
    (DivergenceError(4, "scalar variable"), DivergenceError.exit_code),
])
def test_library_errors_map_to_exit_codes(tmp_path, monkeypatch, capsys, error, code):
    _fail_stability_with(monkeypatch, error)
    assert main(["stability", "--grid", "16", "--out", str(tmp_path)]) == code
    assert capsys.readouterr().err == f"{error}\n"


def test_setting_error_names_the_config_key(tmp_path, monkeypatch, capsys):
    _fail_stability_with(monkeypatch, SettingError("mobility", "mobility must be positive"))
    assert main(["stability", "--grid", "16", "--out", str(tmp_path)]) == EXIT_USAGE
    assert capsys.readouterr().err == "config error: key 'm0': mobility must be positive\n"


HUGE = 10 ** 400  # an integer that no float holds

#: (experiment, config-file text, what its one stderr line names)
UNREADABLE_NUMBERS = [
    ("run", f'{{"dt": {HUGE}}}', "key 'dt'"),
    # a float holds this dt but not n_steps * dt, which T would be
    ("stability", f'{{"dt": {10 ** 308}}}', "key 'dt': dt and n_steps * dt must be positive"),
    ("run", f'{{"T": {HUGE}}}', "key 'T'"),
    ("run", f'{{"alpha": {HUGE}}}', "key 'alpha'"),
    ("run", f'{{"c_shift": {HUGE}}}', "key 'c_shift'"),
    ("run", f'{{"stabilization": {HUGE}}}', "key 'stabilization'"),
    ("run", f'{{"problem": "cahn_hilliard", "m0": {HUGE}}}', "key 'm0'"),
    ("burgers", f'{{"nu": {HUGE}}}', "key 'nu'"),
    ("burgers", f'{{"dt_ref": {HUGE}}}', "key 'dt_ref'"),
    # past Python's int-to-string limit json reads no key of the file, so the line names the file
    ("run", '{"dt": ' + "1" * 5000 + "}", "is not valid JSON"),
    ("converge", f'{{"dt_list": [0.1, {HUGE}, 0.01]}}', "key 'dt_list': cannot interpret"),
]


@pytest.mark.parametrize("experiment, text, named", UNREADABLE_NUMBERS,
                         ids=["dt", "stability_dt_10**308", "T", "alpha", "c_shift", "stabilization",
                              "m0", "nu", "dt_ref", "dt_5000_digits", "dt_list"])
def test_a_number_no_float_holds_exits_1_in_one_line(tmp_path, capsys, experiment, text, named):
    path, out = tmp_path / "config.json", tmp_path / "o"
    path.write_text(text)
    assert main([experiment, "--config", str(path), "--grid", "8", "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and named in err
    if named.endswith("'"):  # a bad setting's message does not print the integer
        assert str(HUGE) not in err
    assert not out.exists()


def test_out_of_memory_exits_1_in_one_line(tmp_path, monkeypatch, capsys):
    def fail(cfg):
        raise MemoryError("Unable to allocate 1.49 GiB for an array")

    monkeypatch.setattr(cli, "_build_problem", fail)
    out = tmp_path / "o"
    assert main(["run", "--grid", "8", "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == "out of memory: Unable to allocate 1.49 GiB for an array\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, code", [
    (["stability", "--grid", "8", "--n-steps", "6"], EXIT_OK),
    (["stability", "--alpha", "1e308"], EXIT_USAGE),
    (["converge", "--grid", "8", "--order", "5", "--dt-list", "0.004,0.002,0.001", "--T", "0.02"],
     CheckFailed.exit_code),
    (["run", "--problem", "burgers", "--mode", "imex", "--dt", "0.02", "--T", "1.0"],
     DivergenceError.exit_code),
], ids=["ok", "usage", "check", "divergence"])
def test_console_main_exits_with_the_code_of_main(tmp_path, monkeypatch, capsys, argv, code):
    # the installed `savbdf` script reads sys.argv and exits with what `main` returns
    argv = argv + ["--out", str(tmp_path / "o")]
    monkeypatch.setattr(sys, "argv", ["savbdf", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.console_main()
    assert exc.value.code == code
    assert main(argv) == code


@pytest.mark.parametrize("row", [
    (3, 0.25, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308, None, None, None),
    (200, 1e-5, 0.1, 1.0, 2.0 / 3.0, -1e-300, 1.7976931348623157e308, -5e-324, 0.5, 1.5),
    (np.int64(7), np.float64(0.1), None, None),
    (1e308,),
    (None, None),
])
def test_csv_rows_have_the_bytes_of_fmt(tmp_path, row):
    # one %-format per row shape writes each value to 17 significant digits: a None tail empty
    def fmt(value):
        return "" if value is None else f"{value:.17g}"

    path = tmp_path / "rows.csv"
    cli._write_csv(path, [f"c{i}" for i in range(len(row))], [row, row])
    expected = ",".join(fmt(v) for v in row)
    assert path.read_text().split("\n")[1:] == [expected, expected, ""]


def test_csv_row_with_a_none_before_a_value_is_refused(tmp_path):
    with pytest.raises(TypeError):
        cli._write_csv(tmp_path / "rows.csv", ["a", "b"], [(None, 1.0)])
