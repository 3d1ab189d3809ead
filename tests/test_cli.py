import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stratcub import cli
from stratcub.cli import main
from stratcub.experiments import CSV_FIELDS, ExperimentConfig


def test_cli_mz_run(tmp_path, capsys):
    out = tmp_path / "mzrun"
    rc = main(["mz", "--space", "torus", "--dim", "1", "--n", "8", "16",
               "--fn", "coordinate", "--p", "2", "--draws", "400",
               "--seed", "5", "--out", str(out)])
    assert rc == 0
    assert Path(str(out) + ".csv").exists()
    assert Path(str(out) + ".json").exists()
    summary = json.loads(capsys.readouterr().out)
    assert summary["p2_identity_ok"]


def test_cli_config_file_with_flag_override(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "space_kind": "torus", "dim": 1, "n_list": [8, 16, 32, 64],
        "function": "cone", "fn_params": {"radius": 0.25},
        "p": 2.0, "n_draws": 40, "seed": 1}))
    out = tmp_path / "bes"
    rc = main(["besov", "--config", str(cfg_file), "--draws", "60",
               "--out", str(out)])
    assert rc == 0
    lines = Path(str(out) + ".csv").read_text().splitlines()
    assert lines[0].split(",") == CSV_FIELDS
    assert len(lines) == 5
    assert all(",60," in ln for ln in lines[1:])  # flag overrode n_draws


def test_cli_rates_verdict(tmp_path):
    csv = tmp_path / "data.csv"
    rows = ["N,value,stderr"] + [f"{n},{1.0 / n},0.0" for n in (8, 16, 32, 64)]
    csv.write_text("\n".join(rows))
    assert main(["rates", "--csv", str(csv), "--expected", "-1.0"]) == 0
    assert main(["rates", "--csv", str(csv), "--expected", "-0.5"]) == 1


def test_cli_seed_changes_output(tmp_path):
    outs = []
    for seed in ("1", "2"):
        out = tmp_path / f"s{seed}"
        main(["mz", "--space", "torus", "--dim", "1", "--n", "8", "16",
              "--fn", "coordinate", "--p", "2", "--draws", "100",
              "--seed", seed, "--out", str(out)])
        outs.append(Path(str(out) + ".csv").read_text())
    assert outs[0] != outs[1]


def test_cli_verify_smoke(tmp_path, capsys):
    rc = main(["verify", "--seed", "1", "--out", str(tmp_path / "v")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "all checks passed" in out


@pytest.mark.parametrize("argv, message", [
    (["partition", "--budget", "0"], "sample_budget must be >= 1, got 0"),
    (["wce", "--draws", "1"], "n_draws must be >= 2, got 1"),
    (["indicator", "--set", "box", "--space", "sphere2", "--dim", "2"],
     "region kind 'box' does not lie on the sphere2 space"),
    (["indicator", "--set", "cap", "--space", "torus"],
     "region kind 'cap' does not lie on the torus space"),
    (["mz", "--fn", "nonesuch"], "unknown function id 'nonesuch'"),
    (["besov", "--fn", "nonesuch"], "unknown function id 'nonesuch'"),
    (["wce", "--p", "1"], "p must lie in (1, inf]"),
    (["wce", "--alpha", "1.5"], "need 0 < alpha < d, got alpha=1.5, d=1"),
    (["wce", "--alpha", "0.3", "--p", "2"], "integrability needs alpha > d/p"),
    (["wce", "--family", "const"], "constant stub has no rate regime"),
    (["besov", "--p", "inf"], "p = inf is for wce experiments only"),
    (["besov", "--dim", "2", "--n", "4", "8", "16", "32"], "N=8 is not a d=2 grid size"),
    (["partition", "--space", "sphere2", "--dim", "2", "--n", "1", "4"],
     "a sphere partition needs N >= 2 cells, got N=1"),
    (["wce", "--family", "rough_riesz", "--alpha", "0.9", "--eps", "0.25", "--kappa", "nan",
      "--n", "16", "32", "64", "128"], "kappa must be finite, got nan"),
], ids=["budget", "draws", "box-on-sphere", "cap-on-torus", "mz-fn", "besov-fn",
        "wce-p1", "wce-alpha-above-d", "wce-alpha-below-d-over-p", "wce-const",
        "besov-p-inf", "torus-n-not-a-power", "sphere-n-1", "wce-kappa-nan"])
def test_cli_reports_bad_config_in_one_line(argv, message, monkeypatch):
    def run(cfg):
        raise AssertionError("a bad config reached the run")

    monkeypatch.setattr(cli, "run_experiment", run)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    text = str(exc.value.code)
    assert text.startswith("stratcub: ") and message in text and "\n" not in text


def test_cli_reports_bad_fn_params_in_one_line(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"function": "coordinate", "fn_params": {"axis": 1}}))
    with pytest.raises(SystemExit) as exc:
        main(["mz", "--config", str(cfg)])
    assert str(exc.value.code) == "stratcub: coordinate axis must be in [0, 1), got 1"


def test_cli_reports_unknown_fn_param_in_one_line(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"function": "coordinate", "fn_params": {"axsi": 1}}))
    with pytest.raises(SystemExit) as exc:
        main(["mz", "--config", str(cfg)])
    assert str(exc.value.code) == ("stratcub: unknown parameter 'axsi' for function "
                                   "'coordinate'; it takes axis")


@pytest.mark.parametrize("text, message", [
    ('{"n_drawz": 5}', "cfg.json: unknown field(s) n_drawz"),
    ("[1, 2]", "cfg.json must hold a JSON object, got list"),
    ("{", "cfg.json is not valid JSON"),
    ('{"fn_params": 3}', "fn_params must be a dict, got 3"),
    ('{"n_list": 16}', "n_list must be a list of integers, got 16"),
    ('{"set_params": "x"}', "set_params must be a dict, got 'x'"),
    (None, "cannot read config file"),
    ('{"seed": 1.5}', "seed must be an integer, got 1.5"),
    ('{"p": "two"}', "p must be a real number, got 'two'"),
    ('{"fn_alpha": null}', "fn_alpha must be a real number, got None"),
    ('{"set_kind": []}', "set_kind must be a string, got []"),
    ('{"function": []}', "function must be a string, got []"),
    ('{"space_kind": 2}', "space_kind must be a string, got 2"),
], ids=["unknown-field", "json-list", "not-json", "wrong-type", "int-n-list", "string-set-params",
        "missing-file", "float-seed", "string-p", "null-fn-alpha", "list-set-kind",
        "list-function", "int-space-kind"])
def test_cli_reports_bad_config_file_in_one_line(tmp_path, text, message, monkeypatch):
    def run(cfg):
        raise AssertionError("a bad config reached the run")

    monkeypatch.setattr(cli, "run_experiment", run)
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["besov", "--config", str(cfg)])
    text = str(exc.value.code)
    assert text.startswith("stratcub: ") and message in text and "\n" not in text


@pytest.mark.parametrize("command, text, message", [
    ("indicator", '{"set_params": {"start": "x"}}', "arc start must be a real number, got 'x'"),
    ("indicator", '{"set_params": {"length": [0.3]}}',
     "arc length must be a real number, got [0.3]"),
    ("indicator", '{"set_kind": "box", "dim": 2, "set_params": {"lo": [0.1, "0.2"]}}',
     "box lo must be a real number, got '0.2'"),
    ("indicator", '{"set_kind": "box", "set_params": {"hi": 0.7}}',
     "box hi must be a list of real numbers, got 0.7"),
    ("indicator", '{"space_kind": "sphere2", "dim": 2, "set_kind": "cap", '
                  '"set_params": {"radius": "1"}}', "cap radius must be a real number, got '1'"),
    ("indicator", '{"space_kind": "sphere2", "dim": 2, "set_kind": "cap", '
                  '"set_params": {"center": [0, 0, "1"]}}',
     "cap centre must be a real number, got '1'"),
    ("besov", '{"function": "cone", "fn_params": {"radius": "0.2"}}',
     "cone radius must be a real number, got '0.2'"),
    ("besov", '{"function": "cone", "fn_params": {"center": ["0.5"]}}',
     "cone centre must be a real number, got '0.5'"),
    ("mz", '{"function": "constant", "fn_params": {"c": null}}',
     "constant c must be a real number, got None"),
    ("mz", '{"function": "coordinate", "fn_params": {"axis": "0"}}',
     "coordinate axis must be an integer, got '0'"),
    ("mz", '{"function": "square_wave", "fn_params": {"k": "2"}}',
     "square wave frequency must be a real number, got '2'"),
    ("mz", '{"function": "square_wave", "fn_params": {"k": NaN}}',
     "square wave frequency must be a positive integer, got nan"),
], ids=["arc-start", "arc-length", "box-lo", "box-hi-scalar", "cap-radius", "cap-centre",
        "cone-radius", "cone-centre", "constant-c", "coordinate-axis", "square-wave-k",
        "square-wave-k-nan"])
def test_cli_names_non_numeric_builder_param_in_one_line(tmp_path, command, text, message,
                                                        monkeypatch):
    def run(cfg):
        raise AssertionError("a bad config reached the run")

    monkeypatch.setattr(cli, "run_experiment", run)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg)])
    assert str(exc.value.code) == f"stratcub: {message}"


@pytest.mark.parametrize("text, message", [
    (None, "cannot read CSV file"),
    ("N,value\n8,1\n", "has no column 'stderr'"),
    ("N,value,stderr\n8,one,0\n", "could not convert string to float: 'one'"),
    ("N,value,stderr\n8,1,0\n16,0.5,0\n32,0.25,0\n", "rate fit needs >= 4 points, got 3"),
    ("N,value,stderr\n0,1,0\n16,0.5,0\n32,0.25,0\n64,0.125,0\n",
     "rate fit needs finite N > 0, got N = 0"),
    ("N,value,stderr\n8,1,0\nnan,0.5,0\n32,0.25,0\n64,0.125,0\n",
     "rate fit needs finite N > 0, got N = nan"),
    ("N,value,stderr\n8,1,0\n8,0.5,0\n8,0.25,0\n8,0.125,0\n",
     "rate fit needs two distinct N, got only N = 8"),
], ids=["missing-file", "missing-column", "not-a-number", "three-rows", "zero-n", "nan-n",
        "repeated-n"])
def test_cli_rates_reports_bad_csv_in_one_line(tmp_path, text, message):
    data = tmp_path / "data.csv"
    if text is not None:
        data.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["rates", "--csv", str(data)])
    text = str(exc.value.code)
    assert text.startswith("stratcub: ") and message in text and "\n" not in text


@pytest.mark.parametrize("expected", [[], ["--expected", "-1"]], ids=["no-expected", "expected"])
def test_cli_rates_null_fit_on_a_value_not_above_zero(tmp_path, capsys, expected):
    # an infinite value has no finite logarithm either: it printed numpy
    # warnings and an all-null fit, and exited 0
    data = tmp_path / "data.csv"
    for bad in ("0", "inf"):
        data.write_text(f"N,value,stderr\n8,1,0\n16,0.5,0\n32,{bad},0\n64,0.125,0\n")
        assert main(["rates", "--csv", str(data), *expected]) == 1
        result = _strict_loads(capsys.readouterr().out)
        assert result["slope"] is None and result["slope_ci"] is None
        assert "N = 32" in result["note"]
        assert ("verdict" in result) == bool(expected)
        assert result.get("verdict", False) is False


def test_cli_besov_zero_results_report_a_null_fit(tmp_path, capsys):
    # the k = 1 square wave is constant on every grid cell, so B_N = 0 at every N
    out = tmp_path / "sq"
    rc = main(["besov", "--fn", "square_wave", "--n", "16", "32", "64", "128",
               "--draws", "20", "--out", str(out)])
    summary = _strict_loads(capsys.readouterr().out)
    assert rc == 1
    assert summary["slope"] is None and summary["r2"] is None
    assert summary["verdict"] is False
    assert summary["note"] == "no rate fit: value not finite and > 0 at N = 16, 32, 64, 128"
    assert _strict_loads(Path(str(out) + ".json").read_text()) == summary


def test_cli_experiment_flags_set_config_fields_by_dest():
    # the flag's dest is the field it sets: a misspelt dest would be dropped silently
    names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    sub = cli._parser()._subparsers._group_actions[0]
    kinds = [k for k in sub.choices if k not in ("rates", "verify")]
    assert kinds == ["partition", "wce", "besov", "mz", "indicator", "sharpness"]
    for kind in kinds:
        dests = {a.dest for a in sub.choices[kind]._actions} - {"config", "help"}
        assert dests <= names, (kind, sorted(dests - names))
    args = cli._parser().parse_args(["partition", "--space", "sphere2", "--dim", "2",
                                     "--n", "2", "8", "--draws", "7", "--my", "3", "--mz", "5",
                                     "--fn", "coordinate", "--set", "cap", "--budget", "9"])
    cfg = cli._config_from_args("partition", args)
    assert (cfg.space_kind, cfg.n_list, cfg.n_draws, cfg.m_y, cfg.m_z, cfg.function,
            cfg.set_kind, cfg.sample_budget) == ("sphere2", (2, 8), 7, 3, 5, "coordinate",
                                                 "cap", 9)


def _strict_loads(text):
    """json.loads that rejects the NaN and Infinity tokens RFC 8259 lacks."""
    def reject(token):
        raise ValueError(f"non-JSON constant {token}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("p", ["4", "2"])
def test_cli_mz_all_degenerate_reports_and_writes(tmp_path, capsys, p):
    # the k = 1 square wave is constant on every grid cell: every N is degenerate
    out = tmp_path / "deg"
    rc = main(["mz", "--space", "torus", "--dim", "1", "--n", "8", "16", "64",
               "--fn", "square_wave", "--p", p, "--out", str(out)])
    summary = _strict_loads(capsys.readouterr().out)
    assert rc == 1
    assert summary["envelope"] is None and summary["verdict"] is False
    assert summary["p2_identity_ok"] is None  # nothing to check at p = 2 either
    assert summary["stability_ratio"] is None  # undefined, written as null
    assert [r["N"] for r in summary["rows"]] == [8, 16, 64]
    assert all(r["ratio"] is None for r in summary["rows"])
    assert _strict_loads(Path(str(out) + ".json").read_text()) == summary
    lines = Path(str(out) + ".csv").read_text().splitlines()
    assert len(lines) == 4 and all(",nan,nan," in ln for ln in lines[1:])


def test_cli_bad_config_exits_with_status_one():
    src = Path(cli.__file__).resolve().parents[1]
    run = subprocess.run([sys.executable, "-m", "stratcub", "indicator", "--set", "arc",
                          "--space", "sphere2", "--dim", "2"],
                         capture_output=True, text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert run.returncode == 1 and run.stdout == ""
    assert run.stderr == "stratcub: region kind 'arc' does not lie on the sphere2 space\n"


@pytest.mark.parametrize("kind, fields", [
    ("indicator", {"set_kind": "cap"}),
    ("wce", {"alpha": 1.5, "m_y": 8}),
], ids=["indicator", "wce"])
@pytest.mark.parametrize("route", ["flags", "config"])
def test_cli_sphere_needs_no_dim(tmp_path, kind, fields, route):
    # the space sets its own dimension: 2 on sphere2
    out = tmp_path / "s2"
    fields = {"space_kind": "sphere2", "n_list": [8, 16, 32, 64], "n_draws": 2, **fields}
    if route == "config":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(fields))
        argv = ["--config", str(cfg)]
    else:
        flags = {"space_kind": "--space", "n_list": "--n", "n_draws": "--draws",
                 "set_kind": "--set", "alpha": "--alpha", "m_y": "--my"}
        argv = [a for k, v in fields.items()
                for a in (flags[k], *map(str, v if isinstance(v, list) else [v]))]
    main([kind, *argv, "--out", str(out)])
    lines = Path(str(out) + ".csv").read_text().splitlines()
    d = lines[0].split(",").index("d")
    assert [ln.split(",")[d] for ln in lines[1:]] == ["2"] * 4


def test_cli_wce_p_inf_writes_the_conjugate_exponent(tmp_path):
    out = tmp_path / "inf"
    main(["wce", "--p", "inf", "--n", "4", "8", "16", "32", "--draws", "2", "--my", "8",
          "--out", str(out)])
    lines = Path(str(out) + ".csv").read_text().splitlines()
    q = lines[0].split(",").index("q")
    assert [ln.split(",")[q] for ln in lines[1:]] == ["1.0"] * 4


def test_cli_keeps_run_time_errors(monkeypatch):
    def fail(cfg):
        raise ValueError("raised while running")

    monkeypatch.setattr(cli, "run_experiment", fail)
    with pytest.raises(ValueError, match="raised while running"):
        main(["partition"])


def _wce_report_main():
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_wce_report.py"
    spec = importlib.util.spec_from_file_location("run_wce_report", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


@pytest.mark.parametrize("argv", [
    ["--space", "torus", "--dim", "1", "--n", "4"],
    ["--space", "sphere2", "--n", "8", "--alpha", "1.5"],
], ids=["torus-d1", "sphere2"])
def test_wce_report_script_runs(argv, monkeypatch, capsys):
    budgets = ["--draws", "2", "--my", "16", "--mz", "2"]
    monkeypatch.setattr(sys, "argv", ["run_wce_report.py", *argv, *budgets])
    assert _wce_report_main()() == 0
    out = capsys.readouterr().out
    assert "worst-case error" in out
    assert "per-cell upper functional" in out


def test_wce_report_script_reports_bad_config(monkeypatch):
    # alpha = 0.75 on S^2 at p = 2 fails the integrability check alpha > d/p
    monkeypatch.setattr(sys, "argv", ["run_wce_report.py", "--space", "sphere2",
                                      "--n", "8", "--draws", "2"])
    with pytest.raises(SystemExit, match="integrability needs alpha > d/p"):
        _wce_report_main()()
