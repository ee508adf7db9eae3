import json
import subprocess
import sys

import pytest

from seqembed import cli
from seqembed.cli import main, parse_seq_spec, validate_config
from seqembed.errors import ConfigError
from seqembed.seqcore import coordinate

BUNDLED = ("basic", "finite_basis", "countable_family", "dense_family")


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "seqembed.cli", *args],
                          capture_output=True, text=True, cwd=cwd)


def load_report(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# -- sequence mini-language ----------------------------------------------

def test_parse_periodic_spec():
    s = parse_seq_spec("periodic:-1,1")
    assert [coordinate(s, n) for n in (1, 2, 3)] == [-1.0, 1.0, -1.0]


def test_parse_evconst_spec():
    s = parse_seq_spec("evconst:3@4")
    assert coordinate(s, 3) == 0.0
    assert coordinate(s, 4) == 3.0
    assert coordinate(parse_seq_spec("evconst:2"), 1) == 2.0


def test_parse_limit_spec():
    s = parse_seq_spec("limit:2,rate=0.5")
    assert coordinate(s, 1) == 2.5
    assert coordinate(s, 5) == 2.1


def test_parse_combo_spec():
    s = parse_seq_spec("combo:2*periodic:-1,1+-1*evconst:1")
    assert coordinate(s, 1) == -3.0
    assert coordinate(s, 2) == 1.0


@pytest.mark.parametrize("bad", [
    "periodic:", "evconst:x", "limit:2", "limit:2,speed=1",
    "combo:periodic:1", "fourier:1,2", "",
])
def test_parse_spec_rejects(bad):
    with pytest.raises(ConfigError):
        parse_seq_spec(bad)


# -- config validation -----------------------------------------------------

def test_validate_config_requires_space():
    with pytest.raises(ConfigError):
        validate_config({"samples": [[1.0, 0.0]]})


def test_validate_config_rejects_unknown_field():
    with pytest.raises(ConfigError):
        validate_config({"space": "c01", "budgett": 3})


def test_validate_config_defaults():
    assert validate_config({"space": "c01"}) == {
        "name": "run", "space_spec": "c01", "out": None, "gap_floor": None,
        "d_mode": "finite", "d_basis": [], "samples": [], "sequences": [],
        "epsilon": 0.2, "count": 5, "K": 64, "depth": 4, "scan_budget": 4096,
        "witness_budget": 100000, "classify_budget": 4096, "m": None,
        "tol_schedule": None, "d_samples": None, "random_d": 0, "seed": 0}


def test_validate_config_ranges():
    with pytest.raises(ConfigError):
        validate_config({"space": "c01", "epsilon": 0.0})
    with pytest.raises(ConfigError):
        validate_config({"space": "c01", "count": 0})
    with pytest.raises(ConfigError):
        validate_config({"space": "c01", "d_mode": "sparse"})


# -- exit-code contract ---------------------------------------------------

def test_exit_zero_on_bundled_suites(tmp_path):
    for name in BUNDLED:
        out = tmp_path / f"{name}.json"
        proc = run_cli("suite", "--config", name, "--out", str(out))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        report = load_report(out)
        assert report["status"] == "pass"
        assert all(r["pass"] for r in report["per_sample"])
        assert report["errors"] == []


def test_exit_one_on_malformed_space(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"space": "fdlp:dim=0,p=2",
                               "samples": [[1.0]]}))
    proc = run_cli("embed", "--config", str(cfg))
    assert proc.returncode == 1
    assert "ConfigError" in proc.stderr
    assert "dim" in proc.stderr


@pytest.mark.parametrize("field, value", [
    ("m", 2.0), ("epsilon", "0.2"), ("tol_schedule", "abc"),
    ("samples", [[float("nan"), 1.0]]),
    ("count", "abc"), ("seed", "abc"), ("random_d", "abc"), ("K", 2.5),
    ("--seed", "-1"), ("gap_floor", "abc"), ("samples", [[3.0, 4.0, 5.0]]),
    ("samples", 5), ("d_samples", [[1.0, "x"]]), ("tol_schedule", [0.25, 0.5]),
    ("tol_schedule", [0.5]), ("m", 3), ("out", ["r.json"]), ("d_basis", [5]),
    ("classify_budget", 1), ("space", {"kind": "custom", "points": 5}),
    ("space", {"kind": "custom", "points": [["0.6", "0.8"]]}),
    ("d_basis", ["limit:nan,rate=1"]), ("d_basis", ["evconst:inf"]),
    ("d_basis", ["periodic:nan,1"]), ("tol_schedule", [0.5, 0.0]),
    ("count", None), ("samples", None), ("budgett", 3),
])
def test_exit_one_on_malformed_field(tmp_path, capsys, field, value):
    cfg = {"space": "fdlp:dim=2,p=2", "d_mode": "countable",
           "d_basis": ["periodic:-1,1", "evconst:0.5"], "samples": [[3.0, 4.0]]}
    argv = []
    if field.startswith("--"):          # a command-line value; it seeds random_d
        cfg["random_d"] = 2
        argv = [field, value]
    else:
        cfg[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))    # NaN is written as a bare NaN
    command = "suite" if field == "gap_floor" else "extend"
    assert main([command, "--config", str(path)] + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("ConfigError:") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [
    ["classify", "--budget", "abc"], ["suite", "--config", "basic", "--bogus"],
    ["classify", "--space", "c01"], ["frobnicate"], [],
])
def test_exit_one_on_malformed_command_line(argv, capsys):
    # argparse's own exit status 2 would read as an exhausted budget
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err
    assert run_cli(*argv).returncode == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out
    assert run_cli("classify", "--help").returncode == 0


def test_exit_one_on_gap_floor_too_fine_for_cells():
    # 2 / (1e-20 / 4) cells: past 2^62 their int64 indices would overflow
    proc = run_cli("classify", "--spec", "periodic:-1,1", "--gap-floor", "1e-20",
                   "--budget", "64")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stderr.startswith("ConfigError:") and proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stdout == ""


def test_exit_three_on_unexpected_error(monkeypatch, capsys):
    def fail(cfg, report):
        raise RuntimeError("boom")
    monkeypatch.setattr(cli, "run_extend", fail)
    assert main(["extend", "--config", "basic"]) == 3
    assert capsys.readouterr().err == "error: RuntimeError: boom\n"


def test_exit_one_on_missing_config():
    proc = run_cli("extend", "--config", "/no/such/file.json")
    assert proc.returncode == 1


def test_exit_two_on_starved_budget(tmp_path):
    cfg = tmp_path / "starved.json"
    cfg.write_text(json.dumps({
        "space": "fdlp:dim=2,p=2",
        "samples": [[3.0, 4.0]],
        "epsilon": 0.01,          # essentially no net point qualifies
        "count": 50,
        "witness_budget": 16,
    }))
    out = tmp_path / "r.json"
    proc = run_cli("embed", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    report = load_report(out)
    assert report["status"] == "budget-exhausted"
    assert report["budget_exhausted"]


# -- report shape and determinism ------------------------------------------

def test_report_schema(tmp_path):
    out = tmp_path / "r.json"
    proc = run_cli("suite", "--config", "finite_basis", "--out", str(out))
    assert proc.returncode == 0
    report = load_report(out)
    for key in ("config_echo", "per_sample", "witnesses", "verdicts",
                "seed", "versions", "timestamp", "scheme"):
        assert key in report, key
    for row in report["per_sample"]:
        assert set(row) == {"x_id", "lower", "achieved", "upper", "pass"}
    for w in report["witnesses"]:
        assert {"x_id", "d_id", "gap", "plus_indices", "minus_indices"} <= set(w)
    for v in report["verdicts"]:
        assert {"seq_id", "kind", "detail"} <= set(v)
    assert report["scheme"]["alpha"] == pytest.approx([-0.9375, 0.0625])


def test_reports_deterministic_modulo_timestamp(tmp_path):
    for name in BUNDLED:
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli("suite", "--config", name, "--out", str(a)).returncode == 0
        assert run_cli("suite", "--config", name, "--out", str(b)).returncode == 0
        ra, rb = load_report(a), load_report(b)
        ra.pop("timestamp"), rb.pop("timestamp")
        assert ra == rb, name


def test_seed_flag_controls_random_d(tmp_path):
    cfg = tmp_path / "seeded.json"
    cfg.write_text(json.dumps({
        "space": "fdlp:dim=2,p=2",
        "d_mode": "finite",
        "d_basis": ["periodic:-1,1", "periodic:1,-1,0"],
        "samples": [[3.0, 4.0]],
        "random_d": 2,
    }))
    outs = []
    for seed in ("7", "7", "8"):
        out = tmp_path / f"s{len(outs)}.json"
        proc = run_cli("extend", "--config", str(cfg), "--seed", seed,
                       "--out", str(out))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        r = load_report(out)
        r.pop("timestamp")
        outs.append(r)
    assert outs[0] == outs[1]
    assert outs[0]["config_echo"]["seed"] != outs[2]["config_echo"]["seed"]


def test_classify_subcommand_verdicts():
    proc = run_cli("classify", "--spec", "periodic:-1,1",
                   "--budget", "64", "--gap-floor", "1")
    assert proc.returncode == 0
    assert "NotInC" in proc.stdout


def test_classify_reports_gap(tmp_path):
    out = tmp_path / "c.json"
    proc = run_cli("classify", "--spec", "periodic:-1,1", "--budget", "64",
                   "--gap-floor", "1", "--out", str(out))
    assert proc.returncode == 0
    report = load_report(out)
    (verdict,) = report["verdicts"]
    assert verdict["kind"] == "NotInC"
    assert verdict["detail"]["gap"] == pytest.approx(2.0)


def test_classify_tagged_in_c():
    proc = run_cli("classify", "--spec", "limit:1,rate=2")
    assert proc.returncode == 0
    assert "InC" in proc.stdout


def test_summary_table_printed():
    proc = run_cli("embed", "--config", "basic")
    assert proc.returncode == 0
    assert "achieved" in proc.stdout
    assert "witnesses" in proc.stdout
