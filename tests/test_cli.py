import io
import json
import math
import os
import re
import reprlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from seqembed import (BudgetExhausted, SubspaceD, bw_extract, cli,
                      diagonal_extract, periodic)
from seqembed.cli import main, parse_seq_spec, validate_config
from seqembed.errors import ConfigError, _is_number
from seqembed.seqcore import coordinate

BUNDLED = ("basic", "finite_basis", "countable_family", "dense_family")


def run(capsys, *argv):
    """(exit status, stdout, stderr) of `main(argv)`, run in-process."""
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


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


@pytest.mark.parametrize("spec", [
    "combo:2*combo:1*periodic:1,-1+1*evconst:0.5",
    "combo:1*periodic:1,-1+3* combo:1*zero",
], ids=["first-term", "later-term"])
def test_parse_spec_rejects_a_nested_combo(spec):
    # the language has no grouping: the inner combo would take the outer
    # combo's later terms as its own, so it is refused, naming the spec
    with pytest.raises(ConfigError, match=rf"^bad sequence spec {re.escape(repr(spec))}: "
                                          r"combo term .* is a combo"):
        parse_seq_spec(spec)


@pytest.mark.parametrize("bad", [
    "periodic:", "evconst:x", "limit:2", "limit:2,speed=1",
    "combo:periodic:1", "fourier:1,2", "",
])
def test_parse_spec_rejects(bad):
    with pytest.raises(ConfigError):
        parse_seq_spec(bad)


@pytest.mark.parametrize("spec, plain", [
    ("combo:1e+0*periodic:1,-1", "combo:1*periodic:1,-1"),
    ("combo:1*periodic:1e+0,-1", "combo:1*periodic:1,-1"),
    ("combo:2.5E+1*periodic:1e+0,-1E+0+1.e-1*limit:1e+1,rate=2e+0",
     "combo:25*periodic:1,-1+0.1*limit:10,rate=2"),
    (f"combo:{1e16!r}*periodic:1,-1+1*evconst:1e+0@2",
     "combo:10000000000000000*periodic:1,-1+1*evconst:1@2"),
], ids=["coeff", "pattern", "two-terms", "repr-1e16"])
def test_parse_combo_spec_with_exponents(spec, plain):
    # a + after <digit>e is an exponent sign, not a term break, as in
    # repr(1e16) == '1e+16'
    s, want = parse_seq_spec(spec), parse_seq_spec(plain)
    assert s.tag.coeffs == want.tag.coeffs
    assert [c.tag for c in s.tag.children] == [c.tag for c in want.tag.children]
    assert [coordinate(s, n) for n in range(1, 7)] == [coordinate(want, n) for n in range(1, 7)]


def test_classify_combo_spec_with_exponent(capsys):
    code, out, err = run(capsys, "classify", "--spec", "combo:1e+0*periodic:1,-1",
                         "--budget", "64", "--gap-floor", "1")
    assert code == 0, out + err
    assert "verdict combo:1e+0*periodic:1,-1: NotInC" in out


@pytest.mark.parametrize("start, code", [("1048577", 0), ("0", 1),
                                         ("99999999999999999999", 1)])
def test_classify_evconst_start(capsys, start, code):
    # nothing is built per index below the start: any start in 1..2^63-1 reads
    spec = f"evconst:1@{start}"
    got, out, err = run(capsys, "classify", "--spec", spec, "--budget", "64",
                        "--gap-floor", "1")
    assert got == code, out + err
    if code == 0:
        assert f"verdict {spec}: InC" in out
    else:
        assert err.startswith("ConfigError:") and err.count("\n") == 1, err


@pytest.mark.parametrize("spec, message", [
    ("evconst:inf", "bad sequence spec 'evconst:inf': eventually constant"),
    ("combo:1*limit:1,rate=1e400", "bad sequence spec 'combo:1*limit:1,rate=1e400': "
                                   "bad sequence spec 'limit:1,rate=1e400': explicit limit"),
], ids=["evconst-inf", "combo-limit-rate-1e400"])
def test_classify_spec_error_names_the_spec(capsys, spec, message):
    # a library error raised while parsing names the spec; a combo
    # names the failing child inside itself
    got, out, err = run(capsys, "classify", "--spec", spec)
    assert got == 1, out + err
    assert err.startswith(f"ConfigError: {message}") and err.count("\n") == 1, err


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


def test_validate_config_gives_each_config_its_own_lists():
    first = validate_config({"space": "c01"})
    for key in ("d_basis", "sequences", "samples"):
        first[key].append("x")
    second = validate_config({"space": "c01"})
    assert [second[key] for key in ("d_basis", "sequences", "samples")] == [[], [], []]


def test_is_number_is_finite_int_or_float():
    assert _is_number(np.float64(2.0)) and _is_number(sys.float_info.max)
    assert _is_number(-sys.float_info.max) and _is_number(3)
    for v in (True, "3", math.nan, math.inf, -math.inf, 10**400, -10**400):
        assert not _is_number(v), v


def test_validate_config_ranges():
    with pytest.raises(ConfigError):
        validate_config({"space": "c01", "epsilon": 0.0})
    with pytest.raises(ConfigError):
        validate_config({"space": "c01", "count": 0})
    with pytest.raises(ConfigError):
        validate_config({"space": "c01", "d_mode": "sparse"})


# -- exit-code contract ---------------------------------------------------

def test_exit_zero_on_bundled_suites(tmp_path, capsys):
    for name in BUNDLED:
        out = tmp_path / f"{name}.json"
        code, stdout, err = run(capsys, "suite", "--config", name, "--out", str(out))
        assert code == 0, stdout + err
        report = load_report(out)
        assert report["status"] == "pass"
        assert all(r["pass"] for r in report["per_sample"])
        assert report["errors"] == []


def test_exit_one_on_malformed_space(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"space": "fdlp:dim=0,p=2",
                               "samples": [[1.0]]}))
    code, _, err = run(capsys, "embed", "--config", str(cfg))
    assert code == 1
    assert "ConfigError" in err
    assert "dim" in err


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
    ("samples", [["3", 4.0]]), ("samples", [[True, 1.0]]),
    # ints too large for a float, a bool in a custom net, an exponent past float range
    pytest.param("epsilon", 10**400, id="epsilon-10**400"),
    pytest.param("gap_floor", 10**400, id="gap_floor-10**400"),
    ("tol_schedule", [0.5, 10**400]),
    ("d_samples", [[1.0, 10**400]]), ("samples", [[10**400, 4.0]]),
    ("space", {"kind": "custom", "points": [[True, 0.0], [0.0, 1.0]]}),
    # a custom net allows no functionals field: the duality map norms its points
    ("space", {"kind": "custom", "points": [[1.0, 0.0], [0.0, 1.0]],
               "functionals": [[True, 0.0], [0.0, 1.0]]}),
    ("space", {"kind": "fdlp", "dim": 2, "p": 10**400}), ("space", "fdlp:dim=2,p=1e400"),
    # an evconst start of 2^63 or more, or not plain decimal digits
    ("d_basis", ["evconst:1@99999999999999999999"]), ("d_basis", ["evconst:1@1_000"]),
    # an evconst start below 1; a name that is not a string
    ("d_basis", ["evconst:1@0"]), ("name", math.nan), ("name", {"x": math.inf}),
    # functionals, even ones that take 1 at their points, are not a custom net field
    ("space", {"kind": "custom", "points": [[1, 0], [0, 1], [-1, 0], [0, -1]],
               "functionals": [[1, 5], [0, 1], [-1, 0], [0, -1]]}),
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


def test_custom_net_is_given_inline_only(tmp_path, capsys):
    # the duality map norms a custom net's points, so a functionals field
    # is unknown even when its rows norm them, and no spec names a net file
    net = {"kind": "custom", "points": [[0.6, 0.8], [1, 0], [0, 1], [-1, 0], [0, -1]]}
    (tmp_path / "net.json").write_text(json.dumps(net))
    cfg = {"samples": [[3.0, 4.0]], "K": 16, "count": 2, "epsilon": 0.3}
    for space in ({**net, "functionals": net["points"]},
                  f"custom:{tmp_path / 'net.json'}"):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**cfg, "space": space}))
        assert main(["embed", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ConfigError:") and err.count("\n") == 1, err
        if isinstance(space, dict):
            assert "allows ['p']" in err
    path.write_text(json.dumps({**cfg, "space": net}))
    assert main(["embed", "--config", str(path), "--out", str(tmp_path / "r.json")]) == 0


def test_bad_sample_names_the_configs_space(tmp_path, capsys):
    # the space as the config gives it, here an inline custom net
    net = {"kind": "custom", "points": [[0.6, 0.8], [1, 0], [0, 1]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"space": net, "samples": [[3.0, 4.0, 5.0]]}))
    code, out, err = run(capsys, "embed", "--config", str(path))
    assert code == 1 and not out
    assert err.startswith(f"ConfigError: bad sample for {reprlib.repr(net)}: "), err


@pytest.mark.parametrize("space, sample", [
    ("seqlp:p=2,support=4", {"1": "2.5"}), ("seqlp:p=2,support=4", {"1": 1.0, "2": True}),
    ("c01", {"breaks": ["0", 1], "values": [1.0, 2.0]}),
    ("c01", {"breaks": [0, 1], "values": [True, "2"]}),
    ("seqlp:p=2,support=4", {"1": 10**400}),
    ("c01", {"breaks": [0, 1], "values": [10**400, 1.0]}),
    # int() would read these keys as indices 1, 10 and 2
    ("seqlp:p=2,support=4", {"01": 2.0}), ("seqlp:p=2,support=4", {"1_0": 2.0}),
    ("seqlp:p=2,support=4", {" 2": 2.0}),
])
def test_exit_one_on_sample_coordinate_not_a_number(tmp_path, capsys, space, sample):
    # float() would take each of these silently, as for fdlp above
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"space": space, "samples": [sample]}))
    assert main(["embed", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ConfigError:") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["embed", "suite"])
def test_exit_one_on_c01_sample_with_unknown_fields(tmp_path, capsys, command):
    # a c01 sample names its breaks and values and nothing else, as
    # every other outside input rejects fields it does not know
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"space": "c01", "samples": [
        {"breaks": [0, 1], "values": [1, 2], "x": 1, "y": 2}]}))
    assert main([command, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ConfigError:") and "['x', 'y']" in err, err
    assert err.count("\n") == 1, err


def test_exit_one_on_int_past_python_digit_limit(tmp_path, capsys):
    # json.loads raises a ValueError that is not a JSONDecodeError
    path = tmp_path / "bad.json"
    path.write_text('{"space": "c01", "samples": [1%s]}' % ("0" * 5000))
    assert main(["embed", "--config", str(path)]) == 1
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


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out
    assert main(["classify", "--help"]) == 0
    assert "--gap-floor" in capsys.readouterr().out


def test_one_parser_serves_successive_calls(tmp_path, capsys):
    # the parser is built once per process: --spec lists do not carry
    # over from one call to the next, and help and a usage error still
    # give 0 and 1 between calls
    assert cli._parser() is cli._parser()
    specs = [["periodic:-1,1"], ["limit:1,rate=2", "periodic:2,-2,0"], ["periodic:-1,1"]]
    for i, these in enumerate(specs):
        out = tmp_path / f"c{i}.json"
        argv = ["classify", "--budget", "64", "--gap-floor", "1", "--out", str(out)]
        assert main(argv + [a for s in these for a in ("--spec", s)]) == 0
        assert [v["seq_id"] for v in load_report(out)["verdicts"]] == these
        assert main(["classify", "--help"]) == 0
        assert main(["classify", "--budget", "abc"]) == 1
        capsys.readouterr()


def test_exit_one_on_gap_floor_too_fine_for_cells(capsys):
    # 2 / (1e-20 / 4) cells: past 2^62 their int64 indices would overflow
    code, out, err = run(capsys, "classify", "--spec", "periodic:-1,1",
                         "--gap-floor", "1e-20", "--budget", "64")
    assert code == 1, out + err
    assert err.startswith("ConfigError:") and err.count("\n") == 1, err
    assert out == ""


def test_exit_one_on_gap_floor_whose_quarter_rounds_to_zero(capsys):
    # 1e-323 / 4 is 0.0: the message names the gap floor the user set,
    # not the cell width derived from it
    code, out, err = run(capsys, "classify", "--spec", "periodic:1,-1",
                         "--budget", "64", "--gap-floor", "1e-323")
    assert code == 1, out + err
    assert err == ("ConfigError: classify periodic:1,-1: gap_floor = 1e-323 "
                   "must be positive, and so must its quarter\n")
    assert out == ""


def test_exit_one_on_budget_past_int64(capsys):
    # a window of 2^63 indices: it exited 3 on len()'s OverflowError
    code, out, err = run(capsys, "classify", "--spec", "periodic:1,-1",
                         "--budget", str(2 ** 63))
    assert code == 1, out + err
    assert err == (f"ConfigError: classify periodic:1,-1: window range(1, {2 ** 63 + 1}) "
                   f"stops past 2^63, where int64 indices wrap\n")
    assert out == ""


def test_exit_one_on_a_window_that_reads_as_empty(capsys):
    # numpy's arange over 1..2^63 - 1 is empty: it classified the empty
    # read as Unknown with no cell seen and exited 0
    code, out, err = run(capsys, "classify", "--spec", "periodic:1,-1",
                         "--budget", str(2 ** 63 - 1))
    assert code == 1, out + err
    assert err == (f"ConfigError: classify periodic:1,-1: coordinates 1..{2 ** 63 - 1} "
                   f"read 0 values\n")
    assert out == ""


def test_exit_three_on_unexpected_error(monkeypatch, capsys):
    def fail(cfg, report):
        raise RuntimeError("boom")
    monkeypatch.setattr(cli, "run_extend", fail)
    assert main(["extend", "--config", "basic"]) == 3
    assert capsys.readouterr().err == "error: RuntimeError: boom\n"


def test_closed_stdout_is_no_error(capsys, monkeypatch):
    # the report is written before the summary; a reader that stops
    # early (`| head -1`) leaves the run's status and an empty stderr
    class Closed(io.StringIO):
        def write(self, s):
            raise BrokenPipeError(32, "Broken pipe")
    monkeypatch.setattr(sys, "stdout", Closed())
    assert main(["classify", "--spec", "periodic:-1,1"]) == 0
    assert capsys.readouterr().err == ""
    # only a process shows the flush of a closed stdout at interpreter exit
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen([sys.executable, "-m", "seqembed.cli", "classify",
                             "--spec", "periodic:-1,1"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    assert proc.stderr.read() == b""
    assert proc.wait() == 0


def test_exit_one_on_missing_config(capsys):
    code, _, err = run(capsys, "extend", "--config", "/no/such/file.json")
    assert code == 1
    assert err.startswith("ConfigError:") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv, cfg, says", [
    pytest.param(["suite", "--config", "no_such_config"], None, "no bundled config",
                 id="unknown-bundled-name"),
    pytest.param(["embed", "--config", "CFG"], [{"space": "c01"}], "must be a JSON object",
                 id="not-an-object"),
    pytest.param(["embed", "--config", "CFG"], {"space": "fdlp:dim=2,p=2"},
                 "at least one sample", id="no-samples"),
    pytest.param(["extend", "--config", "CFG"],
                 {"space": "fdlp:dim=2,p=2", "samples": [[3.0, 4.0]],
                  "d_basis": ["periodic:-1,1", "evconst:0.5"], "d_samples": [[1.0]]},
                 "d_samples row of length 1", id="d-samples-row-length"),
    pytest.param(["classify"], None, "classify needs --spec", id="classify-without-specs"),
    *(pytest.param([command], None, f"{command} requires --config",
                   id=f"{command}-without-config") for command in ("embed", "extend", "suite")),
])
def test_exit_one_on_config_error(tmp_path, capsys, argv, cfg, says):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, *(str(path) if a == "CFG" else a for a in argv))
    assert code == 1 and out == ""
    assert err.startswith("ConfigError:") and says in err and err.count("\n") == 1, err


#: small budgets, so these runs take milliseconds
SMALL = {"K": 16, "count": 2, "witness_budget": 2000, "classify_budget": 256}


@pytest.mark.parametrize("cfg, rows", [
    pytest.param({"space": "seqlp:p=2,support=4", "samples": [{"1": 1.0, "3": -0.5}, {"2": 2.0}]},
                 2, id="seqlp"),
    pytest.param({"space": "c01", "samples": [{"breaks": [0, 0.5, 1], "values": [1.0, -0.5, 0.25]}]},
                 1, id="c01"),
])
def test_embed_on_sequence_and_function_spaces(tmp_path, capsys, cfg, rows):
    # pinned as they run: exit 0, and one defect row, one witness and
    # one NotInC verdict per sample
    path, out = tmp_path / "cfg.json", tmp_path / "r.json"
    path.write_text(json.dumps({**cfg, **SMALL}))
    code, stdout, err = run(capsys, "embed", "--config", str(path), "--out", str(out))
    assert code == 0, stdout + err
    report = load_report(out)
    assert [len(report[k]) for k in ("per_sample", "witnesses", "verdicts")] == [rows] * 3
    assert {v["kind"] for v in report["verdicts"]} == {"NotInC"}
    assert report["budget_exhausted"] == report["errors"] == []


def test_suite_classifies_config_sequences(tmp_path, capsys):
    path, out = tmp_path / "cfg.json", tmp_path / "r.json"
    path.write_text(json.dumps({"space": "fdlp:dim=2,p=2", "samples": [[3.0, 4.0]],
                                "d_samples": [[]], "sequences": ["zero", "periodic:1,-1"],
                                **SMALL}))
    code, stdout, err = run(capsys, "suite", "--config", str(path), "--out", str(out))
    assert code == 0, stdout + err
    verdicts = load_report(out)["verdicts"]
    assert [(v["seq_id"], v["kind"]) for v in verdicts] == [
        ("T(x0)", "NotInC"), ("zero", "InC"), ("periodic:1,-1", "NotInC")]
    assert verdicts[1]["detail"]["limit"] == 0.0


STARVED = {
    "space": "fdlp:dim=2,p=2",
    "samples": [[3.0, 4.0]],
    "epsilon": 0.01,          # essentially no net point qualifies
    "count": 50,
    "witness_budget": 16,
}


def test_exit_two_on_starved_budget(tmp_path, capsys):
    cfg = tmp_path / "starved.json"
    cfg.write_text(json.dumps(STARVED))
    out = tmp_path / "r.json"
    code, stdout, err = run(capsys, "embed", "--config", str(cfg), "--out", str(out))
    assert code == 2, stdout + err
    report = load_report(out)
    assert report["status"] == "budget-exhausted"
    assert report["budget_exhausted"]


def test_exit_two_on_extraction_out_of_budget(tmp_path, capsys):
    # 6 scanned indices leave 3 survivors, short of the 2 * depth = 8 a
    # scheme needs: no witnesses, and the partial scheme is reported
    cfg = tmp_path / "short.json"
    cfg.write_text(json.dumps({"space": "fdlp:dim=2,p=2", "samples": [[3.0, 4.0]],
                               "d_basis": ["periodic:-1,1"], "depth": 4,
                               "scan_budget": 6}))
    out = tmp_path / "r.json"
    code, stdout, err = run(capsys, "extend", "--config", str(cfg), "--out", str(out))
    assert code == 2, stdout + err
    report = load_report(out)
    with pytest.raises(BudgetExhausted) as exc:
        bw_extract(SubspaceD("finite", (periodic([-1.0, 1.0]),)), 4, 6)
    assert report["budget_exhausted"] == [{"stage": "extraction",
                                           "detail": str(exc.value)}]
    assert report["scheme"] == exc.value.partial.to_json()
    assert report["witnesses"] == [] and report["errors"] == []


def test_exit_two_on_an_empty_target_band(tmp_path, capsys):
    # err(L) = 0.933 of d along the depth-1 scheme exceeds ||x0|| (1 - epsilon)
    # = 0.008: x0's band against d is empty, and x1's witnesses stand
    cfg = tmp_path / "empty_band.json"
    cfg.write_text(json.dumps({"space": "fdlp:dim=2,p=2", "samples": [[0.01, 0.0], [3.0, 4.0]],
                               "d_basis": ["periodic:1,-1,0.5,-0.5,0.9,-0.2"],
                               "d_samples": [[1.0]], "depth": 1, "K": 16}))
    out = tmp_path / "r.json"
    code, stdout, err = run(capsys, "suite", "--config", str(cfg), "--out", str(out))
    assert code == 2, stdout + err
    report = load_report(out)
    [row] = report["budget_exhausted"]
    assert (row["x_id"], row["d_id"], row["found"]) == (0, 1, 0)
    assert "target_hi = -0.35" in row["detail"] and "target_lo = 1.49" in row["detail"]
    assert [(w["x_id"], w["d_id"]) for w in report["witnesses"]] == [(0, 0), (1, 0), (1, 1)]
    assert all(w["gap"] > 0.0 for w in report["witnesses"])


@pytest.mark.parametrize("command", ["extend", "suite"])
def test_exit_two_on_one_entry_diagonal_prefix(tmp_path, capsys, command):
    # one member and one scanned index leave a one-entry prefix, no
    # pair to place phi_1 on: an extraction row, not IndexZero's exit 3
    cfg = tmp_path / "one.json"
    cfg.write_text(json.dumps({"space": "fdlp:dim=2,p=2", "samples": [[3.0, 4.0]],
                               "d_mode": "countable", "d_basis": ["periodic:-1,1"],
                               "m": 1, "scan_budget": 1}))
    out = tmp_path / "r.json"
    code, stdout, err = run(capsys, command, "--config", str(cfg), "--out", str(out))
    assert code == 2, stdout + err
    report = load_report(out)
    with pytest.raises(BudgetExhausted) as exc:
        diagonal_extract(SubspaceD("countable", (periodic([-1.0, 1.0]),)), 1, [0.5], 1)
    assert report["budget_exhausted"] == [{"stage": "extraction",
                                           "detail": str(exc.value)}]
    assert report["scheme"] == exc.value.partial.to_json()
    assert report["witnesses"] == [] and report["per_sample"] == []


def test_exit_one_when_embedded_image_is_not_not_in_c(tmp_path, capsys):
    # no two clusters of T(x) are 100 apart when ||x|| = 5
    cfg = tmp_path / "floor.json"
    cfg.write_text(json.dumps({"space": "fdlp:dim=2,p=2", "samples": [[3.0, 4.0]],
                               "gap_floor": 100.0}))
    out = tmp_path / "r.json"
    code, stdout, err = run(capsys, "embed", "--config", str(cfg), "--out", str(out))
    assert code == 1, stdout + err
    report = load_report(out)
    assert [v["kind"] for v in report["verdicts"]] == ["Unknown"]
    assert report["errors"] == [{"seq_id": "T(x0)", "error":
                                 "embedded image classified Unknown, expected NotInC"}]


@pytest.mark.parametrize("command", ["embed", "suite"])
def test_exit_zero_on_sample_of_norm_below_one_millionth(tmp_path, capsys, command):
    # ||x|| = 5e-7: T(x) oscillates between +-||x||, so its gap floor is
    # ||x||, not a fixed floor of 1e-6 that no cluster pair could clear
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps({"space": "fdlp:dim=2,p=2", "samples": [[3e-7, 4e-7]],
                               "K": 16, "count": 2, "epsilon": 0.3}))
    out = tmp_path / "r.json"
    code, stdout, err = run(capsys, command, "--config", str(cfg), "--out", str(out))
    assert code == 0, stdout + err
    report = load_report(out)
    assert [v["kind"] for v in report["verdicts"]] == ["NotInC"]
    assert report["errors"] == []


@pytest.mark.parametrize("command, kind", [("embed", "oscillation"),
                                           ("suite", "separation")])
def test_zero_sample_error_rows(tmp_path, capsys, command, kind):
    # the defect row has no d; the witness row has the shape of every
    # witness-stage row, in embed (d = 0 only) as in suite
    cfg = tmp_path / "zero.json"
    cfg.write_text(json.dumps({"space": "fdlp:dim=2,p=2",
                               "samples": [[0.0, 0.0], [3.0, 4.0]]}))
    out = tmp_path / "r.json"
    code, stdout, err = run(capsys, command, "--config", str(cfg), "--out", str(out))
    assert code == 1, stdout + err
    assert load_report(out)["errors"] == [
        {"x_id": 0, "error": "ZeroElement: isometry defect needs a nonzero element"},
        {"x_id": 0, "d_id": 0,
         "error": f"ZeroElement: {kind} witness needs a nonzero element"}]


@pytest.mark.parametrize("argv, status, stream, text", [
    pytest.param(["frobnicate"], 1, "stderr", "usage: seqembed", id="malformed-command-line"),
    pytest.param(["embed", "--config", "STARVED"], 2, "stdout", "[budget-exhausted]",
                 id="starved-budget"),
])
def test_process_exit_status(tmp_path, argv, status, stream, text):
    # `python -m seqembed.cli` hands main's return value to sys.exit; the
    # installed console script is checked the same way in CI
    cfg = tmp_path / "starved.json"
    cfg.write_text(json.dumps(STARVED))
    argv = [str(cfg) if a == "STARVED" else a for a in argv]
    proc = subprocess.run([sys.executable, "-m", "seqembed.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == status, proc.stdout + proc.stderr
    assert text in getattr(proc, stream), proc.stdout + proc.stderr


# -- reports hold finite numbers -------------------------------------------

def test_huge_basis_bound_gives_finite_tolerances(tmp_path, capsys):
    # the squares of the cell sides 1e200 / 2^(level - 1) are past float range
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps({"space": "fdlp:dim=2,p=2",
                               "d_basis": ["periodic:1e200,-1e200"],
                               "samples": [[3.0, 4.0]]}))
    out = tmp_path / "r.json"
    code, stdout, err = run(capsys, "extend", "--config", str(cfg), "--out", str(out))
    assert code == 0, stdout + err
    report = json.loads(out.read_text(), parse_constant=lambda c: pytest.fail(f"report holds {c}"))
    assert report["scheme"]["tol_schedule"] == [5e199, 2.5e199, 1.25e199, 6.25e198]


@pytest.mark.parametrize("spec, gap_floor, says", [
    # 80 cells, but 2 * bound is past float range
    pytest.param("periodic:1e308,-1e308", "1e307", "bound 1e+308 is over float_max / 2",
                 id="cell-offsets"),
    # finite values whose sup-norm bound, 2e308, is past float range
    pytest.param("combo:2*periodic:1e308,-1e308", "1", "bound of a combination",
                 id="combination"),
    pytest.param("limit:1e308,rate=1e308", "1", "explicit limit or its bound",
                 id="explicit-limit"),
])
def test_exit_one_on_bound_past_float_range(capsys, spec, gap_floor, says):
    code, out, err = run(capsys, "classify", "--spec", spec, "--gap-floor", gap_floor)
    assert code == 1, out + err
    assert err.startswith("ConfigError:") and err.count("\n") == 1, err
    assert says in err


def test_extraction_errors_print_plain_floats(tmp_path, capsys):
    # the cell bounds of an extraction are numpy scalars
    cfg = tmp_path / "deep.json"
    cfg.write_text(json.dumps({"space": "fdlp:dim=2,p=2", "d_basis": ["periodic:1,-1"],
                               "samples": [[3.0, 4.0]], "depth": 70}))
    code, _, err = run(capsys, "extend", "--config", str(cfg))
    assert code == 1
    assert err == ("ConfigError: over 2^62 cells of width 2.168404344971009e-19 "
                   "in [-1.0, 1.0]\n")


def test_report_with_nan_is_not_written(tmp_path, monkeypatch, capsys):
    def nan_defect(cfg, report):
        report["max_relative_defect"] = math.nan
    monkeypatch.setattr(cli, "run_extend", nan_defect)
    out = tmp_path / "r.json"
    assert main(["extend", "--config", "basic", "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error: ValueError: Out of range float")
    assert not out.exists()


# -- report text -----------------------------------------------------------

def stdlib_text(obj):
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)


_STRINGS = st.text(st.characters() | st.sampled_from(',"[{}]\n\\:'), max_size=6)
_LEAVES = (st.none() | st.booleans() | st.integers(-2**200, 2**200) | _STRINGS
           | st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from([-0.0, 0.0, 5e-324, 1e308, -1e308]))
# flat lists of ints and floats take the C encoder's path; a flat list
# with any other leaf recurses
_NUMBERS = st.integers(-2**70, 2**70) | st.floats(allow_nan=False, allow_infinity=False)
_FLAT = st.lists(_NUMBERS, max_size=12) | st.lists(_NUMBERS | _LEAVES, max_size=6)
_TREES = st.recursive(
    _LEAVES | _FLAT,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_STRINGS, inner, max_size=4)),
    max_leaves=20)


@settings(max_examples=100, deadline=None)
@given(_TREES)
@example({"empty": [[], {}, ()], "numbers": [-0.0, 5e-324, 1e308, 2**100, -1],
          "mixed": [[1, 2.5], [True, None, False], [1, "a,b", 2.5]],
          "text": ',"[{\n\u00e9\u4e2d'})
@example({"a": [{1: "x", 2.5: [1, 2]}, {None: True}]})     # keys json.dumps converts
def test_report_text_is_stdlib_json_text(obj):
    assert cli._report_text(obj) == stdlib_text(obj)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_report_text_rejects_non_finite_floats_as_stdlib_does(bad):
    for obj in (bad, [bad], [1, 2.5, bad], [[bad]], (True, bad),
                {"a": {"b": [0.0, bad]}}):
        with pytest.raises(ValueError) as ours:
            cli._report_text(obj)
        with pytest.raises(ValueError) as stdlib:
            stdlib_text(obj)
        assert str(ours.value) == str(stdlib.value)


def test_bundled_suite_reports_are_stdlib_json_text(tmp_path, capsys):
    for name in BUNDLED:
        out = tmp_path / f"{name}.json"
        assert run(capsys, "suite", "--config", name, "--out", str(out))[0] == 0
        text = out.read_text(encoding="utf-8")
        assert text == stdlib_text(json.loads(text)) + "\n"


# -- report shape and determinism ------------------------------------------

def test_report_schema(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run(capsys, "suite", "--config", "finite_basis", "--out", str(out))[0] == 0
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


def test_seed_flag_controls_random_d(tmp_path, capsys):
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
        code, stdout, err = run(capsys, "extend", "--config", str(cfg), "--seed", seed,
                                "--out", str(out))
        assert code == 0, stdout + err
        r = load_report(out)
        r.pop("timestamp")
        outs.append(r)
    assert outs[0] == outs[1]
    assert outs[0]["config_echo"]["seed"] != outs[2]["config_echo"]["seed"]


def test_classify_subcommand_verdicts(capsys):
    code, out, _ = run(capsys, "classify", "--spec", "periodic:-1,1",
                       "--budget", "64", "--gap-floor", "1")
    assert code == 0
    assert "NotInC" in out


def test_classify_reports_gap(tmp_path, capsys):
    out = tmp_path / "c.json"
    code, _, _ = run(capsys, "classify", "--spec", "periodic:-1,1", "--budget", "64",
                     "--gap-floor", "1", "--out", str(out))
    assert code == 0
    report = load_report(out)
    (verdict,) = report["verdicts"]
    assert verdict["kind"] == "NotInC"
    assert verdict["detail"]["gap"] == pytest.approx(2.0)


@pytest.mark.parametrize("space, message", [
    ("nonsense", "unknown space kind 'nonsense'"),
    ("fdlp:dim=0", "dim = 0 must be >= 1"),
    ({"kind": "custom", "points": [[2.0, 0.0]]}, "custom net point [2. 0.] is not unit"),
])
def test_classify_rejects_a_malformed_space(tmp_path, capsys, space, message):
    # classify never enumerates the space it echoes, but checks it
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"space": space, "samples": [[1]],
                                "sequences": ["periodic:1,-1"]}))
    code, out, err = run(capsys, "classify", "--config", str(path))
    assert code == 1 and not out
    assert err == f"ConfigError: {message}\n"


def test_classify_tagged_in_c(capsys):
    code, out, _ = run(capsys, "classify", "--spec", "limit:1,rate=2")
    assert code == 0
    assert "InC" in out


def test_classify_echoes_its_specs(tmp_path, capsys):
    # --spec is a config override like --seed, so the report says what ran
    out = tmp_path / "r.json"
    code, stdout, err = run(capsys, "classify", "--spec", "periodic:-1,1", "--spec", "zero",
                            "--budget", "64", "--out", str(out))
    assert code == 0, stdout + err
    report = load_report(out)
    assert report["config_echo"]["sequences"] == ["periodic:-1,1", "zero"]
    assert [v["seq_id"] for v in report["verdicts"]] == ["periodic:-1,1", "zero"]
    # without a config nothing is sampled, and nothing is echoed as sampled
    assert report["config_echo"]["samples"] == []
    assert report["config_echo"]["space_spec"] == "fdlp:dim=1,p=2"


@pytest.mark.parametrize("sequences", [["evconst:1", "zero"], 5], ids=["other", "malformed"])
def test_spec_flag_replaces_config_sequences(tmp_path, capsys, sequences):
    path, out = tmp_path / "cfg.json", tmp_path / "r.json"
    path.write_text(json.dumps({"space": "fdlp:dim=2,p=2", "samples": [[3.0, 4.0]],
                                "sequences": sequences}))
    code, stdout, err = run(capsys, "classify", "--config", str(path), "--spec",
                            "periodic:-1,1", "--budget", "64", "--out", str(out))
    assert code == 0, stdout + err
    report = load_report(out)
    assert report["config_echo"]["sequences"] == ["periodic:-1,1"]
    assert [v["seq_id"] for v in report["verdicts"]] == ["periodic:-1,1"]


@pytest.mark.parametrize("flag, field, written", [
    ("flag.json", None, "flag.json"),
    (None, "field.json", "field.json"),
    ("flag.json", "field.json", "flag.json"),
    ("flag.json", 5, "flag.json"),          # the flag replaces a malformed field
])
def test_out_flag_replaces_config_out(tmp_path, capsys, monkeypatch, flag, field, written):
    monkeypatch.chdir(tmp_path)
    cfg = {"space": "fdlp:dim=2,p=2", "samples": [[3.0, 4.0]], "sequences": ["zero"]}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg if field is None else {**cfg, "out": field}))
    code, stdout, err = run(capsys, "classify", "--config", "cfg.json",
                            *(() if flag is None else ("--out", flag)))
    assert code == 0, stdout + err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["cfg.json", written])
    assert load_report(tmp_path / written)["verdicts"][0]["seq_id"] == "zero"


def test_summary_table_printed(capsys):
    code, out, _ = run(capsys, "embed", "--config", "basic")
    assert code == 0
    assert "achieved" in out
    assert "witnesses" in out
