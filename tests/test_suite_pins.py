"""Index-level output of `seqembed suite` on the bundled configs, and
of a c01 `embed` and `suite` run on configs written here.

Pins what must not move when the code is only reorganised: exit code,
status, the scheme prefix (as a digest), witness indices, verdict kinds
and indices (as digests), and budget-exhausted entries. Floats are left
out, so numpy and Python versions that round differently cannot make it
flaky. Re-record the bundled pins with `PYTHONPATH=src python
tests/test_suite_pins.py`, and edit `C01_PINS` by hand, only when a
change moves these outputs on purpose.
"""
import hashlib
import json
import pathlib

import pytest

from seqembed.cli import main

BUNDLED = ("basic", "finite_basis", "countable_family", "dense_family")
PINS = pathlib.Path(__file__).with_name("suite_pins.json")


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def index_level(name: str, out: pathlib.Path, command: str = "suite") -> dict:
    """Run `command --config name` in-process and keep its index-level output."""
    code = main([command, "--config", name, "--out", str(out)])
    rep = json.loads(out.read_text(encoding="utf-8"))
    scheme = rep.get("scheme")
    return {
        "code": code,
        "status": rep["status"],
        "scheme": _digest(scheme["prefix"]) if scheme else None,
        "witnesses": [[w["x_id"], w["d_id"], w["plus_indices"], w["minus_indices"]]
                      for w in rep["witnesses"]],
        "verdicts": [[v["seq_id"], v["kind"],
                      _digest([v["detail"].get("plus_indices"),
                               v["detail"].get("minus_indices")])]
                     for v in rep["verdicts"]],
        "budget_exhausted": [[b.get("x_id"), b.get("d_id"), b.get("found"),
                              b.get("stage")] for b in rep["budget_exhausted"]],
    }


@pytest.mark.parametrize("name", BUNDLED)
def test_suite_index_level_output_pinned(name, tmp_path):
    pinned = json.loads(PINS.read_text(encoding="utf-8"))[name]
    assert index_level(name, tmp_path / "report.json") == pinned


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pins = {name: index_level(name, pathlib.Path(tmp) / "report.json")
                for name in BUNDLED}
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


#: every bundled config is fdlp, so two c01 runs are pinned here, with
#: their configs: an `embed` and a `suite` over `countable_family`'s
#: basis. Samples take the value 0 at grid points, where c01's
#: functionals once read -0.0.
_C01_SAMPLES = [{"breaks": [0, 0.5, 1], "values": [1.0, -1.0, 0.0]},
                {"breaks": [0, 0.5, 1], "values": [0.0, 2.0, -2.0]}]
C01_CONFIGS = {
    "embed": {"space": "c01", "samples": _C01_SAMPLES, "epsilon": 0.2, "count": 5,
              "K": 64, "witness_budget": 100000, "classify_budget": 2048},
    "suite": {"space": "c01", "d_mode": "countable",
              "d_basis": ["combo:2*periodic:-1,1", "combo:1.5*periodic:1,-1,0",
                          "combo:1.3333333333333333*periodic:1,1,-1,-1",
                          "combo:1.25*periodic:0,1,0,-1",
                          "combo:1.2*periodic:1,0,0,-1,0"],
              "m": 5, "tol_schedule": [0.5, 0.25, 0.125, 0.0625, 0.03125],
              "samples": _C01_SAMPLES, "d_samples": [[0.0] * 5, [1.0] + [0.0] * 4],
              "epsilon": 0.2, "count": 5, "K": 64, "scan_budget": 40000,
              "witness_budget": 100000, "classify_budget": 4096, "seed": 0},
}
C01_PINS = {
    "embed": {"code": 0, "status": "pass", "scheme": None,
              "witnesses": [[0, 0, [37, 215, 255, 725, 809], [38, 216, 256, 726, 810]],
                            [1, 0, [29, 183, 191, 653, 665], [30, 184, 192, 654, 666]]],
              "verdicts": [["T(x0)", "NotInC", "6b90b8e89229e631"],
                           ["T(x1)", "NotInC", "d101f7eb412415d6"]],
              "budget_exhausted": []},
    "suite": {"code": 0, "status": "pass", "scheme": "b103877fb0e8c045",
              "witnesses": [[0, 0, [735, 4287, 5103, 14487, 16167],
                             [723, 4275, 5067, 14475, 16155]],
                            [0, 1, [735, 4287, 5103, 14487, 16167],
                             [723, 4275, 5067, 14475, 16155]],
                            [1, 0, [567, 3663, 3807, 13047, 13287],
                             [555, 3627, 3795, 13035, 13275]],
                            [1, 1, [567, 3663, 3807, 13047, 13287],
                             [555, 3627, 3795, 13035, 13275]]],
              "verdicts": [["T(x0)", "NotInC", "fbc8384e38df1b15"],
                           ["T(x1)", "NotInC", "8bee8da9fdb374f0"]],
              "budget_exhausted": []},
}


@pytest.mark.parametrize("command", sorted(C01_CONFIGS))
def test_c01_index_level_output_pinned(command, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(C01_CONFIGS[command]), encoding="utf-8")
    assert index_level(str(path), tmp_path / "report.json", command) == C01_PINS[command]
