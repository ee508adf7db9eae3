"""Index-level output of `seqembed suite` on the bundled configs.

Pins what must not move when the code is only reorganised: exit code,
status, the scheme prefix (as a digest), witness indices, verdict kinds
and indices (as digests), and budget-exhausted entries. Floats are left
out, so numpy and Python versions that round differently cannot make it
flaky. Re-record with `PYTHONPATH=src python tests/test_suite_pins.py`
only when a change moves these outputs on purpose.
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


def index_level(name: str, out: pathlib.Path) -> dict:
    """Run `suite --config name` in-process and keep its index-level output."""
    code = main(["suite", "--config", name, "--out", str(out)])
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
