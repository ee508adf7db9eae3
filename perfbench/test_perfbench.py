"""Tests of the benchmark itself: python3 -m pytest perfbench/test_perfbench.py"""
import inspect
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

EXPECTED = json.loads(run.EXPECTED.read_text())


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def workload(request):
    wl = run.build(request.param)
    yield wl
    run.cleanup(wl)


def _checked_round(wl, r, payloads):
    ops, _ = run.run_rounds(wl, 7, payloads, first=r, rounds=1)
    return ops, run.check(wl.name, ops, payloads)


def test_smoke_round_passes_every_check(workload):
    payloads = {}
    ops, reasons = _checked_round(workload, 0, payloads)
    assert len(ops) == sum(t.per_round for t in workload.templates)
    assert all(why == [] for why in reasons), [r for r in reasons if r]


def test_seed_fixes_inputs_and_expected_outputs(workload):
    again = run.build(workload.name)
    try:
        for r in range(3):
            first = [c.key for c in workload.round(11, r)]
            assert first == [c.key for c in again.round(11, r)]
        assert [c.digest for c in workload.all_cases()] == \
               [c.digest for c in again.all_cases()]
    finally:
        run.cleanup(again)
    recorded = EXPECTED[workload.name]
    assert {c.key: c.digest for c in workload.all_cases()} == \
           {k: v["inputs"] for k, v in recorded.items()}


def _seqembed_attributes():
    """Every attribute of every seqembed module and class, by identity."""
    seen = {}
    for name, mod in sys.modules.items():
        if name == "seqembed" or name.startswith("seqembed."):
            for attr, obj in vars(mod).items():
                seen[name, attr] = obj
                if inspect.isclass(obj) and obj.__module__.startswith("seqembed"):
                    for cattr, cobj in vars(obj).items():
                        seen[obj.__qualname__, cattr] = cobj
    return seen


def test_install_and_uninstall_restore_every_attribute():
    before = _seqembed_attributes()
    tracer = Tracer()
    tracer.install()
    try:
        import seqembed
        assert seqembed.coordinate is not before["seqembed", "coordinate"]
        assert seqembed.embed.coordinate is seqembed.coordinate
    finally:
        tracer.uninstall()
    after = _seqembed_attributes()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)


def test_traced_run_matches_untraced_and_reports_every_metric():
    wl = run.build("session-warm")
    try:
        payloads = {}
        plain, reasons = _checked_round(wl, 1, payloads)
        tracer = Tracer()
        tracer.install()
        try:
            traced, _ = run.run_rounds(wl, 7, payloads, first=1, rounds=1)
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics()
        fixed = run.time_fixed_cases(wl.ctx.workdir)   # raises unless both pass
    finally:
        run.cleanup(wl)
    assert set(fixed) == {f"case.{t.name}.s" for t in workloads.FIXED_CASES}
    assert [(o.case.key, o.status, o.output) for o in plain] == \
           [(o.case.key, o.status, o.output) for o in traced]
    declared = set(run.declared_metrics(1))
    assert declared - {"trace.overhead_ratio"} <= set(metrics) | set(fixed)
    depth = workloads.WARM_DEPTH
    assert all(metrics[f"spaces.net_depth_max.{k}"] <= depth
               for k in ("fdlp", "seqlp", "c01"))
    assert metrics["seqcore.coordinate.calls"] > 0
    assert metrics["seqcore.coordinate.self_s"] > 0


def test_self_time_excludes_children():
    tracer = Tracer()
    outer, inner = tracer.name_id("cli.outer"), tracer.name_id("cli.inner")
    tok = tracer.begin(outer)
    tracer.finish(tracer.begin(inner))
    tracer.finish(tok)
    tracer.end[1] = tracer.start[1] + 2_000_000_000
    tracer.end[0] = tracer.start[0] + 5_000_000_000
    m = tracer.layer_metrics()
    assert m["cli.inner.self_s"] == pytest.approx(2.0)
    assert m["cli.outer.self_s"] == pytest.approx(3.0)
