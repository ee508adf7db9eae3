"""Record the expected index-level output of every benchmark case.

    python3 perfbench/record.py

Runs every case of every workload once, re-checks its certificates, and
writes perfbench/expected.json afresh: per workload and case key, the
digest of its inputs, its status and the digest of its index-level
output. Re-record only on purpose (a change that is meant to alter
outputs), never to make a failing benchmark pass. Each case's time is
printed as a cost guide.
"""
from __future__ import annotations

import json
import sys
import time

import run


def record(workload: str) -> dict:
    from workloads import digest, execute
    wl = run.build(workload)
    entries = {}
    try:
        for case in wl.all_cases():
            outcome, dt = execute(case, wl.ctx)
            problems = (case.template.recheck(case.inputs, outcome.payload)
                        if outcome.payload is not None else [])
            print(f"{workload:<13} {case.key:<32} {dt:8.3f} s  status {outcome.status}"
                  + (f"  RECHECK: {problems}" if problems else ""), flush=True)
            entries[case.key] = {"inputs": case.digest, "status": outcome.status,
                                 "output": digest(outcome.output)}
    finally:
        run.cleanup(wl)
    return entries


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    run.OUT.mkdir(exist_ok=True)
    from workloads import WORKLOADS
    expected = {}
    for name in WORKLOADS:
        t0 = time.perf_counter()
        expected[name] = record(name)
        print(f"{name}: {len(expected[name])} cases in {time.perf_counter() - t0:.1f} s")
    run.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
