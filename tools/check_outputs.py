"""Check every benchmark case, not a sample, against perfbench/expected.json.

    python tools/check_outputs.py

Runs every case of every workload once, in the order
`perfbench/record.py` recorded them, through perfbench's own
`run.build`, `execute`, `digest` and `check`. Each case's input digest,
status and index-level output digest must equal the recorded ones, and
every certificate it returns must pass its template's `recheck`. A timed
`perfbench/run.py` run reaches only the cases its rounds pick.

Prints one line per mismatch and exits 1 if there is any, 0 otherwise.
Nothing under perfbench/ is changed; each workload's scratch directory
under perfbench/out/ is removed after it.
"""
from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import run  # noqa: E402  (perfbench/run.py)


def check(workload: str) -> list:
    """One line per case of `workload` that fails `run.check`'s comparison
    with its recorded entry or its certificates' re-check."""
    from workloads import digest, execute
    wl = run.build(workload)
    ops, payloads = [], {}
    try:
        for case in wl.all_cases():
            outcome, dt = execute(case, wl.ctx)
            pay = None
            if outcome.payload is not None:
                pay = digest(outcome.payload)
                payloads[(case.key, pay)] = outcome.payload
            ops.append(run.Op(case, outcome.status, digest(outcome.output), pay,
                              dt, dt, run.PROBE_REF_S))
    finally:
        run.cleanup(wl)
    return [f"{workload} {op.case.key}: {'; '.join(why)}"
            for op, why in zip(ops, run.check(workload, ops, payloads)) if why]


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    run.OUT.mkdir(exist_ok=True)
    from workloads import WORKLOADS
    problems = []
    for name in WORKLOADS:
        found = check(name)
        print(f"{name}: {len(found)} mismatches", flush=True)
        problems += found
    for p in problems:
        print(f"MISMATCH {p}")
    print(f"{len(problems)} mismatches")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
