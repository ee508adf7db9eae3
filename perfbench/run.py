"""seqembed benchmark: time to a verified certificate, end to end and per layer.

    python3 perfbench/run.py --workload {cli-suite,net-cold,session-warm}
                             --seed N --seconds S --trace {0,1}

One process, one thread, one client in a closed loop: the next operation
starts when the previous one returns. The loop runs whole rounds (every
template of the workload once or more, see workloads.py) until at least
S seconds and MIN_OPS operations have passed. Each operation's
index-level output and status are compared with expected.json, and every
certificate it returns is re-checked after the loop.

--trace 0 prints the end-to-end metrics. `setup_s` is the median, over
SETUP_SAMPLES fresh interpreters, of the time from start-up to the first
operation. The interpreter collects garbage on its own, as in a user's
session: the space nets hold reference cycles, and whichever operation
triggers a collection pays for it.

Times are wall times on a reference host. On a shared machine the CPU
speed swings by up to 2x within seconds and drifts by tens of percent
over minutes, for any program alike (measured on a 2-core Xeon virtual
machine with a spin loop). So a fixed probe of interpreter and numpy
work (`probe`) runs before every operation, and each operation's wall
time is multiplied by its host factor, PROBE_REF_S over the median
probe time around it; each set-up sample by the factor that its own
interpreter measures right after set-up (SETUP_PROBES probes, outside
the timed part). The raw wall times and the host factor are printed and
kept in the result file beside them.

--trace 1 runs the same untraced loop, times each known-slow fixed case
once, then replays rounds 1..TRACE_ROUNDS of the loop with
every seqembed layer wrapped (tracing.py) and prints the per-layer
metrics, the fixed-case times and the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON
object. Results, the environment and (traced) the spans are also written
to perfbench/out/.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"

#: operations a run needs, so that p90 has ten samples beyond it
MIN_OPS = 100
#: fresh interpreters whose set-up time is sampled per run
SETUP_SAMPLES = 7
#: probes each set-up interpreter runs after 'ready' for its own host factor
SETUP_PROBES = 16
#: seconds a set-up sample may take before the run is abandoned
SETUP_TIMEOUT = 120
#: rounds replayed traced (rounds 1..TRACE_ROUNDS; round 0 warms the
#: process up); fixed, so per-layer counts repeat for a seed
TRACE_ROUNDS = 2
#: probe seconds on the reference host that reported times are scaled to
PROBE_REF_S = 0.005
#: probes on each side of an operation whose median sets its host factor
PROBE_WINDOW = 2

_PROBE_DOC = {"rows": [{"k": i, "v": [float(i), i / 3, "x" * (i % 7)]}
                       for i in range(120)]}


def probe() -> float:
    """Wall seconds of a fixed mix like the program's own (JSON round
    trips, many small array operations), about PROBE_REF_S on the
    reference host. It uses no seqembed code, so program changes leave it
    alone; of the mixes tried it tracked the operations' slow-downs best.
    The collector is off while it runs, so that a collection the program's
    garbage is due falls in the program's own time, not in the probe's."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(6):
            json.loads(json.dumps(_PROBE_DOC))
        a = np.arange(64.0)
        for _ in range(400):
            a = np.abs(a - 1.5) * 0.5 + np.max(a[:8])
        return time.perf_counter() - t0
    finally:
        gc.enable()


def host_factors(probes: list) -> list:
    """Per operation i (probe i runs just before it), PROBE_REF_S over the
    median of probes i-PROBE_WINDOW+1 .. i+PROBE_WINDOW."""
    return [PROBE_REF_S / statistics.median(
                probes[max(0, i - PROBE_WINDOW + 1):i + PROBE_WINDOW + 1])
            for i in range(len(probes))]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("cli-suite", "net-cold", "session-warm"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the workload, print 'ready' and exit "
                        "(one set-up sample)")
    return p.parse_args(argv)


def build(workload: str):
    import workloads
    return workloads.WORKLOADS[workload](str(OUT / f"work-{os.getpid()}"))


def measure_setup(args) -> list:
    """Scaled seconds of fresh interpreters' set-up, from spawn to 'ready',
    each by the host factor its interpreter probes after 'ready'."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               args.workload, "--seed", str(args.seed), "--seconds", "0",
               "--setup-only"]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline().strip()
                wall = time.perf_counter() - t0
                probed = proc.stdout.readline().strip()
                proc.wait(timeout=SETUP_TIMEOUT)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up sample failed (exit {proc.returncode})")
        samples.append((wall, PROBE_REF_S / float(probed)))
    return samples


@dataclass(frozen=True)
class Op:
    """One completed operation; output and payload kept as digests."""
    case: object
    status: object
    output: str
    payload: object          # digest, or None when there is nothing to re-check
    seconds: float           # wall time of the operation
    busy: float              # ... plus the client's bookkeeping after it
    probe: float             # probe time just before it


def run_rounds(wl, seed: int, payloads: dict, first=0, rounds=None, seconds=0.0,
               tracer=None):
    """Closed loop over whole rounds from round `first`: `rounds` of them,
    or as many as reach `seconds`, MIN_OPS operations and the rounds a
    traced replay needs (1 + TRACE_ROUNDS). Payloads to
    re-check go into `payloads`, once per (case, payload digest), so memory
    does not grow with the number of operations. With a `tracer`, each
    operation is a root span `bench.<template>` that its calls nest under.
    Returns ([Op], [number of operations done at the end of each round])."""
    from workloads import digest, execute
    ops, ends = [], []
    start = time.perf_counter()
    while True:
        for case in wl.round(seed, first + len(ends)):
            speed = probe()
            t0 = time.perf_counter()
            if tracer is not None:
                token = tracer.begin(tracer.name_id(f"bench.{case.template.name}"))
            outcome, dt = execute(case, wl.ctx)
            if tracer is not None:
                tracer.finish(token)
            pay = None
            if outcome.payload is not None:
                pay = digest(outcome.payload)
                payloads.setdefault((case.key, pay), outcome.payload)
            ops.append(Op(case, outcome.status, digest(outcome.output), pay, dt,
                          time.perf_counter() - t0, speed))
        ends.append(len(ops))
        if rounds is not None:
            if len(ends) >= rounds:
                break
        elif (time.perf_counter() - start >= seconds and len(ops) >= MIN_OPS
              and len(ends) > TRACE_ROUNDS):
            break
    return ops, ends


def loop_seconds(ops) -> float:
    """Scaled busy time of `ops`: operations plus bookkeeping, without the
    probes the client adds."""
    return sum(op.busy * f for op, f in zip(ops, host_factors([o.probe for o in ops])))


def check(workload: str, ops, payloads: dict) -> list:
    """Failure reasons per operation (empty list: the operation passed)."""
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)[workload]
    rechecked = {}
    reasons = []
    for op in ops:
        why = []
        exp = expected.get(op.case.key)
        if exp is None:
            why.append("no recorded output")
        elif exp["inputs"] != op.case.digest:
            why.append("inputs differ from the recorded ones")
        elif exp["status"] != op.status:
            why.append(f"status {op.status!r}, recorded {exp['status']!r}")
        elif exp["output"] != op.output:
            why.append("index-level output differs from the recorded one")
        if op.payload is not None:
            key = (op.case.key, op.payload)
            if key not in rechecked:
                try:
                    rechecked[key] = op.case.template.recheck(op.case.inputs,
                                                              payloads[key])
                except Exception as exc:   # a crashing re-check fails the operation
                    rechecked[key] = [f"re-check raised {type(exc).__name__}: {exc}"]
            why += rechecked[key]
        reasons.append(why)
    return reasons


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    """Versions, hardware, commit and library size beside each result."""
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src = ROOT / "src" / "seqembed"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cores": os.cpu_count(), "cpu": cpu, "commit": git_commit(),
            "src_lines": sum(len(f.read_text(encoding="utf-8").splitlines())
                             for f in sorted(src.rglob("*.py")))}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def time_fixed_cases(workdir: str) -> dict:
    """Scaled seconds of each known-slow fixed case on a fresh space, untraced."""
    from workloads import FIXED_CASES, Context, execute, make_cases
    ctx = Context(workdir)          # fresh spaces, whatever the workload
    times = {}
    for t in FIXED_CASES:
        case = make_cases(t)[0]
        before = [probe() for _ in range(3)]
        outcome, dt = execute(case, ctx)
        if outcome.status != 0:
            raise RuntimeError(f"fixed case {t.name}: status {outcome.status}")
        factor = PROBE_REF_S / statistics.median(before + [probe() for _ in range(3)])
        times[f"case.{t.name}.s"] = dt * factor
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "seqembed" / "__init__.py").is_file():
        print(f"error: no seqembed sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)

    if args.setup_only:
        wl = build(args.workload)
        print("ready", flush=True)
        print(statistics.median([probe() for _ in range(SETUP_PROBES)]), flush=True)
        cleanup(wl)
        return 0

    setup = [] if args.trace else measure_setup(args)
    wl = build(args.workload)
    payloads = {}
    try:
        ops, ends = run_rounds(wl, args.seed, payloads, seconds=args.seconds)
        rss = peak_rss_mb()
        factors = host_factors([op.probe for op in ops])
        raw = end_to_end([op.seconds for op in ops], sum(op.busy for op in ops),
                         [wall for wall, _ in setup], rss)
        if args.trace:
            metrics, traced = traced_run(wl, args, ops, ends, payloads)
        else:
            metrics = end_to_end([op.seconds * f for op, f in zip(ops, factors)],
                                 loop_seconds(ops),
                                 [wall * f for wall, f in setup],
                                 rss)
            traced = []
        all_ops = ops + traced
        reasons = check(args.workload, all_ops, payloads)
    finally:
        cleanup(wl)
    replayed = ops[ends[0]:]
    for o1, o2, why in zip(replayed, traced, reasons[len(ops):]):
        if (o1.status, o1.output) != (o2.status, o2.output):
            why.append("traced output differs from the untraced one")
    failed = 0
    for op, why in zip(all_ops, reasons):
        if why:
            failed += 1
            print(f"FAILED {op.case.key}: {'; '.join(why)}", file=sys.stderr)

    declared = declared_metrics(args.trace)
    missing = set(declared) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    env = environment()
    print(f"seqembed benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace}: {len(ops)} ops in {len(ends)} rounds")
    print("  env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"  host factor (reference / this host) median {statistics.median(factors):.4g}"
          f"; unscaled: " + " ".join(f"{k}={v:.6g}" for k, v in raw.items() if v))
    print(f"  {'failed_ratio':<44} {failed / len(all_ops):>14.6g} ratio"
          f"  ({failed} of {len(all_ops)} ops)")
    for name, unit in declared.items():
        note = {"setup_s": f"  (median of {len(setup)} start-ups)",
                "latency_p50_s": f"  (n={len(ops)})",
                "latency_p90_s": f"  (n={len(ops)})"}.get(name, "")
        print(f"  {name:<44} {metrics[name]:>14.6g} {unit}{note}")

    result = {"correct": failed == 0, "attempted": len(all_ops), "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in declared.items()}}
    record = dict(result, env=env, workload=args.workload, seed=args.seed,
                  trace=args.trace, rounds=len(ends), unscaled=raw,
                  host_factor_median=statistics.median(factors),
                  failed_ratio=failed / len(all_ops),
                  setup_samples=[{"wall_s": w, "host_factor": f} for w, f in setup])
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


def end_to_end(latencies, loop_s, setup, rss) -> dict:
    return {"setup_s": statistics.median(setup) if setup else 0.0,
            "latency_p50_s": statistics.median(latencies),
            "latency_p90_s": statistics.quantiles(latencies, n=10)[-1],
            "ops_per_s": len(latencies) / loop_s,
            "peak_rss_mb": rss}


def traced_run(wl, args, ops, ends, payloads):
    """Per-layer metrics from replaying rounds 1..TRACE_ROUNDS traced. The
    overhead ratio is traced ops/s over untraced ops/s on those rounds."""
    from tracing import Tracer
    metrics = time_fixed_cases(wl.ctx.workdir)
    tracer = Tracer()
    tracer.install()
    try:
        traced, _ = run_rounds(wl, args.seed, payloads, first=1,
                                         rounds=TRACE_ROUNDS, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics.update(tracer.layer_metrics())
    untraced = ops[ends[0]:ends[TRACE_ROUNDS]]
    metrics["trace.overhead_ratio"] = loop_seconds(untraced) / loop_seconds(traced)
    tracer.save(OUT / f"spans-{args.workload}.npz")
    return metrics, traced


def declared_metrics(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def cleanup(wl):
    shutil.rmtree(wl.ctx.workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
