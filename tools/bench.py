"""Write a BENCH_<n>.json file: measured performance of this tree.

    python tools/bench.py --out BENCH_<n>.json
        --plan cli-suite:601:10 cli-suite:619:5 net-cold:601:10 ...
        [--baseline DIR]

Every number comes from `perfbench/run.py`, run unchanged as a
subprocess for 20 seconds, one run at a time:
- end to end: each plan entry WORKLOAD:SEED:RUNS makes RUNS untraced
  runs; the file keeps every run's end-to-end metrics and, per
  workload, their median and quartiles. With --baseline DIR (another
  checkout of the repository), each run is paired with a run of DIR's
  `perfbench/run.py`, the baseline running first in every other pair,
  and the file also keeps the baseline's values and, per metric, how
  many pairs this tree won (ties win for neither);
- per layer: one `--trace 1` run per workload at seed 601. The file
  keeps the metrics run.py declares, and the calls and self seconds of
  every span in its span file (spans BENCHMARK.json does not declare
  included). Self times are raw wall seconds, so the run's host factor
  is kept beside them;
- net growth: per space kind of GROWTH_DEPTHS and growth pattern
  (SCAN_BLOCK-row asks to the kind's depth, one ask of GROWTH_ONE_ASK
  rows; no pattern asks one index at a time, since nearly all such
  asks grow nothing and would be most of what it timed), the rows its
  net cache holds, the bytes of its two row buffers and the median minor
  page faults over GROWTH_SPACES fresh spaces, and the tracemalloc
  peak of a GROWTH_SCAN-row `distance_profile` scan in SCAN_BLOCK
  steps on a fresh space, through public calls only; these run in a
  fresh interpreter on each tree's `src`, so --baseline measures the
  baseline's nets too. The seconds of each pattern (best and median
  of GROWTH_REPEATS fresh spaces) and of the scan (of SCAN_REPEATS)
  are measured as the oracle reads are, below, with the paired
  tree/baseline ratios under "paired";
- oracle reads: per space kind of ORACLE_ROWS, the wall seconds of
  reading coordinates 1..2K of T(x) one by one through `coordinate`, as
  net-cold's oracle templates read them, on a fresh space and then
  again on it warm, and the seconds a read of one coordinate at each
  of ORACLE_SCATTERED scattered k on a net warmed to ORACLE_WARM_NET
  rows: best and median of ORACLE_REPEATS. Through public calls only,
  with each tree's `src` loaded in this interpreter under its own name
  and every measurement alternating between the trees, so a load that
  varies from minute to minute on a shared host weighs on both alike.
  With --baseline, the file also keeps per kind and measurement the
  median of the repeats' tree/baseline ratios and how many repeats
  this tree won;
- classify: per case of CLASSIFY_CASES (T(x) on fdlp, seqlp and c01 at
  gap floor ||x||, as the CLI classifies embedded images, and a periodic
  sequence at gap floor 1), the seconds of one `cluster_estimates` pass
  as `classify_c` makes it, of one `classify_c` and of one public
  `reverify_witness` of that call's witness, on a sequence whose net a
  first, unmeasured repeat has warmed: best and median of
  CLASSIFY_REPEATS, alternating between the trees and paired as the
  oracle reads are;
- separation: per bundled config, the seconds of one `check_separation`
  on the config's space, D, index scheme, samples and d rows, as each
  tree's `cli.build_run` and `cli.make_scheme` build them from the
  tree's own config file, with the config's epsilon, count and witness
  budget: best and median of SEPARATION_REPEATS after one unmeasured
  repeat that warms the net, alternating between the trees and paired
  as the oracle reads are;
- extract: per config of EXTRACT_CONFIGS (those with a nonzero D) and
  scan budget of EXTRACT_BUDGETS, the seconds of one extraction of the
  config's D at that budget, as each tree's `cli.build_run` and
  `cli.make_scheme` build it from the tree's own config file, and of
  one `limit_along` of the sum of D's members over the whole prefix of
  the scheme it gives; and per family of session-warm's WARM_FAMILIES
  (read from this tree's `perfbench/workloads.py`), the seconds of one
  extraction as session-warm's extract templates make it, at depth
  WARM_EXTRACT[0] and scan budget WARM_EXTRACT[1], with each tree's
  D built from the family's CLI specs: best and median of
  EXTRACT_REPEATS, alternating between the trees and paired as the
  oracle reads are, and beside them the median minor page faults
  (`ru_minflt`) of one such call, counted around it in this
  interpreter as net growth's are;
- the tier-1 wall time (the command ROADMAP.md names, run once), the
  `src/seqembed` line count, the Python and numpy versions and the core
  count.
"""
from __future__ import annotations

import argparse
import functools
import importlib
import importlib.util
import inspect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cli-suite", "net-cold", "session-warm")
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
SECONDS = 20
TRACE_SEED = 601
#: per space kind, the depth of its SCAN_BLOCK-row growth pattern
GROWTH_DEPTHS = {"fdlp:dim=2,p=2": 12288, "fdlp:dim=2,p=3": 12288, "fdlp:dim=3,p=inf": 12288,
                 "seqlp:p=1,support=8": 81920, "c01": 8192}
#: rows of the one-ask pattern: a check_isometry over fdlp asks 8000-10000
#: rows at once, a witness scan its first block
GROWTH_ONE_ASK = 9000
GROWTH_SPACES = 7
GROWTH_REPEATS = 51
#: rows of each kind's deep scan
GROWTH_SCAN = 10 ** 6
SCAN_REPEATS = 5
#: seqembed's witness-scan block; a baseline tree may not export it
SCAN_BLOCK = 4096
#: per space kind, the net rows K whose coordinates 1..2K an oracle read
#: takes: the middle of net-cold's oracle templates' ranges
ORACLE_ROWS = {"fdlp:dim=2,p=2": 550, "fdlp:dim=3,p=3": 550,
               "seqlp:p=2,support=4": 325, "c01": 1000}
ORACLE_REPEATS = 101
ORACLE_SCATTERED = 50
ORACLE_WARM_NET = 20000
#: per case, the sequence of a package and the budget it is classified at
CLASSIFY_CASES = {
    "fdlp:dim=2,p=2 T([3, 4])": (lambda se: se.embed_t1(se.parse_space("fdlp:dim=2,p=2"),
                                                        np.array([3.0, 4.0])), 4096),
    "seqlp:p=2,support=4 T({1: 3, 2: 4})": (
        lambda se: se.embed_t1(se.parse_space("seqlp:p=2,support=4"), {1: 3.0, 2: 4.0}), 2048),
    "c01 T(3, -4, 0)": (lambda se: se.embed_t1(se.parse_space("c01"), se.pl_function(
        (0.0, 0.5, 1.0), (3.0, -4.0, 0.0))), 2048),
    "periodic:-1,1": (lambda se: se.periodic([-1.0, 1.0]), 16384),
}
CLASSIFY_REPEATS = 401
#: the bundled configs whose separation table is timed
SEPARATION_CONFIGS = ("basic", "finite_basis", "countable_family", "dense_family")
SEPARATION_REPEATS = 101
#: the bundled configs whose D is extracted, at each scan budget
EXTRACT_CONFIGS = ("finite_basis", "countable_family", "dense_family")
EXTRACT_BUDGETS = (4096, 32768)
EXTRACT_REPEATS = 101
#: (depth, scan_budget) of the session-warm families' extractions: the
#: middle of the extract templates' ranges
WARM_EXTRACT = (4, 30000)


def run_once(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """One run of tree's perfbench/run.py: its result file, as written."""
    subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                    "--seed", str(seed), "--seconds", str(SECONDS),
                    "--trace", str(trace)],
                   cwd=tree, check=True, stdout=subprocess.DEVNULL)
    out = tree / "perfbench" / "out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(out.read_text(encoding="utf-8"))


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def span_table(path: Path) -> dict:
    """Calls and self seconds per span name of a tracing.py span file."""
    with np.load(path) as f:
        names, name, parent = f["names"], f["name"], f["parent"]
        dur = (f["end"] - f["start"]) / 1e9
    child = parent >= 0
    child_s = np.bincount(parent[child], weights=dur[child], minlength=len(name))
    calls = np.bincount(name, minlength=len(names))
    self_s = np.bincount(name, weights=dur - child_s, minlength=len(names))
    return {str(n): {"calls": int(calls[i]), "self_s": float(self_s[i])}
            for i, n in enumerate(names) if calls[i]}


def end_to_end(plan, baseline) -> dict:
    """Per workload: every run (paired with a baseline run when one is
    given), the failures summed, and each metric's median and quartiles."""
    better = {m["name"]: m["better"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]}
    runs = {}
    for workload, seed, n in plan:
        for i in range(n):
            pair = {"seed": seed}
            # the side that runs first alternates from pair to pair
            sides = [("tree", ROOT)] + ([("baseline", baseline)] if baseline else [])
            for side, tree in sides[::-1] if i % 2 == 0 else sides:
                pair[side] = compact(run_once(tree, workload, seed, 0))
            runs.setdefault(workload, []).append(pair)
            print(f"{workload} seed {seed}: {pair['tree']['metrics']['ops_per_s']:.1f} ops/s",
                  file=sys.stderr)
    out = {}
    for workload, pairs in runs.items():
        sides = ("tree", "baseline") if baseline is not None else ("tree",)
        entry = {"runs": pairs, "failed": sum(p[s]["failed"] for p in pairs for s in sides)}
        for side in sides:
            entry[side] = {m: summary([p[side]["metrics"][m] for p in pairs]) for m in better}
        if baseline is not None:
            entry["tree_wins"] = {m: sum(wins(p["tree"]["metrics"][m],
                                              p["baseline"]["metrics"][m], better[m])
                                         for p in pairs) for m in better}
        out[workload] = entry
    return out


def wins(tree: float, base: float, better: str) -> bool:
    return tree > base if better == "higher" else tree < base


def compact(result: dict) -> dict:
    """A run's metric values, host factor and failure count."""
    return {"metrics": {m: v["value"] for m, v in result["metrics"].items()},
            "host_factor_median": result["host_factor_median"],
            "failed": result["failed"]}


def growth_asks(spec: str) -> dict:
    """Per growth pattern, the rows asked of a fresh space of `spec`."""
    return {"blocks": range(SCAN_BLOCK, GROWTH_DEPTHS[spec] + 1, SCAN_BLOCK),
            "one_ask": [GROWTH_ONE_ASK]}


def grow(sp, asks):
    """Ask the net cache of the space `sp` for each K of `asks` in turn."""
    for K in asks:
        sp._ensure(K)


def clocked(work, *args) -> float:
    """The wall seconds of work(*args)."""
    start = time.perf_counter()
    work(*args)
    return time.perf_counter() - start


def growth_table() -> dict:
    """Per kind of GROWTH_DEPTHS and growth pattern, the rows held, the
    bytes of the point and functional row buffers (the latter empty when
    they are one matrix), and the median minor page faults (`ru_minflt`)
    of `_ensure` over GROWTH_SPACES fresh spaces of the seqembed on
    sys.path, one unmeasured space per pattern first; and the scan's
    tracemalloc peak."""
    import seqembed
    out = {}
    for spec in GROWTH_DEPTHS:
        out[spec] = {}
        for pattern, asks in growth_asks(spec).items():
            faults = []
            for _ in range(GROWTH_SPACES + 1):
                sp = seqembed.parse_space(spec)
                flt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                grow(sp, asks)
                faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - flt)
            out[spec][pattern] = {"depth": asks[-1], "rows_held": len(sp._U),
                                  "bytes_held": sp._U_buf.nbytes + sp._Phi_buf.nbytes,
                                  "median_minflt": statistics.median(faults[1:])}
        tracemalloc.start()
        try:
            scan(seqembed, spec)
            out[spec]["scan"] = {"rows": GROWTH_SCAN, "peak_bytes": tracemalloc.get_traced_memory()[1]}
        finally:
            tracemalloc.stop()
    return out


def scan(se, spec: str):
    """`distance_profile` over rows 1..GROWTH_SCAN in SCAN_BLOCK steps on
    a fresh space of `spec` from the package `se`. Only public calls, so
    a tree whose net cache keeps every row is measured the same way."""
    sp = se.parse_space(spec)
    v = sp.unit(sp.random_element(np.random.default_rng(0)))
    for lo in range(0, GROWTH_SCAN, SCAN_BLOCK):
        sp.distance_profile(v, min(lo + SCAN_BLOCK, GROWTH_SCAN), lo)


def growth_seconds(packages: dict) -> dict:
    """Per side of `packages` (loaded by `load_tree`), kind of
    GROWTH_DEPTHS and growth pattern, the best and median seconds of
    growing GROWTH_REPEATS fresh spaces, and of SCAN_REPEATS scans; each
    repeat times every side, the side that goes first alternating, after
    one unmeasured repeat. With a baseline side, "paired" holds per kind
    and measurement the median of the repeats' tree/baseline ratios and
    the repeats the tree won."""
    def timed(seconds, repeats):
        times = {side: [] for side in packages}
        for i in range(repeats + 1):
            for side in list(packages)[::1 if i % 2 else -1]:
                s = seconds(packages[side])
                if i:
                    times[side].append(s)
        return times
    measured = {}
    for spec in GROWTH_DEPTHS:
        for pattern, asks in growth_asks(spec).items():
            measured[spec, pattern] = timed(
                lambda se: clocked(grow, se.parse_space(spec), asks), GROWTH_REPEATS)
        measured[spec, "scan"] = timed(lambda se: clocked(scan, se, spec), SCAN_REPEATS)
    out = {side: {} for side in packages}
    for (spec, m), times in measured.items():
        for side, v in times.items():
            out[side].setdefault(spec, {})[m] = {"best_s": min(v), "median_s": statistics.median(v)}
        if "baseline" in times:
            out.setdefault("paired", {}).setdefault(spec, {})[m] = paired(times["tree"], times["baseline"])
    return out


def load_tree(tree: Path, name: str):
    """tree's `src/seqembed`, imported as the package `name`, so that
    two trees' packages can be loaded side by side."""
    init = tree / "src" / "seqembed" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def oracle_table(packages: dict) -> dict:
    """Per side of `packages` (loaded by `load_tree`) and kind of ORACLE_ROWS, the best and median
    seconds over ORACLE_REPEATS fresh spaces of reading coordinates
    1..2K of T(x) by `coordinate`, on the fresh space ("fresh_s") and
    again on it warm ("warm_s"), and of one coordinate read at each of
    ORACLE_SCATTERED random k in 1..ORACLE_WARM_NET on a net warmed to
    ORACLE_WARM_NET rows, per read ("scattered_per_read_s"). Each repeat
    measures every side on the same x and k, the side that goes first
    alternating; one unmeasured repeat goes first. With a baseline side,
    "paired" holds per kind and measurement the median of the repeats'
    tree/baseline ratios and the repeats the tree won."""
    def timed(se, s, ns):
        start = time.perf_counter()
        for n in ns:
            se.coordinate(s, n)
        return time.perf_counter() - start
    times = {side: {} for side in packages}
    for spec, K in ORACLE_ROWS.items():
        for i in range(ORACLE_REPEATS + 1):
            for side in list(packages)[::1 if i % 2 else -1]:
                se, rng = packages[side], np.random.default_rng(i)
                sp = se.parse_space(spec)
                x = sp.random_element(rng)
                fresh = timed(se, se.embed_t1(sp, x), range(1, 2 * K + 1))
                warm = timed(se, se.embed_t1(sp, x), range(1, 2 * K + 1))
                sp.net_point(ORACLE_WARM_NET)
                ks = rng.integers(1, ORACLE_WARM_NET + 1, size=ORACLE_SCATTERED)
                scattered = timed(se, se.embed_t1(sp, x), (2 * ks - 1).tolist()) / ORACLE_SCATTERED
                if i:
                    for m, v in (("fresh_s", fresh), ("warm_s", warm),
                                 ("scattered_per_read_s", scattered)):
                        times[side].setdefault(spec, {}).setdefault(m, []).append(v)
    out = {side: {spec: {"K": ORACLE_ROWS[spec], "coordinates": 2 * ORACLE_ROWS[spec],
                         **{m: {"best": min(v), "median": statistics.median(v)}
                            for m, v in ms.items()}}
                  for spec, ms in kinds.items()}
           for side, kinds in times.items()}
    if "baseline" in times:
        out["paired"] = {spec: {m: paired(v, times["baseline"][spec][m]) for m, v in ms.items()}
                         for spec, ms in times["tree"].items()}
    return out


def classify_table(packages: dict) -> dict:
    """Per side of `packages` (loaded by `load_tree`) and case of
    CLASSIFY_CASES, the seconds of one `cluster_estimates` pass as
    `classify_c` makes it at gap floor s.bound, of one `classify_c`
    there, and of one public `reverify_witness` of the witness that
    `classify_c` gives there, timed by `alternating` over
    CLASSIFY_REPEATS (its unmeasured repeat warms each sequence's net).
    A tree whose pass builds every cell takes no `least`."""
    runs = {}
    for side, se in packages.items():
        least = (5,) if "least" in inspect.signature(se.cluster_estimates).parameters else ()
        for case, (build, budget) in CLASSIFY_CASES.items():
            s = build(se)
            runs.setdefault(side, {}).update({
                (case, "cluster_estimates"): functools.partial(
                    se.cluster_estimates, s, range(1, budget + 1), s.bound / 4.0, *least),
                (case, "classify_c"): functools.partial(se.classify_c, s, budget, s.bound),
                (case, "reverify_witness"): functools.partial(
                    se.reverify_witness, s, se.classify_c(s, budget, s.bound).witness)})
    return alternating(runs, CLASSIFY_REPEATS)


def separation_table(packages: dict) -> dict:
    """Per side of `packages` (loaded by `load_tree`) and config of
    SEPARATION_CONFIGS, the seconds of one `check_separation` on the run
    that the side's `cli.build_run` and `cli.make_scheme` build from the
    side's bundled config file, timed by `alternating` over
    SEPARATION_REPEATS (its unmeasured repeat warms each space's net)."""
    tables = {}
    for side, se in packages.items():
        cli = importlib.import_module(f"{se.__name__}.cli")
        for name in SEPARATION_CONFIGS:
            cfg = bundled_config(se, name)
            space, D, samples, d_rows = cli.build_run(cfg)
            tables.setdefault(side, {})[name] = functools.partial(
                se.check_separation, space, D, cli.make_scheme(cfg, D), samples, d_rows,
                cfg["epsilon"], cfg["count"], scan_budget=cfg["witness_budget"])
    return alternating(tables, SEPARATION_REPEATS)


def extract_table(packages: dict) -> dict:
    """Per side of `packages` (loaded by `load_tree`), config of
    EXTRACT_CONFIGS and scan budget of EXTRACT_BUDGETS, the seconds of
    one extraction ("extract") of the D that the side's `cli.build_run`
    builds from the side's bundled config file, through the side's
    `cli.make_scheme` with the config's scan budget replaced, and of one
    `limit_along` ("limit_along") of the sum of D's members over that
    scheme's whole prefix, timed by `alternating` over EXTRACT_REPEATS
    with each call's minor page faults; and of one extraction
    ("extract") per family of `warm_families`, under the key
    "warm_<i>_<mode>" and the budget WARM_EXTRACT[1]."""
    runs = {}
    families = warm_families()
    depth, warm_budget = WARM_EXTRACT
    for side, se in packages.items():
        cli = importlib.import_module(f"{se.__name__}.cli")
        for i, (mode, specs, schedule) in enumerate(families):
            D = se.SubspaceD(mode, tuple(cli.parse_seq_spec(spec) for spec in specs))
            extract = (functools.partial(se.bw_extract, D, depth, warm_budget)
                       if mode == "finite" else
                       functools.partial(se.diagonal_extract, D, len(specs), schedule,
                                         warm_budget))
            runs.setdefault(side, {})[(f"warm_{i}_{mode}", str(warm_budget), "extract")] = extract
        for name in EXTRACT_CONFIGS:
            for budget in EXTRACT_BUDGETS:
                cfg = {**bundled_config(se, name), "scan_budget": budget}
                _, D, _, _ = cli.build_run(cfg)
                scheme = cli.make_scheme(cfg, D)
                d = D.combination([1.0] * D.size)
                runs.setdefault(side, {}).update({
                    (name, str(budget), "extract"): functools.partial(cli.make_scheme, cfg, D),
                    (name, str(budget), "limit_along"): functools.partial(
                        se.limit_along, d, scheme, scheme.length)})
    return alternating(runs, EXTRACT_REPEATS)


def warm_families() -> list:
    """(mode, member specs, schedule) of each of session-warm's
    WARM_FAMILIES, read in a fresh interpreter from this tree's
    `perfbench/workloads.py` and spelled by its `_seq_spec`."""
    code = ("import json, workloads as w; print(json.dumps([[f['mode'], "
            "[w._seq_spec(d) for d in f['members']], f.get('schedule')] "
            "for f in w.WARM_FAMILIES]))")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT / "perfbench", check=True,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    return json.loads(done.stdout)


def bundled_config(se, name: str) -> dict:
    """The bundled config `name` of the package `se`, validated by its CLI."""
    cli = importlib.import_module(f"{se.__name__}.cli")
    path = Path(se.__file__).parent / "configs" / f"{name}.json"
    return cli.validate_config(cli.load_config(str(path)))


def alternating(runs: dict, repeats: int) -> dict:
    """Per side and key of `runs` (side -> key -> a no-argument call),
    the best and median seconds of the call over `repeats`, and the
    median minor page faults of one call ("median_minflt", read from
    `ru_minflt` just outside its timed span), each repeat calling every
    side's runs, the side that goes first alternating, after one
    unmeasured repeat. A tuple key nests its parts. With a
    baseline side, "paired" holds per key the median of the repeats'
    tree/baseline ratios of seconds and the repeats the tree won."""
    times = {side: {key: [] for key in keys} for side, keys in runs.items()}
    minflt = {side: {key: [] for key in keys} for side, keys in runs.items()}
    for i in range(repeats + 1):
        for side in list(runs)[::1 if i % 2 else -1]:
            for key, run in runs[side].items():
                flt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                seconds = clocked(run)
                flt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - flt
                if i:
                    times[side][key].append(seconds)
                    minflt[side][key].append(flt)
    out = {side: {key: {"best_s": min(v), "median_s": statistics.median(v),
                        "median_minflt": statistics.median(minflt[side][key])}
                  for key, v in keys.items()} for side, keys in times.items()}
    if "baseline" in times:
        out["paired"] = {key: paired(v, times["baseline"][key])
                         for key, v in times["tree"].items()}
    return {side: nested(table) for side, table in out.items()}


def nested(table: dict) -> dict:
    """`table` with each tuple key (a, b, c) turned into table[a][b][c]."""
    out = {}
    for key, value in table.items():
        *path, last = key if isinstance(key, tuple) else (key,)
        inner = out
        for part in path:
            inner = inner.setdefault(part, {})
        inner[last] = value
    return out


def paired(tree: list, base: list) -> dict:
    """The median of the tree/baseline ratios of paired seconds, and
    the pairs the tree won."""
    ratios = [t / b for t, b in zip(tree, base)]
    return {"median_ratio": statistics.median(ratios),
            "tree_wins": sum(r < 1.0 for r in ratios), "repeats": len(ratios)}


def net_growth(tree: Path) -> dict:
    """`growth_table` of tree's `src`, measured in a fresh interpreter."""
    code = (f"import json, sys; sys.path.insert(0, {str(ROOT / 'tools')!r}); "
            "import bench; print(json.dumps(bench.growth_table()))")
    done = subprocess.run([sys.executable, "-c", code], cwd=tree, check=True,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(tree / "src")})
    return json.loads(done.stdout)


def tier1() -> dict:
    start = time.perf_counter()
    done = subprocess.run(TIER1, cwd=ROOT, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    wall = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    return {"wall_s": wall, "exit": done.returncode, "summary": lines[-1] if lines else ""}


def parse_plan(items) -> list:
    plan = []
    for item in items:
        workload, seed, runs = item.split(":")
        if workload not in WORKLOADS:
            raise SystemExit(f"unknown workload {workload!r}")
        plan.append((workload, int(seed), int(runs)))
    return plan


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--plan", nargs="+", required=True, help="WORKLOAD:SEED:RUNS entries")
    p.add_argument("--baseline", type=Path, help="another checkout to pair each run with")
    args = p.parse_args(argv)
    baseline = args.baseline.resolve() if args.baseline else None
    src = sorted((ROOT / "src" / "seqembed").glob("*.py"))
    sides = [(side, tree) for side, tree in (("tree", ROOT), ("baseline", baseline)) if tree]
    packages = {side: load_tree(tree, f"seqembed_{side}") for side, tree in sides}
    report = {
        "settings": {"plan": args.plan, "seconds": SECONDS,
                     "trace_seed": TRACE_SEED, "paired_with_baseline": bool(args.baseline)},
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "cores": os.cpu_count(), "machine": platform.machine()},
        "src_lines": sum(len(f.read_text(encoding="utf-8").splitlines()) for f in src),
        "tier1": tier1(),
        "net_growth": {side: net_growth(tree) for side, tree in sides},
        "growth_seconds": growth_seconds(packages),
        "oracle": oracle_table(packages),
        "classify": classify_table(packages),
        "separation": separation_table(packages),
        "extract": extract_table(packages),
        "end_to_end": end_to_end(parse_plan(args.plan), baseline),
        "per_layer": {},
    }
    for workload in WORKLOADS:
        result = run_once(ROOT, workload, TRACE_SEED, 1)
        report["per_layer"][workload] = {
            "seed": TRACE_SEED, "failed": result["failed"],
            "host_factor_median": result["host_factor_median"],
            "declared": {m: v["value"] for m, v in result["metrics"].items()},
            "spans": span_table(ROOT / "perfbench" / "out" / f"spans-{workload}.npz")}
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
