"""End-to-end acceptance suite.

One test per acceptance criterion; each prints a single
PASS/FAIL line (run with `pytest -s` to see them on success). Sample
elements are drawn from each space's integer-lattice sampler so that
witness scans terminate within the stated budgets.
"""
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from seqembed import (ContinuousPL, FiniteDimLp, InC, NotInC, SeqLp,
                      SubspaceD, brute_force_sup, bw_extract, classify_c,
                      combine, coordinate, diagonal_extract, embed_t1,
                      identity_scheme, isometry_defect, limit_along,
                      oscillation_witness, periodic, prefix_sup,
                      reverify_witness, scheme_embed, separation_witness)
from seqembed.cli import build_run, load_config, validate_config

SEED = 20260823
N_SAMPLES = 200
K_DEEP = 10 ** 4


def report(num, name, ok, detail=""):
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def spaces():
    out = [FiniteDimLp(dim, p)
           for dim in (1, 2, 3)
           for p in (1.0, 1.5, 2.0, math.inf)]
    out += [SeqLp(1.0), SeqLp(2.0), ContinuousPL()]
    return out


@pytest.fixture(scope="module")
def samples(spaces):
    rng = np.random.default_rng(SEED)
    drawn = []
    for i in range(N_SAMPLES):
        sp = spaces[i % len(spaces)]
        x = sp.lattice_sample(rng)
        assert sp.norm(x) > 0.0
        drawn.append((sp, x))
    return drawn


@pytest.fixture(scope="module")
def deep_defects(samples):
    return [(sp, x, isometry_defect(sp, x, K_DEEP)) for sp, x in samples]


def test_criterion_1_upper_bound_exactness(deep_defects):
    t0 = time.perf_counter()
    bad = [(sp.describe(), rec.achieved, sp.norm(x))
           for sp, x, rec in deep_defects
           if rec.achieved > sp.norm(x) + 1e-9]
    elapsed = time.perf_counter() - t0
    report(1, "upper-bound exactness",
           not bad and elapsed <= 60.0,
           f"{len(deep_defects)} samples, {elapsed:.1f}s, {len(bad)} violations")


def test_criterion_2_defect_interval_contract(deep_defects):
    bad = [rec for _, _, rec in deep_defects
           if not (rec.lower - 1e-9 <= rec.achieved <= rec.upper + 1e-9)]
    sp = FiniteDimLp(2, 2)
    rec = isometry_defect(sp, np.array([3.0, 4.0]), 8)
    worked = (abs(rec.achieved - 7.0 / math.sqrt(2.0)) <= 1e-9
              and abs(rec.upper - 5.0) <= 1e-9)
    report(2, "defect-interval contract", not bad and worked,
           f"{len(bad)} interval violations, worked example "
           f"achieved={rec.achieved:.9f}")


def test_criterion_3_oscillation_witnesses(samples):
    failures = []
    slowest = 0.0
    for sp, x in samples:
        t0 = time.perf_counter()
        w = oscillation_witness(sp, x, 0.2, 10, scan_budget=10 ** 5)
        dt = time.perf_counter() - t0
        slowest = max(slowest, dt)
        nx = sp.norm(x)
        ok = (len(w.plus_indices) == 10
              and w.gap >= 2.0 * nx * 0.8 - 1e-9
              and reverify_witness(embed_t1(sp, x), w))
        if not ok or dt > 5.0:
            failures.append(sp.describe())
    report(3, "oscillation witnesses", not failures,
           f"{len(samples)} samples, slowest {slowest:.2f}s, "
           f"{len(failures)} failures")


def _brute_force_cluster(coord_lists, bounds, depth, budget):
    """Independent exhaustive bucketing over explicit coordinate lists."""
    survivors = list(range(1, budget + 1))
    winner = None
    sides = list(bounds)
    for level in range(1, depth + 1):
        sides = [b / 2.0 ** (level - 1) for b in bounds]
        tally = {}
        for n in survivors:
            key = []
            for vals, b, side in zip(coord_lists, bounds, sides):
                ncells = int(round(2.0 * b / side))
                c = int(math.floor((vals[n - 1] + b) / side))
                key.append(min(max(c, 0), ncells - 1))
            tally.setdefault(tuple(key), []).append(n)
        winner = min(tally, key=lambda k: (-len(tally[k]), k))
        survivors = tally[winner]
    alpha = tuple(-b + (c + 0.5) * s for c, b, s in zip(winner, bounds, sides))
    return alpha, survivors


def test_criterion_4_extraction_correctness():
    w1, w2 = periodic([-1.0, 1.0]), periodic([1.0, -1.0, 0.0])
    D = SubspaceD("finite", (w1, w2))
    sch = bw_extract(D, depth=4, scan_budget=4096)

    delta = sch.tol_schedule[-1]
    half = sch.prefix[len(sch.prefix) // 2:]
    tol_ok = all(abs(coordinate(w, n) - a) <= 2.0 * delta
                 for w, a in zip((w1, w2), sch.alpha) for n in half)

    pat1, pat2 = (-1.0, 1.0), (1.0, -1.0, 0.0)
    lists = ([pat1[(n - 1) % 2] for n in range(1, 4097)],
             [pat2[(n - 1) % 3] for n in range(1, 4097)])
    alpha, survivors = _brute_force_cluster(lists, (1.0, 1.0), 4, 4096)
    oracle_ok = (tuple(sch.alpha) == pytest.approx(alpha, abs=1e-12)
                 and list(sch.prefix) == survivors)

    report(4, "extraction correctness",
           len(sch.prefix) >= 64 and tol_ok and oracle_ok,
           f"prefix {len(sch.prefix)}, alpha {sch.alpha}")


def test_criterion_5_separation_witnesses():
    cfg = validate_config(load_config("finite_basis"))
    space, D, samples_x, d_samples = build_run(cfg)
    sch = bw_extract(D, cfg["depth"], cfg["scan_budget"])

    pairs = 0
    failures = []
    for x in samples_x:
        for coeffs in d_samples:
            pairs += 1
            d = D.combination(coeffs)
            err = 0.0
            if d.bound > 0.0:
                err = limit_along(d, sch, sch.length).err
            w = separation_witness(space, sch, x, d, 0.2, 5)
            diff = combine((1.0, -1.0), (scheme_embed(space, sch, x), d))
            nx = space.norm(x)
            ok = (w.gap >= 2.0 * nx * 0.8 - 2.0 * err - 1e-9
                  and reverify_witness(diff, w))
            if not ok:
                failures.append((list(x), coeffs))
    report(5, "separation witnesses", pairs == 20 and not failures,
           f"{pairs} pairs, {len(failures)} failures")


def test_criterion_6_degeneracy_to_plain_embedding():
    sp = FiniteDimLp(2, 2)
    x = np.array([3.0, 4.0])
    t1 = embed_t1(sp, x)
    t2 = scheme_embed(sp, identity_scheme(), x)
    # relabeling: the identity scheme puts +phi_k on evens, the plain
    # embedding on odds
    ok = all(coordinate(t2, 2 * k) == coordinate(t1, 2 * k - 1)
             and coordinate(t2, 2 * k - 1) == coordinate(t1, 2 * k)
             for k in range(1, K_DEEP // 2 + 1))
    report(6, "degeneracy to the plain embedding", ok,
           f"bit-identical on 1..{K_DEEP}")


def test_criterion_7_diagonalization():
    schedule = (0.5, 0.25, 0.125, 0.0625, 0.03125)
    base = periodic([-1.0, 1.0])
    members = [combine([1.0 + 1.0 / i], [base]) for i in range(1, 6)]
    D = SubspaceD("countable", tuple(members))
    sch = diagonal_extract(D, 5, schedule, 10 ** 4)

    tail = sch.prefix[5:]
    var_ok = all(
        max(coordinate(w, n) for n in tail) -
        min(coordinate(w, n) for n in tail) <= schedule[i]
        for i, w in enumerate(members))

    limits = [limit_along(w, sch, sch.length) for w in members]
    limit_ok = all(abs(est.L - (-(1.0 + 1.0 / i))) <= est.err + 1e-12
                   for i, est in zip(range(1, 6), limits))

    rng = np.random.default_rng(SEED)
    linear_ok = True
    for _ in range(20):
        c = rng.uniform(-2.0, 2.0, size=5)
        est = limit_along(combine(c, members), sch, sch.length)
        expected = sum(ci * li.L for ci, li in zip(c, limits))
        budget = sum(abs(ci) * li.err for ci, li in zip(c, limits)) + est.err
        if abs(est.L - expected) > budget + 1e-12:
            linear_ok = False
    report(7, "diagonalization", var_ok and limit_ok and linear_ok,
           f"prefix {len(sch.prefix)}, L = {[round(e.L, 4) for e in limits]}")


def test_criterion_8_verdict_soundness():
    # InC only for convergence-tagged inputs
    from seqembed import eventually_constant, explicit_limit, from_function
    tagged_ok = (isinstance(classify_c(eventually_constant(2.0), 64, 1.0), InC)
                 and isinstance(classify_c(explicit_limit(1.0, 3.0), 64, 1.0), InC))
    opaque = from_function(lambda n: 1.0 / n, 1.0)
    untagged_ok = not isinstance(classify_c(opaque, 4096, 0.1), InC)

    # embedded images of every bundled sample are NotInC at defaults
    embedded_ok = True
    for name in ("basic", "finite_basis", "countable_family", "dense_family"):
        cfg = validate_config(load_config(name))
        space, _, xs, _ = build_run(cfg)
        for x in xs:
            v = classify_c(embed_t1(space, x), 4096, space.norm(x))
            if not isinstance(v, NotInC):
                embedded_ok = False

    # independent sup oracle through level 3
    oracle_ok = True
    for dim, p in ((1, 2.0), (2, 1.0), (2, 2.0), (3, 1.5), (2, math.inf)):
        sp = FiniteDimLp(dim, p)
        x = np.arange(1.0, dim + 1.0) * np.where(np.arange(dim) % 2, -1.0, 1.0)
        for level in (1, 2, 3):
            K = sp.net_size_through_level(level)
            a = brute_force_sup(sp, x, level)
            b = prefix_sup(embed_t1(sp, x), 2 * K)
            if abs(a - b) > 1e-9:
                oracle_ok = False
    report(8, "verdict soundness",
           tagged_ok and untagged_ok and embedded_ok and oracle_ok)


def test_criterion_9_cli_determinism(tmp_path):
    def run(*args):
        return subprocess.run([sys.executable, "-m", "seqembed.cli", *args],
                              capture_output=True, text=True)

    def strip_timestamp(path):
        lines = path.read_text().splitlines()
        return "\n".join(l for l in lines if '"timestamp"' not in l)

    ok = True
    for name in ("basic", "finite_basis", "countable_family", "dense_family"):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        ra = run("suite", "--config", name, "--out", str(a))
        rb = run("suite", "--config", name, "--out", str(b))
        if ra.returncode != 0 or rb.returncode != 0:
            ok = False
        if strip_timestamp(a) != strip_timestamp(b):
            ok = False

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"space": "fdlp:dim=0", "samples": [[1.0]]}))
    if run("embed", "--config", str(bad)).returncode != 1:
        ok = False
    starved = tmp_path / "starved.json"
    starved.write_text(json.dumps({
        "space": "fdlp:dim=2,p=2", "samples": [[3.0, 4.0]],
        "epsilon": 0.01, "count": 50, "witness_budget": 16}))
    if run("embed", "--config", str(starved)).returncode != 2:
        ok = False
    report(9, "CLI determinism and exit codes", ok)
