"""Seeded cases of the three benchmark workloads.

A workload is a list of templates. Each template makes CASES cases, case
i from its own generator seeded with (template, i), so the case set is
fixed. `Workload.round(seed, r)` picks, from the benchmark seed and the
round number, which case of every template round r runs and in which
order. `expected.json` (written by `record.py`) holds the index-level
output and status of every case, so every seed is checked.

An operation's *index-level output* is what must not change while the
program is optimised: witness indices, scheme prefixes (as digests),
verdict kinds and the exit status. Floats are left out; certificates
are re-checked instead (`Template.recheck`).

Every workload reaches every layer at least once per round, so each
traced self time is measured, not a constant zero; the weight of each
layer differs as described in BENCHMARK.json.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import seqembed as se
from seqembed import cli
from seqembed.errors import BudgetExhausted

#: cases made per seeded template
CASES = 8
#: net index through which session-warm warms every space in set-up
WARM_DEPTH = 20000
#: bundled configs cycled by cli-suite
BUNDLED = ("basic", "finite_basis", "countable_family", "dense_family")


def digest(obj) -> str:
    """Short stable digest of a JSON-able object."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# templates, cases and workloads

@dataclass(frozen=True)
class Outcome:
    status: object          # 0 ok, 2 budget exhausted, a CLI exit code, or "raised X"
    output: object          # index-level output (JSON-able)
    payload: object = None  # what `recheck` needs (JSON-able), or None


@dataclass(frozen=True)
class Template:
    """One kind of operation.

    make(rng) -> inputs (JSON-able); run(inputs, ctx) -> raw result, the
    timed part; observe(raw, ctx) -> Outcome; recheck(inputs, payload)
    -> list of problems found by an independent re-check.
    """
    name: str
    make: Callable
    run: Callable
    observe: Callable
    recheck: Callable = lambda inputs, payload: []
    per_round: int = 1
    fixed: bool = False


@dataclass(frozen=True)
class Case:
    template: Template
    index: int
    inputs: dict

    @property
    def key(self) -> str:
        return f"{self.template.name}/{self.index}"

    @property
    def digest(self) -> str:
        return digest(self.inputs)


def make_cases(t: Template) -> list:
    if t.fixed:
        return [Case(t, 0, t.make(None))]
    salt = zlib.crc32(t.name.encode())
    return [Case(t, i, t.make(np.random.default_rng([salt, i])))
            for i in range(CASES)]


@dataclass
class Workload:
    name: str
    templates: list
    ctx: object
    cases: dict = field(default_factory=dict)

    def __post_init__(self):
        self.cases = {t.name: make_cases(t) for t in self.templates}

    def round(self, seed: int, r: int) -> list:
        """Cases of round r: every template's per_round picks, shuffled."""
        rng = np.random.default_rng([seed % 2 ** 32, r])
        picks = []
        for t in self.templates:
            pool = self.cases[t.name]
            picks.extend(pool[int(rng.integers(len(pool)))] for _ in range(t.per_round))
        return [picks[i] for i in rng.permutation(len(picks))]

    def all_cases(self) -> list:
        return [c for t in self.templates for c in self.cases[t.name]]


def execute(case: Case, ctx) -> tuple:
    """Run one operation: (Outcome, seconds). Only `run` is timed."""
    t0 = time.perf_counter()
    try:
        raw = case.template.run(case.inputs, ctx)
    except BudgetExhausted as exc:
        raw = exc
    except Exception as exc:   # an unexpected raise fails this operation only
        raw = exc
    dt = time.perf_counter() - t0
    if isinstance(raw, Exception) and not isinstance(raw, BudgetExhausted):
        return Outcome(f"raised {type(raw).__name__}: {raw}", None), dt
    return case.template.observe(raw, ctx), dt


# ---------------------------------------------------------------------------
# input generators

def _pattern(rng) -> list:
    """Non-constant periodic pattern over {-1, 0, 1}."""
    while True:
        vals = rng.integers(-1, 2, size=int(rng.integers(2, 5))).tolist()
        if len(set(vals)) > 1:
            return [float(v) for v in vals]


def _seq_desc(rng, mode: str) -> dict:
    """A generator of D: periodic, evconst or combo, as a JSON description."""
    if mode == "dense":
        return {"evconst": round(float(rng.uniform(-1, 1)), 3)}
    c = round(float(rng.uniform(0.5, 2.0)), 3)
    if mode == "countable":
        return {"combo": [[c, {"periodic": _pattern(rng)}]]}
    choice = int(rng.integers(3))
    if choice == 0:
        return {"periodic": _pattern(rng)}
    if choice == 1:
        return {"combo": [[c, {"periodic": _pattern(rng)}],
                          [1.0, {"evconst": round(float(rng.uniform(-1, 1)), 3)}]]}
    return {"combo": [[c, {"periodic": _pattern(rng)}]]}


def make_seq(desc: dict):
    """BoundedSeq from a `_seq_desc` description."""
    if "periodic" in desc:
        return se.periodic(desc["periodic"])
    if "evconst" in desc:
        return se.eventually_constant(desc["evconst"])
    return se.combine([c for c, _ in desc["combo"]],
                      [make_seq(d) for _, d in desc["combo"]])


def _seq_spec(desc: dict) -> str:
    """The CLI spelling of a `_seq_desc` description."""
    if "periodic" in desc:
        return "periodic:" + ",".join(repr(v) for v in desc["periodic"])
    if "evconst" in desc:
        return f"evconst:{desc['evconst']!r}"
    return "combo:" + "+".join(f"{c!r}*{_seq_spec(d)}" for c, d in desc["combo"])


def _d_rows(rng, size: int, n: int) -> list:
    return [[float(c) for c in rng.choice([-1.0, 0.0, 0.5, 1.0], size=size)]
            for _ in range(n)]


def _lattice(spec: str, rng, n: int) -> list:
    space = se.parse_space(spec)
    return [space.element_to_json(space.lattice_sample(rng)) for _ in range(n)]


def _random(spec: str, rng, n: int) -> list:
    space = se.parse_space(spec)
    return [space.element_to_json(space.random_element(rng)) for _ in range(n)]


def _family(rng, mode: str) -> dict:
    size = int(rng.integers(1, 3)) if mode == "finite" else 3
    fam = {"mode": mode, "members": [_seq_desc(rng, mode) for _ in range(size)]}
    if mode != "finite":
        fam["schedule"] = [0.5, 0.25, 0.125]
    return fam


def make_family(fam: dict):
    return se.SubspaceD(fam["mode"], tuple(make_seq(d) for d in fam["members"]))


def extract(D, fam: dict, depth: int, scan_budget: int):
    if fam["mode"] == "finite":
        return se.bw_extract(D, depth, scan_budget)
    return se.diagonal_extract(D, len(fam["members"]), fam["schedule"], scan_budget)


# ---------------------------------------------------------------------------
# observing results

def _witness_out(w) -> list:
    return [list(w.plus_indices), list(w.minus_indices)]


def _witness_payload(w) -> dict:
    return {"plus": list(w.plus_indices), "minus": list(w.minus_indices),
            "gap": w.gap}


def observe_witness(raw, ctx) -> Outcome:
    if isinstance(raw, BudgetExhausted):
        return Outcome(2, _witness_out(raw.partial))
    return Outcome(0, _witness_out(raw), _witness_payload(raw))


def observe_verdict(raw, ctx) -> Outcome:
    kind = type(raw).__name__
    if kind != "NotInC":
        return Outcome(0, [kind])
    return Outcome(0, [kind] + _witness_out(raw.witness),
                   _witness_payload(raw.witness))


def observe_defects(raw, ctx) -> Outcome:
    rows = [[r["lower"], r["achieved"], r["upper"]] for r in raw["per_sample"]]
    return Outcome(0, [len(rows), len(raw["errors"])], rows)


def observe_separation(raw, ctx) -> Outcome:
    if isinstance(raw, BudgetExhausted):
        return Outcome(2, [digest(list(raw.partial.prefix))])
    scheme, sep = raw
    out = [digest(list(scheme.prefix)),
           [[w["x_id"], w["d_id"], w["plus_indices"], w["minus_indices"]]
            for w in sep["witnesses"]],
           [[b["x_id"], b["d_id"], b["found"]] for b in sep["budget_exhausted"]],
           len(sep["errors"])]
    return Outcome(0, out, [[w["x_id"], w["d_id"], w["gap"], w["plus_indices"],
                             w["minus_indices"]] for w in sep["witnesses"]])


def observe_scheme(raw, ctx) -> Outcome:
    exhausted = isinstance(raw, BudgetExhausted)
    scheme = raw.partial if exhausted else raw
    return Outcome(2 if exhausted else 0,
                   [digest(list(scheme.prefix)), len(scheme.prefix)])


def observe_oracle(raw, ctx) -> Outcome:
    vals = np.abs(np.asarray(raw))
    return Outcome(0, [int(np.argmax(vals)) + 1, len(raw)], raw)


# ---------------------------------------------------------------------------
# independent re-checks

def _interval_problems(rows) -> list:
    """The check_isometry contract: lower - 1e-9 <= achieved <= upper + 1e-9."""
    return [f"defect interval {r} breaks the contract" for r in rows
            if not r[0] - 1e-9 <= r[1] <= r[2] + 1e-9]


def _reverify(seq, plus, minus, gap) -> list:
    """reverify_witness on a witness rebuilt from its indices and gap."""
    pv = tuple(se.coordinate(seq, n) for n in plus)
    mv = tuple(se.coordinate(seq, n) for n in minus)
    w = se.OscillationWitness(tuple(plus), tuple(minus), pv, mv, gap, 0.0,
                              min(pv), max(mv))
    if se.reverify_witness(seq, w):
        return []
    return [f"witness {list(plus)}/{list(minus)} gap {gap!r} fails reverify_witness"]


def _image(space, x, indices):
    """embed_t1 image with the net grown once to the deepest index needed."""
    space.net_point(max((n + 1) // 2 for n in indices))
    return se.embed_t1(space, x)


def recheck_witness(inputs, payload) -> list:
    space = se.parse_space(inputs["space"])
    x = space.element_from_json(inputs["x"])
    seq = _image(space, x, payload["plus"] + payload["minus"])
    return _reverify(seq, payload["plus"], payload["minus"], payload["gap"])


def recheck_defects(inputs, payload) -> list:
    return _interval_problems(payload)


def recheck_oracle(inputs, payload) -> list:
    """Oracle values match the block path and lie in the defect interval."""
    space = se.parse_space(inputs["space"])
    x = space.element_from_json(inputs["x"])
    n = len(payload)
    block = se.embed_t1(space, x).coordinates(1, n)
    problems = []
    if np.max(np.abs(block - np.asarray(payload))) > 1e-9:
        problems.append("oracle and block coordinates disagree")
    rec = se.isometry_defect(space, x, n // 2)
    achieved = float(np.max(np.abs(payload)))
    problems += _interval_problems([[rec.lower, achieved, rec.upper]])
    return problems


def recheck_separation(inputs, payload) -> list:
    space = se.parse_space(inputs["space"])
    fam = inputs["family"]
    D = make_family(fam)
    scheme = extract(D, fam, inputs["depth"], inputs["scan_budget"])
    samples = [space.element_from_json(x) for x in inputs["samples"]]
    return _recheck_pairs(space, D, scheme, samples, inputs["d_rows"], payload)


def _recheck_pairs(space, D, scheme, samples, d_rows, pairs) -> list:
    """Re-check separation witnesses (x_id, d_id, gap, plus, minus) the
    way check_separation numbers its d rows (zero row first if absent)."""
    rows = [list(r) for r in d_rows]
    if not any(all(c == 0.0 for c in r) for r in rows):
        rows = [[0.0] * D.size] + rows
    problems = []
    for x_id, d_id, gap, plus, minus in pairs:
        k_max = max(scheme.classify(n)[1] for n in plus + minus)
        space.net_point(max(k_max, 1))
        seq = se.combine((1.0, -1.0), (se.scheme_embed(space, scheme, samples[x_id]),
                                       D.combination(rows[d_id])))
        problems += _reverify(seq, plus, minus, gap)
    return problems


# ---------------------------------------------------------------------------
# CLI operations

@dataclass
class Context:
    """What operations share: the work directory for CLI configs and
    reports, and where spaces and subspaces come from (built fresh here,
    warm in WarmContext)."""
    workdir: str
    sink: io.StringIO = field(default_factory=io.StringIO)

    def __post_init__(self):
        os.makedirs(self.workdir, exist_ok=True)

    def space(self, spec: str):
        """A fresh space: every operation builds its own."""
        return se.parse_space(spec)

    def subspace(self, fam: dict, depth: int, scan_budget: int):
        """D and its extracted scheme, built fresh."""
        D = make_family(fam)
        return D, extract(D, fam, depth, scan_budget)

    @property
    def report_path(self) -> str:
        return os.path.join(self.workdir, "report.json")

    def config_path(self, inputs) -> str:
        if "bundled" in inputs:
            return inputs["bundled"]
        return os.path.join(self.workdir, f"cfg-{digest(inputs)}.json")

    def write_configs(self, cases):
        for case in cases:
            if "config" in case.inputs:
                with open(self.config_path(case.inputs), "w", encoding="utf-8") as fh:
                    json.dump(case.inputs["config"], fh)


def run_cli(inputs, ctx):
    args = list(inputs["argv"])
    if args[0] != "classify":
        args += ["--config", ctx.config_path(inputs)]
    args += ["--out", ctx.report_path]
    with contextlib.redirect_stdout(ctx.sink):
        return cli.main(args)


def observe_cli(code, ctx) -> Outcome:
    ctx.sink.seek(0)
    ctx.sink.truncate()
    try:
        with open(ctx.report_path, encoding="utf-8") as fh:
            rep = json.load(fh)
        os.remove(ctx.report_path)
    except FileNotFoundError:
        return Outcome(code, None)
    scheme = rep.get("scheme")
    out = {"scheme": digest(scheme["prefix"]) if scheme else None,
           "witnesses": [[w["x_id"], w["d_id"], w["plus_indices"],
                          w["minus_indices"]] for w in rep["witnesses"]],
           "verdicts": [[v["seq_id"], v["kind"], v["detail"].get("plus_indices"),
                         v["detail"].get("minus_indices")] for v in rep["verdicts"]],
           "exhausted": [[b.get("x_id"), b.get("d_id"), b.get("found"),
                          b.get("stage")] for b in rep["budget_exhausted"]],
           "errors": len(rep["errors"])}
    payload = {"intervals": [[r["lower"], r["achieved"], r["upper"]]
                             for r in rep["per_sample"]],
               "witnesses": [[w["x_id"], w["d_id"], w["gap"], w["plus_indices"],
                              w["minus_indices"]] for w in rep["witnesses"]],
               "verdicts": [[v["seq_id"], v["detail"]["gap"],
                             v["detail"]["plus_indices"], v["detail"]["minus_indices"]]
                            for v in rep["verdicts"] if v["kind"] == "NotInC"]}
    return Outcome(code, out, payload)


def recheck_cli(inputs, payload) -> list:
    """Re-check every certificate of a report from its config alone."""
    problems = _interval_problems(payload["intervals"])
    command = inputs["argv"][0]
    if command == "classify":
        for spec, gap, plus, minus in payload["verdicts"]:
            problems += _reverify(cli.parse_seq_spec(spec), plus, minus, gap)
        return problems
    raw = (cli.load_config(inputs["bundled"]) if "bundled" in inputs
           else inputs["config"])
    cfg = cli.validate_config(raw)
    space, D, samples, d_rows = cli.build_run(cfg)
    if payload["witnesses"]:
        if command == "embed":
            for x_id, _, gap, plus, minus in payload["witnesses"]:
                seq = _image(space, samples[x_id], plus + minus)
                problems += _reverify(seq, plus, minus, gap)
        else:
            scheme = cli.make_scheme(cfg, D)
            problems += _recheck_pairs(space, D, scheme, samples, d_rows,
                                       payload["witnesses"])
    for seq_id, gap, plus, minus in payload["verdicts"]:
        x = samples[int(seq_id[3:-1])]          # "T(x<i>)"
        problems += _reverify(_image(space, x, plus + minus), plus, minus, gap)
    return problems


def _cli_template(name, command, spec, mode, per_round=1):
    """A CLI report on a config generated for (space spec, d_mode)."""
    def make(rng):
        fam = _family(rng, mode)
        specs = [_seq_spec(d) for d in fam["members"]]
        cfg = {"name": name, "space": spec, "d_mode": mode, "d_basis": specs,
               "samples": _lattice(spec, rng, 2),
               "d_samples": [[0.0] * len(specs)] + _d_rows(rng, len(specs), 2),
               "epsilon": 0.2, "count": 5, "K": 64, "depth": 3,
               "scan_budget": 4096, "witness_budget": 20000,
               "classify_budget": 2048, "seed": 0}
        if mode != "finite":
            cfg.update(m=len(specs), tol_schedule=fam["schedule"])
        if command == "embed":
            cfg.update(d_mode="finite", d_basis=[], d_samples=[[]],
                       witness_budget=100000)
        return {"argv": [command], "config": cfg}
    return Template(name, make, run_cli, observe_cli, recheck_cli, per_round)


def _bundled(name):
    return Template(f"bundled_{name}", lambda rng: {"argv": ["suite"], "bundled": name},
                    run_cli, observe_cli, recheck_cli, fixed=True)


def cli_suite(workdir: str) -> Workload:
    """In-process `seqembed suite` (and `embed`) reports on fresh spaces."""
    templates = [_bundled(n) for n in BUNDLED] + [
        _cli_template("suite_fdlp2_p1_finite", "suite", "fdlp:dim=2,p=1", "finite"),
        _cli_template("suite_fdlp2_p2_countable", "suite", "fdlp:dim=2,p=2", "countable"),
        _cli_template("suite_fdlp3_p3_dense", "suite", "fdlp:dim=3,p=3", "dense"),
        _cli_template("suite_fdlp2_pinf_finite", "suite", "fdlp:dim=2,p=inf", "finite"),
        _cli_template("suite_fdlp3_p2_countable", "suite", "fdlp:dim=3,p=2", "countable"),
        _cli_template("suite_seqlp2_dense", "suite", "seqlp:p=2,support=4", "dense"),
        _cli_template("suite_seqlp1_finite", "suite", "seqlp:p=1,support=4", "finite"),
        _cli_template("suite_c01_countable", "suite", "c01", "countable"),
        _cli_template("embed_fdlp2_p3", "embed", "fdlp:dim=2,p=3", "finite"),
        _cli_template("embed_fdlp3_p1", "embed", "fdlp:dim=3,p=1", "finite"),
        _cli_template("embed_seqlp2", "embed", "seqlp:p=2,support=4", "finite"),
        _cli_template("embed_c01", "embed", "c01", "finite"),
    ]
    ctx = Context(workdir)
    wl = Workload("cli-suite", templates, ctx)
    ctx.write_configs(wl.all_cases())
    return wl


# ---------------------------------------------------------------------------
# library operations, on spaces from the context (fresh in net-cold, warm in
# session-warm)

def run_oracle(inputs, ctx):
    """Coordinates 1..N of embed_t1 through the per-coordinate oracle."""
    space = ctx.space(inputs["space"])
    s = se.embed_t1(space, space.element_from_json(inputs["x"]))
    return [se.coordinate(s, n) for n in range(1, inputs["N"] + 1)]


def run_witness(inputs, ctx):
    space = ctx.space(inputs["space"])
    return se.oscillation_witness(space, space.element_from_json(inputs["x"]),
                                  inputs["epsilon"], inputs["count"],
                                  inputs["scan_budget"])


def run_defects(inputs, ctx):
    space = ctx.space(inputs["space"])
    samples = [space.element_from_json(x) for x in inputs["samples"]]
    return se.check_isometry(space, samples, inputs["K"])


def run_classify(inputs, ctx):
    space = ctx.space(inputs["space"])
    x = space.element_from_json(inputs["x"])
    return se.classify_c(se.embed_t1(space, x), inputs["budget"], space.norm(x))


def run_separation(inputs, ctx):
    space = ctx.space(inputs["space"])
    D, scheme = ctx.subspace(inputs["family"], inputs["depth"], inputs["scan_budget"])
    samples = [space.element_from_json(x) for x in inputs["samples"]]
    return scheme, se.check_separation(space, D, scheme, samples, inputs["d_rows"],
                                       0.2, 5, inputs["witness_budget"])


def _pick(options, rng):
    return options[int(rng.integers(len(options)))]


_FDLP = ["fdlp:dim=2,p=1", "fdlp:dim=2,p=2", "fdlp:dim=2,p=3", "fdlp:dim=2,p=inf",
         "fdlp:dim=3,p=1", "fdlp:dim=3,p=2", "fdlp:dim=3,p=3", "fdlp:dim=3,p=inf"]
_KINDS = ["fdlp:dim=2,p=2", "fdlp:dim=3,p=inf", "seqlp:p=2,support=4", "c01"]


def _oracle(name, specs, n_range, sampler=_lattice, per_round=3):
    def make(rng):
        spec = _pick(specs, rng)
        n = int(rng.integers(*n_range)) // 2 * 2
        return {"space": spec, "x": sampler(spec, rng, 1)[0], "N": n}
    return Template(name, make, run_oracle, observe_oracle, recheck_oracle, per_round)


def _separation(name, mode, specs, per_round=3):
    def make(rng):
        spec = _pick(specs, rng)
        fam = _family(rng, mode)
        return {"space": spec, "family": fam, "depth": 3, "scan_budget": 4096,
                "samples": _lattice(spec, rng, 2),
                "d_rows": _d_rows(rng, len(fam["members"]), 2),
                "witness_budget": 20000}
    return Template(name, make, run_separation, observe_separation,
                    recheck_separation, per_round)


FRESH_ORACLE_FDLP2 = Template(
    "fresh_oracle_fdlp2",
    lambda rng: {"space": "fdlp:dim=2,p=2", "x": [3.0, 4.0], "N": 2000},
    run_oracle, observe_oracle, recheck_oracle, fixed=True)
WITNESS_SEQLP1 = Template(
    "witness_seqlp1",
    lambda rng: {"space": "seqlp:p=1,support=8", "x": {"2": -1.5},
                 "epsilon": 0.2, "count": 10, "scan_budget": 100000},
    run_witness, observe_witness, recheck_witness, fixed=True)
#: ROADMAP's known-slow fixed cases, timed alone in every traced run
FIXED_CASES = (FRESH_ORACLE_FDLP2, WITNESS_SEQLP1)


def net_cold(workdir: str) -> Workload:
    """Fresh spaces driven deep: net growth and the witness scan loop."""
    def witness(rng, specs, count_range, eps):
        spec = _pick(specs, rng)
        sampler = _random if spec.startswith("fdlp") else _lattice
        return {"space": spec, "x": sampler(spec, rng, 1)[0], "epsilon": eps,
                "count": int(rng.integers(*count_range)), "scan_budget": 20000}

    templates = [
        FRESH_ORACLE_FDLP2,
        WITNESS_SEQLP1,
        _oracle("oracle_fdlp", _FDLP, (1000, 1200)),
        _oracle("oracle_seqlp", ["seqlp:p=1,support=4", "seqlp:p=2,support=4"],
                (600, 700), _random),
        _oracle("oracle_c01", ["c01"], (2000, 2001), _random),
        Template("witness_seqlp",
                 lambda rng: witness(rng, ["seqlp:p=1,support=4", "seqlp:p=2,support=4"],
                                     (4, 8), 0.2),
                 run_witness, observe_witness, recheck_witness, per_round=3),
        Template("witness_fdlp", lambda rng: witness(rng, _FDLP, (10, 11), 0.15),
                 run_witness, observe_witness, recheck_witness, per_round=3),
        Template("defects", lambda rng: _defect_inputs(rng, _pick(_KINDS, rng), 8000, 2500),
                 run_defects, observe_defects, recheck_defects, per_round=3),
        Template("classify", _classify_inputs, run_classify, observe_verdict,
                 recheck_witness, per_round=3),
        _separation("separation_finite", "finite", _FDLP + ["seqlp:p=2,support=4"]),
        _separation("separation_diagonal", "countable", _FDLP + ["c01"]),
        _cli_template("cli_embed_seqlp", "embed", "seqlp:p=1,support=4", "finite", 3),
    ]
    ctx = Context(workdir)
    wl = Workload("net-cold", templates, ctx)
    ctx.write_configs(wl.all_cases())
    return wl


def _classify_inputs(rng):
    spec = _pick(_KINDS, rng)
    return {"space": spec, "x": _lattice(spec, rng, 1)[0], "budget": 2048}


def _defect_inputs(rng, spec, k_fdlp, k_other):
    k = k_fdlp if spec.startswith("fdlp") else k_other
    return {"space": spec, "samples": _random(spec, rng, 1),
            "K": int(rng.integers(k, k + k // 4))}


# ---------------------------------------------------------------------------
# session-warm: one long session over spaces whose nets are warm

@dataclass
class WarmContext(Context):
    """Spaces warmed through WARM_DEPTH and the D families with their
    schemes, all built once in set-up and shared by every operation."""
    spaces: dict = field(default_factory=dict)
    subspaces: dict = field(default_factory=dict)

    def space(self, spec: str):
        return self.spaces[spec]

    def subspace(self, fam: dict, depth: int, scan_budget: int):
        return self.subspaces[digest([fam, depth, scan_budget])]


def _warm_families() -> list:
    """D families of session-warm, fixed so recorded outputs stay valid:
    two finite bases (bw_extract), a countable and a dense family
    (diagonal_extract)."""
    rng = np.random.default_rng(20250826)
    return [_family(rng, mode) for mode in ("finite", "finite", "countable", "dense")]


WARM_FAMILIES = _warm_families()
#: (depth, scan_budget) of the scheme built for each warm family
_WARM_SCHEME = (4, 8192)


def _warm_context(workdir: str) -> WarmContext:
    ctx = WarmContext(workdir)
    for spec in _KINDS:
        ctx.spaces[spec] = se.parse_space(spec)
        ctx.spaces[spec].net_point(WARM_DEPTH)
    for fam in WARM_FAMILIES:
        ctx.subspaces[digest([fam, *_WARM_SCHEME])] = Context.subspace(
            ctx, fam, *_WARM_SCHEME)
    return ctx


def _warm_make(kind):
    def make(rng):
        spec = _pick(_KINDS, rng)
        if kind in ("bw_extract", "diagonal_extract"):
            fam = WARM_FAMILIES[_pick([0, 1] if kind == "bw_extract" else [2, 3], rng)]
            return {"family": fam, "depth": int(rng.integers(3, 6)),
                    "scan_budget": int(rng.integers(20000, 40000))}
        fam = _pick(WARM_FAMILIES, rng)
        size = len(fam["members"])
        if kind == "limit":
            return {"family": fam, "d_rows": _d_rows(rng, size, 64),
                    "j_window": int(rng.integers(256, 512))}
        if kind == "separation":
            return {"space": spec, "family": fam, "depth": _WARM_SCHEME[0],
                    "scan_budget": _WARM_SCHEME[1], "samples": _lattice(spec, rng, 2),
                    "d_rows": _d_rows(rng, size, 3), "witness_budget": WARM_DEPTH}
        if kind == "classify":
            return {"space": spec, "x": _lattice(spec, rng, 1)[0],
                    "budget": int(rng.integers(4096, 8192))}
        if kind == "defects":
            return {"space": spec, "samples": _random(spec, rng, 4),
                    "K": int(rng.integers(WARM_DEPTH // 2, WARM_DEPTH))}
        if kind == "witness":
            return {"space": spec, "x": _random(spec, rng, 1)[0], "epsilon": 0.1,
                    "count": int(rng.integers(20, 30)), "scan_budget": WARM_DEPTH}
        specs = [_seq_spec(_seq_desc(rng, m)) for m in ("finite", "countable", "dense")]
        return {"argv": ["classify", "--budget", str(int(rng.integers(8192, 16384))),
                         "--gap-floor", "0.5"] + [a for s in specs for a in ("--spec", s)]}
    return make


def _run_warm_extract(inputs, ctx):
    D, _ = ctx.subspace(inputs["family"], *_WARM_SCHEME)
    return extract(D, inputs["family"], inputs["depth"], inputs["scan_budget"])


def _run_warm_limit(inputs, ctx):
    D, scheme = ctx.subspace(inputs["family"], *_WARM_SCHEME)
    j = min(inputs["j_window"], len(scheme.prefix))
    return [se.limit_along(D.combination(r), scheme, j) for r in inputs["d_rows"]]


def _observe_limits(raw, ctx) -> Outcome:
    return Outcome(0, [[e.j_window for e in raw]], [[e.L, e.err, e.j_window] for e in raw])


def _recheck_limits(inputs, payload) -> list:
    """Every d(n_j) over the window's last half lies within err of L."""
    fam = inputs["family"]
    D = make_family(fam)
    scheme = extract(D, fam, *_WARM_SCHEME)
    problems = []
    for row, (L, err, j_window) in zip(inputs["d_rows"], payload):
        d = D.combination(row)
        vals = [se.coordinate(d, scheme.index_at(j))
                for j in range(j_window // 2 + 1, j_window + 1)]
        if max(abs(v - L) for v in vals) > err + 1e-9:
            problems.append(f"limit {L!r} +- {err!r} misses d along the scheme "
                            f"for row {row}")
    return problems


def session_warm(workdir: str) -> Workload:
    """Reads over warm nets: extraction, limits, witnesses and verdicts."""
    templates = [
        Template("bw_extract", _warm_make("bw_extract"), _run_warm_extract,
                 observe_scheme, per_round=2),
        Template("diagonal_extract", _warm_make("diagonal_extract"), _run_warm_extract,
                 observe_scheme, per_round=2),
        Template("limit_along", _warm_make("limit"), _run_warm_limit,
                 _observe_limits, _recheck_limits, per_round=2),
        Template("check_separation", _warm_make("separation"), run_separation,
                 observe_separation, recheck_separation, per_round=2),
        Template("classify", _warm_make("classify"), run_classify,
                 observe_verdict, recheck_witness, per_round=2),
        Template("check_isometry", _warm_make("defects"), run_defects,
                 observe_defects, recheck_defects, per_round=2),
        Template("oscillation_witness", _warm_make("witness"), run_witness,
                 observe_witness, recheck_witness, per_round=2),
        Template("cli_classify", _warm_make("cli"), run_cli, observe_cli,
                 recheck_cli, per_round=2),
    ]
    return Workload("session-warm", templates, _warm_context(workdir))


WORKLOADS = {"cli-suite": cli_suite, "net-cold": net_cold,
             "session-warm": session_warm}
