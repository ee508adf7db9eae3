"""Command-line front end.

Subcommands `embed`, `extend`, `classify`, `suite` read a JSON run
configuration, execute the requested constructions, write a JSON
report, and print a short summary table. Exit status: 0 when all
certificates pass, 2 on any exhausted scan budget, 1 on a validation
error, 3 on any other error. Reports are byte-identical across runs of
the same (config, seed) apart from the timestamp field.
"""
from __future__ import annotations

import argparse
import datetime
import importlib.resources
import json
import math
import platform
import sys

import numpy as np

from . import __version__
from .errors import ConfigError, EmptyBasis, KindMismatch, SeqEmbedError
from .extend import SubspaceD, extract_scheme
from .seqcore import BoundedSeq, combine, eventually_constant, \
    explicit_limit, periodic, zero_seq
from .embed import embed_t1, oscillation_witness
from .errors import BudgetExhausted, ZeroElement
from .spaces import parse_space
from .verify import (check_isometry, check_separation, classify_c,
                     verdict_to_json)

_DEFAULTS = {
    "d_mode": "finite",
    "d_basis": [],
    "samples": [],
    "sequences": [],
    "epsilon": 0.2,
    "count": 5,
    "K": 64,
    "depth": 4,
    "scan_budget": 4096,
    "witness_budget": 100000,
    "classify_budget": 4096,
    "m": None,
    "tol_schedule": None,
    "d_samples": None,
    "random_d": 0,
    "seed": 0,
}


# ---------------------------------------------------------------------------
# sequence spec mini-language

def parse_seq_spec(spec: str) -> BoundedSeq:
    """`periodic:<v1,...>`, `evconst:<v>@<n>`, `limit:<v>,rate=<r>`,
    `zero`, or `combo:<c1>*<spec1>+<c2>*<spec2>+...`."""
    spec = spec.strip()
    if spec == "zero":
        return zero_seq()
    head, _, rest = spec.partition(":")
    try:
        if head == "periodic":
            return periodic([float(v) for v in rest.split(",")])
        if head == "evconst":
            value, at, start = rest.partition("@")
            start = int(start) if at else 1
            return eventually_constant(float(value), start,
                                       head=(0.0,) * (start - 1))
        if head == "limit":
            value, _, rate = rest.partition(",")
            if not rate.startswith("rate="):
                raise ConfigError(f"limit spec needs rate=, got {spec!r}")
            return explicit_limit(float(value), float(rate[5:]))
        if head == "combo":
            coeffs, children = [], []
            for term in rest.split("+"):
                c, star, child = term.partition("*")
                if not star:
                    raise ConfigError(f"combo term {term!r} needs <coeff>*<spec>")
                coeffs.append(float(c))
                children.append(parse_seq_spec(child))
            return combine(coeffs, children)
    except (ValueError, SeqEmbedError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad sequence spec {spec!r}: {exc}") from None
    raise ConfigError(f"unknown sequence kind {head!r} in {spec!r}")


# ---------------------------------------------------------------------------
# configuration

def load_config(ref: str) -> dict:
    """Load a config from a path, or by bundled name (basic,
    finite_basis, countable_family, dense_family)."""
    if "/" not in ref and not ref.endswith(".json"):
        res = importlib.resources.files("seqembed") / "configs" / f"{ref}.json"
        if not res.is_file():
            raise ConfigError(f"no bundled config named {ref!r}")
        text = res.read_text(encoding="utf-8")
    else:
        try:
            with open(ref, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {ref!r}: {exc}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {ref!r} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config {ref!r} must be a JSON object")
    return raw


def _is_number(v) -> bool:
    """A finite JSON number; JSON input can carry NaN and Infinity."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _is_int(v, least: int) -> bool:
    """An integer >= least; JSON booleans and floats do not count."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= least


def validate_config(raw: dict) -> dict:
    cfg = dict(_DEFAULTS)
    cfg["name"] = raw.get("name", "run")
    unknown = set(raw) - set(_DEFAULTS) - {"name", "space", "out", "gap_floor"}
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    if "space" not in raw:
        raise ConfigError("config field 'space' is required")
    cfg.update({k: raw[k] for k in raw if k in _DEFAULTS})
    cfg["space_spec"] = raw["space"]
    cfg["gap_floor"] = raw.get("gap_floor")
    cfg["out"] = raw.get("out")

    if cfg["d_mode"] not in ("finite", "countable", "dense"):
        raise ConfigError(f"d_mode must be finite|countable|dense, got {cfg['d_mode']!r}")
    if not (_is_number(cfg["epsilon"]) and 0.0 < cfg["epsilon"] < 1.0):
        raise ConfigError(f"epsilon = {cfg['epsilon']!r} must be a number in (0, 1)")
    if cfg["out"] is not None and not isinstance(cfg["out"], str):
        raise ConfigError(f"out = {cfg['out']!r} must be a path")
    gap_floor = cfg["gap_floor"]
    if gap_floor is not None and not (_is_number(gap_floor) and gap_floor > 0.0):
        raise ConfigError(f"gap_floor = {gap_floor!r} must be a number > 0")
    m, schedule = cfg["m"], cfg["tol_schedule"]
    if m is not None and not _is_int(m, 1):
        raise ConfigError(f"m = {m!r} must be an integer >= 1")
    if schedule is not None and not (isinstance(schedule, list)
                                     and all(map(_is_number, schedule))):
        raise ConfigError(f"tol_schedule = {schedule!r} must be a list of finite numbers")
    for key, least in (("count", 1), ("K", 1), ("depth", 1), ("scan_budget", 1),
                       ("witness_budget", 1), ("classify_budget", 2),
                       ("random_d", 0), ("seed", 0)):
        if not _is_int(cfg[key], least):
            raise ConfigError(f"{key} = {cfg[key]!r} must be an integer >= {least}")
    if not isinstance(cfg["samples"], list):
        raise ConfigError(f"samples = {cfg['samples']!r} must be a list of elements")
    for key in ("d_basis", "sequences"):
        if not (isinstance(cfg[key], list) and all(isinstance(v, str) for v in cfg[key])):
            raise ConfigError(f"{key} = {cfg[key]!r} must be a list of sequence specs")
    rows = cfg["d_samples"]
    if rows is not None and not (isinstance(rows, list) and all(
            isinstance(row, list) and all(map(_is_number, row)) for row in rows)):
        raise ConfigError(f"d_samples = {rows!r} must be a list of lists of finite numbers")
    return cfg


def build_run(cfg: dict):
    """Materialize space, D, samples, and d-combination coefficients."""
    space = parse_space(cfg["space_spec"])
    members = [parse_seq_spec(s) for s in cfg["d_basis"]]
    D = SubspaceD(cfg["d_mode"], tuple(members))
    try:
        samples = [space.element_from_json(obj) for obj in cfg["samples"]]
    except (KindMismatch, TypeError, ValueError) as exc:
        raise ConfigError(f"bad sample for {space.describe()}: {exc}") from None
    if not samples:
        raise ConfigError("config needs at least one sample element")

    d_samples = [[float(c) for c in row] for row in cfg["d_samples"] or []]
    for row in d_samples:
        if len(row) != D.size:
            raise ConfigError(
                f"d_samples row of length {len(row)} does not match "
                f"basis size {D.size}")
    if cfg["random_d"]:
        rng = np.random.default_rng(cfg["seed"])
        for _ in range(cfg["random_d"]):
            d_samples.append([float(c) for c in
                              np.round(rng.uniform(-2, 2, size=D.size), 3)])
    return space, D, samples, d_samples


def make_scheme(cfg: dict, D: SubspaceD):
    """The index scheme for D; an `m` or `tol_schedule` that does not
    fit D is a ConfigError."""
    try:
        return extract_scheme(D, cfg["depth"], cfg["scan_budget"], cfg["m"],
                              cfg["tol_schedule"])
    except (EmptyBasis, ValueError) as exc:
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# report assembly

def _base_report(cfg: dict, command: str) -> dict:
    echo = {k: v for k, v in cfg.items() if k not in ("out",)}
    return {
        "command": command,
        "config_echo": echo,
        "per_sample": [],
        "witnesses": [],
        "verdicts": [],
        "errors": [],
        "budget_exhausted": [],
        "seed": cfg["seed"],
        "versions": {
            "seqembed": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _add_verdict(report: dict, seq_id: str, verdict) -> str:
    detail = verdict_to_json(verdict)
    report["verdicts"].append(
        {"seq_id": seq_id, "kind": detail["kind"], "detail": detail})
    return detail["kind"]


def _classify_embedded(space, samples, cfg, report):
    for sid, x in enumerate(samples):
        nx = space.norm(x)
        gap_floor = cfg["gap_floor"] if cfg["gap_floor"] else max(nx, 1e-6)
        seq_id = f"T(x{sid})"
        kind = _add_verdict(report, seq_id, classify_c(
            embed_t1(space, x), cfg["classify_budget"], gap_floor))
        if nx > 0 and kind != "NotInC":
            report["errors"].append({
                "seq_id": seq_id,
                "error": f"embedded image classified {kind}, expected NotInC"})


def run_embed(cfg: dict, report: dict):
    space, _, samples, _ = build_run(cfg)
    iso = check_isometry(space, samples, cfg["K"])
    report["per_sample"] = iso["per_sample"]
    report["errors"].extend(iso["errors"])
    report["max_relative_defect"] = iso["max_relative_defect"]
    for sid, x in enumerate(samples):
        try:
            w = oscillation_witness(space, x, cfg["epsilon"], cfg["count"],
                                    cfg["witness_budget"])
            report["witnesses"].append(
                {"x_id": sid, "d_id": 0, "gap": w.gap,
                 "plus_indices": list(w.plus_indices),
                 "minus_indices": list(w.minus_indices)})
        except BudgetExhausted as exc:
            report["budget_exhausted"].append(
                {"x_id": sid, "d_id": 0, "found": exc.found, "detail": str(exc)})
        except ZeroElement as exc:
            report["errors"].append({"x_id": sid, "error": str(exc)})
    _classify_embedded(space, samples, cfg, report)


def run_extend(cfg: dict, report: dict):
    """Extraction, defects and separation witnesses; returns the space
    and samples it built so a suite run can reuse them."""
    space, D, samples, d_samples = build_run(cfg)
    try:
        scheme = make_scheme(cfg, D)
    except BudgetExhausted as exc:
        report["budget_exhausted"].append({"stage": "extraction",
                                           "detail": str(exc)})
        report["scheme"] = exc.partial.to_json() if exc.partial else None
        return space, samples
    report["scheme"] = scheme.to_json()
    k_cap = scheme.max_k()
    K_eff = cfg["K"] if k_cap is None else min(cfg["K"], k_cap)
    iso = check_isometry(space, samples, K_eff)
    report["per_sample"] = iso["per_sample"]
    report["errors"].extend(iso["errors"])
    report["max_relative_defect"] = iso["max_relative_defect"]
    sep = check_separation(space, D, scheme, samples, d_samples,
                           cfg["epsilon"], cfg["count"],
                           scan_budget=cfg["witness_budget"])
    report["witnesses"] = sep["witnesses"]
    report["errors"].extend(sep["errors"])
    report["budget_exhausted"].extend(sep["budget_exhausted"])
    return space, samples


def run_classify(cfg: dict, report: dict, specs):
    specs = list(specs) if specs else list(cfg["sequences"])
    if not specs:
        raise ConfigError("classify needs --spec arguments or config 'sequences'")
    gap_floor = cfg["gap_floor"] if cfg["gap_floor"] else 1.0
    for spec in specs:
        _add_verdict(report, spec, classify_c(
            parse_seq_spec(spec), cfg["classify_budget"], gap_floor))


def run_suite(cfg: dict, report: dict):
    space, samples = run_extend(cfg, report)
    _classify_embedded(space, samples, cfg, report)
    if cfg["sequences"]:
        run_classify(cfg, report, cfg["sequences"])


# ---------------------------------------------------------------------------
# entry point

def _status(report: dict) -> int:
    if report["errors"] or any(not r["pass"] for r in report["per_sample"]):
        report["status"] = "fail"
        return 1
    if report["budget_exhausted"]:
        report["status"] = "budget-exhausted"
        return 2
    report["status"] = "pass"
    return 0


def _summarize(report: dict) -> str:
    lines = [f"seqembed {report['command']}  [{report['status']}]"]
    if report["per_sample"]:
        lines.append(f"  {'sample':>8} {'lower':>12} {'achieved':>12} "
                     f"{'upper':>12}  pass")
        for r in report["per_sample"]:
            lines.append(f"  {r['x_id']:>8} {r['lower']:>12.6g} "
                         f"{r['achieved']:>12.6g} {r['upper']:>12.6g}  "
                         f"{'yes' if r['pass'] else 'NO'}")
    if report["witnesses"]:
        gaps = [w["gap"] for w in report["witnesses"]]
        lines.append(f"  witnesses: {len(gaps)}  min gap {min(gaps):.6g}")
    for v in report["verdicts"]:
        lines.append(f"  verdict {v['seq_id']}: {v['kind']}")
    for b in report["budget_exhausted"]:
        lines.append(f"  BUDGET EXHAUSTED: {b}")
    for e in report["errors"]:
        lines.append(f"  ERROR: {e}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="seqembed",
        description="constructive embeddings into bounded sequences "
                    "avoiding convergence, with certificates")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("embed", "extend", "classify", "suite"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="config file path or bundled name")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="report output path")
        p.add_argument("--budget", type=int, default=None,
                       help="override classify/witness budget")
        if name == "classify":
            p.add_argument("--spec", action="append", default=[],
                           help="sequence spec (repeatable)")
            p.add_argument("--gap-floor", type=float, default=None)
            p.add_argument("--space", default="fdlp:dim=1,p=2",
                           help="space spec when no config is given")
    args = parser.parse_args(argv)

    try:
        if args.config:
            raw = load_config(args.config)
        elif args.command == "classify":
            raw = {"space": args.space, "samples": [[1.0]]}
        else:
            raise ConfigError(f"{args.command} requires --config")
        # command-line values replace the config's before it is validated
        for key, value in (("seed", args.seed), ("classify_budget", args.budget),
                           ("witness_budget", args.budget),
                           ("gap_floor", getattr(args, "gap_floor", None))):
            if value is not None:
                raw[key] = value
        cfg = validate_config(raw)

        report = _base_report(cfg, args.command)
        if args.command == "embed":
            run_embed(cfg, report)
        elif args.command == "extend":
            run_extend(cfg, report)
        elif args.command == "classify":
            run_classify(cfg, report, args.spec)
        else:
            run_suite(cfg, report)
        code = _status(report)
        out = args.out or cfg["out"]
        if out:
            with open(out, "w", encoding="utf-8") as fh:
                json.dump(report, fh, sort_keys=True, indent=2)
                fh.write("\n")
    except ConfigError as exc:
        print(f"ConfigError: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    print(_summarize(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
