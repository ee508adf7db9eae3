"""Command-line front end.

Subcommands `embed`, `extend`, `classify`, `suite` read a JSON run
configuration, execute the requested constructions, write a JSON
report, and print a short summary table. Every config field, its
default and its check live in one table, `_FIELDS`. Exit status: 0 when
all certificates pass, 2 on any exhausted scan budget, 1 on a malformed
command line or config (including a gap floor too fine for the cell
grid), 3 on any other error. Reports are byte-identical across runs of
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


def _int_at_least(least: int):
    """Check for an integer >= least; JSON booleans and floats do not count."""
    return lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= least


def _list_of(check):
    return lambda v: isinstance(v, list) and all(map(check, v))


_ANY, _REQUIRED = (lambda v: True), object()
_SPECS = (_list_of(lambda v: isinstance(v, str)), "a list of sequence specs")

#: every config field: (default, check, what the check asks for), where
#: _REQUIRED is no default and null passes only where the default is
#: None; `parse_space` checks the space when it is built
_FIELDS = {
    "name": ("run", _ANY, "anything"),
    "space": (_REQUIRED, _ANY, "a space spec"),
    "out": (None, lambda v: isinstance(v, str), "a path"),
    "gap_floor": (None, lambda v: _is_number(v) and v > 0.0, "a number > 0"),
    "d_mode": ("finite", ("finite", "countable", "dense").__contains__,
               "finite|countable|dense"),
    "d_basis": ([], *_SPECS),
    "sequences": ([], *_SPECS),
    "samples": ([], lambda v: isinstance(v, list), "a list of elements"),
    "epsilon": (0.2, lambda v: _is_number(v) and 0.0 < v < 1.0, "a number in (0, 1)"),
    "tol_schedule": (None, _list_of(_is_number), "a list of finite numbers"),
    "d_samples": (None, _list_of(_list_of(_is_number)), "a list of lists of finite numbers"),
    **{key: (default, _int_at_least(least), f"an integer >= {least}")
       for key, default, least in (
           ("count", 5, 1), ("K", 64, 1), ("depth", 4, 1), ("scan_budget", 4096, 1),
           ("witness_budget", 100000, 1), ("classify_budget", 4096, 2),
           ("m", None, 1), ("random_d", 0, 0), ("seed", 0, 0))},
}


def validate_config(raw: dict) -> dict:
    """Every field of `_FIELDS`, checked or defaulted; `space` as `space_spec`."""
    unknown = set(raw) - set(_FIELDS)
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    cfg = {}
    for key, (default, check, what) in _FIELDS.items():
        value = raw.get(key, default)
        if value is _REQUIRED:
            raise ConfigError(f"config field {key!r} is required")
        if not (value is None and default is None or check(value)):
            raise ConfigError(f"{key} = {value!r} must be {what}")
        cfg[key] = value
    cfg["space_spec"] = cfg.pop("space")
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


def _add_verdict(report: dict, seq_id: str, s, budget: int, gap_floor: float) -> str:
    """Classify s into the report; a gap floor too fine for s is a ConfigError."""
    try:
        verdict = classify_c(s, budget, gap_floor)
    except ValueError as exc:
        raise ConfigError(f"classify {seq_id}: {exc}") from None
    detail = verdict_to_json(verdict)
    report["verdicts"].append(
        {"seq_id": seq_id, "kind": detail["kind"], "detail": detail})
    return detail["kind"]


def _classify_embedded(space, samples, cfg, report):
    for sid, x in enumerate(samples):
        nx = space.norm(x)
        gap_floor = cfg["gap_floor"] if cfg["gap_floor"] else max(nx, 1e-6)
        seq_id = f"T(x{sid})"
        kind = _add_verdict(report, seq_id, embed_t1(space, x),
                            cfg["classify_budget"], gap_floor)
        if nx > 0 and kind != "NotInC":
            report["errors"].append({
                "seq_id": seq_id,
                "error": f"embedded image classified {kind}, expected NotInC"})


def run_embed(cfg: dict, report: dict):
    space, _, samples, _ = build_run(cfg)
    # sets per_sample, max_relative_defect and errors, none recorded yet
    report.update(check_isometry(space, samples, cfg["K"]))
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
    report.update(check_isometry(space, samples, K_eff))
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
        _add_verdict(report, spec, parse_seq_spec(spec),
                     cfg["classify_budget"], gap_floor)


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
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:   # argparse's usage exit 2 would read as an exhausted budget
        return 1 if exc.code else 0

    try:
        if args.config:
            raw = load_config(args.config)
        elif args.command == "classify":
            # the space is never built; it is only echoed in the report
            raw = {"space": "fdlp:dim=1,p=2", "samples": [[1.0]]}
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
