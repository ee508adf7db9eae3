"""Command-line front end.

Subcommands `embed`, `extend`, `classify`, `suite` read a JSON run
configuration, execute the requested constructions, write a JSON
report, and print a short summary table. Every config field, its
default and its check live in one table, `_FIELDS`. Exit status: 0 when
all certificates pass, 2 on any exhausted scan budget, 1 on a malformed
command line or config (including a gap floor too fine for the cell
grid or a bound over float_max / 2), 3 on any other error (a report
holding a NaN or infinity is not written). Reports are byte-identical
across runs of the same (config, seed) apart from the timestamp field.
"""
from __future__ import annotations

import argparse
import datetime
import functools
import importlib.resources
import json
import platform
import re
import reprlib
import sys

import numpy as np

from . import __version__
from .errors import ConfigError, EmptyBasis, KindMismatch, SeqEmbedError, _is_number
from .extend import SubspaceD, extract_scheme
from .seqcore import BoundedSeq, combine, eventually_constant, \
    explicit_limit, periodic, zero_seq
from .embed import WITNESS_BUDGET, embed_t1, oscillation_witness
from .errors import BudgetExhausted
from .spaces import parse_space
from .verify import (_witness_table, check_isometry, check_separation,
                     classify_c, verdict_to_json)

# ---------------------------------------------------------------------------
# sequence spec mini-language

def parse_seq_spec(spec: str) -> BoundedSeq:
    """`periodic:<v1,...>`, `evconst:<v>@<n>`, `limit:<v>,rate=<r>`,
    `zero`, or `combo:<c1>*<spec1>+<c2>*<spec2>+...`. The language has
    no grouping, so a `combo` term may not itself be a `combo`."""
    spec = spec.strip()
    if spec == "zero":
        return zero_seq()
    head, _, rest = spec.partition(":")
    try:
        if head == "periodic":
            return periodic([float(v) for v in rest.split(",")])
        if head == "evconst":
            value, at, start = rest.partition("@")
            if at and not (start.isascii() and start.isdigit()):
                raise ConfigError("evconst start must be decimal digits")
            return eventually_constant(float(value), int(start) if at else 1)
        if head == "limit":
            value, _, rate = rest.partition(",")
            if not rate.startswith("rate="):
                raise ConfigError("limit spec needs rate=")
            return explicit_limit(float(value), float(rate[5:]))
        if head == "combo":
            coeffs, children = [], []
            # a + after <digit or .>e is an exponent sign, not a term break
            for term in re.split(r"(?<![0-9.][eE])\+", rest):
                c, star, child = term.partition("*")
                if not star:
                    raise ConfigError(f"combo term {term!r} needs <coeff>*<spec>")
                if child.strip().partition(":")[0] == "combo":
                    raise ConfigError(f"combo term {term!r} is a combo, and a combo "
                                      f"cannot group terms")
                coeffs.append(float(c))
                children.append(parse_seq_spec(child))
            return combine(coeffs, children)
    except (ValueError, SeqEmbedError) as exc:
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
    except ValueError as exc:           # also an int past Python's digit limit
        raise ConfigError(f"config {ref!r} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config {ref!r} must be a JSON object")
    return raw


def _int_at_least(least: int):
    """Check for an integer >= least; JSON booleans and floats do not count."""
    return lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= least


def _list_of(check):
    return lambda v: isinstance(v, list) and all(map(check, v))


_ANY, _STRING, _REQUIRED = (lambda v: True), (lambda v: isinstance(v, str)), object()
_SPECS = (_list_of(_STRING), "a list of sequence specs")

#: every config field: (default, check, what the check asks for), where
#: _REQUIRED is no default and null passes only where the default is
#: None; `parse_space` checks the space when it is built
_FIELDS = {
    "name": ("run", _STRING, "a string"),
    "space": (_REQUIRED, _ANY, "a space spec"),
    "out": (None, _STRING, "a path"),
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
           ("witness_budget", WITNESS_BUDGET, 1), ("classify_budget", 4096, 2),
           ("m", None, 1), ("random_d", 0, 0), ("seed", 0, 0))},
}


def validate_config(raw: dict) -> dict:
    """Every field of `_FIELDS`, checked or defaulted; `space` as `space_spec`."""
    unknown = set(raw) - set(_FIELDS)
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    cfg = {}
    for key, (default, check, what) in _FIELDS.items():
        value = raw.get(key, list(default) if isinstance(default, list) else default)
        if value is _REQUIRED:
            raise ConfigError(f"config field {key!r} is required")
        if not (value is None and default is None or check(value)):
            raise ConfigError(f"{key} = {reprlib.repr(value)} must be {what}")
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
        raise ConfigError(f"bad sample for {reprlib.repr(cfg['space_spec'])}: {exc}") from None
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


def _add_verdict(report: dict, seq_id: str, s, cfg: dict, floor: float) -> str:
    """Classify s into the report at cfg's budget and gap floor, or at
    `floor` without one; a gap floor too fine for s is a ConfigError."""
    try:
        verdict = classify_c(s, cfg["classify_budget"], cfg["gap_floor"] or floor)
    except ValueError as exc:
        raise ConfigError(f"classify {seq_id}: {exc}") from None
    detail = verdict_to_json(verdict)
    report["verdicts"].append(
        {"seq_id": seq_id, "kind": detail["kind"], "detail": detail})
    return detail["kind"]


def _classify_embedded(space, samples, cfg, report):
    """Classify each T(x), by default at gap floor ||x||, its bound (1 for x = 0)."""
    for sid, x in enumerate(samples):
        seq_id = f"T(x{sid})"
        t = embed_t1(space, x)
        kind = _add_verdict(report, seq_id, t, cfg, t.bound or 1.0)
        if t.bound > 0 and kind != "NotInC":
            report["errors"].append({
                "seq_id": seq_id,
                "error": f"embedded image classified {kind}, expected NotInC"})


def _add_witnesses(report: dict, table: dict):
    """Append a `verify._witness_table`'s rows to the report's lists."""
    for key, rows in table.items():
        report[key].extend(rows)


def run_embed(cfg: dict, report: dict):
    space, _, samples, _ = build_run(cfg)
    # sets per_sample, max_relative_defect and errors, none recorded yet
    report.update(check_isometry(space, samples, cfg["K"]))
    # D = {0}: one d row, the empty combination, as in a suite without D
    _add_witnesses(report, _witness_table(
        samples, 1,
        lambda x: [functools.partial(oscillation_witness, space, x, cfg["epsilon"],
                                     cfg["count"], cfg["witness_budget"])]))
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
        report["scheme"] = exc.partial.to_json()
        return space, samples
    report["scheme"] = scheme.to_json()
    k_cap = scheme.max_k()
    K_eff = cfg["K"] if k_cap is None else min(cfg["K"], k_cap)
    report.update(check_isometry(space, samples, K_eff))
    _add_witnesses(report, check_separation(space, D, scheme, samples, d_samples,
                                            cfg["epsilon"], cfg["count"],
                                            scan_budget=cfg["witness_budget"]))
    return space, samples


def run_classify(cfg: dict, report: dict):
    """Classify cfg's `sequences`, at gap floor 1 unless cfg gives one."""
    if not cfg["sequences"]:
        raise ConfigError("classify needs --spec arguments or config 'sequences'")
    for spec in cfg["sequences"]:
        _add_verdict(report, spec, parse_seq_spec(spec), cfg, 1.0)


def run_suite(cfg: dict, report: dict):
    space, samples = run_extend(cfg, report)
    _classify_embedded(space, samples, cfg, report)
    if cfg["sequences"]:
        run_classify(cfg, report)


# ---------------------------------------------------------------------------
# report text

#: the C encoder, which json.dumps does not use when given an `indent`
_ENCODE = json.JSONEncoder(allow_nan=False, separators=(",", ":")).encode


def _report_text(obj) -> str:
    """The text of json.dumps(obj, sort_keys=True, indent=2,
    allow_nan=False), or its error: a NaN or infinity is its ValueError,
    whose message names the value."""
    try:
        return _indented(obj, "")
    except ValueError:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)


def _indented(obj, pad: str) -> str:
    """obj's text nested at indent `pad`. Leaves, and lists of only ints
    and floats (a scheme prefix, a witness's indices), go through the C
    encoder in one call each; a dict with a key that is not a string
    goes through json.dumps."""
    inner = pad + "  "
    if isinstance(obj, (list, tuple)) and obj:
        if set(map(type, obj)) <= {int, float}:
            body = _ENCODE(obj)[1:-1].replace(",", ",\n" + inner)
        else:
            body = (",\n" + inner).join([_indented(v, inner) for v in obj])
        return f"[\n{inner}{body}\n{pad}]"
    if not isinstance(obj, dict) or not obj:
        return _ENCODE(obj)
    if not all(isinstance(k, str) for k in obj):
        return json.dumps(obj, sort_keys=True, indent=2,
                          allow_nan=False).replace("\n", "\n" + pad)
    body = (",\n" + inner).join([f"{_ENCODE(k)}: {_indented(obj[k], inner)}"
                                  for k in sorted(obj)])
    return f"{{\n{inner}{body}\n{pad}}}"


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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
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
            p.add_argument("--spec", action="append",
                           help="sequence spec (repeatable)")
            p.add_argument("--gap-floor", type=float, default=None)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:   # argparse's usage exit 2 would read as an exhausted budget
        return 1 if exc.code else 0

    try:
        if args.config:
            raw = load_config(args.config)
        elif args.command == "classify":
            # the space is checked but never enumerated
            raw = {"space": "fdlp:dim=1,p=2"}
        else:
            raise ConfigError(f"{args.command} requires --config")
        # command-line values replace the config's before it is validated
        for key, value in (("seed", args.seed), ("classify_budget", args.budget),
                           ("witness_budget", args.budget), ("out", args.out),
                           ("gap_floor", getattr(args, "gap_floor", None)),
                           ("sequences", getattr(args, "spec", None))):
            if value is not None:
                raw[key] = value
        cfg = validate_config(raw)

        report = _base_report(cfg, args.command)
        if args.command == "embed":
            run_embed(cfg, report)
        elif args.command == "extend":
            run_extend(cfg, report)
        elif args.command == "classify":
            parse_space(cfg["space_spec"])      # checked, never enumerated
            run_classify(cfg, report)
        else:
            run_suite(cfg, report)
        code = _status(report)
        if cfg["out"]:
            text = _report_text(report)
            with open(cfg["out"], "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
    except ConfigError as exc:
        print(f"ConfigError: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    try:
        print(_summarize(report), flush=True)
    except BrokenPipeError:
        sys.stdout = None   # the reader left; the flush at exit must not fail too
    return code


if __name__ == "__main__":
    sys.exit(main())
