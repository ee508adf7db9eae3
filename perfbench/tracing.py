"""Call spans for the traced benchmark run, recorded from outside the library.

`Tracer.install` replaces every public function of the seqembed layers
(`seqcore`, `spaces`, `embed`, `extend`, `verify`, `cli`), every public
method of the space classes and `BoundedSeq.coordinates` with a wrapper
that records one span per call: name, parent span, start, end and one
integer argument (a net depth, a row count or a scan budget). Every
module attribute that held an original, including re-exports such as
`seqembed.embed.coordinate`, is rebound, so calls between layers are
seen too. `uninstall` puts the originals back.

Spans stay in memory as flat arrays until `save`. The benchmark opens a
root span per operation, so all spans of one operation share an
ancestor. Self time is a span's duration minus the durations of its
direct children.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("seqcore", "spaces", "embed", "extend", "verify", "cli")

#: spans whose argument is a net index or depth, per space kind
_NET_DEPTH = {"net_point": "k", "norming_functional": "k",
              "functional_values": "K", "distance_profile": "K",
              "net_distance": "K"}
#: spans whose argument is a scan budget
_BUDGET = {"bw_extract": "scan_budget", "diagonal_extract": "scan_budget",
           "oscillation_witness": "scan_budget",
           "separation_witness": "scan_budget"}
_WITNESS = ("embed.oscillation_witness", "extend.separation_witness")


def _arg_getter(fn, name):
    """Fast positional-or-keyword lookup of parameter `name` of `fn`."""
    params = list(inspect.signature(fn).parameters.values())
    pos = [p.name for p in params].index(name)
    default = params[pos].default

    def get(args, kwargs):
        return args[pos] if len(args) > pos else kwargs.get(name, default)
    return get


class Tracer:
    """Spans of wrapped seqembed calls plus a few outcome counters."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.arg = array("q")
        self.current = -1
        self.net_depth = {}          # space kind -> deepest net index asked for
        self.block_rows = 0          # BoundedSeq.coordinates rows served by block
        self.prefix_rows = 0         # extracted prefix lengths, summed
        self.outcomes = Counter()    # (span name, result or exception type)
        self._saved = []             # (owner, attribute, original)

    # -- recording -----------------------------------------------------------
    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int, arg: int = -1) -> tuple:
        idx = len(self.name)
        parent = self.current
        self.name.append(nid)
        self.parent.append(parent)
        self.arg.append(arg)
        self.end.append(0)
        self.current = idx
        self.start.append(time.perf_counter_ns())
        return idx, parent

    def finish(self, token: tuple):
        idx, parent = token
        self.end[idx] = time.perf_counter_ns()
        self.current = parent

    def _wrap(self, fn, name, arg=None, after=None):
        nid = self.name_id(name)
        begin, finish, outcomes = self.begin, self.finish, self.outcomes

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = begin(nid, arg(args, kwargs) if arg is not None else -1)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                finish(token)
                outcomes[name, type(exc).__name__] += 1
                if after is not None:
                    after(args, kwargs, exc)
                raise
            finish(token)
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def _hooks(self, fn, short):
        """(arg, after) callbacks for the spans that carry counters."""
        if short in _NET_DEPTH:
            get = _arg_getter(fn, _NET_DEPTH[short])
            depth = self.net_depth

            def arg(args, kwargs):
                k = int(get(args, kwargs))
                kind = args[0].kind
                if k > depth.get(kind, 0):
                    depth[kind] = k
                return k
            return arg, None
        if short == "coordinates":
            get_lo, get_hi = _arg_getter(fn, "lo"), _arg_getter(fn, "hi")

            def arg(args, kwargs):
                rows = int(get_hi(args, kwargs)) - int(get_lo(args, kwargs)) + 1
                if args[0].block is not None:
                    self.block_rows += rows
                return rows
            return arg, None
        if short in _BUDGET:
            get = _arg_getter(fn, _BUDGET[short])

            def arg(args, kwargs):
                return int(get(args, kwargs))
            if short in ("bw_extract", "diagonal_extract"):
                def after(args, kwargs, result):
                    scheme = getattr(result, "partial", result)
                    if scheme is not None and hasattr(scheme, "prefix"):
                        self.prefix_rows += len(scheme.prefix)
                return arg, after
            return arg, None
        if short == "classify_c":
            def after(args, kwargs, result):
                if not isinstance(result, BaseException):
                    self.outcomes["verify.classify_c", type(result).__name__] += 1
            return None, after
        return None, None

    # -- install / uninstall -------------------------------------------------
    def install(self):
        """Wrap every public seqembed function and space method."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        from seqembed import seqcore, spaces

        replace = {}
        for layer in LAYERS:
            mod = sys.modules[f"seqembed.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    replace[obj] = self._wrap(obj, f"{layer}.{attr}",
                                              *self._hooks(obj, attr))

        owners = [(seqcore.BoundedSeq, "seqcore", ("coordinates",))]
        for cls in vars(spaces).values():
            if inspect.isclass(cls) and issubclass(cls, spaces.SeparableSpace):
                owners.append((cls, "spaces", None))
        for cls, layer, only in owners:
            for attr, raw in list(vars(cls).items()):
                if attr.startswith("_") or (only and attr not in only):
                    continue
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                if not inspect.isfunction(fn):
                    continue
                new = self._wrap(fn, f"{layer}.{attr}", *self._hooks(fn, attr))
                self._saved.append((cls, attr, raw))
                setattr(cls, attr, staticmethod(new) if fn is not raw else new)

        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "seqembed" or name.startswith("seqembed.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replace:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, replace[obj])

    def uninstall(self):
        """Restore every attribute `install` replaced."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- analysis ------------------------------------------------------------
    def arrays(self) -> dict:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.int64),
                "end": np.frombuffer(self.end, dtype=np.int64),
                "arg": np.frombuffer(self.arg, dtype=np.int64)}

    def save(self, path):
        """Write all spans and the name table as one .npz file."""
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self) -> dict:
        """Per-layer counts, self times and ratios, keyed by metric name."""
        a = self.arrays()
        n_names = len(self.names)
        name, parent, arg = a["name"], a["parent"], a["arg"]
        dur = (a["end"] - a["start"]) / 1e9
        child = parent >= 0
        child_time = np.bincount(parent[child], weights=dur[child],
                                 minlength=len(name))
        calls = np.bincount(name, minlength=n_names)
        self_s = np.bincount(name, weights=dur - child_time, minlength=n_names)
        rows = np.bincount(name, weights=np.maximum(arg, 0), minlength=n_names)

        def nid(span):
            return self._ids.get(span, -1)

        out = {}
        for span, i in self._ids.items():
            if span.split(".")[0] in LAYERS:
                out[f"{span}.calls"] = int(calls[i])
                out[f"{span}.self_s"] = float(self_s[i])
                if span.endswith(("distance_profile", "functional_values",
                                  "coordinates")):
                    out[f"{span}.rows"] = int(rows[i])

        for kind in ("fdlp", "seqlp", "c01"):
            out[f"spaces.net_depth_max.{kind}"] = int(self.net_depth.get(kind, 0))

        # distance_profile rows scanned directly under each witness span
        dp = name == nid("spaces.distance_profile")
        dp_parent = parent[dp]
        under = np.isin(name[np.maximum(dp_parent, 0)],
                        [nid(w) for w in _WITNESS]) & (dp_parent >= 0)
        wit, k = dp_parent[under], arg[dp][under]
        deepest = np.zeros(len(name), dtype=np.int64)
        np.maximum.at(deepest, wit, k)
        summed = np.bincount(wit, weights=k, minlength=len(name))
        out["embed.scan_rows_useful_ratio"] = _ratio(deepest.sum(), summed.sum())
        osc = name == nid("embed.oscillation_witness")
        out["embed.oscillation_witness.k_reached_max"] = int(
            deepest[osc].max()) if osc.any() else 0
        for span in _WITNESS:
            out[f"{span}.budget_exhausted"] = self.outcomes[span, "BudgetExhausted"]

        coord_rows = out.get("seqcore.coordinates.rows", 0)
        out["seqcore.coordinates.block_ratio"] = _ratio(self.block_rows, coord_rows)
        extract = np.isin(name, [nid("extend.bw_extract"),
                                 nid("extend.diagonal_extract")])
        out["extend.survivor_ratio"] = _ratio(self.prefix_rows, arg[extract].sum())
        for kind, verdict in (("inc", "InC"), ("notinc", "NotInC"),
                              ("unknown", "Unknown")):
            out[f"verify.classify_c.{kind}"] = self.outcomes["verify.classify_c", verdict]
        return out


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0
