"""Computable separable Banach spaces.

Each space kind supplies a norm oracle, a deterministic enumeration of
unit vectors dense in the unit sphere, and an explicit duality map
producing a norming functional for every enumerated point. The
enumeration is one net cache in `SeparableSpace`: level t = 1, 2, ...
lists the nonzero rows of {-t..t}^width(t) lexicographically, any rank
range of a level is normalized and dualized in one vectorized step,
and asking for index K with n rows cached grows the cache to
max(K, 2n) rows, never to the end of a level it does not need.
Duplicate directions across levels are permitted; density is unaffected.
"""
from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, IndexZero, KindMismatch, NotUnitVector,
                     ZeroElement, _finite)

UNIT_TOL = 1e-9


# ---------------------------------------------------------------------------
# functionals

@dataclass(frozen=True)
class DualVector:
    """Dual coordinate vector; applied as an inner product."""
    space_kind: str
    coords: tuple


@dataclass(frozen=True)
class DualMap:
    """Finitely supported dual map for sequence spaces."""
    space_kind: str
    entries: tuple  # ((index, value), ...) sorted by index


@dataclass(frozen=True)
class PointMass:
    """Signed point evaluation at t in [0, 1]."""
    space_kind: str
    location: float
    sign: float


@dataclass(frozen=True)
class PLFunction:
    """Piecewise-linear function on [0, 1] given by breakpoints/values."""
    breaks: tuple
    values: tuple

    def __post_init__(self):
        if len(self.breaks) != len(self.values):
            raise ConfigError("breaks and values must have equal length")
        if len(self.breaks) < 2:
            raise ConfigError("a PL function needs at least two breakpoints")
        if self.breaks[0] != 0.0 or self.breaks[-1] != 1.0:
            raise ConfigError("breakpoints must start at 0 and end at 1")
        if any(a >= b for a, b in zip(self.breaks, self.breaks[1:])):
            raise ConfigError("breakpoints must strictly increase")

    def __call__(self, t):
        return np.interp(t, self.breaks, self.values)


def pl_function(breaks, values) -> PLFunction:
    return PLFunction(tuple(float(b) for b in breaks),
                      tuple(float(v) for v in values))


def _pnorm(arr: np.ndarray, p: float) -> float:
    if math.isinf(p):
        return float(np.max(np.abs(arr))) if arr.size else 0.0
    if p == 1.0:
        return float(np.sum(np.abs(arr)))
    if p == 2.0:
        return float(np.sqrt(np.sum(arr * arr)))
    return float(np.sum(np.abs(arr) ** p) ** (1.0 / p))


def _duality_rows(U: np.ndarray, p: float) -> np.ndarray:
    """Norming functionals of the unit rows of U in a p-norm space.

    p in (1, inf): sign(u)|u|^(p-1); p = 1: sign(u); p = inf: signed
    coordinate functional at the smallest index attaining |u_i| = 1.
    """
    if math.isinf(p):
        rows = np.arange(len(U))
        idx = np.argmax(np.abs(U) >= 1.0 - 1e-12, axis=1)
        Phi = np.zeros_like(U)
        Phi[rows, idx] = np.copysign(1.0, U[rows, idx])
        return Phi
    if p == 1.0:
        return np.sign(U)
    return np.sign(U) * np.abs(U) ** (p - 1.0)


def _row_norms(D: np.ndarray, p: float, extra=0.0) -> np.ndarray:
    """p-norms of the rows of D, with `extra` (the p-th powers summed
    over entries outside D) added under the root."""
    if math.isinf(p):
        return np.max(np.abs(D), axis=1)
    if p == 1.0:
        return np.sum(np.abs(D), axis=1) + extra
    if p == 2.0:
        return np.sqrt(np.sum(D * D, axis=1) + extra)
    return (np.sum(np.abs(D) ** p, axis=1) + extra) ** (1.0 / p)


def _unit_rows(W: np.ndarray, p: float):
    """(W with each row normalized in the p-norm, their duality rows)."""
    if p in (1.0, 2.0) or math.isinf(p):
        norms = _row_norms(W, p)
    else:
        # a scalar libm root per row, as in _pnorm: numpy's array
        # power rounds differently in the last bit
        norms = np.array([s ** (1.0 / p) for s in np.sum(np.abs(W) ** p, axis=1).tolist()])
    U = W / norms[:, None]
    return U, _duality_rows(U, p)


def _lattice_rows(t: int, width: int, lo: int, hi: int) -> np.ndarray:
    """Nonzero rows lo..hi-1 (0-based) of {-t..t}^width in lexicographic
    order: the base-(2t+1) digits of each rank, less t, skipping the
    rank of the zero row."""
    base = 2 * t + 1
    rank = np.arange(lo, hi, dtype=np.int64)
    zero = (base ** width - 1) // 2
    if zero < hi:
        rank[rank >= zero] += 1
    W = np.empty((hi - lo, width))
    for j in range(width - 1, -1, -1):
        rank, digit = np.divmod(rank, base)
        W[:, j] = digit - t
    return W


def _stack(blocks) -> np.ndarray:
    """The rows of all blocks in order, zero-padded to the widest."""
    out = np.zeros((sum(len(b) for b in blocks), max(b.shape[1] for b in blocks)))
    i = 0
    for b in blocks:
        out[i:i + len(b), :b.shape[1]] = b
        i += len(b)
    return out


def _dot_rows(Phi: np.ndarray, x) -> np.ndarray:
    """sum_i phi_i x_i for every row of Phi, accumulated in index order
    from 0.0 one column at a time: bit for bit the per-index sums of
    `apply_functional`, whatever the number of rows."""
    out = np.zeros(len(Phi))
    for j, v in enumerate(x):
        out += Phi[:, j] * v
    return out


def _number_rows(rows, what: str) -> np.ndarray:
    """A nonempty list of equal-length rows of finite numbers, as a
    float matrix; anything else (a scalar, strings, ragged rows) is a
    ConfigError."""
    try:
        M = np.asarray(rows)
    except ValueError:                  # ragged rows
        M = None
    if M is None or M.ndim != 2 or len(M) == 0 or M.dtype.kind not in "iuf":
        raise ConfigError(f"{what} must be a nonempty list of equal-length "
                          f"rows of numbers, got {reprlib.repr(rows)}")
    M = M.astype(float)
    _finite(M.ravel().tolist(), what)
    return M


# ---------------------------------------------------------------------------
# base class

class SeparableSpace:
    """Common surface: norm, net enumeration, norming functionals.

    Each kind implements norm, canonical (validate an element), scale,
    subtract, apply_functional, net_point(k), norming_functional(k),
    functional_values(x, K) = [phi_1(x), ..., phi_K(x)],
    distance_profile(v, K, lo=0) = [||v - u_{lo+1}||, ..., ||v - u_K||]
    (each row bit for bit as in the profile from row 0),
    random_element, lattice_sample (a multiple of a small grid
    direction, near early net points), element_to_json,
    element_from_json, describe, and `_width(t)`, the entries of a
    level-t row. Row k - 1 of `_U` is the k-th net point and of `_Phi`
    the data of its functional, zero-padded to the widest level cached.
    `_ensure` grows the cache; `CustomNet` overrides it to repeat its cycle.
    """

    kind = "abstract"

    def __init__(self):
        self._U = np.zeros((0, 0))
        self._Phi = np.zeros((0, 0))

    def _net_rows(self, W: np.ndarray, t: int):
        """(net points, functional rows) of the level-t lattice rows W;
        by default p-norm unit rows and their duality rows."""
        return _unit_rows(W, self.p)

    # -- the net cache ------------------------------------------------------
    def _levels(self):
        """(t, first row, end row) of each level t = 1, 2, ... of the net."""
        t, start = 1, 0
        while True:
            stop = start + (2 * t + 1) ** self._width(t) - 1
            yield t, start, stop
            t, start = t + 1, stop

    def _level_of(self, row: int) -> int:
        return next(t for t, _, stop in self._levels() if row < stop)

    def _ensure(self, K: int):
        """Grow the cache to max(K, 2n) rows if it holds n < K."""
        n = len(self._U)
        if K <= n:
            return
        target = max(K, 2 * n)
        blocks = []
        for t, start, stop in self._levels():
            if stop > n:
                hi = min(stop, target)
                W = _lattice_rows(t, self._width(t), n - start, hi - start)
                blocks.append(self._net_rows(W, t))
                n = hi
                if n == target:
                    break
        self._U = _stack([self._U] + [U for U, _ in blocks])
        self._Phi = _stack([self._Phi] + [Phi for _, Phi in blocks])

    def _index(self, k: int) -> int:
        """Cache row of net index k, grown to hold it."""
        if k < 1:
            raise IndexZero(f"k = {k} < 1")
        if k > len(self._U):
            self._ensure(k)
        return k - 1

    # -- shared -------------------------------------------------------------
    def unit(self, x):
        n = self.norm(x)
        if n == 0.0:
            raise ZeroElement("cannot normalize the zero element")
        return self.scale(1.0 / n, x)

    def net_distance(self, v, K: int) -> float:
        """min over k <= K of ||v - u_k||; nonincreasing in K."""
        if K < 1:
            raise IndexZero(f"K = {K} < 1")
        v = self.canonical(v)
        if abs(self.norm(v) - 1.0) > UNIT_TOL:
            raise NotUnitVector(f"norm(v) = {self.norm(v)!r}")
        return float(np.min(self.distance_profile(v, K)))

    def _check_kind(self, phi):
        if getattr(phi, "space_kind", None) != self.kind:
            raise KindMismatch(
                f"functional for {getattr(phi, 'space_kind', None)!r} "
                f"applied in {self.kind!r} space")


# ---------------------------------------------------------------------------
# finite-dimensional p-norm space

class FiniteDimLp(SeparableSpace):
    kind = "fdlp"

    def __init__(self, dim: int, p: float):
        if dim < 1:
            raise ConfigError(f"dim = {dim} must be >= 1")
        if not (p >= 1.0):
            raise ConfigError(f"p = {p} must be in [1, inf]")
        super().__init__()
        self.dim = int(dim)
        self.p = float(p)

    def describe(self):
        p = "inf" if math.isinf(self.p) else f"{self.p:g}"
        return f"fdlp:dim={self.dim},p={p}"

    def _width(self, t):
        return self.dim

    def net_size_through_level(self, level: int) -> int:
        return next(start for t, start, _ in self._levels() if t > level)

    def canonical(self, x):
        arr = np.asarray(x, dtype=float)
        if arr.shape != (self.dim,):
            raise KindMismatch(f"expected vector of length {self.dim}, got shape {arr.shape}")
        return arr

    def norm(self, x) -> float:
        return _pnorm(self.canonical(x), self.p)

    def scale(self, c, x):
        return c * self.canonical(x)

    def subtract(self, x, y):
        return self.canonical(x) - self.canonical(y)

    def net_point(self, k: int):
        row = self._index(k)
        return self._U[row].copy()

    def norming_functional(self, k: int):
        row = self._index(k)
        return DualVector(self.kind, tuple(self._Phi[row].tolist()))

    def apply_functional(self, phi, x) -> float:
        # the arithmetic of _dot_rows, one index at a time
        self._check_kind(phi)
        acc = 0.0
        for f, v in zip(phi.coords, self.canonical(x).tolist()):
            acc += f * v
        return acc

    def functional_values(self, x, K: int) -> np.ndarray:
        self._ensure(K)
        return _dot_rows(self._Phi[:K], self.canonical(x).tolist())

    def distance_profile(self, v, K: int, lo: int = 0) -> np.ndarray:
        self._ensure(K)
        return _row_norms(self._U[lo:K] - self.canonical(v), self.p)

    def random_element(self, rng):
        while True:
            x = rng.standard_normal(self.dim)
            if _pnorm(x, self.p) > 1e-3:
                return x

    def lattice_sample(self, rng):
        while True:
            w = rng.integers(-2, 3, size=self.dim).astype(float)
            if np.any(w):
                break
        return float(rng.uniform(0.25, 4.0)) * w

    def element_to_json(self, x):
        return [float(c) for c in self.canonical(x)]

    def element_from_json(self, obj):
        x = self.canonical(obj)
        _finite(x.tolist(), f"{self.kind} element")
        return x


# ---------------------------------------------------------------------------
# finitely supported sequence space

class SeqLp(SeparableSpace):
    kind = "seqlp"

    def __init__(self, p: float, support_cap: int = 8):
        if not (1.0 <= p < math.inf):
            raise ConfigError(f"p = {p} must be in [1, inf)")
        if support_cap < 1:
            raise ConfigError(f"support cap {support_cap} must be >= 1")
        super().__init__()
        self.p = float(p)
        self.support_cap = int(support_cap)

    def describe(self):
        return f"seqlp:p={self.p:g},support={self.support_cap}"

    def _width(self, t):
        return t

    def canonical(self, x):
        if not isinstance(x, dict):
            raise KindMismatch("seqlp elements are index->value maps")
        out = {}
        for i, v in x.items():
            i = int(i)
            v = float(v)
            if i < 1:
                raise KindMismatch(f"support index {i} < 1")
            if v != 0.0:
                out[i] = v
        if len(out) > self.support_cap:
            raise KindMismatch(
                f"support size {len(out)} exceeds cap {self.support_cap}")
        return out

    def _dense(self, x: dict, width: int) -> np.ndarray:
        out = np.zeros(width)
        for i, v in x.items():
            if i <= width:
                out[i - 1] = v
        return out

    def norm(self, x) -> float:
        x = self.canonical(x)
        if not x:
            return 0.0
        return _pnorm(np.array(list(x.values())), self.p)

    def scale(self, c, x):
        return {i: c * v for i, v in self.canonical(x).items() if c * v != 0.0}

    def subtract(self, x, y):
        x = self.canonical(x)
        y = self.canonical(y)
        out = dict(x)
        for i, v in y.items():
            out[i] = out.get(i, 0.0) - v
        return {i: v for i, v in out.items() if v != 0.0}

    def net_point(self, k: int):
        row = self._index(k)
        return {i + 1: v for i, v in enumerate(self._U[row].tolist()) if v != 0.0}

    def norming_functional(self, k: int):
        row = self._index(k)
        entries = tuple((i + 1, v) for i, v in enumerate(self._Phi[row].tolist()) if v != 0.0)
        return DualMap(self.kind, entries)

    def apply_functional(self, phi, x) -> float:
        # the arithmetic of _dot_rows, one index at a time
        self._check_kind(phi)
        x = self.canonical(x)
        acc = 0.0
        for i, v in phi.entries:
            acc += v * x.get(i, 0.0)
        return acc

    def functional_values(self, x, K: int) -> np.ndarray:
        self._ensure(K)
        Phi = self._Phi[:K]
        return _dot_rows(Phi, self._dense(self.canonical(x), Phi.shape[1]).tolist())

    def distance_profile(self, v, K: int, lo: int = 0) -> np.ndarray:
        self._ensure(K)
        v = self.canonical(v)
        # the columns the first K rows use; support past them is orthogonal
        width = self._width(self._level_of(K - 1))
        extra = sum(abs(val) ** self.p for i, val in v.items() if i > width)
        return _row_norms(self._U[lo:K, :width] - self._dense(v, width), self.p, extra)

    def random_element(self, rng):
        size = int(rng.integers(1, min(self.support_cap, 4) + 1))
        support = 1 + rng.permutation(6)[:size]
        vals = rng.standard_normal(size)
        out = {int(i): float(v) for i, v in zip(support, vals) if v != 0.0}
        return out if out else {1: 1.0}

    def lattice_sample(self, rng):
        # single-support directions: these recur at every net level,
        # so witnesses accumulate quickly even for p = 1
        i = int(rng.integers(1, 4))
        sign = -1.0 if rng.integers(0, 2) else 1.0
        return {i: sign * float(rng.uniform(0.25, 4.0))}

    def element_to_json(self, x):
        return {str(i): float(v) for i, v in sorted(self.canonical(x).items())}

    def element_from_json(self, obj):
        if not isinstance(obj, dict):
            raise ConfigError("seqlp element must be a JSON object")
        x = self.canonical({int(k): float(v) for k, v in obj.items()})
        _finite(x.values(), "seqlp element")
        return x


# ---------------------------------------------------------------------------
# piecewise-linear functions on [0, 1] with the sup norm

class ContinuousPL(SeparableSpace):
    """Net points are PL functions on the dyadic grid of step 2^-b(t);
    a cached functional row is (location, sign) of a point mass."""

    kind = "c01"

    # breakpoint refinement is deliberately slower than value
    # refinement: value range t needs to reach ~5-6 before the next
    # dyadic grid opens, so early net levels already resolve coarse
    # directions finely enough for witness searches
    LEVELS_PER_GRID = 6

    def describe(self):
        return "c01"

    def _width(self, t):
        return 2 ** ((t + self.LEVELS_PER_GRID - 1) // self.LEVELS_PER_GRID) + 1

    def _grid(self, t: int) -> np.ndarray:
        """The dyadic breakpoints of level t."""
        return np.arange(self._width(t)) / (self._width(t) - 1)

    def _net_rows(self, W, t):
        U, Phi = _unit_rows(W, math.inf)
        rows, idx = np.nonzero(Phi)   # one grid point per row
        return U, np.column_stack((idx / (W.shape[1] - 1), Phi[rows, idx]))

    def canonical(self, x):
        if isinstance(x, PLFunction):
            return x
        if isinstance(x, (tuple, list)) and len(x) == 2:
            return pl_function(x[0], x[1])
        raise KindMismatch("c01 elements are PL functions (breaks, values)")

    def norm(self, x) -> float:
        x = self.canonical(x)
        return float(np.max(np.abs(x.values)))

    def scale(self, c, x):
        x = self.canonical(x)
        return PLFunction(x.breaks, tuple(c * v for v in x.values))

    def subtract(self, x, y):
        x = self.canonical(x)
        y = self.canonical(y)
        breaks = np.union1d(x.breaks, y.breaks)
        vals = np.interp(breaks, x.breaks, x.values) - np.interp(breaks, y.breaks, y.values)
        return PLFunction(tuple(float(b) for b in breaks), tuple(float(v) for v in vals))

    def net_point(self, k: int):
        row = self._index(k)
        grid = self._grid(self._level_of(row))
        return PLFunction(tuple(grid.tolist()), tuple(self._U[row, :len(grid)].tolist()))

    def norming_functional(self, k: int):
        row = self._index(k)
        location, sign = self._Phi[row].tolist()
        return PointMass(self.kind, location, sign)

    def apply_functional(self, phi, x) -> float:
        self._check_kind(phi)
        x = self.canonical(x)
        return phi.sign * float(np.interp(phi.location, x.breaks, x.values))

    def functional_values(self, x, K: int) -> np.ndarray:
        self._ensure(K)
        x = self.canonical(x)
        return self._Phi[:K, 1] * np.interp(self._Phi[:K, 0], x.breaks, x.values)

    def distance_profile(self, v, K: int, lo: int = 0) -> np.ndarray:
        self._ensure(K)
        v = self.canonical(v)
        out = np.empty(K - lo)
        first = lo
        # one pass per grid: its levels are contiguous rows first..hi-1
        for t, _, stop in self._levels():
            if first >= K:
                break
            if stop <= first or (t % self.LEVELS_PER_GRID and stop < K):
                continue
            hi = min(stop, K)
            grid = self._grid(t)
            union = np.union1d(grid, v.breaks)
            pos = np.clip(np.searchsorted(grid, union, side="right") - 1,
                          0, len(grid) - 2)
            w = (union - grid[pos]) / (grid[pos + 1] - grid[pos])
            rows = self._U[first:hi]
            on_union = rows[:, pos] * (1.0 - w) + rows[:, pos + 1] * w
            v_union = np.interp(union, v.breaks, v.values)
            out[first - lo:hi - lo] = np.max(np.abs(on_union - v_union), axis=1)
            first = hi
        return out

    def random_element(self, rng):
        vals = rng.standard_normal(3)
        if np.max(np.abs(vals)) < 1e-3:
            vals = np.array([1.0, 0.0, -1.0])
        return pl_function((0.0, 0.5, 1.0), vals)

    def lattice_sample(self, rng):
        while True:
            vals = rng.integers(-1, 2, size=3).astype(float)
            if np.max(np.abs(vals)) == 1.0:
                break
        c = float(rng.uniform(0.25, 4.0))
        return pl_function((0.0, 0.5, 1.0), c * vals)

    def element_to_json(self, x):
        x = self.canonical(x)
        return {"breaks": list(x.breaks), "values": list(x.values)}

    def element_from_json(self, obj):
        if not isinstance(obj, dict) or "breaks" not in obj or "values" not in obj:
            raise ConfigError("c01 element must be {breaks: [...], values: [...]}")
        x = pl_function(obj["breaks"], obj["values"])
        _finite(x.breaks + x.values, "c01 element")
        return x


# ---------------------------------------------------------------------------
# explicit cyclic net, for deterministic tests and examples

class CustomNet(FiniteDimLp):
    """A finite-dim p-norm space whose net cycles an explicit unit list.

    Exists so tests and examples do not depend on the grid enumeration
    order. Functionals default to the duality map of each point. The
    net cache grows by repeating the cycle; reads are `FiniteDimLp`'s.
    """

    kind = "custom"

    def __init__(self, points, p: float = 2.0, functionals=None):
        points = _number_rows(points, "custom net points")
        super().__init__(points.shape[1], p)
        for pt in points:
            if abs(_pnorm(pt, self.p) - 1.0) > UNIT_TOL:
                raise ConfigError(f"custom net point {pt} is not unit")
        if functionals is None:
            functionals = _duality_rows(points, self.p)
        else:
            functionals = _number_rows(functionals, "custom net functionals")
            if functionals.shape != points.shape:
                raise ConfigError("one functional per net point, of its dimension, required")
            if np.any(np.abs(np.sum(functionals * points, axis=1) - 1.0) > UNIT_TOL):
                raise ConfigError("functional does not norm its point")
        self._points, self._functionals = points, functionals

    def describe(self):
        return f"custom:dim={self.dim},p={self.p:g},cycle={len(self._points)}"

    def _ensure(self, K: int):
        if K > len(self._U):
            rows = np.arange(max(K, 2 * len(self._U))) % len(self._points)
            self._U, self._Phi = self._points[rows], self._functionals[rows]

    def lattice_sample(self, rng):
        return float(rng.uniform(0.25, 4.0)) * self.net_point(int(rng.integers(1, len(self._points) + 1)))


# ---------------------------------------------------------------------------
# CLI-facing parsing

def _parse_p(token) -> float:
    return math.inf if str(token) == "oo" else _parse_num(float, token, "exponent")


def _parse_num(cast, token, what: str):
    try:
        return cast(str(token))
    except ValueError:
        raise ConfigError(f"bad {what} {token!r}") from None


#: per space kind: its required fields, and its optional fields with defaults
_SPACE_FIELDS = {
    "fdlp": ({"dim"}, {"p": "2"}),
    "seqlp": (set(), {"p": "2", "support": "8"}),
    "c01": (set(), {}),
    "custom": ({"points"}, {"p": "2", "functionals": None}),
}


def _spec_dict(spec: str) -> dict:
    """`<kind>:<key>=<value>,...` as {"kind": kind, key: value, ...};
    `custom:<file>` as the dict spec that the JSON file holds."""
    head, _, rest = spec.partition(":")
    if head == "custom":
        try:
            with open(rest, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read custom net file {rest!r}: {exc}") from None
    out = {"kind": head}
    for part in filter(None, rest.split(",")):
        key, eq, val = part.partition("=")
        if not eq or key.strip() in out:
            raise ConfigError(f"bad space field {part!r} in {spec!r}")
        out[key.strip()] = val.strip()
    return out


def parse_space(spec) -> SeparableSpace:
    """Space specification: `fdlp:dim=<n>,p=<p|inf>`, `seqlp:p=<p>,
    support=<m>`, `c01`, `custom:<file>`, or a dict of the same fields
    with `kind`; every spec is checked against `_SPACE_FIELDS`."""
    fields = _spec_dict(spec) if isinstance(spec, str) else spec
    if not isinstance(fields, dict):
        raise ConfigError(f"space spec must be string or object, got {type(fields).__name__}")
    kind = fields.get("kind")
    if not isinstance(kind, str) or kind not in _SPACE_FIELDS:
        raise ConfigError(f"unknown space kind {kind!r}")
    required, optional = _SPACE_FIELDS[kind]
    if not required <= set(fields) <= required | set(optional) | {"kind"}:
        raise ConfigError(f"{kind} spec {spec!r} needs fields {sorted(required)} "
                          f"and allows {sorted(optional)}")
    f = {**optional, **fields}
    if kind == "fdlp":
        return FiniteDimLp(_parse_num(int, f["dim"], "dimension"), _parse_p(f["p"]))
    if kind == "seqlp":
        return SeqLp(_parse_p(f["p"]), _parse_num(int, f["support"], "support cap"))
    if kind == "custom":
        return CustomNet(f["points"], _parse_p(f["p"]), f["functionals"])
    return ContinuousPL()
