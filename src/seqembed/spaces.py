"""Computable separable Banach spaces.

Each space kind supplies a norm oracle, a deterministic enumeration of
unit vectors dense in the unit sphere, and an explicit duality map
producing a norming functional for every enumerated point. The net
enumeration walks levels t = 1, 2, ...: at level t all integer-valued
candidates within range t are listed lexicographically, the zero vector
is skipped, and each survivor is normalized. Duplicate directions
across levels are permitted; density is unaffected.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, IndexZero, KindMismatch, NotUnitVector,
                     ZeroElement)

UNIT_TOL = 1e-9


# ---------------------------------------------------------------------------
# functionals

@dataclass(frozen=True)
class DualVector:
    """Dual coordinate vector; applied as an inner product."""
    space_kind: str
    coords: tuple

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)


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


def _duality_row(u: np.ndarray, p: float) -> np.ndarray:
    """Norming functional of a unit vector in a p-norm space.

    p in (1, inf): sign(u)|u|^(p-1); p = 1: sign(u); p = inf: signed
    coordinate functional at the smallest index attaining |u_i| = 1.
    """
    if math.isinf(p):
        idx = int(np.argmax(np.abs(u) >= 1.0 - 1e-12))
        phi = np.zeros_like(u)
        phi[idx] = math.copysign(1.0, u[idx])
        return phi
    if p == 1.0:
        return np.sign(u)
    return np.sign(u) * np.abs(u) ** (p - 1.0)


# ---------------------------------------------------------------------------
# base class

class SeparableSpace:
    """Common surface: norm, net enumeration, norming functionals."""

    kind = "abstract"

    # -- per-kind hooks -----------------------------------------------------
    def norm(self, x) -> float:
        raise NotImplementedError

    def canonical(self, x):
        """Validate and canonicalize an element representation."""
        raise NotImplementedError

    def scale(self, c: float, x):
        raise NotImplementedError

    def subtract(self, x, y):
        raise NotImplementedError

    def apply_functional(self, phi, x) -> float:
        raise NotImplementedError

    def net_point(self, k: int):
        raise NotImplementedError

    def norming_functional(self, k: int):
        raise NotImplementedError

    def functional_values(self, x, K: int) -> np.ndarray:
        """Vectorized [phi_1(x), ..., phi_K(x)]."""
        raise NotImplementedError

    def distance_profile(self, v, K: int) -> np.ndarray:
        """Vectorized [||v - u_1||, ..., ||v - u_K||]."""
        raise NotImplementedError

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

    def random_element(self, rng):
        raise NotImplementedError

    def lattice_sample(self, rng):
        """Random nonzero multiple of a small integer-grid direction.

        These land on (or near) early net points, so oscillation
        witnesses are found within modest scan budgets.
        """
        raise NotImplementedError

    def element_to_json(self, x):
        raise NotImplementedError

    def element_from_json(self, obj):
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# finite-dimensional p-norm space

class FiniteDimLp(SeparableSpace):
    kind = "fdlp"

    def __init__(self, dim: int, p: float):
        if dim < 1:
            raise ConfigError(f"dim = {dim} must be >= 1")
        if not (p >= 1.0):
            raise ConfigError(f"p = {p} must be in [1, inf]")
        self.dim = int(dim)
        self.p = float(p)
        self._points = []   # unit vectors, np arrays
        self._phis = []     # matching duality rows
        self._stream = self._level_stream()
        self._U = np.zeros((0, self.dim))
        self._Phi = np.zeros((0, self.dim))

    def describe(self):
        p = "inf" if math.isinf(self.p) else f"{self.p:g}"
        return f"fdlp:dim={self.dim},p={p}"

    def _level_stream(self):
        for t in itertools.count(1):
            for w in itertools.product(range(-t, t + 1), repeat=self.dim):
                if any(w):
                    yield np.array(w, dtype=float)

    @staticmethod
    def level_size(dim: int, t: int) -> int:
        return (2 * t + 1) ** dim - 1

    def net_size_through_level(self, level: int) -> int:
        return sum(self.level_size(self.dim, t) for t in range(1, level + 1))

    def _ensure(self, K: int):
        while len(self._points) < K:
            w = next(self._stream)
            u = w / _pnorm(w, self.p)
            self._points.append(u)
            self._phis.append(_duality_row(u, self.p))
        if self._U.shape[0] < K:
            self._U = np.array(self._points)
            self._Phi = np.array(self._phis)

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
        if k < 1:
            raise IndexZero(f"k = {k} < 1")
        self._ensure(k)
        return self._points[k - 1].copy()

    def norming_functional(self, k: int):
        if k < 1:
            raise IndexZero(f"k = {k} < 1")
        self._ensure(k)
        return DualVector(self.kind, tuple(self._phis[k - 1]))

    def apply_functional(self, phi, x) -> float:
        self._check_kind(phi)
        return float(np.dot(phi.as_array(), self.canonical(x)))

    def functional_values(self, x, K: int) -> np.ndarray:
        self._ensure(K)
        return self._Phi[:K] @ self.canonical(x)

    def distance_profile(self, v, K: int) -> np.ndarray:
        self._ensure(K)
        diff = self._U[:K] - self.canonical(v)
        if math.isinf(self.p):
            return np.max(np.abs(diff), axis=1)
        if self.p == 1.0:
            return np.sum(np.abs(diff), axis=1)
        if self.p == 2.0:
            return np.sqrt(np.sum(diff * diff, axis=1))
        return np.sum(np.abs(diff) ** self.p, axis=1) ** (1.0 / self.p)

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
        return self.canonical(obj)


# ---------------------------------------------------------------------------
# finitely supported sequence space

class SeqLp(SeparableSpace):
    kind = "seqlp"

    def __init__(self, p: float, support_cap: int = 8):
        if not (1.0 <= p < math.inf):
            raise ConfigError(f"p = {p} must be in [1, inf)")
        if support_cap < 1:
            raise ConfigError(f"support cap {support_cap} must be >= 1")
        self.p = float(p)
        self.support_cap = int(support_cap)
        self._rows = []     # (values array over 1..width, width)
        self._phirows = []
        self._stream = self._level_stream()
        self._U = np.zeros((0, 0))
        self._Phi = np.zeros((0, 0))

    def describe(self):
        return f"seqlp:p={self.p:g},support={self.support_cap}"

    def _level_stream(self):
        for t in itertools.count(1):
            for w in itertools.product(range(-t, t + 1), repeat=t):
                if any(w):
                    yield np.array(w, dtype=float)

    def _ensure(self, K: int):
        while len(self._rows) < K:
            w = next(self._stream)
            u = w / _pnorm(w, self.p)
            self._rows.append(u)
            self._phirows.append(_duality_row(u, self.p))
        if self._U.shape[0] < K:
            width = max(len(r) for r in self._rows)
            U = np.zeros((len(self._rows), width))
            Phi = np.zeros((len(self._rows), width))
            for i, (r, pr) in enumerate(zip(self._rows, self._phirows)):
                U[i, :len(r)] = r
                Phi[i, :len(pr)] = pr
            self._U, self._Phi = U, Phi

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
        if k < 1:
            raise IndexZero(f"k = {k} < 1")
        self._ensure(k)
        row = self._rows[k - 1]
        return {i + 1: float(v) for i, v in enumerate(row) if v != 0.0}

    def norming_functional(self, k: int):
        if k < 1:
            raise IndexZero(f"k = {k} < 1")
        self._ensure(k)
        row = self._phirows[k - 1]
        entries = tuple((i + 1, float(v)) for i, v in enumerate(row) if v != 0.0)
        return DualMap(self.kind, entries)

    def apply_functional(self, phi, x) -> float:
        self._check_kind(phi)
        x = self.canonical(x)
        return float(sum(v * x.get(i, 0.0) for i, v in phi.entries))

    def functional_values(self, x, K: int) -> np.ndarray:
        self._ensure(K)
        x = self.canonical(x)
        return self._Phi[:K] @ self._dense(x, self._Phi.shape[1])

    def distance_profile(self, v, K: int) -> np.ndarray:
        self._ensure(K)
        v = self.canonical(v)
        width = self._U.shape[1]
        diff = self._U[:K] - self._dense(v, width)
        extra = sum(abs(val) ** self.p for i, val in v.items() if i > width)
        if self.p == 1.0:
            return np.sum(np.abs(diff), axis=1) + extra
        if self.p == 2.0:
            return np.sqrt(np.sum(diff * diff, axis=1) + extra)
        return (np.sum(np.abs(diff) ** self.p, axis=1) + extra) ** (1.0 / self.p)

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
        return self.canonical({int(k): float(v) for k, v in obj.items()})


# ---------------------------------------------------------------------------
# piecewise-linear functions on [0, 1] with the sup norm

class ContinuousPL(SeparableSpace):
    kind = "c01"

    # breakpoint refinement is deliberately slower than value
    # refinement: value range t needs to reach ~5-6 before the next
    # dyadic grid opens, so early net levels already resolve coarse
    # directions finely enough for witness searches
    LEVELS_PER_GRID = 6

    def __init__(self):
        self._points = []   # (grid level b, normalized values array)
        self._tstars = []
        self._signs = []
        self._stream = self._level_stream()

    def describe(self):
        return "c01"

    @classmethod
    def _grid(cls, b: int) -> np.ndarray:
        return np.linspace(0.0, 1.0, 2 ** b + 1)

    def _level_stream(self):
        for t in itertools.count(1):
            b = (t + self.LEVELS_PER_GRID - 1) // self.LEVELS_PER_GRID
            npts = 2 ** b + 1
            for vals in itertools.product(range(-t, t + 1), repeat=npts):
                if any(vals):
                    yield b, np.array(vals, dtype=float)

    def _ensure(self, K: int):
        while len(self._points) < K:
            b, w = next(self._stream)
            u = w / np.max(np.abs(w))
            self._points.append((b, u))
            idx = int(np.argmax(np.abs(u) >= 1.0 - 1e-12))
            self._tstars.append(float(self._grid(b)[idx]))
            self._signs.append(math.copysign(1.0, u[idx]))

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
        if k < 1:
            raise IndexZero(f"k = {k} < 1")
        self._ensure(k)
        b, u = self._points[k - 1]
        return PLFunction(tuple(float(t) for t in self._grid(b)),
                          tuple(float(v) for v in u))

    def norming_functional(self, k: int):
        if k < 1:
            raise IndexZero(f"k = {k} < 1")
        self._ensure(k)
        return PointMass(self.kind, self._tstars[k - 1], self._signs[k - 1])

    def apply_functional(self, phi, x) -> float:
        self._check_kind(phi)
        x = self.canonical(x)
        return phi.sign * float(np.interp(phi.location, x.breaks, x.values))

    def functional_values(self, x, K: int) -> np.ndarray:
        self._ensure(K)
        x = self.canonical(x)
        t = np.array(self._tstars[:K])
        s = np.array(self._signs[:K])
        return s * np.interp(t, x.breaks, x.values)

    def distance_profile(self, v, K: int) -> np.ndarray:
        self._ensure(K)
        v = self.canonical(v)
        out = np.empty(K)
        levels = np.array([b for b, _ in self._points[:K]])
        for b in np.unique(levels):
            idx = np.nonzero(levels == b)[0]
            grid = self._grid(int(b))
            union = np.union1d(grid, v.breaks)
            pos = np.clip(np.searchsorted(grid, union, side="right") - 1,
                          0, len(grid) - 2)
            w = (union - grid[pos]) / (grid[pos + 1] - grid[pos])
            rows = np.array([self._points[i][1] for i in idx])
            on_union = rows[:, pos] * (1.0 - w) + rows[:, pos + 1] * w
            v_union = np.interp(union, v.breaks, v.values)
            out[idx] = np.max(np.abs(on_union - v_union), axis=1)
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
        return pl_function(obj["breaks"], obj["values"])


# ---------------------------------------------------------------------------
# explicit cyclic net, for deterministic tests and examples

class CustomNet(SeparableSpace):
    """A finite-dim p-norm space whose net cycles an explicit unit list.

    Exists so tests and examples do not depend on the grid enumeration
    order. Functionals default to the duality map of each point.
    """

    kind = "custom"

    def __init__(self, points, p: float = 2.0, functionals=None):
        if not points:
            raise ConfigError("custom net needs at least one point")
        self.p = float(p)
        self.points = [np.asarray(pt, dtype=float) for pt in points]
        self.dim = self.points[0].shape[0]
        for pt in self.points:
            if pt.shape != (self.dim,):
                raise ConfigError("custom net points must share one dimension")
            if abs(_pnorm(pt, self.p) - 1.0) > UNIT_TOL:
                raise ConfigError(f"custom net point {pt} is not unit")
        if functionals is None:
            self.functionals = [_duality_row(pt, self.p) for pt in self.points]
        else:
            self.functionals = [np.asarray(f, dtype=float) for f in functionals]
            if len(self.functionals) != len(self.points):
                raise ConfigError("one functional per net point required")
            for f, pt in zip(self.functionals, self.points):
                if abs(float(np.dot(f, pt)) - 1.0) > UNIT_TOL:
                    raise ConfigError("functional does not norm its point")

    def describe(self):
        return f"custom:dim={self.dim},p={self.p:g},cycle={len(self.points)}"

    def canonical(self, x):
        arr = np.asarray(x, dtype=float)
        if arr.shape != (self.dim,):
            raise KindMismatch(f"expected vector of length {self.dim}")
        return arr

    def norm(self, x) -> float:
        return _pnorm(self.canonical(x), self.p)

    def scale(self, c, x):
        return c * self.canonical(x)

    def subtract(self, x, y):
        return self.canonical(x) - self.canonical(y)

    def net_point(self, k: int):
        if k < 1:
            raise IndexZero(f"k = {k} < 1")
        return self.points[(k - 1) % len(self.points)].copy()

    def norming_functional(self, k: int):
        if k < 1:
            raise IndexZero(f"k = {k} < 1")
        return DualVector(self.kind, tuple(self.functionals[(k - 1) % len(self.points)]))

    def apply_functional(self, phi, x) -> float:
        self._check_kind(phi)
        return float(np.dot(phi.as_array(), self.canonical(x)))

    def functional_values(self, x, K: int) -> np.ndarray:
        x = self.canonical(x)
        base = np.array([float(np.dot(f, x)) for f in self.functionals])
        reps = (K + len(base) - 1) // len(base)
        return np.tile(base, reps)[:K]

    def distance_profile(self, v, K: int) -> np.ndarray:
        v = self.canonical(v)
        base = np.array([_pnorm(pt - v, self.p) for pt in self.points])
        reps = (K + len(base) - 1) // len(base)
        return np.tile(base, reps)[:K]

    def random_element(self, rng):
        while True:
            x = rng.standard_normal(self.dim)
            if _pnorm(x, self.p) > 1e-3:
                return x

    def lattice_sample(self, rng):
        return float(rng.uniform(0.25, 4.0)) * self.net_point(int(rng.integers(1, len(self.points) + 1)))

    def element_to_json(self, x):
        return [float(c) for c in self.canonical(x)]

    def element_from_json(self, obj):
        return self.canonical(obj)


# ---------------------------------------------------------------------------
# CLI-facing parsing

def _parse_p(token: str) -> float:
    if token in ("inf", "infinity", "oo"):
        return math.inf
    try:
        return float(token)
    except ValueError:
        raise ConfigError(f"bad exponent {token!r}") from None


def parse_space(spec) -> SeparableSpace:
    """Space specification: `fdlp:dim=<n>,p=<p|inf>`, `seqlp:p=<p>,
    support=<m>`, `c01`, `custom:<file>`, or an equivalent dict."""
    if isinstance(spec, dict):
        return _space_from_dict(spec)
    if not isinstance(spec, str):
        raise ConfigError(f"space spec must be string or object, got {type(spec).__name__}")
    if spec == "c01":
        return ContinuousPL()
    head, _, rest = spec.partition(":")
    if head == "custom":
        try:
            with open(rest, "r", encoding="utf-8") as fh:
                return _space_from_dict(json.load(fh))
        except OSError as exc:
            raise ConfigError(f"cannot read custom net file {rest!r}: {exc}") from None
    fields = {}
    for part in rest.split(","):
        if not part:
            continue
        key, eq, val = part.partition("=")
        if not eq:
            raise ConfigError(f"bad space field {part!r} in {spec!r}")
        fields[key.strip()] = val.strip()
    if head == "fdlp":
        try:
            dim = int(fields.pop("dim"))
        except KeyError:
            raise ConfigError(f"fdlp spec {spec!r} needs field dim") from None
        p = _parse_p(fields.pop("p", "2"))
        if fields:
            raise ConfigError(f"unknown fdlp fields {sorted(fields)} in {spec!r}")
        return FiniteDimLp(dim, p)
    if head == "seqlp":
        p = _parse_p(fields.pop("p", "2"))
        support = int(fields.pop("support", "8"))
        if fields:
            raise ConfigError(f"unknown seqlp fields {sorted(fields)} in {spec!r}")
        return SeqLp(p, support)
    raise ConfigError(f"unknown space kind {head!r}")


def _space_from_dict(obj: dict) -> SeparableSpace:
    kind = obj.get("kind")
    if kind == "fdlp":
        return FiniteDimLp(int(obj["dim"]), _parse_p(str(obj.get("p", 2))))
    if kind == "seqlp":
        return SeqLp(_parse_p(str(obj.get("p", 2))), int(obj.get("support", 8)))
    if kind == "c01":
        return ContinuousPL()
    if kind == "custom":
        return CustomNet(obj["points"], float(obj.get("p", 2.0)),
                         obj.get("functionals"))
    raise ConfigError(f"unknown space kind {kind!r}")
