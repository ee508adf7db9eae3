"""Lazy bounded sequences: elements of the sup-norm sequence space.

A sequence is a pure coordinate oracle (1-based) together with a
certified upper bound on its sup norm and a structural tag. Nothing
infinite is ever materialized; statements about limits are replaced by
finite-window statistics with explicit tolerances.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, EmptyWindow, IndexZero, LengthMismatch, \
    _is_number, _numbers


# ---------------------------------------------------------------------------
# structural tags

@dataclass(frozen=True)
class EventuallyConstant:
    """0.0 at the indices below `start`, `value` from `start` on."""
    value: float
    start: int = 1


@dataclass(frozen=True)
class ExplicitLimit:
    """Converges to `limit`; coordinate n is limit + rate / n."""
    limit: float
    rate: float


@dataclass(frozen=True)
class Periodic:
    pattern: tuple


@dataclass(frozen=True)
class LinearCombo:
    coeffs: tuple
    children: tuple


@dataclass(frozen=True)
class Opaque:
    pass


@dataclass(frozen=True)
class BoundedSeq:
    """A lazily evaluated bounded sequence, read three ways.

    The scalar `oracle(n)` is the reference. It must be pure (the same
    index gives bit-identical scalars) and is only called with n >= 1:
    `coordinate`, `coordinates` and `coordinates_at` raise IndexZero
    below 1. `bound` is a certified sup-norm upper bound. Two optional
    reads give the oracle's bits: the window `block(lo, hi)`, read by
    `coordinates`, and the by-index `at(ns)` (an int64 array of indices
    in any order), read by `coordinates_at`. The tagged constructors
    have both, `combine` each one its children all have, and
    `from_function` neither; of the space images only T(x) (the identity
    scheme) has them, and extracted images are read through the oracle.
    `verify.classify_c` builds its witness from the block and re-reads
    its int64 indices through `at` (the oracle when there is none), by
    the rules and the core of `embed.reverify_witness`, so the block's
    values are checked against a second evaluation, not against
    themselves: a tagged sequence's block slices a
    window and its `at` indexes each n; T(x)'s block interleaves a prefix
    of phi values and its `at` gathers from a fresh read of that prefix
    and signs by parity. Tests pin both reads to the oracle.
    """
    oracle: Callable[[int], float]
    bound: float
    tag: object = Opaque()
    block: Optional[Callable[[int, int], np.ndarray]] = None
    at: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def coordinates(self, lo: int, hi: int) -> np.ndarray:
        """Coordinates lo..hi, the one window read of `classify_c` and of
        `extend`'s extractions: the block, else the scalar oracle through
        `coordinates_at` (no library sequence has `at` without `block`).
        A read of other than hi - lo + 1 values (numpy's arange of
        1..2^63 - 1 is empty) or a value that is not finite is a
        ValueError naming the window."""
        if lo < 1:
            raise IndexZero(f"window starts at {lo}")
        if self.block is not None:
            out = np.asarray(self.block(lo, hi), dtype=float)
        else:
            out = coordinates_at(self, np.arange(lo, hi + 1, dtype=np.int64))
        if len(out) != hi - lo + 1:
            raise ValueError(f"coordinates {lo}..{hi} read {len(out)} values")
        if not np.isfinite(out).all():
            raise ValueError(f"coordinates {lo}..{hi} hold a value that is not finite")
        return out


@dataclass(frozen=True, eq=False)
class ClusterEstimate:
    """An end cell of `cluster_estimates`, a finite stand-in for a limit
    point: its members' indices (int64, increasing) and coordinates
    (float64), the cell midpoint and a member's largest distance from it."""
    indices: np.ndarray
    values: np.ndarray
    value: float
    spread: float


# ---------------------------------------------------------------------------
# constructors

def eventually_constant(value: float, start: int = 1) -> BoundedSeq:
    """0.0 at indices 1..start-1 and `value` from `start` on. `start` is
    an int (not a bool) below 2^63, the index range of IndexScheme: a
    start below 1 is IndexZero, any other bad start a ConfigError."""
    if not (type(start) is int and start < 2 ** 63):
        raise ConfigError(f"start = {start!r} must be an int < 2^63")
    if start < 1:
        raise IndexZero(f"start {start} < 1")
    value = float(value)
    _numbers((value,), "eventually constant sequence")

    def oracle(n: int) -> float:
        return value if n >= start else 0.0

    def block(lo: int, hi: int) -> np.ndarray:
        out = np.full(hi - lo + 1, value)
        out[:max(0, start - lo)] = 0.0
        return out

    def at(ns: np.ndarray) -> np.ndarray:
        return np.where(ns < start, 0.0, value)

    return BoundedSeq(oracle, abs(value), EventuallyConstant(value, start), block, at)


def explicit_limit(limit: float, rate: float) -> BoundedSeq:
    limit = float(limit)
    rate = float(rate)
    _numbers((limit, rate, abs(limit) + abs(rate)), "explicit limit or its bound")

    def oracle(n: int) -> float:
        return limit + rate / n

    def block(lo: int, hi: int) -> np.ndarray:
        return limit + rate / np.arange(lo, hi + 1, dtype=float)

    def at(ns: np.ndarray) -> np.ndarray:
        return limit + rate / ns.astype(float)

    return BoundedSeq(oracle, abs(limit) + abs(rate), ExplicitLimit(limit, rate),
                      block, at)


def periodic(pattern: Sequence[float]) -> BoundedSeq:
    pattern = tuple(float(v) for v in pattern)
    if not pattern:
        raise LengthMismatch("empty pattern")
    _numbers(pattern, "periodic pattern")
    m = len(pattern)

    def oracle(n: int) -> float:
        return pattern[(n - 1) % m]

    pattern_arr = np.array(pattern)

    def block(lo: int, hi: int) -> np.ndarray:
        return pattern_arr[np.arange(lo - 1, hi) % m]

    def at(ns: np.ndarray) -> np.ndarray:
        return pattern_arr[(ns - 1) % m]

    return BoundedSeq(oracle, max(abs(v) for v in pattern), Periodic(pattern),
                      block, at)


def zero_seq() -> BoundedSeq:
    return eventually_constant(0.0)


def from_function(fn: Callable[[int], float], bound: float) -> BoundedSeq:
    """Wrap an opaque pure oracle with a caller-certified bound."""
    bound = float(bound)
    if not (_is_number(bound) and bound >= 0.0):
        raise ConfigError(f"bound = {bound} must be finite and >= 0")

    def oracle(n: int) -> float:
        return float(fn(n))

    return BoundedSeq(oracle, bound, Opaque())


# ---------------------------------------------------------------------------
# operations

def coordinate(s: BoundedSeq, n: int) -> float:
    if n < 1:
        raise IndexZero(f"index {n} < 1")
    return float(s.oracle(n))


def coordinates_at(s: BoundedSeq, indices) -> np.ndarray:
    """The coordinates at `indices` (any order, repeats allowed) as a
    float array, bit for bit [coordinate(s, n) for n in indices]. One
    call of `s.at` when `s` has one and the indices are an int64 array
    or convert to one; otherwise (no `at`, an index past int64, or
    indices that are not ints) the oracle per index in order, each
    index a Python int when they are ints. An index below 1 is
    IndexZero either way."""
    ns = np.asarray(indices)
    if ns.ndim == 1 and ns.dtype.kind == "i":
        if len(ns) and ns.min() < 1:
            raise IndexZero(f"index {int(ns.min())} < 1")
        if s.at is not None:
            return np.asarray(s.at(ns.astype(np.int64, copy=False)), dtype=float)
        indices = ns.tolist()
    return np.array([coordinate(s, n) for n in indices], dtype=float)


def prefix_sup(s: BoundedSeq, N: int) -> float:
    """max |coordinate| over 1..N; nondecreasing in N and <= s.bound."""
    if N < 1:
        raise IndexZero(f"N = {N} < 1")
    vals = s.coordinates(1, N)
    return float(np.max(np.abs(vals)))


def combine(coeffs: Sequence[float], seqs: Sequence[BoundedSeq]) -> BoundedSeq:
    if len(coeffs) != len(seqs):
        raise LengthMismatch(f"{len(coeffs)} coefficients, {len(seqs)} sequences")
    if not seqs:
        raise LengthMismatch("empty combination")
    coeffs = tuple(float(c) for c in coeffs)
    _numbers(coeffs, "coefficient list")
    seqs = tuple(seqs)
    bound = sum(abs(c) * s.bound for c, s in zip(coeffs, seqs))
    _numbers((bound,), "bound of a combination")

    # every path adds c * s(n) in child order from 0.0; Python 3.12's
    # compensated `sum` would round differently from the block
    def oracle(n: int) -> float:
        acc = 0.0
        for c, s in zip(coeffs, seqs):
            acc += c * s.oracle(n)
        return acc

    def block(lo: int, hi: int) -> np.ndarray:
        out = np.zeros(hi - lo + 1)
        for c, s in zip(coeffs, seqs):
            out += c * s.coordinates(lo, hi)
        return out

    def at(ns: np.ndarray) -> np.ndarray:
        out = np.zeros(len(ns))
        for c, s in zip(coeffs, seqs):
            out += c * s.at(ns)
        return out

    has_block = all(s.block is not None for s in seqs)
    has_at = all(s.at is not None for s in seqs)
    return BoundedSeq(oracle, bound, LinearCombo(coeffs, seqs),
                      block if has_block else None, at if has_at else None)


def _bucket(values: np.ndarray, bound: float, side: float) -> np.ndarray:
    """Cell of each value among the ceil(2 bound / side) cells of width
    `side` from -bound, the top edge +bound clamped into the last: the
    one cell rule of `cluster_estimates` and of `extend`'s extractions.
    A bound over float_max / 2 or over 2^62 cells (int64 indices) is a ValueError.
    The cells are floor((values + bound) / side) cast to int and clipped,
    each step in place in the one int64 buffer returned (its float64 view
    until the cast, which reads and writes each element where it lies)."""
    if bound == 0.0 or side == 0.0:
        return np.zeros(len(values), dtype=int)
    bound, side = float(bound), float(side)
    if math.isinf(2.0 * bound):
        raise ValueError(f"bound {bound!r} is over float_max / 2: 2 * bound overflows")
    if 2.0 * bound / side > 2.0 ** 62:
        raise ValueError(f"over 2^62 cells of width {side!r} in [-{bound!r}, {bound!r}]")
    ncells = max(1, math.ceil(2.0 * bound / side))
    cells = np.empty(len(values), dtype=int)
    buf = cells.view(float)
    np.add(values, bound, out=buf)
    np.divide(buf, side, out=buf)
    np.floor(buf, out=buf)
    np.copyto(cells, buf, casting="unsafe")
    return np.clip(cells, 0, ncells - 1, out=cells)


def cluster_estimates(s: BoundedSeq, window: range, cell_width: float, least: int):
    """(ends, seen): `ends` holds the ClusterEstimates of the lowest and
    the highest cell (by `_bucket`, the extractions' cell rule) with at
    least `least` of `window`'s coordinates, one when only one cell has
    that many, none when none does, and is all that is built; `seen`
    counts the nonempty cells. `window`, a range of step 1 that stops by
    2^63 (its int64 indices; else a ValueError), is read once by
    `s.coordinates`, which rejects a start below 1."""
    if not isinstance(window, range) or window.step != 1:
        raise ValueError(f"window {window!r} is not a range of step 1")
    if window.stop > 2 ** 63:
        raise ValueError(f"window {window!r} stops past 2^63, where int64 indices wrap")
    if len(window) == 0:
        raise EmptyWindow("empty window")
    if cell_width <= 0:
        raise ValueError(f"cell_width {cell_width} must be positive")

    vals = s.coordinates(window.start, window.stop - 1)

    b = s.bound
    width = cell_width if b != 0.0 else 0.0     # bound 0: one cell, the point 0
    cells = _bucket(vals, b, width)
    populated, counts = np.unique(cells, return_counts=True)
    full = populated[counts >= least]
    ends = []
    for cell in full[[0, -1]] if len(full) > 1 else full:
        hit = np.flatnonzero(cells == cell)
        mid = -b + (cell + 0.5) * width
        members = vals[hit]
        ends.append(ClusterEstimate(hit + window.start, members, float(mid),
                                    float(np.max(np.abs(members - mid)))))
    return ends, len(populated)


def structural_limit(s: BoundedSeq, budget: int):
    """(limit, tail_variation) for convergence-certifying tags, or None
    when the tag carries no such certificate.

    tail_variation bounds |coordinate(n) - limit| for every n > budget,
    over the oracle's own floating-point arithmetic. An eventually
    constant sequence contributes 0.0 when start <= budget + 1 and
    |value| otherwise. limit + rate / n is within |rate| / budget of
    limit before its sum rounds, which adds at most half an ulp. A
    combination adds |c| times each child's bound and a slack for the
    roundings of its sums; both sums round outward by `math.nextafter`.
    """
    tag = s.tag
    if isinstance(tag, EventuallyConstant):
        return tag.value, (0.0 if tag.start <= budget + 1 else abs(tag.value))
    if isinstance(tag, ExplicitLimit):
        # fl(|rate| / n) <= t for n > budget, as rounding is monotone
        t = abs(tag.rate) / max(budget, 1)
        return tag.limit, math.nextafter(t + math.ulp(abs(tag.limit) + t) / 2, math.inf)
    if isinstance(tag, Periodic) and len(set(tag.pattern)) == 1:
        return tag.pattern[0], 0.0
    if isinstance(tag, LinearCombo):
        limit = 0.0
        variation = 0.0
        for c, child in zip(tag.coeffs, tag.children):
            sub = structural_limit(child, budget)
            if sub is None:
                return None
            limit += c * sub[0]
            variation += abs(c) * sub[1]
        # the oracle's sum, the limit's and `variation` each round 2m
        # times, each time by at most ulp(2 * bound) / 2 <= ulp(bound)
        slack = 6 * len(tag.coeffs) * math.ulp(s.bound)
        return limit, math.nextafter(variation + slack, math.inf)
    return None
