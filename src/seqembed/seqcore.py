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

from .errors import ConfigError, EmptyWindow, IndexZero, LengthMismatch, _finite


# ---------------------------------------------------------------------------
# structural tags

@dataclass(frozen=True)
class EventuallyConstant:
    """Constant `value` from index `start` on; `head` fills 1..start-1."""
    value: float
    start: int = 1
    head: tuple = ()


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
    """A lazily evaluated bounded sequence.

    `oracle` must be pure: repeated evaluation at the same index returns
    bit-identical scalars. `bound` is a certified sup-norm upper bound.
    `block` (optional) evaluates coordinates lo..hi inclusive as an
    array of the values `oracle` gives there, bit for bit; it is only a
    fast path for windows. `periodic`, `eventually_constant`,
    `explicit_limit` and `zero_seq` have one, `combine` has one when
    every child has, and of the space images only those under the
    identity scheme (`embed_t1`, and `scheme_embed` of the identity
    scheme) have one; `from_function` has none. The oracle stays the
    reference: `embed.reverify_witness` reads nothing else, so a
    witness built from block values is checked against it.
    """
    oracle: Callable[[int], float]
    bound: float
    tag: object = Opaque()
    block: Optional[Callable[[int, int], np.ndarray]] = None

    def coordinates(self, lo: int, hi: int) -> np.ndarray:
        if lo < 1:
            raise IndexZero(f"window starts at {lo}")
        if self.block is not None:
            return np.asarray(self.block(lo, hi), dtype=float)
        return np.array([self.oracle(n) for n in range(lo, hi + 1)], dtype=float)


@dataclass(frozen=True)
class ClusterEstimate:
    """Finite-truncation stand-in for a subsequential limit: the member
    indices in increasing order, their coordinates in the same order,
    the cell midpoint and the largest distance of a member from it."""
    indices: tuple
    values: tuple
    value: float
    spread: float


# ---------------------------------------------------------------------------
# constructors

def eventually_constant(value: float, start: int = 1, head: Sequence[float] = ()) -> BoundedSeq:
    head = tuple(float(v) for v in head)
    if len(head) != start - 1:
        raise LengthMismatch(f"head length {len(head)} != start-1 = {start - 1}")
    value = float(value)
    _finite(head + (value,), "eventually constant sequence")
    bound = max([abs(value)] + [abs(v) for v in head])

    def oracle(n: int) -> float:
        if n < 1:
            raise IndexZero(f"index {n} < 1")
        return head[n - 1] if n < start else value

    head_arr = np.array(head, dtype=float)

    def block(lo: int, hi: int) -> np.ndarray:
        out = np.full(hi - lo + 1, value)
        if lo < start:
            out[:min(hi + 1, start) - lo] = head_arr[lo - 1:hi]
        return out

    return BoundedSeq(oracle, bound, EventuallyConstant(value, start, head), block)


def explicit_list(prefix: Sequence[float], tail: float) -> BoundedSeq:
    """`prefix` followed by the constant `tail`."""
    return eventually_constant(tail, len(prefix) + 1, prefix)


def explicit_limit(limit: float, rate: float) -> BoundedSeq:
    limit = float(limit)
    rate = float(rate)
    _finite((limit, rate), "explicit limit")

    def oracle(n: int) -> float:
        if n < 1:
            raise IndexZero(f"index {n} < 1")
        return limit + rate / n

    def block(lo: int, hi: int) -> np.ndarray:
        return limit + rate / np.arange(lo, hi + 1, dtype=float)

    return BoundedSeq(oracle, abs(limit) + abs(rate), ExplicitLimit(limit, rate), block)


def periodic(pattern: Sequence[float]) -> BoundedSeq:
    pattern = tuple(float(v) for v in pattern)
    if not pattern:
        raise LengthMismatch("empty pattern")
    _finite(pattern, "periodic pattern")
    m = len(pattern)

    def oracle(n: int) -> float:
        if n < 1:
            raise IndexZero(f"index {n} < 1")
        return pattern[(n - 1) % m]

    pattern_arr = np.array(pattern)

    def block(lo: int, hi: int) -> np.ndarray:
        return pattern_arr[np.arange(lo - 1, hi) % m]

    return BoundedSeq(oracle, max(abs(v) for v in pattern), Periodic(pattern), block)


def zero_seq() -> BoundedSeq:
    return eventually_constant(0.0)


def from_function(fn: Callable[[int], float], bound: float) -> BoundedSeq:
    """Wrap an opaque pure oracle with a caller-certified bound."""
    bound = float(bound)
    if not (math.isfinite(bound) and bound >= 0.0):
        raise ConfigError(f"bound = {bound} must be finite and >= 0")

    def oracle(n: int) -> float:
        if n < 1:
            raise IndexZero(f"index {n} < 1")
        return float(fn(n))

    return BoundedSeq(oracle, bound, Opaque())


# ---------------------------------------------------------------------------
# operations

def coordinate(s: BoundedSeq, n: int) -> float:
    if n < 1:
        raise IndexZero(f"index {n} < 1")
    return float(s.oracle(n))


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
    _finite(coeffs, "coefficient list")
    seqs = tuple(seqs)
    bound = sum(abs(c) * s.bound for c, s in zip(coeffs, seqs))

    # both paths add c * s(n) in child order from 0.0; Python 3.12's
    # compensated `sum` would round differently from the block
    def oracle(n: int) -> float:
        if n < 1:
            raise IndexZero(f"index {n} < 1")
        acc = 0.0
        for c, s in zip(coeffs, seqs):
            acc += c * s.oracle(n)
        return acc

    def block(lo: int, hi: int) -> np.ndarray:
        out = np.zeros(hi - lo + 1)
        for c, s in zip(coeffs, seqs):
            out += c * s.coordinates(lo, hi)
        return out

    has_block = all(s.block is not None for s in seqs)
    return BoundedSeq(oracle, bound, LinearCombo(coeffs, seqs),
                      block if has_block else None)


def _bucket(values: np.ndarray, bound: float, side: float) -> np.ndarray:
    """Cell of each value among the ceil(2 bound / side) cells of width
    `side` from -bound, the top edge +bound clamped into the last: the
    one cell rule of `cluster_estimates` and of `extend`'s extractions.
    Over 2^62 cells, whose int64 indices would overflow, is a ValueError."""
    if bound == 0.0 or side == 0.0:
        return np.zeros(len(values), dtype=int)
    if 2.0 * bound / side > 2.0 ** 62:
        raise ValueError(f"over 2^62 cells of width {side!r} in [-{bound!r}, {bound!r}]")
    ncells = max(1, math.ceil(2.0 * bound / side))
    cells = np.floor((values + bound) / side).astype(int)
    return np.clip(cells, 0, ncells - 1)


def cluster_estimates(s: BoundedSeq, window: range, cell_width: float):
    """Bucket coordinates over `window` by `_bucket`, the extractions' cell rule.

    One ClusterEstimate per nonempty cell (value = cell midpoint),
    sorted by descending hit count then ascending value. The union of
    the returned index lists is exactly the window. The window is read
    once, through `s.coordinates` (the block when `s` has one), and
    each estimate carries the values it bucketed.
    """
    if len(window) == 0:
        raise EmptyWindow("empty window")
    if window[0] < 1:
        raise IndexZero(f"window starts at {window[0]}")
    if cell_width <= 0:
        raise ValueError(f"cell_width {cell_width} must be positive")

    indices = np.sort(np.fromiter(window, dtype=int))
    lo, hi = int(indices[0]), int(indices[-1])
    vals = s.coordinates(lo, hi)[indices - lo]

    b = s.bound
    width = cell_width if b != 0.0 else 0.0     # bound 0: one cell, the point 0
    cells = _bucket(vals, b, width)
    out = []
    for cell in np.unique(cells):
        mask = cells == cell
        mid = -b + (cell + 0.5) * width
        spread = float(np.max(np.abs(vals[mask] - mid)))
        out.append(ClusterEstimate(tuple(indices[mask].tolist()),
                                   tuple(vals[mask].tolist()), float(mid), spread))
    out.sort(key=lambda e: (-len(e.indices), e.value))
    return out


def structural_limit(s: BoundedSeq, budget: int):
    """(limit, tail_variation, stabilization_index) for convergence-
    certifying tags, or None when the tag carries no such certificate.

    tail_variation bounds |coordinate(n) - limit| for n > budget.
    """
    tag = s.tag
    if isinstance(tag, EventuallyConstant):
        return tag.value, 0.0, tag.start
    if isinstance(tag, ExplicitLimit):
        return tag.limit, abs(tag.rate) / max(budget, 1), max(budget, 1)
    if isinstance(tag, Periodic) and len(set(tag.pattern)) == 1:
        return tag.pattern[0], 0.0, 1
    if isinstance(tag, LinearCombo):
        limit = 0.0
        variation = 0.0
        stab = 1
        for c, child in zip(tag.coeffs, tag.children):
            sub = structural_limit(child, budget)
            if sub is None:
                return None
            limit += c * sub[0]
            variation += abs(c) * sub[1]
            stab = max(stab, sub[2])
        return limit, variation, stab
    return None
