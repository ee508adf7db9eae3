"""Extending embeddings past a given subspace of bounded sequences.

Given a subspace D spanned (or densely generated) by known bounded
sequences, a common subsequence of indices is extracted along which
every generator stabilizes: cell refinement in the finite-basis case,
staged diagonal refinement for countable families. Both run one
refinement step, `_refine` (the most-hit cell survives, ties to the
lexicographically smallest cell corner), on the cell rule they share
with `seqcore.cluster_estimates`; `extract_scheme` picks the
extraction for D. When D's members are periodic, eventually constant
or combinations of those, both read up to one period past their latest
start and refine those indices as weighted value classes (`_classes`),
which expand to the prefix a read of the whole budget gives. The
extracted index set is split into alternating halves I+/I-, norming
functionals are placed on them
(`scheme_embed`; `IndexScheme` and the placement live in `embed` and
are re-exported here), and the resulting embedding separates its image
from D + (convergent sequences), certified by witnesses found by the
scan loop shared with `embed.oscillation_witness`. The scan admits a
pair by its targets alone, and the targets carry the gap contract; a
limit error that leaves the target band empty is refused as an
exhausted budget before any pair is read.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .embed import (WITNESS_BUDGET, IndexScheme, OscillationWitness, _hits, _scan_witness,
                    _witness_input, identity_scheme, scheme_embed)
from .errors import BudgetExhausted, EmptyBasis, SchemeExhausted, _positive_int
from .seqcore import BoundedSeq, _bucket, _period, combine, coordinates_at, zero_seq
from .spaces import SeparableSpace


# ---------------------------------------------------------------------------
# subspace descriptors

@dataclass(frozen=True)
class SubspaceD:
    """A subspace of bounded sequences given by generators.

    mode "finite": `members` is the (possibly empty) basis.
    mode "countable": `members` are the leading Hamel-basis members.
    mode "dense": `members` are the leading terms of a dense sequence.
    """
    mode: str
    members: tuple

    @property
    def size(self) -> int:
        return len(self.members)

    def combination(self, coeffs: Sequence[float]) -> BoundedSeq:
        coeffs = list(coeffs)
        if len(coeffs) > self.size:
            raise EmptyBasis(f"{len(coeffs)} coefficients for {self.size} members")
        if not coeffs or all(c == 0.0 for c in coeffs):
            return zero_seq()
        return combine(coeffs, self.members[:len(coeffs)])


# ---------------------------------------------------------------------------
# extraction

def _classes(members, scan_budget: int):
    """(n, period, weights): the window 1..n of `members` that stands for
    every index up to scan_budget. When each member has a
    `seqcore._period`, S is their latest start, L the lcm of their
    periods and S - 1 + L < scan_budget, the window ends at n = S - 1 + L
    and period is (S, L): an index below S stands for itself (weight 1),
    an index i from S on for its class i, i + L, ... up to scan_budget
    ((scan_budget - i) // L + 1 indices, the partial last period
    counted), whose coordinate vectors are bit for bit i's. Otherwise
    n = scan_budget, and period and weights are None: each index stands
    for itself."""
    periods = [_period(w) for w in members]
    if None not in periods:
        S = max(start for start, _ in periods)
        L = math.lcm(*(p for _, p in periods))
        if S - 1 + L < scan_budget:
            weights = np.ones(S - 1 + L, dtype=np.int64)
            weights[S - 1:] = (scan_budget - np.arange(S, S + L)) // L + 1
            return S - 1 + L, (S, L), weights
    return scan_budget, None, None


def _expand(S: np.ndarray, period, scan_budget: int, periods: Optional[int] = None):
    """The 0-based indices below scan_budget that the survivors S
    (0-based, increasing) of a `_classes` window stand for, increasing:
    S itself when period is None, else, with period (start, L), S's
    head (its indices below start - 1) and then its class
    representatives r + j L for j = 0, 1, ..., each period's block in
    order, cut at scan_budget. `periods`, when given, stops after that
    many blocks: enough for the first `periods` indices, as a block cut
    short is the last one that holds any."""
    if period is None:
        return S
    start, L = period
    h = int(np.searchsorted(S, start - 1))
    blocks = (scan_budget - start) // L + 1
    if periods is not None:
        blocks = min(blocks, periods)
    tail = (S[h:] + np.arange(0, blocks * L, L, dtype=np.int64)[:, None]).ravel()
    return np.concatenate((S[:h], tail[:np.searchsorted(tail, scan_budget)]))


def _refine(S: np.ndarray, columns: list, weights, bounds: np.ndarray, level: int):
    """(S, columns, weights, mids): the survivors S (int64 indices) and
    their values `columns` (an array per member, aligned with S) and
    weights (the indices each stands for, from `_classes`; None when
    each stands for itself) cut to the most-hit cell of side
    bounds / 2^(level-1) by `_bucket`, ties to the lexicographically
    smallest cell, and that cell's midpoints. A cell's hits are its
    survivors' weights summed by `np.bincount`, so they are the indices
    it holds up to scan_budget. When one cell holds every survivor, S,
    the columns and the weights come back as they are; else each is
    gathered once, at the winning rows.

    The cells are ranked by a mixed-radix key, the first column most
    significant: a column's digit is its cell offset c - c.min() in
    radix c.max() - c.min() + 1, so key order is lexicographic cell
    order, and a column that sits in one cell drops out. S shares one
    cell of level - 1, so a column's cells span a few adjacent values on
    S (two at normal sides, three where a subnormal side rounds). Before
    a column would take the key's range past len(S), the key is
    re-ranked by `np.unique`, order kept, so `np.bincount` counts at
    most len(S) times one radix keys. The winning cell is read back from
    its key, digit by digit, so no column's cells outlive its digit."""
    sides = bounds / 2.0 ** (level - 1)
    digits, key, span = [], None, 1
    for v, bound, side in zip(columns, bounds, sides):
        c = _bucket(v, bound, side)
        lo = int(c.min())
        radix, distinct = int(c.max()) - lo + 1, None
        if radix > 1:
            if key is None:
                key = c
            else:
                if span * radix > len(S):
                    distinct, key = np.unique(key, return_inverse=True)
                    span = len(distinct)
                key *= radix
                key += c
            key -= lo
            span *= radix
        digits.append((lo, radix, distinct))
    best = 0
    if key is not None:
        best = int(np.bincount(key, weights).argmax())
        rows = np.flatnonzero(key == best)
        S, columns = S[rows], [v[rows] for v in columns]
        weights = None if weights is None else weights[rows]
    winner = []
    for lo, radix, distinct in reversed(digits):
        best, digit = divmod(best, radix)
        winner.append(lo + digit)
        if distinct is not None:
            best = int(distinct[best])
    return S, columns, weights, -bounds + (np.array(winner[::-1]) + 0.5) * sides


def _window_at(w: BoundedSeq, S: np.ndarray, n: int) -> np.ndarray:
    """w's values at the survivors S (0-based, increasing), taken from
    its `_classes` window 1..n, so a value that is not finite raises
    even at an index an earlier stage dropped (every index up to
    scan_budget repeats one the window holds); no gather while S is the
    whole window."""
    vals = w.coordinates(1, n)
    return vals if len(S) == n else vals[S]


def bw_extract(D: SubspaceD, depth: int, scan_budget: int) -> IndexScheme:
    """Cell-refinement extraction of a common cluster of D's basis.

    The coordinate vectors z_n = (w^1_n, ..., w^r_n), n up to the
    budget, are refined by `_refine` at levels 1..depth, the cell side
    halving per level from the certified bound (tie: the
    lexicographically smallest cell corner). They are read once, over
    the `_classes` window: up to one period past the latest start when every
    member is periodic, eventually constant or a combination of those,
    each index standing for the indices up to the budget that repeat
    its vector, else the whole budget. A value that is not finite is a
    ValueError either way, since the tag constructors admit none. The
    survivors travel with their members' values and weights, one array
    per member, and all shrink only at a level that drops rows.
    Survivors of the final level, expanded to the indices they stand
    for (`_expand`), form the prefix, handed to `IndexScheme` as one
    int64 array, alpha is the final cell midpoint, and the tolerance
    schedule lists each level's cell half-diagonal. `depth` and
    `scan_budget` are ints >= 1 (a numpy integer counts as its int),
    else a ValueError before any coordinate is read.
    """
    if D.mode != "finite":
        raise EmptyBasis(f"bw_extract needs a finite basis, got mode {D.mode!r}")
    if D.size < 1:
        raise EmptyBasis("bw_extract needs at least one basis sequence")
    depth = _positive_int(depth, "depth", 1)
    scan_budget = _positive_int(scan_budget, "scan_budget", 1)

    n, period, weights = _classes(D.members, scan_budget)
    columns = [m.coordinates(1, n) for m in D.members]
    bounds = np.array([m.bound for m in D.members])
    survivors = np.arange(n, dtype=np.int64)
    deltas = []
    for level in range(1, depth + 1):
        sides = bounds / 2.0 ** (level - 1)
        # on sides * 2^-e the squares cannot overflow; powers of two scale exactly
        e = np.frexp(np.max(sides))[1]
        deltas.append(float(np.ldexp(0.5 * np.sqrt(np.sum(np.ldexp(sides, -e) ** 2)), e)))
        survivors, columns, weights, mids = _refine(survivors, columns, weights, bounds, level)

    survivors = _expand(survivors, period, scan_budget)
    alpha = tuple(float(a) for a in mids)
    scheme = IndexScheme("finite", survivors + 1, alpha, tuple(deltas), scan_budget)
    if len(survivors) < 2 * depth:
        raise BudgetExhausted(
            f"surviving prefix has {len(survivors)} indices < 2*depth = {2 * depth}",
            partial=scheme, found=len(survivors))
    return scheme


def diagonal_extract(D: SubspaceD, m: int, tol_schedule: Sequence[float],
                     scan_budget: int) -> IndexScheme:
    """Staged diagonal refinement over the first m family members.

    Stage i shrinks the surviving index set until member i varies by at
    most tol_schedule[i-1] along it (`_refine` on member i alone, level
    by level; tie: the smaller cell corner). The survivors are the
    indices of the first m members' `_classes` window, with their
    weights, as in `bw_extract`. Each stage reads member i over the
    whole window (a value that is not finite anywhere in it is a
    ValueError, even at an index an earlier stage dropped), takes the
    survivors' values from it once, and carries them with the survivors
    through its levels; stage i counts its survivors by their weights
    and finds the i-th by expanding the first i periods.
    The prefix takes the j-th element of stage j's survivor set for
    j <= m and continues along the final stage, expanded once, so every
    member's tail variation meets its schedule entry; the scheme, full
    or partial, gets it as one int64 array. Like `bw_extract`'s, the scheme
    supplies at least one eta-/eta+ pair: a prefix of fewer than 2
    indices raises BudgetExhausted with the partial scheme. `m` and
    `scan_budget` are ints >= 1, checked as `bw_extract` checks them.
    """
    if D.mode not in ("countable", "dense"):
        raise EmptyBasis(f"diagonal_extract needs a countable or dense family, got {D.mode!r}")
    m = _positive_int(m, "m", 1)
    scan_budget = _positive_int(scan_budget, "scan_budget", 1)
    schedule = [float(t) for t in tol_schedule]
    if len(schedule) < m:
        raise ValueError(f"tolerance schedule of length {len(schedule)} < m = {m}")
    if any(a <= b for a, b in zip(schedule, schedule[1:])):
        raise ValueError("tolerance schedule must strictly decrease")
    if not all(t > 0.0 for t in schedule[:m]):
        raise ValueError(f"tolerances {schedule[:m]} must be positive")
    if m > D.size:
        raise EmptyBasis(f"m = {m} exceeds the {D.size} materialized members")

    n, period, weights = _classes(D.members[:m], scan_budget)
    S = np.arange(n, dtype=np.int64)
    betas = []
    diagonal = np.empty(m, dtype=np.int64)
    for i in range(1, m + 1):
        w = D.members[i - 1]
        columns = [_window_at(w, S, n)]
        bounds = np.array([w.bound])
        for level in itertools.count(1):
            S, columns, weights, mids = _refine(S, columns, weights, bounds, level)
            if w.bound / 2.0 ** (level - 1) <= schedule[i - 1]:
                break
        betas.append(float(mids[0]))
        found = len(S) if weights is None else int(weights.sum())
        if found < i:
            scheme = IndexScheme("diagonal", _expand(S, period, scan_budget) + 1,
                                 tuple(betas), tuple(schedule[:i]), scan_budget)
            raise BudgetExhausted(
                f"stage {i}: {found} survivors cannot supply a diagonal",
                partial=scheme, found=i - 1)
        diagonal[i - 1] = _expand(S, period, scan_budget, i)[i - 1] + 1

    S = _expand(S, period, scan_budget)
    scheme = IndexScheme("diagonal", np.concatenate((diagonal, S[S >= diagonal[-1]] + 1)),
                         tuple(betas), tuple(schedule[:m]), scan_budget)
    if len(scheme.prefix) < 2:
        raise BudgetExhausted(
            f"prefix has {len(scheme.prefix)} index < 2: no eta-/eta+ pair",
            partial=scheme, found=len(scheme.prefix))
    return scheme


def extract_scheme(D: SubspaceD, depth: int, scan_budget: int,
                   m: Optional[int] = None,
                   tol_schedule: Optional[Sequence[float]] = None) -> IndexScheme:
    """The index scheme for D: the identity scheme for D = {0},
    `bw_extract` for a finite basis, and otherwise `diagonal_extract`
    over the first m members (default all of them) with tolerance
    schedule 0.5 * 2^-i (i = 0..m-1) unless one is given."""
    if D.mode == "finite":
        if D.size == 0:
            return identity_scheme()
        return bw_extract(D, depth, scan_budget)
    m = D.size if m is None else _positive_int(m, "m", 1)
    if tol_schedule is None:
        tol_schedule = [0.5 / 2.0 ** i for i in range(m)]
    return diagonal_extract(D, m, tol_schedule, scan_budget)


# ---------------------------------------------------------------------------
# limit functionals

@dataclass(frozen=True)
class LimitEstimate:
    """Tail-averaged estimate of the limit of d along the scheme."""
    L: float
    err: float
    j_window: int


def limit_along(d: BoundedSeq, scheme: IndexScheme, j_window: int) -> LimitEstimate:
    """L = mean of d(n_j) over the last half of the window; err = max
    deviation over that half plus the scheme's final tolerance. d is
    read at those n_j alone, in one `coordinates_at` call on an int64
    array filled from the prefix tuple by `np.fromiter`. `j_window` is
    an int >= 2 (a numpy integer counts as its int), else a ValueError."""
    j_window = _positive_int(j_window, "j_window", 2)
    if scheme.length is not None and scheme.length < j_window:
        raise SchemeExhausted(j_window, scheme.length)
    # n_j for j = j_window // 2 + 1, ..., j_window
    idx = (np.arange(j_window // 2 + 1, j_window + 1) if scheme.length is None
           else np.fromiter(scheme.prefix[j_window // 2:j_window], np.int64,
                            j_window - j_window // 2))
    vals = coordinates_at(d, idx)
    L = float(np.mean(vals))
    dev = float(np.max(np.abs(vals - L)))
    delta = scheme.tol_schedule[-1] if scheme.tol_schedule else 0.0
    return LimitEstimate(L=L, err=dev + delta, j_window=j_window)


# ---------------------------------------------------------------------------
# separation witnesses

def _limit(scheme: IndexScheme, d: BoundedSeq) -> tuple:
    """(L, err(L)) of d along the scheme: `limit_along` over the
    scheme's whole prefix (256 positions under the identity scheme), or
    (0.0, 0.0) when d's bound is 0."""
    if d.bound == 0.0:
        return 0.0, 0.0
    est = limit_along(d, scheme, scheme.length if scheme.length is not None else 256)
    return est.L, est.err


def _separation_scans(space: SeparableSpace, scheme: IndexScheme, x, epsilon: float,
                      count: int, scan_budget: int, rows) -> list:
    """`separation_witness` for one x against every d of `rows`, a list
    of (d, limit) with limit() giving d's (L, err(L)): the arguments are
    checked now (a zero x is a ZeroElement here), and one no-argument
    call per row runs that row's scan. T(x) is placed once, and every
    row scans its own copy (`itertools.tee`) of x's one hit stream, so
    the distance profile is read once, as far as the hungriest row
    needs; the copies keep the hits read so far until the last row has
    passed them. A row reads limit() when its scan runs."""
    x, nx = _witness_input(space, x, epsilon, count, scan_budget, "separation")
    k_cap = scheme.max_k()
    k_limit = scan_budget if k_cap is None else min(scan_budget, k_cap)
    image = scheme_embed(space, scheme, x)

    def scan(hits, d: BoundedSeq, limit) -> OscillationWitness:
        L, errL = limit()
        return _scan_witness(hits, combine((1.0, -1.0), (image, d)), epsilon, count,
                             lambda k: (scheme.plus_index(k), scheme.minus_index(k)),
                             nx * (1.0 - epsilon) - L - errL,
                             -nx * (1.0 - epsilon) - L + errL,
                             f"separation pairs (scanned k <= {k_limit})")

    streams = itertools.tee(_hits(space, x, epsilon, k_limit), len(rows))
    return [functools.partial(scan, hits, d, limit)
            for hits, (d, limit) in zip(streams, rows)]


def separation_witness(space: SeparableSpace, scheme: IndexScheme, x,
                       d: BoundedSeq, epsilon: float, count: int,
                       scan_budget: int = WITNESS_BUDGET) -> OscillationWitness:
    """Witness that T(x) - d oscillates between ~(||x|| - L) and
    ~(-||x|| - L), where L is d's limit along the scheme.

    The targets carry the gap contract: a pair is taken only when its
    image values clear target_hi = ||x|| (1 - epsilon) - L - err(L) and
    target_lo = -||x|| (1 - epsilon) - L + err(L), so
    gap >= target_hi - target_lo = 2 ||x|| (1 - epsilon) - 2 err(L).
    When err(L) leaves that band empty (target_hi <= target_lo), no pair
    is read and BudgetExhausted is raised with found = 0: a deeper
    extraction narrows err(L). This is the one-row case of the scans
    `verify.check_separation` runs over a table of d rows.
    """
    scan, = _separation_scans(space, scheme, x, epsilon, count, scan_budget,
                              [(d, functools.partial(_limit, scheme, d))])
    return scan()
