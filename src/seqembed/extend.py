"""Extending embeddings past a given subspace of bounded sequences.

Given a subspace D spanned (or densely generated) by known bounded
sequences, a common subsequence of indices is extracted along which
every generator stabilizes: cell refinement in the finite-basis case,
staged diagonal refinement for countable families. Both run one
refinement step, `_refine` (the most-hit cell survives, ties to the
lexicographically smallest cell corner), on the cell rule they share
with `seqcore.cluster_estimates`; `extract_scheme` picks the
extraction for D. The extracted index set is split into
alternating halves I+/I-, norming functionals are placed on them
(`scheme_embed`; `IndexScheme` and the placement live in `embed` and
are re-exported here), and the resulting embedding separates its image
from D + (convergent sequences), certified by witnesses found by the
scan loop shared with `embed.oscillation_witness`.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .embed import (IndexScheme, OscillationWitness, _scan_witness,
                    _witness_input, identity_scheme, scheme_embed)
from .errors import BudgetExhausted, EmptyBasis, SchemeExhausted
from .seqcore import BoundedSeq, _bucket, combine, coordinate, zero_seq
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

def _refine(Z: np.ndarray, bounds: np.ndarray, S: np.ndarray, level: int):
    """The rows S of Z (a column per member) in the most-hit cell of
    side bounds / 2^(level-1), ties to the lexicographically smallest
    cell, and that cell's midpoints. S shares one cell of level - 1, so
    a column's cells take two adjacent values at most on S, and one
    binary digit per column ranks the cells in lexicographic order."""
    sides = bounds / 2.0 ** (level - 1)
    cells = [_bucket(Z[S, i], bounds[i], sides[i]) for i in range(len(bounds))]
    key = np.zeros(len(S), dtype=np.int64)
    for c in cells:
        if key.max() >= 1 << 62:    # past 62 columns: re-rank, order kept
            key = np.unique(key, return_inverse=True)[1]
        key = key << 1 | (c - c.min())
    keys, counts = np.unique(key, return_counts=True)
    rows = np.flatnonzero(key == keys[np.argmax(counts)])
    winner = np.array([c[rows[0]] for c in cells])
    return S[rows], -bounds + (winner + 0.5) * sides


def bw_extract(D: SubspaceD, depth: int, scan_budget: int) -> IndexScheme:
    """Cell-refinement extraction of a common cluster of D's basis.

    The coordinate vectors z_n = (w^1_n, ..., w^r_n) are scanned up to
    the budget and refined by `_refine` at levels 1..depth, the cell
    side halving per level from the certified bound (tie: the
    lexicographically smallest cell corner). Survivors of the final
    level form the prefix, alpha is the final cell midpoint, and the
    tolerance schedule lists each level's cell half-diagonal.
    """
    if D.mode != "finite":
        raise EmptyBasis(f"bw_extract needs a finite basis, got mode {D.mode!r}")
    if D.size < 1:
        raise EmptyBasis("bw_extract needs at least one basis sequence")
    if depth < 1:
        raise ValueError(f"depth = {depth} must be >= 1")

    Z = np.column_stack([m.coordinates(1, scan_budget) for m in D.members])
    bounds = np.array([m.bound for m in D.members])
    survivors = np.arange(scan_budget)
    deltas = []
    for level in range(1, depth + 1):
        sides = bounds / 2.0 ** (level - 1)
        deltas.append(0.5 * float(np.sqrt(np.sum(sides ** 2))))
        survivors, mids = _refine(Z, bounds, survivors, level)

    alpha = tuple(float(a) for a in mids)
    prefix = tuple((survivors + 1).tolist())
    scheme = IndexScheme("finite", prefix, alpha, tuple(deltas), scan_budget)
    if len(prefix) < 2 * depth:
        raise BudgetExhausted(
            f"surviving prefix has {len(prefix)} indices < 2*depth = {2 * depth}",
            partial=scheme, found=len(prefix))
    return scheme


def diagonal_extract(D: SubspaceD, m: int, tol_schedule: Sequence[float],
                     scan_budget: int) -> IndexScheme:
    """Staged diagonal refinement over the first m family members.

    Stage i shrinks the surviving index set until member i varies by at
    most tol_schedule[i-1] along it (`_refine` on member i alone, level
    by level; tie: the smaller cell corner).
    The prefix takes the j-th element of stage j's survivor set for
    j <= m and continues along the final stage, so every member's tail
    variation meets its schedule entry.
    """
    if D.mode not in ("countable", "dense"):
        raise EmptyBasis(f"diagonal_extract needs a countable or dense family, got {D.mode!r}")
    if m < 1:
        raise ValueError(f"m = {m} must be >= 1")
    schedule = [float(t) for t in tol_schedule]
    if len(schedule) < m:
        raise ValueError(f"tolerance schedule of length {len(schedule)} < m = {m}")
    if any(a <= b for a, b in zip(schedule, schedule[1:])):
        raise ValueError("tolerance schedule must strictly decrease")
    if not all(t > 0.0 for t in schedule[:m]):
        raise ValueError(f"tolerances {schedule[:m]} must be positive")
    if m > D.size:
        raise EmptyBasis(f"m = {m} exceeds the {D.size} materialized members")

    S = np.arange(scan_budget)
    betas = []
    diagonal = []
    for i in range(1, m + 1):
        w = D.members[i - 1]
        Z = w.coordinates(1, scan_budget)[:, None]
        bounds = np.array([w.bound])
        for level in itertools.count(1):
            S, mids = _refine(Z, bounds, S, level)
            if w.bound / 2.0 ** (level - 1) <= schedule[i - 1]:
                break
        betas.append(float(mids[0]))
        if len(S) < i:
            scheme = IndexScheme("diagonal", tuple((S + 1).tolist()),
                                 tuple(betas), tuple(schedule[:i]), scan_budget)
            raise BudgetExhausted(
                f"stage {i}: {len(S)} survivors cannot supply a diagonal",
                partial=scheme, found=i - 1)
        diagonal.append(int(S[i - 1]) + 1)

    prefix = tuple(diagonal + (S[S >= diagonal[-1]] + 1).tolist())
    return IndexScheme("diagonal", prefix, tuple(betas), tuple(schedule[:m]),
                       scan_budget)


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
    if m is None:
        m = D.size
    if tol_schedule is None:
        tol_schedule = [0.5 / 2.0 ** i for i in range(m)]
    return diagonal_extract(D, int(m), tol_schedule, scan_budget)


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
    deviation over that half plus the scheme's final tolerance.

    With a block, d is read over one window spanning those n_j;
    without, at the n_j alone."""
    if j_window < 2:
        raise ValueError(f"j_window = {j_window} must be >= 2")
    if scheme.length is not None and scheme.length < j_window:
        raise SchemeExhausted(j_window, scheme.length)
    idx = np.array([scheme.index_at(j) for j in range(j_window // 2 + 1, j_window + 1)])
    if d.block is not None:
        lo = int(idx.min())
        vals = d.coordinates(lo, int(idx.max()))[idx - lo]
    else:
        vals = np.array([coordinate(d, int(n)) for n in idx])
    L = float(np.mean(vals))
    dev = float(np.max(np.abs(vals - L)))
    delta = scheme.tol_schedule[-1] if scheme.tol_schedule else 0.0
    return LimitEstimate(L=L, err=dev + delta, j_window=j_window)


# ---------------------------------------------------------------------------
# separation witnesses

def separation_witness(space: SeparableSpace, scheme: IndexScheme, x,
                       d: BoundedSeq, epsilon: float, count: int,
                       scan_budget: int = 100000) -> OscillationWitness:
    """Witness that T(x) - d oscillates between ~(||x|| - L) and
    ~(-||x|| - L), where L is d's limit along the scheme.

    Witness positions are restricted to prefix entries where d is
    within the certified limit error, so the gap contract
    gap >= 2 ||x|| (1 - epsilon) - 2 err(L) holds by construction.
    """
    x, nx = _witness_input(space, x, epsilon, count, "separation")

    L, errL, keep = 0.0, 0.0, None
    if d.bound != 0.0:
        j_window = scheme.length if scheme.length is not None else 256
        est = limit_along(d, scheme, j_window)
        L, errL = est.L, est.err

        def keep(n_plus: int, n_minus: int) -> bool:
            return (abs(coordinate(d, n_plus) - L) <= errL
                    and abs(coordinate(d, n_minus) - L) <= errL)

    target_hi = nx * (1.0 - epsilon) - L - errL
    target_lo = -nx * (1.0 - epsilon) - L + errL

    diff = combine((1.0, -1.0), (scheme_embed(space, scheme, x), d))
    k_cap = scheme.max_k()
    k_limit = scan_budget if k_cap is None else min(scan_budget, k_cap)
    return _scan_witness(space, x, diff, epsilon, count, k_limit,
                         lambda k: (scheme.plus_index(k), scheme.minus_index(k)),
                         target_hi, target_lo, keep,
                         f"separation pairs (scanned k <= {k_limit})")
