"""Certificate verification: convergence verdicts and end-to-end suites.

Membership in the convergent sequences is undecidable from finitely
many coordinates of an opaque oracle, so classification is
three-valued: InC only when the structural tag certifies convergence,
NotInC only with a sound re-verifiable oscillation witness, Unknown
otherwise. Numeric "looks convergent" never yields InC.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .embed import (WITNESS_BUDGET, OscillationWitness, _reread_holds, _witness,
                    isometry_defect)
from .errors import BudgetExhausted, ZeroElement
from .extend import SubspaceD, IndexScheme, _limit, _separation_scans
from .seqcore import BoundedSeq, cluster_estimates, structural_limit
from .spaces import SeparableSpace


# ---------------------------------------------------------------------------
# verdicts

@dataclass(frozen=True)
class InC:
    limit: float
    tail_variation: float


@dataclass(frozen=True)
class NotInC:
    witness: OscillationWitness


@dataclass(frozen=True)
class Unknown:
    budget_used: int
    clusters_seen: int      # the window's nonempty cells, as cluster_estimates counts them


def classify_c(s: BoundedSeq, budget: int, gap_floor: float):
    """Three-valued convergence verdict for a bounded sequence.

    Structural InC for convergence-tagged sequences; otherwise cluster
    analysis over 1..budget, from `cluster_estimates`' one read of the
    window (through the block when `s` has one) in gap_floor / 4 cells:
    if its two end cells with at least 5 members each are separated by
    at least gap_floor, a witness pairs their first m members, and
    NotInC is returned only if `reverify_witness`'s core `_reread_holds`
    accepts it from the arrays it was built from. That re-reads the
    witness indices through `s.at` (the scalar oracle when `s` has
    none), never the block, so the block is cross-checked by a second
    evaluation (see `BoundedSeq`); Unknown, with the count of
    nonempty cells, is the fallback. A budget below 2, a gap floor whose
    quarter is not above 0, a window past 2^63 (`cluster_estimates`
    refuses it) and a window value that is not finite
    (`BoundedSeq.coordinates` refuses it) are ValueErrors.
    """
    if budget < 2:
        raise ValueError(f"budget = {budget} must be >= 2")
    # quarter-width cells leave slack between the certified cluster
    # separation and the gap floor; half-width makes them equal up to
    # rounding and verdicts flip on float noise
    width = gap_floor / 4.0
    if not width > 0:
        raise ValueError(f"gap_floor = {gap_floor} must be positive, and so must its quarter")

    structural = structural_limit(s, budget)
    if structural is not None:
        return InC(*structural)

    ends, seen = cluster_estimates(s, range(1, budget + 1), width, 5)
    if len(ends) == 2:
        lo, hi = ends
        separation = (hi.value - hi.spread) - (lo.value + lo.spread)
        if separation >= gap_floor:
            m = min(len(hi.indices), len(lo.indices))
            ns = np.concatenate((hi.indices[:m], lo.indices[:m]))
            stored = np.concatenate((hi.values[:m], lo.values[:m]))
            # Python ints and floats, as reverify_witness requires
            idxs, vals = ns.tolist(), stored.tolist()
            witness = _witness(idxs[:m], idxs[m:], vals[:m], vals[m:], hi.spread + lo.spread,
                               float(stored[:m].min()), float(stored[m:].max()))
            if witness.gap >= gap_floor and _reread_holds(s, witness, ns, stored):
                return NotInC(witness=witness)
    return Unknown(budget_used=budget, clusters_seen=seen)


def _witness_json(w: OscillationWitness) -> dict:
    """A witness as reports print it: its gap and its index lists."""
    return {"gap": w.gap, "plus_indices": list(w.plus_indices),
            "minus_indices": list(w.minus_indices)}


def verdict_to_json(verdict) -> dict:
    if isinstance(verdict, InC):
        return {"kind": "InC", "limit": verdict.limit,
                "tail_variation": verdict.tail_variation}
    if isinstance(verdict, NotInC):
        return {"kind": "NotInC", **_witness_json(verdict.witness)}
    return {"kind": "Unknown", "budget_used": verdict.budget_used,
            "clusters_seen": verdict.clusters_seen}


# ---------------------------------------------------------------------------
# suites

def check_isometry(space: SeparableSpace, samples, K: int) -> dict:
    """Per-sample defect intervals and the interval-contract verdicts."""
    per_sample = []
    errors = []
    max_rel = 0.0
    for sid, x in enumerate(samples):
        try:
            rec = isometry_defect(space, x, K)
        except ZeroElement as exc:
            errors.append({"x_id": sid, "error": f"ZeroElement: {exc}"})
            continue
        ok = rec.lower - 1e-9 <= rec.achieved <= rec.upper + 1e-9
        rel = (rec.upper - rec.achieved) / rec.upper
        max_rel = max(max_rel, rel)
        per_sample.append({"x_id": sid, "lower": rec.lower,
                           "achieved": rec.achieved, "upper": rec.upper,
                           "pass": ok})
    return {"per_sample": per_sample, "errors": errors,
            "max_relative_defect": max_rel}


def check_separation(space: SeparableSpace, D: SubspaceD,
                     scheme: IndexScheme, samples, d_samples,
                     epsilon: float, count: int,
                     scan_budget: int = WITNESS_BUDGET) -> dict:
    """A separation witness per (x, d) pair, d ranging over the given
    coefficient combinations (d = 0 always included, as row 0 when no
    row is all zeros): the table that `separation_witness` gives pair
    by pair, built with less reading. Each sample x has one hit stream
    that every d row scans a copy of, so the distance profile of x is
    read once, as far as the hungriest row needs; each nonzero d row's
    (L, err(L)) is read once, when a row of it first runs, and reused
    for every later sample."""
    d_samples = list(d_samples)
    if not any(all(c == 0.0 for c in coeffs) for coeffs in d_samples):
        d_samples = [[0.0] * D.size] + d_samples
    rows = [(d, functools.cache(functools.partial(_limit, scheme, d)))
            for d in map(D.combination, d_samples)]
    return _witness_table(samples, len(rows),
                          lambda x: _separation_scans(space, scheme, x, epsilon, count,
                                                      scan_budget, rows))


def _witness_table(samples, n_rows: int, scans) -> dict:
    """The witness stage of every report: per sample x, scans(x) gives
    one no-argument scan per d row, building once what depends on x
    alone (such as its hit stream), and the scans run in d-row order,
    each outcome a row keyed by x_id and d_id. A witness is a row of
    "witnesses", an exhausted scan one of "budget_exhausted" (found,
    detail). A zero x is refused with a ZeroElement, by scans(x) or by
    a row's scan, and that row and every later one of x are rows of
    "errors" ("ZeroElement: <message>")."""
    table = {"witnesses": [], "errors": [], "budget_exhausted": []}
    for sid, x in enumerate(samples):
        did = 0
        try:
            for did, scan in enumerate(scans(x)):
                key = {"x_id": sid, "d_id": did}
                try:
                    w = scan()
                except BudgetExhausted as exc:
                    table["budget_exhausted"].append(
                        {**key, "found": exc.found, "detail": str(exc)})
                else:
                    table["witnesses"].append({**key, **_witness_json(w)})
        except ZeroElement as exc:
            table["errors"].extend({"x_id": sid, "d_id": i, "error": f"ZeroElement: {exc}"}
                                   for i in range(did, n_rows))
    return table
