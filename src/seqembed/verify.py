"""Certificate verification: convergence verdicts and end-to-end suites.

Membership in the convergent sequences is undecidable from finitely
many coordinates of an opaque oracle, so classification is
three-valued: InC only when the structural tag certifies convergence,
NotInC only with a sound re-verifiable oscillation witness, Unknown
otherwise. Numeric "looks convergent" never yields InC.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .embed import OscillationWitness, isometry_defect, reverify_witness
from .errors import BudgetExhausted, KindMismatch, ZeroElement
from .extend import SubspaceD, IndexScheme, separation_witness
from .seqcore import BoundedSeq, cluster_estimates, structural_limit
from .spaces import FiniteDimLp, SeparableSpace


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
    clusters_seen: int


def classify_c(s: BoundedSeq, budget: int, gap_floor: float):
    """Three-valued convergence verdict for a bounded sequence.

    Structural InC for convergence-tagged sequences; otherwise cluster
    analysis over 1..budget: if two cells with at least 5 members each
    are separated by at least gap_floor, a witness is assembled from
    the values `cluster_estimates` bucketed (one read of the window,
    through the block when `s` has one) and NotInC returned only if
    `reverify_witness` accepts it against the oracle, so the block is
    cross-checked too; Unknown is the fallback, never an error.
    """
    if budget < 2:
        raise ValueError(f"budget = {budget} must be >= 2")
    if gap_floor <= 0:
        raise ValueError(f"gap_floor = {gap_floor} must be positive")

    structural = structural_limit(s, budget)
    if structural is not None:
        limit, variation, _ = structural
        return InC(limit=limit, tail_variation=variation)

    # quarter-width cells leave slack between the certified cluster
    # separation and the gap floor; half-width makes them equal up to
    # rounding and verdicts flip on float noise
    estimates = cluster_estimates(s, range(1, budget + 1), gap_floor / 4.0)
    populated = [e for e in estimates if len(e.indices) >= 5]
    if len(populated) >= 2:
        lo_cluster = min(populated, key=lambda e: e.value)
        hi_cluster = max(populated, key=lambda e: e.value)
        separation = (hi_cluster.value - hi_cluster.spread) - \
                     (lo_cluster.value + lo_cluster.spread)
        if separation >= gap_floor:
            witness = _witness_from_clusters(hi_cluster, lo_cluster)
            if witness.gap >= gap_floor and reverify_witness(s, witness):
                return NotInC(witness=witness)
    return Unknown(budget_used=budget, clusters_seen=len(estimates))


def _witness_from_clusters(hi_cluster, lo_cluster) -> OscillationWitness:
    m = min(len(hi_cluster.indices), len(lo_cluster.indices))
    plus_idx = hi_cluster.indices[:m]
    minus_idx = lo_cluster.indices[:m]
    plus_vals = hi_cluster.values[:m]
    minus_vals = lo_cluster.values[:m]
    return OscillationWitness(
        plus_indices=plus_idx, minus_indices=minus_idx,
        plus_values=plus_vals, minus_values=minus_vals,
        gap=min(plus_vals) - max(minus_vals),
        epsilon=hi_cluster.spread + lo_cluster.spread,
        target_hi=min(plus_vals), target_lo=max(minus_vals))


def verdict_to_json(verdict) -> dict:
    if isinstance(verdict, InC):
        return {"kind": "InC", "limit": verdict.limit,
                "tail_variation": verdict.tail_variation}
    if isinstance(verdict, NotInC):
        w = verdict.witness
        return {"kind": "NotInC", "gap": w.gap,
                "plus_indices": list(w.plus_indices),
                "minus_indices": list(w.minus_indices)}
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
        rel = (rec.upper - rec.achieved) / rec.upper if rec.upper > 0 else 0.0
        max_rel = max(max_rel, rel)
        per_sample.append({"x_id": sid, "lower": rec.lower,
                           "achieved": rec.achieved, "upper": rec.upper,
                           "pass": ok})
    return {"per_sample": per_sample, "errors": errors,
            "max_relative_defect": max_rel}


def check_separation(space: SeparableSpace, D: SubspaceD,
                     scheme: IndexScheme, samples, d_samples,
                     epsilon: float, count: int,
                     scan_budget: int = 100000) -> dict:
    """A separation witness per (x, d) pair, d ranging over the given
    coefficient combinations (d = 0 always included)."""
    d_samples = list(d_samples)
    if not any(all(c == 0.0 for c in coeffs) for coeffs in d_samples):
        d_samples = [[0.0] * D.size] + d_samples
    witnesses = []
    errors = []
    exhausted = []
    for sid, x in enumerate(samples):
        for did, coeffs in enumerate(d_samples):
            d = D.combination(coeffs)
            try:
                w = separation_witness(space, scheme, x, d, epsilon, count,
                                       scan_budget=scan_budget)
            except BudgetExhausted as exc:
                exhausted.append({"x_id": sid, "d_id": did,
                                  "found": exc.found, "detail": str(exc)})
                continue
            except ZeroElement as exc:
                errors.append({"x_id": sid, "d_id": did,
                               "error": f"ZeroElement: {exc}"})
                continue
            witnesses.append({"x_id": sid, "d_id": did, "gap": w.gap,
                              "plus_indices": list(w.plus_indices),
                              "minus_indices": list(w.minus_indices)})
    return {"witnesses": witnesses, "errors": errors,
            "budget_exhausted": exhausted}


# ---------------------------------------------------------------------------
# independent oracle

def brute_force_sup(space: FiniteDimLp, x, level: int) -> float:
    """max |phi(x)| over functionals dual to all grid directions
    through `level`, enumerated and normed independently of the
    space's net cache. Cross-checks both the norm and achieved defects.
    """
    if getattr(space, "kind", None) != FiniteDimLp.kind:   # not a CustomNet
        raise KindMismatch("brute_force_sup needs a finite-dimensional p-norm space")
    if level < 1:
        raise ValueError(f"level = {level} must be >= 1")
    x = space.canonical(x)
    p = space.p
    best = 0.0
    for t in range(1, level + 1):
        for w in itertools.product(range(-t, t + 1), repeat=space.dim):
            if not any(w):
                continue
            w = np.array(w, dtype=float)
            if math.isinf(p):
                nw = np.max(np.abs(w))
            else:
                nw = np.sum(np.abs(w) ** p) ** (1.0 / p)
            u = w / nw
            if math.isinf(p):
                i = int(np.argmax(np.abs(u) >= 1.0 - 1e-12))
                val = math.copysign(1.0, u[i]) * x[i]
            elif p == 1.0:
                val = float(np.dot(np.sign(u), x))
            else:
                val = float(np.dot(np.sign(u) * np.abs(u) ** (p - 1.0), x))
            best = max(best, abs(val))
    return best
