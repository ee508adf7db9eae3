"""Placing a space's norming functionals on the bounded sequences.

One core puts +phi_k(x) at eta+(k) and -phi_k(x) at eta-(k) of an
`IndexScheme` (defined here, built in `extend`), where phi_k norms the
k-th dense net point: that is `scheme_embed`. The plain embedding
`embed_t1` (+phi_k at 2k-1, -phi_k at 2k) is its exact negation under
the identity scheme, the D = {0} case; only images under the identity
scheme have a block path for windows. At finite truncation the
isometry is certified by a defect interval, and non-convergence by
witnesses from the one scan loop that `oscillation_witness` and
`extend.separation_witness` share.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BudgetExhausted, SchemeExhausted, ZeroElement, _finite
from .seqcore import BoundedSeq, coordinate, prefix_sup
from .spaces import SeparableSpace

#: block size for witness scans over the net enumeration
_SCAN_BLOCK = 4096


@dataclass(frozen=True)
class DefectRecord:
    lower: float
    upper: float
    achieved: float


@dataclass(frozen=True)
class OscillationWitness:
    """Two ε-separated coordinate clusters with a certified gap.

    The checkable surrogate for "this sequence has no limit": every
    plus value is >= target_hi, every minus value <= target_lo, and
    gap = min(plus_values) - max(minus_values) > 0.
    """
    plus_indices: tuple
    minus_indices: tuple
    plus_values: tuple
    minus_values: tuple
    gap: float
    epsilon: float
    target_hi: float
    target_lo: float


# ---------------------------------------------------------------------------
# index schemes

@dataclass(frozen=True)
class IndexScheme:
    """Materialized prefix of an extracted subsequence (n_j).

    The split is positional: I- holds the odd-position entries
    n_1, n_3, ..., I+ the even-position ones, and the bijections are
    the order-preserving enumerations of each half. `coverage` is the
    scan range within which membership is fully decided; classifying
    past it raises SchemeExhausted. mode "identity" is the degenerate
    D = {0} scheme over all indices (evens = I+, odds = I-).
    """
    mode: str
    prefix: tuple
    alpha: tuple
    tol_schedule: tuple
    coverage: Optional[int]

    def __post_init__(self):
        pos = {n: j + 1 for j, n in enumerate(self.prefix)}
        object.__setattr__(self, "_pos", pos)

    # -- geometry ------------------------------------------------------------
    @property
    def length(self) -> Optional[int]:
        return None if self.mode == "identity" else len(self.prefix)

    def index_at(self, j: int) -> int:
        """n_j (1-based)."""
        if self.mode == "identity":
            return j
        if j > len(self.prefix):
            raise SchemeExhausted(j, len(self.prefix))
        return self.prefix[j - 1]

    def max_k(self) -> Optional[int]:
        """Largest k for which both eta+(k) and eta-(k) are materialized."""
        return None if self.mode == "identity" else len(self.prefix) // 2

    def plus_index(self, k: int) -> int:
        """eta+(k): the k-th element of I+."""
        return self.index_at(2 * k)

    def minus_index(self, k: int) -> int:
        """eta-(k): the k-th element of I-."""
        return self.index_at(2 * k - 1)

    def classify(self, n: int):
        """(sign, k): +1 if n = eta+(k), -1 if n = eta-(k), 0 if n off I."""
        j = n if self.mode == "identity" else self._pos.get(n)
        if j is not None:
            return (1.0, j // 2) if j % 2 == 0 else (-1.0, (j + 1) // 2)
        if self.coverage is not None and n <= self.coverage:
            return (0.0, 0)
        raise SchemeExhausted(n, self.coverage)

    # -- serialization ---------------------------------------------------
    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "prefix": list(self.prefix),
            "alpha": list(self.alpha),
            "tol_schedule": list(self.tol_schedule),
            "scan_budget_used": self.coverage,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "IndexScheme":
        return cls(mode=obj["mode"],
                   prefix=tuple(int(n) for n in obj["prefix"]),
                   alpha=tuple(float(a) for a in obj["alpha"]),
                   tol_schedule=tuple(float(t) for t in obj["tol_schedule"]),
                   coverage=obj["scan_budget_used"])


def identity_scheme() -> IndexScheme:
    """The D = {0} degeneracy: I = all indices, evens/odds split."""
    return IndexScheme("identity", (), (), (), None)


# ---------------------------------------------------------------------------
# functional placement

def _element(space: SeparableSpace, x, nonzero_for: Optional[str] = None):
    """(canonical x, ||x||). A norm that is not finite is a ConfigError,
    and a zero one a ZeroElement when `nonzero_for` names the use."""
    x = space.canonical(x)
    nx = space.norm(x)
    _finite((nx,), f"{space.kind} element norm")
    if nx == 0.0 and nonzero_for:
        raise ZeroElement(f"{nonzero_for} needs a nonzero element")
    return x, nx


def _placement(space: SeparableSpace, scheme: IndexScheme, x,
               sign: float) -> BoundedSeq:
    """sign * phi_k(x) at eta+(k), -sign * phi_k(x) at eta-(k), 0 off I.

    Negation is exact in floating point, so sign = -1.0 gives the
    bit-exact negation of the sign = +1.0 placement. Only images under
    the identity scheme (T(x) and the D = {0} placement) have a block;
    windows of the others are read through the oracle.
    """
    x, bound = _element(space, x)

    def oracle(n: int) -> float:
        s, k = scheme.classify(n)
        if s == 0.0:
            return 0.0
        val = space.apply_functional(space.norming_functional(k), x)
        return val if s == sign else -val

    if scheme.mode != "identity":
        return BoundedSeq(oracle, bound)

    def block(lo: int, hi: int) -> np.ndarray:
        k_hi = (hi + 1) // 2
        vals = space.functional_values(x, k_hi)
        out = np.empty(2 * k_hi)
        out[0::2] = -sign * vals
        out[1::2] = sign * vals
        return out[lo - 1:hi]

    return BoundedSeq(oracle, bound, block=block)


def embed_t1(space: SeparableSpace, x) -> BoundedSeq:
    """T(x) = (psi_n(x)) with psi_{2k-1} = phi_k, psi_{2k} = -phi_k."""
    return _placement(space, identity_scheme(), x, -1.0)


def scheme_embed(space: SeparableSpace, scheme: IndexScheme, x) -> BoundedSeq:
    """T(x) with +phi_k at eta+(k), -phi_k at eta-(k), 0 off I."""
    return _placement(space, scheme, x, 1.0)


# ---------------------------------------------------------------------------
# certificates

def isometry_defect(space: SeparableSpace, x, K: int) -> DefectRecord:
    """Certified interval for the truncated sup norm of the image.

    achieved = prefix sup through coordinate 2K, upper = ||x||, and
    lower = ||x|| (1 - d_K(x/||x||)) from the net-density argument.
    """
    x, nx = _element(space, x, "isometry defect")
    achieved = prefix_sup(embed_t1(space, x), 2 * K)
    lower = nx * (1.0 - space.net_distance(space.unit(x), K))
    return DefectRecord(lower=lower, upper=nx, achieved=achieved)


def reverify_witness(s: BoundedSeq, w: OscillationWitness) -> bool:
    """Re-check a witness directly against the coordinate oracle.

    Stored values must match re-evaluation bit-identically; index lists
    must be nonempty and strictly increase; the gap must be consistent
    and positive.
    """
    if not (0 < len(w.plus_indices) == len(w.minus_indices)
            == len(w.plus_values) == len(w.minus_values)):
        return False
    for idxs in (w.plus_indices, w.minus_indices):
        if any(a >= b for a, b in zip(idxs, idxs[1:])):
            return False
    for n, v in zip(w.plus_indices + w.minus_indices,
                    w.plus_values + w.minus_values):
        if coordinate(s, n) != v:
            return False
    if any(v < w.target_hi for v in w.plus_values):
        return False
    if any(v > w.target_lo for v in w.minus_values):
        return False
    gap = min(w.plus_values) - max(w.minus_values)
    return gap == w.gap and gap > 0.0


def _witness_input(space: SeparableSpace, x, epsilon: float, count: int,
                   kind: str):
    """(canonical x, ||x||) once the arguments every witness scan
    shares are checked."""
    x, nx = _element(space, x, f"{kind} witness")
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon = {epsilon} must be in (0, 1)")
    if count < 1:
        raise ValueError(f"count = {count} must be >= 1")
    return x, nx


def _scan_witness(space: SeparableSpace, x, image: BoundedSeq,
                  epsilon: float, count: int, k_limit: int, pair_at,
                  target_hi: float, target_lo: float, keep,
                  shortfall: str) -> OscillationWitness:
    """Scan net points k = 1..k_limit in order for those within
    `epsilon` of x/||x||. Hit k offers the pair pair_at(k) = (n_plus,
    n_minus), taken when `keep` (if given) admits it and the image
    values clear the targets. Short of `count` pairs, raises
    BudgetExhausted("found i of count <shortfall>") with the partial."""
    v = space.unit(x)
    hits = []
    k = 0
    while k < k_limit and len(hits) < count:
        hi = min(k + _SCAN_BLOCK, k_limit)
        dists = space.distance_profile(v, hi, k)
        for off in np.nonzero(dists <= epsilon)[0]:
            n_plus, n_minus = pair_at(k + int(off) + 1)
            if keep is not None and not keep(n_plus, n_minus):
                continue
            plus = coordinate(image, n_plus)
            minus = coordinate(image, n_minus)
            # rounding may push a boundary hit a hair past the target;
            # skip it rather than weaken the certificate
            if plus >= target_hi and minus <= target_lo:
                hits.append((n_plus, n_minus, plus, minus))
                if len(hits) == count:
                    break
        k = hi

    witness = OscillationWitness(
        plus_indices=tuple(h[0] for h in hits),
        minus_indices=tuple(h[1] for h in hits),
        plus_values=tuple(h[2] for h in hits),
        minus_values=tuple(h[3] for h in hits),
        gap=(min(h[2] for h in hits) - max(h[3] for h in hits)) if hits else 0.0,
        epsilon=epsilon,
        target_hi=target_hi,
        target_lo=target_lo,
    )
    if len(hits) < count:
        raise BudgetExhausted(f"found {len(hits)} of {count} {shortfall}",
                              partial=witness, found=len(hits))
    return witness


def oscillation_witness(space: SeparableSpace, x, epsilon: float,
                        count: int, scan_budget: int = 100000) -> OscillationWitness:
    """Witness that the embedded image oscillates between +-||x||.

    Scans the net in enumeration order for points within `epsilon` of
    x/||x||; each hit k contributes coordinate 2k-1 (value >= target_hi
    = ||x|| (1 - epsilon)) and coordinate 2k (value <= -target_hi).
    Raises BudgetExhausted carrying the partial witness if fewer than
    `count` hits are found within the scan budget.
    """
    x, nx = _witness_input(space, x, epsilon, count, "oscillation")
    target = nx * (1.0 - epsilon)
    return _scan_witness(space, x, embed_t1(space, x), epsilon, count,
                         scan_budget, lambda k: (2 * k - 1, 2 * k),
                         target, -target, None,
                         f"witness pairs within budget {scan_budget}")
