"""Placing a space's norming functionals on the bounded sequences.

One core puts +phi_k(x) at eta+(k) and -phi_k(x) at eta-(k) of an
`IndexScheme` (defined here, built in `extend`), where phi_k norms the
k-th dense net point: that is `scheme_embed`. The plain embedding
`embed_t1` (+phi_k at 2k-1, -phi_k at 2k) is its exact negation under
the identity scheme, the D = {0} case. Every image has the scalar
oracle, which the witness scans read; an extracted scheme's images have
only it. Identity-scheme images add the window read `block` (read by
`verify.classify_c`'s cluster scan) and the by-index read `at` (read by
`_reread_holds`, the one witness re-read of `reverify_witness` and of
`classify_c`). At finite truncation the isometry is certified by
a defect interval, and non-convergence by witnesses from the one scan
loop, `_scan_witness`, that `oscillation_witness` and
`extend.separation_witness` share. A scan consumes a stream of net hits
from `_hits`, the one walk of the distance profile. A separation table
(`verify.check_separation`) walks it once per sample, every d row
scanning a copy, and reads each d row's limit once for all samples.
"""
from __future__ import annotations

import bisect
import reprlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (BudgetExhausted, ConfigError, IndexZero, SchemeExhausted,
                     ZeroElement, _numbers, _positive_int)
from .seqcore import BoundedSeq, coordinate, coordinates_at, prefix_sup
from .spaces import SCAN_BLOCK, SeparableSpace

#: default scan budget of the witness searches, and of the CLI's witness_budget
WITNESS_BUDGET = 100000


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


def _witness(plus_idx, minus_idx, plus_vals, minus_vals, epsilon: float,
             target_hi: float, target_lo: float) -> OscillationWitness:
    """The one place an OscillationWitness is built, by the witness
    scans and by `verify.classify_c`: the lists become tuples and
    gap = min(plus_vals) - max(minus_vals), or 0.0 for a partial
    witness without pairs."""
    plus_vals, minus_vals = tuple(plus_vals), tuple(minus_vals)
    return OscillationWitness(
        plus_indices=tuple(plus_idx), minus_indices=tuple(minus_idx),
        plus_values=plus_vals, minus_values=minus_vals,
        gap=min(plus_vals) - max(minus_vals) if plus_vals else 0.0,
        epsilon=epsilon, target_hi=target_hi, target_lo=target_lo)


# ---------------------------------------------------------------------------
# index schemes

def _index_list(ns) -> Optional[np.ndarray]:
    """`ns` as an int64 array if it is a 1-D int64 array, or a sequence
    of Python ints (not bools) below 2^63, that starts at 1 or more and
    strictly increases; else None. The one rule of a scheme's prefix
    and of a witness's index lists."""
    if not isinstance(ns, np.ndarray):
        if not set(map(type, ns)) <= {int}:
            return None
        try:
            ns = np.fromiter(ns, np.int64, len(ns))
        except OverflowError:       # an int from 2^63 on, or below -2^63
            return None
    if ns.dtype == np.int64 and ns.ndim == 1 and (
            not len(ns) or (ns[0] >= 1 and (ns[1:] > ns[:-1]).all())):
        return ns
    return None


@dataclass(frozen=True)
class IndexScheme:
    """Materialized prefix of an extracted subsequence (n_j).

    The split is positional: I- holds the odd-position entries
    n_1, n_3, ..., I+ the even-position ones, and the bijections are
    the order-preserving enumerations of each half. `coverage` is the
    scan range within which membership is fully decided; classifying
    past it raises SchemeExhausted. mode "identity" is the degenerate
    D = {0} scheme over all indices (evens = I+, odds = I-), with no
    prefix, alpha, tolerances or coverage; mode "finite" or "diagonal"
    has an int coverage >= 1 and >= its last prefix entry. The prefix
    is a list of indices by `_index_list`'s rule, ints (not bools) from
    1 up to 2^63 - 1 in strictly increasing order, and alpha and
    tol_schedule hold finite numbers, or the scheme is a ConfigError.
    The prefix may also be given as a 1-D int64 array, as the
    extractions give it: it is stored as a tuple of ints, so no array
    is kept; an array of any other shape or dtype is a ConfigError.
    """
    mode: str
    prefix: tuple
    alpha: tuple
    tol_schedule: tuple
    coverage: Optional[int]

    def __post_init__(self):
        p, cov = self.prefix, self.coverage
        if isinstance(p, np.ndarray) or p:  # the identity scheme's () builds no array
            ns = _index_list(p)
            if ns is None:
                raise ConfigError(f"scheme prefix {reprlib.repr(p)} is not a strictly increasing "
                                  f"list of ints or 1-D int64 array from 1 up to 2^63 - 1")
            if isinstance(p, np.ndarray):
                p = tuple(ns.tolist())
                object.__setattr__(self, "prefix", p)
        if self.mode == "identity":
            if p or self.alpha or self.tol_schedule or cov is not None:
                raise ConfigError("the identity scheme has no prefix, alpha, "
                                  "tolerances or coverage")
        elif not (self.mode in ("finite", "diagonal") and type(cov) is int
                  and (p[-1] if p else 1) <= cov):
            raise ConfigError(f"a scheme of mode {reprlib.repr(self.mode)} and coverage "
                              f"{reprlib.repr(cov)} is not finite or diagonal with an int "
                              f"coverage >= 1 and >= its last prefix entry")
        _numbers((*self.alpha, *self.tol_schedule), "scheme alpha or tolerance schedule")

    # -- geometry ------------------------------------------------------------
    @property
    def length(self) -> Optional[int]:
        return None if self.mode == "identity" else len(self.prefix)

    def index_at(self, j: int) -> int:
        """n_j (1-based); j < 1 is IndexZero on either mode."""
        if j < 1:
            raise IndexZero(f"scheme position {j} < 1")
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
        """(sign, k): +1 if n = eta+(k), -1 if n = eta-(k), 0 if n off I
        within coverage; n < 1 is IndexZero and n off I past coverage
        SchemeExhausted."""
        if n < 1:
            raise IndexZero(f"index {n} < 1")
        j = n
        if self.mode != "identity":
            i = bisect.bisect_left(self.prefix, n)
            j = i + 1 if i < len(self.prefix) and self.prefix[i] == n else None
        if j is not None:
            # j // 2 + 1, not (j + 1) // 2, which wraps at an int64 j = 2^63 - 1
            return (1.0, j // 2) if j % 2 == 0 else (-1.0, j // 2 + 1)
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
        """The scheme `to_json` wrote, its lists turned into tuples and
        nothing converted: a missing key, a non-list prefix, alpha or
        tol_schedule, or fields `IndexScheme` rejects are a ConfigError."""
        keys = ("mode", "prefix", "alpha", "tol_schedule", "scan_budget_used")
        if not (isinstance(obj, dict) and obj.keys() >= set(keys)
                and all(isinstance(obj[k], list) for k in keys[1:4])):
            raise ConfigError(f"scheme {reprlib.repr(obj)} lacks a key of {keys} or has "
                              f"a prefix, alpha or tol_schedule that is not a list")
        return cls(obj["mode"], *(tuple(obj[k]) for k in keys[1:4]), obj["scan_budget_used"])


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
    _numbers((nx,), f"{space.kind} element norm")
    if nx == 0.0 and nonzero_for:
        raise ZeroElement(f"{nonzero_for} needs a nonzero element")
    return x, nx


def _placement(space: SeparableSpace, scheme: IndexScheme, x,
               sign: float) -> BoundedSeq:
    """sign * phi_k(x) at eta+(k), -sign * phi_k(x) at eta-(k), 0 off I.

    Negation is exact in floating point, so sign = -1.0 gives the
    bit-exact negation of the sign = +1.0 placement. The oracle reads
    phi_k(x) through the space's per-index path `functional_oracle`,
    set up once for the canonical x; it builds no object per call.
    Each image's oracle keeps one slot, the last (k, phi_k(x)) it read,
    so the two members of a pair read in turn cost one phi_k(x); phi_k
    is pure, so a read from the slot has a fresh read's bits. Images
    under an extracted scheme have the oracle alone, which finds (sign,
    k) by `IndexScheme.classify`. Under the identity scheme (T(x) and
    the D = {0} placement) the oracle takes them from n itself, as
    `classify` gives them there: k = ceil(n / 2), computed so that it
    does not wrap at an int64 n = 2^63 - 1, and sign +1 for even n, -1
    for odd n; n < 1 is IndexZero. These images also have a block,
    which interleaves `functional_values` over the k of its window
    alone (`classify_c`'s window read), and `at` (the witness re-read
    of `_reread_holds`), which gathers the values k = ceil(n / 2) from one
    `functional_values` read of each SCAN_BLOCK-aligned block of k
    that holds any, from the group's smallest k to its largest, so a
    deep k (past the net cache, built from its rank) costs the rows
    its group spans, at most SCAN_BLOCK, and no prefix up to it. All
    three give the same bits.
    """
    x, bound = _element(space, x)
    phi = space.functional_oracle(x)
    classify = scheme.classify
    last_k, last_val = 0, 0.0       # the last (k, phi_k(x)) read; k = 0 is none

    def oracle(n: int) -> float:
        nonlocal last_k, last_val
        s, k = classify(n)
        if s == 0.0:
            return 0.0
        if k != last_k:
            last_val, last_k = phi(k), k
        return last_val if s == sign else -last_val

    if scheme.mode != "identity":
        return BoundedSeq(oracle, bound)
    keep = 0 if sign == 1.0 else 1  # the parity of the n that carry sign * phi_k(x)

    def by_parity(n: int) -> float:
        """`oracle` under the identity scheme, which puts k = ceil(n / 2)
        at n with sign +1 for even n and -1 for odd n."""
        nonlocal last_k, last_val
        if n < 1:
            raise IndexZero(f"index {n} < 1")
        r = n % 2
        k = n // 2 + r              # (n + 1) // 2 would wrap at 2^63 - 1
        if k != last_k:
            last_val, last_k = phi(k), k
        return last_val if r == keep else -last_val

    def block(lo: int, hi: int) -> np.ndarray:
        k_lo = (lo + 1) // 2        # out[0] is coordinate 2 k_lo - 1
        vals = space.functional_values(x, (hi + 1) // 2, k_lo - 1)
        out = np.empty(2 * len(vals))
        out[0::2] = -sign * vals
        out[1::2] = sign * vals
        return out[lo - 2 * k_lo + 1:hi - 2 * k_lo + 2]

    def in_group(ks: np.ndarray) -> np.ndarray:
        """phi_k(x) for ks, read from their smallest k to their largest."""
        lo = int(ks.min()) - 1
        return space.functional_values(x, int(ks.max()), lo)[ks - (lo + 1)]

    def at(ns: np.ndarray) -> np.ndarray:
        if not len(ns):
            return np.zeros(0)
        # (ns + 1) // 2 would wrap at 2^63 - 1
        ks = ns // 2 + ns % 2
        blocks = (ks - 1) // SCAN_BLOCK
        if blocks.min() == blocks.max():
            vals = in_group(ks)
        else:   # block by block, the last first, so the net cache grows once
            vals = np.empty(len(ks))
            for b in np.unique(blocks)[::-1].tolist():
                sel = blocks == b
                vals[sel] = in_group(ks[sel])
        return np.where(ns % 2 == 0, sign * vals, -sign * vals)

    return BoundedSeq(by_parity, bound, block=block, at=at)


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


def _reread_holds(s: BoundedSeq, w: OscillationWitness, ns: np.ndarray,
                  stored: np.ndarray) -> bool:
    """`reverify_witness`'s re-read on arrays, run by `verify.classify_c`
    too: `ns` holds w's plus then minus indices (int64), `stored` their
    values (float64). Each half keeps `_index_list`'s rule, one
    `coordinates_at` read equals `stored` under `!=`,
    the targets are cleared, and the gap is w.gap and positive."""
    n = len(ns) // 2
    if _index_list(ns[:n]) is None or _index_list(ns[n:]) is None:
        return False
    try:
        reread = coordinates_at(s, ns)
    except SchemeExhausted:
        return False
    if (reread != stored).any():
        return False
    # the re-read floats equal the stored values, so none is NaN
    low_plus, high_minus = float(reread[:n].min()), float(reread[n:].max())
    if not (low_plus >= w.target_hi and high_minus <= w.target_lo):
        return False
    gap = low_plus - high_minus
    return gap == w.gap and gap > 0.0


def reverify_witness(s: BoundedSeq, w: OscillationWitness) -> bool:
    """Re-check a witness by re-reading its indices in one call of
    `coordinates_at`: the by-index read `at` when `s` has one (T(x)
    does), the scalar oracle otherwise, never the block.

    The index and value fields may be any sequences of one nonzero
    length, read entry by entry. Before anything is read, indices must
    be Python ints (not bools, floats, strings or numpy ints) below
    2^63, as every index a scan or a scheme names is, and stored values
    Python floats or numpy float64s (not ints or strings); T(x) reads a
    deep index from its own block of rows, built from their rank, so a
    forged index costs about what a real one does. Then each index list
    must start at 1 or more and strictly increase, stored values equal
    the re-read ones under `!=` (a stored NaN never does, -0.0 equals
    0.0) and clear the targets (a NaN target never is), and the gap be
    consistent and positive; an index past an extracted scheme's
    coverage cannot be re-read. A witness that breaks any rule is
    False, never an error.
    """
    if not (0 < len(w.plus_indices) == len(w.minus_indices)
            == len(w.plus_values) == len(w.minus_values)):
        return False
    plus, minus = _index_list(tuple(w.plus_indices)), _index_list(tuple(w.minus_indices))
    vals = (*w.plus_values, *w.minus_values)
    if plus is None or minus is None or not set(map(type, vals)) <= {float, np.float64}:
        return False
    return _reread_holds(s, w, np.concatenate((plus, minus)),
                         np.fromiter(vals, np.float64, len(vals)))


def _witness_input(space: SeparableSpace, x, epsilon: float, count: int,
                   scan_budget: int, kind: str):
    """(canonical x, ||x||) once the arguments every witness scan
    shares are checked: a zero x is a ZeroElement, and an epsilon
    outside (0, 1), or a count or scan budget that is not an int >= 1
    (a numpy integer counts as its int), a ValueError."""
    x, nx = _element(space, x, f"{kind} witness")
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon = {epsilon} must be in (0, 1)")
    _positive_int(count, "count", 1)
    _positive_int(scan_budget, "scan_budget", 1)
    return x, nx


def _hits(space: SeparableSpace, x, epsilon: float, k_limit: int):
    """The net indices k = 1..k_limit whose point is within `epsilon`
    of x/||x||, in order: the one walk of the distance profile, read
    SCAN_BLOCK rows at a time and only as far as the iteration goes,
    so a scan that stops reads no further block and one that is never
    iterated reads nothing."""
    v = space.unit(x)
    for lo in range(0, k_limit, SCAN_BLOCK):
        dists = space.distance_profile(v, min(lo + SCAN_BLOCK, k_limit), lo)
        for off in np.nonzero(dists <= epsilon)[0]:
            yield lo + int(off) + 1


def _scan_witness(hits, image: BoundedSeq, epsilon: float, count: int, pair_at,
                  target_hi: float, target_lo: float,
                  shortfall: str) -> OscillationWitness:
    """Take witness pairs from the net hits k of `hits` (an iterator
    over `_hits`, or a copy of one shared by several scans) in order.
    Hit k offers the pair pair_at(k) = (n_plus, n_minus), taken when
    its image values clear the targets, so every witness has gap >=
    target_hi - target_lo; the scan pulls no hit past the count-th
    pair taken. An empty band (target_hi <= target_lo, or a NaN target)
    pulls no hit and raises BudgetExhausted with found = 0 and a
    message naming both targets; short of `count` pairs when the hits
    run out, it raises BudgetExhausted("found i of count <shortfall>").
    Either carries the partial witness."""
    if not target_hi > target_lo:
        raise BudgetExhausted(f"target_hi = {target_hi!r} is not above target_lo = "
                              f"{target_lo!r}: the target band is empty",
                              partial=_witness((), (), (), (), epsilon, target_hi, target_lo),
                              found=0)
    taken = []
    for k in hits:
        n_plus, n_minus = pair_at(k)
        plus = coordinate(image, n_plus)
        minus = coordinate(image, n_minus)
        # rounding may push a boundary hit a hair past the target;
        # skip it rather than weaken the certificate
        if plus >= target_hi and minus <= target_lo:
            taken.append((n_plus, n_minus, plus, minus))
            if len(taken) == count:
                break

    columns = tuple(zip(*taken)) or ((), (), (), ())
    witness = _witness(*columns, epsilon, target_hi, target_lo)
    if len(taken) < count:
        raise BudgetExhausted(f"found {len(taken)} of {count} {shortfall}",
                              partial=witness, found=len(taken))
    return witness


def oscillation_witness(space: SeparableSpace, x, epsilon: float,
                        count: int, scan_budget: int = WITNESS_BUDGET) -> OscillationWitness:
    """Witness that the embedded image oscillates between +-||x||.

    Scans the net in enumeration order for points within `epsilon` of
    x/||x||; each hit k contributes coordinate 2k-1 (value >= target_hi
    = ||x|| (1 - epsilon)) and coordinate 2k (value <= -target_hi).
    Raises BudgetExhausted carrying the partial witness if fewer than
    `count` hits are found within the scan budget.
    """
    x, nx = _witness_input(space, x, epsilon, count, scan_budget, "oscillation")
    target = nx * (1.0 - epsilon)
    return _scan_witness(_hits(space, x, epsilon, scan_budget), embed_t1(space, x),
                         epsilon, count, lambda k: (2 * k - 1, 2 * k), target, -target,
                         f"witness pairs within budget {scan_budget}")
