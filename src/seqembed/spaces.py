"""Computable separable Banach spaces.

Each space kind supplies a norm oracle, a deterministic enumeration of
unit vectors dense in the unit sphere, and an explicit duality map
producing a norming functional for every enumerated point. The
enumeration is one net cache in `SeparableSpace`: level t = 1, 2, ...
lists the nonzero rows of {-t..t}^width(t) lexicographically, any rank
range is normalized and dualized in one vectorized step per run of
equal-width levels, and asking for index K with n rows cached appends
rows up to min(max(K, n + min(n, SCAN_BLOCK)), NET_CACHE_ROWS) in
place, never to the end of a level it does not need; rows past
NET_CACHE_ROWS are built from their rank by each read and never kept
(see `SeparableSpace`). The duality rows of p = 1 and p = inf hold only
-1, 0 and +1 and are kept as int8, a byte an entry;
products with floats keep the bits of float64 rows (see
`_duality_rows`). Every kind's functional rows are coefficient rows
against its coordinates, c01's point masses too (x's values at the
nested dyadic points), so one row arithmetic reads them all.
Duplicate directions across levels are permitted; density is
unaffected.
"""
from __future__ import annotations

import functools
import itertools
import math
import reprlib
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, IndexZero, KindMismatch, NotUnitVector,
                     ZeroElement, _is_number, _numbers)

UNIT_TOL = 1e-9
#: rows per witness-scan block, the most rows one growth of a net cache
#: of at least that many rows adds beyond the index asked for, and the
#: most rows one build past NET_CACHE_ROWS makes
SCAN_BLOCK = 4096
#: the most rows a net cache holds; rows past it are built from their
#: rank whenever they are read (see `SeparableSpace._blocks`)
NET_CACHE_ROWS = 1 << 15
#: the most rows one read of `functional_oracle` turns into lists
ORACLE_RUN = 64
#: the rows from which `_pnorms` roots each distinct power sum once: the
#: sort that finds them costs more than a root per row below that
ROOTS_UNIQUE_FROM = 256
#: the rows from which `_columns` reduces a matrix a column at a time:
#: below that one numpy reduction costs less than a call per column
COLUMNS_FROM = 64


# ---------------------------------------------------------------------------
# functionals

@dataclass(frozen=True)
class Functional:
    """The norming functional of net point k: functional row k - 1 of
    the net without its trailing zeros, which only pad it to the widest
    level cached (or built with it): the coefficients of coordinates 1,
    2, ... of every kind (for c01, x's values at the nested dyadic
    points; see `ContinuousPL`). Its entries are floats, also where the
    row is int8 (p = 1 and p = inf)."""
    space_kind: str
    row: tuple


@dataclass(frozen=True)
class PLFunction:
    """Piecewise-linear function on [0, 1] given by breakpoints/values.
    A breakpoint or value that is not a finite number, unequal lengths,
    fewer than two breakpoints, or breakpoints that do not rise strictly
    from 0 to 1 are a ConfigError."""
    breaks: tuple
    values: tuple

    def __post_init__(self):
        _numbers((*self.breaks, *self.values), "PL function")
        if len(self.breaks) != len(self.values):
            raise ConfigError("breaks and values must have equal length")
        if len(self.breaks) < 2:
            raise ConfigError("a PL function needs at least two breakpoints")
        if self.breaks[0] != 0.0 or self.breaks[-1] != 1.0:
            raise ConfigError("breakpoints must start at 0 and end at 1")
        if any(a >= b for a, b in zip(self.breaks, self.breaks[1:])):
            raise ConfigError("breakpoints must strictly increase")


def pl_function(breaks, values) -> PLFunction:
    return PLFunction(tuple(float(b) for b in breaks),
                      tuple(float(v) for v in values))


def _duality_rows(U: np.ndarray, p: float) -> np.ndarray:
    """Norming functionals of the unit rows of U in a p-norm space.

    p in (1, inf): sign(u)|u|^(p-1); p = 1: sign(u); p = inf: signed
    coordinate functional at the first index of largest |u_i| (on a
    lattice row |u_i| = 1 there; a custom point may fall short of 1 by
    its unit tolerance, and its largest entry still norms it best).
    At p = 1 and p = inf every entry is -1, 0 or +1, so the rows are
    int8, a byte an entry: a product with a float, and a sum of them
    from 0.0, has the bits the float rows gave (np.sign makes -0.0 a
    +0.0, so no -0.0 is lost). At p = 2 that is U itself, bit for bit,
    unless U holds a -0.0 (which sign(u)|u| makes +0.0); lattice rows
    never do. Other p are float64.
    """
    if p == 2.0 and not np.signbit(U[U == 0.0]).any():
        return U
    if math.isinf(p):
        # np.argmax(|U|, axis=1) a column at a time: a strict > keeps
        # the first index of a tied largest entry
        A = np.abs(U)
        rows, idx, best = np.arange(len(U)), np.zeros(len(U), dtype=np.intp), A[:, 0]
        for j in range(1, U.shape[1]):
            idx[A[:, j] > best] = j
            best = np.maximum(best, A[:, j])
        Phi = np.zeros(U.shape, dtype=np.int8)
        Phi[rows, idx] = np.sign(U[rows, idx])
        return Phi
    if p == 1.0:
        return np.sign(U).astype(np.int8)
    return np.sign(U) * np.abs(U) ** (p - 1.0)


def _columns(ufunc, M: np.ndarray) -> np.ndarray:
    """ufunc.reduce(axis=1), bit for bit, over a C-ordered M (numpy sums
    a column-major one column by column): np.add, or np.maximum over
    entries >= 0. Below 8 columns numpy's add.reduce sums a row left to
    right from +0.0, which this repeats a whole column at a time from
    COLUMNS_FROM rows on (an axis-1 reduction over rows 2 or 3 wide
    costs many times the arithmetic of its columns); from 8 columns on
    it sums pairwise, so there, and below COLUMNS_FROM rows, the
    reduction is numpy's. A max is exact in any order, and a max from
    0.0 over entries >= 0 is their max, so an empty row is 0.0 for both."""
    if M.shape[1] and (M.shape[1] >= 8 or len(M) < COLUMNS_FROM):
        return ufunc.reduce(M, axis=1)
    out = np.zeros(len(M))
    for j in range(M.shape[1]):
        ufunc(out, M[:, j], out=out)
    return out


def _pnorms(W: np.ndarray, p: float) -> np.ndarray:
    """p-norms of the rows of W: the one vector p-norm, of elements,
    custom points and net rows alike, its sums and maxima `_columns`',
    bit for bit numpy's axis-1 reductions. An empty row is 0.0 at every
    p. At p other than 1, 2 and inf each row takes a scalar libm root
    of its power sum; from ROOTS_UNIQUE_FROM rows on, one root per
    distinct sum (the rows of a lattice level share few), the same
    bits."""
    if math.isinf(p):
        return _columns(np.maximum, np.abs(W))
    if p == 1.0:
        return _columns(np.add, np.abs(W))
    if p == 2.0:
        return np.sqrt(_columns(np.add, W * W))
    sums, inverse = _columns(np.add, np.abs(W) ** p), None
    if len(sums) >= ROOTS_UNIQUE_FROM:
        sums, inverse = np.unique(sums, return_inverse=True)
    roots = np.array([s ** (1.0 / p) for s in sums.tolist()])
    return roots if inverse is None else roots[inverse]


def _row_norms(D: np.ndarray, p: float, extra: float) -> np.ndarray:
    """p-norms of the rows of D with `extra`, the p-th powers of entries
    outside D, added under the root: the distance profiles' rule, its
    sums and maxima those of `_pnorms`. At p other than 1, 2 and inf its
    root is numpy's array power, which rounds apart from `_pnorms`'
    scalar root in the last bit (in about one root in twenty at p = 3,
    numpy 2.4 on an x86-64 Xeon); witness indices pin a profile's bits,
    so neither root stands in for the other."""
    if math.isinf(p):
        return _columns(np.maximum, np.abs(D))
    if p == 1.0:
        return _columns(np.add, np.abs(D)) + extra
    if p == 2.0:
        return np.sqrt(_columns(np.add, D * D) + extra)
    return (_columns(np.add, np.abs(D) ** p) + extra) ** (1.0 / p)


def _unit_rows(W: np.ndarray, p: float):
    """(W with each row normalized in the p-norm, their duality rows)."""
    U = W / _pnorms(W, p)[:, None]
    return U, _duality_rows(U, p)


def _lattice_rows(levels: list, width: int) -> np.ndarray:
    """For each (t, lo, hi) of `levels` in turn, the nonzero rows
    lo..hi-1 (0-based) of {-t..t}^width in lexicographic order: the
    base-(2t+1) digits of each rank, less t, skipping the rank of the
    zero row. A single level takes its t and base as scalars; a run of
    levels takes them row by row, in one pass of digits."""
    if len(levels) == 1:
        (t, lo, hi), = levels
        rank = np.arange(lo, hi, dtype=np.int64)
        zero = ((2 * t + 1) ** width - 1) // 2
        if zero < hi:
            rank[rank >= zero] += 1
    else:
        # a zero rank past hi, perhaps past int64, skips nothing
        t, lo, hi, zero = np.array([(t, lo, hi, min(((2 * t + 1) ** width - 1) // 2, hi))
                                    for t, lo, hi in levels]).T
        count = hi - lo
        rank = np.arange(count.sum()) + np.repeat(lo - np.cumsum(count) + count, count)
        rank += rank >= np.repeat(zero, count)
        t = np.repeat(t, count)
    base = 2 * t + 1
    W = np.empty((len(rank), width))
    for j in range(width - 1, -1, -1):
        rank, digit = np.divmod(rank, base)
        W[:, j] = digit - t
    return W


@functools.lru_cache(maxsize=None)
def _level_start_diffs(dim: int) -> list:
    """The forward differences at t = 1 of the first rows of the levels
    1..dim + 2 of a lattice net of constant width dim. The first row of
    level t, the sum over s < t of (2s + 1)^dim - 1, is a polynomial of
    degree dim + 1 in t, so they give it at every t."""
    rows = list(itertools.accumulate(
        ((2 * s + 1) ** dim - 1 for s in range(1, dim + 2)), initial=0))
    diffs = []
    while rows:
        diffs.append(rows[0])
        rows = [b - a for a, b in zip(rows, rows[1:])]
    return diffs


def _put(buf: np.ndarray, n: int, rows: np.ndarray) -> np.ndarray:
    """buf with `rows` written from row n on: buf itself when they fit,
    else a zero buffer of the rows' dtype holding buf's first n rows,
    of twice buf's row capacity but at most NET_CACHE_ROWS (or n +
    len(rows) rows, if more) and as wide as the wider of the two. Rows
    below n are never written again, so a view of them stays valid
    however the buffer grows."""
    end, width = n + len(rows), rows.shape[1]
    if end > len(buf) or width > buf.shape[1]:
        grown = np.zeros((len(buf) if end <= len(buf)
                          else max(end, min(2 * len(buf), NET_CACHE_ROWS)),
                          max(width, buf.shape[1])), dtype=rows.dtype)
        grown[:n, :buf.shape[1]] = buf[:n]
        buf = grown
    buf[n:end, :width] = rows
    return buf


def _joined(parts: list) -> np.ndarray:
    """The arrays of `parts` end to end; a single part as it is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _dot_rows(Phi: np.ndarray, x) -> np.ndarray:
    """sum_i phi_i x_i for every row of Phi, over the shorter of a row
    and x, accumulated in index order from 0.0 one column at a time:
    bit for bit the sums of `_dot_row`, whatever the number of rows."""
    out = np.zeros(len(Phi))
    for col, v in zip(Phi.T, x):
        out += col * v
    return out


def _dot_row(row, x) -> float:
    """sum_i phi_i x_i over the shorter of row and x, accumulated in
    index order from 0.0: the one per-index arithmetic of every kind.
    The sum is never -0.0, so the +-0.0 terms of a zero-padded
    row (or of `_dot_rows`' padding) leave it as it is. A row read
    from an int8 matrix holds ints; v * f, a float times an int, has
    the bits of the float product and takes float's own fast path."""
    acc = 0.0
    for f, v in zip(row, x):
        acc += v * f
    return acc


def _nested_points(width: int) -> np.ndarray:
    """The first `width` points of 0, 1, 1/2, 1/4, 3/4, 1/8, 3/8, ...:
    each dyadic grid of 2^b + 1 points is a prefix, in which a point
    keeps its place as the grids refine. Every entry is exact."""
    points, step = [0.0, 1.0], 0.5
    while len(points) < width:
        points += [i * step for i in range(1, round(1 / step), 2)]
        step /= 2
    return np.array(points[:width])


def _number_rows(rows, what: str) -> np.ndarray:
    """A nonempty list of equal-length rows of numbers, as a float
    matrix; anything else (a scalar, strings, booleans, ragged rows) is
    a ConfigError."""
    try:
        if len({len(r) for r in rows}) == 1:
            _numbers((v for r in rows for v in r), what)
            return np.asarray(rows, dtype=float)
    except TypeError:                   # a scalar, or rows float() cannot read
        pass
    raise ConfigError(f"{what} must be a nonempty list of equal-length "
                      f"rows of numbers, got {reprlib.repr(rows)}")


# ---------------------------------------------------------------------------
# base class

class SeparableSpace:
    """Common surface: norm, net enumeration, norming functionals.

    Row k - 1 of `_U` is the k-th net point and row k - 1 of `_Phi` its
    norming functional, zero-padded to the widest level cached;
    `norming_functional(k)` hands that row out as a `Functional`.
    `_ensure` is the one growth path of every kind: asked for K rows
    with n < K cached, it builds rows n..n' - 1 for n' = min(max(K, n +
    min(n, SCAN_BLOCK)), NET_CACHE_ROWS), so a scan in SCAN_BLOCK steps
    builds exactly the rows it reads and index-by-index reads still
    amortize, and the cache never holds more than NET_CACHE_ROWS rows.
    A kind supplies those rows through `_rows(lo, hi)` (lattice levels
    by default, `CustomNet`'s cycle) and never grows the cache itself.
    They are appended to two row buffers (`_put`); `_U` and `_Phi` are
    views of their first n rows, and at p = 2 `_Phi is _U`, since the
    points are their own duality rows. Each buffer takes its rows'
    dtype: the default duality rows of p = 1 and p = inf are int8 (a
    byte an entry against the points' eight), any other `_Phi` float64;
    the row arithmetic below reads either with the same bits.

    Every read of net rows goes through `_blocks(lo, hi)`: the cached
    part in one slice, and past NET_CACHE_ROWS exactly the rows asked
    for, built from their rank by `_rows` in steps of at most
    SCAN_BLOCK rows, each run of levels at its own width, and never
    kept; a single row (`_row`) is the first part of its own read. Rows
    are functions of their rank, so both give the same bits. A column
    a part lacks, of the ones the whole read takes, is zero padding (met
    only past NET_CACHE_ROWS across a change of level width): profiles
    pad the part with it and functional values skip it, so no value
    depends on where a part ends or how wide it is.

    Every kind's functional rows are coefficient rows against its
    coordinates, so one arithmetic reads them all: `_dot_rows` for
    blocks, `_dot_row` for single rows. There are two ways to phi_k(x),
    bit for bit alike: the block functional_values(x, K) = [phi_1(x),
    ..., phi_K(x)], and the scalar path functional_oracle(x), which
    takes x once and returns k -> phi_k(x), summing the list of row
    k - 1 with no object built per call; read up from k = 1, or from
    any k past the cache, it turns rows into lists ORACLE_RUN rows at a
    time, and any other read takes its own row. A read of phi_k(x) at
    scattered k (T(x)'s `at` in `embed`) reads one range for each
    SCAN_BLOCK-aligned block of k that holds any, from its smallest k
    to its largest. apply_functional(norming_functional(k), x)
    gives the same bits as a reference; nothing in the library calls
    it. Each kind states `_coords(x, width)`, the first `width`
    coordinates of x as a list. The p-norm kinds also share
    distance_profile(v, K, lo=0) = [||v - u_{lo+1}||, ..., ||v - u_K||]
    for 0 <= lo < K (each row bit for bit as in the profile from row
    0), for which each states
    `_outside(x, width)`, the p-th powers of x past those coordinates;
    c01 has its own, on its points' grids.

    Each kind implements norm, canonical (validate an element), scale,
    net_point(k), random_element, lattice_sample (a multiple
    of a small grid direction, near early net points), element_to_json,
    element_from_json, and `_width(t)`, the entries of a level-t row.
    """

    kind = "abstract"

    def __init__(self):
        self._U_buf = self._U = np.zeros((0, 0))
        self._Phi_buf = self._Phi = np.zeros((0, 0))

    def _net_rows(self, W: np.ndarray):
        """(net points, functional rows) of the lattice rows W; by
        default p-norm unit rows and their duality rows."""
        return _unit_rows(W, self.p)

    # -- the net cache ------------------------------------------------------
    def _level_of(self, row: int, t: int = 1, start: int = 0):
        """(t, first row) of the level that holds net row `row`, by a
        walk up from level t, which starts at row `start` (level 1 by
        default): where levels widen (seqlp, c01) they pass row 2^63
        within about 20 levels."""
        while True:
            stop = start + (2 * t + 1) ** self._width(t) - 1
            if row < stop:
                return t, start
            t, start = t + 1, stop

    def _levels(self, row: int):
        """(t, first row, end row) of each level t from the one that
        holds net row `row` on."""
        t, start = self._level_of(row)
        while True:
            stop = start + (2 * t + 1) ** self._width(t) - 1
            yield t, start, stop
            t, start = t + 1, stop

    def _row_width(self, row: int) -> int:
        """The entries of net row `row`: its level's width."""
        return self._width(self._level_of(row)[0])

    def _rows(self, lo: int, hi: int):
        """(net points, functional rows) of net rows lo..hi-1, one
        pair per run of consecutive lattice levels of one width they
        meet: a single run for fdlp, one per grid for c01, one per
        level for seqlp."""
        run, width = [], None   # (t, first rank, end rank) of each level of the run
        for t, start, stop in self._levels(lo):
            if run and self._width(t) != width:
                yield self._net_rows(_lattice_rows(run, width))
                run = []
            width, end = self._width(t), min(stop, hi)
            run.append((t, lo - start, end - start))
            lo = end
            if lo == hi:
                yield self._net_rows(_lattice_rows(run, width))
                return

    def _ensure(self, K: int):
        """Grow the cache to min(max(K, n + min(n, SCAN_BLOCK)),
        NET_CACHE_ROWS) rows if it holds n < min(K, NET_CACHE_ROWS)."""
        n, K = len(self._U), min(K, NET_CACHE_ROWS)
        if K <= n:
            return
        for U, Phi in self._rows(n, min(max(K, n + min(n, SCAN_BLOCK)), NET_CACHE_ROWS)):
            self._U_buf = _put(self._U_buf, n, U)
            if Phi is not U:
                self._Phi_buf = _put(self._Phi_buf, n, Phi)
            n += len(U)
        self._U = self._U_buf[:n]
        self._Phi = self._U if Phi is U else self._Phi_buf[:n]

    def _blocks(self, lo: int, hi: int):
        """(first row, points, functional rows) of net rows lo..hi-1:
        the rows below NET_CACHE_ROWS as one slice of the cache, grown
        once to hold them and as wide as its widest level, then each run
        of rows past it that `_rows` builds from their rank, in steps of
        at most SCAN_BLOCK rows, each as wide as its own levels. Nothing
        past the cache is kept."""
        if lo < NET_CACHE_ROWS:
            end = min(hi, NET_CACHE_ROWS)
            if end > len(self._U):
                self._ensure(end)
            yield lo, self._U[lo:end], self._Phi[lo:end]
            lo = end
        while lo < hi:
            for U, Phi in self._rows(lo, min(lo + SCAN_BLOCK, hi)):
                yield lo, U, Phi
                lo += len(U)

    def _index(self, k: int) -> int:
        """Net row of net index k; k < 1 is IndexZero."""
        if k < 1:
            raise IndexZero(f"k = {k} < 1")
        return k - 1

    def _row(self, k: int):
        """(point, functional row) of net index k, the first of
        `_blocks`' reads of it; k < 1 is IndexZero. Past NET_CACHE_ROWS
        that builds the one row from its rank."""
        i = self._index(k)
        _, U, Phi = next(self._blocks(i, k))
        return U[0], Phi[0]

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
        n = self.norm(v)
        if abs(n - 1.0) > UNIT_TOL:
            raise NotUnitVector(f"norm(v) = {n!r}")
        return float(np.min(self.distance_profile(v, K)))

    def norming_functional(self, k: int) -> Functional:
        row = self._row(k)[1].astype(float).tolist()
        while not row[-1]:      # a duality row has a nonzero entry
            row.pop()
        return Functional(self.kind, tuple(row))

    def apply_functional(self, phi, x) -> float:
        self._check_kind(phi)
        return _dot_row(phi.row, self._coords(self.canonical(x), len(phi.row)))

    def functional_oracle(self, x):
        """k -> phi_k(x) as a float, bit for bit apply_functional(
        norming_functional(k), x), with no object built per call: each
        call sums the list of row k - 1 against x's coordinates by
        `_dot_row`, and the coordinates are rebuilt only when a row is
        wider than they are, so they never outgrow the rows read. The
        oracle keeps a slot of the lists of successive rows, at most
        ORACLE_RUN of them. A read of the row just past the slot (k = 1
        on a new oracle), or of any row past NET_CACHE_ROWS, refills it
        with the run of ORACLE_RUN rows from that row on, read by
        `_blocks`: the cache grown once to hold its cached part, and
        its part past the cap built from rank. A run may cross the cap,
        and sequential reads past it build each row once. Any other k
        outside the slot (a jump or a read going down, below the cap)
        takes its own row and leaves the slot as it is, so a scan's
        scattered cached hits turn no run into lists: a cached row as
        it is, any other through `_row`, so k < 1 raises IndexZero and
        a k below NET_CACHE_ROWS grows the cache. Rows are functions of
        their rank, so a row list keeps its bits however the cache
        grows after it was taken; no phi value is kept."""
        x = self.canonical(x)
        width, coords = 0, []
        first, rows = 0, []         # row lists of net rows first, first + 1, ...

        def value(k: int) -> float:
            nonlocal width, coords, first, rows
            i = k - 1 - first
            if 0 <= i < len(rows):
                row = rows[i]
            elif i == len(rows) or k > NET_CACHE_ROWS:
                first, rows = k - 1, []
                for _, _, Phi in self._blocks(first, first + ORACLE_RUN):
                    rows += Phi.tolist()
                row = rows[0]
            else:
                row = (self._Phi[k - 1] if 0 < k <= len(self._Phi) else self._row(k)[1]).tolist()
            if len(row) > width:
                width = len(row)
                coords = self._coords(x, width)
            return _dot_row(row, coords)
        return value

    def functional_values(self, x, K: int, lo: int = 0) -> np.ndarray:
        """[phi_{lo+1}(x), ..., phi_K(x)] for 0 <= lo < K, each value bit
        for bit as in the block from row 0; K < 1 is IndexZero and a lo
        outside its window a ValueError, as in distance_profile. Only
        the columns rows 1..K use, and a block holds, are summed: the
        rest are zero padding."""
        self._check_window(K, lo)
        coords = self._coords(self.canonical(x), self._row_width(K - 1))
        return _joined([_dot_rows(Phi, coords) for _, _, Phi in self._blocks(lo, K)])

    def _check_window(self, K: int, lo: int):
        """K < 1 is IndexZero, and a lo outside 0 <= lo < K a
        ValueError, both before any row is read."""
        if K >= 1 and not 0 <= lo < K:
            raise ValueError(f"lo = {lo} must satisfy 0 <= lo < K = {K}")
        self._index(K)

    def distance_profile(self, v, K: int, lo: int = 0) -> np.ndarray:
        self._check_window(K, lo)
        v = self.canonical(v)
        # the columns the first K rows use; support past them is orthogonal
        width = self._row_width(K - 1)
        coords, outside = np.array(self._coords(v, width)), self._outside(v, width)
        out = []
        for _, U, _ in self._blocks(lo, K):
            # a lacking column is zero padding: U - coords reads -c_j there
            if U.shape[1] < width:
                U = np.pad(U, ((0, 0), (0, width - U.shape[1])))
            out.append(_row_norms(U[:, :width] - coords, self.p, outside))
        return _joined(out)

    def _outside(self, x, width: int) -> float:
        return 0.0

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

    def _width(self, t):
        return self.dim

    def _row_width(self, row: int) -> int:
        return self.dim

    def _start(self, t: int) -> int:
        """The first row of level t, exactly, in Newton's forward form."""
        return sum(c * math.comb(t - 1, j) for j, c in enumerate(_level_start_diffs(self.dim)))

    def _level_of(self, row: int, t: int = 1, start: int = 0):
        # the first row of level t lies between (2t - 1)^(dim+1) / (2 dim
        # + 2) - t and (2t)^(dim+1) / (2 dim + 2), its sum against two
        # integrals, so the level one below the upper bound's root at
        # `row` is at most row's level and at most two below it: the
        # walk starts there
        d = self.dim
        est = int((2 * (d + 1) * row) ** (1 / (d + 1)) / 2) - 1
        if est > t:
            t, start = est, self._start(est)
        return super()._level_of(row, t, start)

    def canonical(self, x):
        arr = np.asarray(x, dtype=float)
        if arr.shape != (self.dim,):
            raise KindMismatch(f"expected vector of length {self.dim}, got shape {arr.shape}")
        return arr

    def norm(self, x) -> float:
        return float(_pnorms(self.canonical(x)[None], self.p)[0])

    def scale(self, c, x):
        return c * self.canonical(x)

    def net_point(self, k: int):
        return self._row(k)[0].copy()

    def _coords(self, x, width: int) -> list:
        return x.tolist()

    def random_element(self, rng):
        while True:
            x = rng.standard_normal(self.dim)
            if self.norm(x) > 1e-3:
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
        _numbers(obj, f"{self.kind} element")
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
        super().__init__()
        self.p = float(p)
        self.support_cap = int(support_cap)

    def _width(self, t):
        return t

    def canonical(self, x):
        if not isinstance(x, dict):
            raise KindMismatch("seqlp elements are index->value maps")
        out = {}
        for i, v in x.items():
            # int() would also take 1.5, True, "01" and "1_0"
            if not isinstance(i, (int, np.integer)) or isinstance(i, bool):
                raise KindMismatch(f"support index {i!r} is not an int")
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

    def _coords(self, x: dict, width: int) -> list:
        return [x.get(i, 0.0) for i in range(1, width + 1)]

    def _outside(self, x: dict, width: int) -> float:
        return sum(abs(v) ** self.p for i, v in x.items() if i > width)

    def norm(self, x) -> float:
        return float(_pnorms(np.array([list(self.canonical(x).values())]), self.p)[0])

    def scale(self, c, x):
        return {i: c * v for i, v in self.canonical(x).items() if c * v != 0.0}

    def net_point(self, k: int):
        return {i + 1: v for i, v in enumerate(self._row(k)[0].tolist()) if v != 0.0}

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
        # int() would also take "01", "1_0" and " 2"
        bad = [k for k in obj if not (isinstance(k, str) and k.isascii()
                                      and k.isdigit() and str(int(k)) == k)]
        if bad:
            raise ConfigError(f"seqlp element keys {bad} are not plain decimal indices")
        _numbers(obj.values(), "seqlp element")
        return self.canonical({int(k): float(v) for k, v in obj.items()})


# ---------------------------------------------------------------------------
# piecewise-linear functions on [0, 1] with the sup norm

class ContinuousPL(SeparableSpace):
    """Net points are PL functions on the dyadic grid of step 2^-b(t),
    their values in `_U` in grid order. The norming functional of a
    point is the signed point mass at its first largest |value|: an int8
    p = inf duality row whose columns are the grid in nested order (see
    `_nested_points`), so x's coordinates are its values there and a
    narrower grid's row, zero-padded, is the same functional."""

    kind = "c01"

    # breakpoint refinement is deliberately slower than value
    # refinement: value range t needs to reach ~5-6 before the next
    # dyadic grid opens, so early net levels already resolve coarse
    # directions finely enough for witness searches
    LEVELS_PER_GRID = 6

    def _width(self, t):
        return 2 ** ((t + self.LEVELS_PER_GRID - 1) // self.LEVELS_PER_GRID) + 1

    def _grid(self, t: int) -> np.ndarray:
        """The dyadic breakpoints of level t."""
        return np.arange(self._width(t)) / (self._width(t) - 1)

    def _net_rows(self, W):
        # the argmax runs in grid order, as for every p = inf row, so a
        # row with tied largest values keeps its first grid point; only
        # then are the columns laid out in nested order
        U, Phi = _unit_rows(W, math.inf)
        width = W.shape[1]
        return U, Phi[:, (_nested_points(width) * (width - 1)).astype(np.intp)]

    def _coords(self, x, width: int) -> list:
        return np.interp(_nested_points(width), x.breaks, x.values).tolist()

    def canonical(self, x):
        if isinstance(x, PLFunction):
            return x
        raise KindMismatch("c01 elements are PLFunction values (see pl_function)")

    def norm(self, x) -> float:
        x = self.canonical(x)
        return float(np.max(np.abs(x.values)))

    def scale(self, c, x):
        x = self.canonical(x)
        return PLFunction(x.breaks, tuple(c * v for v in x.values))

    def net_point(self, k: int):
        point = self._row(k)[0]
        grid = self._grid(self._level_of(k - 1)[0])
        return PLFunction(tuple(grid.tolist()), tuple(point[:len(grid)].tolist()))

    def distance_profile(self, v, K: int, lo: int = 0) -> np.ndarray:
        self._check_window(K, lo)
        v = self.canonical(v)
        self._ensure(K)         # once, not once per grid
        out = np.empty(K - lo)
        first = lo
        # one pass per grid: its levels are contiguous rows first..hi-1
        for t, _, stop in self._levels(lo):
            if first >= K:
                break
            if t % self.LEVELS_PER_GRID and stop < K:
                continue
            hi = min(stop, K)
            grid = self._grid(t)
            union = np.union1d(grid, v.breaks)
            pos = np.clip(np.searchsorted(grid, union, side="right") - 1,
                          0, len(grid) - 2)
            w = (union - grid[pos]) / (grid[pos + 1] - grid[pos])
            v_union = np.interp(union, v.breaks, v.values)
            for a, rows, _ in self._blocks(first, hi):
                on_union = rows[:, pos] * (1.0 - w) + rows[:, pos + 1] * w
                out[a - lo:a - lo + len(rows)] = _columns(np.maximum, np.abs(on_union - v_union))
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
        unknown = [k for k in obj if k not in ("breaks", "values")]
        if unknown:
            raise ConfigError(f"unknown c01 element fields: {unknown}")
        _numbers(list(obj["breaks"]) + list(obj["values"]), "c01 element")
        return pl_function(obj["breaks"], obj["values"])


# ---------------------------------------------------------------------------
# explicit cyclic net, for deterministic tests and examples

class CustomNet(FiniteDimLp):
    """A finite-dim p-norm space whose net cycles an explicit unit list.

    Exists so tests and examples do not depend on the grid enumeration
    order. Each point is normed by the duality map, dualized once per
    net (at p = 2 the points themselves, so `_Phi is _U` as for the
    lattice kinds, unless a point holds a -0.0). `_rows` supplies the
    cycle's rows to the shared growth path; reads are `FiniteDimLp`'s.
    """

    kind = "custom"

    def __init__(self, points, p: float = 2.0):
        points = _number_rows(points, "custom net points")
        super().__init__(points.shape[1], p)
        off = np.abs(_pnorms(points, self.p) - 1.0) > UNIT_TOL
        if off.any():
            raise ConfigError(f"custom net point {points[off.argmax()]} is not unit")
        self._points, self._functionals = points, _duality_rows(points, self.p)

    def _rows(self, lo: int, hi: int):
        cycle = np.arange(lo, hi) % len(self._points)
        U = self._points[cycle]
        yield U, U if self._functionals is self._points else self._functionals[cycle]

    def lattice_sample(self, rng):
        return float(rng.uniform(0.25, 4.0)) * self.net_point(int(rng.integers(1, len(self._points) + 1)))


# ---------------------------------------------------------------------------
# CLI-facing parsing

def _parse_p(token) -> float:
    return math.inf if token in ("inf", "oo") else _parse_num(float, token, "exponent")


def _parse_num(cast, token, what: str):
    """A spec field, a JSON number or a string, as `cast` reads it; the
    number and its value must pass `_is_number`."""
    try:
        value = cast(str(token)) if isinstance(token, str) or _is_number(token) else None
    except ValueError:
        value = None
    if not _is_number(value):
        raise ConfigError(f"bad {what} {reprlib.repr(token)}")
    return value


#: per space kind: its required fields, and its optional fields with defaults
_SPACE_FIELDS = {
    "fdlp": ({"dim"}, {"p": "2"}),
    "seqlp": (set(), {"p": "2", "support": "8"}),
    "c01": (set(), {}),
    "custom": ({"points"}, {"p": "2"}),
}


def _spec_dict(spec: str) -> dict:
    """`<kind>:<key>=<value>,...` as {"kind": kind, key: value, ...}."""
    head, _, rest = spec.partition(":")
    out = {"kind": head}
    for part in filter(None, rest.split(",")):
        key, eq, val = part.partition("=")
        if not eq or key.strip() in out:
            raise ConfigError(f"bad space field {part!r} in {spec!r}")
        out[key.strip()] = val.strip()
    return out


def parse_space(spec) -> SeparableSpace:
    """Space specification: `fdlp:dim=<n>,p=<p|inf>`, `seqlp:p=<p>,
    support=<m>`, `c01`, or a dict of the same fields with `kind`; a
    custom net is only a dict, `{"kind": "custom", "points": [...]}`
    with an optional `p`. Every spec is checked against `_SPACE_FIELDS`."""
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
        return CustomNet(f["points"], _parse_p(f["p"]))
    return ContinuousPL()
