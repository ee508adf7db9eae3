import hashlib
import itertools
import json
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from seqembed import (ConfigError, CustomNet, FiniteDimLp, IndexZero,
                      KindMismatch, NotUnitVector, SeqLp, ContinuousPL,
                      ZeroElement, coordinate, coordinates_at, embed_t1,
                      oscillation_witness, parse_space, pl_function)
from seqembed import spaces
from seqembed.spaces import (NET_CACHE_ROWS, ORACLE_RUN, SCAN_BLOCK, SeparableSpace,
                             _nested_points)
from reference import (nested_order, net_size_through_level, pl_subtract,
                       point_mass_value)

SQ2 = math.sqrt(2.0)


# -- finite-dimensional p-norm spaces -----------------------------------------

def test_fdlp_norms():
    e2 = FiniteDimLp(2, 2)
    assert e2.norm([3.0, 4.0]) == 5.0
    assert FiniteDimLp(2, 1).norm([3.0, -4.0]) == 7.0
    assert FiniteDimLp(2, math.inf).norm([3.0, -4.0]) == 4.0
    assert FiniteDimLp(3, 1.5).norm([1.0, 0.0, 0.0]) == 1.0


def _vector_pnorm(arr, p):
    """The p-norm of one vector, by numpy's 1-D reductions and a scalar
    root: the formula the spaces normed elements and custom points with
    before one routine normed every vector."""
    if math.isinf(p):
        return float(np.max(np.abs(arr)))
    if p == 1.0:
        return float(np.sum(np.abs(arr)))
    if p == 2.0:
        return float(np.sqrt(np.sum(arr * arr)))
    return float(np.sum(np.abs(arr) ** p) ** (1.0 / p))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]),
       st.lists(st.floats(-1e100, 1e100) | st.sampled_from([0.0, -0.0]),
                min_size=1, max_size=40))
@example(2.0, [0.0, -0.0])
def test_norms_keep_the_vector_formula_bits(p, values):
    # elements are normed as 1-row matrices, bit for bit the 1-D
    # formula; the empty seqlp element (all values zero) is 0.0
    x = np.array(values)
    assert _bits([FiniteDimLp(len(x), p).norm(x)]) == _bits([_vector_pnorm(x, p)])
    if not math.isinf(p):
        nonzero = np.array([v for v in values if v != 0.0])
        want = _vector_pnorm(nonzero, p) if len(nonzero) else 0.0
        got = SeqLp(p, len(x)).norm(dict(enumerate(values, 1)))
        assert _bits([got]) == _bits([want])


#: entries that round, tie or sign differently: signed zeros, subnormals,
#: the smallest normal, and magnitudes whose squares and sums overflow
_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
                1e300, -1e300, 1.0, -1.0, 0.5, -0.5]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 12), st.integers(1, 300), st.integers(0, 12), st.floats(0.0, 1.0),
       st.sampled_from([0, 300]), st.integers(0, 2 ** 32 - 1))
@example(1, 9, 0, 1.0, 300, 0)
@example(0, 5, 0, 0.0, 300, 0)
@example(8, 17, 1, 1.0, 300, 1)      # numpy sums a column-major matrix column by column
def test_column_reductions_keep_numpy_bits(width, rows, cut, edges, spread, seed):
    # the column walk (taken from COLUMNS_FROM rows on, and here from
    # one row on too), over M and over M with constant columns past
    # `cut` (as a profile's zero-padded part gives), and the p = inf
    # argmax against numpy's axis-1 reductions, bit for bit; a max reads
    # entries >= 0 (-0.0 among them), as it does in every norm. Entries
    # of one magnitude (spread 0) round apart wherever the order of a
    # sum differs; spread 300 mixes 1e-300 to 1e300
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-spread, spread + 1, (rows, width))
    M = np.where(rng.random((rows, width)) < edges, rng.choice(_EDGE_VALUES, (rows, width)),
                 rng.standard_normal((rows, width)) * scale)
    A = np.where(M == 0.0, M, np.abs(M))
    for ufunc, X in ((np.add, M), (np.maximum, A)):
        tail = X[0, min(cut, width):]
        padded = np.concatenate([X[:, :min(cut, width)], np.tile(tail, (rows, 1))], axis=1)
        for columns_from in (spaces.COLUMNS_FROM, 1):
            with mock.patch.object(spaces, "COLUMNS_FROM", columns_from):
                want = ufunc.reduce(X, axis=1) if width else np.zeros(rows)
                assert _bits(spaces._columns(ufunc, X)) == _bits(want)
                want = ufunc.reduce(padded, axis=1) if width else np.zeros(rows)
                assert _bits(spaces._columns(ufunc, padded)) == _bits(want)
    if width:
        # tied largest |u_i| are the rule here, not the exception
        U = rng.choice([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0], (rows, width))
        want = np.zeros((rows, width), dtype=np.int8)
        idx = np.argmax(np.abs(U), axis=1)
        want[np.arange(rows), idx] = np.sign(U[np.arange(rows), idx])
        got = spaces._duality_rows(U, math.inf)
        assert got.dtype == np.int8 and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_empty_rows_have_norm_zero(p):
    # at p = inf too, where a max has no identity of its own
    assert _bits(spaces._pnorms(np.zeros((3, 0)), p)) == _bits([0.0] * 3)
    if p < math.inf:
        assert SeqLp(p).norm({}) == 0.0


@pytest.mark.parametrize("p", [1.0, 3.0])
def test_pnorms_root_each_distinct_sum_once(p, monkeypatch):
    # past ROOTS_UNIQUE_FROM rows the roots are taken per distinct power
    # sum, below it per row: the same bits either way
    # lattice-like rows: their powers and sums are exact, so the root is
    # all that could round apart
    W = np.round(np.random.default_rng(3).standard_normal((2 * spaces.ROOTS_UNIQUE_FROM, 3)) * 4)
    want = []
    for row in W.tolist():
        acc = 0.0
        for w in row:
            acc += abs(w) ** p
        want.append(acc ** (1.0 / p))
    assert _bits(spaces._pnorms(W, p)) == _bits(want)
    monkeypatch.setattr(spaces, "ROOTS_UNIQUE_FROM", 10 ** 9)
    assert _bits(spaces._pnorms(W, p)) == _bits(want)


def test_fdlp_net_enumeration_order():
    # level 1 in dim 1: candidates -1, 1
    e1 = FiniteDimLp(1, 2)
    assert e1.net_point(1)[0] == -1.0
    assert e1.net_point(2)[0] == 1.0
    # dim 2: first candidate (-1,-1) normalized
    e2 = FiniteDimLp(2, 2)
    assert np.allclose(e2.net_point(1), [-1 / SQ2, -1 / SQ2])
    assert [net_size_through_level(2, L) for L in (0, 1, 2)] == [0, 8, 8 + 24]
    # level L closes with rows (L, L - 1), (L, L); level L + 1 opens
    # with (-L - 1, -L - 1), (-L - 1, -L)
    for L in (1, 2, 3):
        end = net_size_through_level(2, L)
        assert np.allclose(e2.net_point(end - 1), e2.unit(np.array([L, L - 1.0])))
        assert np.allclose(e2.net_point(end), [1 / SQ2, 1 / SQ2])
        assert np.allclose(e2.net_point(end + 1), [-1 / SQ2, -1 / SQ2])
        assert np.allclose(e2.net_point(end + 2), e2.unit(np.array([-L - 1.0, -L])))


@pytest.mark.parametrize("dim", [1, 2, 3, 7])
def test_fdlp_finds_a_rows_level_from_its_first_row(dim):
    # every fdlp level is dim wide, so its first row is computed exactly
    # and the walk starts near the row's level: each row's level agrees
    # with the walk from level 1 that widening kinds take, and a row up
    # to 2^63 - 1 lies between its level's first row and the next level's
    sp = FiniteDimLp(dim, 2)
    ends = [net_size_through_level(dim, L) for L in range(12)]
    assert [sp._start(t) for t in range(1, 13)] == ends
    rows = {r for end in ends[1:] for r in (end - 1, end, end + 1)} | {0, 99999}
    for row in sorted(rows):
        assert sp._level_of(row) == SeparableSpace._level_of(sp, row)
    for row in (2 ** 40, 2 ** 62, 2 ** 63 - 1):
        t, start = sp._level_of(row)
        assert start == sp._start(t) <= row < sp._start(t + 1)


def test_fdlp_net_points_are_unit():
    sp = FiniteDimLp(3, 1.5)
    for k in range(1, 40):
        assert sp.norm(sp.net_point(k)) == pytest.approx(1.0, abs=1e-12)


def test_norming_functional_norms_its_point():
    for p in (1.0, 1.5, 2.0, math.inf):
        sp = FiniteDimLp(2, p)
        for k in range(1, 30):
            u = sp.net_point(k)
            phi = sp.norming_functional(k)
            assert sp.apply_functional(phi, u) == pytest.approx(1.0, abs=1e-12)


def test_functional_is_norm_bounded():
    # |phi(x)| <= ||x|| by Holder; spot-check on a grid of elements
    rng = np.random.default_rng(7)
    for p in (1.0, 1.5, 2.0, math.inf):
        sp = FiniteDimLp(2, p)
        for _ in range(25):
            x = rng.standard_normal(2)
            vals = sp.functional_values(x, 40)
            assert np.max(np.abs(vals)) <= sp.norm(x) + 1e-9


def test_functional_values_matches_pointwise():
    # every kind, bit for bit: seqlp with support past the row width,
    # c01 across k = 4747, where the grid {0, 1/4, ..., 1} opens. The
    # per-index oracle is built on a cold cache and read once before
    # the block grows the cache past that read's rows and width.
    x3 = np.array([0.3, -1.7, 2.2])
    cases = [("fdlp:dim=2,p=2", np.array([0.3, -1.7]), 25),
             *((f"fdlp:dim=3,p={p}", x3, 400) for p in ("1", "1.5", "inf")),
             ("seqlp:p=2", {1: 0.5, 3: 1.25, 7: -2.0}, 400),
             ({"kind": "custom", "points": _cycle_points(1.5), "p": 1.5},
              np.array([0.7, -1.3]), 10),
             ("c01", pl_function((0.0, 0.3, 1.0), (1.0, -2.0, 0.5)), 4800)]
    for spec, x, K in cases:
        sp = parse_space(spec)
        value = sp.functional_oracle(x)
        first = value(1)
        vals = sp.functional_values(x, K)
        assert _bits([first]) == _bits(vals[:1]), spec
        for k in range(1, K + 1):
            pointwise = sp.apply_functional(sp.norming_functional(k), x)
            assert _bits([pointwise]) == _bits([value(k)]) == _bits(vals[k - 1:k]), \
                (spec, k)


@pytest.mark.parametrize("spec", ["fdlp:dim=2,p=2", "seqlp:p=2,support=4", "c01"])
def test_functional_oracle_rejects_indices_below_one(spec):
    sp = parse_space(spec)
    value = sp.functional_oracle(sp.random_element(np.random.default_rng(3)))
    value(5)        # cached rows, so only the lower bound can reject
    for k in (0, -1):
        with pytest.raises(IndexZero):
            value(k)


@pytest.mark.parametrize("spec", ["fdlp:dim=2,p=2", "seqlp:p=2,support=4", "c01"])
def test_functional_oracle_grows_the_cache_past_its_rows(spec):
    sp = parse_space(spec)
    x = sp.random_element(np.random.default_rng(5))
    value = sp.functional_oracle(x)
    value(3)
    rows = len(sp._Phi)
    got = value(rows + 1)
    assert len(sp._Phi) > rows
    assert _bits([got]) == _bits(sp.functional_values(x, rows + 1)[rows:])


def test_c01_oracle_interpolates_once_per_location(monkeypatch):
    # one vector np.interp per cache width: x at the 3 points of
    # {0, 1/2, 1}, then at the 5 of {0, 1/4, ..., 1} in nested order
    # once the cache holds row 4747, where that grid opens. Read up
    # from k = 1, the oracle takes rows in ORACLE_RUN-row runs from
    # k = 1, 65, ..., so a cold cache gets there at k = 4097 (grown to
    # 8192 rows), and one warmed to rows 1..4746 at k = 4737, the start
    # of the run that holds row 4747. Read up, down and across the
    # opening, every value keeps the block's bits
    x = pl_function((0.0, 0.3, 1.0), (1.0, -2.0, 0.5))
    want = ContinuousPL().functional_values(x, 55400)
    interp, calls, reading = np.interp, [], 0

    def counted(t, *args, **kwargs):
        calls.append((reading, np.asarray(t).tolist()))
        return interp(t, *args, **kwargs)
    monkeypatch.setattr(np, "interp", counted)
    ks = [*range(1, 4801), *range(55400, 55300, -1), *range(4800, 0, -1), 4747, 1]
    for warm, opens in ((0, 4097), (4746, 4737)):
        sp, got = ContinuousPL(), []
        sp._ensure(warm)
        calls.clear()
        value = sp.functional_oracle(x)
        for reading in ks:
            got.append(value(reading))
        assert calls == [(1, [0.0, 1.0, 0.5]), (opens, [0.0, 1.0, 0.5, 0.25, 0.75])]
        assert _bits(got) == _bits(want[[k - 1 for k in ks]])


def test_nested_points_list_every_grid_as_a_prefix():
    # 0, 1, 1/2, 1/4, 3/4, 1/8, ...: the first 2^b + 1 entries are the
    # grid of step 2^-b, each entry exact
    widest = _nested_points(2 ** 8 + 1)
    for width in range(1, len(widest) + 1):
        assert _bits(_nested_points(width)) == _bits(widest[:width])
    for b in range(9):
        n = 2 ** b + 1
        grid = np.arange(n) / (n - 1)
        assert _bits(widest[:n]) == _bits(grid[nested_order(n)])
        assert all(Fraction(t).denominator <= 2 ** b for t in widest[:n].tolist())


@pytest.mark.parametrize("spec", ["fdlp:dim=2,p=2", "seqlp:p=2,support=4", "c01"])
def test_t1_by_index_read_grows_the_cache_once(spec, monkeypatch):
    # T(x)'s `at` reads k = ceil(n / 2) from each SCAN_BLOCK-aligned
    # block that holds one, from its smallest k there to its largest,
    # the last block first, whatever the order of the indices: the
    # cache grows once, to the largest k as `_ensure` grows it, and
    # n = 2k - 1 reads +phi_k(x), n = 2k reads -phi_k(x)
    sp, ref = parse_space(spec), parse_space(spec)
    x = sp.random_element(np.random.default_rng(7))
    for s in (sp, ref):
        s.net_point(40)
    grown, ensure = [], sp._ensure
    reads, values = [], sp.functional_values

    def counted(K):
        if K > len(sp._U):
            grown.append(K)
        ensure(K)

    def read(x, K, lo=0):
        reads.append((K, lo))
        return values(x, K, lo)
    monkeypatch.setattr(sp, "_ensure", counted)
    monkeypatch.setattr(sp, "functional_values", read)
    t = embed_t1(sp, x)
    ns = np.array([1799, 5, 82, 17999, 1800, 6, 81, 18000, 1799])
    got = coordinates_at(t, ns)
    assert grown == [9000]
    assert reads == [(9000, 8999), (900, 2)]
    ref._ensure(9000)
    assert sp._Phi.shape == ref._Phi.shape and np.array_equal(sp._Phi, ref._Phi)
    vals = ref.functional_values(x, 9000)
    assert _bits(got) == _bits([vals[899], vals[2], -vals[40], vals[8999], -vals[899],
                                -vals[2], vals[40], -vals[8999], vals[899]])
    assert coordinates_at(t, np.zeros(0, dtype=np.int64)).shape == (0,)
    for bad in ([0], [3, -1]):
        with pytest.raises(IndexZero):
            coordinates_at(t, np.array(bad))
    assert grown == [9000]


def test_t1_by_index_read_past_the_cache_builds_only_its_rows(monkeypatch):
    # past NET_CACHE_ROWS, `at` reads the k of one SCAN_BLOCK-aligned
    # block from the smallest to the largest asked for, built from their
    # rank: a deep index grows no cache and builds no prefix, and its
    # values are those of the rows built alone
    sp, ref = parse_space("fdlp:dim=2,p=2"), parse_space("fdlp:dim=2,p=2")
    x = np.array([3.0, 4.0])
    built, rows = [], sp._rows

    def counted(lo, hi):
        built.append((lo, hi))
        return rows(lo, hi)
    monkeypatch.setattr(sp, "_rows", counted)
    k = 10 ** 12 + 5
    got = coordinates_at(embed_t1(sp, x), np.array([2 * k - 1, 2 * k + 2, 2 * k]))
    assert (k - 1) // SCAN_BLOCK == k // SCAN_BLOCK
    assert built == [(k - 1, k + 1)]
    assert len(sp._U) == 0
    phi_k, phi_k1 = (ref.apply_functional(ref.norming_functional(j), x) for j in (k, k + 1))
    assert _bits(got) == _bits([phi_k, -phi_k1, -phi_k])


_KINDS = ["fdlp:dim=2,p=2", "seqlp:p=2,support=4", "c01",
          {"kind": "custom", "p": 2, "points": [[1.0, 0.0], [0.6, -0.8], [0.0, 1.0]]}]


@pytest.mark.parametrize("warm", [0, 50], ids=["fresh", "warm"])
@pytest.mark.parametrize("spec", _KINDS, ids=["fdlp", "seqlp", "c01", "custom"])
def test_blocks_reject_k_below_one(spec, warm):
    # K < 1 names no rows 1..K, as in net_distance and prefix_sup; the
    # check comes before the cache grows
    sp = parse_space(spec)
    if warm:
        sp.net_point(warm)
    x = sp.random_element(np.random.default_rng(11))
    for K in (0, -1):
        with pytest.raises(IndexZero):
            sp.functional_values(x, K)
        with pytest.raises(IndexZero):
            sp.distance_profile(sp.unit(x), K)
    assert len(sp._U) == warm


@pytest.mark.parametrize("warm", [0, 50], ids=["fresh", "warm"])
@pytest.mark.parametrize("spec", _KINDS, ids=["fdlp", "seqlp", "c01", "custom"])
def test_distance_profile_rejects_lo_outside_its_window(spec, warm):
    # rows lo + 1..K need 0 <= lo < K, on every kind, for profiles and
    # functional values alike; the check comes before the cache grows
    sp = parse_space(spec)
    if warm:
        sp.net_point(warm)
    x = sp.random_element(np.random.default_rng(13))
    for read, arg in ((sp.distance_profile, sp.unit(x)), (sp.functional_values, x)):
        for K, lo in ((10, -2), (10, -1), (10, 10), (10, 11), (100, 100), (100, -5), (1, 1)):
            with pytest.raises(ValueError, match=rf"lo = {lo} .*K = {K}\b"):
                read(arg, K, lo)
    assert len(sp._U) == warm


def test_witness_scan_builds_only_the_rows_it_reads(monkeypatch):
    # the scan reads 20 blocks of SCAN_BLOCK rows before its 10th hit
    # and builds each row once: the first 8 blocks grow the cache by
    # exactly that block, its row buffers doubling their capacity from
    # 8192 rows to NET_CACHE_ROWS and no further, and the other 12 are
    # built from their rank and not kept. The one hit past the cap, k =
    # 80 799, builds its own ORACLE_RUN-row run to read phi_k. The
    # witness is the one an uncapped net gives
    sp = parse_space("seqlp:p=1,support=8")
    built, rows = [], sp._rows

    def counted(lo, hi):
        built.append((lo, hi))
        return rows(lo, hi)
    monkeypatch.setattr(sp, "_rows", counted)
    w = oscillation_witness(sp, {2: -1.5}, 0.2, 10, 100000)
    assert w.plus_indices[-1] == 2 * 80799 - 1
    assert built == [*((k, k + SCAN_BLOCK) for k in range(0, 20 * SCAN_BLOCK, SCAN_BLOCK)),
                     (80798, 80798 + ORACLE_RUN)]
    assert len(sp._U) == len(sp._Phi) == NET_CACHE_ROWS == 32768
    assert len(sp._U_buf) == len(sp._Phi_buf) == NET_CACHE_ROWS
    monkeypatch.setattr(spaces, "NET_CACHE_ROWS", 1 << 17)
    uncapped = parse_space("seqlp:p=1,support=8")
    assert oscillation_witness(uncapped, {2: -1.5}, 0.2, 10, 100000) == w
    assert len(uncapped._U) == 20 * SCAN_BLOCK == 81920


_GROWN = ["fdlp:dim=2,p=2", "fdlp:dim=3,p=1.5", "fdlp:dim=3,p=inf", "fdlp:dim=2,p=1",
          "seqlp:p=1,support=8", "seqlp:p=2,support=4", "c01", _KINDS[3]]
_DEPTH = 9000       # past seqlp's width-5 level (row 6929) and c01's 5-point grid (4747)
_CAP = 1000         # a net cache cap below both
_KS = [1, _CAP, _CAP + 1, 4746, 4747, 4748, 6929, 6930, _DEPTH - 1, _DEPTH,
       *np.random.default_rng(31).integers(1, _DEPTH, size=20).tolist()]
#: (K, lo) of the windows read: whole, across the cap, past it, and in scan blocks
_WINDOWS = [(_DEPTH, 0), (_DEPTH, _CAP - 3), (_CAP + 5000, _CAP), (2 * _CAP, 10),
            (_CAP, 0), (SCAN_BLOCK, 0), (2 * SCAN_BLOCK, SCAN_BLOCK), (_DEPTH, 2 * SCAN_BLOCK)]


def _asks(way: str) -> list:
    if way == "one-call":
        return [_DEPTH]
    if way == "blocks":
        return [*range(SCAN_BLOCK, _DEPTH, SCAN_BLOCK), _DEPTH]
    if way == "by-index":
        return list(range(1, _DEPTH + 1))
    return [*np.random.default_rng(23).integers(1, _DEPTH, size=60).tolist(), _DEPTH]


def _padded_equal(a, b, rows: int) -> bool:
    """a and b agree bit for bit on their first `rows` rows, where the
    wider one's extra columns are zero padding."""
    w = min(a.shape[1], b.shape[1])
    return (a[:rows, :w].tobytes() == b[:rows, :w].tobytes()
            and not a[:rows, w:].any() and not b[:rows, w:].any())


@pytest.mark.parametrize("spec", _GROWN, ids=lambda s: s if isinstance(s, str) else "custom")
def test_net_grown_any_way_is_the_same_net(spec, monkeypatch):
    # each ask of K > n rows leaves n' rows, K <= n' <= max(K, n +
    # min(n, SCAN_BLOCK)), also when a profile or a block of functional
    # values to K asks (c01's profile reads one grid at a time); the
    # rows, and every read of them, keep their bits whether the net grew
    # in one call, in scan blocks, one index at a time or by random asks
    probe = parse_space(spec)
    x = probe.random_element(np.random.default_rng(29))
    v = probe.unit(x)
    nets = []
    for way in ("one-call", "blocks", "by-index", "random", "profiles", "values"):
        sp = parse_space(spec)
        ask = {"profiles": lambda K: sp.distance_profile(v, K),
               "values": lambda K: sp.functional_values(x, K)}.get(way, sp._ensure)
        for K in _asks(way):
            n = len(sp._U)
            ask(K)
            grown = len(sp._U)
            assert grown == n if K <= n else K <= grown <= max(K, n + min(n, SCAN_BLOCK))
            assert len(sp._Phi) == grown
        nets.append(sp)
    first = nets[0]
    values = _bits(first.functional_values(x, _DEPTH))
    profile = _bits(first.distance_profile(v, _DEPTH))
    for sp in nets[1:]:
        assert _padded_equal(sp._U, first._U, _DEPTH)
        assert _padded_equal(sp._Phi, first._Phi, _DEPTH)
        assert _bits(sp.functional_values(x, _DEPTH)) == values
        assert _bits(sp.distance_profile(v, _DEPTH)) == profile
    # capped at _CAP rows, the cache builds every row past them from its
    # rank: streamed blocks, single rows, blocks, profiles from any lo,
    # the oracle and T(x)'s by-index read keep the uncapped net's bits
    want = _reads(first, x, v)
    monkeypatch.setattr(spaces, "NET_CACHE_ROWS", _CAP)
    capped = parse_space(spec)
    assert _reads(capped, x, v) == want
    for a, U, Phi in capped._blocks(0, _DEPTH):
        assert a + len(U) <= _CAP or a >= _CAP
        assert _padded_equal(U, first._U[a:], len(U))
        assert _padded_equal(Phi, first._Phi[a:], len(U))
    assert len(capped._U) == len(capped._Phi) == len(capped._U_buf) == _CAP


#: per kind of _GROWN, the sha256 of `_net_digest`'s rows as the nets
#: built them when each lattice level was normalized and dualized alone
_NET_DIGESTS = {
    "fdlp:dim=2,p=2": "e3c3fbe5e99bbd915aed6a27376f598c48c4b1224649daf37bf1dd74fe6cf767",
    "fdlp:dim=3,p=1.5": "589b5aa4b29f73bfcdbc5b3e95c22401e22c40ed1efd645bbba68a61bd40d29f",
    "fdlp:dim=3,p=inf": "60ec7252a8a8742e0026cdbd6e76ede3a9446763b88aa7b24791d5849ebcf61c",
    "fdlp:dim=2,p=1": "8dd83bdc78e532e8a4ff08b9fda77d7aaea0c5315b99ec98e199850c11d0ac6e",
    "seqlp:p=1,support=8": "ee62f3f41c51d9f2bae97b502e78f6260b6c3906d7912df3906a822bf3f81d6d",
    "seqlp:p=2,support=4": "72d5546366bb2675165a6386a3f0cc2b2f9e0aa04dd9004d078f400df82b25cf",
    "c01": "50cf1d072f7db3f12fd24bf661653d238bbbff88ce5aad83ec7f78d22e694675",
    "custom": "4e8704473bf580a28dd42575abe19e06c0282212da2434120c3b276ea0a4068e",
}


def _net_digest(spec) -> str:
    """The sha256 of rows 0.._DEPTH - 1 of `_U` and `_Phi`, grown in one
    call, and on fdlp of the 4096 rows built from their rank around the
    first rows of the levels that hold rows 2^40 and 2^62 (one `_blocks`
    part each: an fdlp net is one run of levels), with each matrix's
    dtype and shape."""
    sp = parse_space(spec)
    sp._ensure(_DEPTH)
    reads = [(sp._U, sp._Phi)]
    if sp.kind == "fdlp":
        for row in (2 ** 40, 2 ** 62):
            start = sp._level_of(row)[1]
            reads += [(U, Phi) for _, U, Phi in sp._blocks(start - 2048, start + 2048)]
    h = hashlib.sha256()
    for U, Phi in reads:
        for M in (U, Phi):
            h.update(f"{M.dtype} {M.shape}".encode())
            h.update(np.ascontiguousarray(M).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("spec", _GROWN, ids=lambda s: s if isinstance(s, str) else "custom")
def test_net_rows_keep_their_recorded_bits(spec):
    assert _net_digest(spec) == _NET_DIGESTS[spec if isinstance(spec, str) else "custom"]


def _padded_stack(mats: list) -> np.ndarray:
    """The rows of `mats` in order, each zero-padded to the widest."""
    out = np.zeros((sum(map(len, mats)), max(M.shape[1] for M in mats)), dtype=mats[0].dtype)
    n = 0
    for M in mats:
        out[n:n + len(M), :M.shape[1]] = M
        n += len(M)
    return out


@pytest.mark.parametrize("spec, lo, hi", [
    ("fdlp:dim=1,p=2", 0, 3000), ("fdlp:dim=1,p=inf", 2 ** 40, None),
    ("fdlp:dim=2,p=3", 0, 9000), ("fdlp:dim=2,p=1", 5, 1000), ("fdlp:dim=2,p=2", 2 ** 62, None),
    ("fdlp:dim=3,p=1.5", 0, 9000), ("fdlp:dim=3,p=inf", 2 ** 62, None),
    ("fdlp:dim=7,p=2", 2000, 2500),
    # levels 1-6 share the 3-point grid (level 5 opens at row 1220, level
    # 6 at 2550), and level 7 opens the 5-point one at row 4746
    ("c01", 0, 4800), ("c01", 2000, 4748),
])
def test_a_run_of_levels_is_built_as_its_levels(spec, lo, hi):
    # one build over a run of equal-width levels, its t and base row by
    # row, gives each level's rows as that level built alone does; with
    # no hi, the 4096 rows around the first row of the level holding lo
    sp = parse_space(spec)
    if hi is None:
        lo = sp._level_of(lo)[1] - 2048
        hi = lo + 4096
    got, want, row = list(sp._rows(lo, hi)), [], lo
    for t, start, stop in sp._levels(lo):
        end = min(stop, hi)
        want.append(sp._net_rows(spaces._lattice_rows([(t, row - start, end - start)], sp._width(t))))
        row = end
        if row == hi:
            break
    assert len(want) > len(got) == len({U.shape[1] for U, _ in want})
    for i in (0, 1):
        a, b = _padded_stack([r[i] for r in got]), _padded_stack([r[i] for r in want])
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_reads_of_narrower_blocks_keep_the_padded_bits(p, monkeypatch):
    # capped at _CAP rows, the cache and the runs built from rank below
    # row 6928, where seqlp's width-5 level opens, are 4 wide while row
    # K - 1 is 5 wide: a profile pads their missing column with zeros,
    # read as |0 - c_5|^p, and functional values skip it, with the bits of
    # the uncapped net, whose one cached block is 5 wide. Past the cap
    # each run is its own part, so the 4-wide run that ends at row 6928
    # and the 5-wide one after it are read apart
    x = {1: 0.5, 3: -1.25, 5: 2.0, 9: 0.75}
    windows = [(6929, 0), (6930, 0), (6930, 500), (6930, _CAP), (6930, 6927), (_DEPTH, 2 * SCAN_BLOCK)]
    uncapped = parse_space(f"seqlp:p={p},support=4")
    v = uncapped.unit(x)
    want = [(_bits(uncapped.distance_profile(v, K, lo)), _bits(uncapped.functional_values(x, K, lo)))
            for K, lo in windows]
    monkeypatch.setattr(spaces, "NET_CACHE_ROWS", _CAP)
    capped = parse_space(f"seqlp:p={p},support=4")
    assert [(_bits(capped.distance_profile(v, K, lo)), _bits(capped.functional_values(x, K, lo)))
            for K, lo in windows] == want
    # the narrow parts reach both ways of `_columns`: numpy's reduction
    # below COLUMNS_FROM rows and the column walk from there on
    narrow = [len(U) for K, lo in windows for _, U, _ in capped._blocks(lo, K)
              if U.shape[1] < capped._row_width(K - 1)]
    assert min(narrow) < spaces.COLUMNS_FROM <= max(narrow)
    assert [(a, U.shape) for a, U, _ in capped._blocks(0, 6930)] == [
        (0, (_CAP, 4)), (_CAP, (SCAN_BLOCK, 4)), (_CAP + SCAN_BLOCK, (6928 - _CAP - SCAN_BLOCK, 4)),
        (6928, (2, 5))]


def test_oracle_reads_past_the_cache_build_each_row_once(monkeypatch):
    # read one by one up from k = 1, the oracle takes rows in
    # ORACLE_RUN-row runs: the run from k = 961 crosses the cap, its
    # cached part read from the cache and the rest built from rank, and
    # every run after it is built from rank, so each row past the cap is
    # built once, in ORACLE_RUN-row runs
    sp = parse_space("seqlp:p=2,support=4")
    x = sp.random_element(np.random.default_rng(37))
    want = _bits(sp.functional_values(x, _DEPTH))
    monkeypatch.setattr(spaces, "NET_CACHE_ROWS", _CAP)
    sp = parse_space("seqlp:p=2,support=4")
    built, rows = [], sp._rows

    def counted(lo, hi):
        built.append((lo, hi))
        return rows(lo, hi)
    monkeypatch.setattr(sp, "_rows", counted)
    value = sp.functional_oracle(x)
    assert _bits([value(k) for k in range(1, _DEPTH + 1)]) == want
    assert [b for b in built if b[0] >= _CAP] == [
        (_CAP, 16 * ORACLE_RUN), *((a, a + ORACLE_RUN) for a in range(16 * ORACLE_RUN, _DEPTH, ORACLE_RUN))]


@pytest.mark.parametrize("spec", ["fdlp:dim=2,p=2", "seqlp:p=2,support=4", "c01"])
def test_a_fresh_oracle_read_up_past_the_cache_builds_each_row_once(spec, monkeypatch):
    # read up from k = NET_CACHE_ROWS + 7000 on a fresh oracle, every
    # read past the cap starts or continues an ORACLE_RUN-row run, never
    # a build of its one row: each row is built once, the cache grows
    # not at all, and every value is the block's
    sp = parse_space(spec)
    x = sp.random_element(np.random.default_rng(41))
    first, count = NET_CACHE_ROWS + 7000, 40 * ORACLE_RUN + 9
    want = _bits(parse_space(spec).functional_values(x, first + count - 1, first - 1))
    built, rows = [], sp._rows

    def counted(lo, hi):
        built.append((lo, hi))
        return rows(lo, hi)
    monkeypatch.setattr(sp, "_rows", counted)
    value = sp.functional_oracle(x)
    assert _bits([value(k) for k in range(first, first + count)]) == want
    assert built == [(a, a + ORACLE_RUN) for a in range(first - 1, first + count - 1, ORACLE_RUN)]
    assert len(sp._U) == 0
    # a cold read of T(x) at n = 2^62 + 1 builds the one run from k = 2^61 + 1
    built.clear()
    assert _bits([coordinate(embed_t1(sp, x), 2 ** 62 + 1)]) == _bits([value(2 ** 61 + 1)])
    assert built == [(2 ** 61, 2 ** 61 + ORACLE_RUN)] * 2 and len(sp._U) == 0


_SLOT_KINDS = ["fdlp:dim=2,p=1", "fdlp:dim=2,p=2", "fdlp:dim=3,p=3", "fdlp:dim=3,p=inf",
               "seqlp:p=2,support=4", "c01", _KINDS[3]]
_SLOT_IDS = ["fdlp-p1", "fdlp-p2", "fdlp-p3", "fdlp-pinf", "seqlp", "c01", "custom"]


@pytest.mark.parametrize("warm, widen", [(0, False), (4746, False), (6928, False), (4746, True)],
                         ids=["cold", "warm-4746", "warm-6928", "widened-under-a-run"])
@pytest.mark.parametrize("spec", _SLOT_KINDS, ids=_SLOT_IDS)
def test_oracle_row_runs_keep_the_block_bits(spec, warm, widen):
    # the oracle reads rows up from k = 1 in ORACLE_RUN-row runs and any
    # other row on its own. Read up across every run edge, c01's 5-point
    # grid (row 4747) and seqlp's width-5 level (row 6929), each opened
    # mid-run by a run that grows the cache warmed to just below it, or
    # (`widen`) with a block read to row 9000 after k = 4690, which
    # widens the cache under a run of narrower lists; up across
    # NET_CACHE_ROWS - 1, NET_CACHE_ROWS and NET_CACHE_ROWS + 1; then
    # down, scattered, past the cap and back down across it: every value
    # is the block's, bit for bit
    probe = parse_space(spec)
    x = probe.random_element(np.random.default_rng(43))
    want = probe.functional_values(x, NET_CACHE_ROWS + 5000)
    ks = [*range(4691, NET_CACHE_ROWS + 2), *range(3 * ORACLE_RUN + 5, 0, -7),
          *np.random.default_rng(53).integers(1, NET_CACHE_ROWS + 5000, size=40).tolist(),
          NET_CACHE_ROWS + 5000, *range(NET_CACHE_ROWS + 3, NET_CACHE_ROWS - 3, -1)]
    sp = parse_space(spec)
    sp._ensure(warm)
    value = sp.functional_oracle(x)
    got = [value(k) for k in range(1, 4691)]
    if widen:
        sp.functional_values(x, 9000)
    got += [value(k) for k in ks]
    assert _bits(got) == _bits(want[[*range(4690), *(k - 1 for k in ks)]])


def _raising(*args):
    raise AssertionError("the scalar path summed a block")


@pytest.mark.parametrize("spec", _SLOT_KINDS, ids=_SLOT_IDS)
def test_scalar_reads_never_sum_a_block(spec, monkeypatch):
    # every phi_k(x) of the scalar path is `_dot_row` over its row list:
    # with `_dot_rows` raising, the oracle and T(x)'s `coordinate` read up,
    # down, scattered and past the cap, with the block's bits
    probe = parse_space(spec)
    x = probe.random_element(np.random.default_rng(59))
    want = probe.functional_values(x, NET_CACHE_ROWS + 10)
    monkeypatch.setattr(spaces, "_dot_rows", _raising)
    ks = [*range(1, 3 * ORACLE_RUN), *range(100, 0, -9), 5000, 777, NET_CACHE_ROWS + 10]
    sp = parse_space(spec)
    value = sp.functional_oracle(x)
    assert _bits([value(k) for k in ks]) == _bits(want[[k - 1 for k in ks]])
    t = embed_t1(parse_space(spec), x)
    assert _bits([coordinate(t, 2 * k - 1) for k in ks]) == _bits(want[[k - 1 for k in ks]])


#: runs of successive k, each (first k, length, going down); a first k
#: of 0 goes on from one past the last k read, any other is a jump
_READ_ORDERS = st.lists(st.tuples(st.just(0) | st.integers(1, 1400), st.integers(1, 150),
                                  st.booleans()), min_size=1, max_size=8)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_SLOT_KINDS), st.integers(0, 1200), _READ_ORDERS)
@example(_SLOT_KINDS[5], 0, [(1, 150, False)] + [(0, 150, False)] * 7)
def test_oracle_reads_in_any_order_keep_the_block_bits(spec, warm, runs):
    # under a cap of _CAP rows, which falls inside the run from k = 961,
    # runs are cut at the cap and rows past it come by rank
    probe = parse_space(spec)
    x = probe.random_element(np.random.default_rng(61))
    want = probe.functional_values(x, 2600)
    ks = []
    for start, length, down in runs:
        start = start or (ks[-1] + 1 if ks else 1)
        ks += range(start, max(start - length, 0), -1) if down else range(start, start + length)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spaces, "NET_CACHE_ROWS", _CAP)
        sp = parse_space(spec)
        sp._ensure(warm)
        value = sp.functional_oracle(x)
        got = [value(k) for k in ks]
    assert _bits(got) == _bits(want[[k - 1 for k in ks]])


def _reads(sp, x, v) -> list:
    """The bits of every read of rows 1.._DEPTH of sp's net."""
    value = sp.functional_oracle(x)
    out = [_bits(sp.functional_values(x, K)) for K in (_DEPTH, _CAP + 1, 5000)]
    for K, lo in _WINDOWS:
        out += [_bits(sp.distance_profile(v, K, lo)), _bits(sp.functional_values(x, K, lo))]
    for k in _KS:
        out += [_element_bits(sp.net_point(k)), _bits(sp.norming_functional(k).row),
                _bits([value(k)])]
    ns = np.array([n for k in _KS for n in (2 * k - 1, 2 * k)])
    t = embed_t1(sp, x)
    out.append(_bits(coordinates_at(t, ns)))
    out += [_bits(t.coordinates(lo, hi)) for lo, hi in ((1, 2 * _DEPTH), (2 * _CAP - 1, 2 * _CAP + 2),
                                                         (2 * _CAP + 2, 2 * _DEPTH - 1), (5, 5))]
    return out


@pytest.mark.parametrize("spec, shared, itemsize", [
    ("fdlp:dim=2,p=2", True, 8), ("seqlp:p=2,support=4", True, 8), (_KINDS[3], True, 8),
    ("fdlp:dim=2,p=1.5", False, 8), ("fdlp:dim=3,p=inf", False, 1),
    ("seqlp:p=1,support=8", False, 1), ("fdlp:dim=2,p=1", False, 1), ("c01", False, 1),
    ({"kind": "custom", "p": 2, "points": [[-0.0, 1.0], [1.0, 0.0]]}, False, 8),
    ({"kind": "custom", "p": "inf", "points": [[1.0, -0.5], [0.25, -1.0]]}, False, 1),
], ids=["fdlp-2", "seqlp-2", "custom-2", "fdlp-1.5", "fdlp-inf", "seqlp-1", "fdlp-1",
        "c01", "custom-negative-zero", "custom-inf"])
def test_p2_points_are_their_own_functionals(spec, shared, itemsize):
    # at p = 2 sign(u)|u| = u bit for bit, so one matrix is built and
    # kept for both, through every growth; not so for a -0.0 entry,
    # which the duality map makes +0.0. At p = 1 and p = inf (c01's
    # point masses too) the default duality rows hold -1, 0, +1 in one
    # byte an entry, and a functional still hands out floats
    sp = parse_space(spec)
    for K in (1, 7, 300, 5000):
        sp._ensure(K)
        assert (sp._Phi is sp._U) == shared
        assert sp._Phi.itemsize == sp._Phi_buf.itemsize == itemsize
    for k in (1, 2, 3, 4999):
        assert {type(f) for f in sp.norming_functional(k).row} == {float}
    if isinstance(spec, dict) and sp.p == 2.0:
        for k in (1, 2, 3):
            u = np.asarray(sp.net_point(k))
            assert _bits(sp.norming_functional(k).row) == \
                _bits(np.trim_zeros(np.sign(u) * np.abs(u), "b"))


def _element_bits(x) -> bytes:
    if isinstance(x, dict):
        return np.array([v for _, v in sorted(x.items())]).tobytes() + repr(sorted(x)).encode()
    if hasattr(x, "breaks"):
        return np.array(x.breaks + x.values).tobytes()
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("spec, extra", [
    ("fdlp:dim=3,p=1.5", [[619785566.3086329, -0.0, 5e-324]]),
    ("seqlp:p=3,support=4", [{1: 619785566.3086329, 9: -1e-300, 4: 2.5}]),
    ("c01", [pl_function((0.0, 0.1, 1.0), (-0.0, 1e16, 0.1))]),
    (_KINDS[3], [[0.6, -0.8]]),
], ids=["fdlp", "seqlp", "c01", "custom"])
def test_element_json_round_trip(spec, extra):
    # through JSON text and back, bit for bit, as the CLI reads samples
    sp, rng = parse_space(spec), np.random.default_rng(17)
    xs = [f(rng) for f in (sp.random_element, sp.lattice_sample) for _ in range(5)] + extra
    for x in xs:
        text = json.dumps(sp.element_to_json(x))
        back = sp.element_from_json(json.loads(text))
        assert json.dumps(sp.element_to_json(back)) == text
        assert _element_bits(back) == _element_bits(sp.canonical(x)), text


def test_functional_does_not_change_as_the_cache_grows():
    # the cache pads its rows to the widest level; a functional is its
    # row without that padding
    sp = SeqLp(2)
    first = sp.norming_functional(1)
    assert sp._Phi.shape == (1, 1)
    sp.net_point(30)
    assert sp._Phi.shape[1] > 1
    assert sp.norming_functional(1) == first


@pytest.mark.parametrize("spec", ["fdlp:dim=2,p=2", "fdlp:dim=3,p=1.5",
                                  "seqlp:p=2,support=4", "c01"])
def test_functional_values_do_not_depend_on_window(spec):
    sp = parse_space(spec)
    x = sp.random_element(np.random.default_rng(11))
    full = sp.functional_values(x, 600)
    for K in (1, 2, 7, 26, 343, 599):
        assert np.array_equal(sp.functional_values(x, K), full[:K])
        for lo in {0, K // 2, K - 1}:
            assert _bits(sp.functional_values(x, K, lo)) == _bits(full[lo:K])


def test_net_distance_worked_value():
    # nearest grid direction to (0.6, 0.8) through level 2 is (1,1)/sqrt(2)
    sp = FiniteDimLp(2, 2)
    d = sp.net_distance(np.array([0.6, 0.8]), 8 + 24)
    expected = math.dist((0.6, 0.8), (1 / SQ2, 1 / SQ2))
    assert d == pytest.approx(expected, abs=1e-12)
    assert d == pytest.approx(0.1418, abs=5e-4)


def test_net_distance_monotone_in_k():
    sp = FiniteDimLp(2, 2)
    v = sp.unit(np.array([2.0, -3.0]))
    dists = [sp.net_distance(v, K) for K in (4, 8, 32, 128, 512)]
    assert all(a >= b for a, b in zip(dists, dists[1:]))


def test_net_distance_requires_unit_vector():
    sp = FiniteDimLp(2, 2)
    with pytest.raises(NotUnitVector):
        sp.net_distance(np.array([3.0, 4.0]), 8)
    with pytest.raises(IndexZero):
        sp.net_distance(np.array([1.0, 0.0]), 0)


def test_unit_rejects_zero():
    with pytest.raises(ZeroElement):
        FiniteDimLp(2, 2).unit(np.zeros(2))


def test_kind_mismatch_between_spaces():
    phi = FiniteDimLp(2, 2).norming_functional(1)
    with pytest.raises(KindMismatch):
        SeqLp(2.0).apply_functional(phi, {1: 1.0})


def test_fdlp_shape_checked():
    with pytest.raises(KindMismatch):
        FiniteDimLp(2, 2).norm([1.0, 2.0, 3.0])


# -- finitely supported sequences ----------------------------------------

def test_seqlp_norm_and_canonical():
    sp = SeqLp(2.0)
    assert sp.norm({1: 3.0, 5: 4.0}) == 5.0
    assert sp.norm({2: 0.0}) == 0.0
    assert sp.canonical({3: 0.0, 1: 2.0}) == {1: 2.0}


def test_seqlp_support_cap_enforced():
    sp = SeqLp(1.0, support_cap=2)
    with pytest.raises(KindMismatch):
        sp.canonical({1: 1.0, 2: 1.0, 3: 1.0})


def test_seqlp_rejects_bad_support():
    with pytest.raises(KindMismatch):
        SeqLp(2.0).canonical({0: 1.0})
    with pytest.raises(KindMismatch):
        SeqLp(2.0).canonical([1.0, 2.0])


@pytest.mark.parametrize("x", [
    {1.5: 2.0, True: 3.0},          # int() would fold both into {1: 3.0}
    {"01": 2.0, "1": 3.0}, {"1_0": 2.0}, {1.9: 1.0, 1: 1.0}, {False: 1.0},
    {np.float64(2.0): 1.0}, {np.bool_(True): 1.0},
])
def test_seqlp_keys_are_ints_not_folded(x):
    sp = SeqLp(2.0)
    with pytest.raises(KindMismatch):
        sp.canonical(x)
    with pytest.raises(KindMismatch):
        sp.norm(x)


def test_seqlp_takes_numpy_int_keys():
    sp = SeqLp(2.0)
    x = sp.canonical({np.int64(2): 1.0, np.int32(5): -2.0})
    assert x == {2: 1.0, 5: -2.0} and set(map(type, x)) == {int}
    assert sp.norm({1: 1.0, 2: 1.0}) == SQ2


def test_seqlp_net_and_functionals():
    sp = SeqLp(2.0)
    # level 1: supports {1} with values -1, 1
    assert sp.net_point(1) == {1: -1.0}
    assert sp.net_point(2) == {1: 1.0}
    for k in range(1, 30):
        u = sp.net_point(k)
        assert sp.norm(u) == pytest.approx(1.0, abs=1e-12)
        assert sp.apply_functional(sp.norming_functional(k), u) == \
            pytest.approx(1.0, abs=1e-12)


def test_seqlp_distance_counts_off_width_support():
    sp = SeqLp(1.0)
    # early net points live on coordinates 1..2; mass at index 50 is
    # orthogonal and must contribute fully
    d = sp.distance_profile({50: 1.0}, 2)
    assert d[0] == pytest.approx(2.0)


def test_seqlp_distance_profile_ignores_cache_depth():
    # a deeper cache holds wider rows; the profile of the first K rows
    # must not change with it
    rng = np.random.default_rng(4)
    warm = SeqLp(2.0)
    warm.net_point(10000)
    for _ in range(20):
        v = SeqLp(2.0).unit({i: float(rng.standard_normal()) for i in (1, 4, 5)})
        for K in (26, 368):
            fresh = SeqLp(2.0).distance_profile(v, K)
            assert fresh.tobytes() == warm.distance_profile(v, K).tobytes()


# -- piecewise-linear functions ------------------------------------------

def test_pl_function_validation():
    with pytest.raises(ConfigError):
        pl_function((0.0, 0.5), (1.0, 2.0, 3.0))
    with pytest.raises(ConfigError):
        pl_function((0.0, 0.5, 0.9), (1.0, 2.0, 3.0))
    with pytest.raises(ConfigError):
        pl_function((0.0, 0.5, 0.5, 1.0), (1.0, 2.0, 3.0, 4.0))
    with pytest.raises(ConfigError):
        pl_function((0.0,), (1.0,))
    # a NaN breakpoint fails no order comparison, and gave isometry_defect
    # a NaN lower bound
    for breaks, values in (([0, math.nan, 1], [3, -4, 1]), ([0, 1], [math.inf, 0]),
                           ((0.0, 1.0), (1.0, -math.inf))):
        with pytest.raises(ConfigError, match="PL function has a value that is not a finite"):
            pl_function(breaks, values)


def test_c01_norm_is_breakpoint_max():
    sp = ContinuousPL()
    f = pl_function((0.0, 0.25, 1.0), (1.0, -3.0, 0.5))
    assert sp.norm(f) == 3.0


def test_c01_net_points_unit_and_normed():
    sp = ContinuousPL()
    for k in range(1, 25):
        u = sp.net_point(k)
        assert sp.norm(u) == pytest.approx(1.0, abs=1e-12)
        phi = sp.norming_functional(k)
        assert sp.apply_functional(phi, u) == pytest.approx(1.0, abs=1e-12)


def test_c01_point_mass_application():
    sp = ContinuousPL()
    f = pl_function((0.0, 0.5, 1.0), (0.0, 4.0, 0.0))
    phi = sp.norming_functional(1)
    assert abs(sp.apply_functional(phi, f)) <= sp.norm(f)


def test_c01_distance_profile_matches_direct():
    sp = ContinuousPL()
    v = sp.unit(pl_function((0.0, 0.5, 1.0), (1.0, -1.0, 0.5)))
    prof = sp.distance_profile(v, 30)
    for k in (1, 7, 19, 30):
        diff = pl_subtract(sp.net_point(k), v)
        assert prof[k - 1] == pytest.approx(sp.norm(diff), abs=1e-12)


# -- explicit cyclic nets --------------------------------------------------

def test_custom_net_cycles():
    sp = CustomNet([(1.0, 0.0), (0.0, 1.0)])
    assert np.array_equal(sp.net_point(3), [1.0, 0.0])
    vals = sp.functional_values(np.array([2.0, 5.0]), 5)
    assert list(vals) == [2.0, 5.0, 2.0, 5.0, 2.0]


def _cycle_points(p):
    rows = [np.array(w) for w in ([3.0, -2.0], [1.0, 0.0], [-1.0, 4.0])]
    return [w / FiniteDimLp(2, p).norm(w) for w in rows]


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, math.inf])
def test_custom_net_reads_its_cycle_rows(p):
    # the cycle's own rows, read point by point: values by
    # apply_functional, profiles by the norm of each difference
    pts = _cycle_points(p)
    ref = CustomNet(pts, p)
    x = np.array([0.7, -1.3])
    v = ref.unit(np.array([2.0, 1.0]))
    phis = [ref.norming_functional(k) for k in (1, 2, 3)]
    vals = np.tile([ref.apply_functional(phi, x) for phi in phis], 3)
    prof = np.tile([ref.norm(pt - v) for pt in pts], 3)
    stepped = CustomNet(pts, p)
    for K in range(1, 10):
        for k in (K, 1):                # grown one index at a time, then read back
            assert _bits(stepped.net_point(k)) == _bits(pts[(k - 1) % 3])
            assert stepped.norming_functional(k) == phis[(k - 1) % 3]
        assert _bits(stepped.functional_values(x, K)) == _bits(vals[:K])
        assert _bits(CustomNet(pts, p).functional_values(x, K)) == _bits(vals[:K])
        for lo in range(K):
            part = stepped.distance_profile(v, K, lo)
            assert _bits(CustomNet(pts, p).distance_profile(v, K, lo)) == _bits(part)
            if p != 1.5:                # the profile's array root may round apart
                assert _bits(part) == _bits(prof[lo:K])
            assert part == pytest.approx(prof[lo:K], rel=1e-15)
    assert len(stepped._U) >= 9         # the cache grows with K, as for every kind


def test_custom_net_validates_points():
    with pytest.raises(ConfigError):
        CustomNet([(2.0, 0.0)])
    # all points are normed at once; the error names the first off the sphere
    with pytest.raises(ConfigError, match=r"point \[0\.   1\.25\] is not unit"):
        CustomNet([[0.6, 0.8], [1.0, 0.0], [0.0, 1.25], [0.0, -1.0], [2.0, 0.0]])
    for points in ([], 5, "ab", [["0.6", "0.8"]], [[0.6, 0.8], [1.0]],
                   [[math.nan, 1.0]], [[True, False]]):
        with pytest.raises(ConfigError):
            CustomNet(points)


def test_custom_net_dualizes_its_cycle_once():
    # a -0.0 only in the second point: the duality map makes it +0.0,
    # so Phi is not U for the net, also while it holds the first point
    # alone; every block agrees, and reads keep the bits of the scalar
    # oracle
    points = np.array([[1.0, 0.0], [-0.0, 1.0]])
    sp, x = CustomNet(points, 2.0), np.array([0.7, -1.3])
    oracle = sp.functional_oracle(x)
    for K in (1, 2, 7):
        sp._ensure(K)
        n = len(sp._U)
        assert sp._Phi is not sp._U
        cycled = points[np.arange(n) % 2]
        assert _bits(sp._Phi) == _bits(np.sign(cycled) * np.abs(cycled))
        assert _bits(sp.functional_values(x, K)) == _bits([oracle(k) for k in range(1, K + 1)])


# -- profiles from a start row -----------------------------------------------

@pytest.mark.parametrize("spec, K, starts", [
    ("fdlp:dim=2,p=2", 9000, (1, 24, 4904, 8999)),
    ("fdlp:dim=3,p=1.5", 9000, (1, 342, 4904, 8999)),
    ("fdlp:dim=2,p=inf", 9000, (1, 4904, 8999)),
    # seqlp levels start at rows 2, 26, 368 and 6928
    ("seqlp:p=1.5,support=4", 9000, (1, 25, 26, 367, 4904, 6928, 8999)),
    ({"kind": "custom", "points": [[0.6, 0.8], [1.0, 0.0], [0.0, -1.0]]}, 10, (1, 4, 9)),
    # row 4746 is the first row of level 7, the first on the finer grid
    ("c01", 4800, (1, 704, 4745, 4746, 4747, 4799)),
])
def test_distance_profile_from_a_start_row(spec, K, starts):
    full = parse_space(spec)
    v = full.unit(full.random_element(np.random.default_rng(5)))
    profile = full.distance_profile(v, K)
    for lo in (0,) + starts:
        part = parse_space(spec).distance_profile(v, K, lo)   # a fresh cache
        assert _bits(part) == _bits(profile[lo:])
        assert _bits(full.distance_profile(v, K, lo)) == _bits(profile[lo:])


# -- spec parsing ----------------------------------------------------------

def test_parse_space_strings():
    sp = parse_space("fdlp:dim=3,p=1.5")
    assert isinstance(sp, FiniteDimLp) and sp.dim == 3 and sp.p == 1.5
    assert math.isinf(parse_space("fdlp:dim=2,p=inf").p)
    sq = parse_space("seqlp:p=1,support=4")
    assert isinstance(sq, SeqLp) and sq.support_cap == 4
    assert isinstance(parse_space("c01"), ContinuousPL)


def test_parse_space_dict(tmp_path):
    sp = parse_space({"kind": "custom", "points": [[0.0, 1.0]], "p": 2})
    assert isinstance(sp, CustomNet)
    sq = parse_space({"kind": "seqlp", "p": 1.5, "support": 3})
    assert isinstance(sq, SeqLp) and sq.p == 1.5 and sq.support_cap == 3
    # a custom net is given inline only; no spec names a file to open
    path = tmp_path / "net.json"
    path.write_text('{"kind": "custom", "points": [[0.6, 0.8]], "p": 2}')
    with pytest.raises(ConfigError):
        parse_space(f"custom:{path}")


@pytest.mark.parametrize("bad", [
    "fdlp:dim=0,p=2", "fdlp:p=2", "fdlp:dim=2,p=0.5", "seqlp:p=inf",
    "wavelets", "fdlp:dim=2,p=2,extra=1", "fdlp:dim=2,p",
    "fdlp:dim=abc", "seqlp:p=2,support=x",
    {"kind": "fdlp", "dim": 2, "extra": 1}, {"kind": "custom"}, "c01:foo=1",
    {"kind": ["fdlp"], "dim": 2},
    "fdlp:dim=2,kind=seqlp", {"kind": "custom", "p": 2}, [[1.0, 0.0]],
    {"kind": "custom", "points": [[1.0, 0.0]], "functionals": [[1.0, 0.0]]},
])
def test_parse_space_rejects(bad):
    with pytest.raises(ConfigError):
        parse_space(bad)


# -- the net cache: enumeration order and memory -----------------------------

def _reference_net(width, p, count):
    """The first `count` (unit row, duality row) pairs of a net, listed
    one point at a time: level t runs through {-t..t}^width(t) in
    itertools.product order, zero skipped, each row normalized by its
    own p-norm. For c01 (p = inf) the duality row marks the grid point
    of the point mass."""
    out = []
    for t in itertools.count(1):
        for w in itertools.product(range(-t, t + 1), repeat=width(t)):
            if not any(w):
                continue
            w = np.array(w, dtype=float)
            if math.isinf(p):
                u = w / np.max(np.abs(w))
                i = int(np.argmax(np.abs(u) >= 1.0 - 1e-12))
                phi = np.zeros_like(u)
                phi[i] = math.copysign(1.0, u[i])
            elif p == 1.0:
                u = w / np.sum(np.abs(w))
                phi = np.sign(u)
            elif p == 2.0:
                u = w / np.sqrt(np.sum(w * w))
                phi = np.sign(u) * np.abs(u)
            else:
                u = w / np.sum(np.abs(w) ** p) ** (1.0 / p)
                phi = np.sign(u) * np.abs(u) ** (p - 1.0)
            out.append((u, phi))
            if len(out) == count:
                return out


def _c01_grid_points(t):
    return 2 ** ((t + 5) // 6) + 1


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def _grown(make, count):
    """The same net grown one index at a time and in one call."""
    one_by_one = make()
    at_once = make()
    at_once.net_point(count)
    return one_by_one, at_once


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_fdlp_net_matches_reference_enumeration(dim, p):
    count = 1500
    ref = _reference_net(lambda t: dim, p, count)
    for sp in _grown(lambda: FiniteDimLp(dim, p), count):
        for k, (u, phi) in enumerate(ref, start=1):
            assert _bits(sp.net_point(k)) == _bits(u)
            assert _bits(sp.norming_functional(k).row) == _bits(np.trim_zeros(phi, "b"))


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_net_whose_first_level_passes_int64(p):
    # fdlp:dim=50's level 1 holds 3^50 - 1 rows, more than 2^63: its
    # level ends and the zero row's rank must never be int64
    count = 200
    ref = _reference_net(lambda t: 50, p, count)
    for sp in _grown(lambda: parse_space(f"fdlp:dim=50,p={p}"), count):
        for k, (u, phi) in enumerate(ref, start=1):
            assert _bits(sp.net_point(k)) == _bits(u)
            assert _bits(sp.norming_functional(k).row) == _bits(np.trim_zeros(phi, "b"))
    x = sp.random_element(np.random.default_rng(31))
    want = []
    for _, phi in ref:
        acc = 0.0
        for f, v in zip(phi.tolist(), x.tolist()):
            acc += f * v
        want.append(acc)
    assert _bits(sp.functional_values(x, count)) == _bits(want)
    v = sp.unit(x)
    assert sp.distance_profile(v, count, 50) == pytest.approx(
        [sp.norm(v - u) for u, _ in ref[50:]], abs=1e-12)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_seqlp_net_matches_reference_enumeration(p):
    count = 1500
    ref = _reference_net(lambda t: t, p, count)
    for sp in _grown(lambda: SeqLp(p), count):
        for k, (u, phi) in enumerate(ref, start=1):
            point = sp.net_point(k)
            assert list(point) == [i + 1 for i in np.flatnonzero(u)]
            assert _bits(list(point.values())) == _bits(u[u != 0.0])
            assert _bits(sp.norming_functional(k).row) == _bits(np.trim_zeros(phi, "b"))


def test_c01_net_matches_reference_enumeration():
    # levels 1-6 use the grid {0, 1/2, 1}; level 7 opens {0, 1/4, ..., 1}
    # at k = 4747. A functional row is the reference duality row in the
    # grid's nested order
    count = 4800
    ref = _reference_net(_c01_grid_points, math.inf, count)
    assert len(ref[4745][0]) == 3 and len(ref[4746][0]) == 5
    for sp in _grown(ContinuousPL, count):
        for k, (u, phi) in enumerate(ref, start=1):
            f = sp.net_point(k)
            assert _bits(f.breaks) == _bits(np.linspace(0.0, 1.0, len(u)))
            assert _bits(f.values) == _bits(u)
            assert _bits(sp.norming_functional(k).row) == \
                _bits(np.trim_zeros(phi[nested_order(len(u))], "b"))


def _c01_samples():
    """A generic PL function, and one that vanishes at grid points 0
    and 3/4, where a point mass of sign -1 reads -1 * 0.0 = -0.0."""
    return [pl_function((0.0, 0.3, 1.0), (1.0, -2.0, 0.5)),
            pl_function((0.0, 0.5, 1.0), (0.0, 2.0, -2.0))]


def test_c01_functionals_are_point_masses():
    # phi_k(x) against sign * x(t_k), with t_k and the sign from the
    # reference net and x interpolated at t_k alone: equal up to the
    # sign of zero (adding 0.0 makes a -0.0 +0.0 and leaves the rest)
    count = 4800
    ref = _reference_net(_c01_grid_points, math.inf, count)
    for x in _c01_samples():
        want = np.array([point_mass_value(x, phi) for _, phi in ref])
        got = ContinuousPL().functional_values(x, count)
        assert _bits(got + 0.0) == _bits(want + 0.0)


def test_c01_functional_is_never_negative_zero():
    # each read sums from 0.0, as for every kind, and 0.0 + -0.0 is +0.0
    sp = ContinuousPL()
    x = _c01_samples()[1]
    value = sp.functional_oracle(x)
    for vals in (sp.functional_values(x, 4800), [value(k) for k in range(1, 4801)],
                 [sp.apply_functional(sp.norming_functional(k), x) for k in range(1, 4801)]):
        vals = np.asarray(vals)
        assert (vals == 0.0).any() and not np.signbit(vals[vals == 0.0]).any()


def test_c01_net_lists_only_what_it_reaches():
    # level 7 has 15^5 - 1 = 759374 rows of 5 values; listing it whole
    # would take over 30 MB for the points alone
    tracemalloc.start()
    try:
        ContinuousPL().net_point(4800)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
