import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from seqembed import (BoundedSeq, ConfigError, FiniteDimLp, IndexZero,
                      LengthMismatch, EmptyWindow, SubspaceD, bw_extract,
                      cluster_estimates, combine, coordinate,
                      coordinates_at, embed_t1,
                      eventually_constant, explicit_limit,
                      from_function, parse_space, periodic, prefix_sup, scheme_embed,
                      zero_seq)
from seqembed.seqcore import EventuallyConstant, structural_limit
from reference import all_cluster_estimates, end_cluster_estimates


def test_periodic_coordinates():
    s = periodic([-1.0, 1.0])
    assert [coordinate(s, n) for n in range(1, 7)] == [-1, 1, -1, 1, -1, 1]
    assert s.bound == 1.0


def test_periodic_three_cycle():
    s = periodic([1.0, -1.0, 0.0])
    assert coordinate(s, 3) == 0.0
    assert coordinate(s, 4) == 1.0
    assert coordinate(s, 300) == 0.0


def test_periodic_rejects_empty_pattern():
    with pytest.raises(LengthMismatch):
        periodic([])


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build", [
    lambda: periodic([NAN, 1.0]),
    lambda: eventually_constant(INF),
    lambda: eventually_constant(NAN, start=2),
    lambda: explicit_limit(NAN, 1.0),
    lambda: explicit_limit(0.0, -INF),
    lambda: combine((1.0, NAN), (periodic([1.0]), periodic([-1.0]))),
    lambda: from_function(lambda n: 0.0, -1.0),
    lambda: from_function(lambda n: 0.0, NAN),
    lambda: from_function(lambda n: 0.0, INF),
    # finite values whose sup-norm bound overflows
    lambda: combine((2.0,), (periodic([1e308, -1e308]),)),
    lambda: explicit_limit(1e308, 1e308),
])
def test_constructors_reject_non_finite_values(build):
    with pytest.raises(ConfigError):
        build()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_coordinates_reject_values_that_are_not_finite(bad):
    # the oracle path and the block path alike
    oracle = lambda n: bad if n == 7 else 1.0
    block = lambda lo, hi: np.array([oracle(n) for n in range(lo, hi + 1)])
    for s in (BoundedSeq(oracle, 1.0), BoundedSeq(oracle, 1.0, block=block)):
        with pytest.raises(ValueError, match="coordinates 3..9 hold a value"):
            s.coordinates(3, 9)
        assert s.coordinates(1, 6).tolist() == [1.0] * 6


def test_coordinates_reject_a_read_of_the_wrong_length():
    # numpy's arange over a window that reaches 2^63 - 1 is empty, on
    # the block path (periodic) and the oracle path (from_function)
    # alike; a block that returns too many values is refused too
    hi = 2 ** 63 - 1
    long = BoundedSeq(lambda n: 1.0, 1.0, block=lambda lo, hi: np.ones(hi - lo + 2))
    for s, lo in ((periodic([1.0, -1.0]), 1), (from_function(lambda n: 1.0, 1.0), 2), (long, hi)):
        with pytest.raises(ValueError, match=f"coordinates {lo}..{hi} read [02] values"):
            s.coordinates(lo, hi)
    assert periodic([1.0, -1.0]).coordinates(hi - 1, hi).tolist() == [-1.0, 1.0]
    assert from_function(lambda n: n % 3, 2.0).coordinates(hi - 1, hi).tolist() == [0.0, 1.0]


def test_index_zero_rejected():
    # the readers check the index; no oracle checks it again
    sp, x = FiniteDimLp(2, 2), np.array([3.0, 4.0])
    scheme = bw_extract(SubspaceD("finite", (periodic([-1.0, 1.0]),)), 2, 64)
    for s in (periodic([1.0]), eventually_constant(2.0, 3),
              explicit_limit(1.0, 2.0), zero_seq(),
              from_function(lambda n: 1.0 / n, 1.0),
              combine([1.0, 2.0], [periodic([1.0]), from_function(float, 1e9)]),
              embed_t1(sp, x), scheme_embed(sp, scheme, x)):
        with pytest.raises(IndexZero):
            coordinate(s, 0)
        with pytest.raises(IndexZero):
            s.coordinates(0, 5)
        with pytest.raises(IndexZero):
            coordinates_at(s, [3, 0])
    with pytest.raises(IndexZero):
        prefix_sup(periodic([1.0]), 0)


def test_eventually_constant_head():
    # the head, indices 1..start-1, is zeros
    s = eventually_constant(-3.0, start=3)
    assert [coordinate(s, n) for n in (1, 2, 3, 1000)] == [0.0, 0.0, -3.0, -3.0]
    assert s.bound == 3.0
    assert s.tag == EventuallyConstant(-3.0, 3)


def test_eventually_constant_start_checked():
    for start in (0, -1):
        with pytest.raises(IndexZero):
            eventually_constant(1.0, start=start)
    for start in (2.5, True, 2 ** 63, np.int64(3), "3"):
        with pytest.raises(ConfigError):
            eventually_constant(1.0, start=start)
    assert coordinate(eventually_constant(1.0, 2 ** 63 - 1), 2 ** 63 - 1) == 1.0


def test_eventually_constant_after_prefix():
    s = eventually_constant(0.5, 3)
    assert coordinate(s, 2) == 0.0
    assert coordinate(s, 3) == 0.5
    assert s.bound == 0.5
    assert structural_limit(s, 10) == (0.5, 0.0)


@pytest.mark.parametrize("start", [1, 2, 7, 2 ** 62, 2 ** 63 - 4])
@pytest.mark.parametrize("value", [2.5, -0.0])
def test_eventually_constant_reads_agree_across_the_start(start, value):
    # a window from three below the start to three past it, read by the
    # oracle, the block and `at` (reversed, with a repeat)
    s = eventually_constant(value, start)
    lo, hi = max(1, start - 3), start + 3
    oracle = [s.oracle(n) for n in range(lo, hi + 1)]
    assert oracle == [0.0] * (start - lo) + [value] * 4
    assert _bits(s.coordinates(lo, hi)) == _bits(oracle)
    ns = np.array([hi, *range(hi, lo - 1, -1)], dtype=np.int64)
    assert _bits(s.at(ns)) == _bits([s.oracle(n) for n in ns.tolist()])


def test_explicit_limit_values():
    s = explicit_limit(2.0, 1.0)
    assert coordinate(s, 1) == 3.0
    assert coordinate(s, 4) == 2.25
    assert s.bound == 3.0


def test_zero_seq():
    z = zero_seq()
    assert z.bound == 0.0
    assert prefix_sup(z, 100) == 0.0


def test_prefix_sup_periodic():
    assert prefix_sup(periodic([-1.0, 1.0]), 10) == 1.0
    assert prefix_sup(explicit_limit(0.0, 2.0), 8) == 2.0


def test_prefix_sup_monotone_and_bounded():
    s = from_function(lambda n: math.sin(n) * 0.9, 0.9)
    sups = [prefix_sup(s, N) for N in (1, 4, 16, 64)]
    assert all(a <= b for a, b in zip(sups, sups[1:]))
    assert sups[-1] <= s.bound


def test_coordinates_block_agrees_with_oracle():
    s = combine([2.0, 1.0], [periodic([-1.0, 1.0]), explicit_limit(1.0, 0.5)])
    window = s.coordinates(3, 10)
    direct = [coordinate(s, n) for n in range(3, 11)]
    assert np.array_equal(window, direct)


_VALUES = st.floats(-10, 10)
_LEAVES = st.one_of(
    st.lists(_VALUES, min_size=1, max_size=5).map(periodic),
    st.builds(eventually_constant, _VALUES, st.integers(1, 7)),
    st.builds(explicit_limit, _VALUES, _VALUES),
    st.just(zero_seq()))
_COMBOS = st.builds(combine, st.lists(_VALUES, min_size=3, max_size=3),
                    st.lists(_LEAVES, min_size=3, max_size=3))
_NESTED = st.builds(lambda cs, inner, a, b: combine(cs, [inner, a, b]),
                    st.lists(_VALUES, min_size=3, max_size=3),
                    _COMBOS, _LEAVES, _LEAVES)


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.one_of(_LEAVES, _COMBOS, _NESTED), st.integers(1, 12), st.integers(0, 40))
def test_block_matches_oracle_bit_for_bit(s, lo, length):
    # windows from 1..12 straddle every eventually-constant start drawn
    assert s.block is not None
    hi = lo + length
    assert _bits(s.coordinates(lo, hi)) == _bits([s.oracle(n) for n in range(lo, hi + 1)])


def test_combine_has_a_block_only_when_every_child_has():
    opaque = from_function(lambda n: 1.0 / n, 1.0)
    assert combine([1.0, 2.0], [periodic([1.0]), opaque]).block is None
    assert combine([1.0, 2.0], [periodic([1.0]), explicit_limit(0.0, 1.0)]).block is not None


def test_combine_reads_by_index_only_when_every_child_does():
    opaque = from_function(lambda n: 1.0 / n, 1.0)
    assert opaque.at is None
    assert combine([1.0, 2.0], [periodic([1.0]), opaque]).at is None
    assert combine([1.0, 2.0], [periodic([1.0]), explicit_limit(0.0, 1.0)]).at is not None


# indices in any order, repeated, and past every eventually-constant start drawn
_INDICES = st.lists(st.integers(1, 40), max_size=30)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_LEAVES, _COMBOS, _NESTED), _INDICES)
def test_coordinates_at_matches_oracle_bit_for_bit(s, ns):
    assert s.at is not None
    assert _bits(coordinates_at(s, ns)) == _bits([coordinate(s, n) for n in ns])


@settings(max_examples=100, deadline=None)
@given(st.one_of(_LEAVES, _COMBOS), _VALUES, _INDICES)
def test_coordinates_at_without_by_index_read(s, c, ns):
    # a child without `at` leaves the combination without one: every
    # index is read through the oracle
    s = combine([c, 1.0], [s, from_function(lambda n: math.sin(n) / n, 1.0)])
    assert s.at is None
    assert _bits(coordinates_at(s, ns)) == _bits([coordinate(s, n) for n in ns])


def test_coordinates_at_past_int64_reads_the_oracle():
    # 2**63 and 2**70 do not fit int64; the oracle takes Python ints
    for s in (periodic([1.0, -2.0, 0.5]), explicit_limit(1.0, 3.0),
              eventually_constant(2.0, 3), eventually_constant(2.0, 2 ** 63 - 1),
              combine([1.0, -1.0], [periodic([1.0, -2.0, 0.5]), explicit_limit(1.0, 3.0)])):
        ns = [2 ** 70, 1, 2 ** 63, 2 ** 63 - 1, 2]
        assert _bits(coordinates_at(s, ns)) == _bits([coordinate(s, n) for n in ns])
        with pytest.raises(IndexZero):
            coordinates_at(s, [2 ** 70, 0])


def test_combine_adds_in_child_order():
    # on Python >= 3.12 `sum` of floats is compensated: sum([1e16, 1.0, -1e16])
    # is 1.0 there, while left-to-right addition (and the block) gives 0.0
    s = combine([1e16, 1.0, -1e16], [periodic([1.0])] * 3)
    assert coordinate(s, 1) == 0.0 == s.coordinates(1, 1)[0] == coordinates_at(s, [1])[0]


def test_combine_pointwise_linearity():
    a = periodic([1.0, 0.0, -1.0])
    b = explicit_limit(-1.0, 2.0)
    s = combine([3.0, -0.5], [a, b])
    for n in (1, 2, 7, 123):
        assert coordinate(s, n) == 3.0 * coordinate(a, n) - 0.5 * coordinate(b, n)
    assert s.bound == pytest.approx(3.0 * 1.0 + 0.5 * 3.0)


def test_combine_length_mismatch():
    with pytest.raises(LengthMismatch):
        combine([1.0], [periodic([1.0]), periodic([2.0])])
    with pytest.raises(LengthMismatch):
        combine([], [])


@given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=6),
       st.integers(1, 200))
def test_periodic_bound_is_sup(pattern, n):
    s = periodic(pattern)
    assert abs(coordinate(s, n)) <= s.bound + 1e-12


@given(st.floats(-5, 5), st.floats(-5, 5), st.integers(1, 50))
def test_combine_two_periodics(c1, c2, n):
    a, b = periodic([-1.0, 1.0]), periodic([1.0, -1.0, 0.0])
    s = combine([c1, c2], [a, b])
    expected = c1 * coordinate(a, n) + c2 * coordinate(b, n)
    assert coordinate(s, n) == pytest.approx(expected, rel=1e-12, abs=1e-12)


# -- cluster estimates -------------------------------------------------------

def _read_at_their_indices(s, c):
    """c's arrays are int64 and float64, each value read at its index."""
    return (c.indices.dtype == np.int64 and c.values.dtype == np.float64
            and c.values.tolist() == [coordinate(s, int(n)) for n in c.indices])


def test_cluster_estimates_periodic_split():
    s = periodic([-1.0, 1.0])
    (lo, hi), seen = cluster_estimates(s, range(1, 65), 0.5, 5)
    assert seen == 2
    assert lo.indices.tolist() == list(range(1, 65, 2))
    assert hi.indices.tolist() == list(range(2, 65, 2))
    assert lo.value < 0 < hi.value
    for c in (lo, hi):
        assert c.spread <= 0.25 + 1e-12


def test_cluster_estimates_cover_window():
    # at least 1 member: the end cells hold every index whose value is as
    # low (as high) as theirs, and the reference's cells tile the window
    s = from_function(lambda n: math.cos(0.7 * n), 1.0)
    window = range(5, 40)
    (lo, hi), seen = cluster_estimates(s, window, 0.3, 1)
    vals = {n: coordinate(s, n) for n in window}
    assert lo.indices.tolist() == [n for n in window if vals[n] <= lo.values.max()]
    assert hi.indices.tolist() == [n for n in window if vals[n] >= hi.values.min()]
    every = all_cluster_estimates(s, window, 0.3)
    assert sorted(i for c in every for i in c.indices) == list(window)
    assert seen == len(every) == 6


@pytest.mark.parametrize("s, window, width, least, sizes, seen", [
    (periodic([2.0, 2.0, 2.0, 0.0]), range(1, 41), 1.0, 10, [10, 30], 2),
    (periodic([2.0, 2.0, 2.0, 0.0]), range(1, 41), 1.0, 11, [30], 2),
    (from_function(lambda n: math.cos(0.7 * n), 1.0), range(5, 40), 0.3, 1, [7, 5], 6),
    (embed_t1(FiniteDimLp(2, 2), np.array([3.0, 4.0])), range(3, 300), 1.25, 5,
     [73, 74], 8),
], ids=["most-hits-on-top", "most-hits-alone", "opaque", "embedded-block"])
def test_cluster_estimates_in_cell_order(s, window, width, least, sizes, seen):
    ends, count = cluster_estimates(s, window, width, least)
    assert [len(c.indices) for c in ends] == sizes and count == seen
    values = [c.value for c in ends]
    assert values == sorted(values) and len(set(values)) == len(values)
    assert all(_read_at_their_indices(s, c) for c in ends)
    assert values == [c.value for c in end_cluster_estimates(s, window, width, least)[0]]


@pytest.mark.parametrize("window", [range(1, 20, 2), range(10, 0, -1), [1, 2, 3]],
                         ids=["step-2", "descending", "list"])
def test_cluster_estimates_take_step_one_ranges_only(window):
    with pytest.raises(ValueError, match="step 1"):
        cluster_estimates(periodic([-1.0, 1.0]), window, 0.5, 5)


@pytest.mark.parametrize("width", [0.0, -0.5])
def test_cluster_estimates_need_a_positive_cell_width(width):
    with pytest.raises(ValueError, match="cell_width"):
        cluster_estimates(periodic([-1.0, 1.0]), range(1, 9), width, 5)


def test_cluster_estimates_zero_bound():
    (zero,), seen = cluster_estimates(zero_seq(), range(1, 11), 0.5, 10)
    assert seen == 1
    assert zero.value == 0.0
    assert zero.spread == 0.0
    assert zero.indices.tolist() == list(range(1, 11))
    assert _read_at_their_indices(zero_seq(), zero)
    assert cluster_estimates(zero_seq(), range(1, 11), 0.5, 11) == ([], 1)


@pytest.mark.parametrize("s", [from_function(lambda n: 0.0, 1.0), periodic([1.0, -1.0])],
                         ids=["opaque", "periodic"])
def test_cluster_estimates_refuse_a_window_past_int64(s):
    # a window stopping at 2^63 ends on index 2^63 - 1, the last int64;
    # one index further wrapped to -2^63 (opaque) or raised a bare
    # IndexError from the block (periodic), and a window of 2^63 indices
    # overflowed len()
    top = 2 ** 63
    ends, _ = cluster_estimates(s, range(top - 2, top), 0.5, 1)
    assert ends[-1].indices.tolist()[-1] == top - 1
    for window in (range(top - 2, top + 2), range(1, top + 1)):
        with pytest.raises(ValueError, match=r"stops past 2\^63"):
            cluster_estimates(s, window, 0.5, 1)


def test_cluster_estimates_empty_window():
    with pytest.raises(EmptyWindow):
        cluster_estimates(periodic([1.0]), range(5, 5), 0.5, 5)


def test_cluster_estimates_spread_contains_members():
    s = from_function(lambda n: ((n * 7919) % 100) / 50.0 - 1.0, 1.0)
    for least in (1, 3, 5, 8):
        ends, _ = cluster_estimates(s, range(1, 200), 0.37, least)
        assert len(ends) == 2
        for c in ends:
            assert _read_at_their_indices(s, c)
            for i in c.indices:
                assert abs(coordinate(s, i) - c.value) <= c.spread + 1e-12


_ATOMS = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]) | st.floats(-3, 3)
_TAGGED = st.one_of(
    st.lists(_ATOMS, min_size=1, max_size=9).map(periodic),
    st.builds(eventually_constant, _ATOMS, st.integers(1, 300)),
    st.builds(explicit_limit, _ATOMS, _ATOMS),
)


def _image(spec, seed):
    sp = parse_space(spec)
    return embed_t1(sp, sp.random_element(np.random.default_rng(seed)))


_SEQUENCES = st.one_of(
    _TAGGED,
    st.just(zero_seq()),
    st.builds(lambda a, amp: from_function(lambda n: amp * math.sin(a * n), abs(amp)),
              st.floats(0.01, 3), _ATOMS),
    st.builds(lambda k, m: from_function(lambda n: ((n * k) % m) / m * 2.0 - 1.0, 1.0),
              st.integers(1, 10 ** 4), st.integers(1, 50)),
    st.builds(lambda cs, kids: combine(cs[:len(kids)], kids[:len(cs)]),
              st.lists(_ATOMS, min_size=1, max_size=3), st.lists(_TAGGED, min_size=1, max_size=3)),
    st.builds(lambda c, kid: combine([c, 1.0], [kid, from_function(lambda n: 1.0 / n, 1.0)]),
              _ATOMS, _TAGGED),
    st.builds(_image, st.sampled_from(["fdlp:dim=2,p=2", "seqlp:p=2,support=4", "c01"]),
              st.integers(0, 2 ** 32 - 1)),
)


def _same_bits(a, b):
    return (a.indices.dtype == b.indices.dtype == np.int64
            and a.values.dtype == b.values.dtype == np.float64
            and a.indices.tobytes() == b.indices.tobytes()
            and a.values.tobytes() == b.values.tobytes()
            and a.value.hex() == b.value.hex() and a.spread.hex() == b.spread.hex())


@settings(max_examples=300, deadline=None)
@given(_SEQUENCES, st.integers(1, 2000), st.integers(1, 2000), st.floats(-50, 1),
       st.integers(1, 8))
@example(explicit_limit(0.0, 5e-324), 1, 1, -1.0, 1)
def test_cluster_estimates_are_the_reference_end_cells(s, start, length, e, least):
    # widths from bound * 2^-50 to 2 * bound (any width when the bound is 0)
    window, width = range(start, start + length), (s.bound or 1.0) * 2.0 ** e
    if width == 0.0:    # a subnormal bound times 2^e can underflow
        with pytest.raises(ValueError, match="cell_width 0.0 must be positive"):
            cluster_estimates(s, window, width, least)
        return
    ends, seen = cluster_estimates(s, window, width, least)
    want, want_seen = end_cluster_estimates(s, window, width, least)
    assert seen == want_seen
    assert len(ends) == len(want) and all(map(_same_bits, ends, want))


# -- structural limits ---------------------------------------------------

def test_structural_limit_tags():
    assert structural_limit(eventually_constant(4.0), 10) == (4.0, 0.0)
    # |rate| / budget, rounded outward by half an ulp of 2.01 and one step
    assert structural_limit(explicit_limit(2.0, 1.0), 100) == (
        2.0, math.nextafter(0.01 + math.ulp(2.0) / 2, math.inf))
    # a start past budget + 1 leaves a 0.0 at budget + 1
    assert structural_limit(eventually_constant(4.0, 11), 10) == (4.0, 0.0)
    assert structural_limit(eventually_constant(-4.0, 12), 10) == (-4.0, 4.0)
    assert structural_limit(periodic([3.0, 3.0]), 10)[0] == 3.0
    assert structural_limit(periodic([-1.0, 1.0]), 10) is None
    assert structural_limit(from_function(lambda n: 0.0, 0.0), 10) is None


def test_structural_limit_combo():
    s = combine([2.0, -1.0],
                [eventually_constant(1.0), explicit_limit(3.0, 0.5)])
    lim, var = structural_limit(s, 50)
    assert lim == pytest.approx(-1.0)
    assert var == pytest.approx(0.01)


def test_structural_limit_combo_with_opaque_child():
    s = combine([1.0, 1.0],
                [eventually_constant(1.0), from_function(lambda n: 0.0, 0.0)])
    assert structural_limit(s, 50) is None


# _LEAVES with eventually constant starts drawn up to past every budget below
_LATE_LEAVES = st.one_of(_LEAVES, st.builds(eventually_constant, _VALUES,
                                            st.integers(1, 200)))
_LATE_COMBOS = st.lists(st.tuples(_VALUES, _LATE_LEAVES), min_size=1, max_size=3).map(
    lambda terms: combine(*zip(*terms)))


def _starts(s):
    tag = s.tag
    if isinstance(tag, EventuallyConstant):
        return [tag.start]
    return [n for child in getattr(tag, "children", ()) for n in _starts(child)]


@settings(max_examples=150, deadline=None)
@given(st.one_of(_LATE_LEAVES, _LATE_COMBOS,
                 st.builds(lambda c, a, b: combine([c, 1.0], [a, b]),
                           _VALUES, _LATE_COMBOS, _LATE_LEAVES)),
       st.integers(0, 150))
@example(eventually_constant(1.0, 1048577), 64)
@example(combine((1, -1), (eventually_constant(1.0), eventually_constant(1.0, 100))), 64)
@example(explicit_limit(1.0, 0.7 * math.ulp(1.0) * 1000), 1000)
# the same rounding in a combination's sum, not in its child
@example(combine([1.0, 1.0], [periodic([1.0]), explicit_limit(0.0, 0.7 * math.ulp(1.0) * 1000)]),
         1000)
def test_structural_limit_holds_past_the_budget(s, budget):
    certificate = structural_limit(s, budget)
    assume(certificate is not None)     # a periodic member that is not constant
    limit, tail = certificate
    late = [n for start in _starts(s) for n in (start - 1, start)]
    ns = [budget + 1, *late, 2 * budget + 7, 10 ** 6 + 3, 2 ** 62 + 1]
    reads = [coordinate(s, n) for n in ns if n > budget]
    # a window of 4000 indices from budget + 1, read by index
    reads += coordinates_at(s, np.arange(budget + 1, budget + 4001)).tolist()
    assert all(abs(v - limit) <= tail for v in reads), (limit, tail)
