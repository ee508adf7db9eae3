import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqembed import (BoundedSeq, ConfigError, IndexZero, LengthMismatch, EmptyWindow,
                      cluster_estimates, combine, coordinate,
                      eventually_constant, explicit_limit, explicit_list,
                      from_function, periodic, prefix_sup, zero_seq)
from seqembed.seqcore import structural_limit


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
    lambda: eventually_constant(1.0, start=2, head=(NAN,)),
    lambda: explicit_limit(NAN, 1.0),
    lambda: explicit_limit(0.0, -INF),
    lambda: combine((1.0, NAN), (periodic([1.0]), periodic([-1.0]))),
    lambda: from_function(lambda n: 0.0, -1.0),
    lambda: from_function(lambda n: 0.0, NAN),
    lambda: from_function(lambda n: 0.0, INF),
])
def test_constructors_reject_non_finite_values(build):
    with pytest.raises(ConfigError):
        build()


def test_index_zero_rejected():
    s = periodic([1.0])
    with pytest.raises(IndexZero):
        coordinate(s, 0)
    with pytest.raises(IndexZero):
        s.coordinates(0, 5)
    with pytest.raises(IndexZero):
        prefix_sup(s, 0)


def test_eventually_constant_head():
    s = eventually_constant(3.0, start=3, head=(7.0, -2.0))
    assert coordinate(s, 1) == 7.0
    assert coordinate(s, 2) == -2.0
    assert coordinate(s, 3) == 3.0
    assert coordinate(s, 1000) == 3.0
    assert s.bound == 7.0


def test_eventually_constant_head_length_checked():
    with pytest.raises(LengthMismatch):
        eventually_constant(1.0, start=4, head=(0.0,))


def test_explicit_list_tail():
    s = explicit_list([5.0, -5.0], 0.5)
    assert coordinate(s, 2) == -5.0
    assert coordinate(s, 3) == 0.5
    assert s.bound == 5.0
    assert structural_limit(explicit_list([5.0, -5.0], 0.5), 10) == (0.5, 0.0, 3)


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
    st.builds(lambda v, head: eventually_constant(v, len(head) + 1, head),
              _VALUES, st.lists(_VALUES, max_size=6)),
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
    # windows from 1..12 straddle every eventually-constant head drawn
    assert s.block is not None
    hi = lo + length
    assert _bits(s.coordinates(lo, hi)) == _bits([s.oracle(n) for n in range(lo, hi + 1)])


def test_combine_has_a_block_only_when_every_child_has():
    opaque = from_function(lambda n: 1.0 / n, 1.0)
    assert combine([1.0, 2.0], [periodic([1.0]), opaque]).block is None
    assert combine([1.0, 2.0], [periodic([1.0]), explicit_limit(0.0, 1.0)]).block is not None


def test_combine_adds_in_child_order():
    # on Python >= 3.12 `sum` of floats is compensated: sum([1e16, 1.0, -1e16])
    # is 1.0 there, while left-to-right addition (and the block) gives 0.0
    s = combine([1e16, 1.0, -1e16], [periodic([1.0])] * 3)
    assert coordinate(s, 1) == 0.0 == s.coordinates(1, 1)[0]


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

def test_cluster_estimates_periodic_split():
    s = periodic([-1.0, 1.0])
    clusters = cluster_estimates(s, range(1, 65), 0.5)
    assert len(clusters) == 2
    sizes = sorted(len(c.indices) for c in clusters)
    assert sizes == [32, 32]
    values = sorted(c.value for c in clusters)
    assert values[0] < 0 < values[1]
    for c in clusters:
        assert c.spread <= 0.25 + 1e-12


def test_cluster_estimates_cover_window():
    s = from_function(lambda n: math.cos(0.7 * n), 1.0)
    window = range(5, 40)
    clusters = cluster_estimates(s, window, 0.3)
    seen = sorted(i for c in clusters for i in c.indices)
    assert seen == list(window)


def test_cluster_estimates_sorted_by_count_then_value():
    s = periodic([0.0, 0.0, 0.0, 2.0])
    clusters = cluster_estimates(s, range(1, 41), 1.0)
    assert len(clusters[0].indices) >= len(clusters[1].indices)


def test_cluster_estimates_zero_bound():
    clusters = cluster_estimates(zero_seq(), range(1, 11), 0.5)
    assert len(clusters) == 1
    assert clusters[0].value == 0.0
    assert clusters[0].spread == 0.0
    assert clusters[0].indices == tuple(range(1, 11))


def test_cluster_estimates_empty_window():
    with pytest.raises(EmptyWindow):
        cluster_estimates(periodic([1.0]), range(5, 5), 0.5)


def test_cluster_estimates_spread_contains_members():
    s = from_function(lambda n: ((n * 7919) % 100) / 50.0 - 1.0, 1.0)
    for c in cluster_estimates(s, range(1, 200), 0.37):
        for i in c.indices:
            assert abs(coordinate(s, i) - c.value) <= c.spread + 1e-12


# -- structural limits ---------------------------------------------------

def test_structural_limit_tags():
    assert structural_limit(eventually_constant(4.0), 10) == (4.0, 0.0, 1)
    lim, var, stab = structural_limit(explicit_limit(2.0, 1.0), 100)
    assert lim == 2.0 and var == 0.01 and stab == 100
    assert structural_limit(periodic([3.0, 3.0]), 10)[0] == 3.0
    assert structural_limit(periodic([-1.0, 1.0]), 10) is None
    assert structural_limit(from_function(lambda n: 0.0, 0.0), 10) is None


def test_structural_limit_combo():
    s = combine([2.0, -1.0],
                [eventually_constant(1.0), explicit_limit(3.0, 0.5)])
    lim, var, _ = structural_limit(s, 50)
    assert lim == pytest.approx(-1.0)
    assert var == pytest.approx(0.01)


def test_structural_limit_combo_with_opaque_child():
    s = combine([1.0, 1.0],
                [eventually_constant(1.0), from_function(lambda n: 0.0, 0.0)])
    assert structural_limit(s, 50) is None
