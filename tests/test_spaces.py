import itertools
import math
import tracemalloc

import numpy as np
import pytest

from seqembed import (ConfigError, CustomNet, FiniteDimLp, IndexZero,
                      KindMismatch, NotUnitVector, SeqLp, ContinuousPL,
                      ZeroElement, parse_space, pl_function)

SQ2 = math.sqrt(2.0)


# -- finite-dimensional p-norm spaces -----------------------------------------

def test_fdlp_norms():
    e2 = FiniteDimLp(2, 2)
    assert e2.norm([3.0, 4.0]) == 5.0
    assert FiniteDimLp(2, 1).norm([3.0, -4.0]) == 7.0
    assert FiniteDimLp(2, math.inf).norm([3.0, -4.0]) == 4.0
    assert FiniteDimLp(3, 1.5).norm([1.0, 0.0, 0.0]) == 1.0


def test_fdlp_net_enumeration_order():
    # level 1 in dim 1: candidates -1, 1
    e1 = FiniteDimLp(1, 2)
    assert e1.net_point(1)[0] == -1.0
    assert e1.net_point(2)[0] == 1.0
    # dim 2: first candidate (-1,-1) normalized
    e2 = FiniteDimLp(2, 2)
    assert np.allclose(e2.net_point(1), [-1 / SQ2, -1 / SQ2])
    assert e2.net_size_through_level(1) == 8
    assert e2.net_size_through_level(2) == 8 + 24
    assert FiniteDimLp(3, 2).net_size_through_level(0) == 0


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
    sp = FiniteDimLp(2, 2)
    x = np.array([0.3, -1.7])
    vals = sp.functional_values(x, 25)
    for k in range(1, 26):
        pointwise = sp.apply_functional(sp.norming_functional(k), x)
        assert vals[k - 1] == pointwise


@pytest.mark.parametrize("spec", ["fdlp:dim=2,p=2", "fdlp:dim=3,p=1.5",
                                  "seqlp:p=2,support=4", "c01"])
def test_functional_values_do_not_depend_on_window(spec):
    sp = parse_space(spec)
    x = sp.random_element(np.random.default_rng(11))
    full = sp.functional_values(x, 600)
    for K in (1, 2, 7, 26, 343, 599):
        assert np.array_equal(sp.functional_values(x, K), full[:K])


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


def test_seqlp_subtract():
    sp = SeqLp(2.0)
    assert sp.subtract({1: 2.0, 2: 1.0}, {2: 1.0}) == {1: 2.0}


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


def test_pl_evaluation():
    f = pl_function((0.0, 0.5, 1.0), (0.0, 2.0, -2.0))
    assert f(0.25) == 1.0
    assert f(0.75) == 0.0
    assert f(1.0) == -2.0


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


def test_c01_subtract_merges_grids():
    sp = ContinuousPL()
    f = pl_function((0.0, 0.5, 1.0), (1.0, 1.0, 1.0))
    g = pl_function((0.0, 0.25, 1.0), (1.0, 0.0, 1.0))
    h = sp.subtract(f, g)
    assert h(0.25) == pytest.approx(1.0)
    assert h(0.0) == 0.0


def test_c01_distance_profile_matches_direct():
    sp = ContinuousPL()
    v = sp.unit(pl_function((0.0, 0.5, 1.0), (1.0, -1.0, 0.5)))
    prof = sp.distance_profile(v, 30)
    for k in (1, 7, 19, 30):
        diff = sp.subtract(sp.net_point(k), v)
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
    prof = np.tile([ref.norm(ref.subtract(pt, v)) for pt in pts], 3)
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
            if p != 1.5:                # _pnorm's scalar root may round apart
                assert _bits(part) == _bits(prof[lo:K])
            assert part == pytest.approx(prof[lo:K], rel=1e-15)
    assert len(stepped._U) >= 9         # the cache grows with K, as for every kind


def test_custom_net_validates_points():
    with pytest.raises(ConfigError):
        CustomNet([(2.0, 0.0)])
    with pytest.raises(ConfigError):
        CustomNet([(1.0, 0.0)], functionals=[(0.0, 1.0)])
    with pytest.raises(ConfigError):
        CustomNet([(0.6, 0.8)], functionals=[(5.0 / 7.0,)])
    for points in ([], 5, "ab", [["0.6", "0.8"]], [[0.6, 0.8], [1.0]],
                   [[math.nan, 1.0]], [[True, False]]):
        with pytest.raises(ConfigError):
            CustomNet(points)
    with pytest.raises(ConfigError):
        CustomNet([(0.6, 0.8)], functionals=[("a", "b")])


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
    path = tmp_path / "net.json"
    path.write_text('{"kind": "custom", "points": [[0.6, 0.8]], "p": 2}')
    net = parse_space(f"custom:{path}")
    assert isinstance(net, CustomNet) and net.describe() == "custom:dim=2,p=2,cycle=1"


@pytest.mark.parametrize("bad", [
    "fdlp:dim=0,p=2", "fdlp:p=2", "fdlp:dim=2,p=0.5", "seqlp:p=inf",
    "wavelets", "fdlp:dim=2,p=2,extra=1", "fdlp:dim=2,p",
    "fdlp:dim=abc", "seqlp:p=2,support=x",
    {"kind": "fdlp", "dim": 2, "extra": 1}, {"kind": "custom"}, "c01:foo=1",
    {"kind": ["fdlp"], "dim": 2},
    "fdlp:dim=2,kind=seqlp", ("file", '{"kind": "custom", "points": [[1.0, 0.0]'),
    ("file", '{"kind": "custom", "p": 2}'), ("file", "[[1.0, 0.0]]"),
])
def test_parse_space_rejects(tmp_path, bad):
    if isinstance(bad, tuple):      # the text of a custom: net file
        path = tmp_path / "net.json"
        path.write_text(bad[1])
        bad = f"custom:{path}"
    with pytest.raises(ConfigError):
        parse_space(bad)


def test_describe_round_trips():
    for spec in ("fdlp:dim=2,p=2", "fdlp:dim=1,p=inf", "c01"):
        assert parse_space(spec).describe() == spec


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
            assert _bits(sp.norming_functional(k).coords) == _bits(phi)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_seqlp_net_matches_reference_enumeration(p):
    count = 1500
    ref = _reference_net(lambda t: t, p, count)
    for sp in _grown(lambda: SeqLp(p), count):
        for k, (u, phi) in enumerate(ref, start=1):
            point = sp.net_point(k)
            assert list(point) == [i + 1 for i in np.flatnonzero(u)]
            assert _bits(list(point.values())) == _bits(u[u != 0.0])
            entries = sp.norming_functional(k).entries
            assert [i for i, _ in entries] == [i + 1 for i in np.flatnonzero(phi)]
            assert _bits([v for _, v in entries]) == _bits(phi[phi != 0.0])


def test_c01_net_matches_reference_enumeration():
    # levels 1-6 use the grid {0, 1/2, 1}; level 7 opens {0, 1/4, ..., 1}
    # at k = 4747
    count = 4800
    grid_points = lambda t: 2 ** ((t + 5) // 6) + 1
    ref = _reference_net(grid_points, math.inf, count)
    assert len(ref[4745][0]) == 3 and len(ref[4746][0]) == 5
    for sp in _grown(ContinuousPL, count):
        for k, (u, phi) in enumerate(ref, start=1):
            f = sp.net_point(k)
            assert _bits(f.breaks) == _bits(np.linspace(0.0, 1.0, len(u)))
            assert _bits(f.values) == _bits(u)
            mass = sp.norming_functional(k)
            i = int(np.flatnonzero(phi)[0])
            assert _bits([mass.location, mass.sign]) == \
                _bits([np.linspace(0.0, 1.0, len(u))[i], phi[i]])


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
