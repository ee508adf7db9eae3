import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqembed import (BudgetExhausted, EmptyBasis, FiniteDimLp, IndexScheme,
                      SchemeExhausted, SeqLp, SubspaceD, bw_extract, combine,
                      coordinate, diagonal_extract, embed_t1,
                      eventually_constant, extract_scheme, from_function,
                      identity_scheme, limit_along, oscillation_witness,
                      parse_space, periodic, scheme_embed,
                      separation_witness, zero_seq)

W1 = periodic([-1.0, 1.0])
W2 = periodic([1.0, -1.0, 0.0])


def finite_d():
    return SubspaceD("finite", (W1, W2))


# -- subspace descriptors --------------------------------------------------

def test_combination_matches_pointwise():
    D = finite_d()
    d = D.combination([2.0, -0.5])
    for n in (1, 2, 3, 7, 100):
        expected = 2.0 * coordinate(W1, n) - 0.5 * coordinate(W2, n)
        assert coordinate(d, n) == pytest.approx(expected, abs=1e-12)


def test_zero_combination_is_tagged_zero():
    D = finite_d()
    d = D.combination([0.0, 0.0])
    assert d.bound == 0.0
    assert D.combination([]).bound == 0.0


def test_combination_length_check():
    with pytest.raises(EmptyBasis):
        finite_d().combination([1.0, 2.0, 3.0])


# -- index schemes -----------------------------------------------------------

def test_identity_scheme_split():
    sch = identity_scheme()
    assert sch.length is None
    assert sch.plus_index(3) == 6
    assert sch.minus_index(3) == 5
    assert sch.classify(10) == (1.0, 5)
    assert sch.classify(9) == (-1.0, 5)


def test_finite_scheme_positional_split():
    sch = IndexScheme("finite", (4, 9, 16, 25), (0.5,), (0.25,), 100)
    assert sch.minus_index(1) == 4   # positions 1, 3 -> I-
    assert sch.plus_index(1) == 9    # positions 2, 4 -> I+
    assert sch.minus_index(2) == 16
    assert sch.classify(9) == (1.0, 1)
    assert sch.classify(7) == (0.0, 0)
    with pytest.raises(SchemeExhausted):
        sch.classify(101)
    with pytest.raises(SchemeExhausted):
        sch.index_at(5)
    assert sch.max_k() == 2


def test_scheme_json_roundtrip():
    sch = IndexScheme("finite", (3, 9, 15), (-0.5, 0.25), (0.5, 0.25), 64)
    back = IndexScheme.from_json(sch.to_json())
    assert back.prefix == sch.prefix
    assert back.alpha == sch.alpha
    assert back.tol_schedule == sch.tol_schedule
    assert back.coverage == 64


# -- cell-refinement extraction ----------------------------------------------

def test_bw_extract_single_periodic():
    # (-1)^n clusters at -1 (odd n) and +1; the odd indices win the tie
    # at every level because their cell corner is smaller
    D = SubspaceD("finite", (W1,))
    sch = bw_extract(D, depth=3, scan_budget=64)
    assert sch.alpha[0] == pytest.approx(-0.875)
    assert sch.prefix == tuple(range(1, 64, 2))
    assert sch.tol_schedule == (0.5, 0.25, 0.125)


def test_bw_extract_worked_pair():
    sch = bw_extract(finite_d(), depth=4, scan_budget=4096)
    assert sch.alpha == pytest.approx((-0.9375, 0.0625))
    # surviving indices are n = 3 (mod 6): w1 = -1, w2 = 0 there
    assert sch.prefix[:4] == (3, 9, 15, 21)
    assert len(sch.prefix) >= 64


def test_bw_extract_last_half_near_alpha():
    sch = bw_extract(finite_d(), depth=4, scan_budget=4096)
    delta = sch.tol_schedule[-1]
    members = finite_d().members
    half = sch.prefix[len(sch.prefix) // 2:]
    for i, w in enumerate(members):
        for n in half:
            assert abs(coordinate(w, n) - sch.alpha[i]) <= 2 * delta


def test_bw_extract_respects_budget():
    with pytest.raises(BudgetExhausted) as exc:
        bw_extract(finite_d(), depth=4, scan_budget=6)
    assert exc.value.partial is not None


def test_bw_extract_mode_check():
    with pytest.raises(EmptyBasis):
        bw_extract(SubspaceD("countable", (W1,)), 2, 64)
    with pytest.raises(EmptyBasis):
        bw_extract(SubspaceD("finite", ()), 2, 64)


def test_extraction_stops_at_level_62():
    # past level 62 cell indices overflow int64 and clip to cell 0: at
    # depth 64 the second member, 0.0 along the prefix, got alpha -1.0
    assert bw_extract(finite_d(), 62, 4096).alpha == (-1.0, 0.0)
    with pytest.raises(ValueError):
        bw_extract(finite_d(), 63, 4096)
    with pytest.raises(ValueError):
        diagonal_extract(scaled_family(), 2, (0.5, 2.0 ** -62), 1000)


@pytest.mark.parametrize("schedule", [(0.5, 0.0), (0.5, -0.25)])
def test_diagonal_rejects_non_positive_tolerance(schedule):
    # a zero-bound member never gets a cell side below a tolerance <= 0;
    # only entries among the first m count
    D = SubspaceD("countable", (W1, zero_seq(), W2))
    with pytest.raises(ValueError, match="positive"):
        diagonal_extract(D, 2, schedule, 64)
    assert diagonal_extract(D, 2, (0.5, 0.25, -1.0), 64).tol_schedule == (0.5, 0.25)


# -- diagonal extraction -----------------------------------------------------

SCHEDULE = (0.5, 0.25, 0.125, 0.0625, 0.03125)


def scaled_family(r=5):
    return SubspaceD("countable", tuple(
        combine([1.0 + 1.0 / i], [W1]) for i in range(1, r + 1)))


def test_diagonal_extract_stagewise_tolerance():
    D = scaled_family()
    sch = diagonal_extract(D, 5, SCHEDULE, 10000)
    assert sch.mode == "diagonal"
    assert len(sch.alpha) == 5
    # every member stabilizes along the tail of the prefix: variation
    # around its stage value stays within the stage tolerance
    for i in range(1, 6):
        w = D.members[i - 1]
        tail = sch.prefix[5:]
        vals = [coordinate(w, n) for n in tail]
        assert max(vals) - min(vals) <= SCHEDULE[i - 1]
        assert all(abs(v - sch.alpha[i - 1]) <= SCHEDULE[i - 1] for v in vals)


def test_diagonal_extract_validates_schedule():
    D = scaled_family()
    with pytest.raises(ValueError):
        diagonal_extract(D, 3, (0.5, 0.5, 0.25), 1000)
    with pytest.raises(ValueError):
        diagonal_extract(D, 3, (0.5, 0.25), 1000)
    with pytest.raises(ValueError):
        diagonal_extract(D, 2, (0.5, 0.0), 1000)
    with pytest.raises(EmptyBasis):
        diagonal_extract(D, 6, SCHEDULE + (0.01,), 1000)
    with pytest.raises(EmptyBasis):
        diagonal_extract(finite_d(), 2, (0.5, 0.25), 1000)


def test_diagonal_extract_budget():
    with pytest.raises(BudgetExhausted):
        diagonal_extract(scaled_family(), 5, SCHEDULE, 4)


# -- both extractions against whole-row bucketing -------------------------

def _ref_bucket(values, bound, side):
    if bound == 0.0 or side == 0.0:
        return np.zeros(len(values), dtype=int)
    ncells = int(round(2.0 * bound / side))
    cells = np.floor((values + bound) / side).astype(int)
    return np.clip(cells, 0, ncells - 1)


def ref_bw_extract(D, depth, scan_budget):
    """bw_extract bucketing whole cell rows with np.unique(axis=0)."""
    r = D.size
    Z = np.column_stack([m.coordinates(1, scan_budget) for m in D.members])
    bounds = np.array([m.bound for m in D.members])
    survivors = np.arange(scan_budget)
    deltas = []
    for level in range(1, depth + 1):
        sides = bounds / 2.0 ** (level - 1)
        deltas.append(0.5 * float(np.sqrt(np.sum(sides ** 2))))
        cells = np.column_stack([
            _ref_bucket(Z[survivors, i], bounds[i], sides[i]) for i in range(r)])
        uniq, inverse, counts = np.unique(
            cells, axis=0, return_inverse=True, return_counts=True)
        best = int(np.argmax(counts))
        winner = uniq[best]
        survivors = survivors[inverse.ravel() == best]
    alpha = tuple(float(-bounds[i] + (winner[i] + 0.5) * sides[i])
                  if bounds[i] != 0.0 else 0.0 for i in range(r))
    prefix = tuple(int(n) + 1 for n in survivors)
    scheme = IndexScheme("finite", prefix, alpha, tuple(deltas), scan_budget)
    if len(prefix) < 2 * depth:
        raise BudgetExhausted(
            f"surviving prefix has {len(prefix)} indices < 2*depth = {2 * depth}",
            partial=scheme, found=len(prefix))
    return scheme


def ref_diagonal_extract(D, m, schedule, scan_budget):
    """diagonal_extract bucketing one column with its own loop."""
    S = np.arange(1, scan_budget + 1)
    betas, diagonal = [], []
    for i in range(1, m + 1):
        w = D.members[i - 1]
        vals = w.coordinates(1, scan_budget)
        if w.bound == 0.0:
            betas.append(0.0)
        else:
            level = 1
            while True:
                side = w.bound / 2.0 ** (level - 1)
                cells = _ref_bucket(vals[S - 1], w.bound, side)
                uniq, inverse, counts = np.unique(
                    cells, return_inverse=True, return_counts=True)
                best = int(np.argmax(counts))
                S = S[inverse == best]
                if side <= schedule[i - 1]:
                    betas.append(float(-w.bound + (uniq[best] + 0.5) * side))
                    break
                level += 1
        if len(S) < i:
            scheme = IndexScheme("diagonal", tuple(int(n) for n in S),
                                 tuple(betas), tuple(schedule[:i]), scan_budget)
            raise BudgetExhausted(
                f"stage {i}: {len(S)} survivors cannot supply a diagonal",
                partial=scheme, found=i - 1)
        diagonal.append(int(S[i - 1]))
    prefix = tuple(diagonal + [int(n) for n in S if n > diagonal[-1]])
    return IndexScheme("diagonal", prefix, tuple(betas), tuple(schedule[:m]),
                       scan_budget)


def _outcome(extract, *args):
    """The scheme, or the message, count and partial of BudgetExhausted,
    as JSON so that floats compare bit for bit (-0.0 included)."""
    try:
        return json.dumps(extract(*args).to_json())
    except BudgetExhausted as exc:
        return json.dumps([str(exc), exc.found, exc.partial.to_json()])


@st.composite
def _members(draw, budget):
    """Opaque members on a coarse grid (ties, values at +-bound), a fine
    grid (deep levels) or uniform in [-bound, bound], some of bound 0."""
    bound = draw(st.sampled_from([0.0, 0.5, 1.0, 3.0]))
    grid = draw(st.sampled_from([2, 4, 2 ** 20, None]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if grid is None:
        units = rng.uniform(-1.0, 1.0, size=budget)
    else:
        units = rng.integers(-grid, grid, size=budget, endpoint=True) / grid
    values = (bound * units).tolist()
    return from_function(lambda n: values[n - 1], bound)


_DEPTHS = st.one_of(st.integers(1, 6), st.integers(30, 44), st.integers(56, 62))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), budget=st.integers(1, 120), r=st.integers(1, 4),
       depth=_DEPTHS)
def test_bw_extract_matches_row_bucketing(data, budget, r, depth):
    D = SubspaceD("finite", tuple(data.draw(_members(budget)) for _ in range(r)))
    assert (_outcome(bw_extract, D, depth, budget)
            == _outcome(ref_bw_extract, D, depth, budget))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), budget=st.integers(1, 120), r=st.integers(1, 4),
       last=_DEPTHS, base=st.sampled_from([1.0, 0.75, 3.0]))
def test_diagonal_extract_matches_column_bucketing(data, budget, r, last, base):
    D = SubspaceD("countable", tuple(data.draw(_members(budget)) for _ in range(r)))
    # exponents past 59 would need levels past 62
    exps = sorted(data.draw(st.lists(st.integers(0, min(last + r, 59)),
                                     min_size=r, max_size=r, unique=True)))
    schedule = [base * 2.0 ** -e for e in exps]
    assert (_outcome(diagonal_extract, D, r, schedule, budget)
            == _outcome(ref_diagonal_extract, D, r, schedule, budget))


def test_bw_extract_many_members_matches_row_bucketing():
    # 70 columns, more binary digits than one int64 key holds; ties
    # between the rows (period 10) go by the first column, whose digit
    # a key of the last 63 columns alone would lose
    rng = np.random.default_rng(7)
    D = SubspaceD("finite", (W1,) + tuple(periodic(rng.integers(-2, 3, size=5) / 2.0)
                                          for _ in range(69)))
    for depth in (1, 2, 4):
        assert (_outcome(bw_extract, D, depth, 400)
                == _outcome(ref_bw_extract, D, depth, 400))


# -- scheme-placed embeddings -------------------------------------------

def test_scheme_embed_identity_matches_embed_t1_relabeled():
    sp = FiniteDimLp(2, 2)
    x = np.array([1.0, -2.0])
    t1 = embed_t1(sp, x)
    t2 = scheme_embed(sp, identity_scheme(), x)
    for k in range(1, 200):
        assert coordinate(t2, 2 * k) == coordinate(t1, 2 * k - 1)
        assert coordinate(t2, 2 * k - 1) == coordinate(t1, 2 * k)


def test_scheme_embed_zero_off_scheme():
    sp = FiniteDimLp(2, 2)
    sch = bw_extract(finite_d(), depth=4, scan_budget=4096)
    s = scheme_embed(sp, sch, np.array([3.0, 4.0]))
    on_scheme = set(sch.prefix)
    for n in range(1, 40):
        if n not in on_scheme:
            assert coordinate(s, n) == 0.0
    # eta-(1) = first prefix entry carries -phi_1
    n1 = sch.prefix[0]
    assert coordinate(s, n1) == -coordinate(embed_t1(sp, np.array([3.0, 4.0])), 1)


_BW = bw_extract(finite_d(), depth=4, scan_budget=4096)
_DIAG = diagonal_extract(scaled_family(), 5, SCHEDULE, 4096)
_PLACEMENTS = {
    "embed_t1": embed_t1,
    "identity": lambda sp, x: scheme_embed(sp, identity_scheme(), x),
    "bw_extract": lambda sp, x: scheme_embed(sp, _BW, x),
    "diagonal_extract": lambda sp, x: scheme_embed(sp, _DIAG, x),
}
_SPECS = ["fdlp:dim=2,p=2", "fdlp:dim=3,p=1", "fdlp:dim=3,p=1.5",
          "fdlp:dim=2,p=inf", "seqlp:p=2,support=4", "seqlp:p=1,support=4",
          "c01", {"kind": "custom", "p": 2,
                  "points": [[1.0, 0.0], [0.6, -0.8], [0.0, 1.0]]}]


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(_SPECS), mode=st.sampled_from(sorted(_PLACEMENTS)),
       seed=st.integers(0, 2 ** 32 - 1), lo=st.integers(1, 400),
       width=st.integers(0, 200))
def test_block_matches_oracle(spec, mode, seed, lo, width):
    sp = parse_space(spec)
    x = sp.lattice_sample(np.random.default_rng(seed))
    s = _PLACEMENTS[mode](sp, x)
    hi = lo + width
    oracle = np.array([coordinate(s, n) for n in range(lo, hi + 1)])
    scheme = {"bw_extract": _BW, "diagonal_extract": _DIAG}.get(mode)
    if scheme is not None:
        # only identity-scheme images have a block; off an extracted
        # scheme the oracle gives exact zeros
        assert s.block is None
        off = [scheme.classify(n)[0] == 0.0 for n in range(lo, hi + 1)]
        assert not oracle[off].any()
        return
    # the block evaluates phi_k(x) by the oracle's arithmetic, bit for bit
    assert np.array_equal(s.coordinates(lo, hi), oracle)


@settings(max_examples=30, deadline=None)
@given(spec=st.sampled_from(_SPECS), seed=st.integers(0, 2 ** 32 - 1),
       lo=st.integers(1, 400), width=st.integers(0, 200))
def test_embed_t1_negates_identity_placement(spec, seed, lo, width):
    sp = parse_space(spec)
    x = sp.lattice_sample(np.random.default_rng(seed))
    t1 = embed_t1(sp, x)
    t2 = scheme_embed(sp, identity_scheme(), x)
    hi = lo + width
    assert t1.coordinates(lo, hi).tobytes() == (-t2.coordinates(lo, hi)).tobytes()
    assert all(np.float64(coordinate(t1, n)).tobytes()
               == np.float64(-coordinate(t2, n)).tobytes()
               for n in range(lo, hi + 1))


# -- limit functionals -----------------------------------------------------

def test_limit_along_recovers_cluster_value():
    D = finite_d()
    sch = bw_extract(D, depth=4, scan_budget=4096)
    est = limit_along(D.combination([1.0, 0.0]), sch, sch.length)
    assert est.L == pytest.approx(-1.0)
    est2 = limit_along(D.combination([0.0, 1.0]), sch, sch.length)
    assert est2.L == pytest.approx(0.0)


def test_limit_along_is_linear_on_the_basis():
    D = finite_d()
    sch = bw_extract(D, depth=4, scan_budget=4096)
    coeffs = [1.5, -2.0]
    est = limit_along(D.combination(coeffs), sch, sch.length)
    parts = [limit_along(D.members[i], sch, sch.length) for i in range(2)]
    combined = sum(c * p.L for c, p in zip(coeffs, parts))
    tol = sum(abs(c) * p.err for c, p in zip(coeffs, parts)) + est.err
    assert abs(est.L - combined) <= tol + 1e-12


def test_limit_along_validates_window():
    sch = bw_extract(finite_d(), depth=4, scan_budget=4096)
    with pytest.raises(ValueError):
        limit_along(W1, sch, 1)
    with pytest.raises(SchemeExhausted):
        limit_along(W1, sch, sch.length + 1)


# -- separation witnesses ----------------------------------------------------

def test_separation_witness_gap_contract():
    sp = FiniteDimLp(2, 2)
    D = finite_d()
    sch = bw_extract(D, depth=4, scan_budget=4096)
    x = np.array([3.0, 4.0])
    d = D.combination([1.0, 0.0])
    est = limit_along(d, sch, sch.length)
    w = separation_witness(sp, sch, x, d, 0.2, 5)
    assert len(w.plus_indices) == 5
    assert w.gap >= 2.0 * 5.0 * 0.8 - 2.0 * est.err - 1e-9
    # indices live on the scheme
    on = set(sch.prefix)
    assert all(n in on for n in w.plus_indices + w.minus_indices)


def test_separation_witness_zero_d_matches_oscillation():
    # the D = {0} fold: identity-scheme separation from d = 0 is the
    # oscillation witness with I+ on the evens instead of the odds
    cases = [(FiniteDimLp(2, 2), np.array([0.0, 2.0])),
             (FiniteDimLp(2, 2), np.array([3.0, 4.0])),
             (FiniteDimLp(3, 1.5), np.array([1.0, -2.0, 0.5])),
             (FiniteDimLp(2, float("inf")), np.array([-1.0, 0.25])),
             (SeqLp(2.0), {2: -1.5}),
             (SeqLp(1.0), {1: 1.0, 3: -0.5})]
    for space, x in cases:
        osc = oscillation_witness(space, x, 0.2, 4)
        sep = separation_witness(space, identity_scheme(), x, zero_seq(),
                                 0.2, 4)
        assert osc.plus_indices == sep.minus_indices
        assert osc.minus_indices == sep.plus_indices
        assert osc.plus_values == sep.plus_values
        assert osc.minus_values == sep.minus_values
        assert osc.gap == sep.gap
        assert (osc.target_hi, osc.target_lo) == (sep.target_hi,
                                                  sep.target_lo)
        assert sep.gap >= 2.0 * space.norm(x) * 0.8 - 1e-9


def test_separation_witness_budget():
    sp = FiniteDimLp(2, 2)
    D = finite_d()
    sch = bw_extract(D, depth=4, scan_budget=4096)
    with pytest.raises(BudgetExhausted):
        separation_witness(sp, sch, np.array([3.0, 4.0]), zero_seq(),
                           0.2, 5, scan_budget=2)


# -- scheme selection ------------------------------------------------------

def test_extract_scheme_identity_for_trivial_d():
    sch = extract_scheme(SubspaceD("finite", ()), depth=4, scan_budget=4096)
    assert sch == identity_scheme()


def test_extract_scheme_finite():
    sch = extract_scheme(finite_d(), depth=4, scan_budget=4096)
    assert sch == bw_extract(finite_d(), depth=4, scan_budget=4096)


def test_extract_scheme_countable_defaults():
    # m defaults to every member, the schedule to 0.5 * 2^-i
    D = scaled_family()
    sch = extract_scheme(D, depth=4, scan_budget=10000)
    assert sch == diagonal_extract(D, 5, SCHEDULE, 10000)
    assert sch.tol_schedule == SCHEDULE


def test_extract_scheme_dense_family():
    D = SubspaceD("dense", (eventually_constant(1.0),
                           eventually_constant(0.5)))
    sch = extract_scheme(D, depth=4, scan_budget=4096, m=2,
                         tol_schedule=(0.5, 0.25))
    assert sch.mode == "diagonal"
    assert sch == diagonal_extract(D, 2, (0.5, 0.25), 4096)
