import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from seqembed import (BudgetExhausted, ConfigError, EmptyBasis, FiniteDimLp,
                      IndexScheme, IndexZero, SchemeExhausted, SeqLp, SubspaceD,
                      bw_extract, combine, coordinate, coordinates_at,
                      diagonal_extract, embed_t1,
                      eventually_constant, explicit_limit, extract_scheme,
                      from_function,
                      identity_scheme, limit_along, oscillation_witness,
                      parse_space, periodic, scheme_embed,
                      reverify_witness, separation_witness, zero_seq)
from seqembed.seqcore import _bucket

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


def _past(exc, index, coverage):
    """A SchemeExhausted names the index asked for and the bound it passed."""
    assert (exc.index, exc.coverage) == (index, coverage)
    assert str(exc) == f"index {index} beyond scheme coverage ({coverage})"


def test_finite_scheme_positional_split():
    sch = IndexScheme("finite", (4, 9, 16, 25), (0.5,), (0.25,), 100)
    assert sch.minus_index(1) == 4   # positions 1, 3 -> I-
    assert sch.plus_index(1) == 9    # positions 2, 4 -> I+
    assert sch.minus_index(2) == 16
    assert sch.classify(9) == (1.0, 1)
    assert sch.classify(7) == (0.0, 0)
    with pytest.raises(SchemeExhausted) as exc:
        sch.classify(101)
    _past(exc.value, 101, 100)
    # a position past the prefix names the prefix length
    with pytest.raises(SchemeExhausted) as exc:
        sch.index_at(5)
    _past(exc.value, 5, 4)
    assert sch.max_k() == 2


@pytest.mark.parametrize("scheme", [
    identity_scheme(),
    bw_extract(SubspaceD("finite", (W1,)), 2, 64),
], ids=["identity", "extracted"])
def test_index_at_rejects_positions_below_one(scheme):
    # on a prefix tuple, j = 0 and -1 would wrap to its last entries
    for j in (0, -1):
        with pytest.raises(IndexZero):
            scheme.index_at(j)
    for k in (0, -1):
        with pytest.raises(IndexZero):
            scheme.plus_index(k)
        with pytest.raises(IndexZero):
            scheme.minus_index(k)
    assert scheme.index_at(1) >= 1


def test_scheme_json_roundtrip():
    sch = IndexScheme("finite", (3, 9, 15), (-0.5, 0.25), (0.5, 0.25), 64)
    back = IndexScheme.from_json(sch.to_json())
    assert back.prefix == sch.prefix
    assert back.alpha == sch.alpha
    assert back.tol_schedule == sch.tol_schedule
    assert back.coverage == 64


@pytest.mark.parametrize("prefix", [
    [2.7, True, "5", 4],        # int() would read this as (2, 1, 5, 4)
    [3, 3, 9],                  # a repeated entry
    [9, 3, 15], [0, 3, 9], [True, 3], [3.0, 9], [3, 2 ** 63], "39", 39,
])
def test_scheme_from_json_rejects_malformed_prefix(prefix):
    obj = IndexScheme("finite", (3, 9, 15), (-0.5,), (0.5,), 64).to_json()
    obj["prefix"] = prefix
    with pytest.raises(ConfigError):
        IndexScheme.from_json(obj)


@pytest.mark.parametrize("key, value", [
    ("alpha", ["0.5"]),             # float() would read this as (0.5,)
    ("tol_schedule", [0.5, "0.25"]),
    ("alpha", [float("nan")]), ("tol_schedule", [float("inf")]), ("alpha", [True]),
    ("alpha", "0.5"), ("tol_schedule", (0.5,)),
    ("scan_budget_used", "abc"),    # classify(2) would compare int with str
    ("scan_budget_used", 64.0), ("scan_budget_used", True), ("scan_budget_used", None),
    ("scan_budget_used", 0),
    ("scan_budget_used", 3),        # index 9 would be SchemeExhausted
    ("mode", "bogus"), ("mode", None),
    ("mode", "identity"),           # its prefix would be ignored
])
def test_scheme_from_json_rejects_malformed_fields(key, value):
    obj = IndexScheme("finite", (3, 9, 15), (-0.5,), (0.5,), 64).to_json()
    obj[key] = value
    with pytest.raises(ConfigError):
        IndexScheme.from_json(obj)


@pytest.mark.parametrize("key", ["mode", "prefix", "alpha", "tol_schedule",
                                 "scan_budget_used"])
def test_scheme_from_json_rejects_a_missing_key(key):
    obj = IndexScheme("finite", (3, 9, 15), (-0.5,), (0.5,), 64).to_json()
    del obj[key]
    with pytest.raises(ConfigError):
        IndexScheme.from_json(obj)


def test_identity_scheme_has_no_fields():
    identity = identity_scheme().to_json()
    assert IndexScheme.from_json(identity) == identity_scheme()
    for key, value in (("prefix", [1, 2]), ("alpha", [0.5]), ("tol_schedule", [0.5]),
                       ("scan_budget_used", 64)):
        with pytest.raises(ConfigError):
            IndexScheme.from_json({**identity, key: value})


@pytest.mark.parametrize("scheme", [
    identity_scheme(),
    bw_extract(SubspaceD("finite", (W1,)), 2, 64),
], ids=["identity", "extracted"])
def test_classify_rejects_indices_below_one(scheme):
    for n in (0, -1, -64):
        with pytest.raises(IndexZero):
            scheme.classify(n)


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


@pytest.mark.parametrize("depth", [0, -1])
def test_bw_extract_needs_depth_one(depth):
    with pytest.raises(ValueError, match="depth"):
        bw_extract(finite_d(), depth, 64)


def test_extractions_need_a_scan_budget_of_one():
    # numpy's "zero-size array to reduction operation maximum" before
    with pytest.raises(ValueError, match="scan_budget = 0 must be >= 1"):
        bw_extract(SubspaceD("finite", (W1,)), 1, 0)
    with pytest.raises(ValueError, match="scan_budget = 0 must be >= 1"):
        diagonal_extract(SubspaceD("countable", (W1,)), 1, (0.5,), 0)


def _unread(n):
    raise AssertionError(f"coordinate {n} read before the arguments were checked")


_NOT_COUNTS = [0, -1, 2.5, 4096.0, True, False, np.float64(64.0), np.True_, np.int64(0),
               "64"]


@pytest.mark.parametrize("value", _NOT_COUNTS)
@pytest.mark.parametrize("extract, name", [
    (lambda D, v: bw_extract(D("finite"), v, 64), "depth"),
    (lambda D, v: bw_extract(D("finite"), 1, v), "scan_budget"),
    (lambda D, v: diagonal_extract(D("countable"), v, (0.5,), 64), "m"),
    (lambda D, v: diagonal_extract(D("countable"), 1, (0.5,), v), "scan_budget"),
    (lambda D, v: extract_scheme(D("dense"), 1, 64, v), "m"),
])
def test_extraction_counts_are_ints_of_at_least_one(extract, name, value):
    # a float must not reach numpy's indexing, nor a bool the scheme's
    # coverage check or the level loop as 1
    def D(mode):
        return SubspaceD(mode, (from_function(_unread, 1.0),))
    message = f"{name} = {value!r} must be >= 1 and an int"
    with pytest.raises(ValueError, match=re.escape(message)):
        extract(D, value)


def test_extractions_take_numpy_integer_counts():
    D = SubspaceD("countable", (W1, W2))
    for got, want in [(bw_extract(finite_d(), np.int64(2), np.int32(64)),
                       bw_extract(finite_d(), 2, 64)),
                      (diagonal_extract(D, np.uint8(2), (0.5, 0.25), np.int64(64)),
                       diagonal_extract(D, 2, (0.5, 0.25), 64)),
                      (extract_scheme(D, 1, 64, np.int16(2)), extract_scheme(D, 1, 64, 2))]:
        assert got == want and type(got.coverage) is int


@pytest.mark.parametrize("extract", [
    lambda budget: bw_extract(finite_d(), 3, budget),
    lambda budget: diagonal_extract(scaled_family(), 5, SCHEDULE, budget),
])
@pytest.mark.parametrize("budget", [4, 1000])
def test_extracted_prefix_is_a_tuple_of_ints(extract, budget):
    # the extractions hand IndexScheme an int64 array, full or partial
    try:
        scheme = extract(budget)
    except BudgetExhausted as exc:
        assert budget == 4
        scheme = exc.partial
    assert type(scheme.prefix) is tuple and scheme.prefix
    assert all(type(n) is int for n in scheme.prefix)
    assert not any(isinstance(v, np.ndarray) for v in vars(scheme).values())


@st.composite
def _prefix_arrays(draw):
    """int64 arrays that are valid prefixes, empty, or flawed by one
    repeat, one decrease or a first entry of 0 or below."""
    entries = sorted(draw(st.sets(st.integers(1, 2 ** 63 - 1), max_size=12)))
    flaw = draw(st.sampled_from(["none", "repeat", "decrease", "first"]))
    if entries and flaw == "repeat":
        i = draw(st.integers(0, len(entries) - 1))
        entries.insert(i, entries[i])
    elif len(entries) > 1 and flaw == "decrease":
        i = draw(st.integers(1, len(entries) - 1))
        entries[i - 1], entries[i] = entries[i], entries[i - 1]
    elif entries and flaw == "first":
        entries[0] = draw(st.integers(-2 ** 63, 0))
    return np.array(entries, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(arr=_prefix_arrays(), mode=st.sampled_from(["finite", "diagonal", "identity"]),
       numbers=st.sampled_from([(), (0.5,)]),
       coverage=st.sampled_from([None, 1, 2 ** 40, 2 ** 63 - 1]))
@example(arr=np.array([], dtype=np.int64), mode="finite", numbers=(0.5,), coverage=1)
@example(arr=np.array([1, 1], dtype=np.int64), mode="finite", numbers=(), coverage=8)
@example(arr=np.array([2, 1], dtype=np.int64), mode="finite", numbers=(), coverage=8)
@example(arr=np.array([0, 1], dtype=np.int64), mode="finite", numbers=(), coverage=8)
@example(arr=np.array([1, 2 ** 63 - 1], dtype=np.int64), mode="diagonal", numbers=(),
         coverage=2 ** 63 - 1)
def test_array_prefix_follows_the_tuple_rule(arr, mode, numbers, coverage):
    def scheme(prefix):
        try:
            return IndexScheme(mode, prefix, numbers, numbers, coverage)
        except ConfigError:
            return None
    from_array, from_tuple = scheme(arr), scheme(tuple(arr.tolist()))
    assert (from_array is None) == (from_tuple is None)
    if from_array is not None:
        assert from_array == from_tuple and hash(from_array) == hash(from_tuple)
        assert type(from_array.prefix) is tuple
        assert all(type(n) is int for n in from_array.prefix)


@pytest.mark.parametrize("arr", [
    np.array([[1, 2]], dtype=np.int64), np.array([1.0, 2.0]),
    np.array([1, 2], dtype=np.uint64), np.array([True]), np.array([1, 2], dtype=np.int32),
    np.array([], dtype=np.float64)])
def test_array_prefix_must_be_one_dimensional_int64(arr):
    with pytest.raises(ConfigError, match="1-D int64 array"):
        IndexScheme("finite", arr, (), (), 8)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_extractions_reject_a_window_value_that_is_not_finite(bad):
    w = from_function(lambda n: bad if n == 7 else (-1.0) ** n, 1.0)
    with pytest.raises(ValueError, match="coordinates 1..64 hold a value"):
        bw_extract(SubspaceD("finite", (w,)), 1, 64)
    with pytest.raises(ValueError, match="coordinates 1..64 hold a value"):
        diagonal_extract(SubspaceD("countable", (w,)), 1, (0.5,), 64)
    # stage 1 keeps the odd indices (value -1, the lower of two tied
    # cells), so stage 2's bad value at index 8 is off its survivors and
    # still raises: every stage reads its member's whole window
    w1 = from_function(lambda n: (-1.0) ** n, 1.0)
    assert 8 not in diagonal_extract(SubspaceD("countable", (w1,)), 1, (0.5,), 64).prefix
    w2 = from_function(lambda n: bad if n == 8 else 0.5, 1.0)
    with pytest.raises(ValueError, match="coordinates 1..64 hold a value"):
        diagonal_extract(SubspaceD("countable", (w1, w2)), 2, (0.5, 0.25), 64)


def test_diagonal_extract_validates_schedule():
    D = scaled_family()
    for m in (0, -1):
        with pytest.raises(ValueError, match="m = "):
            diagonal_extract(D, m, SCHEDULE, 1000)
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


@pytest.mark.parametrize("scan_budget", [1, 2])
def test_diagonal_extract_needs_one_pair(scan_budget):
    # m = 1 with one survivor: a one-entry prefix, no eta-/eta+ pair
    D = SubspaceD("countable", (W1,))
    with pytest.raises(BudgetExhausted, match="no eta-/eta\\+ pair") as exc:
        diagonal_extract(D, 1, (0.5,), scan_budget)
    assert exc.value.partial.prefix == (1,) and exc.value.found == 1
    assert diagonal_extract(D, 1, (0.5,), 4).prefix == (1, 3)


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
    scheme = IndexScheme("diagonal", prefix, tuple(betas), tuple(schedule[:m]),
                         scan_budget)
    if len(prefix) < 2:
        raise BudgetExhausted(f"prefix has {len(prefix)} index < 2: no eta-/eta+ pair",
                              partial=scheme, found=len(prefix))
    return scheme


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


def _row_bucketing(D, depth, scan_budget):
    """bw_extract's prefix and alpha by whole-row bucketing: each level's
    rows of cells by `seqcore._bucket`, grouped by np.unique(axis=0),
    the most-hit row surviving, ties to the smallest."""
    Z = np.column_stack([m.coordinates(1, scan_budget) for m in D.members])
    bounds = np.array([m.bound for m in D.members])
    survivors = np.arange(scan_budget)
    for level in range(1, depth + 1):
        sides = bounds / 2.0 ** (level - 1)
        cells = np.column_stack([_bucket(Z[survivors, i], bounds[i], sides[i])
                                 for i in range(D.size)])
        uniq, inverse, counts = np.unique(cells, axis=0, return_inverse=True,
                                          return_counts=True)
        best = int(np.argmax(counts))
        survivors = survivors[inverse.ravel() == best]
    alpha = -bounds + (uniq[best] + 0.5) * sides
    return tuple(int(n) + 1 for n in survivors), [float(a).hex() for a in alpha]


@pytest.mark.parametrize("unit, top", [(5e-324, 7), (5e-324, 13), (1.0, 7)])
def test_bw_extract_matches_row_bucketing_on_wide_cell_spans(unit, top):
    # values k * unit, |k| <= top, bound top * unit: at 7 * 2^-1074 the
    # level-2 side rounds to 4 * 2^-1074 and the level-2 cells of level-1
    # cell 1 are {1, 2, 3}, a span that one binary digit per column
    # cannot rank
    rng = np.random.default_rng(38)
    for _ in range(300):
        budget, depth = int(rng.integers(1, 61)), int(rng.integers(1, 6))
        columns = [(rng.integers(-top, top, size=budget, endpoint=True) * unit).tolist()
                   for _ in range(2)]
        D = SubspaceD("finite", tuple(from_function(lambda n, c=c: c[n - 1], top * unit)
                                      for c in columns))
        try:
            scheme = bw_extract(D, depth, budget)
        except BudgetExhausted as exc:
            scheme = exc.partial
        assert ((scheme.prefix, [a.hex() for a in scheme.alpha])
                == _row_bucketing(D, depth, budget))


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


_AT_SPECS = ["fdlp:dim=2,p=1", "fdlp:dim=3,p=1.5", "fdlp:dim=2,p=2",
             "fdlp:dim=2,p=3", "fdlp:dim=3,p=inf", "seqlp:p=1,support=4",
             "seqlp:p=1.5,support=4", "seqlp:p=2,support=4", "c01",
             {"kind": "custom", "p": 2, "points": [[1.0, 0.0], [0.6, -0.8], [0.0, 1.0]]}]


def _same_rows(a, b):
    """The leading rows both cache matrices hold agree; columns only one
    of them has (the padding of a wider level) are zero."""
    n, w = min(len(a), len(b)), min(a.shape[1], b.shape[1])
    return (np.array_equal(a[:n, :w], b[:n, :w])
            and not a[:n, w:].any() and not b[:n, w:].any())


@settings(max_examples=120, deadline=None)
@given(spec=st.sampled_from(_AT_SPECS), mode=st.sampled_from(sorted(_PLACEMENTS)),
       seed=st.integers(0, 2 ** 32 - 1), warm=st.integers(1, 200),
       ns=st.lists(st.integers(1, 4096), max_size=40))
def test_coordinates_at_matches_oracle(spec, mode, seed, warm, ns):
    # two spaces warmed alike: one image read by index in one call, the
    # other index by index through the oracle; indices are unsorted,
    # repeated, off I and past the warmed net cache
    x = parse_space(spec).lattice_sample(np.random.default_rng(seed))
    by_index, scalar = parse_space(spec), parse_space(spec)
    for sp in (by_index, scalar):
        sp.net_point(warm)
    got = coordinates_at(_PLACEMENTS[mode](by_index, x), ns)
    want = [coordinate(_PLACEMENTS[mode](scalar, x), n) for n in ns]
    assert np.asarray(want, dtype=float).tobytes() == got.tobytes()
    assert _same_rows(by_index._U, scalar._U)
    assert _same_rows(by_index._Phi, scalar._Phi)


@pytest.mark.parametrize("mode", ["bw_extract", "diagonal_extract"])
def test_classify_matches_prefix_positions(mode):
    # n_j is eta-((j + 1) / 2) for odd j and eta+(j / 2) for even j;
    # every other index within coverage is off I, and past it exhausted
    scheme = {"bw_extract": _BW, "diagonal_extract": _DIAG}[mode]
    pos = {n: j for j, n in enumerate(scheme.prefix, 1)}
    for n in range(1, scheme.coverage + 1):
        j = pos.get(n)
        want = (0.0, 0) if j is None else (1.0, j // 2) if j % 2 == 0 else (-1.0, (j + 1) // 2)
        assert scheme.classify(n) == want
    with pytest.raises(SchemeExhausted) as exc:
        scheme.classify(scheme.coverage + 1)
    _past(exc.value, scheme.coverage + 1, scheme.coverage)


@pytest.mark.parametrize("mode", ["bw_extract", "diagonal_extract"])
def test_only_identity_images_read_by_index(mode):
    # extracted images are read through the oracle; T(x) keeps `at` and `block`
    sp, x = FiniteDimLp(2, 2), np.array([3.0, 4.0])
    s = _PLACEMENTS[mode](sp, x)
    assert s.at is None and s.block is None
    for placement in ("embed_t1", "identity"):
        t = _PLACEMENTS[placement](sp, x)
        assert t.at is not None and t.block is not None


@pytest.mark.parametrize("mode", ["bw_extract", "diagonal_extract"])
def test_coordinates_at_off_and_past_the_scheme(mode):
    scheme = {"bw_extract": _BW, "diagonal_extract": _DIAG}[mode]
    s = _PLACEMENTS[mode](FiniteDimLp(2, 2), np.array([3.0, 4.0]))
    ns = np.arange(1, scheme.coverage + 1)
    off = np.array([scheme.classify(n)[0] == 0.0 for n in ns.tolist()])
    vals = coordinates_at(s, ns)
    assert off.any() and vals[off].tobytes() == np.zeros(off.sum()).tobytes()
    assert vals[~off].all()
    past = scheme.coverage + 1
    # the first index past coverage, in the order given, is the one named
    for bad, first in (([past], past), ([5, past + 6, 3, past], past + 6)):
        with pytest.raises(SchemeExhausted) as by_index:
            coordinates_at(s, bad)
        with pytest.raises(SchemeExhausted) as scalar:
            [coordinate(s, n) for n in bad]
        _past(by_index.value, first, scheme.coverage)
        _past(scalar.value, first, scheme.coverage)


_MEMO_SPECS = ["fdlp:dim=2,p=2", "seqlp:p=2,support=4", "c01"]


def _counted_values(monkeypatch, sp):
    """The k of every phi_k(x) that images built on sp from now on ask
    of `functional_oracle`, in order."""
    calls, build = [], sp.functional_oracle

    def counted(x):
        value = build(x)

        def read(k):
            calls.append(k)
            return value(k)
        return read
    monkeypatch.setattr(sp, "functional_oracle", counted)
    return calls


@pytest.mark.parametrize("spec", _MEMO_SPECS)
def test_pair_reads_share_one_functional_value(spec, monkeypatch):
    sp = parse_space(spec)
    x = sp.random_element(np.random.default_rng(11))
    calls = _counted_values(monkeypatch, sp)
    t = embed_t1(sp, x)
    vals = [coordinate(t, n) for n in range(1, 601)]
    assert calls == list(range(1, 301))
    assert np.asarray(vals).tobytes() == t.block(1, 600).tobytes()
    for scheme in (_BW, _DIAG):
        calls.clear()
        s = scheme_embed(sp, scheme, x)
        for k in range(1, scheme.max_k() + 1):
            coordinate(s, scheme.minus_index(k))
            coordinate(s, scheme.plus_index(k))
        assert calls == list(range(1, scheme.max_k() + 1))


@pytest.mark.parametrize("spec", _MEMO_SPECS)
@pytest.mark.parametrize("mode", ["embed_t1", "bw_extract", "diagonal_extract"])
def test_scrambled_reads_keep_their_bits(spec, mode):
    # pair members apart, repeated and reversed, with reads off I (0.0)
    # and past coverage (SchemeExhausted) between them: every value has
    # the bits of the block (T(x), sign -1) or of the signed
    # functional_values (extracted schemes, sign +1)
    sp = parse_space(spec)
    x = sp.random_element(np.random.default_rng(13))
    s = _PLACEMENTS[mode](sp, x)
    if mode == "embed_t1":
        ns = [1, 2, 2, 1, 4, 3, 9, 3, 10, 4, 1, 10, 9]
        want = dict(zip(range(1, 11), s.block(1, 10).tolist()))
        off = None
    else:
        scheme = {"bw_extract": _BW, "diagonal_extract": _DIAG}[mode]
        at = scheme.index_at
        off = min(set(range(1, scheme.coverage + 1)) - set(scheme.prefix))
        past = scheme.coverage + 1
        ns = [at(1), off, at(2), past, at(2), at(1), at(4), off, at(3), past,
              at(3), at(6), at(1), at(5), past, at(2), off, at(6)]
        vals = parse_space(spec).functional_values(x, 3)
        want = {at(j): (1.0 if j % 2 == 0 else -1.0) * vals[(j + 1) // 2 - 1]
                for j in range(1, 7)}
        want[off] = 0.0
    # a pair member read with the other's sign would show
    assert all(v != 0.0 for n, v in want.items() if n != off)
    for n in ns:
        if n not in want:
            with pytest.raises(SchemeExhausted) as exc:
                coordinate(s, n)
            _past(exc.value, n, scheme.coverage)
            continue
        assert np.float64(coordinate(s, n)).tobytes() == np.float64(want[n]).tobytes(), n


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
    with pytest.raises(SchemeExhausted) as exc:
        limit_along(W1, sch, sch.length + 1)
    _past(exc.value, sch.length + 1, sch.length)


def _limit_at_each_index(d, scheme, j_window):
    """(L, err) of limit_along from d's oracle at index_at(j), one j at a time."""
    vals = np.array([coordinate(d, scheme.index_at(j))
                     for j in range(j_window // 2 + 1, j_window + 1)])
    L = float(np.mean(vals))
    delta = scheme.tol_schedule[-1] if scheme.tol_schedule else 0.0
    return L, float(np.max(np.abs(vals - L))) + delta


@pytest.mark.parametrize("kind", ["identity", "bw", "diagonal"])
def test_limit_along_window_matches_reading_each_index(kind):
    sch = {"identity": identity_scheme,
           "bw": lambda: bw_extract(finite_d(), depth=4, scan_budget=4096),
           "diagonal": lambda: diagonal_extract(scaled_family(), 5, SCHEDULE, 10000),
           }[kind]()
    length = sch.length or 300
    # with a block, without one, and a combination of periodic members
    for d in (explicit_limit(0.2, 1.0), from_function(lambda n: math.sin(n) / n, 1.0),
              combine([1.0, 0.5], [W1, W2])):
        for j_window in (2, 3, 7, length - 1, length):
            est = limit_along(d, sch, j_window)
            want = _limit_at_each_index(d, sch, j_window)
            assert (est.L.hex(), est.err.hex()) == tuple(v.hex() for v in want), \
                (kind, j_window)


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


def test_separation_witness_reads_d_once_per_index():
    # d is read by limit_along's window, then once per index of each
    # inspected pair, through the image T(x) - d, and nowhere else
    reads = []
    d = from_function(lambda n: reads.append(n) or 0.5, 0.5)
    sp, x = FiniteDimLp(2, 2), np.array([3.0, 4.0])
    sch = bw_extract(finite_d(), depth=4, scan_budget=4096)
    limit_along(d, sch, sch.length)
    window = list(reads)
    reads.clear()
    w = separation_witness(sp, sch, x, d, 0.2, 5)
    # d is constant at its limit, so every inspected pair is taken
    assert reads == window + [n for pair in zip(w.plus_indices, w.minus_indices)
                              for n in pair]


def test_separation_witness_refuses_an_empty_band():
    # err(L) = 0.933 of d along the depth-1 scheme exceeds ||x|| (1 - epsilon)
    # = 0.008, so target_hi < target_lo: nothing is read, nothing is found
    d = periodic([1.0, -1.0, 0.5, -0.5, 0.9, -0.2])
    sch = bw_extract(SubspaceD("finite", (d,)), depth=1, scan_budget=4096)
    reads = []
    counted = from_function(lambda n: reads.append(n) or coordinate(d, n), d.bound)
    with pytest.raises(BudgetExhausted, match="target_hi = .* target_lo = ") as exc:
        separation_witness(FiniteDimLp(2, 2), sch, np.array([0.01, 0.0]), counted, 0.2, 5)
    assert exc.value.found == 0 and exc.value.partial.plus_indices == ()
    assert exc.value.partial.target_hi < exc.value.partial.target_lo
    assert len(reads) == sch.length - sch.length // 2     # limit_along's window alone


_SEP_SPACES = {spec: parse_space(spec)
               for spec in ("fdlp:dim=2,p=2", "fdlp:dim=3,p=1.5", "fdlp:dim=2,p=inf",
                            "seqlp:p=2", "seqlp:p=1")}
_SEP_MEMBERS = st.one_of(
    st.lists(st.floats(-1, 1), min_size=2, max_size=6).map(periodic),
    st.builds(eventually_constant, st.floats(-1, 1), st.integers(1, 20)))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(_SEP_SPACES)),
       st.lists(st.floats(-1, 1), min_size=3, max_size=3).filter(any),
       st.floats(-3, 3),
       st.lists(st.tuples(st.floats(-2, 2), _SEP_MEMBERS), min_size=1, max_size=2),
       st.integers(1, 3))
@example("fdlp:dim=2,p=2", [1.0, 0.0, 0.0], -2.0,
         [(1.0, periodic([1.0, -1.0, 0.5, -0.5, 0.9, -0.2]))], 1)
@example("seqlp:p=1", [0.0, 0.0, 2.2250738585e-313], 0.0, [(0.0, periodic([0.0, 0.0]))], 1)
def test_separation_witness_clears_its_targets(spec, entries, log_norm, terms, depth):
    space = _SEP_SPACES[spec]
    used = entries[:space.dim] if spec.startswith("fdlp") else entries
    top = max(map(abs, used))
    assume(top > 0.0)
    # entries over their largest first: 10^log_norm / ||x|| overflows
    # to inf on a subnormal x, and x would leave the range ||x|| is drawn from
    used = [e / top for e in used]
    x = np.array(used) if spec.startswith("fdlp") else dict(enumerate(used, 1))
    x = space.scale(10.0 ** log_norm / space.norm(x), x)
    coeffs, members = zip(*terms)
    D = SubspaceD("finite", members)
    try:
        sch = bw_extract(D, depth, scan_budget=512)
    except BudgetExhausted:
        return
    d = D.combination(coeffs)
    try:
        w = separation_witness(space, sch, x, d, 0.2, 3, scan_budget=2000)
    except BudgetExhausted:
        return
    assert w.gap > 0.0 and w.gap >= w.target_hi - w.target_lo
    image = combine((1.0, -1.0), (scheme_embed(space, sch, x), d))
    assert reverify_witness(image, w)


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
