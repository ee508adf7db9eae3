import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from seqembed import (BoundedSeq, BudgetExhausted, CustomNet, FiniteDimLp, InC, NotInC,
                      SeqLp, SubspaceD, Unknown, ZeroElement, bw_extract, check_isometry,
                      check_separation, classify_c, combine, coordinate, diagonal_extract,
                      embed_t1, eventually_constant, explicit_limit, extend,
                      from_function, identity_scheme, parse_space, periodic, pl_function,
                      prefix_sup, reverify_witness, separation_witness, verify, zero_seq)
from seqembed.errors import KindMismatch
from seqembed.spaces import SCAN_BLOCK
from reference import brute_force_sup, end_cluster_estimates, net_size_through_level


def test_tagged_sequences_are_in_c():
    v = classify_c(eventually_constant(3.0, start=5), 64, 1.0)
    assert isinstance(v, InC)
    assert v.limit == 3.0 and v.tail_variation == 0.0

    v = classify_c(explicit_limit(-2.0, 4.0), 100, 1.0)
    assert isinstance(v, InC)
    assert v.limit == -2.0
    assert v.tail_variation == pytest.approx(0.04)

    assert isinstance(classify_c(zero_seq(), 64, 1.0), InC)


def test_combo_of_convergent_is_in_c():
    s = combine([2.0, 1.0], [eventually_constant(1.0), explicit_limit(0.5, 1.0)])
    v = classify_c(s, 64, 1.0)
    assert isinstance(v, InC)
    assert v.limit == pytest.approx(2.5)


def test_block_disagreeing_with_oracle_is_unknown():
    # one cluster member's block value is off: the witness built from the
    # bucketed window must fail the re-check against the oracle
    s = periodic([-1.0, 1.0])

    def block(lo, hi):
        out = s.block(lo, hi)
        out[2 - lo] = 0.9375        # index 2, the first plus member
        return out

    assert isinstance(classify_c(s, 64, 1.0), NotInC)
    tampered = BoundedSeq(s.oracle, s.bound, block=block)
    assert isinstance(classify_c(tampered, 64, 1.0), Unknown)


@pytest.mark.parametrize("field, i", [("plus_indices", 3), ("minus_indices", -1)])
def test_at_disagreeing_with_block_is_unknown(field, i):
    # the read-side twin: the by-index read is off at one witness index,
    # so the witness the block gave must fail its re-read
    s = periodic([-1.0, 1.0])
    n = getattr(classify_c(s, 64, 1.0).witness, field)[i]

    def at(ns):
        out = s.at(ns)
        out[ns == n] = 0.9375
        return out

    tampered = BoundedSeq(s.oracle, s.bound, block=s.block, at=at)
    assert isinstance(classify_c(tampered, 64, 1.0), Unknown)


def test_classify_rereads_its_witness_in_one_at_call():
    # the 2m witness indices, plus then minus, as one int64 array
    s = _image("fdlp:dim=2,p=2", np.array([3.0, 4.0]))
    calls = []

    def at(ns):
        calls.append(ns.copy())
        return s.at(ns)

    v = classify_c(BoundedSeq(s.oracle, s.bound, block=s.block, at=at), 4096, 5.0)
    assert isinstance(v, NotInC)
    (ns,) = calls
    w = v.witness
    assert ns.dtype == np.int64 and len(ns) == 2 * len(w.plus_indices)
    assert ns.tolist() == [*w.plus_indices, *w.minus_indices]


@functools.lru_cache(maxsize=None)
def _space(spec):
    """One space per spec, so the property's nets grow once."""
    return parse_space(spec)


_QUARTERS = st.integers(-8, 8).map(lambda v: v / 4.0)


@st.composite
def _sequences(draw):
    """A periodic sequence, a combination with a convergent one, or
    T(x) on fdlp, seqlp or c01."""
    kind = draw(st.sampled_from(["periodic", "combo", "fdlp", "seqlp", "c01"]))
    def values(lo, hi):
        return draw(st.lists(_QUARTERS, min_size=lo, max_size=hi))
    if kind == "periodic":
        return periodic(values(1, 6))
    if kind == "combo":
        return combine(values(2, 2), [periodic(values(1, 6)), explicit_limit(*values(2, 2))])
    if kind == "fdlp":
        return embed_t1(_space("fdlp:dim=2,p=2"), np.array(values(2, 2)))
    if kind == "seqlp":
        x = draw(st.dictionaries(st.integers(1, 4), _QUARTERS, max_size=4))
        return embed_t1(_space("seqlp:p=2,support=4"), x)
    return embed_t1(_space("c01"), pl_function((0.0, 0.5, 1.0), values(3, 3)))


@settings(max_examples=150, deadline=None)
@given(_sequences(), st.integers(64, 16384), st.sampled_from([0.125, 0.5, 1.0, 1.5]))
def test_every_not_in_c_passes_the_public_reverify(s, budget, floor):
    # classify_c re-reads its witness from the arrays it built it from;
    # the public check, from the witness's tuples, agrees
    v = classify_c(s, budget, floor * (s.bound or 1.0))
    if isinstance(v, NotInC):
        assert reverify_witness(s, v.witness)


def test_periodic_oscillation_detected():
    v = classify_c(periodic([-1.0, 1.0]), 64, 1.0)
    assert isinstance(v, NotInC)
    assert v.witness.gap == pytest.approx(2.0)
    assert reverify_witness(periodic([-1.0, 1.0]), v.witness)


def test_witness_pairs_the_end_cells_not_the_most_hit():
    # per period: -1 twice, 0 four times (the most-hit cell), 0.5 and 1
    # once; the witness pairs the first 8 members of the top cell (1)
    # with the first 8 of the bottom one (-1), as Python ints and floats
    s = periodic([-1.0, 0.0, -1.0, 0.0, 1.0, 0.0, 0.5, 0.0])
    w = classify_c(s, 64, 1.0).witness
    assert w.plus_indices == tuple(range(5, 64, 8))
    assert w.minus_indices == (1, 3, 9, 11, 17, 19, 25, 27)
    assert w.plus_values == (1.0,) * 8 and w.minus_values == (-1.0,) * 8
    assert {type(n) for n in w.plus_indices + w.minus_indices} == {int}
    assert {type(v) for v in w.plus_values + w.minus_values + (w.gap,)} == {float}
    assert w.gap == 2.0


def test_opaque_convergent_never_in_c():
    # numerically convergent but untagged: the honest verdict is Unknown
    s = from_function(lambda n: 1.0 / n, 1.0)
    v = classify_c(s, 256, 0.5)
    assert isinstance(v, Unknown)
    assert v.budget_used == 256
    assert v.clusters_seen == 5     # the cells of width 1/8 that 1/n hits


def test_opaque_oscillation_still_not_in_c():
    s = from_function(lambda n: (-1.0) ** n * 2.0, 2.0)
    v = classify_c(s, 64, 1.0)
    assert isinstance(v, NotInC)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_classify_rejects_a_window_value_that_is_not_finite(bad):
    # it reached _bucket's int cast: a numpy RuntimeWarning, and Unknown
    s = from_function(lambda n: bad if n == 7 else (-1.0) ** n, 1.0)
    with pytest.raises(ValueError, match="coordinates 1..64 hold a value that is not finite"):
        classify_c(s, 64, 1.0)


def test_starved_budget_gives_unknown():
    # only 3 coordinates per side: below the 5-member floor
    v = classify_c(periodic([-1.0, 1.0]), 6, 1.0)
    assert isinstance(v, Unknown)


def test_gap_floor_at_the_int64_cell_limit():
    # quarter-gap cells over [-1, 1]: 2^62 of them at 2^-59, past the
    # limit at 2^-60, where int64 indices overflowed into an Unknown
    assert isinstance(classify_c(periodic([-1.0, 1.0]), 64, 2.0 ** -59), NotInC)
    with pytest.raises(ValueError):
        classify_c(periodic([-1.0, 1.0]), 64, 2.0 ** -60)


def test_gap_floor_above_oscillation_gives_unknown():
    v = classify_c(periodic([-1.0, 1.0]), 64, 5.0)
    assert isinstance(v, Unknown)


def test_classify_validates_args():
    with pytest.raises(ValueError):
        classify_c(zero_seq(), 1, 1.0)
    with pytest.raises(ValueError):
        classify_c(zero_seq(), 64, 0.0)


@pytest.mark.parametrize("gap_floor", [0.0, -1.0, math.nan, 1e-323, 5e-324])
def test_gap_floor_without_a_positive_quarter_is_named(gap_floor):
    # 1e-323 / 4 rounds to 0.0: the cell width, which the caller never set
    with pytest.raises(ValueError, match=r"^gap_floor = .* must be positive, and so must its quarter$"):
        classify_c(periodic([1.0, -1.0]), 64, gap_floor)


def test_embedded_images_never_in_c():
    sp = FiniteDimLp(2, 2)
    for x in ([3.0, 4.0], [1.0, 0.0], [0.5, -0.5]):
        x = np.array(x)
        v = classify_c(embed_t1(sp, x), 4096, sp.norm(x))
        assert isinstance(v, NotInC)
        assert reverify_witness(embed_t1(sp, x), v.witness)


def _image(spec, x):
    return embed_t1(parse_space(spec), x)


@pytest.mark.parametrize("s, budget, gap_floor, kind, ends", [
    (periodic([-1.0, 1.0]), 64, 1.0, NotInC, 2),
    (periodic([-1.0, 0.0, -1.0, 0.0, 1.0, 0.0, 0.5, 0.0]), 64, 1.0, NotInC, 2),
    (_image("fdlp:dim=2,p=2", np.array([3.0, 4.0])), 4096, 5.0, NotInC, 2),
    (_image("seqlp:p=2,support=4", {1: 3.0, 2: 4.0}), 2048, 5.0, NotInC, 2),
    (_image("c01", pl_function((0.0, 0.5, 1.0), (3.0, -4.0, 0.0))), 2048, 4.0, NotInC, 2),
    (periodic([-1.0, 1.0]), 64, 5.0, Unknown, 2),
    (from_function(lambda n: (-1.0) ** n * (1.0 - n % 5 / 4), 1.0), 256, 3.0, Unknown, 2),
    (from_function(lambda n: 1.0 / n, 1.0), 256, 0.5, Unknown, 1),
    (from_function(lambda n: 0.3, 1.0), 64, 1.0, Unknown, 1),
    (from_function(lambda n: math.sin(n), 1.0), 512, 1e-6, Unknown, 0),
], ids=["periodic", "most-hit-inside", "fdlp-image", "seqlp-image", "c01-image",
        "floor-over-gap", "several-cells", "one-populated-cell", "one-cell",
        "no-populated-cell"])
def test_verdict_on_the_reference_clusters_is_the_same(monkeypatch, s, budget, gap_floor,
                                                        kind, ends):
    # the reference builds every cell: its end cells give the same kind,
    # witness (indices, values, gap) and count of nonempty cells
    window = range(1, budget + 1)
    assert len(end_cluster_estimates(s, window, gap_floor / 4.0, 5)[0]) == ends
    v = classify_c(s, budget, gap_floor)
    monkeypatch.setattr(verify, "cluster_estimates", end_cluster_estimates)
    want = classify_c(s, budget, gap_floor)
    assert type(v) is kind and v == want and repr(v) == repr(want)


# -- suites -------------------------------------------------------------------

def test_check_isometry_report():
    sp = FiniteDimLp(2, 2)
    out = check_isometry(sp, [np.array([3.0, 4.0]), np.array([1.0, 1.0])], 64)
    assert all(r["pass"] for r in out["per_sample"]) and not out["errors"]
    assert len(out["per_sample"]) == 2
    assert out["max_relative_defect"] < 0.05
    assert all(r["lower"] <= r["achieved"] <= r["upper"] for r in out["per_sample"])


def test_check_isometry_flags_zero_sample():
    sp = FiniteDimLp(2, 2)
    out = check_isometry(sp, [np.zeros(2)], 16)
    assert out["per_sample"] == []
    assert out["errors"] and "ZeroElement" in out["errors"][0]["error"]


def test_check_separation_includes_zero_d():
    sp = FiniteDimLp(2, 2)
    D = SubspaceD("finite", (periodic([-1.0, 1.0]), periodic([1.0, -1.0, 0.0])))
    sch = bw_extract(D, 4, 4096)
    out = check_separation(sp, D, sch, [np.array([3.0, 4.0])],
                           [[1.0, 0.0]], 0.2, 5)
    assert not out["errors"] and not out["budget_exhausted"]
    # zero combination was prepended
    assert [w["d_id"] for w in out["witnesses"]] == [0, 1]
    assert all(w["gap"] > 0 for w in out["witnesses"])


def _opaque(s: BoundedSeq) -> BoundedSeq:
    """s read one index at a time, with no tag and no block."""
    return from_function(lambda n: coordinate(s, n), s.bound)


_TABLE_MEMBERS = st.one_of(
    st.lists(_QUARTERS, min_size=1, max_size=4).map(periodic),
    st.builds(eventually_constant, _QUARTERS, st.integers(1, 20)),
    st.builds(explicit_limit, _QUARTERS, _QUARTERS),
    st.lists(_QUARTERS, min_size=1, max_size=4).map(lambda v: _opaque(periodic(v))),
    st.just(from_function(math.sin, 1.0)))


def _sample(spec, entries):
    """x in the space of `spec` from three entries (zero when they are)."""
    if spec.startswith("fdlp"):
        return np.array(entries[:2])
    if spec.startswith("seqlp"):
        return {i: e for i, e in enumerate(entries, 1) if e}
    return pl_function((0.0, 0.5, 1.0), entries)


def _table_scheme(kind, members):
    if kind == "identity":
        return SubspaceD("finite", members), identity_scheme()
    if kind == "finite":
        D = SubspaceD("finite", members)
        return D, bw_extract(D, 2, 512)
    D = SubspaceD("countable", members)
    return D, diagonal_extract(D, len(members), [0.5 / 2.0 ** i for i in range(len(members))],
                               512)


def _pair(run):
    """The table row `check_separation` makes of one pair's outcome."""
    try:
        return "witnesses", {"witness": run()}
    except BudgetExhausted as exc:
        return "budget_exhausted", {"found": exc.found, "detail": str(exc)}
    except ZeroElement as exc:
        return "errors", {"error": f"ZeroElement: {exc}"}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["fdlp:dim=2,p=2", "seqlp:p=2,support=4", "c01"]),
       st.sampled_from(["identity", "finite", "diagonal"]),
       st.lists(_TABLE_MEMBERS, min_size=1, max_size=3),
       st.lists(st.lists(_QUARTERS, min_size=3, max_size=3), min_size=1, max_size=3),
       st.lists(st.lists(_QUARTERS, min_size=0, max_size=3), min_size=1, max_size=3),
       st.sampled_from([0.2, 0.5]), st.integers(1, 4), st.sampled_from([1, 2, 8, 64, 2000]))
@example("fdlp:dim=2,p=2", "finite", [periodic([-1.0, 1.0]), _opaque(periodic([1.0, 0.5]))],
         [[3.0, 4.0, 0.0], [0.0, 0.0, 0.0], [0.25, 0.0, 0.0]], [[1.0, 0.0], [0.0, 2.0]],
         0.2, 4, 8)
@example("c01", "diagonal", [from_function(math.sin, 1.0), eventually_constant(0.5, 3)],
         [[1.0, -1.0, 0.5]], [[0.0, 1.0], [2.0]], 0.2, 3, 2000)
def test_check_separation_is_the_table_of_its_pairs(spec, kind, members, entries, d_rows,
                                                    epsilon, count, budget):
    # the shared hit streams and limits give, row by row, the outcome
    # separation_witness gives each (x, d) pair on its own: the whole
    # witness, an exhausted scan's found and detail, or a zero x
    space = _space(spec)
    d_rows = [row[:len(members)] for row in d_rows]
    try:
        D, scheme = _table_scheme(kind, tuple(members))
    except BudgetExhausted:
        return
    samples = [_sample(spec, e) for e in entries]
    rows = d_rows
    if not any(all(c == 0.0 for c in row) for row in rows):
        rows = [[0.0] * D.size] + rows
    want = {"witnesses": [], "errors": [], "budget_exhausted": []}
    for sid, x in enumerate(samples):
        for did, row in enumerate(rows):
            table, body = _pair(lambda: separation_witness(
                space, scheme, x, D.combination(row), epsilon, count, scan_budget=budget))
            want[table].append({"x_id": sid, "d_id": did, **body})
    with mock.patch.object(verify, "_witness_json", lambda w: {"witness": w}):
        got = check_separation(space, D, scheme, samples, d_rows, epsilon, count,
                               scan_budget=budget)
    assert got == want


def test_check_separation_reads_a_profile_per_sample_and_a_limit_per_row(monkeypatch):
    # every d row of a sample scans copies of one hit stream, and a d
    # row's limit is read once for all samples: 3 samples x 4 rows read
    # 3 profile streams and 3 limit windows (the zero row reads none)
    sp = FiniteDimLp(2, 2)
    reads, limits = [], []
    profile, along = sp.distance_profile, extend.limit_along
    monkeypatch.setattr(sp, "distance_profile",
                        lambda v, K, lo=0: reads.append((lo, K)) or profile(v, K, lo))
    monkeypatch.setattr(extend, "limit_along",
                        lambda d, sch, j: limits.append(d) or along(d, sch, j))
    D = SubspaceD("finite", (_opaque(periodic([-1.0, 1.0])), _opaque(periodic([0.5]))))
    samples = [np.array([3.0, 4.0]), np.array([1.0, 0.0]), np.array([-2.0, 1.0])]
    budget = 3 * SCAN_BLOCK
    # no row finds 10^6 pairs, so every row scans the whole budget
    out = check_separation(sp, D, identity_scheme(), samples,
                           [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 2.0]], 0.2, 10 ** 6,
                           scan_budget=budget)
    assert len(out["budget_exhausted"]) == 12
    assert reads == 3 * [(lo, lo + SCAN_BLOCK) for lo in range(0, budget, SCAN_BLOCK)]
    assert len(limits) == 3 and len(set(map(id, limits))) == 3


# -- independent oracle -----------------------------------------------------

def test_brute_force_sup_agrees_with_prefix_sup():
    sp = FiniteDimLp(2, 2)
    x = np.array([3.0, 4.0])
    for level in (1, 2, 3):
        K = net_size_through_level(sp.dim, level)
        assert brute_force_sup(sp, x, level) == pytest.approx(
            prefix_sup(embed_t1(sp, x), 2 * K), abs=1e-9)


def test_brute_force_sup_level_one_value():
    sp = FiniteDimLp(2, 2)
    assert brute_force_sup(sp, np.array([3.0, 4.0]), 1) == \
        pytest.approx(7.0 / math.sqrt(2.0), abs=1e-12)


def test_brute_force_sup_monotone_and_below_norm():
    sp = FiniteDimLp(3, 1.5)
    x = np.array([1.0, -2.0, 0.5])
    vals = [brute_force_sup(sp, x, lv) for lv in (1, 2, 3)]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[-1] <= sp.norm(x) + 1e-9


def test_brute_force_sup_zero_and_kind():
    sp = FiniteDimLp(2, 2)
    assert brute_force_sup(sp, np.zeros(2), 2) == 0.0
    with pytest.raises(KindMismatch):
        brute_force_sup(SeqLp(2.0), {1: 1.0}, 1)
    with pytest.raises(KindMismatch):   # a FiniteDimLp, but not the grid net
        brute_force_sup(CustomNet([(1.0, 0.0)]), np.array([1.0, 0.0]), 1)
    with pytest.raises(ValueError):
        brute_force_sup(sp, np.array([1.0, 0.0]), 0)
