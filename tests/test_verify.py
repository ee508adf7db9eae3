import math

import numpy as np
import pytest

from seqembed import (BoundedSeq, CustomNet, FiniteDimLp, InC, NotInC, SeqLp,
                      SubspaceD, Unknown, brute_force_sup, bw_extract, check_isometry,
                      check_separation, classify_c, combine, embed_t1,
                      eventually_constant, explicit_limit, from_function,
                      periodic, prefix_sup, reverify_witness, zero_seq)
from seqembed.errors import KindMismatch


def test_tagged_sequences_are_in_c():
    v = classify_c(eventually_constant(3.0, start=5, head=(9, 9, 9, 9)), 64, 1.0)
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


def test_periodic_oscillation_detected():
    v = classify_c(periodic([-1.0, 1.0]), 64, 1.0)
    assert isinstance(v, NotInC)
    assert v.witness.gap == pytest.approx(2.0)
    assert reverify_witness(periodic([-1.0, 1.0]), v.witness)


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


def test_embedded_images_never_in_c():
    sp = FiniteDimLp(2, 2)
    for x in ([3.0, 4.0], [1.0, 0.0], [0.5, -0.5]):
        x = np.array(x)
        v = classify_c(embed_t1(sp, x), 4096, sp.norm(x))
        assert isinstance(v, NotInC)
        assert reverify_witness(embed_t1(sp, x), v.witness)


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


# -- independent oracle -----------------------------------------------------

def test_brute_force_sup_agrees_with_prefix_sup():
    sp = FiniteDimLp(2, 2)
    x = np.array([3.0, 4.0])
    for level in (1, 2, 3):
        K = sp.net_size_through_level(level)
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
