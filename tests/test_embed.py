import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqembed import (BudgetExhausted, ConfigError, CustomNet, FiniteDimLp,
                      IndexScheme, IndexZero, OscillationWitness, SeqLp, SubspaceD,
                      ZeroElement, bw_extract, classify_c, combine, coordinate,
                      embed_t1, explicit_limit, from_function,
                      identity_scheme, isometry_defect, oscillation_witness,
                      parse_space, periodic, prefix_sup, reverify_witness, scheme_embed,
                      separation_witness, zero_seq)
from seqembed.embed import _placement
from seqembed.spaces import NET_CACHE_ROWS, SCAN_BLOCK

SQ2 = math.sqrt(2.0)


def test_embed_coordinates_are_signed_pairs():
    sp = FiniteDimLp(2, 2)
    x = np.array([3.0, 4.0])
    s = embed_t1(sp, x)
    for k in range(1, 50):
        assert coordinate(s, 2 * k) == -coordinate(s, 2 * k - 1)
    assert s.bound == 5.0


@pytest.mark.parametrize("spec", ["fdlp:dim=2,p=2", "fdlp:dim=3,p=inf",
                                  "seqlp:p=2,support=4", "c01"])
def test_identity_images_take_the_sign_from_parity(spec):
    # T(x) (sign -1) and the D = {0} placement (sign +1) read k = ceil(n / 2)
    # and the sign from n's parity; a finite scheme that lists every n of
    # 1..2N reads them through `classify`, with the same bits. So does
    # the identity scheme's `classify` at 2^63 - 1, where n + 1 would
    # wrap in int64, as an int and as a numpy int64; numpy int64 indices
    # read as ints do. Below 1 both `coordinate` and the oracle raise
    # IndexZero
    sp = parse_space(spec)
    x = sp.random_element(np.random.default_rng(47))
    ns = list(range(1, 601))
    every = IndexScheme("finite", tuple(ns), (), (), len(ns))
    top = 2 ** 63 - 1
    s_top, k_top = identity_scheme().classify(top)
    assert identity_scheme().classify(np.int64(top)) == (s_top, k_top) == (-1.0, 2 ** 62)
    phi_top = sp.functional_values(x, k_top, k_top - 1)[0]
    for sign, image in ((-1.0, embed_t1(sp, x)), (1.0, scheme_embed(sp, identity_scheme(), x))):
        _reject_below_one(image)    # before any read, and after reads below
        want = [coordinate(_placement(sp, every, x, sign), n) for n in ns]
        assert np.array([coordinate(image, n) for n in ns]).tobytes() == np.array(want).tobytes()
        assert (np.array([coordinate(image, np.int64(n)) for n in ns[::-1]]).tobytes()
                == np.array(want[::-1]).tobytes())
        at_top = [coordinate(image, top), coordinate(image, np.int64(top))]
        assert np.array(at_top).tobytes() == np.array([s_top * sign * phi_top] * 2).tobytes()
        _reject_below_one(image)


def _reject_below_one(image):
    for n in (0, -1, np.int64(0)):
        with pytest.raises(IndexZero):
            coordinate(image, n)
        with pytest.raises(IndexZero):
            image.oracle(n)


def test_embed_block_matches_oracle():
    # the block reads the k of its window alone, whatever the parity of
    # its ends
    sp = FiniteDimLp(2, 1)
    s = embed_t1(sp, np.array([1.0, -2.0]))
    for lo, hi in ((5, 40), (6, 40), (5, 41), (6, 41), (1, 1), (2, 2), (9, 10)):
        window = s.coordinates(lo, hi)
        direct = [coordinate(s, n) for n in range(lo, hi + 1)]
        assert window.tobytes() == np.array(direct).tobytes()


def test_embed_linearity():
    sp = FiniteDimLp(3, 2)
    x, y = np.array([1.0, 2.0, -1.0]), np.array([0.5, 0.0, 3.0])
    sx, sy, sxy = embed_t1(sp, x), embed_t1(sp, y), embed_t1(sp, x + y)
    for n in (1, 2, 9, 40):
        assert coordinate(sxy, n) == pytest.approx(
            coordinate(sx, n) + coordinate(sy, n), abs=1e-12)


def test_prefix_sup_never_exceeds_norm():
    rng = np.random.default_rng(3)
    for p in (1.0, 2.0, math.inf):
        sp = FiniteDimLp(2, p)
        for _ in range(10):
            x = rng.standard_normal(2)
            assert prefix_sup(embed_t1(sp, x), 2000) <= sp.norm(x) + 1e-9


def test_defect_worked_example():
    # at K = 8 only level-1 directions are seen; the best functional for
    # (3,4) is the duality row of (1,1)/sqrt(2), giving 7/sqrt(2)
    sp = FiniteDimLp(2, 2)
    rec = isometry_defect(sp, np.array([3.0, 4.0]), 8)
    assert rec.upper == 5.0
    assert rec.achieved == pytest.approx(7.0 / SQ2, abs=1e-9)
    assert rec.lower <= rec.achieved <= rec.upper
    assert rec.lower == pytest.approx(5.0 * (1.0 - sp.net_distance(
        np.array([0.6, 0.8]), 8)), abs=1e-12)


def test_defect_interval_tightens_with_k():
    sp = FiniteDimLp(2, 2)
    x = np.array([2.0, -1.0])
    recs = [isometry_defect(sp, x, K) for K in (4, 16, 64, 256)]
    lowers = [r.lower for r in recs]
    assert all(a <= b + 1e-12 for a, b in zip(lowers, lowers[1:]))
    assert all(r.lower - 1e-9 <= r.achieved <= r.upper + 1e-9 for r in recs)


def test_default_sup_functional_norms_a_point_short_of_one():
    # a custom point may fall short of the sphere by the unit tolerance;
    # its default p = inf functional takes its largest entry (here the
    # second), not the first entry within 1e-12 of 1, which none is
    u = [0.3, 0.9999999995]
    sp = CustomNet([u, (1.0, 0.0)], p=math.inf)
    assert sp.norming_functional(1).row == (0.0, 1.0)
    assert sp.norming_functional(2).row == (1.0,)
    rec = isometry_defect(sp, u, 1)
    assert rec.achieved == rec.upper == sp.norm(u)
    assert rec.lower <= rec.achieved


def test_defect_rejects_zero():
    with pytest.raises(ZeroElement):
        isometry_defect(FiniteDimLp(2, 2), np.zeros(2), 8)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("x", [[float("nan"), 1.0], [1e308, 1e308]])
def test_non_finite_norm_rejected(x):
    # NaN entries, or entries whose norm overflows
    sp = FiniteDimLp(2, 2)
    with pytest.raises(ConfigError):
        isometry_defect(sp, x, 8)
    with pytest.raises(ConfigError):
        embed_t1(sp, x)
    with pytest.raises(ConfigError):
        oscillation_witness(sp, x, 0.2, 1)


def test_defect_exact_on_custom_net():
    # when x/||x|| is itself a net point the defect closes at once
    sp = CustomNet([(1.0, 0.0), (0.0, 1.0)])
    rec = isometry_defect(sp, np.array([0.0, 2.5]), 2)
    assert rec.lower == pytest.approx(2.5)
    assert rec.achieved == pytest.approx(2.5)


def test_oscillation_witness_roundtrip():
    sp = FiniteDimLp(2, 2)
    x = np.array([3.0, 4.0])
    w = oscillation_witness(sp, x, 0.2, 5)
    assert len(w.plus_indices) == 5
    assert w.gap >= 2.0 * 5.0 * 0.8 - 1e-9
    assert all(n % 2 == 1 for n in w.plus_indices)
    assert all(n % 2 == 0 for n in w.minus_indices)
    assert reverify_witness(embed_t1(sp, x), w)


def test_oscillation_witness_seqlp():
    sp = SeqLp(2.0)
    w = oscillation_witness(sp, {2: -1.5}, 0.2, 3)
    assert w.gap >= 2.0 * 1.5 * 0.8 - 1e-9
    assert reverify_witness(embed_t1(sp, {2: -1.5}), w)


def test_oscillation_witness_budget_exhausted_carries_partial():
    sp = FiniteDimLp(2, 2)
    with pytest.raises(BudgetExhausted) as exc:
        oscillation_witness(sp, np.array([1.0, 0.0]), 0.01, 50, scan_budget=16)
    partial = exc.value.partial
    assert exc.value.found == len(partial.plus_indices) < 50


def test_oscillation_witness_validates_args():
    # oscillation and separation witnesses share one argument check
    sp = FiniteDimLp(2, 2)
    sch, d = identity_scheme(), zero_seq()
    with pytest.raises(ZeroElement):
        oscillation_witness(sp, np.zeros(2), 0.2, 1)
    with pytest.raises(ValueError):
        oscillation_witness(sp, np.array([1.0, 0.0]), 1.2, 1)
    with pytest.raises(ValueError):
        oscillation_witness(sp, np.array([1.0, 0.0]), 0.2, 0)
    with pytest.raises(ZeroElement):
        separation_witness(sp, sch, np.zeros(2), d, 0.2, 1)
    with pytest.raises(ValueError):
        separation_witness(sp, sch, np.array([3.0, 4.0]), d, 1.2, 1)
    with pytest.raises(ValueError):
        separation_witness(sp, sch, np.array([3.0, 4.0]), d, 0.2, 0)
    # a scan budget that is not an int >= 1 is refused before any scan
    for budget in (0, -3, 2.5):
        with pytest.raises(ValueError, match="scan_budget"):
            oscillation_witness(sp, np.array([3.0, 4.0]), 0.2, 2, scan_budget=budget)
        with pytest.raises(ValueError, match="scan_budget"):
            separation_witness(sp, sch, np.array([3.0, 4.0]), d, 0.2, 2, scan_budget=budget)


def test_reverify_rejects_tampering():
    sp = FiniteDimLp(2, 2)
    x = np.array([1.0, 2.0])
    s = embed_t1(sp, x)
    w = oscillation_witness(sp, x, 0.3, 3)
    assert reverify_witness(s, w)

    import dataclasses
    forged = dataclasses.replace(w, gap=w.gap + 1.0)
    assert not reverify_witness(s, forged)
    forged = dataclasses.replace(
        w, plus_values=(w.plus_values[0] + 1e-9,) + w.plus_values[1:])
    assert not reverify_witness(s, forged)
    forged = dataclasses.replace(
        w, plus_indices=tuple(reversed(w.plus_indices)))
    assert not reverify_witness(s, forged)
    forged = dataclasses.replace(w, minus_indices=w.minus_indices[:-1])
    assert not reverify_witness(s, forged)
    # values, indices and gap agree, but a value misses its target
    forged = dataclasses.replace(w, target_hi=min(w.plus_values) + 1e-9)
    assert not reverify_witness(s, forged)
    forged = dataclasses.replace(w, target_lo=max(w.minus_values) - 1e-9)
    assert not reverify_witness(s, forged)


@pytest.mark.parametrize("bad", [0, -1])
@pytest.mark.parametrize("field", ["plus_indices", "minus_indices"])
@pytest.mark.parametrize("source", ["periodic", "fdlp"])
def test_reverify_rejects_indices_below_one(source, field, bad):
    if source == "periodic":
        s = periodic([-1.0, 1.0])
        w = OscillationWitness((2, 4), (1, 3), (1.0, 1.0), (-1.0, -1.0),
                               2.0, 0.5, 0.5, -0.5)
    else:
        sp, x = FiniteDimLp(2, 2), np.array([1.0, 2.0])
        s, w = embed_t1(sp, x), oscillation_witness(sp, x, 0.3, 3)
    assert reverify_witness(s, w)
    forged = dataclasses.replace(w, **{field: (bad,) + getattr(w, field)[1:]})
    assert not reverify_witness(s, forged)


@pytest.mark.parametrize("bad", [float, str, bool])
@pytest.mark.parametrize("field", ["plus_indices", "minus_indices"])
def test_reverify_rejects_indices_that_are_not_ints(field, bad):
    # index 1 as 1.0, "1" or True: each names the right coordinate to a
    # lenient reader, and each is refused, never raised on
    s = periodic([1.0, -1.0] if field == "plus_indices" else [-1.0, 1.0])
    ones, twos = (1, 3), (2, 4)
    plus, minus = (ones, twos) if field == "plus_indices" else (twos, ones)
    w = OscillationWitness(plus, minus, (1.0, 1.0), (-1.0, -1.0), 2.0, 0.5,
                           0.5, -0.5)
    assert reverify_witness(s, w)
    forged = dataclasses.replace(w, **{field: (bad(1),) + getattr(w, field)[1:]})
    assert not reverify_witness(s, forged)


@functools.lru_cache(maxsize=None)
def _witnesses():
    """(sequence, witness) pairs from each witness builder."""
    sp, sq = FiniteDimLp(2, 2), SeqLp(1.0, 4)
    x, y = np.array([1.0, 2.0]), {2: -1.5}
    s = combine([1.0, 0.5, 0.25], [periodic([-1.0, 1.0]), explicit_limit(0.2, 1.0),
                                    periodic([0.3, -0.7, 0.1])])
    return ((embed_t1(sp, x), oscillation_witness(sp, x, 0.3, 3)),
            (embed_t1(sq, y), oscillation_witness(sq, y, 0.2, 4)),
            (s, classify_c(s, 600, 0.5).witness))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2), st.sampled_from(["value", "swap", "gap"]),
       st.integers(0, 10**6), st.booleans(), st.booleans())
def test_perturbed_witness_never_reverifies(source, change, at, plus, up):
    s, w = _witnesses()[source]
    assert reverify_witness(s, w)
    i = at % len(w.plus_indices)
    step = math.inf if up else -math.inf
    if change == "value":                # one value moved by one ulp
        field = "plus_values" if plus else "minus_values"
        vals = list(getattr(w, field))
        vals[i] = math.nextafter(vals[i], step)
        forged = dataclasses.replace(w, **{field: tuple(vals)})
    elif change == "swap":               # a plus and a minus index trade places
        p_idx, m_idx = list(w.plus_indices), list(w.minus_indices)
        p_idx[i], m_idx[i] = m_idx[i], p_idx[i]
        forged = dataclasses.replace(w, plus_indices=tuple(p_idx),
                                     minus_indices=tuple(m_idx))
    else:                                # the gap moved by one ulp
        forged = dataclasses.replace(w, gap=math.nextafter(w.gap, step))
    assert not reverify_witness(s, forged)


def test_reverify_rejects_witness_without_pairs():
    sp = FiniteDimLp(2, 2)
    x = np.array([3.0, 4.0])
    s = embed_t1(sp, x)
    with pytest.raises(BudgetExhausted) as exc:
        oscillation_witness(sp, x, 0.01, 5, scan_budget=1)
    assert exc.value.found == 0
    assert not reverify_witness(s, exc.value.partial)
    empty = OscillationWitness((), (), (), (), 0.0, 0.2, 4.0, -4.0)
    assert not reverify_witness(s, empty)


@pytest.mark.parametrize("n", [2 ** 62, 2 ** 63 + 1], ids=["2^62", "2^63+1"])
def test_reverify_is_bounded_on_a_forged_index(n, monkeypatch):
    # a real witness's last pair moved to (n, n + 1): below 2^63 T(x)
    # builds from their rank only the two rows of k = n / 2 and
    # n / 2 + 1, which lie in two SCAN_BLOCK-aligned blocks, one read
    # each, and from 2^63 on nothing is read; either way the verdict is
    # False, in little memory, not a net grown toward row n / 2
    sp = FiniteDimLp(2, 2)
    x = np.array([3.0, 4.0])
    s = embed_t1(sp, x)
    w = oscillation_witness(sp, x, 0.2, 5)
    forged = dataclasses.replace(w, plus_indices=(*w.plus_indices[:-1], n),
                                 minus_indices=(*w.minus_indices[:-1], n + 1))
    built, rows = [], sp._rows

    def counted(lo, hi):
        built.append((lo, hi))
        return rows(lo, hi)
    monkeypatch.setattr(sp, "_rows", counted)
    tracemalloc.start()
    try:
        verdict = reverify_witness(s, forged)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict is False
    k = n // 2
    assert [(lo, hi) for lo, hi in built if hi > NET_CACHE_ROWS] == (
        [] if n >= 2 ** 63 else [(k, k + 1), (k - 1, k)])
    assert peak < 10 * 2 ** 20


_PAIR = periodic([-1.0, 1.0])
_SCHEME = bw_extract(SubspaceD("finite", (_PAIR,)), 2, 64)
_SCHEMED = scheme_embed(FiniteDimLp(2, 2), _SCHEME, np.array([3.0, 4.0]))
_SCHEMED_PLUS = coordinate(_SCHEMED, _SCHEME.plus_index(1))
_GOOD = OscillationWitness((2, 4), (1, 3), (1.0, 1.0), (-1.0, -1.0), 2.0, 0.5,
                           0.5, -0.5)
_VERDICTS = {
    # name: (sequence, changes to _GOOD, verdict)
    "as built": (_PAIR, {}, True),
    "no by-index read": (from_function(_PAIR.oracle, 1.0), {}, True),
    "stored NaN": (_PAIR, {"plus_values": (math.nan, 1.0)}, False),
    "stored -0.0, read 0.0": (periodic([0.0, 1.0]),
                              {"minus_values": (-0.0, 0.0), "gap": 1.0,
                               "target_lo": 0.0}, True),
    "stored 0.0, read -0.0": (periodic([-0.0, 1.0]),
                              {"minus_values": (0.0, 0.0), "gap": 1.0,
                               "target_lo": 0.0}, True),
    "bool index": (_PAIR, {"minus_indices": (True, 3)}, False),
    "float index": (_PAIR, {"plus_indices": (2.0, 4)}, False),
    "index 0": (_PAIR, {"minus_indices": (0, 3)}, False),
    # the last index below 2^63 is read; from 2^63 on none is, even
    # where the oracle would read the stored value
    "index 2**63 - 2": (_PAIR, {"plus_indices": (2, 2 ** 63 - 2)}, True),
    "index 2**63": (_PAIR, {"plus_indices": (2, 2 ** 63)}, False),
    "index 2**70": (_PAIR, {"plus_indices": (2, 2 ** 70)}, False),
    "index 2**70 + 1": (_PAIR, {"plus_indices": (2, 2 ** 70 + 1)}, False),
    "forged value": (_PAIR, {"plus_values": (1.0, math.nextafter(1.0, 2.0))}, False),
    # stored values are floats or numpy float64s: an int 1 equals the
    # 1.0 read under `!=`, and was True before that rule
    "stored int": (_PAIR, {"plus_values": (1, 1.0)}, False),
    "stored str": (_PAIR, {"plus_values": ("1.0", 1.0)}, False),
    "repeated index": (_PAIR, {"plus_indices": (2, 2)}, False),
    "index 2**70 in the middle": (_PAIR, {"plus_indices": [2, 2 ** 70, 6],
                                          "minus_indices": (1, 3, 5),
                                          "plus_values": (1.0,) * 3,
                                          "minus_values": (-1.0,) * 3}, False),
    "one pair": (_PAIR, {"plus_indices": (2,), "minus_indices": (1,),
                         "plus_values": (1.0,), "minus_values": (-1.0,)}, True),
    # index 65 is past the scheme's coverage of 64: it cannot be re-read
    "past coverage": (_SCHEMED, {"plus_indices": (_SCHEME.plus_index(1), 65),
                                 "plus_values": (_SCHEMED_PLUS, 1.0)}, False),
    # fields may be any sequences: arrays, or a list beside tuples
    "values in arrays": (_PAIR, {"plus_values": np.array([1.0, 1.0]),
                                 "minus_values": np.array([-1.0, -1.0])}, True),
    "forged values in arrays": (_PAIR, {"plus_values": np.array([1.0, 1.0]),
                                        "minus_values": np.array([0.0, 0.0]),
                                        "gap": 1.0, "target_lo": 0.0}, False),
    "indices in a list": (_PAIR, {"minus_indices": [1, 3]}, True),
    # a NaN target is never cleared
    "NaN target_hi": (_PAIR, {"target_hi": math.nan}, False),
    "NaN target_lo": (_PAIR, {"target_lo": math.nan}, False),
}


@pytest.mark.parametrize("case", sorted(_VERDICTS))
def test_reverify_verdict_table(case):
    # the verdicts of reading each index through the scalar oracle with
    # `!=`, except that an index past coverage is False where such a read
    # raises, and an index from 2^63 on or a stored value that is not a
    # float is False before anything is read
    s, changes, verdict = _VERDICTS[case]
    assert reverify_witness(s, dataclasses.replace(_GOOD, **changes)) is verdict
