import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqembed import (BudgetExhausted, ConfigError, CustomNet, FiniteDimLp,
                      OscillationWitness, SeqLp, ZeroElement, classify_c,
                      combine, coordinate, embed_t1, explicit_limit,
                      identity_scheme, isometry_defect, oscillation_witness,
                      periodic, prefix_sup, reverify_witness,
                      separation_witness, zero_seq)

SQ2 = math.sqrt(2.0)


def test_embed_coordinates_are_signed_pairs():
    sp = FiniteDimLp(2, 2)
    x = np.array([3.0, 4.0])
    s = embed_t1(sp, x)
    for k in range(1, 50):
        assert coordinate(s, 2 * k) == -coordinate(s, 2 * k - 1)
    assert s.bound == 5.0


def test_embed_block_matches_oracle():
    sp = FiniteDimLp(2, 1)
    s = embed_t1(sp, np.array([1.0, -2.0]))
    window = s.coordinates(5, 40)
    direct = [coordinate(s, n) for n in range(5, 41)]
    assert np.array_equal(window, direct)


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
