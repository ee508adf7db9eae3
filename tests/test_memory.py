"""Memory stays about linear in the budget: the tracemalloc peak at
budget 4B is compared with the one at B, each after one untraced
warm-up run. Linear growth gives a ratio near 4, quadratic near 16.
The per-index oracle of an image stays bounded by the cached net rows,
whatever x's support, a deep witness scan by the net cache's budget,
which is all it keeps, and an index scheme keeps no table beside its
prefix, nor the int64 array an extraction gives it. An extraction's
peak stays a fixed number of bytes per scanned index, and on tagged
members, which it reads over one period, per prefix entry. A window
read through the scalar oracle holds its output array and one block
of indices."""
import dataclasses
import sys
import tracemalloc

import numpy as np
import pytest

from seqembed import (BudgetExhausted, CustomNet, IndexScheme, SeqLp, SubspaceD,
                      bw_extract, classify_c, coordinate, coordinates_at,
                      diagonal_extract, embed_t1,
                      from_function, oscillation_witness, parse_space, periodic,
                      pl_function)
from seqembed.cli import parse_seq_spec
from seqembed.seqcore import Opaque
from seqembed.spaces import NET_CACHE_ROWS

B = 10000


def _peak(run, budget):
    run(budget)
    tracemalloc.start()
    try:
        run(budget)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_BASIS = (periodic([-1.0, 1.0]), periodic([1.0, -1.0, 0.0]))
_FAMILY = _BASIS + (periodic([0.5, -0.5, 0.25, 1.0]),)


def _untagged(members):
    # the same reads without the tag: no period, so the whole window is read
    return tuple(dataclasses.replace(w, tag=Opaque()) for w in members)


def _bw_extract_tagged(budget, members=_BASIS):
    return bw_extract(SubspaceD("finite", members), 4, budget)


def _diagonal_extract_tagged(budget, members=_FAMILY):
    return diagonal_extract(SubspaceD("countable", members), 3, (0.5, 0.25, 0.125), budget)


def _bw_extract(budget):
    return _bw_extract_tagged(budget, _untagged(_BASIS))


def _diagonal_extract(budget):
    return _diagonal_extract_tagged(budget, _untagged(_FAMILY))


def _classify_c(budget):
    classify_c(from_function(lambda n: float(np.sin(n)), 1.0), budget, 0.5)


def _custom_witness(budget):
    # no net point within 0.01 of x: the scan, and the cache, reach the budget
    sp = CustomNet([(1.0, 0.0), (0.0, 1.0), (0.6, 0.8)])
    with pytest.raises(BudgetExhausted):
        oscillation_witness(sp, np.array([0.8, -0.6]), 0.01, 5, budget)


@pytest.mark.parametrize("run", [_bw_extract, _classify_c, _custom_witness])
def test_peak_memory_at_most_linear_in_budget(run):
    assert _peak(run, 4 * B) < 6 * _peak(run, B)


@pytest.mark.parametrize("run, bytes_per_index", [(_bw_extract, 56), (_diagonal_extract, 40)])
def test_extraction_peak_bytes_per_scanned_index(run, bytes_per_index):
    # 51 and 36 bytes measured at level 1: the members' float columns,
    # the int64 survivors, the key (the first column's cells, turned in
    # place), the other columns' cells, and the winning rows gathered
    budget = 2 ** 17
    assert _peak(run, budget) <= bytes_per_index * budget


def test_scalar_window_read_fills_one_float_array():
    # a from_function sequence has no block or at, so the window goes
    # through its oracle: 9.3 bytes an index measured, the float64
    # output and one SCAN_BLOCK list of ints, where lists of the whole
    # window's ints and floats took 56.6
    s = from_function(periodic([-1.0, 1.0, 0.5]).oracle, 1.0)
    ns = np.arange(1, 2 ** 17 + 1, dtype=np.int64)
    assert _peak(lambda _: coordinates_at(s, ns), None) <= 12 * len(ns)


@pytest.mark.parametrize("run", [_bw_extract_tagged, _diagonal_extract_tagged])
def test_tagged_extraction_peak_bytes_per_prefix_entry(run):
    # 64 bytes measured: the prefix tuple with its ints and the list
    # IndexScheme builds it from, and the int64 arrays the survivors of
    # one period are expanded to. The window is 6 indices (12 for
    # diagonal_extract), so nothing grows with scan_budget but the prefix:
    # 11 and 5 bytes a scanned index, against 51 and 36 untagged
    budget = 10 ** 6
    assert _peak(run, budget) <= 72 * len(run(budget).prefix)


def _far_support(n):
    s = embed_t1(SeqLp(2.0), {10 ** 9: 1.0})
    for i in range(1, n + 1):
        coordinate(s, i)


def test_oracle_memory_bounded_by_the_cached_rows():
    # x's coordinates are kept as wide as the cached rows, not as its
    # largest support index: a dense list to 10**9 would be 8 GB
    assert _peak(_far_support, 2000) < 2 * 2 ** 20


def test_late_evconst_start_builds_no_head():
    # an eventually constant sequence is (value, start): nothing per index
    peak = _peak(lambda _: parse_seq_spec("evconst:1@1048576"), None)
    assert peak < 64 * 2 ** 10


def _deep_p1_scan():
    sp = SeqLp(1.0)
    oscillation_witness(sp, {2: -1.5}, 0.2, 10, 100000)
    return sp


def test_deep_p1_scan_holds_one_byte_functionals():
    # the scan reads 81 920 rows: it caches the first NET_CACHE_ROWS
    # (32 768) in buffers of that many rows and builds the rest a block
    # at a time from their rank. The p = 1 duality rows are int8, so the
    # points' float64 buffer (1.3 MB) is most of the peak, where float64
    # rows beside it would add another buffer as large
    _deep_p1_scan()
    tracemalloc.start()
    try:
        sp = _deep_p1_scan()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * sp._U_buf.nbytes


@pytest.mark.parametrize("s", [
    from_function(lambda n: float(np.sin(n)), 1.0),
    periodic([-1.0, 0.25, 1.0]),
    embed_t1(parse_space("fdlp:dim=2,p=2"), np.array([3.0, 4.0])),
], ids=["opaque-unknown", "periodic-notinc", "fdlp-image-notinc"])
def test_classify_over_many_cells_stays_linear_in_the_window(s):
    # gap floor bound * 2^-38: quarter-width cells, 2^41 of them over
    # [-bound, bound], against a 16 384-coordinate window. The cluster
    # pass counts only the cells the window hits; a counter per cell
    # would take 16 TB. The peak stays within 256 bytes a coordinate
    window = 16384
    assert _peak(lambda _: classify_c(s, window, s.bound * 2.0 ** -38), None) < 256 * window


_FRESH_SCANS = {"seqlp:p=2,support=4": {1: 0.6, 3: -0.8},
                "c01": pl_function((0.0, 0.5, 1.0), (1.0, -0.5, 0.25))}


@pytest.mark.parametrize("spec", sorted(_FRESH_SCANS))
def test_million_row_scan_holds_the_cache_budget(spec):
    # a fresh space scans 10^6 rows (found short of its 1000 pairs): it
    # caches NET_CACHE_ROWS of them and builds the rest a block at a
    # time from their rank, so the peak stays at the cache budget plus
    # a few blocks, not at the 72-85 MB that caching every row took
    def scan(_):
        with pytest.raises(BudgetExhausted):
            oscillation_witness(parse_space(spec), _FRESH_SCANS[spec], 0.1, 1000, 10 ** 6)
    assert _peak(scan, None) < 8 * 2 ** 20


@pytest.mark.parametrize("spec", sorted(_FRESH_SCANS))
def test_deep_scan_keeps_nothing_past_the_cache(spec):
    # after a warm-up, a fresh space scans 2 * 10^5 rows (found short of
    # its 1000 pairs): the rows it built past NET_CACHE_ROWS are gone
    # once the scan ends, so the space holds its cache buffers and next
    # to nothing else, where keeping the last block built past the cap
    # held another 150-165 KB
    def scan():
        sp = parse_space(spec)
        try:
            oscillation_witness(sp, _FRESH_SCANS[spec], 0.1, 1000, 2 * 10 ** 5)
        except BudgetExhausted:
            return sp
        raise AssertionError("the scan found all its pairs")
    scan()
    tracemalloc.start()
    try:
        sp = scan()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    buffers = sp._U_buf.nbytes + (0 if sp._Phi is sp._U else sp._Phi_buf.nbytes)
    assert len(sp._U) == NET_CACHE_ROWS
    assert buffers <= retained < buffers + 16 * 2 ** 10


def test_scheme_retains_little_beyond_its_prefix():
    prefix = tuple(range(1, 2 * 4096, 2))
    tracemalloc.start()
    try:
        scheme = IndexScheme("finite", prefix, (0.5,), (0.25,), 2 * 4096)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert scheme.prefix is prefix
    assert retained < 4096


def test_array_scheme_keeps_no_array():
    arr = np.arange(1001, 1001 + 2 * 4096, 2, dtype=np.int64)
    tracemalloc.start()
    try:
        # a tuple of the same ints, built alone, is what the scheme may keep
        tup = tuple(arr.tolist())
        kept = tracemalloc.get_traced_memory()[0]
        scheme = IndexScheme("finite", arr, (0.5,), (0.25,), 2 * 4096 + 1000)
        retained = tracemalloc.get_traced_memory()[0] - kept
    finally:
        tracemalloc.stop()
    assert scheme.prefix == tup and type(scheme.prefix) is tuple
    assert not any(isinstance(v, np.ndarray) for v in vars(scheme).values())
    assert kept <= retained < kept + 4096
