"""Memory stays about linear in the budget: the tracemalloc peak at
budget 4B is compared with the one at B, each after one untraced
warm-up run. Linear growth gives a ratio near 4, quadratic near 16."""
import tracemalloc

import numpy as np
import pytest

from seqembed import (BudgetExhausted, CustomNet, SubspaceD, bw_extract,
                      classify_c, from_function, oscillation_witness, periodic)

B = 10000


def _peak(run, budget):
    run(budget)
    tracemalloc.start()
    try:
        run(budget)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _bw_extract(budget):
    bw_extract(SubspaceD("finite", (periodic([-1.0, 1.0]), periodic([1.0, -1.0, 0.0]))),
               4, budget)


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
