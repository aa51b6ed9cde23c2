"""Peak memory of one pushforward, one bound report and one count read, in d x d arrays.

``tracemalloc`` records the peak of the Python heap, numpy's array buffers
included, above the memory held when the call starts.  The counts are those
of the kept-column pushforward and of the validate-once bound report at
d = 256, and of reading a 256 x 256 count table, so a change that adds a
live d x d temporary to any of them fails here.  A peak means
something only when no other allocation is interleaved with the call, so
CI also runs this file in a process of its own.
"""

import tracemalloc

import numpy as np

from ghzsense.bounds import bound_report
from ghzsense.measurement import cfim
from ghzsense.montecarlo import _count_pairs
from ghzsense.qfim import qfim_pure
from ghzsense.reparam import build_mc, pushforward_fisher

NODES = 256
ARRAY_BYTES = NODES * NODES * 8


def peak_arrays(call) -> float:
    """Peak traced memory above the start of ``call()``, in d x d float64 arrays."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - start) / ARRAY_BYTES


def test_a_pushforward_holds_at_most_four_d_by_d_arrays():
    # the product, the matrix's own copy, the certificate's shifted copy and
    # its Cholesky factor
    rep = build_mc(NODES)
    base = cfim(4, NODES, np.zeros(NODES))
    pushforward_fisher(base, rep, True)  # builds the reduced chart on first use
    assert peak_arrays(lambda: pushforward_fisher(base, rep, True)) <= 4.0


def test_a_bound_report_holds_at_most_two_d_by_d_arrays():
    # the certificate's shifted copy and its Cholesky factor
    reduced = qfim_pure(4, NODES, np.zeros(NODES), build_mc(NODES).chart(True))
    average = np.eye(1, NODES - 1)[0]
    bound_report(reduced, average)  # a first call may allocate lazily
    assert peak_arrays(lambda: bound_report(reduced, average)) <= 2.0


def test_reading_a_count_table_makes_no_float_copy_of_it():
    # 256 tables of a 64-node ring: the two (R, d) pair totals are half an
    # array, numpy's two fixed cast buffers about a quarter; a float copy of
    # the table would add a whole array
    counts = np.ones((256, 4 * 64), dtype=np.int64)
    _count_pairs(counts, 2, 64)
    assert peak_arrays(lambda: _count_pairs(counts, 2, 64)) <= 1.0
