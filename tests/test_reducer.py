"""Exactness of the shard reducer.

:meth:`PartialStats.from_arrays` is the per-shard reduction behind every
sampled Table-I metric.  These properties pin the word-parallel
``popcount`` to Python's own bit count, and the whole reduction to a
reference written out here with the per-bit ACC_inf loop, bit for bit,
across output widths 1..63 and the corner rows (``exact == 0``,
``approx == 0``, ``approx > exact``).
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.engine import PartialStats
from repro.metrics.error_metrics import TABLE1_MAA_THRESHOLDS
from repro.utils.bitvec import popcount

INT64_MAX = (1 << 63) - 1


@given(st.lists(st.one_of(st.integers(0, INT64_MAX),
                          st.integers(1 << 62, INT64_MAX)),
                min_size=1, max_size=64))
def test_popcount_matches_bit_count(values):
    # bin().count("1") is int.bit_count(), and also runs on Python 3.9.
    counts = popcount(np.array(values, dtype=np.int64))
    assert counts.dtype == np.int64
    assert counts.tolist() == [bin(v).count("1") for v in values]


def test_popcount_counts_the_twos_complement_word():
    values = np.array([-1, -(1 << 63), INT64_MAX, 1 << 62], dtype=np.int64)
    assert popcount(values).tolist() == [64, 1, 63, 1]


def _reference(approx, exact, out_width, thresholds):
    """The reducer as written before the one-pass popcount."""
    ed = np.abs(approx - exact)
    approx_f = approx.astype(np.float64)
    exact_f = exact.astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        acc_amp = 1.0 - np.abs(approx_f - exact_f) / exact_f
    acc_amp = np.where(exact_f == 0, np.where(approx_f == 0, 1.0, 0.0),
                       acc_amp)
    acc_amp = np.clip(acc_amp, 0.0, 1.0)
    diff = approx ^ exact
    wrong = np.zeros(diff.shape, dtype=np.int64)
    for i in range(out_width):
        wrong += (diff >> i) & 1
    acc_inf = 1.0 - wrong / float(out_width)
    red = ed / np.maximum(exact, 1)
    return PartialStats(
        samples=int(ed.size),
        err_count=int(np.count_nonzero(ed)),
        sum_ed=float(np.sum(ed, dtype=np.float64)),
        sum_red=float(np.sum(red, dtype=np.float64)),
        sum_amp=float(np.sum(acc_amp, dtype=np.float64)),
        sum_inf=float(np.sum(acc_inf, dtype=np.float64)),
        max_ed=int(ed.max()),
        maa_hits=tuple((float(t), int(np.count_nonzero(acc_amp >= t - 1e-12)))
                       for t in thresholds),
    )


@st.composite
def shards(draw):
    out_width = draw(st.integers(1, 63))
    value = st.integers(0, (1 << out_width) - 1)
    rows = draw(st.lists(st.tuples(value, value), min_size=1, max_size=40))
    top = (1 << out_width) - 1
    # Corner rows: a zero exact sum (right and wrong), a zero
    # approximation, and an approximation above the exact sum.
    rows += [(0, 0), (top, 0), (0, top), (top, top >> 1)]
    approx, exact = zip(*rows)
    return (np.array(approx, dtype=np.int64), np.array(exact, dtype=np.int64),
            out_width)


@given(shards())
def test_from_arrays_matches_per_bit_reference(shard):
    approx, exact, out_width = shard
    thresholds = TABLE1_MAA_THRESHOLDS
    assert (PartialStats.from_arrays(approx, exact, out_width, thresholds)
            == _reference(approx, exact, out_width, thresholds))
