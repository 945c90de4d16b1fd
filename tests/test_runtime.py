"""Unit tests for the runtime accuracy controller."""

import numpy as np
import pytest

from repro.analysis.runtime import AccuracyController, build_mode_ladder
from repro.utils.distributions import SparseOperands, UniformOperands


@pytest.fixture(scope="module")
def ladder():
    return build_mode_ladder(16, 2, [2, 4, 6, 8])


class TestModeLadder:
    def test_sorted_by_delay(self, ladder):
        delays = [m.delay_ns for m in ladder]
        assert delays == sorted(delays)

    def test_accuracy_anticorrelates_with_delay(self, ladder):
        errs = [m.error_probability for m in ladder]
        assert errs == sorted(errs, reverse=True)

    def test_partial_mode_reports_the_paper_model(self):
        # P=3 leaves (N-L) % R != 0: the paper's Eq. 4-7 and the exact
        # window chain disagree there, and the ladder carries the former.
        from repro.core.error_model import error_probability

        (mode,) = build_mode_ladder(16, 2, [3])
        assert mode.config.allow_partial
        assert mode.error_probability == error_probability(mode.config)
        assert mode.error_probability != mode.adder.error_probability()


class TestController:
    def test_validation(self, ladder):
        with pytest.raises(ValueError):
            AccuracyController([], 0.01)
        with pytest.raises(ValueError):
            AccuracyController(ladder, 1.5)
        with pytest.raises(ValueError):
            AccuracyController(ladder, 0.1, margin=1.0)
        ctl = AccuracyController(ladder, 0.1)
        with pytest.raises(ValueError):
            ctl.run(np.zeros(4, dtype=np.int64), np.zeros(5, dtype=np.int64))
        with pytest.raises(ValueError):
            ctl.run(np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.int64),
                    start_mode=9)

    def test_tight_budget_escalates_to_accurate_mode(self, ladder):
        a, b = UniformOperands(16).sample_pairs(40_000, seed=1)
        ctl = AccuracyController(ladder, error_budget=0.001, chunk=1024)
        trace = ctl.run(a, b, start_mode=0)
        # Must climb away from the fastest mode and end high on the ladder.
        assert trace.mode_per_chunk[-1] >= 2
        assert max(trace.mode_per_chunk) > 0

    def test_loose_budget_stays_fast(self, ladder):
        a, b = UniformOperands(16).sample_pairs(40_000, seed=2)
        ctl = AccuracyController(ladder, error_budget=0.9, chunk=1024)
        trace = ctl.run(a, b, start_mode=len(ladder) - 1)
        # With a huge budget the controller relaxes to the fastest mode.
        assert trace.mode_per_chunk[-1] == 0
        assert trace.mean_delay_ns < ladder[-1].delay_ns

    def test_sparse_data_allows_faster_mode(self, ladder):
        # Sparse operands raise few flags, so the controller stays fast even
        # under a moderately tight budget.
        dist = SparseOperands(16, one_density=0.15)
        a, b = dist.sample_pairs(40_000, seed=3)
        ctl = AccuracyController(ladder, error_budget=0.02, chunk=1024)
        sparse_trace = ctl.run(a, b, start_mode=0)
        ua, ub = UniformOperands(16).sample_pairs(40_000, seed=3)
        uniform_trace = ctl.run(ua, ub, start_mode=0)
        assert sparse_trace.mean_delay_ns <= uniform_trace.mean_delay_ns

    def test_trace_bookkeeping(self, ladder):
        a, b = UniformOperands(16).sample_pairs(10_000, seed=4)
        ctl = AccuracyController(ladder, error_budget=0.05, chunk=1000)
        trace = ctl.run(a, b)
        assert len(trace.mode_per_chunk) == 10
        assert len(trace.flag_rate_per_chunk) == 10
        assert 0.0 <= trace.error_rate <= 1.0
        assert trace.switches >= 0

    def test_flag_rate_bounds_error_rate(self, ladder):
        # Detection flags are a superset predictor of true errors.
        a, b = UniformOperands(16).sample_pairs(20_000, seed=5)
        ctl = AccuracyController(ladder, error_budget=0.05, chunk=20_000)
        trace = ctl.run(a, b, start_mode=1)
        assert trace.flag_rate_per_chunk[0] >= trace.error_rate - 1e-9


class TestControllerEdgeCases:
    def test_empty_operand_stream(self, ladder):
        ctl = AccuracyController(ladder, error_budget=0.05)
        trace = ctl.run(np.empty(0, dtype=np.int64),
                        np.empty(0, dtype=np.int64))
        assert trace.mode_per_chunk == []
        assert trace.flag_rate_per_chunk == []
        assert trace.error_rate == 0.0
        assert trace.mean_delay_ns == 0.0
        assert trace.switches == 0

    def test_zero_error_budget_pins_most_accurate_mode(self, ladder):
        # budget 0: any flagged chunk escalates; stepping down requires a
        # flag rate below margin*0 = 0, which never happens, so the
        # controller is a ratchet toward the slowest (most accurate) mode.
        a, b = UniformOperands(16).sample_pairs(30_000, seed=6)
        ctl = AccuracyController(ladder, error_budget=0.0, chunk=1024)
        trace = ctl.run(a, b, start_mode=0)
        assert trace.mode_per_chunk == sorted(trace.mode_per_chunk)
        assert trace.mode_per_chunk[-1] == len(ladder) - 1

    def test_single_mode_ladder_never_switches(self):
        ladder = build_mode_ladder(16, 4, [4])
        assert len(ladder) == 1
        a, b = UniformOperands(16).sample_pairs(20_000, seed=7)
        for budget in (0.0, 0.001, 0.9):
            trace = AccuracyController(ladder, budget, chunk=1024).run(a, b)
            assert trace.switches == 0
            assert set(trace.mode_per_chunk) == {0}
            assert trace.mean_delay_ns == pytest.approx(ladder[0].delay_ns)

    def test_always_satisfied_budget_stays_on_fastest_mode(self, ladder):
        # Zero operands raise no detection flags, so with any positive
        # budget the controller must never leave the fastest mode.
        n = 20_000
        a = np.zeros(n, dtype=np.int64)
        b = np.zeros(n, dtype=np.int64)
        ctl = AccuracyController(ladder, error_budget=0.01, chunk=1024)
        trace = ctl.run(a, b, start_mode=0)
        assert set(trace.mode_per_chunk) == {0}
        assert trace.switches == 0
        assert trace.error_rate == 0.0
        assert trace.mean_delay_ns == pytest.approx(ladder[0].delay_ns)

    def test_stream_shorter_than_chunk(self, ladder):
        a, b = UniformOperands(16).sample_pairs(100, seed=8)
        trace = AccuracyController(ladder, 0.05, chunk=1024).run(a, b)
        assert len(trace.mode_per_chunk) == 1
        assert 0.0 <= trace.flag_rate_per_chunk[0] <= 1.0
