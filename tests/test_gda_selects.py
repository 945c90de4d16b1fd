"""Tests for GDA's per-block carry-select muxes (the [13] degradation knob)."""

import numpy as np
import pytest

from repro.adders import GracefullyDegradingAdder, add_with_selects
from tests.conftest import random_pairs


class TestSelectSemantics:
    def test_all_accurate_is_exact(self):
        a, b = random_pairs(16, 5000, seed=1)
        np.testing.assert_array_equal(add_with_selects(16, 4, 4, a, b), a + b)

    def test_default_is_accurate(self):
        assert add_with_selects(8, 2, 2, 255, 1) == 256

    def test_all_approximate_matches_windowed_model(self):
        gda = GracefullyDegradingAdder(16, 4, 4)
        a, b = random_pairs(16, 5000, seed=2)
        selects = [False] * (16 // 4 - 1)
        np.testing.assert_array_equal(
            add_with_selects(16, 4, 4, a, b, selects), np.asarray(gda.add(a, b))
        )

    def test_degradation_is_monotone_msb_first(self):
        # Chaining boundaries accurately from the MSB side can only shrink
        # the mean error.
        a, b = random_pairs(16, 20000, seed=3)
        boundaries = 16 // 2 - 1
        meds = []
        for accurate_count in range(boundaries + 1):
            selects = [i >= boundaries - accurate_count
                       for i in range(boundaries)]
            out = np.asarray(add_with_selects(16, 2, 2, a, b, selects))
            meds.append(float(np.abs(out - (a + b)).mean()))
        assert meds == sorted(meds, reverse=True)
        assert meds[-1] == 0.0

    def test_single_boundary_flip_fixes_that_boundary(self):
        # Generate in block 1, propagates through block 2: block 3's
        # 2-bit prediction (over bits 2..3) cannot see the carry.
        a, b = 0b00001111, 0b00000001
        approx = add_with_selects(8, 2, 2, a, b, [False, False, False])
        fixed = add_with_selects(8, 2, 2, a, b, [False, True, False])
        assert approx != a + b
        assert fixed == a + b

    def test_scalar_and_array_agree(self):
        a, b = random_pairs(8, 200, seed=4)
        selects = [False, True, False]
        vec = np.asarray(add_with_selects(8, 2, 4, a, b, selects))
        for i in range(0, 200, 23):
            assert add_with_selects(8, 2, 4, int(a[i]), int(b[i]),
                                    selects) == vec[i]


class TestValidation:
    def test_select_length_checked(self):
        with pytest.raises(ValueError):
            add_with_selects(8, 2, 2, 1, 2, [True])

    def test_operand_range_checked(self):
        with pytest.raises(ValueError):
            add_with_selects(8, 2, 2, 256, 0)

    def test_one_select_per_block_boundary(self):
        # GDA(16, M_B=4) has 4 blocks, hence 3 boundary selects.
        assert add_with_selects(16, 4, 4, 1, 2, [True] * 3) == 3
        with pytest.raises(ValueError, match="need 3 select flags"):
            add_with_selects(16, 4, 4, 1, 2, [True] * 4)

    def test_block_size_must_divide_width(self):
        with pytest.raises(ValueError, match="divisible by M_B"):
            add_with_selects(10, 4, 4, 1, 2)
