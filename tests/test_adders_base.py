"""Unit tests for the AdderModel interface and windowed machinery."""

import numpy as np
import pytest

from repro.adders.base import (
    SpeculativeWindow,
    WindowedSpeculativeAdder,
    validate_window_cover,
)
from repro.adders.rca import RippleCarryAdder
from repro.adders.cla import CarryLookaheadAdder
from repro.verify.registry import default_registry, registry_adder
from tests.conftest import random_pairs


class TestExactAdders:
    @pytest.mark.parametrize("cls", [RippleCarryAdder, CarryLookaheadAdder])
    def test_always_exact(self, cls):
        adder = cls(12)
        a, b = random_pairs(12, 1000, seed=2)
        np.testing.assert_array_equal(adder.add(a, b), a + b)
        assert adder.is_exact
        assert adder.error_probability() == 0.0

    def test_scalar_and_array_agree(self):
        adder = RippleCarryAdder(8)
        a, b = random_pairs(8, 50, seed=3)
        vec = np.asarray(adder.add(a, b))
        for i in range(50):
            assert adder.add(int(a[i]), int(b[i])) == vec[i]

    def test_out_width(self):
        assert RippleCarryAdder(16).out_width == 17


class TestOperandValidation:
    def setup_method(self):
        self.adder = RippleCarryAdder(8)

    def test_negative_scalar_rejected(self):
        with pytest.raises(ValueError):
            self.adder.add(-1, 0)

    def test_oversized_scalar_rejected(self):
        with pytest.raises(ValueError):
            self.adder.add(256, 0)

    def test_negative_array_rejected(self):
        with pytest.raises(ValueError):
            self.adder.add(np.array([-1]), np.array([0]))

    def test_float_array_rejected(self):
        with pytest.raises(TypeError):
            self.adder.add(np.array([1.0]), np.array([0]))

    def test_float_scalar_rejected(self):
        with pytest.raises(TypeError):
            self.adder.add(1.5, 0)

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            self.adder.add(True, 0)

    def test_error_distance(self):
        assert self.adder.error_distance(3, 4) == 0


class TestValidationFastPath:
    """Plain ints take a fast path; every rejection keeps its message."""

    METHODS = ("add", "error_distance", "detection_flags")

    def setup_method(self):
        self.adder = registry_adder("gear_r2p2", 8)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("value,kind", [(True, "bool"), (3.0, "float")])
    def test_non_int_rejected(self, method, value, kind):
        fn = getattr(self.adder, method)
        message = f"must be an int or integer array, got {kind}$"
        with pytest.raises(TypeError, match="^a " + message):
            fn(value, 0)
        with pytest.raises(TypeError, match="^b " + message):
            fn(0, value)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("value", [-1, 2 ** 8])
    def test_out_of_range_rejected(self, method, value):
        fn = getattr(self.adder, method)
        with pytest.raises(ValueError,
                           match=f"^a={value} does not fit in 8 bits$"):
            fn(value, 0)
        with pytest.raises(ValueError,
                           match=f"^b={value} does not fit in 8 bits$"):
            fn(0, value)

    @pytest.mark.parametrize("method", METHODS)
    def test_numpy_scalars_accepted(self, method):
        fn = getattr(self.adder, method)
        assert fn(np.int64(200), np.int64(100)) == fn(200, 100)

    @pytest.mark.parametrize("key", [key for key, entry
                                     in default_registry().items()
                                     if entry.supports(6)])
    def test_error_distance_matches_add_exhaustively_n6(self, key):
        model = registry_adder(key, 6)
        space = np.arange(1 << 6, dtype=np.int64)
        a, b = np.repeat(space, space.size), np.tile(space, space.size)
        np.testing.assert_array_equal(model.error_distance(a, b),
                                      np.abs(model.add(a, b) - (a + b)))
        for a0, b0 in zip(a.tolist(), b.tolist()):
            assert model.error_distance(a0, b0) == abs(
                model.add(a0, b0) - (a0 + b0)), (key, a0, b0)


class TestSpeculativeWindow:
    def test_properties(self):
        w = SpeculativeWindow(low=4, high=11, result_low=8, result_high=11)
        assert w.length == 8
        assert w.prediction_bits == 4
        assert w.result_bits == 4

    def test_inconsistent_rejected(self):
        with pytest.raises(ValueError):
            SpeculativeWindow(low=4, high=3, result_low=4, result_high=3)
        with pytest.raises(ValueError):
            SpeculativeWindow(low=4, high=11, result_low=2, result_high=11)

    def test_cover_validation_gap(self):
        windows = [
            SpeculativeWindow(0, 3, 0, 3),
            SpeculativeWindow(2, 7, 6, 7),  # leaves bits 4..5 undriven
        ]
        with pytest.raises(ValueError):
            validate_window_cover(windows, 8)

    def test_cover_validation_short(self):
        windows = [SpeculativeWindow(0, 3, 0, 3)]
        with pytest.raises(ValueError):
            validate_window_cover(windows, 8)

    def test_cover_validation_overflow(self):
        windows = [SpeculativeWindow(0, 8, 0, 8)]
        with pytest.raises(ValueError):
            validate_window_cover(windows, 8)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            validate_window_cover([], 8)


class TestWindowedAdder:
    def _adder(self):
        # Hand-built GeAr(8,2,2)-equivalent windows.
        windows = [
            SpeculativeWindow(0, 3, 0, 3),
            SpeculativeWindow(2, 5, 4, 5),
            SpeculativeWindow(4, 7, 6, 7),
        ]
        return WindowedSpeculativeAdder(8, "hand", windows)

    def test_single_window_is_exact(self):
        adder = WindowedSpeculativeAdder(
            8, "exact", [SpeculativeWindow(0, 7, 0, 7)]
        )
        a, b = random_pairs(8, 200, seed=4)
        np.testing.assert_array_equal(adder.add(a, b), a + b)

    def test_never_exceeds_exact(self):
        adder = self._adder()
        a, b = random_pairs(8, 2000, seed=5)
        assert np.all(np.asarray(adder.add(a, b)) <= a + b)

    def test_max_error_distance_bounds_exhaustive_worst_case(self):
        adder = self._adder()
        bound = adder.max_error_distance()
        assert bound == (1 << 4) + (1 << 6)
        size = 256
        vals = np.arange(size, dtype=np.int64)
        a = np.repeat(vals, size)
        b = np.tile(vals, size)
        ed = (a + b) - np.asarray(adder.add(a, b))
        assert ed.min() >= 0
        assert ed.max() <= bound
        # Simultaneous misses wrap-cancel here, so the realised worst case
        # is a single top-window miss.
        assert ed.max() == 1 << 6

    def test_detection_flags_predict_errors(self):
        adder = self._adder()
        a, b = random_pairs(8, 2000, seed=6)
        flags = adder.detection_flags(a, b)
        any_flag = np.zeros(a.shape, dtype=bool)
        for f in flags[1:]:
            any_flag |= np.asarray(f).astype(bool)
        erroneous = np.asarray(adder.add(a, b)) != a + b
        # Every erroneous addition must raise at least one detector flag.
        assert np.all(any_flag[erroneous])

    def test_detection_flags_scalar(self):
        adder = self._adder()
        flags = adder.detection_flags(0b11111111, 0b00000001)
        assert flags[0] == 0
        assert all(isinstance(f, int) for f in flags)
