"""Common interface for all adder models.

The central abstraction is :class:`AdderModel`; approximate adders built
from speculative sub-adder windows (GeAr, ACA-I/II, ETAII, GDA) additionally
share :class:`WindowedSpeculativeAdder`, which implements the vectorised
windowed addition once.

Conventions:

* operands are unsigned and must fit in ``width`` bits,
* the returned sum has ``width + 1`` significant bits (MSB = carry out),
* all methods accept plain ints or NumPy integer arrays and vectorise over
  the latter.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.utils.bitvec import mask
from repro.utils.validation import check_pos_int

IntLike = Union[int, np.ndarray]


def _validate_operand(name: str, value: IntLike, width: int) -> IntLike:
    if type(value) is int:
        if value >= 0 and not value >> width:
            return value
        raise ValueError(f"{name}={value} does not fit in {width} bits")
    limit = mask(width)
    if isinstance(value, np.ndarray):
        if not np.issubdtype(value.dtype, np.integer):
            raise TypeError(f"{name} must be an integer array, got dtype {value.dtype}")
        if value.size and (value.min() < 0 or value.max() > limit):
            raise ValueError(f"{name} contains values outside [0, {limit}]")
        return value.astype(np.int64, copy=False)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an int or integer array, got {type(value).__name__}")
    if not 0 <= int(value) <= limit:
        raise ValueError(f"{name}={value} does not fit in {width} bits")
    return int(value)


class AdderModel(abc.ABC):
    """An ``N``-bit adder producing an ``N+1``-bit (possibly approximate) sum."""

    def __init__(self, width: int, name: str) -> None:
        check_pos_int("width", width)
        self.width = width
        self.name = name

    # -- core behaviour ----------------------------------------------------

    @abc.abstractmethod
    def _add_impl(self, a: IntLike, b: IntLike) -> IntLike:
        """Compute the adder's sum for validated operands."""

    def add(self, a: IntLike, b: IntLike) -> IntLike:
        """Adder output for ``a + b`` (scalars or arrays, range-checked)."""
        a = _validate_operand("a", a, self.width)
        b = _validate_operand("b", b, self.width)
        return self._add_impl(a, b)

    def add_exact(self, a: IntLike, b: IntLike) -> IntLike:
        """Reference exact sum (same validation as :meth:`add`)."""
        a = _validate_operand("a", a, self.width)
        b = _validate_operand("b", b, self.width)
        return a + b

    def error_distance(self, a: IntLike, b: IntLike) -> IntLike:
        """``|approximate - exact|`` per operand pair."""
        a = _validate_operand("a", a, self.width)
        b = _validate_operand("b", b, self.width)
        diff = self._add_impl(a, b) - (a + b)
        return np.abs(diff) if isinstance(diff, np.ndarray) else abs(diff)

    # -- optional capabilities ----------------------------------------------

    @property
    def out_width(self) -> int:
        """Number of output bits (sum plus carry out)."""
        return self.width + 1

    @property
    def is_exact(self) -> bool:
        """True when the adder never errs (RCA, CLA)."""
        return False

    def error_probability(self) -> Optional[float]:
        """Analytic probability of an erroneous sum for uniform operands.

        Returns ``None`` when no analytic model is available for this
        architecture (the paper's model covers GeAr-expressible adders and,
        by its §4.4 extension, GDA).
        """
        return None

    def build_netlist(self):
        """Gate-level netlist of this adder, or ``None`` when not modelled."""
        return None

    def fingerprint(self) -> str:
        """Stable identity string for the engine's shard cache keys.

        Two adders with equal fingerprints must compute identical sums for
        every operand pair.  The default covers models fully determined by
        class, width and name; subclasses with extra behavioural state
        (window layouts, correction masks) must extend it.
        """
        return (f"{type(self).__module__}.{type(self).__qualname__}"
                f":w{self.width}:{self.name}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(width={self.width}, name={self.name!r})"


class ExactAdder(AdderModel):
    """Base class for adders that always produce the true sum."""

    @property
    def is_exact(self) -> bool:
        return True

    def error_probability(self) -> float:
        return 0.0

    def _add_impl(self, a: IntLike, b: IntLike) -> IntLike:
        return a + b


@dataclass(frozen=True)
class SpeculativeWindow:
    """One sub-adder window of a speculative adder.

    Attributes:
        low: lowest operand bit index the window reads.
        high: highest operand bit index the window reads (inclusive).
        result_low: lowest absolute bit position the window's sum drives.
        result_high: highest absolute bit position the window's sum drives.

    The window adds ``A[high:low] + B[high:low]`` with carry-in 0 and
    contributes local sum bits ``[result_low-low .. result_high-low]`` to
    the final result.  ``result_low - low`` is the window's carry-prediction
    depth (0 for the first window).
    """

    low: int
    high: int
    result_low: int
    result_high: int

    def __post_init__(self) -> None:
        if not 0 <= self.low <= self.result_low <= self.result_high <= self.high:
            raise ValueError(
                f"inconsistent window: low={self.low}, high={self.high}, "
                f"result=[{self.result_low}, {self.result_high}]"
            )

    @property
    def length(self) -> int:
        """Operand bits the window reads (the sub-adder length)."""
        return self.high - self.low + 1

    @property
    def prediction_bits(self) -> int:
        """Carry-prediction depth (paper's P for non-first windows)."""
        return self.result_low - self.low

    @property
    def result_bits(self) -> int:
        """Resultant bits the window contributes (paper's R)."""
        return self.result_high - self.result_low + 1


def validate_window_cover(windows: Sequence[SpeculativeWindow], width: int) -> None:
    """Check windows jointly drive bits 0..width-1 exactly once, in order."""
    if not windows:
        raise ValueError("at least one window is required")
    expected_low = 0
    for i, w in enumerate(windows):
        if w.result_low != expected_low:
            raise ValueError(
                f"window {i} drives bits from {w.result_low}, expected {expected_low}"
            )
        if w.high >= width:
            raise ValueError(f"window {i} reads bit {w.high} beyond width {width}")
        expected_low = w.result_high + 1
    if expected_low != width:
        raise ValueError(f"windows drive bits up to {expected_low - 1}, need {width - 1}")


#: Per-window constants of the scalar/vector sum: ``(low, operand mask,
#: length, prediction bits P, P mask, result mask, result_low)``.
WindowSlice = Tuple[int, int, int, int, int, int, int]


def window_slices(windows: Sequence[SpeculativeWindow]) -> Tuple[WindowSlice, ...]:
    """Precompute each window's shifts and masks once per model."""
    return tuple(
        (w.low, mask(w.length), w.length, w.prediction_bits,
         mask(w.prediction_bits), mask(w.result_bits), w.result_low)
        for w in windows
    )


def windowed_sum(slices: Sequence[WindowSlice], width: int, a: IntLike,
                 b: IntLike, result: IntLike = 0,
                 carry_in: Optional[IntLike] = None) -> IntLike:
    """OR each window's result field into ``result``; append the carry out.

    ``carry_in`` enters the first window only.  The carry out (bit
    ``width``) is the last window's local carry out — speculative,
    exactly like the hardware.
    """
    local: IntLike = 0
    for low, wmask, _, p, _, rmask, rlow in slices:
        local = ((a >> low) & wmask) + ((b >> low) & wmask)
        if carry_in is not None:
            local = local + carry_in
            carry_in = None
        result = result | (((local >> p) & rmask) << rlow)
    return result | (((local >> slices[-1][2]) & 1) << width)


class WindowedSpeculativeAdder(AdderModel):
    """Adder built from parallel speculative sub-adder windows.

    Subclasses provide the window list; this class implements the vectorised
    sum, the per-window error-detection flags of §3.3, and the worst-case
    error distance.  The final carry out (bit ``width``) is the last
    window's local carry out — speculative, exactly like the hardware.
    """

    def __init__(self, width: int, name: str, windows: Sequence[SpeculativeWindow]) -> None:
        super().__init__(width, name)
        validate_window_cover(windows, width)
        self.windows: List[SpeculativeWindow] = list(windows)
        self._slices = window_slices(self.windows)

    def _add_impl(self, a: IntLike, b: IntLike) -> IntLike:
        return windowed_sum(self._slices, self.width, a, b)

    def error_probability(self) -> float:
        """Exact analytic error probability from the window geometry.

        Uses the carry chain over per-bit states
        (:func:`repro.engine.analytic.window_ep_med`), which applies to
        *any* window layout — subclasses with a paper-model mapping (GeAr,
        ACA, ETAII, GDA) override this with Eq. 5-7 to stay on the
        paper's arithmetic.
        """
        from repro.engine.analytic import window_ep_med

        return window_ep_med(self.width, self.windows)[0]

    def mean_error_distance(self) -> float:
        """Exact analytic E[|approx - exact|] for uniform operands.

        Reads the same carry chain
        (:func:`repro.engine.analytic.window_ep_med`), which holds for any
        window geometry.
        """
        from repro.engine.analytic import window_ep_med

        return window_ep_med(self.width, self.windows)[1]

    def detection_flags(self, a: IntLike, b: IntLike) -> List[IntLike]:
        """§3.3 error-detection flag per speculative window.

        Flag ``i`` (for window index ``i >= 1``) is
        ``AND(propagate over the window's P bits) & carry_out(window i-1)``
        where the previous carry out is the *local speculative* one, exactly
        as the hardware AND gate sees it.  Entry 0 is always 0.
        """
        a = _validate_operand("a", a, self.width)
        b = _validate_operand("b", b, self.width)
        return self._flags_impl(a, b)

    def _flags_impl(self, a: IntLike, b: IntLike) -> List[IntLike]:
        """:meth:`detection_flags` for validated operands."""
        flags: List[IntLike] = [a * 0 if isinstance(a, np.ndarray) else 0]
        diff = a ^ b
        cout: IntLike = 0
        for i, (low, wmask, length, _, pmask, _, _) in enumerate(self._slices):
            if i:
                all_prop = ((diff >> low) & pmask) == pmask
                if isinstance(all_prop, np.ndarray):
                    flags.append(all_prop.astype(np.int64) & cout)
                else:
                    flags.append(int(cout) if all_prop else 0)
            cout = ((((a >> low) & wmask) + ((b >> low) & wmask)) >> length) & 1
        return flags

    def max_error_distance(self) -> int:
        """Worst-case ``|approx - exact|`` over all operand pairs.

        Each speculative window can at worst miss an incoming carry, which
        costs ``2**result_low`` in the final sum, so the sum over
        speculative windows bounds the total.  Windows anchored at bit 0
        (possible in GDA when M_C reaches past the word's bottom) see every
        lower bit and cannot err, so they are excluded.  Tight when only
        one window can miss at a time (k = 2); simultaneous misses may
        partially cancel through result-field wrap-around, so for k > 2
        the realised worst case can be lower (see tests).
        """
        return sum(1 << w.result_low for w in self.windows[1:] if w.low > 0)

    def fingerprint(self) -> str:
        """Window geometry fully determines a speculative adder's sums."""
        layout = ";".join(
            f"{w.low},{w.high},{w.result_low},{w.result_high}"
            for w in self.windows
        )
        return f"{super().fingerprint()}:[{layout}]"
