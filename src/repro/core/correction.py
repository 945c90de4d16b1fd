"""Configurable error detection and correction (§3.3).

Detection: for sub-adder ``i`` the hardware ANDs the predicted carry
``cp_i`` (Eq. 4 — all P prediction bits propagating) with the previous
sub-adder's carry out ``co_{i-1}``.  When both are 1, sub-adder ``i``'s
result field missed an incoming carry.

Correction: instead of an incrementer, the paper feeds the erring
sub-adder's *prediction-bit inputs* through OR gates and forces their LSBs
to 1.  Because the prediction bits were all propagating, the OR is all
ones; the forced LSB then generates a carry that ripples through them into
the result field — exactly the missing carry.

Timing: the speculative result costs 1 cycle; each correction costs one
additional cycle, and corrections cascade lowest-sub-adder-first because
fixing sub-adder ``i`` updates ``co_i`` and may newly trip the detector of
sub-adder ``i+1`` (Fig. 6 discussion: k sub-adders need up to k cycles).

The ``enabled`` mask models the paper's error-control select signal: only
sub-adders whose bit is set are ever corrected, letting an application
trade residual error for bounded latency.

**A hazard the paper does not mention** (found by property testing):
selective correction is *not* monotone for arbitrary masks.  Correcting
sub-adder ``i`` can wrap its all-ones result field to zero, handing the
recovered carry up to sub-adder ``i+1``; if ``i+1``'s correction is
disabled, that carry is dropped and the result is further from exact than
with no correction at all (worked example in
``tests/test_correction.py::TestSelectiveCorrection::test_non_suffix_mask_can_hurt``).
Masks that enable a contiguous MSB-side block ("suffix-closed", the
natural MSB-first policy) are safe: any wrapped carry is always caught by
an enabled higher sub-adder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.adders.base import (IntLike, WindowedSpeculativeAdder,
                               _validate_operand, window_slices)


@dataclass
class CorrectionResult:
    """Outcome of an error-corrected addition.

    Attributes:
        value: the (partially) corrected sum, ``width + 1`` bits.
        cycles: total cycles consumed (1 + number of correction rounds).
        corrections: number of sub-adders corrected.
        initial_flags: detector outputs observed in the first cycle, one
            int (bitmask over sub-adder indices 1..k-1) per element.
    """

    value: IntLike
    cycles: IntLike
    corrections: IntLike
    initial_flags: IntLike


class ErrorCorrector:
    """Iterative §3.3 error detection/correction around a windowed adder.

    Args:
        adder: any :class:`WindowedSpeculativeAdder` (GeAr, ACA, ETAII, GDA
            behavioural models all qualify).
        enabled: per-sub-adder enable mask for indices ``1..k-1`` (length
            ``k-1``); ``None`` enables every sub-adder (fully accurate
            results, the default).
    """

    def __init__(
        self,
        adder: WindowedSpeculativeAdder,
        enabled: Optional[Sequence[bool]] = None,
    ) -> None:
        self.adder = adder
        k = len(adder.windows)
        if enabled is None:
            enabled = [True] * (k - 1)
        if len(enabled) != k - 1:
            raise ValueError(
                f"enabled mask must cover the {k - 1} speculative sub-adders, "
                f"got length {len(enabled)}"
            )
        self.enabled = [bool(e) for e in enabled]
        self._slices = window_slices(adder.windows)

    @property
    def max_cycles(self) -> int:
        """Worst-case cycles: 1 + one per enabled speculative sub-adder."""
        return 1 + sum(self.enabled)

    def add(self, a: IntLike, b: IntLike) -> CorrectionResult:
        """Add with detection/correction; vectorises over arrays."""
        scalar = not (isinstance(a, np.ndarray) or isinstance(b, np.ndarray))
        width = self.adder.width
        a_arr, b_arr = np.broadcast_arrays(
            np.atleast_1d(np.asarray(_validate_operand("a", a, width), dtype=np.int64)),
            np.atleast_1d(np.asarray(_validate_operand("b", b, width), dtype=np.int64)),
        )
        a_arr = np.ascontiguousarray(a_arr)
        b_arr = np.ascontiguousarray(b_arr)

        k = len(self._slices)
        n_elem = a_arr.shape
        corrected = np.zeros((k,) + n_elem, dtype=bool)  # index 0 unused
        cycles = np.ones(n_elem, dtype=np.int64)
        corrections = np.zeros(n_elem, dtype=np.int64)
        initial_flags = np.zeros(n_elem, dtype=np.int64)

        # At most k-1 correction rounds, so the last round always breaks
        # and leaves locals_ holding the final window sums.
        for round_index in range(k):
            locals_, flags = self._window_pass(a_arr, b_arr, corrected)
            if round_index == 0:
                for i, flag in enumerate(flags, start=1):
                    initial_flags |= flag << i
            # Mask out disabled and already-corrected sub-adders.
            pending = np.zeros((k,) + n_elem, dtype=bool)
            for i, flag in enumerate(flags, start=1):
                if self.enabled[i - 1]:
                    pending[i] = flag.astype(bool) & ~corrected[i]
            any_pending = pending.any(axis=0)
            if not any_pending.any():
                break
            # Correct the lowest pending sub-adder of each element.
            lowest = np.argmax(pending, axis=0)  # 0 where nothing pending
            for i in range(1, k):
                hit = any_pending & (lowest == i)
                corrected[i] |= hit
                corrections += hit
                cycles += hit

        value = np.zeros(n_elem, dtype=np.int64)
        for local, (_, _, _, p, _, rmask, rlow) in zip(locals_, self._slices):
            value |= ((local >> p) & rmask) << rlow
        value |= ((locals_[-1] >> self._slices[-1][2]) & 1) << width

        if scalar:
            return CorrectionResult(
                value=int(value[0]),
                cycles=int(cycles[0]),
                corrections=int(corrections[0]),
                initial_flags=int(initial_flags[0]),
            )
        return CorrectionResult(value, cycles, corrections, initial_flags)

    # ------------------------------------------------------------------ #

    def _window_pass(self, a: np.ndarray, b: np.ndarray, corrected: np.ndarray):
        """Local sum per window and detector flag per speculative window.

        Flag ``i`` (for window ``i >= 1``, returned at list index ``i-1``)
        is ``cp_i & co_{i-1}``: all of the window's P prediction bits
        propagate in the original operands, and the previous window's
        carry out — after any correction — is 1.  A corrected window sees
        its prediction-bit inputs forced to ``((a | b) & pmask) | 1``.
        """
        locals_: List[np.ndarray] = []
        flags: List[np.ndarray] = []
        diff = a ^ b
        cout = None
        for i, (low, wmask, length, p, pmask, _, _) in enumerate(self._slices):
            aw = (a >> low) & wmask
            bw = (b >> low) & wmask
            if i:
                all_prop = ((diff >> low) & pmask) == pmask
                flags.append(all_prop.astype(np.int64) & cout)
                if p:
                    forced = ((aw | bw) & pmask) | 1
                    aw = np.where(corrected[i], (aw & ~pmask) | forced, aw)
                    bw = np.where(corrected[i], (bw & ~pmask) | forced, bw)
            local = aw + bw
            locals_.append(local)
            cout = (local >> length) & 1
        return locals_, flags
