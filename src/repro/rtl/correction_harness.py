"""Cycle-accurate driver for the §3.3 correction netlist.

The correction circuit of Figs. 5/6 is sequential: the speculative result
is produced in cycle 1, and each cycle thereafter one erroneous sub-adder's
inputs are re-routed through the OR/LSB-force muxes.  The netlist built by
:func:`repro.rtl.builders.build_gear_corrected` exposes the correction
state as the ``CORR`` input bus; this harness plays the role of the control
register, iterating netlist evaluations until the (enable-gated) detector
flags clear.

Two policies are provided:

* ``"sequential"`` (default) — correct the lowest flagged sub-adder per
  cycle; this is the paper's accounting (k cycles worst case) and matches
  :class:`repro.core.correction.ErrorCorrector` cycle-for-cycle.
* ``"parallel"`` — correct every currently-flagged sub-adder per cycle.
  Safe (a raised flag never turns spurious: correcting a lower sub-adder
  can only raise a previous carry-out from 0 to 1) and faster in cycles,
  at the cost of per-sub-adder latch logic the paper does not spend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.adders.base import _validate_operand
from repro.rtl.netlist import Netlist
from repro.rtl.sim import simulate_buses
from repro.utils.bitvec import mask, popcount

_POLICIES = ("sequential", "parallel")


@dataclass
class HarnessResult:
    """Outcome of a multi-cycle corrected addition (vectorised)."""

    value: np.ndarray
    cycles: np.ndarray
    corrections: np.ndarray


class MultiCycleCorrector:
    """Drives a ``build_gear_corrected`` netlist to exact results.

    Args:
        netlist: the correction netlist (buses A, B, EN, CORR / S, ERR).
        enabled: per-sub-adder enable bits (defaults to all enabled).
        policy: ``"sequential"`` or ``"parallel"`` (see module docstring).
    """

    def __init__(self, netlist: Netlist, enabled: Optional[Sequence[bool]] = None,
                 policy: str = "sequential") -> None:
        for bus in ("A", "B", "EN", "CORR"):
            if bus not in netlist.input_buses:
                raise ValueError(f"netlist lacks required input bus {bus!r}")
        for bus in ("S", "ERR"):
            if bus not in netlist.output_buses:
                raise ValueError(f"netlist lacks required output bus {bus!r}")
        if policy not in _POLICIES:
            raise ValueError(f"policy must be one of {_POLICIES}, got {policy!r}")
        self.netlist = netlist
        self.policy = policy
        self.spec = netlist.input_buses["CORR"]
        if enabled is None:
            enabled = [True] * self.spec
        if len(enabled) != self.spec:
            raise ValueError(
                f"enabled mask must have length {self.spec}, got {len(enabled)}"
            )
        self.enable_word = sum(1 << i for i, e in enumerate(enabled) if e)

    def add(self, a, b) -> HarnessResult:
        """Run the correction loop; returns exact sums for enabled flags."""
        width = self.netlist.input_buses["A"]
        a, b = np.broadcast_arrays(
            np.atleast_1d(np.asarray(_validate_operand("a", a, width), dtype=np.int64)),
            np.atleast_1d(np.asarray(_validate_operand("b", b, width), dtype=np.int64)),
        )
        corr = np.zeros(a.shape, dtype=np.int64)
        cycles = np.ones(a.shape, dtype=np.int64)
        corrections = np.zeros(a.shape, dtype=np.int64)

        # Terminates: each round sets at least one new CORR bit of every
        # element that still has a pending flag.
        while True:
            words = simulate_buses(
                self.netlist,
                {"A": a, "B": b, "EN": self.enable_word, "CORR": corr},
                ("S", "ERR"),
            )
            err = words["ERR"] & ~corr & mask(self.spec)
            pending = err != 0
            if not pending.any():
                break
            if self.policy == "sequential":
                fix = err & -err  # lowest set bit
                count = np.where(pending, 1, 0)
            else:
                fix = err
                count = popcount(err)
            corr |= np.where(pending, fix, 0)
            corrections += count
            cycles += pending.astype(np.int64)

        return HarnessResult(
            value=words["S"],
            cycles=cycles,
            corrections=corrections,
        )
