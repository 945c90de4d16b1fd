"""Behavioural models of every adder the paper evaluates.

All adders share the :class:`~repro.adders.base.AdderModel` interface:
``add(a, b)`` computes the (approximate) sum for scalars or NumPy arrays,
``build_netlist()`` returns the gate-level implementation, and
``error_probability()`` returns the exact error rate for uniform operands.

Exact: RCA, CLA, Kogge-Stone, carry-select and carry-skip.  ETAI [9]
keeps a bespoke class (its bit-dropping low half has no spec form).
ACA-I [8], ETAII/ETAIIM [9], ACA-II [10], LOA [12], GDA [13] and GeAr
are spec models built by the constructors of :mod:`repro.adders.named`.
"""

from repro.adders.base import AdderModel, ExactAdder, SpeculativeWindow, WindowedSpeculativeAdder
from repro.adders.rca import RippleCarryAdder
from repro.adders.cla import CarryLookaheadAdder
from repro.adders.etai import ErrorTolerantAdderI
from repro.adders.named import (
    AccuracyConfigurableAdder,
    AlmostCorrectAdder,
    ErrorTolerantAdderII,
    ErrorTolerantAdderIIM,
    GeArAdder,
    GracefullyDegradingAdder,
    LowerPartOrAdder,
    add_with_selects,
)
from repro.adders.prefix import CarrySelectAdder, CarrySkipAdder, KoggeStoneAdder

__all__ = [
    "AdderModel",
    "ExactAdder",
    "SpeculativeWindow",
    "WindowedSpeculativeAdder",
    "RippleCarryAdder",
    "CarryLookaheadAdder",
    "AlmostCorrectAdder",
    "AccuracyConfigurableAdder",
    "ErrorTolerantAdderI",
    "ErrorTolerantAdderII",
    "ErrorTolerantAdderIIM",
    "GracefullyDegradingAdder",
    "LowerPartOrAdder",
    "GeArAdder",
    "add_with_selects",
    "KoggeStoneAdder",
    "CarrySelectAdder",
    "CarrySkipAdder",
]
