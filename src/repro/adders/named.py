"""The published speculative and static adders under their historical names.

Each constructor maps a family's parameters onto its declarative spec
(:mod:`repro.spec.catalog`, where the §3.1 coverage relations live) and
returns ``spec.to_model()`` under the family's display name: one
behavioural model per spec, with the exact analytics of
:class:`~repro.spec.model.SpecAdder` / ``StaticSpecAdder``.  The
paper's Eq. 4-7 error model stays
:func:`repro.core.error_model.error_probability`, called on a
:class:`~repro.core.gear.GeArConfig`.

ACA-I [8], ETAII and ETAIIM [9], ACA-II [10], LOA [12], GDA [13] and
GeAr itself (§3.1).  :func:`add_with_selects` models GDA's runtime
carry-select muxes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.adders.base import AdderModel, IntLike
from repro.spec.catalog import (
    aca1_spec,
    aca2_spec,
    etaii_spec,
    etaiim_spec,
    gda_spec,
    gear_spec,
    loa_spec,
)
from repro.utils.bitvec import mask

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.gear import GeArConfig


def _named(spec, name: str) -> AdderModel:
    model = spec.to_model()
    model.name = name
    return model


def AlmostCorrectAdder(width: int, sub_adder_len: int) -> AdderModel:
    """ACA-I [8] == GeAr(N, 1, L-1): one-bit-shifted L-bit windows."""
    return _named(aca1_spec(width, sub_adder_len),
                  f"ACA-I(N={width},L={sub_adder_len})")


def AccuracyConfigurableAdder(width: int, sub_adder_len: int,
                              allow_partial: bool = False) -> AdderModel:
    """ACA-II [10] == GeAr(N, L/2, L/2); ``sub_adder_len`` must be even."""
    return _named(aca2_spec(width, sub_adder_len, allow_partial=allow_partial),
                  f"ACA-II(N={width},L={sub_adder_len})")


def ErrorTolerantAdderII(width: int, sub_adder_len: int,
                         allow_partial: bool = False) -> AdderModel:
    """ETAII [9]: L/2-bit sum units with carry generators over the L/2
    bits below — functionally ACA-II, structurally separate units."""
    return _named(etaii_spec(width, sub_adder_len, allow_partial=allow_partial),
                  f"ETAII(N={width},L={sub_adder_len})")


def ErrorTolerantAdderIIM(width: int, sub_adder_len: int,
                          connected: int = 2) -> AdderModel:
    """ETAIIM [9]: ETAII with the top ``connected`` segments fused into
    one accurate block (1 leaves it identical to ETAII)."""
    return _named(etaiim_spec(width, sub_adder_len, connected),
                  f"ETAIIM(N={width},L={sub_adder_len},conn={connected})")


def GracefullyDegradingAdder(width: int, mb: int, mc: int,
                             enforce_multiple: bool = True) -> AdderModel:
    """GDA(M_B, M_C) [13] in uniform approximate mode: M_B-bit blocks whose
    carries are predicted over the M_C bits below.  GDA's hierarchical CLA
    restricts M_C to multiples of M_B; ``enforce_multiple=False`` lifts it."""
    return _named(gda_spec(width, mb, mc, enforce_multiple=enforce_multiple),
                  f"GDA(N={width},MB={mb},MC={mc})")


def LowerPartOrAdder(width: int, approx_bits: int) -> AdderModel:
    """LOA [12]: the low ``approx_bits`` sum bits are ``a | b`` (0 disables)."""
    return _named(loa_spec(width, approx_bits),
                  f"LOA(N={width},approx={approx_bits})")


def GeArAdder(config: "GeArConfig") -> AdderModel:
    """The GeAr(N, R, P) adder of §3.1 for ``config``."""
    spec = gear_spec(config.n, config.r, config.p,
                     allow_partial=config.allow_partial)
    return _named(spec, f"GeAr(N={config.n},R={config.r},P={config.p})")


def add_with_selects(width: int, mb: int, mc: int, a: IntLike, b: IntLike,
                     accurate: Optional[Sequence[bool]] = None) -> IntLike:
    """GDA(M_B, M_C) addition with per-block carry-source selection.

    ``accurate`` holds one flag per block boundary (``width // mb - 1``
    entries, block 1 upward): True chains the previous block's carry-out
    (accurate, slower path), False uses the M_C carry prediction.
    ``None`` selects accurate everywhere — the exact sum.  The mux taps
    the previous block's *actual* carry-out, which may itself be tainted
    by a prediction: all-accurate selects chain into the exact sum, mixed
    selects degrade gracefully.
    """
    if mb < 1 or width % mb:
        raise ValueError(f"GDA needs width divisible by M_B: {width} % {mb}")
    scalar = not (isinstance(a, np.ndarray) or isinstance(b, np.ndarray))
    a_arr = np.atleast_1d(np.asarray(a, dtype=np.int64))
    b_arr = np.atleast_1d(np.asarray(b, dtype=np.int64))
    a_arr, b_arr = (np.ascontiguousarray(x)
                    for x in np.broadcast_arrays(a_arr, b_arr))
    limit = mask(width)
    if a_arr.size and (a_arr.min() < 0 or a_arr.max() > limit
                       or b_arr.min() < 0 or b_arr.max() > limit):
        raise ValueError(f"operands must fit in {width} bits")
    boundaries = width // mb - 1
    if accurate is None:
        accurate = [True] * boundaries
    if len(accurate) != boundaries:
        raise ValueError(f"need {boundaries} select flags, got {len(accurate)}")

    result = np.zeros(a_arr.shape, dtype=np.int64)
    carry = np.zeros(a_arr.shape, dtype=np.int64)
    for index, base in enumerate(range(0, width, mb)):
        if index == 0 or accurate[index - 1]:
            cin = carry
        else:
            lo = max(0, base - mc)
            span = base - lo
            cin = ((((a_arr >> lo) & mask(span))
                    + ((b_arr >> lo) & mask(span))) >> span) & 1
        local = ((a_arr >> base) & mask(mb)) + ((b_arr >> base) & mask(mb)) + cin
        result |= (local & mask(mb)) << base
        carry = (local >> mb) & 1
    result |= carry << width
    return int(result[0]) if scalar else result
