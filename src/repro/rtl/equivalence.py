"""Combinational equivalence checking between netlists.

Used to validate generated RTL against golden netlists (e.g. a GeAr
netlist vs its re-parsed Verilog, or an optimised netlist vs the
original).  Two regimes:

* **exhaustive** — when the joint input space is at most ``2^max_exhaustive``
  patterns, every input combination is simulated (a proof, not a test),
* **random** — otherwise, seeded uniform vectors plus directed corner
  patterns; a miss is then merely *unlikely* and the report says so.

Returns a :class:`EquivalenceReport` with a counterexample when the
netlists disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.rtl.netlist import Netlist
from repro.rtl.sim import simulate_buses
from repro.utils.bitvec import mask


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of an equivalence check."""

    equivalent: bool
    exhaustive: bool
    vectors_checked: int
    counterexample: Optional[Dict[str, int]] = None
    mismatched_bus: Optional[str] = None

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.equivalent


def _common_interface(left: Netlist, right: Netlist) -> Tuple[Dict[str, int], List[str]]:
    if left.input_buses != right.input_buses:
        raise ValueError(
            f"input interfaces differ: {left.input_buses} vs {right.input_buses}"
        )
    shared = sorted(set(left.output_buses) & set(right.output_buses))
    if not shared:
        raise ValueError("netlists share no output buses")
    for bus in shared:
        if len(left.output_buses[bus]) != len(right.output_buses[bus]):
            raise ValueError(f"output bus {bus!r} widths differ")
    return dict(left.input_buses), shared


def _corner_patterns(width: int) -> List[int]:
    top = mask(width)
    alt = sum(1 << i for i in range(0, width, 2))
    return sorted({0, 1, top, top - 1, top >> 1, alt, top ^ alt})


def check_equivalence(
    left: Netlist,
    right: Netlist,
    max_exhaustive: int = 22,
    random_vectors: int = 50_000,
    seed: int = 2015,
    chunk: int = 1 << 16,
) -> EquivalenceReport:
    """Check that two netlists compute identical outputs.

    Args:
        left, right: netlists with identical input buses; all *shared*
            output buses are compared.
        max_exhaustive: exhaustive proof when total input bits ≤ this.
        random_vectors: vector count for the randomised regime.
        seed: RNG seed for the randomised regime.
        chunk: vectors simulated per batch (memory bound).
    """
    inputs, shared = _common_interface(left, right)
    total_bits = sum(inputs.values())
    buses = sorted(inputs)

    def compare(stimulus: Dict[str, np.ndarray]) -> Optional[Tuple[str, int]]:
        l_words = simulate_buses(left, stimulus, shared)
        r_words = simulate_buses(right, stimulus, shared)
        for bus in shared:
            bad = np.nonzero(l_words[bus] != r_words[bus])[0]
            if bad.size:
                return bus, int(bad[0])
        return None

    if total_bits <= max_exhaustive:
        space = 1 << total_bits
        checked = 0
        for start in range(0, space, chunk):
            count = min(chunk, space - start)
            words = np.arange(start, start + count, dtype=np.int64)
            stimulus: Dict[str, np.ndarray] = {}
            offset = 0
            for bus in buses:
                width = inputs[bus]
                stimulus[bus] = (words >> offset) & mask(width)
                offset += width
            hit = compare(stimulus)
            checked += count
            if hit is not None:
                bus, index = hit
                cex = {b: int(stimulus[b][index]) for b in buses}
                return EquivalenceReport(False, True, checked, cex, bus)
        return EquivalenceReport(True, True, space)

    rng = np.random.default_rng(seed)
    corner_lists = [_corner_patterns(inputs[b]) for b in buses]
    length = max(len(c) for c in corner_lists)
    checked = 0
    # Corner cross-section (cyclic pairing keeps it linear in patterns).
    corner_stim = {
        bus: np.array([cl[i % len(cl)] for i in range(length)], dtype=np.int64)
        for bus, cl in zip(buses, corner_lists)
    }
    hit = compare(corner_stim)
    checked += length
    if hit is not None:
        bus, index = hit
        cex = {b: int(corner_stim[b][index]) for b in buses}
        return EquivalenceReport(False, False, checked, cex, bus)

    remaining = random_vectors
    while remaining > 0:
        count = min(chunk, remaining)
        stimulus = {
            bus: rng.integers(0, 1 << inputs[bus], size=count, dtype=np.int64)
            for bus in buses
        }
        hit = compare(stimulus)
        checked += count
        remaining -= count
        if hit is not None:
            bus, index = hit
            cex = {b: int(stimulus[b][index]) for b in buses}
            return EquivalenceReport(False, False, checked, cex, bus)
    return EquivalenceReport(True, False, checked)
