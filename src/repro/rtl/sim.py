"""Vectorised functional simulation of netlists.

Net values are NumPy boolean arrays so a single pass evaluates the netlist
for an arbitrary batch of stimulus vectors; scalar ints are accepted and
broadcast.  This is how emitted RTL is checked bit-exactly against the
behavioural adder models.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Union

import numpy as np

from repro import obs
from repro.rtl.gates import Op
from repro.rtl.netlist import Netlist

Stimulus = Mapping[str, Union[int, np.ndarray]]


def _reduce(op: Op, values) -> np.ndarray:
    acc = values[0]
    for v in values[1:]:
        if op in (Op.AND, Op.NAND):
            acc = acc & v
        elif op in (Op.OR, Op.NOR):
            acc = acc | v
        else:  # XOR / XNOR
            acc = acc ^ v
    if op in (Op.NAND, Op.NOR, Op.XNOR):
        acc = ~acc
    return acc


def simulate(netlist: Netlist, stimulus: Stimulus) -> Dict[str, np.ndarray]:
    """Evaluate every net of ``netlist`` for the given input-bus stimulus.

    Args:
        netlist: the circuit to simulate.
        stimulus: maps each input bus name to an int or int array whose bits
            drive the bus (bit ``i`` of the value drives net ``bus[i]``).

    Returns:
        Mapping from net name to boolean array of values.
    """
    missing = set(netlist.input_buses) - set(stimulus)
    if missing:
        raise KeyError(f"stimulus missing input buses: {sorted(missing)}")
    extra = set(stimulus) - set(netlist.input_buses)
    if extra:
        raise KeyError(f"stimulus names unknown buses: {sorted(extra)}")

    with obs.span("rtl.sim.simulate"):
        shape = np.broadcast(*(np.asarray(v) for v in stimulus.values())).shape
        values: Dict[str, np.ndarray] = {}
        for bus, width in netlist.input_buses.items():
            word = np.asarray(stimulus[bus], dtype=np.int64)
            if np.any(word < 0) or np.any(word >> width != 0):
                raise ValueError(f"stimulus for bus {bus!r} does not fit in {width} bits")
            for i in range(width):
                values[f"{bus}[{i}]"] = np.broadcast_to(((word >> i) & 1).astype(bool), shape)

        logic_gates = 0
        for gate in netlist.topological_order():
            if gate.op is Op.INPUT:
                if gate.output not in values:
                    raise KeyError(f"input net {gate.output!r} has no stimulus")
                continue
            logic_gates += 1
            if gate.op is Op.CONST0:
                values[gate.output] = np.broadcast_to(np.asarray(False), shape)
            elif gate.op is Op.CONST1:
                values[gate.output] = np.broadcast_to(np.asarray(True), shape)
            elif gate.op is Op.BUF:
                values[gate.output] = values[gate.inputs[0]]
            elif gate.op is Op.NOT:
                values[gate.output] = ~values[gate.inputs[0]]
            elif gate.op is Op.MUX:
                sel, d0, d1 = (values[n] for n in gate.inputs)
                values[gate.output] = np.where(sel, d1, d0)
            else:
                values[gate.output] = _reduce(gate.op, [values[n] for n in gate.inputs])
        if obs.enabled():
            vectors = 1
            for dim in shape:
                vectors *= dim
            obs.count("rtl.sim.runs")
            obs.count("rtl.sim.gate_evals", logic_gates * vectors)
    return values


def simulate_buses(netlist: Netlist, stimulus: Stimulus,
                   buses: Iterable[str]) -> Dict[str, np.ndarray]:
    """Simulate once and pack each named output bus into integer words.

    Returns a mapping from bus name to its words (LSB first), in the
    order ``buses`` names them.
    """
    buses = list(buses)
    for bus in buses:
        if bus not in netlist.output_buses:
            raise KeyError(f"unknown output bus {bus!r}; have {sorted(netlist.output_buses)}")
    values = simulate(netlist, stimulus)
    words: Dict[str, np.ndarray] = {}
    for bus in buses:
        nets = netlist.output_buses[bus]
        word = np.zeros(values[nets[0]].shape, dtype=np.int64)
        for i, net in enumerate(nets):
            word |= values[net].astype(np.int64) << i
        words[bus] = word
    return words


def simulate_bus(netlist: Netlist, stimulus: Stimulus, bus: str) -> np.ndarray:
    """Simulate and pack one output bus back into integer words (LSB first)."""
    return simulate_buses(netlist, stimulus, (bus,))[bus]
