"""Unit tests for repro.rtl.sim (vectorised netlist simulation)."""

import numpy as np
import pytest

from repro.rtl.gates import Op
from repro.rtl.netlist import Netlist
from repro import obs
from repro.rtl.sim import simulate, simulate_bus, simulate_buses
from repro.spec.catalog import SPEC_CATALOG


def _gate_netlist(op: Op, n_inputs: int) -> Netlist:
    nl = Netlist("t")
    nets = nl.add_input_bus("A", n_inputs)
    out = nl.add_gate(op, tuple(nets))
    nl.set_output_bus("S", [out])
    return nl


class TestGateSemantics:
    @pytest.mark.parametrize(
        "op,fn",
        [
            (Op.AND, lambda a, b: a & b),
            (Op.OR, lambda a, b: a | b),
            (Op.XOR, lambda a, b: a ^ b),
            (Op.NAND, lambda a, b: 1 - (a & b)),
            (Op.NOR, lambda a, b: 1 - (a | b)),
            (Op.XNOR, lambda a, b: 1 - (a ^ b)),
        ],
    )
    def test_two_input_truth_tables(self, op, fn):
        nl = _gate_netlist(op, 2)
        for word in range(4):
            a, b = word & 1, word >> 1
            got = int(simulate_bus(nl, {"A": word}, "S"))
            assert got == fn(a, b), f"{op} failed for a={a} b={b}"

    @pytest.mark.parametrize("op", [Op.AND, Op.OR, Op.XOR])
    def test_variadic_reduction(self, op):
        nl = _gate_netlist(op, 5)
        for word in range(32):
            bits = [(word >> i) & 1 for i in range(5)]
            if op is Op.AND:
                want = int(all(bits))
            elif op is Op.OR:
                want = int(any(bits))
            else:
                want = sum(bits) & 1
            assert int(simulate_bus(nl, {"A": word}, "S")) == want

    def test_not_and_buf(self):
        nl = Netlist("t")
        a = nl.add_input_bus("A", 1)
        inv = nl.not_(a[0])
        buf = nl.add_gate(Op.BUF, (a[0],))
        nl.set_output_bus("S", [inv, buf])
        assert int(simulate_bus(nl, {"A": 0}, "S")) == 0b01
        assert int(simulate_bus(nl, {"A": 1}, "S")) == 0b10

    def test_mux(self):
        nl = Netlist("t")
        s = nl.add_input_bus("SEL", 1)
        d = nl.add_input_bus("D", 2)
        out = nl.mux(s[0], d[0], d[1])
        nl.set_output_bus("S", [out])
        # sel=0 -> d0, sel=1 -> d1
        assert int(simulate_bus(nl, {"SEL": 0, "D": 0b01}, "S")) == 1
        assert int(simulate_bus(nl, {"SEL": 1, "D": 0b01}, "S")) == 0
        assert int(simulate_bus(nl, {"SEL": 1, "D": 0b10}, "S")) == 1

    def test_constants(self):
        nl = Netlist("t")
        nl.add_input_bus("A", 1)
        nl.set_output_bus("S", [nl.const(0), nl.const(1)])
        assert int(simulate_bus(nl, {"A": 0}, "S")) == 0b10


class TestStimulusHandling:
    def test_vectorised_matches_scalar(self):
        nl = _gate_netlist(Op.XOR, 3)
        words = np.arange(8, dtype=np.int64)
        vec = simulate_bus(nl, {"A": words}, "S")
        for w in range(8):
            assert vec[w] == int(simulate_bus(nl, {"A": w}, "S"))

    def test_missing_bus_rejected(self):
        nl = _gate_netlist(Op.AND, 2)
        with pytest.raises(KeyError):
            simulate(nl, {})

    def test_unknown_bus_rejected(self):
        nl = _gate_netlist(Op.AND, 2)
        with pytest.raises(KeyError):
            simulate(nl, {"A": 0, "B": 0})

    def test_out_of_range_stimulus_rejected(self):
        nl = _gate_netlist(Op.AND, 2)
        with pytest.raises(ValueError):
            simulate(nl, {"A": 4})
        with pytest.raises(ValueError):
            simulate(nl, {"A": -1})

    def test_unknown_output_bus(self):
        nl = _gate_netlist(Op.AND, 2)
        with pytest.raises(KeyError):
            simulate_bus(nl, {"A": 0}, "Q")

    def test_broadcasting_two_buses(self):
        nl = Netlist("t")
        a = nl.add_input_bus("A", 4)
        b = nl.add_input_bus("B", 4)
        outs = [nl.xor(a[i], b[i]) for i in range(4)]
        nl.set_output_bus("S", outs)
        arr = np.array([0b0011, 0b0101], dtype=np.int64)
        got = simulate_bus(nl, {"A": arr, "B": 0b1111}, "S")
        np.testing.assert_array_equal(got, [0b1100, 0b1010])


class TestSimulateBuses:
    @pytest.mark.parametrize("family", sorted(SPEC_CATALOG))
    def test_matches_per_bus_simulation_exhaustively_n8(self, family):
        netlist = SPEC_CATALOG[family](8).to_netlist()
        space = np.arange(1 << 8, dtype=np.int64)
        stimulus = {"A": np.repeat(space, space.size),
                    "B": np.tile(space, space.size)}
        buses = sorted(netlist.output_buses)
        with obs.collecting() as col:
            words = simulate_buses(netlist, stimulus, buses)
        assert col.snapshot().counters["rtl.sim.runs"] == 1
        assert list(words) == buses
        for bus in buses:
            np.testing.assert_array_equal(
                words[bus], simulate_bus(netlist, stimulus, bus),
                err_msg=f"{family}: bus {bus}")

    def test_unknown_bus_raises_before_simulating(self):
        nl = _gate_netlist(Op.AND, 2)
        with obs.collecting() as col:
            with pytest.raises(KeyError, match="unknown output bus"):
                simulate_buses(nl, {"A": 0}, ("S", "Q"))
        assert "rtl.sim.runs" not in col.snapshot().counters
