"""Hierarchical Verilog: emission, and reading it back with parse_verilog."""

from pathlib import Path

import numpy as np
import pytest

from repro.core.gear import GeArAdder, GeArConfig
from repro.rtl.builders import build_gear
from repro.rtl.equivalence import check_equivalence
from repro.rtl.hierarchy import emit_gear_hierarchical
from repro.rtl.sim import simulate_bus
from repro.rtl.verilog_parser import VerilogSyntaxError, parse_verilog
from tests.conftest import random_pairs


class TestEmission:
    def test_module_structure(self):
        src = emit_gear_hierarchical(GeArConfig(12, 4, 4))
        assert src.count("endmodule") == 2  # one sub-adder + top
        assert "gear_h_12_4_4_sub8 u0" in src
        assert "gear_h_12_4_4_sub8 u1" in src
        assert ".A(A[7:0])" in src
        assert ".A(A[11:4])" in src

    def test_one_submodule_per_distinct_length(self):
        # Partial configs have a same-length anchored last window.
        src = emit_gear_hierarchical(GeArConfig(20, 3, 7, allow_partial=True))
        assert src.count("endmodule") == 2
        assert src.count("u4 (") == 1  # five instances u0..u4

    def test_err_flags_emitted(self):
        src = emit_gear_hierarchical(GeArConfig(12, 2, 6))
        assert "output [1:0] ERR" in src
        assert "assign ERR[1]" in src

    def test_custom_name(self):
        src = emit_gear_hierarchical(GeArConfig(8, 2, 2), name="mytop")
        assert "module mytop (" in src


class TestElaboration:
    @pytest.mark.parametrize("n,r,p", [(8, 2, 2), (12, 4, 4), (12, 2, 6),
                                       (16, 4, 8)])
    def test_matches_behavioural(self, n, r, p):
        netlist = parse_verilog(
            emit_gear_hierarchical(GeArConfig(n, r, p))
        )
        adder = GeArAdder(GeArConfig(n, r, p))
        a, b = random_pairs(n, 2000, seed=n)
        np.testing.assert_array_equal(
            simulate_bus(netlist, {"A": a, "B": b}, "S"),
            np.asarray(adder.add(a, b)),
        )

    def test_equivalent_to_flat_netlist_exhaustively(self):
        cfg = GeArConfig(10, 2, 4)
        flat = build_gear(10, 2, 4)
        hier = parse_verilog(emit_gear_hierarchical(cfg))
        report = check_equivalence(hier, flat)
        assert report.equivalent and report.exhaustive

    def test_partial_config(self):
        cfg = GeArConfig(20, 3, 7, allow_partial=True)
        netlist = parse_verilog(emit_gear_hierarchical(cfg))
        adder = GeArAdder(cfg)
        a, b = random_pairs(20, 2000, seed=9)
        np.testing.assert_array_equal(
            simulate_bus(netlist, {"A": a, "B": b}, "S"),
            np.asarray(adder.add(a, b)),
        )

    def test_err_bus_matches_flat(self):
        cfg = GeArConfig(12, 2, 6)
        hier = parse_verilog(emit_gear_hierarchical(cfg))
        flat = build_gear(12, 2, 6)
        a, b = random_pairs(12, 3000, seed=4)
        np.testing.assert_array_equal(
            simulate_bus(hier, {"A": a, "B": b}, "ERR"),
            simulate_bus(flat, {"A": a, "B": b}, "ERR"),
        )

    def test_custom_named_top_found(self):
        src = emit_gear_hierarchical(GeArConfig(8, 2, 2), name="thetop")
        netlist = parse_verilog(src)
        assert netlist.name == "thetop"

    def test_two_uninstantiated_modules_rejected(self):
        src = (emit_gear_hierarchical(GeArConfig(8, 2, 2), name="one")
               + emit_gear_hierarchical(GeArConfig(8, 2, 2), name="two"))
        with pytest.raises(VerilogSyntaxError, match="one top-level module"):
            parse_verilog(src)

    def test_no_modules_rejected(self):
        with pytest.raises(VerilogSyntaxError):
            parse_verilog("wire x;")

    def test_timing_close_to_flat(self):
        from repro.timing.fpga import characterize_netlist

        cfg = GeArConfig(16, 4, 4)
        hier = characterize_netlist(
            parse_verilog(emit_gear_hierarchical(cfg)), name="hier"
        )
        flat = characterize_netlist(build_gear(16, 4, 4), name="flat")
        assert hier.delay_ns == pytest.approx(flat.delay_ns, abs=0.1)
        assert abs(hier.luts - flat.luts) <= 4

    def test_golden_equivalent_to_flat_exhaustively(self):
        path = Path(__file__).parent / "data" / "cli" / "verilog_12_4_4_hierarchical.v"
        hier = parse_verilog(path.read_text())
        report = check_equivalence(hier, build_gear(12, 4, 4), max_exhaustive=24)
        assert report.equivalent and report.exhaustive
        assert set(hier.output_buses) == {"S", "ERR"}

    def test_inlined_gates_keep_group_and_point_at_instance(self):
        src = emit_gear_hierarchical(GeArConfig(8, 2, 2))
        netlist = parse_verilog(src)
        line = 1 + next(i for i, text in enumerate(src.splitlines())
                        if " u1 (" in text)
        inlined = [net for net in netlist.gates if net.startswith("u1__")]
        assert inlined
        assert {netlist.source_locations[net] for net in inlined} == {(line, 3)}
        assert any(netlist.gates[net].group for net in inlined)


_SUB = (
    "module sub (\n  input  [1:0] A,\n  output [1:0] S\n);\n"
    "  assign S[0] = ~A[0];\n  assign S[1] = ~A[1];\nendmodule\n"
)


def _top(body):
    """A two-bit top module around ``body``; its body starts on line 13."""
    return (
        _SUB
        + "module top (\n  input  [3:0] A,\n  output [1:0] S\n);\n"
        + "  wire [1:0] w;\n"
        + body
        + "  assign S[0] = w[0];\n  assign S[1] = w[1];\nendmodule\n"
    )


class TestInstanceErrors:
    def test_well_formed_instance_parses(self):
        netlist = parse_verilog(_top("  sub u0 (.A(A[3:2]), .S(w));\n"))
        assert int(simulate_bus(netlist, {"A": 0b0100}, "S")) == 0b10

    def test_unknown_module_located(self):
        with pytest.raises(VerilogSyntaxError, match="unknown module") as exc:
            parse_verilog(_top("  nosuch u0 (.A(A[1:0]), .S(w));\n"))
        assert (exc.value.line, exc.value.column) == (13, 3)

    def test_unconnected_input_located(self):
        with pytest.raises(VerilogSyntaxError, match="unconnected") as exc:
            parse_verilog(_top("  sub u0 (.S(w));\n"))
        assert (exc.value.line, exc.value.column) == (13, 3)

    def test_input_width_mismatch_located(self):
        with pytest.raises(VerilogSyntaxError, match="width mismatch") as exc:
            parse_verilog(_top("  sub u0 (.A(A[2:0]), .S(w));\n"))
        assert (exc.value.line, exc.value.column) == (13, 14)

    def test_output_must_drive_equal_width_vector(self):
        with pytest.raises(VerilogSyntaxError, match="vector wire") as exc:
            parse_verilog(_top("  wire [2:0] v;\n  sub u0 (.A(A[1:0]), .S(v));\n"))
        assert (exc.value.line, exc.value.column) == (14, 26)

    def test_vector_read_range_checked(self):
        src = _top("  sub u0 (.A(A[1:0]), .S(w));\n").replace("w[1];", "w[2];")
        with pytest.raises(VerilogSyntaxError, match="out of range"):
            parse_verilog(src)

    def test_undriven_vector_read_rejected(self):
        with pytest.raises(VerilogSyntaxError, match="before an instance"):
            parse_verilog(_top(""))
