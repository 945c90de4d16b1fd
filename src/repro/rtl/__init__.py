"""Gate-level RTL substrate.

The paper evaluates adders as synthesized Verilog on a Virtex-6 FPGA.  This
package substitutes that flow with a pure-Python equivalent:

* :mod:`repro.rtl.gates` / :mod:`repro.rtl.netlist` — gate primitives and a
  netlist graph with named buses,
* :mod:`repro.rtl.sim` — vectorised functional simulation,
* :mod:`repro.rtl.compile` — compiled bit-sliced simulation kernels
  (64 vectors per ``uint64`` word; see ``docs/compile.md``),
* :mod:`repro.rtl.sta` — static timing analysis (critical path),
* :mod:`repro.rtl.area` — LUT-count estimation via greedy cone packing,
* :mod:`repro.rtl.builders` — constructors for RCA / CLA / GeAr / ETAII /
  ACA / GDA netlists,
* :mod:`repro.rtl.verilog` / :mod:`repro.rtl.verilog_parser` — structural
  Verilog emission and a parser for the emitted subset, enabling round-trip
  equivalence checks (the paper releases its RTL; we regenerate ours),
* :mod:`repro.rtl.lint` / :mod:`repro.rtl.lint_rules` — rule-based static
  analysis producing structured diagnostics (``gear lint`` on the CLI).
"""

from repro.rtl.gates import Op, Gate, GATE_ARITY
from repro.rtl.netlist import Netlist
from repro.rtl.sim import simulate, simulate_bus, simulate_buses
from repro.rtl.compile import CompiledKernel, compile_netlist, compiled_kernel
from repro.rtl.sta import DelayModel, UnitDelayModel, FpgaDelayModel, critical_path_delay, arrival_times
from repro.rtl.area import estimate_luts
from repro.rtl.verilog import to_verilog
from repro.rtl.verilog_parser import parse_verilog
from repro.rtl.lint import (
    Diagnostic,
    LintReport,
    Severity,
    lint_netlist,
    lint_verilog,
)

__all__ = [
    "Op",
    "Gate",
    "GATE_ARITY",
    "Netlist",
    "simulate",
    "simulate_bus",
    "simulate_buses",
    "CompiledKernel",
    "compile_netlist",
    "compiled_kernel",
    "DelayModel",
    "UnitDelayModel",
    "FpgaDelayModel",
    "critical_path_delay",
    "arrival_times",
    "estimate_luts",
    "to_verilog",
    "parse_verilog",
    "Diagnostic",
    "LintReport",
    "Severity",
    "lint_netlist",
    "lint_verilog",
]
