"""Hierarchical Verilog: the modular GeAr RTL.

The authors' released RTL is modular — one sub-adder entity instantiated k
times.  :func:`emit_gear_hierarchical` reproduces that shape: a gate-level
``<top>_sub`` module (one per distinct window length) plus a top module
that instantiates it per window, wires the operand slices, selects the
resultant bits and computes the §3.3 detection flags.

:func:`repro.rtl.verilog_parser.parse_verilog` reads the result back,
inlining each instance, so the hierarchical artefact gets the same
equivalence checks and lint as the flat one.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.gear import GeArConfig
from repro.rtl.builders import build_rca
from repro.rtl.verilog import to_verilog


def emit_gear_hierarchical(config: GeArConfig, name: Optional[str] = None) -> str:
    """Render GeAr(N, R, P) as modular Verilog (sub-adder + top).

    The sub-adder module is the gate-level L-bit ripple adder; the top
    module instantiates one per window, selects each window's resultant
    bits, and derives the ``ERR`` flags from the prediction-bit propagates
    and the previous instance's carry out.
    """
    top_name = name or f"gear_h_{config.n}_{config.r}_{config.p}"
    windows = config.windows()
    lengths = sorted({w.length for w in windows})
    sub_sources: List[str] = []
    sub_names: Dict[int, str] = {}
    for length in lengths:
        sub = build_rca(length, name=f"{top_name}_sub{length}")
        sub_names[length] = sub.name
        sub_sources.append(to_verilog(sub))

    k = config.k
    lines: List[str] = [
        f"module {top_name} (",
        f"  input  [{config.n - 1}:0] A,",
        f"  input  [{config.n - 1}:0] B,",
        f"  output [{config.n}:0] S" + ("," if k > 1 else ""),
    ]
    if k > 1:
        lines.append(f"  output [{k - 2}:0] ERR")
    lines.append(");")

    # Instances with their output vectors.
    for i, w in enumerate(windows):
        lines.append(f"  wire [{w.length}:0] win{i};")
        lines.append(
            f"  {sub_names[w.length]} u{i} (.A(A[{w.high}:{w.low}]), "
            f".B(B[{w.high}:{w.low}]), .S(win{i}));"
        )

    # Resultant-bit selection.
    for i, w in enumerate(windows):
        for bit in range(w.result_low, w.result_high + 1):
            lines.append(f"  assign S[{bit}] = win{i}[{bit - w.low}];")
    last = len(windows) - 1
    lines.append(f"  assign S[{config.n}] = win{last}[{windows[last].length}];")

    # Detection flags: cp_i (AND of prediction propagates) & co_{i-1}.
    for i, w in enumerate(windows[1:], start=1):
        props = [f"(A[{w.low + j}] ^ B[{w.low + j}])"
                 for j in range(w.prediction_bits)]
        cp = " & ".join(props)
        prev = windows[i - 1]
        lines.append(
            f"  assign ERR[{i - 1}] = ({cp}) & win{i - 1}[{prev.length}];"
        )

    lines.append("endmodule")
    return "\n".join(sub_sources) + "\n" + "\n".join(lines) + "\n"
