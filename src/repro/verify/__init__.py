"""Cross-layer conformance harness (``gear verify``).

The repo models every adder at six layers — behavioural Python,
gate-level netlist, emitted/re-parsed Verilog, analytic error models,
the exact error-PMF backend and the compiled bit-sliced kernel.
This package differentially verifies that all layers agree for every
adder in the conformance registry, with exhaustive proofs where the input
space permits and seeded sampling plus greedy counterexample shrinking
where it does not.  See ``docs/verify.md``.
"""

from repro.verify.oracles import (
    check_analytic,
    check_behavioural,
    check_compiled,
    check_stats,
    check_vector,
    check_verilog,
)
from repro.verify.registry import (
    DEFAULT_WIDTH,
    RegisteredAdder,
    default_registry,
    registry_adder,
    select_entries,
)
from repro.verify.report import (
    LAYERS,
    ConformanceReport,
    Counterexample,
    LayerResult,
    LayerStatus,
    summarize,
)
from repro.verify.runner import (
    MAX_VERIFY_WIDTH,
    VerifyOptions,
    verify_adder,
    verify_payload,
    verify_registry,
)
from repro.verify.shrink import shrink_counterexample, shrink_operands, shrink_width
from repro.verify.vectors import VectorSet, operand_vectors

__all__ = [
    "LAYERS",
    "DEFAULT_WIDTH",
    "MAX_VERIFY_WIDTH",
    "ConformanceReport",
    "Counterexample",
    "LayerResult",
    "LayerStatus",
    "RegisteredAdder",
    "VectorSet",
    "VerifyOptions",
    "check_analytic",
    "check_behavioural",
    "check_compiled",
    "check_stats",
    "check_vector",
    "check_verilog",
    "default_registry",
    "operand_vectors",
    "registry_adder",
    "select_entries",
    "shrink_counterexample",
    "shrink_operands",
    "shrink_width",
    "summarize",
    "verify_adder",
    "verify_payload",
    "verify_registry",
]
