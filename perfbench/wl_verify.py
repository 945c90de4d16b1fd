"""verify: one cold ``gear verify`` over the whole registry at N=8.

Each pass process runs every registry entry through all six
conformance layers, as ``verify_registry()`` does, and exits, so every
pass pays the cold path users pay.  A traced pass calls each layer on
its own (``VerifyOptions(layers=(layer,))``) so the six oracles show
separately.
"""

from __future__ import annotations

import time
from typing import Dict, List


def setup() -> None:
    import repro.verify  # noqa: F401


def run_pass(seed: int, tracer) -> Dict:
    from repro.verify import LAYERS, VerifyOptions, verify_adder
    from repro.verify.registry import select_entries

    options = VerifyOptions(seed=seed)
    errors: List[str] = []
    latencies: List[float] = []
    counterexamples = 0
    start = time.perf_counter()
    for number, entry in enumerate(select_entries()):
        if not entry.supports(options.width):
            continue
        t0 = time.perf_counter()
        if tracer.enabled:
            reports = []
            with tracer.span("verify.entry", number):
                for layer in LAYERS:
                    with tracer.span(f"verify.{layer}"):
                        reports.append(verify_adder(
                            entry, VerifyOptions(layers=(layer,), seed=seed)))
        else:
            reports = [verify_adder(entry, options)]
        latencies.append(time.perf_counter() - t0)
        for report in reports:
            counterexamples += sum(layer.counterexample is not None
                                   for layer in report.layers)
            if not report.ok:
                failed = ", ".join(r.layer for r in report.failed_layers)
                errors.append(f"{entry.key}: layers failed: {failed}")
    return {"elapsed_s": time.perf_counter() - start,
            "latencies_s": latencies,
            "counterexamples": counterexamples,
            "attempted": len(latencies), "failed": len(errors),
            "errors": errors}


def layers(self_times: Dict[str, float], result: Dict) -> Dict[str, float]:
    """Per-layer metrics of one traced pass."""
    from repro.verify import LAYERS

    out = {f"verify.{layer}_s": self_times.get(f"verify.{layer}", 0.0)
           for layer in LAYERS}
    out["verify.counterexamples"] = result["counterexamples"]
    return out
