"""campaign: the Monte-Carlo and fault-coverage path at N=32.

One pass evaluates the 16 catalog families at N=32 with 2**19 operand
pairs under uniform and Gaussian operands, each request once on the
``sampling`` and once on the ``compiled`` backend, then runs compiled
fault campaigns on three N=32 netlists and one compiled-versus-
interpreted fault parity check at N=8.  Closed loop, one thread, one
fresh process per pass, so each pass pays kernel compilation as a fresh
campaign would.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List

WIDTH = 32
SAMPLES = 2 ** 19
BACKENDS = ("sampling", "compiled")
FAULT_FAMILIES = ("gear_r2p4", "etaii_l4", "cesa_rect")
FAULT_VECTORS = 4096
PARITY_FAMILY, PARITY_WIDTH = "gear_r2p2", 8
#: Operand pairs in the traced single-shard split.
SPLIT_PAIRS = 2 ** 14


def setup() -> None:
    import repro.engine  # noqa: F401
    import repro.rtl.compile  # noqa: F401
    import repro.rtl.faults  # noqa: F401
    import repro.spec  # noqa: F401
    import repro.utils.distributions  # noqa: F401


def _distributions():
    from repro.utils.distributions import GaussianOperands

    return (("uniform", None), ("gaussian", GaussianOperands(WIDTH)))


def _split_shard(model, dist, seed: int, tracer) -> None:
    """Replay one shard's steps from outside the engine, one span each."""
    import numpy as np

    from repro.engine import PartialStats
    from repro.rtl.compile import compiled_kernel, pack_operands, unpack_lanes
    from repro.utils.distributions import UniformOperands

    dist = dist or UniformOperands(WIDTH)
    rng = np.random.default_rng(seed)
    with tracer.span("utils.draw"):
        a, b = dist.sample(SPLIT_PAIRS, rng)
    with tracer.span("adders.add"):
        approx = np.asarray(model.add(a, b))
    with tracer.span("engine.reduce"):
        PartialStats.from_arrays(approx, a + b, model.out_width, (0.9,))
    kernel = compiled_kernel(model)
    with tracer.span("rtl.pack"):
        packed = {"A": pack_operands(a, WIDTH), "B": pack_operands(b, WIDTH)}
    with tracer.span("rtl.kernel"):
        out = kernel.run_packed(packed)
    with tracer.span("rtl.unpack"):
        unpack_lanes(list(out["S"]), SPLIT_PAIRS)


def run_pass(seed: int, tracer) -> Dict:
    from repro.engine import Engine, EvalRequest
    from repro.rtl.compile import compiled_kernel
    from repro.rtl.faults import enumerate_faults, fault_simulation
    from repro.spec import SPEC_CATALOG, catalog_spec

    engine = Engine(jobs=1)
    rng = random.Random(f"campaign:{seed}")
    errors: List[str] = []
    latencies: List[float] = []
    shard_ms: List[float] = []
    pairs = 0
    eval_s = split_s = 0.0
    attempted = 0
    number = 0
    start = time.perf_counter()
    for family in SPEC_CATALOG:
        model = catalog_spec(family, WIDTH).to_model()
        with tracer.span("rtl.compile", family):
            compiled_kernel(model)
        for profile, dist in _distributions():
            rid = number
            number += 1
            mc_seed = rng.randrange(2 ** 31)
            payloads = {}
            for backend in BACKENDS:
                request = EvalRequest.monte_carlo(
                    model, SAMPLES, seed=mc_seed, distribution=dist,
                    backend=backend)
                attempted += 1
                t0 = time.perf_counter()
                with tracer.span(f"engine.{backend}", rid):
                    result = engine.evaluate(request)
                latencies.append(time.perf_counter() - t0)
                eval_s += latencies[-1]
                pairs += result.stats.samples
                shard_ms.extend(1e3 * t for t in result.shard_timings)
                payloads[backend] = result.to_json()
            if payloads["sampling"] != payloads["compiled"]:
                errors.append(f"{family} {profile}: sampling and compiled "
                              "results differ")
            if tracer.enabled:
                s0 = time.perf_counter()
                with tracer.span("campaign.split", rid):
                    _split_shard(model, dist, mc_seed, tracer)
                split_s += time.perf_counter() - s0
    fault_s = 0.0
    fault_vectors = 0
    for family in FAULT_FAMILIES:
        netlist = catalog_spec(family, WIDTH).to_netlist()
        attempted += 1
        t0 = time.perf_counter()
        with tracer.span("rtl.fault", family):
            report = fault_simulation(netlist, vectors=FAULT_VECTORS,
                                      seed=rng.randrange(2 ** 31),
                                      simulator="compiled")
        fault_s += time.perf_counter() - t0
        fault_vectors += report.total * FAULT_VECTORS
    parity = catalog_spec(PARITY_FAMILY, PARITY_WIDTH).to_netlist()
    parity_seed = rng.randrange(2 ** 31)
    faults = enumerate_faults(parity)
    attempted += 2
    reports = [fault_simulation(parity, vectors=FAULT_VECTORS,
                                seed=parity_seed, faults=faults,
                                simulator=simulator)
               for simulator in ("compiled", "interpreted")]
    if reports[0] != reports[1]:
        errors.append(f"{PARITY_FAMILY}@{PARITY_WIDTH}: compiled fault "
                      "report differs from the interpreted one")
    elapsed = time.perf_counter() - start - split_s
    return {"elapsed_s": elapsed, "eval_s": eval_s, "pairs": pairs,
            "fault_s": fault_s, "fault_vectors": fault_vectors,
            "latencies_s": latencies, "shard_ms": shard_ms,
            "attempted": attempted, "failed": 0,
            "errors": errors}


def layers(self_times: Dict[str, float], result: Dict) -> Dict[str, float]:
    """Per-layer metrics of one traced pass."""
    from harness import percentile

    out = {f"{span}_s": self_times.get(span, 0.0) for span in (
        "rtl.compile", "rtl.fault", "rtl.pack", "rtl.kernel", "rtl.unpack",
        "utils.draw", "adders.add", "engine.reduce", "engine.sampling",
        "engine.compiled")}
    out["engine.shards"] = len(result["shard_ms"])
    out["engine.shard_p50_ms"] = percentile(result["shard_ms"], 0.5)
    return out
