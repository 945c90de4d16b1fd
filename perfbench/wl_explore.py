"""explore: the (N, R, P) design-space sweep of ``gear sweep`` (Figs. 1/7).

One pass takes every GeAr configuration at N=16 and N=20 (partial
configurations included) and then the 16 catalog families at N=32
through the same steps: spec compile, netlist build, logic optimisation,
static timing (FPGA and unit models), LUT estimate, an exact ``auto``
evaluation under uniform operands and, for GeAr, a second one under
sparse operands, and the paper's error model.  Closed loop, one thread.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

SWEEP_WIDTHS = (16, 20)
CATALOG_WIDTH = 32
MC_SAMPLES = 2 ** 16
SPARSE_DENSITY = 0.25
#: Absolute tolerance on EP, and relative (to max(1, |golden|)) on MED.
TOLERANCE = 1e-12
GOLDEN_PATH = Path(__file__).with_name("golden_explore.json")


def setup() -> None:
    """Import every layer the pass touches."""
    import repro.core.configspace  # noqa: F401
    import repro.core.error_model  # noqa: F401
    import repro.engine  # noqa: F401
    import repro.rtl.area  # noqa: F401
    import repro.rtl.opt  # noqa: F401
    import repro.rtl.sta  # noqa: F401
    import repro.spec  # noqa: F401
    import repro.utils.distributions  # noqa: F401


def items() -> List[Tuple[str, object]]:
    """The pass's configurations, in order, as ``(key, config-or-family)``."""
    from repro.core.configspace import enumerate_configs
    from repro.spec import SPEC_CATALOG

    out: List[Tuple[str, object]] = []
    for n in SWEEP_WIDTHS:
        for cfg in enumerate_configs(n, allow_partial=True):
            out.append((f"gear:{cfg.n}:{cfg.r}:{cfg.p}", cfg))
    for family in SPEC_CATALOG:
        out.append((f"catalog:{family}:{CATALOG_WIDTH}", family))
    return out


def _spec(item: object):
    from repro.spec import catalog_spec, gear_spec

    if isinstance(item, str):
        return catalog_spec(item, CATALOG_WIDTH)
    return gear_spec(item.n, item.r, item.p, allow_partial=item.allow_partial)


def _stats(result) -> List[float]:
    return [result.stats.error_rate, result.stats.med]


def _mismatch(key: str, profile: str, got: Optional[List[float]],
              golden: Dict) -> Optional[str]:
    if golden is None:
        return None  # recording run
    expected = golden.get(key, {}).get(profile, "absent")
    if expected == "absent":
        return f"{key} {profile}: no golden value"
    if expected is None or got is None:
        if expected is None and got is None:
            return None
        if expected is None:
            return None  # a known-unsupported call now succeeds: no golden
        return f"{key} {profile}: failed, golden {expected}"
    ep, med = got
    if (abs(ep - expected[0]) > TOLERANCE
            or abs(med - expected[1])
            > TOLERANCE * max(1.0, abs(expected[1]))):
        return f"{key} {profile}: got {got}, golden {expected}"
    return None


def run_pass(seed: int, tracer, record: Optional[Dict] = None) -> Dict:
    """One closed-loop pass over every configuration.

    Checks every result against the golden values, or, given ``record``,
    stores them there instead.
    """
    from repro.core.error_model import error_probability
    from repro.engine import AnalyticUnsupported, Engine, EvalRequest
    from repro.rtl import area, opt, sta
    from repro.utils.distributions import SparseOperands

    golden = None if record is not None else load_golden()
    engine = Engine(jobs=1)
    fpga, unit = sta.FpgaDelayModel(), sta.UnitDelayModel()
    rng = random.Random(f"explore:{seed}")
    latencies: List[float] = []
    errors: List[str] = []
    attempted = failed = 0
    start = time.perf_counter()
    for number, (key, item) in enumerate(items()):
        mc_seed = rng.randrange(2 ** 31)
        t0 = time.perf_counter()
        with tracer.span("explore.config", number):
            with tracer.span("spec.compile"):
                spec = _spec(item)
                model = spec.to_model()
                spec.fingerprint()
            with tracer.span("rtl.build"):
                netlist = spec.to_netlist()
            with tracer.span("rtl.opt"):
                netlist = opt.optimize(netlist)
            with tracer.span("rtl.sta"):
                sta.critical_path_delay(netlist, fpga)
                sta.critical_path_delay(netlist, unit)
            with tracer.span("rtl.area"):
                area.estimate_luts(netlist)
            profiles = [("uniform", None, "engine.analytic.cold")]
            if not isinstance(item, str):
                profiles.append(("sparse",
                                 SparseOperands(spec.width, SPARSE_DENSITY),
                                 "engine.analytic.warm"))
            for profile, dist, span in profiles:
                request = EvalRequest.monte_carlo(
                    model, MC_SAMPLES, seed=mc_seed, distribution=dist,
                    backend="auto")
                attempted += 1
                got = None
                with tracer.span(span) as record_span:
                    try:
                        got = _stats(engine.evaluate(request))
                    except AnalyticUnsupported:
                        # Known defect: auto resolves to analytic before
                        # plan compile finds the support too large.
                        failed += 1
                        if record_span is not None:
                            record_span[0] = "engine.analytic.unsupported"
                if record is not None:
                    record.setdefault(key, {})[profile] = got
                problem = _mismatch(key, profile, got, golden)
                if problem:
                    errors.append(problem)
            if not isinstance(item, str):
                with tracer.span("core.error_model"):
                    error_probability(item)
        latencies.append(time.perf_counter() - t0)
    elapsed = time.perf_counter() - start
    return {"configs": len(latencies), "elapsed_s": elapsed,
            "latencies_s": latencies, "attempted": attempted,
            "failed": failed, "errors": errors}


def load_golden() -> Dict:
    return json.loads(GOLDEN_PATH.read_text())


def layers(self_times: Dict[str, float], result: Dict) -> Dict[str, float]:
    """Per-layer metrics of one traced pass."""
    named = {"spec.compile_s": "spec.compile", "rtl.build_s": "rtl.build",
             "rtl.opt_s": "rtl.opt", "rtl.sta_s": "rtl.sta",
             "rtl.area_s": "rtl.area",
             "engine.analytic.cold_s": "engine.analytic.cold",
             "engine.analytic.warm_s": "engine.analytic.warm",
             "engine.analytic.unsupported_s": "engine.analytic.unsupported",
             "core.error_model_s": "core.error_model"}
    out = {metric: self_times.get(span, 0.0) for metric, span in named.items()}
    out["engine.analytic.unsupported"] = result["failed"]
    return out


def record_golden() -> None:
    """Write the golden EP/MED of every configuration from one pass."""
    from harness import NullTracer

    record: Dict = {}
    run_pass(0, NullTracer(), record)
    GOLDEN_PATH.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record_golden()
