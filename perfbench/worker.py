"""One measured process of a workload (started by ``run.py``).

    python3 perfbench/worker.py WORKLOAD --seed N --seconds S --trace 0|1
                                [--setup-only] [--single]

explore, campaign and verify run in passes, one fresh process per pass
(``--single``), so every pass pays the cold path a user's command pays;
the process without ``--single`` starts pass processes until the run
time is spent and merges their results.  serve runs in this process and
drives its own daemon.

A process that sets up prints ``READY <import_s> <warm_s>`` once it is
ready (the parent times set-up from spawn to that line), then one JSON
line with its counts, metrics and check failures.  ``--setup-only``
stops after the ready line.
"""

from __future__ import annotations

import argparse
import importlib
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import harness
from harness import NullTracer, Tracer, median, percentile

WORKLOADS = ("explore", "campaign", "verify", "serve")
HERE = Path(__file__).resolve().parent
#: Spans that only group layer calls; their self time is the benchmark's own.
GROUP_SPANS = ("explore.config", "campaign.split", "verify.entry")


def _ms(seconds: float) -> float:
    return 1e3 * seconds


def _trace_overhead(untraced: float, traced: float) -> float:
    return (traced - untraced) / untraced


# -- pass workloads: explore, campaign, verify --------------------------------

def run_single(args) -> Dict:
    """One pass in this (fresh) process."""
    module = importlib.import_module(f"wl_{args.workload}")
    tracer = Tracer() if args.trace else NullTracer()
    start = time.perf_counter()
    result = module.run_pass(args.seed, tracer)
    wall = time.perf_counter() - start
    result["rss_mb"] = harness.vm_hwm_mb()
    if args.trace:
        self_times = tracer.self_times()
        result["layers"] = module.layers(self_times, result)
        result["layers"]["trace.unattributed_s"] = wall - sum(
            t for name, t in self_times.items() if name not in GROUP_SPANS)
        result["spans"] = tracer.spans
    return result


def _pass_process(workload: str, seed: int, trace: bool) -> Dict:
    """Run one ``--single`` pass process; its result plus its set-up time."""
    command = [sys.executable, str(HERE / "worker.py"), workload, "--seed",
               str(seed), "--seconds", "0", "--trace", str(int(trace)),
               "--single"]
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        lines = proc.stdout.read().splitlines()
    if proc.returncode != 0 or not ready.startswith("READY") or not lines:
        raise RuntimeError(f"{workload} pass exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = setup_s
    return result


def measure_passes(args) -> Dict:
    """Pass processes until the run time is spent; a traced run makes one
    untraced and one traced pass.  Pass ``i`` uses seed ``seed + i``."""
    passes: List[Dict] = []
    start = time.perf_counter()
    while not passes or (not args.trace
                         and time.perf_counter() - start < args.seconds):
        passes.append(_pass_process(args.workload, args.seed + len(passes),
                                    False))
    traced = (_pass_process(args.workload, args.seed + len(passes), True)
              if args.trace else None)
    runs = passes + ([traced] if traced else [])
    attempted = sum(p["attempted"] for p in runs)
    failed = sum(p["failed"] for p in runs)
    out = {
        "attempted": attempted, "failed": failed,
        "errors": [e for p in runs for e in p["errors"]],
        "rss_mb": median(p["rss_mb"] for p in passes),
        "import_s": median(p["import_s"] for p in passes),
        "warm_s": 0.0,
        "setup_samples": [p["setup_s"] for p in runs],
        **SUMMARIES[args.workload](passes),
    }
    out["named"]["fail_share"] = (
        failed / attempted,
        f"failed/attempted (base {attempted} {BASES[args.workload]})")
    if traced:
        out["layers"] = dict(traced["layers"])
        out["layers"]["trace.overhead_share"] = _trace_overhead(
            passes[-1]["elapsed_s"], traced["elapsed_s"])
        out["spans"] = traced["spans"]
    return out


def summarize_explore(passes: List[Dict]) -> Dict:
    rate = (sum(p["configs"] for p in passes)
            / sum(p["elapsed_s"] for p in passes))
    latencies = [t for p in passes for t in p["latencies_s"]]
    return {"throughput_per_s": rate,
            "p50_ms": _ms(percentile(latencies, 0.5)),
            "named": {"explore_configs_per_s": (rate, "configs/s")}}


def summarize_campaign(passes: List[Dict]) -> Dict:
    rate = sum(p["pairs"] for p in passes) / sum(p["eval_s"] for p in passes)
    fault_rate = (sum(p["fault_vectors"] for p in passes)
                  / sum(p["fault_s"] for p in passes))
    latencies = [t for p in passes for t in p["latencies_s"]]
    return {"throughput_per_s": rate,
            "p50_ms": _ms(percentile(latencies, 0.5)),
            "named": {
                "campaign_mpairs_per_s": (rate / 1e6, "Mpairs/s"),
                "campaign_fault_mvec_per_s": (fault_rate / 1e6, "Mfaultvec/s"),
            }}


def summarize_verify(passes: List[Dict]) -> Dict:
    rate = (sum(p["attempted"] for p in passes)
            / sum(p["elapsed_s"] for p in passes))
    # Each entry's median over the passes, summed: one registry pass as
    # it typically runs, unmoved by a stall in a single pass.
    typical = sum(median(times) for times in
                  zip(*(p["latencies_s"] for p in passes)))
    return {"throughput_per_s": rate, "p50_ms": _ms(typical),
            "named": {"verify_adders_per_s": (rate, "adders/s")}}


SUMMARIES = {"explore": summarize_explore, "campaign": summarize_campaign,
             "verify": summarize_verify}
BASES = {"explore": "auto evaluations",
         "campaign": "evaluations, fault campaigns and parity runs",
         "verify": "registry entries"}


# -- serve --------------------------------------------------------------------

def _due_latencies(records, cls=None) -> List[float]:
    """Latency from due time; a failed request counts as infinitely late."""
    return [(r[3] - r[1]) if r[4] == 200 else float("inf")
            for r in records if cls is None or r[0] == cls]


def measure_serve(args, state) -> Dict:
    import wl_serve

    daemon, clients, served = state
    try:
        seconds = args.seconds / 2 if args.trace else args.seconds
        phases, capacity = wl_serve.run_phases(clients, args.seed, seconds,
                                               NullTracer(), 0)
        tracer = traced = None
        if args.trace:
            tracer = Tracer()
            traced, _ = wl_serve.run_phases(clients, args.seed, seconds,
                                            tracer, 1)
        stats = wl_serve.server_stats(clients[0])
        rss = daemon.peak_rss_mb()
    finally:
        for client in clients:
            client.close()
        code = daemon.stop()
    expected = wl_serve.offline_bytes(args.seed)
    errors = [f"warm-up hot #{i}: served bytes differ from the offline payload"
              for i, data in served.items() if data != expected[i]]
    rounds = [phases] + ([traced] if traced else [])
    for checked in rounds:
        errors += wl_serve.check(checked, expected)
    if code != 0:
        errors.append(f"daemon exited {code} after SIGTERM")
    all_records = [r for checked in rounds
                   for p in ("light", "heavy", "burst") for r in checked[p]]
    heavy = _due_latencies(phases["heavy"])
    light = _due_latencies(phases["light"])
    failed = sum(r[4] != 200 for r in all_records)
    light_rps = capacity * wl_serve.LIGHT_LOAD
    heavy_rps = capacity * wl_serve.HEAVY_LOAD
    out = {
        "attempted": len(all_records), "failed": failed, "errors": errors,
        "throughput_per_s": capacity,
        "p50_ms": _ms(percentile(_due_latencies(phases["burst"]), 0.5)),
        "rss_mb": rss,
        "named": {
            "fail_share": (failed / len(all_records),
                           f"failed/attempted (base {len(all_records)} "
                           "requests)"),
            "serve_p50_ms_light": (
                _ms(percentile(light, 0.5)),
                f"ms (n={len(light)} at {light_rps:.0f} req/s)"),
            "serve_p99_ms_light": (_ms(percentile(light, 0.99)),
                                   f"ms (n={len(light)})"),
            "serve_p50_ms_heavy": (
                _ms(percentile(heavy, 0.5)),
                f"ms (n={len(heavy)} at {heavy_rps:.0f} req/s)"),
            "serve_p99_ms_heavy": (_ms(percentile(heavy, 0.99)),
                                   f"ms (n={len(heavy)})"),
            "serve_slo_share_heavy": (
                sum(t <= wl_serve.SLO_S for t in heavy) / max(1, len(heavy)),
                f"share within {int(wl_serve.SLO_S * 1e3)} ms "
                f"(n={len(heavy)})"),
            "serve_capacity_rps": (capacity, "req/s"),
        },
    }
    if tracer:
        out["layers"] = serve_layers(traced, stats)
        out["layers"]["trace.overhead_share"] = _trace_overhead(
            out["p50_ms"],
            _ms(percentile(_due_latencies(traced["burst"]), 0.5)))
        out["tracer"] = tracer
    return out


def serve_layers(traced: Dict, stats: Dict) -> Dict[str, float]:
    """Per-layer metrics of the traced round plus the daemon's ``/stats``."""
    import wl_serve

    records = [r for p in ("light", "heavy", "burst") for r in traced[p]]
    layers = {}
    for cls, _ in wl_serve.MIX:
        latencies = _due_latencies(records, cls)
        layers[f"serve.{cls}.p50_ms"] = _ms(percentile(latencies, 0.5))
        layers[f"serve.{cls}.p99_ms"] = _ms(percentile(latencies, 0.99))
    latency = stats["latency"]
    for endpoint in ("eval", "verify"):
        p50 = latency.get(f"serve.{endpoint}", {}).get("p50_s") or 0.0
        layers[f"serve.server_p50_ms.{endpoint}"] = _ms(p50)
    client_eval = [r[3] - r[2] for r in records
                   if r[0] in ("hot", "cold", "analytic")]
    layers["serve.wait_ms"] = _ms(
        sum(client_eval) / max(1, len(client_eval))
        - latency.get("serve.eval", {}).get("mean_s", 0.0))
    coalesce = stats["server"]["coalesce"]
    base = coalesce["hits"] + coalesce["misses"]
    layers["serve.coalesce_hit_ratio"] = coalesce["hits"] / max(1, base)
    layers["serve.coalesce_base"] = base
    open_records = [r for p in ("light", "heavy") for r in traced[p]]
    late = [r[2] - r[1] for r in open_records if r[7]]
    layers["serve.gen_late_ms"] = _ms(percentile(late, 0.99))
    layers["serve.backlog_max"] = max((r[8] for r in open_records),
                                      default=0)
    return layers


# -- entry point --------------------------------------------------------------

def setup(args, root: Path):
    """Import the workload's layers (and for serve start the daemon)."""
    t0 = time.perf_counter()
    if args.workload == "serve":
        import repro.serve  # noqa: F401
        import repro.serve.client  # noqa: F401
        import wl_serve

        import_s = time.perf_counter() - t0
        state = wl_serve.start(root, args.seed)
        return state, import_s, time.perf_counter() - t0 - import_s
    importlib.import_module(f"wl_{args.workload}").setup()
    return None, time.perf_counter() - t0, 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--single", action="store_true")
    args = parser.parse_args(argv)
    root = Path.cwd()

    if args.workload != "serve" and not (args.single or args.setup_only):
        print("READY 0 0", flush=True)  # set-up is timed in the passes
        result = measure_passes(args)
    else:
        state, import_s, warm_s = setup(args, root)
        print(f"READY {import_s!r} {warm_s!r}", flush=True)
        if args.setup_only:
            if state is None:
                return 0
            daemon, clients, _ = state
            for client in clients:
                client.close()
            return 0 if daemon.stop() == 0 else 1
        result = (run_single(args) if args.single
                  else measure_serve(args, state))
        result.setdefault("rss_mb", harness.vm_hwm_mb())
        result["import_s"], result["warm_s"] = import_s, warm_s
    if not args.single:
        tracer = result.pop("tracer", None)
        if tracer is None and "spans" in result:
            tracer = Tracer()
            tracer.spans = result.pop("spans")
        if tracer is not None:
            tracer.write(root / harness.TRACE_DIR
                         / f"{args.workload}-{args.seed}.jsonl")
            result["spans"] = len(tracer.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
