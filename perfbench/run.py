"""The repository's benchmark: one command for every workload.

    python3 perfbench/run.py --workload explore|campaign|verify|serve|all
                             --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it measures the ``repro`` package in
``src/``.  Each workload runs in fresh worker processes (``worker.py``);
set-up is timed from spawning a process until it reports ready, several
times per run, and reported as the median.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics`` — the end-to-end metrics untraced, the per-layer
metrics with ``--trace 1``.  Any failed output check makes ``correct``
false and the exit code 1.  See NOTES.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

WORKLOADS = ("explore", "campaign", "verify", "serve")
#: Set-up samples per run at least: every pass process gives one, and
#: set-up-only processes top them up (serve, being one process, always).
MIN_SETUP_SAMPLES = {"explore": 5, "campaign": 5, "verify": 5, "serve": 3}
#: Wall-clock budget of one invocation; workers still running then are
#: killed with their whole process group (the serve daemon included).
DEADLINE_S = 170.0

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "throughput_per_s": "1/s",
    "p50_ms": "ms",
}
#: What the generic end-to-end metrics count, per workload.
OPERATION = {
    "explore": "configuration through every explore step",
    "campaign": "simulated operand pair (throughput); one evaluation "
                "request (latency)",
    "verify": "registry entry through all six layers (throughput); one "
              "whole-registry pass, each entry at its median (latency)",
    "serve": "request: median round capacity and median latency of the "
             "closed-loop bursts over 2 connections",
}
PER_LAYER = {  # name -> unit; every traced run reports all of them
    "setup.import_s": "s",
    "setup.warm_s": "s",
    "spec.compile_s": "s",
    "rtl.build_s": "s",
    "rtl.opt_s": "s",
    "rtl.sta_s": "s",
    "rtl.area_s": "s",
    "engine.analytic.cold_s": "s",
    "engine.analytic.warm_s": "s",
    "engine.analytic.unsupported": "count",
    "engine.analytic.unsupported_s": "s",
    "core.error_model_s": "s",
    "rtl.compile_s": "s",
    "rtl.fault_s": "s",
    "rtl.pack_s": "s",
    "rtl.kernel_s": "s",
    "rtl.unpack_s": "s",
    "utils.draw_s": "s",
    "adders.add_s": "s",
    "engine.reduce_s": "s",
    "engine.sampling_s": "s",
    "engine.compiled_s": "s",
    "engine.shards": "count",
    "engine.shard_p50_ms": "ms",
    "verify.behavioural_s": "s",
    "verify.verilog_s": "s",
    "verify.stats_s": "s",
    "verify.analytic_s": "s",
    "verify.compiled_s": "s",
    "verify.vector_s": "s",
    "verify.counterexamples": "count",
    "serve.hot.p50_ms": "ms",
    "serve.hot.p99_ms": "ms",
    "serve.cold.p50_ms": "ms",
    "serve.cold.p99_ms": "ms",
    "serve.analytic.p50_ms": "ms",
    "serve.analytic.p99_ms": "ms",
    "serve.verify.p50_ms": "ms",
    "serve.verify.p99_ms": "ms",
    "serve.server_p50_ms.eval": "ms",
    "serve.server_p50_ms.verify": "ms",
    "serve.wait_ms": "ms",
    "serve.coalesce_hit_ratio": "share",
    "serve.coalesce_base": "count",
    "serve.gen_late_ms": "ms",
    "serve.backlog_max": "count",
    "trace.spans": "count",
    "trace.unattributed_s": "s",
    "trace.overhead_share": "share",
}
#: Value standing in for a non-finite measurement (a failed request's
#: latency); only runs that already report ``correct: false`` carry it.
NOT_FINITE = 1e12


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a failed output check)."""


def _worker(root: Path, workload: str, args, deadline: float, *extra: str
            ) -> Tuple[float, List[str]]:
    """Run one worker; returns (spawn-to-ready seconds, output lines)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    command = [sys.executable, str(HERE / "worker.py"), workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=root, env=env,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        waiting, _, _ = select.select(
            [proc.stdout], [], [], max(1.0, deadline - time.perf_counter()))
        ready = proc.stdout.readline() if waiting else ""
        setup_s = time.perf_counter() - start
        if not ready:
            raise BenchError(f"{workload} worker never reported ready")
        rest, _ = proc.communicate(
            timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker ran past the deadline")
    finally:
        # Normally the group is already empty; after a failure this also
        # reaches the serve daemon and the verify pass processes.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0 or not ready.startswith("READY"):
        raise BenchError(f"{workload} worker exited {proc.returncode}")
    return setup_s, rest.splitlines()


def run_workload(root: Path, workload: str, args, deadline: float) -> Dict:
    """The measured worker plus set-up probes; returns the merged result."""
    setup_s, lines = _worker(root, workload, args, deadline)
    if not lines:
        raise BenchError(f"{workload} worker printed no result")
    result = json.loads(lines[-1])
    setups = result.pop("setup_samples", [setup_s])
    while len(setups) < MIN_SETUP_SAMPLES[workload]:
        setups.append(_worker(root, workload, args, deadline,
                              "--setup-only")[0])
    result["setup_s"] = harness.median(setups)
    result["setup_samples"] = setups
    return result


def _finite(value: float) -> float:
    return float(value) if math.isfinite(value) else NOT_FINITE


def end_to_end(result: Dict) -> Dict[str, Dict]:
    values = {"setup_s": result["setup_s"], "peak_rss_mb": result["rss_mb"],
              "throughput_per_s": result["throughput_per_s"],
              "p50_ms": result["p50_ms"]}
    return {name: {"value": _finite(values[name]), "unit": unit}
            for name, unit in END_TO_END.items()}


def per_layer(result: Dict) -> Dict[str, Dict]:
    layers = dict(result.get("layers", {}))
    layers["setup.import_s"] = result["import_s"]
    layers["setup.warm_s"] = result["warm_s"]
    layers["trace.spans"] = result.get("spans", 0)
    return {name: {"value": _finite(layers.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER.items()}


def report(workload: str, result: Dict, facts: Dict) -> None:
    """Human-readable lines: every metric by name with its unit."""
    print(f"== {workload}  seed={facts['seed']} sha={facts['git_sha'][:12]} "
          f"python={facts['python']} numpy={facts['numpy']} "
          f"nproc={facts['nproc']}")
    print(f"   operation: {OPERATION[workload]}")
    for name, metric in end_to_end(result).items():
        print(f"   {name:<28} {metric['value']:>14.6g} {metric['unit']}")
    for name, (value, unit) in result["named"].items():
        print(f"   {name:<28} {_finite(value):>14.6g} {unit}")
    print(f"   setup samples (s): "
          + " ".join(f"{s:.3f}" for s in result["setup_samples"]))
    if "layers" in result:
        for name, metric in per_layer(result).items():
            print(f"   {name:<28} {metric['value']:>14.6g} {metric['unit']}")
    for error in result["errors"][:20]:
        print(f"   CHECK FAILED: {error}")
    if len(result["errors"]) > 20:
        print(f"   ... and {len(result['errors']) - 20} more failed checks")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the root of a checkout (src/repro is missing)",
              file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    facts = harness.run_facts(root, args.seed)
    results = {}
    try:
        for workload in workloads:
            deadline = time.perf_counter() + DEADLINE_S
            results[workload] = run_workload(root, workload, args, deadline)
            report(workload, results[workload], facts)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    correct = all(not r["errors"] for r in results.values())
    metrics = {}
    for workload, result in results.items():
        chosen = per_layer(result) if args.trace else end_to_end(result)
        prefix = f"{workload}." if len(results) > 1 else ""
        metrics.update({prefix + name: m for name, m in chosen.items()})
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
