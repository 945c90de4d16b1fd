"""Shared pieces of the benchmark: span tracer, percentiles, run facts.

Nothing here imports ``repro``; the workload modules do, so the
orchestrator (``run.py``) stays a plain process manager.
"""

from __future__ import annotations

import json
import math
import os
import platform
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

#: Directory, relative to the checkout root, that traced runs write to.
TRACE_DIR = ".perfbench_trace"


class Tracer:
    """In-memory span recorder.

    A span is ``[name, start, end, parent, rid]``: ``parent`` is the index
    of the enclosing span on the same thread (-1 for a root) and ``rid``
    the request id (config index, request sequence number, ...), which
    child spans inherit.  Nothing is written until :meth:`write`.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, rid: Optional[object] = None):
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if rid is None and parent >= 0:
            rid = self.spans[parent][4]
        record = [name, time.perf_counter(), 0.0, parent, rid]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def add_span(self, name: str, start: float, end: float,
                 rid: Optional[object] = None) -> None:
        """Record a span measured elsewhere (e.g. on a client thread)."""
        with self._lock:
            self.spans.append([name, start, end, -1, rid])

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name: each span minus what its children cover."""
        covered = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - covered[index]
        return dict(totals)

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (called once, at the end)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for name, start, end, parent, rid in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "rid": rid}) + "\n")


class NullTracer:
    """The untraced stand-in: same interface, records nothing."""

    enabled = False
    _null = nullcontext()

    def span(self, name: str, rid: Optional[object] = None):
        return self._null

    def add_span(self, name: str, start: float, end: float,
                 rid: Optional[object] = None) -> None:
        pass


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); NaN for no values."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values: Iterable[float]) -> float:
    return percentile(list(values), 0.5)


def vm_hwm_mb(pid: object = "self") -> float:
    """Peak resident set (``VmHWM``) of a process in MiB, 0 if unreadable."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def child_pids(pid: int) -> List[int]:
    """Direct children of a process, from ``/proc/<pid>/task/*/children``."""
    children: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return children
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                children.extend(int(p) for p in handle.read().split())
        except OSError:
            continue
    return children


def git_sha(root: Path) -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return "unknown"
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    try:
        return (root / ".git" / name).read_text().strip()
    except OSError:
        pass
    try:
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_facts(root: Path, seed: int) -> Dict[str, object]:
    """Seed, commit, interpreter/numpy versions and core count of a run."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "seed": seed,
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
    }

