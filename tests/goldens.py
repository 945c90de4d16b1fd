"""Golden artefacts pinned by ``test_goldens.py``, and their recorder.

Two sets are pinned:

* ``named_models.json`` — for a parameter grid of each public adder
  constructor (``AlmostCorrectAdder`` ... ``GeArAdder``): the display
  name, fingerprint, window layout, exactness, max error distance, a
  digest of the exhaustive ``add`` table (N <= 8) and a digest of the
  ``build_netlist()`` Verilog;
* ``cli/`` — byte-exact stdout of deterministic CLI commands (every
  ``gear experiment --json``, ``gear sweep 16 --json``, ``gear info``,
  flat/hierarchical ``gear verilog`` and offline ``gear client eval``
  bodies for ``{"gear": ...}`` references).

Re-record (only when an output change is intended) with::

    PYTHONPATH=src python tests/goldens.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

DATA = Path(__file__).resolve().parent / "data"
NAMED_MODELS = DATA / "named_models.json"
CLI_DIR = DATA / "cli"

EXPERIMENTS = (
    "ablation-correction", "ablation-distributions", "fig1", "fig7",
    "fig8", "fig9", "sweep", "table1", "table2", "table3", "table4",
)

#: golden file name -> ``gear`` argv.
CLI_GOLDENS: Dict[str, List[str]] = {
    **{f"experiment_{e}.json": ["experiment", e, "--json"]
       for e in EXPERIMENTS},
    "sweep_16.json": ["sweep", "16", "--json"],
    "info_20_3_7.txt": ["info", "20", "3", "7"],
    "verilog_12_4_4.v": ["verilog", "12", "4", "4"],
    "verilog_12_4_4_hierarchical.v": ["verilog", "12", "4", "4",
                                      "--hierarchical"],
    "eval_gear_12_4_4.json": [
        "client", "eval", "--offline",
        '{"adder": {"gear": [12, 4, 4]}, "samples": 20000, "seed": 2015}'],
    "eval_gear_16_4_2_analytic.json": [
        "client", "eval", "--offline",
        '{"adder": {"gear": [16, 4, 2]}, "mode": "exhaustive", '
        '"backend": "analytic"}'],
}

#: (constructor, positional args, keyword args).  ``GeArAdder`` takes a
#: ``GeArConfig`` built from its args/kwargs.
NAMED_GRID: List[Tuple[str, list, dict]] = [
    ("AlmostCorrectAdder", [8, 2], {}),
    ("AlmostCorrectAdder", [8, 4], {}),
    ("AlmostCorrectAdder", [8, 8], {}),
    ("AlmostCorrectAdder", [16, 6], {}),
    ("AccuracyConfigurableAdder", [8, 4], {}),
    ("AccuracyConfigurableAdder", [16, 8], {}),
    ("AccuracyConfigurableAdder", [8, 6], {"allow_partial": True}),
    ("AccuracyConfigurableAdder", [14, 8], {"allow_partial": True}),
    ("ErrorTolerantAdderII", [8, 4], {}),
    ("ErrorTolerantAdderII", [16, 8], {}),
    ("ErrorTolerantAdderII", [8, 6], {"allow_partial": True}),
    ("ErrorTolerantAdderII", [14, 8], {"allow_partial": True}),
    ("ErrorTolerantAdderIIM", [8, 4], {}),
    ("ErrorTolerantAdderIIM", [8, 4], {"connected": 1}),
    ("ErrorTolerantAdderIIM", [8, 4], {"connected": 4}),
    ("ErrorTolerantAdderIIM", [8, 2], {"connected": 3}),
    ("ErrorTolerantAdderIIM", [16, 8], {"connected": 2}),
    ("GracefullyDegradingAdder", [8, 2, 2], {}),
    ("GracefullyDegradingAdder", [8, 2, 4], {}),
    ("GracefullyDegradingAdder", [8, 4, 4], {}),
    ("GracefullyDegradingAdder", [16, 4, 8], {}),
    ("GracefullyDegradingAdder", [8, 2, 3], {"enforce_multiple": False}),
    ("GracefullyDegradingAdder", [8, 4, 3], {"enforce_multiple": False}),
    ("GracefullyDegradingAdder", [16, 4, 6], {"enforce_multiple": False}),
    ("LowerPartOrAdder", [8, 0], {}),
    ("LowerPartOrAdder", [8, 3], {}),
    ("LowerPartOrAdder", [12, 4], {}),
    ("LowerPartOrAdder", [16, 0], {}),
    ("GeArAdder", [8, 2, 2], {}),
    ("GeArAdder", [8, 2, 4], {}),
    ("GeArAdder", [8, 4, 4], {}),
    ("GeArAdder", [8, 3, 3], {"allow_partial": True}),
    ("GeArAdder", [12, 4, 4], {}),
    ("GeArAdder", [16, 4, 2], {"allow_partial": True}),
    ("GeArAdder", [16, 4, 6], {"allow_partial": True}),
    ("GeArAdder", [20, 3, 7], {"allow_partial": True}),
]


def build_named(ctor: str, args: list, kwargs: dict):
    import repro

    if ctor == "GeArAdder":
        return repro.GeArAdder(repro.GeArConfig(*args, **kwargs))
    return getattr(repro, ctor)(*args, **kwargs)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def named_record(ctor: str, args: list, kwargs: dict) -> dict:
    from repro.rtl.verilog import to_verilog

    model = build_named(ctor, args, kwargs)
    windows = getattr(model, "windows", None) or model.spec.to_windows()
    record = {
        "ctor": ctor, "args": args, "kwargs": kwargs,
        "name": model.name,
        "fingerprint": model.fingerprint(),
        "windows": [[w.low, w.high, w.result_low, w.result_high]
                    for w in windows],
        "is_exact": bool(model.is_exact),
        "max_error_distance": int(model.max_error_distance()),
        "add_sha256": None,
        "verilog_sha256": _sha(to_verilog(model.build_netlist()).encode()),
    }
    if model.width <= 8:
        ops = np.arange(1 << model.width, dtype=np.int64)
        a, b = (x.ravel() for x in np.meshgrid(ops, ops, indexing="ij"))
        sums = np.asarray(model.add(a, b), dtype="<i8")
        record["add_sha256"] = _sha(sums.tobytes())
    return record


def named_records() -> List[dict]:
    return [named_record(*entry) for entry in NAMED_GRID]


def cli_stdout(argv: List[str]) -> bytes:
    """Run ``gear <argv>`` in-process and return what it wrote to stdout."""
    from repro.cli import main

    buffer = io.BytesIO()
    text = io.TextIOWrapper(buffer, encoding="utf-8", newline="")
    with contextlib.redirect_stdout(text):
        code = main(argv)
        text.flush()
    if code != 0:
        raise RuntimeError(f"gear {' '.join(argv)} exited {code}")
    return buffer.getvalue()


def record() -> None:
    DATA.mkdir(exist_ok=True)
    NAMED_MODELS.write_text(
        "[\n" + ",\n".join(json.dumps(r) for r in named_records()) + "\n]\n")
    CLI_DIR.mkdir(exist_ok=True)
    for filename, argv in CLI_GOLDENS.items():
        (CLI_DIR / filename).write_bytes(cli_stdout(argv))


if __name__ == "__main__":
    sys.exit(record())
