"""Public constructors and CLI artefacts stay byte-identical to their goldens.

The goldens are recorded by ``tests/goldens.py``; a mismatch means a
display name, fingerprint, sum table, netlist or printed artefact
changed.
"""

from __future__ import annotations

import json

import pytest

import repro
import repro.adders
import repro.core
from tests.goldens import (
    CLI_DIR,
    CLI_GOLDENS,
    NAMED_GRID,
    NAMED_MODELS,
    cli_stdout,
    named_record,
)

PUBLIC_NAMES = (
    "AlmostCorrectAdder", "AccuracyConfigurableAdder", "ErrorTolerantAdderII",
    "ErrorTolerantAdderIIM", "GracefullyDegradingAdder", "LowerPartOrAdder",
)

GOLDEN_RECORDS = json.loads(NAMED_MODELS.read_text())


def test_grid_matches_recorded_file():
    assert [[r["ctor"], r["args"], r["kwargs"]] for r in GOLDEN_RECORDS] \
        == [list(entry) for entry in NAMED_GRID]


@pytest.mark.parametrize("golden", GOLDEN_RECORDS,
                         ids=lambda r: f"{r['ctor']}{r['args']}{r['kwargs']}")
def test_named_model_matches_golden(golden):
    assert named_record(golden["ctor"], golden["args"], golden["kwargs"]) \
        == golden


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_constructors_import_from_package_and_adders(name):
    assert getattr(repro, name) is getattr(repro.adders, name)


def test_gear_constructor_imports_from_package_and_core():
    assert repro.GeArAdder is repro.core.GeArAdder


@pytest.mark.parametrize("filename", sorted(CLI_GOLDENS))
def test_cli_output_matches_golden(filename):
    assert cli_stdout(CLI_GOLDENS[filename]) \
        == (CLI_DIR / filename).read_bytes()
