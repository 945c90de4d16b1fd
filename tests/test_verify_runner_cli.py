"""End-to-end tests: the conformance runner and the ``gear verify`` CLI.

This is where ISSUE 3's headline acceptance lives: ``gear verify`` over
the *full* registry at N=8 must pass every layer for every adder, with
the behavioural layer proven exhaustively (all 2^16 operand pairs against
the gate-level netlist).
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.engine import Engine
from repro.verify import (
    LAYERS,
    MAX_VERIFY_WIDTH,
    ConformanceReport,
    LayerStatus,
    VerifyOptions,
    default_registry,
    verify_adder,
    verify_registry,
)


class TestVerifyOptions:
    def test_defaults(self):
        options = VerifyOptions()
        assert options.width == 8
        assert options.layers == LAYERS

    def test_rejects_unknown_layer(self):
        with pytest.raises(ValueError, match="unknown layers"):
            VerifyOptions(layers=("behavioural", "gate"))

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError, match="width"):
            VerifyOptions(width=0)

    @pytest.mark.parametrize("width", [MAX_VERIFY_WIDTH + 1, 64])
    def test_rejects_widths_past_int64(self, width):
        # a + b of two 63-bit operands overflows the int64 vector paths.
        with pytest.raises(ValueError, match="int64.*analytic backend"):
            VerifyOptions(width=width)

    def test_accepts_the_widest_supported_width(self):
        assert VerifyOptions(width=MAX_VERIFY_WIDTH).width == 62


class TestFullRegistryAcceptance:
    """The ISSUE acceptance criterion, as a test."""

    def test_every_adder_passes_every_layer_at_n8(self):
        reports = verify_registry()
        assert len(reports) == len(default_registry())
        for report in reports:
            assert report.ok, (
                f"{report.key}: {[(r.layer, r.message) for r in report.layers]}"
            )
            behavioural = report.layer("behavioural")
            if behavioural.status is LayerStatus.PASS:
                # Proven, not sampled: all 2^16 pairs against the netlist.
                assert behavioural.exhaustive
                assert behavioural.vectors == 1 << 16
            else:
                # Only the purely-behavioural models may skip.
                assert behavioural.status is LayerStatus.SKIP
                assert report.key.startswith("eta")

    def test_results_identical_under_parallel_cached_engine(self, tmp_path):
        options = VerifyOptions(layers=("stats",))
        serial = verify_registry(["gear_r2p2", "csla"], options=options)
        parallel = verify_registry(
            ["gear_r2p2", "csla"], options=options,
            engine=Engine(jobs=2, cache=tmp_path / "shards"))
        assert [r.to_json() for r in serial] == [r.to_json() for r in parallel]


class TestRunner:
    def test_single_adder_report_shape(self):
        entry = default_registry()["gear_r1p3"]
        report = verify_adder(entry)
        assert isinstance(report, ConformanceReport)
        assert report.key == "gear_r1p3"
        assert report.width == 8
        assert report.fingerprint
        assert [r.layer for r in report.layers] == list(LAYERS)

    def test_layer_selection_and_order(self):
        entry = default_registry()["loa_half"]
        report = verify_adder(entry, VerifyOptions(layers=("vector", "stats")))
        assert [r.layer for r in report.layers] == ["vector", "stats"]
        assert report.layer("vector").status is LayerStatus.PASS
        with pytest.raises(KeyError):
            report.layer("behavioural")

    def test_unsupported_width_is_skipped(self):
        # gear_r2p4 needs width >= 8; at 6 the family drops out silently.
        reports = verify_registry(["gear_r2p4", "rca"],
                                  options=VerifyOptions(width=6))
        assert [r.key for r in reports] == ["rca"]

    def test_unknown_key_raises(self):
        with pytest.raises(ValueError, match="unknown adder"):
            verify_registry(["definitely_not_an_adder"])

    def test_json_round_trips(self):
        report = verify_adder(default_registry()["cska"])
        payload = json.loads(json.dumps(report.to_json()))
        assert payload["adder"] == "cska"
        assert payload["ok"] is True
        assert {layer["layer"] for layer in payload["layers"]} == set(LAYERS)


GOLDEN_REPORT = Path(__file__).parent / "data" / "verify_registry_n8.json"


class TestCli:
    def test_full_registry_json_is_byte_identical_to_golden(self, capsys):
        # Pins every status, vector count and detail of the whole report.
        assert main(["verify", "--json"]) == 0
        assert capsys.readouterr().out == GOLDEN_REPORT.read_text()

    @pytest.mark.parametrize("width", ["63", "64"])
    def test_width_past_int64_exits_2(self, capsys, width):
        assert main(["verify", "--adder", "rca", "--width", width]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: width must be <= 62")
        assert "Traceback" not in err

    def test_two_adder_json_smoke(self, capsys):
        # Mirrors the CI verify-smoke job.
        code = main(["verify", "--adder", "rca", "--adder", "gear_r2p2",
                     "--json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert [entry["adder"] for entry in payload] == ["rca", "gear_r2p2"]
        assert all(entry["ok"] for entry in payload)

    def test_table_output(self, capsys):
        assert main(["verify", "--adder", "loa_half", "--adder", "etai_half",
                     "--layer", "stats", "--layer", "vector"]) == 0
        out = capsys.readouterr().out
        assert "loa_half" in out and "etai_half" in out
        assert "ok" in out

    def test_list_adders(self, capsys):
        assert main(["verify", "--list-adders"]) == 0
        out = capsys.readouterr().out
        for key in default_registry():
            assert key in out

    def test_unknown_adder_exits_2(self, capsys):
        assert main(["verify", "--adder", "nonesuch"]) == 2
        assert "unknown adder" in capsys.readouterr().err

    def test_no_supported_adder_exits_2(self, capsys):
        # gear_r2p4 is undefined below width 8 -> empty run -> exit 2.
        assert main(["verify", "--adder", "gear_r2p4", "--width", "6"]) == 2
        assert "no registered adder" in capsys.readouterr().err

    def test_failure_exits_1(self, capsys, monkeypatch):
        from repro.verify import runner as runner_module
        from repro.verify.report import LayerResult

        def broken_stats(model, **kwargs):
            return LayerResult("stats", LayerStatus.FAIL,
                               message="synthetic failure")

        monkeypatch.setattr(runner_module, "check_stats", broken_stats)
        assert main(["verify", "--adder", "rca", "--layer", "stats"]) == 1
        assert "synthetic failure" in capsys.readouterr().out

    def test_layer_flag_restricts_run(self, capsys):
        assert main(["verify", "--adder", "ksa", "--layer", "verilog",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [l["layer"] for l in payload[0]["layers"]] == ["verilog"]
