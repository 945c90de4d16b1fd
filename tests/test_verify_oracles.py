"""Oracle-level tests: the four layer checks, including fault injection.

The pass paths are covered indirectly by ``test_verify_runner_cli`` (which
drives the whole registry); here each oracle is also pushed into its FAIL
branch with a deliberately broken model, and — the acceptance criterion —
a single stuck-at gate fault injected via :mod:`repro.rtl.faults` must be
caught by the behavioural layer and reported with a *shrunk*
counterexample.
"""

import numpy as np
import pytest

from repro import obs
from repro.rtl.faults import Fault, inject_fault
from repro.rtl.sim import simulate_bus
from repro.verify.oracles import (
    check_behavioural,
    check_compiled,
    check_stats,
    check_vector,
    check_verilog,
)
from repro.verify.registry import registry_adder
from repro.verify.report import LayerStatus
from repro.verify.vectors import operand_vectors


class _Wrapper:
    """Delegate to a real model, overriding selected methods per test."""

    def __init__(self, model):
        self._model = model

    def __getattr__(self, name):
        return getattr(self._model, name)


class _FaultyNetlist(_Wrapper):
    """A model whose netlist carries one injected stuck-at fault."""

    def __init__(self, model, fault):
        super().__init__(model)
        self._fault = fault

    def build_netlist(self):
        return inject_fault(self._model.build_netlist(), self._fault)


def _pick_detectable_fault(model, net_prefix="S"):
    """A stuck-at fault on a sum-output net that actually flips S."""
    netlist = model.build_netlist()
    vectors = operand_vectors(model.width)
    golden = simulate_bus(netlist, {"A": vectors.a, "B": vectors.b}, "S")
    for net in netlist.output_buses["S"]:
        for stuck_at in (0, 1):
            fault = Fault(net, stuck_at)
            faulty = inject_fault(netlist, fault)
            got = simulate_bus(faulty, {"A": vectors.a, "B": vectors.b}, "S")
            if np.any(got != golden):
                return fault
    raise AssertionError("no detectable single fault found")  # pragma: no cover


class TestFaultInjectionAcceptance:
    """ISSUE acceptance: an injected single-gate fault is detected and the
    reported counterexample is shrunk."""

    @pytest.mark.parametrize("key", ["rca", "gear_r2p2"])
    def test_single_stuck_at_fault_is_caught_and_shrunk(self, key):
        model = registry_adder(key, 8)
        fault = _pick_detectable_fault(model)
        faulty = _FaultyNetlist(model, fault)

        vectors = operand_vectors(8)  # 2^16 pairs: exhaustive
        result = check_behavioural(faulty, vectors)

        assert result.status is LayerStatus.FAIL
        assert result.exhaustive
        cex = result.counterexample
        assert cex is not None
        # The witness must still expose the fault...
        netlist = faulty.build_netlist()
        if result.details["bus"] == "S":
            assert int(model.add(cex.a, cex.b)) != int(
                simulate_bus(netlist, {"A": cex.a, "B": cex.b}, "S")[()])
        # ...and be shrunk: no width axis here (the fault lives in this
        # one netlist), but the operands must be 1-minimal — clearing any
        # single set bit of either operand makes the mismatch vanish.
        from repro.verify.oracles import _behavioural_predicate

        fails = _behavioural_predicate(faulty, netlist, result.details["bus"])
        assert fails(cex.a, cex.b)
        for bit in range(8):
            if (cex.a >> bit) & 1:
                assert not fails(cex.a & ~(1 << bit), cex.b)
            if (cex.b >> bit) & 1:
                assert not fails(cex.a, cex.b & ~(1 << bit))

    def test_fault_on_err_detector_is_caught(self):
        # Break the ERR bus instead of S: stuck-at-1 on the error flag.
        model = registry_adder("gear_r2p2", 8)
        netlist = model.build_netlist()
        err_net = netlist.output_buses["ERR"][0]
        faulty = _FaultyNetlist(model, Fault(err_net, 1))

        result = check_behavioural(faulty, operand_vectors(8))
        assert result.status is LayerStatus.FAIL
        assert result.details["bus"] == "ERR"
        # Stuck-at-1 ERR fires even on (0, 0): the shrinker floors out.
        assert (result.counterexample.a, result.counterexample.b) == (0, 0)


class TestBehaviouralOracle:
    def test_passes_on_healthy_model(self):
        result = check_behavioural(registry_adder("cla", 8), operand_vectors(8))
        assert result.status is LayerStatus.PASS
        assert result.exhaustive
        assert result.vectors == 1 << 16

    def test_skips_without_netlist(self):
        result = check_behavioural(registry_adder("etai_half", 8),
                                   operand_vectors(8))
        assert result.status is LayerStatus.SKIP

    def test_shrinks_across_widths_with_a_factory(self):
        # A behavioural bug present at every width shrinks down the
        # width axis when the oracle gets a family factory.
        class _OffByOneHigh(_Wrapper):
            def add(self, a, b):
                exact = self._model.add(a, b)
                top = np.asarray(a) >> (self.width - 1) & 1
                result = exact + top
                return result if isinstance(exact, np.ndarray) else int(result)

        def build(width):
            return _OffByOneHigh(registry_adder("rca", width))

        result = check_behavioural(build(8), operand_vectors(8),
                                   build=build, min_width=1)
        assert result.status is LayerStatus.FAIL
        cex = result.counterexample
        assert cex.width == 1
        assert (cex.a, cex.b) == (1, 0)


class TestVerilogOracle:
    def test_round_trip_passes(self):
        result = check_verilog(registry_adder("ksa", 8))
        assert result.status is LayerStatus.PASS
        assert result.exhaustive  # 16 input bits <= 22

    def test_skips_without_netlist(self):
        # etai is the one registry family left without a netlist model
        # (ETAIIM gained one when it became a compiled spec).
        assert check_verilog(
            registry_adder("etai_half", 8)).status is LayerStatus.SKIP

    def test_etaiim_gained_a_netlist(self):
        assert check_verilog(
            registry_adder("etaiim_l4c2", 8)).status is LayerStatus.PASS


class TestStatsOracle:
    def test_exhaustive_match(self):
        result = check_stats(registry_adder("gear_r2p2", 8))
        assert result.status is LayerStatus.PASS
        assert result.exhaustive
        assert result.details["measured_error_rate"] == pytest.approx(
            result.details["analytic_error_rate"], abs=1e-12)

    def test_exact_adder_measures_zero(self):
        result = check_stats(registry_adder("rca", 8))
        assert result.status is LayerStatus.PASS
        assert result.details["measured_error_rate"] == 0.0

    def test_sampled_regime_uses_wilson_interval(self):
        result = check_stats(registry_adder("gear_r2p4", 12),
                             exhaustive_width_cap=10, samples=20_000)
        assert result.status is LayerStatus.PASS
        assert not result.exhaustive
        low, high = result.details["wilson_interval"]
        assert low <= result.details["analytic_error_rate"] <= high

    def test_inflated_analytic_probability_fails(self):
        class _LyingModel(_Wrapper):
            def error_probability(self):
                return 0.9999

        result = check_stats(_LyingModel(registry_adder("gear_r2p2", 8)))
        assert result.status is LayerStatus.FAIL
        assert "error rate" in result.message

    def test_understated_max_ed_bound_fails(self):
        class _TightLiar(_Wrapper):
            def max_error_distance(self):
                return 1  # true max ED at this config is 64

        result = check_stats(_TightLiar(registry_adder("gear_r2p2", 8)))
        assert result.status is LayerStatus.FAIL
        assert "exceeds the" in result.message


class TestVectorOracle:
    def test_scalar_and_vector_paths_agree(self):
        result = check_vector(registry_adder("etaii_l4", 8),
                              operand_vectors(8), max_scalar=512)
        assert result.status is LayerStatus.PASS
        assert result.vectors == 512
        assert result.details["vectorised_over"] == 1 << 16

    def test_divergent_scalar_path_fails_and_shrinks(self):
        class _ScalarSkew(_Wrapper):
            def add(self, a, b):
                result = self._model.add(a, b)
                if isinstance(result, np.ndarray):
                    return result
                return int(result) + (1 if a & 0b100 else 0)

        def build(width):
            return _ScalarSkew(registry_adder("rca", width))

        result = check_vector(build(8), operand_vectors(8),
                              build=build, min_width=1)
        assert result.status is LayerStatus.FAIL
        assert result.details["method"] == "add"
        cex = result.counterexample
        assert (cex.width, cex.a, cex.b) == (3, 4, 0)


class TestOneSimulationPerStimulus:
    """Each netlist oracle simulates the circuit once, however many buses."""

    @pytest.mark.parametrize("check", [check_behavioural, check_compiled])
    def test_err_bus_adder_records_one_run(self, check):
        model = registry_adder("cesa_rect", 8)
        assert {"S", "ERR"} <= set(model.build_netlist().output_buses)
        with obs.collecting() as col:
            result = check(model, operand_vectors(8))
        assert result.status is LayerStatus.PASS
        assert col.snapshot().counters["rtl.sim.runs"] == 1
