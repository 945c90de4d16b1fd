"""Tests for the pluggable backend layer (repro.engine.backends).

Covers the registry contract, explicit and ``auto`` backend resolution
(including the fallback when a layout's error support outgrows the
analytic cap), the analytic backend's exactness through the public
``evaluate`` path, cache-key disjointness between backends, determinism
across worker counts, and the removed legacy request spellings (which
now raise a pointed TypeError).
"""

import dataclasses

import pytest

from repro import obs
from repro.core.gear import GeArAdder, GeArConfig
from repro.engine import (
    BACKENDS,
    AnalyticUnsupported,
    Engine,
    EvalRequest,
    evaluate,
    register_backend,
    resolve_backend,
)
from repro.metrics.exhaustive import exhaustive_stats
from repro.serve import protocol
from repro.spec.catalog import gear_spec
from repro.utils.distributions import GaussianOperands, SparseOperands


@pytest.fixture()
def adder():
    return GeArAdder(GeArConfig(8, 2, 2))


# ---------------------------------------------------------------------------
# registry and resolution
# ---------------------------------------------------------------------------

def test_registry_contains_both_builtin_backends():
    assert set(BACKENDS) >= {"sampling", "analytic"}
    for backend in BACKENDS.values():
        assert callable(backend.supports)
        assert callable(backend.evaluate)


def test_register_backend_rejects_auto_name():
    class Fake:
        name = "auto"

        def supports(self, request):
            return True

        def evaluate(self, request, engine):
            raise NotImplementedError

    with pytest.raises(ValueError):
        register_backend(Fake())


def test_unknown_backend_name_rejected_at_request_build(adder):
    with pytest.raises(ValueError, match="unknown backend"):
        EvalRequest.exhaustive(adder, backend="quantum")


def test_auto_resolves_to_analytic_for_block_based(adder):
    request = EvalRequest.exhaustive(adder, backend="auto")
    assert resolve_backend(request).name == "analytic"


def test_auto_falls_back_to_sampling(adder):
    request = EvalRequest.monte_carlo(
        adder, 100, distribution=GaussianOperands(8), backend="auto")
    assert resolve_backend(request).name == "sampling"


def test_explicit_analytic_unsupported_raises(adder):
    request = EvalRequest.monte_carlo(
        adder, 100, distribution=GaussianOperands(8), backend="analytic")
    with pytest.raises(AnalyticUnsupported):
        evaluate(request)


# ---------------------------------------------------------------------------
# error-support overflow: auto falls back, an explicit request fails early
# ---------------------------------------------------------------------------

@pytest.fixture()
def overflowing():
    """GeAr(24,1,2): its error support outgrows MAX_SUPPORT."""
    return gear_spec(24, 1, 2).to_model()


def test_auto_falls_back_to_sampling_when_support_overflows(overflowing):
    request = EvalRequest.monte_carlo(overflowing, 1024, seed=5,
                                      backend="auto")
    assert resolve_backend(request).name == "sampling"
    result = evaluate(request)
    assert result.stats.samples == 1024
    sampled = evaluate(dataclasses.replace(request, backend="sampling"))
    assert result.to_json() == sampled.to_json()


def test_explicit_analytic_overflow_raises_at_resolve_time(overflowing):
    request = EvalRequest.exhaustive(overflowing, backend="analytic")
    with pytest.raises(AnalyticUnsupported, match="error support exceeds"):
        resolve_backend(request)
    with pytest.raises(AnalyticUnsupported, match="error support exceeds"):
        evaluate(request)


# ---------------------------------------------------------------------------
# int64 width limit: simulating backends refuse, they never crash in NumPy
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", ["sampling", "compiled", "auto"])
def test_width_past_int64_limit_raises_typed_error(backend):
    from repro.engine.api import MAX_SIMULATED_WIDTH
    from repro.verify.runner import MAX_VERIFY_WIDTH

    assert MAX_VERIFY_WIDTH == MAX_SIMULATED_WIDTH == 62
    model = gear_spec(64, 2, 2).to_model()
    request = EvalRequest.monte_carlo(model, 100, seed=1, backend=backend)
    with pytest.raises(AnalyticUnsupported,
                       match="int64 limit of 62 bits.*analytic backend"):
        resolve_backend(request)
    with pytest.raises(AnalyticUnsupported, match="int64 limit"):
        evaluate(request)


@pytest.mark.parametrize("backend", ["sampling", "compiled", "auto"])
def test_width_at_int64_limit_still_evaluates(backend):
    model = gear_spec(62, 2, 2).to_model()
    result = evaluate(EvalRequest.monte_carlo(model, 256, seed=1,
                                              backend=backend))
    assert result.stats.samples == 256
    assert 0 < result.stats.error_rate <= 1


def test_auto_prefers_analytic_past_the_width_limit():
    model = gear_spec(64, 16, 16).to_model()
    request = EvalRequest.monte_carlo(model, 100, seed=1, backend="auto")
    assert resolve_backend(request).name == "analytic"


@pytest.fixture()
def symbolic_passes(monkeypatch):
    """Count the analytic planner's symbolic passes."""
    from repro.engine import analytic

    calls = []
    original = analytic._symbolic_pass

    def spy(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(analytic, "_symbolic_pass", spy)
    return calls


def test_small_layout_is_not_planned_at_dispatch(adder, symbolic_passes):
    """2**ops <= MAX_SUPPORT proves the fit without running the pass."""
    request = EvalRequest.exhaustive(adder, backend="auto")
    assert resolve_backend(request).name == "analytic"
    assert symbolic_passes == []
    evaluate(request)
    assert symbolic_passes == [8]


def test_pre_bound_at_the_cap_is_not_planned(symbolic_passes):
    """GeAr(23,1,2) has 20 emission ops: 2**20 == MAX_SUPPORT fits."""
    adder = gear_spec(23, 1, 2).to_model()
    request = EvalRequest.exhaustive(adder, backend="auto")
    assert resolve_backend(request).name == "analytic"
    assert symbolic_passes == []


def test_overflow_verdict_is_memoised_across_profiles(overflowing,
                                                      symbolic_passes):
    """GeAr(24,1,2) has 21 emission ops: planned once, at dispatch."""
    uniform = EvalRequest.monte_carlo(overflowing, 64, seed=1,
                                      backend="auto")
    sparse = dataclasses.replace(uniform,
                                 distribution=SparseOperands(24, 0.25))
    with obs.collecting() as col:
        assert resolve_backend(uniform).name == "sampling"
        assert resolve_backend(sparse).name == "sampling"
    assert symbolic_passes == [24]
    assert col.snapshot().counters == {"engine.analytic.plan.overflow": 1}


def test_second_profile_reuses_the_symbolic_pass(symbolic_passes):
    """The rows never depend on the profile: one pass serves them all."""
    adder = gear_spec(20, 1, 2).to_model()
    request = EvalRequest.exhaustive(adder, backend="auto")
    with obs.collecting() as col:
        evaluate(request)
        evaluate(EvalRequest.monte_carlo(
            adder, 64, seed=1, distribution=SparseOperands(20, 0.25),
            backend="auto"))
        evaluate(request)
    assert symbolic_passes == [20]
    counters = col.snapshot().counters
    assert counters["engine.analytic.plan.miss"] == 2
    assert counters["engine.analytic.plan.hit"] == 1
    assert "engine.analytic.plan.overflow" not in counters


def test_overflowing_auto_request_coalesces_as_sampling():
    wire = {"adder": {"gear": [24, 1, 2]}, "mode": "monte_carlo",
            "samples": 1024, "seed": 3}
    auto = protocol.build_request(dict(wire, backend="auto"))
    sampled = protocol.build_request(dict(wire, backend="sampling"))
    key = protocol.eval_coalesce_key(auto)
    assert key is not None
    assert key == protocol.eval_coalesce_key(sampled)


# ---------------------------------------------------------------------------
# analytic answers through the public evaluate() path
# ---------------------------------------------------------------------------

def test_analytic_exhaustive_matches_simulation(adder):
    result = evaluate(EvalRequest.exhaustive(adder, backend="analytic"))
    reference = exhaustive_stats(adder)
    assert result.stats.samples == 0
    assert result.stats.error_rate == pytest.approx(reference.error_rate,
                                                    abs=1e-12)
    assert result.stats.med == pytest.approx(reference.med, abs=1e-9)
    assert result.stats.max_ed_observed == reference.max_ed_observed


def test_analytic_monte_carlo_uses_distribution_profile(adder):
    sparse = evaluate(EvalRequest.monte_carlo(
        adder, 100, distribution=SparseOperands(8, one_density=0.1),
        backend="analytic"))
    uniform = evaluate(EvalRequest.exhaustive(adder, backend="analytic"))
    # sparse operands rarely carry: far fewer speculative misses
    assert sparse.stats.error_rate < uniform.stats.error_rate


def test_analytic_identical_across_jobs(adder):
    request = EvalRequest.exhaustive(adder, backend="analytic")
    one = Engine(jobs=1).evaluate(request)
    two = Engine(jobs=2).evaluate(request)
    assert one.to_json() == two.to_json()


# ---------------------------------------------------------------------------
# cache-key disjointness and analytic caching
# ---------------------------------------------------------------------------

def test_warm_sampling_cache_not_served_to_analytic(adder, tmp_path):
    engine = Engine(jobs=1, cache=tmp_path)
    sampled = engine.evaluate(EvalRequest.exhaustive(adder))
    assert sampled.shards_executed > 0

    analytic = engine.evaluate(EvalRequest.exhaustive(adder,
                                                      backend="analytic"))
    # nothing from the sampled run may answer the analytic request
    assert analytic.shards_cached == 0
    assert analytic.shards_executed == 1
    assert analytic.stats.samples == 0

    warm = engine.evaluate(EvalRequest.exhaustive(adder, backend="analytic"))
    assert warm.shards_cached == 1
    assert warm.shards_executed == 0
    assert warm.stats == analytic.stats

    # and the analytic entry did not poison the sampling key either
    resampled = engine.evaluate(EvalRequest.exhaustive(adder))
    assert resampled.stats == sampled.stats
    assert resampled.stats.samples > 0


# ---------------------------------------------------------------------------
# constructor classmethods and removed legacy spellings
# ---------------------------------------------------------------------------

def test_classmethods_build_equivalent_requests(adder):
    assert EvalRequest.monte_carlo(adder, 500, seed=7) == EvalRequest(
        adder=adder, mode="monte_carlo", samples=500, seed=7)
    assert EvalRequest.exhaustive(adder) == EvalRequest(
        adder=adder, mode="exhaustive")


def test_engine_monte_carlo_removed(adder):
    engine = Engine(jobs=1)
    with pytest.raises(TypeError, match="EvalRequest.monte_carlo"):
        engine.monte_carlo(adder, samples=1000, seed=3)


def test_engine_exhaustive_removed(adder):
    engine = Engine(jobs=1)
    with pytest.raises(TypeError, match="EvalRequest.exhaustive"):
        engine.exhaustive(adder)
