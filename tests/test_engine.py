"""Tests for the sharded evaluation engine (repro.engine).

Covers the engine's contract end to end: deterministic shard planning,
bit-identical results at any worker count and chunking, exact associative
merging, the on-disk shard cache (hits, misses, invalidation), the three
evaluation modes against their direct-computation references, and the
deprecated wrapper / default-engine plumbing.
"""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adders.rca import RippleCarryAdder
from repro.core.gear import GeArAdder, GeArConfig
from repro.engine import (
    DEFAULT_SHARD_SAMPLES,
    Engine,
    EvalRequest,
    METRICS_VERSION,
    PartialStats,
    ShardCache,
    evaluate,
    fingerprint_adder,
    get_default_engine,
    merge_partials,
    plan_exhaustive,
    plan_monte_carlo,
    use_engine,
)
from repro.metrics.error_metrics import TABLE1_MAA_THRESHOLDS, compute_error_stats
from repro.utils.distributions import GaussianOperands, UniformOperands


@pytest.fixture()
def adder():
    return GeArAdder(GeArConfig(16, 4, 4))


@pytest.fixture()
def small_adder():
    return GeArAdder(GeArConfig(8, 2, 2))


class TestPlanner:
    def test_monte_carlo_plan_covers_samples(self):
        shards = plan_monte_carlo(100_000, seed=1, shard_samples=2048)
        assert sum(s.count for s in shards) == 100_000
        assert [s.index for s in shards] == list(range(len(shards)))

    def test_plan_is_independent_of_jobs_and_chunk(self):
        # The canonical plan depends only on (samples, seed, granularity).
        a = plan_monte_carlo(50_000, seed=3, shard_samples=2048)
        b = plan_monte_carlo(50_000, seed=3, shard_samples=2048)
        assert a == b

    def test_shard_streams_match_seedsequence_spawn(self):
        shards = plan_monte_carlo(10_000, seed=42, shard_samples=2048)
        spawned = np.random.SeedSequence(42).spawn(len(shards))
        for shard, child in zip(shards, spawned):
            got = np.random.default_rng(shard.seed_sequence()).integers(0, 1 << 30, 8)
            want = np.random.default_rng(child).integers(0, 1 << 30, 8)
            np.testing.assert_array_equal(got, want)

    def test_exhaustive_plan_covers_grid(self):
        shards = plan_exhaustive(8)
        assert sum(s.count for s in shards) == 256  # rows of the 2^8 grid


class TestDeterminism:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_monte_carlo_invariant_to_jobs(self, adder, jobs):
        ref = Engine(jobs=1, shard_samples=2048).evaluate(
            EvalRequest(adder=adder, samples=20_000, seed=7)
        )
        got = Engine(jobs=jobs, shard_samples=2048).evaluate(
            EvalRequest(adder=adder, samples=20_000, seed=7)
        )
        assert got.stats == ref.stats

    @settings(max_examples=12, deadline=None)
    @given(chunk=st.integers(min_value=1, max_value=200_000))
    def test_monte_carlo_invariant_to_chunk(self, chunk):
        # Property: `chunk` is an execution-batching hint and never changes
        # the result, whatever value a caller picks.
        adder = GeArAdder(GeArConfig(16, 4, 4))
        engine = Engine(jobs=1, shard_samples=2048)
        ref = engine.evaluate(EvalRequest(adder=adder, samples=16_000, seed=5))
        got = engine.evaluate(
            EvalRequest(adder=adder, samples=16_000, seed=5, chunk=chunk)
        )
        assert got.stats == ref.stats

    def test_exhaustive_invariant_to_jobs_and_chunk(self, small_adder):
        ref = Engine(jobs=1).evaluate(
            EvalRequest(adder=small_adder, mode="exhaustive")
        )
        par = Engine(jobs=2).evaluate(
            EvalRequest(adder=small_adder, mode="exhaustive", chunk=3)
        )
        assert par.stats == ref.stats

    def test_seed_none_draws_fresh_entropy(self, adder):
        engine = Engine(jobs=1)
        a = engine.evaluate(EvalRequest(adder=adder, samples=4096, seed=None))
        b = engine.evaluate(EvalRequest(adder=adder, samples=4096, seed=None))
        # MRED sums ED/exact over the drawn operands, so two runs agree
        # only if they drew the same error rows.  The error count alone
        # collides about 2% of the time at EP ~ 0.06 and 4096 samples.
        assert a.stats.mred != b.stats.mred


class TestModesAgainstReferences:
    def test_monte_carlo_matches_direct_compute(self, adder):
        # One shard ⇒ the engine's stream is exactly default_rng(SeedSequence(9)).
        result = Engine(jobs=1, shard_samples=1 << 14).evaluate(
            EvalRequest(adder=adder, samples=10_000, seed=9)
        )
        rng = np.random.default_rng(
            np.random.SeedSequence(np.random.SeedSequence(9).entropy,
                                   spawn_key=(0,))
        )
        a, b = UniformOperands(16).sample(10_000, rng)
        assert result.stats == compute_error_stats(adder, a, b)

    def test_exhaustive_matches_direct_compute(self, small_adder):
        values = np.arange(256, dtype=np.int64)
        a = np.repeat(values, 256)
        b = np.tile(values, 256)
        ref = compute_error_stats(small_adder, a, b)
        got = Engine(jobs=1).evaluate(
            EvalRequest(adder=small_adder, mode="exhaustive")
        )
        assert got.stats == ref

    def test_fixed_mode_matches_direct_compute(self, adder):
        rng = np.random.default_rng(3)
        exact = rng.integers(0, 1 << 16, size=5_000, dtype=np.int64)
        approx = exact - rng.integers(0, 4, size=5_000, dtype=np.int64)
        ref = compute_error_stats(adder, maa_thresholds=TABLE1_MAA_THRESHOLDS,
                                  exact_reference=exact, approx_values=approx)
        got = Engine(jobs=1).evaluate(
            EvalRequest(adder=adder, mode="fixed",
                        maa_thresholds=TABLE1_MAA_THRESHOLDS,
                        approx_values=approx, exact_reference=exact)
        )
        assert got.stats == ref

    def test_distribution_is_honoured(self, adder):
        uniform = Engine(jobs=1).evaluate(
            EvalRequest(adder=adder, samples=20_000, seed=4)
        )
        gaussian = Engine(jobs=1).evaluate(
            EvalRequest(adder=adder, samples=20_000, seed=4,
                        distribution=GaussianOperands(16))
        )
        assert uniform.stats.error_rate != gaussian.stats.error_rate

    def test_exact_adder_reports_zero_errors(self):
        result = Engine(jobs=1).evaluate(
            EvalRequest(adder=RippleCarryAdder(12), samples=8_000, seed=1)
        )
        assert result.stats.error_rate == 0.0
        assert result.stats.med == 0.0


class TestMerge:
    def test_merge_is_associative_and_matches_whole(self, adder):
        rng = np.random.default_rng(8)
        a = rng.integers(0, 1 << 16, size=9_000, dtype=np.int64)
        b = rng.integers(0, 1 << 16, size=9_000, dtype=np.int64)
        approx = np.asarray(adder.add(a, b))
        exact = a + b
        whole = PartialStats.from_arrays(approx, exact, adder.out_width,
                                         TABLE1_MAA_THRESHOLDS)
        parts = [
            PartialStats.from_arrays(approx[lo:hi], exact[lo:hi],
                                     adder.out_width, TABLE1_MAA_THRESHOLDS)
            for lo, hi in [(0, 1_000), (1_000, 5_000), (5_000, 9_000)]
        ]
        left = (parts[0].merge(parts[1])).merge(parts[2])
        right = parts[0].merge(parts[1].merge(parts[2]))
        for merged in (left, right):
            assert merged.samples == whole.samples
            assert merged.err_count == whole.err_count
            assert merged.max_ed == whole.max_ed
            assert merged.sum_ed == pytest.approx(whole.sum_ed)
            assert merged.maa_hits == whole.maa_hits

    def test_round_trips_through_json(self, adder):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 1 << 16, size=500, dtype=np.int64)
        b = rng.integers(0, 1 << 16, size=500, dtype=np.int64)
        part = PartialStats.from_arrays(np.asarray(adder.add(a, b)), a + b,
                                        adder.out_width, TABLE1_MAA_THRESHOLDS)
        restored = PartialStats.from_dict(json.loads(json.dumps(part.to_dict())))
        assert restored == part

    def test_merge_requires_consistent_thresholds(self, adder):
        rng = np.random.default_rng(5)
        a = rng.integers(0, 1 << 16, size=100, dtype=np.int64)
        b = rng.integers(0, 1 << 16, size=100, dtype=np.int64)
        approx, exact = np.asarray(adder.add(a, b)), a + b
        one = PartialStats.from_arrays(approx, exact, adder.out_width,
                                       TABLE1_MAA_THRESHOLDS)
        other = PartialStats.from_arrays(approx, exact, adder.out_width, (0.5,))
        with pytest.raises(ValueError):
            one.merge(other)


class TestCache:
    def test_cold_then_warm(self, adder, tmp_path):
        engine = Engine(jobs=1, shard_samples=2048, cache=tmp_path)
        request = EvalRequest(adder=adder, samples=10_000, seed=6)
        cold = engine.evaluate(request)
        assert cold.shards_cached == 0
        assert cold.shards_executed == cold.shards_total

        warm = engine.evaluate(request)
        assert warm.shards_executed == 0
        assert warm.shards_cached == warm.shards_total
        assert warm.stats == cold.stats
        assert warm.cache_hit_rate == 1.0

    def test_warm_cache_survives_new_engine(self, adder, tmp_path):
        request = EvalRequest(adder=adder, samples=10_000, seed=6)
        first = Engine(jobs=1, shard_samples=2048, cache=tmp_path).evaluate(request)
        fresh = Engine(jobs=2, shard_samples=2048, cache=tmp_path)
        second = fresh.evaluate(request)
        assert fresh.shards_executed == 0
        assert second.stats == first.stats

    def test_different_seed_misses(self, adder, tmp_path):
        engine = Engine(jobs=1, shard_samples=2048, cache=tmp_path)
        engine.evaluate(EvalRequest(adder=adder, samples=10_000, seed=6))
        engine.reset_counters()
        engine.evaluate(EvalRequest(adder=adder, samples=10_000, seed=7))
        assert engine.shards_cached == 0

    def test_adder_fingerprint_invalidates(self, tmp_path):
        # Same name/width, different window layout ⇒ different fingerprint
        # ⇒ no stale hits.
        a1 = GeArAdder(GeArConfig(16, 4, 4))
        a2 = GeArAdder(GeArConfig(16, 2, 6))
        assert fingerprint_adder(a1) != fingerprint_adder(a2)
        engine = Engine(jobs=1, shard_samples=2048, cache=tmp_path)
        engine.evaluate(EvalRequest(adder=a1, samples=10_000, seed=6))
        engine.reset_counters()
        engine.evaluate(EvalRequest(adder=a2, samples=10_000, seed=6))
        assert engine.shards_cached == 0

    def test_distribution_fingerprint_invalidates(self, adder, tmp_path):
        engine = Engine(jobs=1, shard_samples=2048, cache=tmp_path)
        engine.evaluate(EvalRequest(adder=adder, samples=10_000, seed=6))
        engine.reset_counters()
        engine.evaluate(EvalRequest(adder=adder, samples=10_000, seed=6,
                                    distribution=GaussianOperands(16)))
        assert engine.shards_cached == 0

    def test_metrics_version_invalidates(self, adder, tmp_path, monkeypatch):
        engine = Engine(jobs=1, shard_samples=2048, cache=tmp_path)
        request = EvalRequest(adder=adder, samples=10_000, seed=6)
        engine.evaluate(request)
        monkeypatch.setattr("repro.engine.api.METRICS_VERSION",
                            METRICS_VERSION + 1)
        engine.reset_counters()
        engine.evaluate(request)
        assert engine.shards_cached == 0

    def test_corrupt_entry_is_a_miss(self, adder, tmp_path):
        engine = Engine(jobs=1, shard_samples=2048, cache=tmp_path)
        request = EvalRequest(adder=adder, samples=10_000, seed=6)
        ref = engine.evaluate(request)
        for entry in tmp_path.glob("??/*.json"):
            entry.write_text("{broken")
        engine.reset_counters()
        again = engine.evaluate(request)
        assert engine.shards_cached == 0
        assert again.stats == ref.stats

    def test_seed_none_is_never_cached(self, adder, tmp_path):
        engine = Engine(jobs=1, cache=tmp_path)
        engine.evaluate(EvalRequest(adder=adder, samples=4096, seed=None))
        assert len(ShardCache(tmp_path)) == 0


class TestDefaultEngine:
    def test_use_engine_installs_and_restores(self):
        original = get_default_engine()
        scoped = Engine(jobs=1, shard_samples=4096)
        with use_engine(scoped):
            assert get_default_engine() is scoped
        assert get_default_engine() is original

    def test_module_level_evaluate_uses_default(self, adder):
        scoped = Engine(jobs=1, shard_samples=2048)
        with use_engine(scoped):
            result = evaluate(EvalRequest(adder=adder, samples=4096, seed=2))
        assert scoped.shards_executed > 0
        assert result.stats.samples == 4096


class TestMetricsSurface:
    def test_simulate_wrappers_are_gone(self):
        # The deprecated metrics.simulate aliases were deleted; the engine
        # is the only sampling entry point.
        with pytest.raises(ImportError):
            import repro.metrics.simulate  # noqa: F401

    def test_exhaustive_stats_emits_no_warnings(self, small_adder):
        from repro.metrics.exhaustive import exhaustive_stats

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            stats = exhaustive_stats(small_adder)
        assert stats.samples == 1 << 16


class TestEvalRequestValidation:
    def test_unknown_mode_rejected(self, adder):
        with pytest.raises(ValueError, match="mode"):
            EvalRequest(adder=adder, mode="telepathy")

    def test_monte_carlo_requires_samples(self, adder):
        with pytest.raises(ValueError, match="sample"):
            EvalRequest(adder=adder, mode="monte_carlo", samples=None)

    def test_fixed_requires_both_arrays(self, adder):
        with pytest.raises(ValueError, match="fixed"):
            EvalRequest(adder=adder, mode="fixed",
                        approx_values=np.arange(4), exact_reference=None)

    def test_result_json_is_deterministic_fields_only(self, adder):
        result = Engine(jobs=2, shard_samples=2048).evaluate(
            EvalRequest(adder=adder, samples=8_000, seed=1)
        )
        payload = result.to_json()
        assert "elapsed_s" not in payload
        assert "jobs" not in payload
        assert "shard_timings" not in payload
        assert payload["samples"] == 8_000


class TestResultProtocol:
    def test_experiment_result_is_a_list(self):
        from repro.experiments import run_fig1

        result = run_fig1()
        assert isinstance(result, list)
        assert result[0].r == 2 and result[-1].r == 4
        rows = result.to_rows()
        assert len(rows) == 10  # two panels × five architectures
        assert len(rows[0]) == len(result.headers)
        doc = result.to_json()
        assert doc["experiment"] == "fig1"
        assert json.dumps(doc)  # JSON-safe

    def test_grouped_result_is_a_mapping(self):
        from repro.experiments import run_fig7

        panels = run_fig7()
        assert isinstance(panels, dict)
        assert set(panels) == {2, 3, 4, 8}
        doc = panels.to_json()
        assert doc["headers"] == ["r", "p", "accuracy_pct", "gear", "gda"]
        assert all(row["r"] in panels for row in doc["rows"])

    def test_registry_runs_with_engine(self, tmp_path):
        from repro.experiments import EXPERIMENTS

        engine = Engine(jobs=1, cache=tmp_path)
        result = EXPERIMENTS["table3"].run(samples=2_000, seed=1, engine=engine)
        assert engine.shards_executed > 0
        assert result.to_json()["rows"][0]["samples"] == 2_000

    def test_sweep_measured_columns_deterministic(self):
        from repro.analysis.sweep import sweep_gear_configs

        kwargs = dict(r_values=[4], with_hardware=False, samples=4_000, seed=3)
        first = sweep_gear_configs(10, **kwargs)
        second = sweep_gear_configs(10, engine=Engine(jobs=2), **kwargs)
        assert [r.measured_error_rate for r in first] == \
            [r.measured_error_rate for r in second]
