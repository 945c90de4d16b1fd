"""Tests for the support-free carry chain (``window_ep_med``).

The chain is the exact EP/MED path for plain speculative window layouts.
It tracks no error values, so it keeps working at widths and layouts
where the full PMF outgrows its support cap; these tests pin it against
the PMF wherever the PMF fits and check that the wide layouts the PMF
cannot serve still produce finite numbers end to end.
"""

import math

import pytest

from repro.analysis.sweep import sweep_gear_configs
from repro.cli import main
from repro.core.configspace import enumerate_configs
from repro.engine.analytic import AnalyticUnsupported, error_pmf, window_ep_med
from repro.spec.catalog import gear_spec

#: Row cap for the PMF cross-check: R=1 layouts with shallow prediction
#: need up to 2**20 rows and seconds each, everything else fits far below.
PMF_CHECK_SUPPORT = 1 << 16


def test_chain_matches_pmf_above_exhaustive_width():
    checked = 0
    for cfg in enumerate_configs(28, allow_partial=True):
        windows = cfg.windows()
        try:
            pmf = error_pmf(28, windows, max_support=PMF_CHECK_SUPPORT)
        except AnalyticUnsupported:
            continue
        ep, med = window_ep_med(28, windows)
        assert ep == pmf.error_rate, cfg
        assert med == pytest.approx(pmf.med, rel=1e-12, abs=0.0), cfg
        checked += 1
    assert checked >= 300


def test_rates_length_is_validated():
    with pytest.raises(ValueError, match="rates has 3 entries"):
        window_ep_med(8, gear_spec(8, 2, 2).to_windows(),
                      [(0.25, 0.5, 0.25)] * 3)


def test_wide_r1_sweep_has_finite_med():
    rows = sweep_gear_configs(28, r_values=[1], with_hardware=False)
    assert rows
    for row in rows:
        assert math.isfinite(row.med) and math.isfinite(row.ned), row.name
        assert 0.0 <= row.ned <= 1.0


def test_info_on_a_wide_window(capsys):
    assert main(["info", "28", "1", "26"]) == 0
    assert "mean error distance (analytic) : 0.5000" in capsys.readouterr().out
