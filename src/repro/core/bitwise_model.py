"""Error model for non-uniform operands: per-bit generate/propagate rates.

§3.2 hard-codes ρ[Pr] = 1/2 and ρ[Gr] = 1/4 — correct for uniform
operands, off by an order of magnitude for skewed real-world data (see the
distribution ablation).  This module feeds position-dependent
probabilities to the exact error engine:

1. :func:`estimate_bit_statistics` measures per-bit-position
   (generate, propagate, kill) rates from operand samples,
2. :func:`error_probability_bitwise` runs the exact carry chain of
   :mod:`repro.engine.analytic` with those rates.

The prediction is exact when operand bits are independent across
positions; real data has cross-bit correlation, so residual gaps remain —
but the bitwise model closes most of the distance between the paper's
uniform model and the measured rate (quantified in tests and the
distribution bench).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.gear import GeArConfig
from repro.utils.distributions import OperandDistribution
from repro.utils.validation import check_pos_int


@dataclass(frozen=True)
class BitStatistics:
    """Per-bit-position signal rates of an operand source.

    Attributes:
        generate: P(a_i AND b_i) per position i.
        propagate: P(a_i XOR b_i) per position i.
    """

    generate: Tuple[float, ...]
    propagate: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.generate) != len(self.propagate):
            raise ValueError("generate/propagate vectors must align")
        for i, (g, p) in enumerate(zip(self.generate, self.propagate)):
            if not (0.0 <= g <= 1.0 and 0.0 <= p <= 1.0 and g + p <= 1.0 + 1e-9):
                raise ValueError(f"invalid rates at bit {i}: g={g}, p={p}")

    @property
    def width(self) -> int:
        return len(self.generate)

    @classmethod
    def uniform(cls, width: int) -> "BitStatistics":
        """The paper's assumption: g = 1/4, p = 1/2 at every position."""
        check_pos_int("width", width)
        return cls(generate=(0.25,) * width, propagate=(0.5,) * width)


def estimate_bit_statistics(a: np.ndarray, b: np.ndarray, width: int) -> BitStatistics:
    """Measure per-position generate/propagate rates from operand samples."""
    check_pos_int("width", width)
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape != b.shape or a.size == 0:
        raise ValueError("need equal-length non-empty operand arrays")
    gen: List[float] = []
    prop: List[float] = []
    for i in range(width):
        ai = (a >> i) & 1
        bi = (b >> i) & 1
        gen.append(float(np.mean(ai & bi)))
        prop.append(float(np.mean(ai ^ bi)))
    return BitStatistics(generate=tuple(gen), propagate=tuple(prop))


def statistics_from_distribution(
    distribution: OperandDistribution,
    samples: int = 100_000,
    seed: Optional[int] = 2015,
) -> BitStatistics:
    """Convenience: estimate bit statistics for a distribution object."""
    a, b = distribution.sample_pairs(samples, seed=seed)
    return estimate_bit_statistics(a, b, distribution.width)


def error_probability_bitwise(config: GeArConfig, stats: BitStatistics) -> float:
    """Exact ρ[Error] under independent-per-position bit statistics.

    The carry chain of :func:`repro.engine.analytic.window_ep_med` (state =
    carry into the next bit × trailing propagate-run length) with the
    per-bit transition probabilities taken from ``stats``.  With
    ``BitStatistics.uniform`` this reproduces the paper's model exactly.
    """
    from repro.engine.analytic import window_ep_med

    if stats.width != config.n:
        raise ValueError(
            f"statistics cover {stats.width} bits, config needs {config.n}"
        )
    rates = [(g, p, max(0.0, 1.0 - g - p))
             for g, p in zip(stats.generate, stats.propagate)]
    return window_ep_med(config.n, config.windows(), rates)[0]


def predict_error_rate(
    config: GeArConfig,
    distribution: OperandDistribution,
    samples: int = 100_000,
    seed: Optional[int] = 2015,
) -> float:
    """Bitwise-model prediction of the error rate on a distribution."""
    stats = statistics_from_distribution(distribution, samples=samples, seed=seed)
    return error_probability_bitwise(config, stats)
