"""Associative partial statistics and their exact merge.

:class:`PartialStats` is the shard-level currency of the engine: raw sums
and integer counts rather than means and percentages, so that two
partials merge *exactly* — ``merge`` is associative and has an identity
(:meth:`PartialStats.empty`), which is what makes the merged result
independent of shard grouping and worker count.  The engine always folds
partials in canonical shard order, so even the floating-point sums are
bit-identical at any job count.

``finalize`` converts the accumulated sums into the library-wide
:class:`~repro.metrics.error_metrics.ErrorStats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.metrics.error_metrics import (
    ErrorStats,
    accuracy_amplitude,
    accuracy_information,
)


@dataclass(frozen=True)
class PartialStats:
    """Raw error-metric sums over one shard of evaluated additions."""

    samples: int
    err_count: int
    sum_ed: float
    sum_red: float
    sum_amp: float
    sum_inf: float
    max_ed: int
    maa_hits: Tuple[Tuple[float, int], ...]

    @classmethod
    def empty(cls, thresholds: Sequence[float]) -> "PartialStats":
        """Merge identity for the given threshold set."""
        return cls(0, 0, 0.0, 0.0, 0.0, 0.0, 0,
                   tuple((float(t), 0) for t in thresholds))

    @classmethod
    def from_arrays(
        cls,
        approx: np.ndarray,
        exact: np.ndarray,
        out_width: int,
        thresholds: Sequence[float],
    ) -> "PartialStats":
        """Evaluate one shard's outputs into raw sums and counts."""
        approx = np.asarray(approx, dtype=np.int64)
        exact = np.asarray(exact, dtype=np.int64)
        if approx.shape != exact.shape:
            raise ValueError("approximate and exact outputs must align")
        if approx.size == 0:
            raise ValueError("empty shard")
        # One metric at a time, each shard-sized buffer dropped before the
        # next is made: the reducer's peak memory, not its arithmetic,
        # sets its cost.
        ed = np.subtract(approx, exact)
        np.abs(ed, out=ed)
        err_count = int(np.count_nonzero(ed))
        sum_ed = float(np.sum(ed, dtype=np.float64))
        max_ed = int(ed.max())
        # ED / max(exact, 1): the denominator is never zero.
        red = np.maximum(exact, 1, dtype=np.float64)
        np.divide(ed, red, out=red)
        sum_red = float(np.sum(red, dtype=np.float64))
        del ed, red
        acc_amp = accuracy_amplitude(approx, exact)
        # The 1e-12 slack matches acceptance_probability()'s float-dust rule.
        hits = tuple(
            (float(t), int(np.count_nonzero(acc_amp >= t - 1e-12)))
            for t in thresholds
        )
        sum_amp = float(np.sum(acc_amp, dtype=np.float64))
        del acc_amp
        acc_inf = accuracy_information(approx, exact, out_width)
        return cls(
            samples=int(approx.size),
            err_count=err_count,
            sum_ed=sum_ed,
            sum_red=sum_red,
            sum_amp=sum_amp,
            sum_inf=float(np.sum(acc_inf, dtype=np.float64)),
            max_ed=max_ed,
            maa_hits=hits,
        )

    def merge(self, other: "PartialStats") -> "PartialStats":
        """Associative combination of two shard partials."""
        if self.samples == 0:
            return other
        if other.samples == 0:
            return self
        mine = dict(self.maa_hits)
        theirs = dict(other.maa_hits)
        if set(mine) != set(theirs):
            raise ValueError("cannot merge partials with different thresholds")
        return PartialStats(
            samples=self.samples + other.samples,
            err_count=self.err_count + other.err_count,
            sum_ed=self.sum_ed + other.sum_ed,
            sum_red=self.sum_red + other.sum_red,
            sum_amp=self.sum_amp + other.sum_amp,
            sum_inf=self.sum_inf + other.sum_inf,
            max_ed=max(self.max_ed, other.max_ed),
            maa_hits=tuple((t, mine[t] + theirs[t]) for t, _ in self.maa_hits),
        )

    def finalize(self, d_max: int, max_ed_bound: Optional[int]) -> ErrorStats:
        """Convert accumulated sums into the public :class:`ErrorStats`."""
        n = self.samples
        if n == 0:
            raise ValueError("cannot finalize empty statistics")
        return ErrorStats(
            samples=n,
            error_rate=self.err_count / n,
            med=self.sum_ed / n,
            ned=(self.sum_ed / n) / d_max if d_max else 0.0,
            mred=self.sum_red / n,
            max_ed_observed=self.max_ed,
            max_ed_bound=max_ed_bound,
            acc_amp_avg=self.sum_amp / n,
            acc_inf_avg=self.sum_inf / n,
            maa_acceptance={t: hits / n * 100.0 for t, hits in self.maa_hits},
        )

    # -- serialization for the shard cache ----------------------------------

    def to_dict(self) -> Dict:
        return {
            "samples": self.samples,
            "err_count": self.err_count,
            "sum_ed": self.sum_ed,
            "sum_red": self.sum_red,
            "sum_amp": self.sum_amp,
            "sum_inf": self.sum_inf,
            "max_ed": self.max_ed,
            "maa_hits": [[t, hits] for t, hits in self.maa_hits],
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "PartialStats":
        return cls(
            samples=int(payload["samples"]),
            err_count=int(payload["err_count"]),
            sum_ed=float(payload["sum_ed"]),
            sum_red=float(payload["sum_red"]),
            sum_amp=float(payload["sum_amp"]),
            sum_inf=float(payload["sum_inf"]),
            max_ed=int(payload["max_ed"]),
            maa_hits=tuple((float(t), int(h)) for t, h in payload["maa_hits"]),
        )


def merge_partials(partials: Iterable[PartialStats],
                   thresholds: Sequence[float]) -> PartialStats:
    """Left fold of partials in the given (canonical) order."""
    acc = PartialStats.empty(thresholds)
    for part in partials:
        acc = acc.merge(part)
    return acc
