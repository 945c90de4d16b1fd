"""Exact analytic error statistics for block-based approximate adders.

Every accuracy number in the repo can be obtained by simulation, but for
pure *block-based* adders — those whose approximate sum is fully described
by a window layout plus an optional OR-truncated low part, i.e. every
:class:`~repro.spec.ir.AdderSpec` and every non-overridden
:class:`~repro.adders.base.WindowedSpeculativeAdder` — the full signed
error PMF is computable exactly in closed form (Wu, Li, Ge & Qian,
arXiv 1703.03522).  The key observation is that the error of such an
adder depends on the operands only through the per-bit generate /
propagate / kill sequence, so a dynamic program over

    ``(carry into next bit, trailing propagate-run length)``

states, with the accumulated signed error carried alongside, visits each
bit once and yields the exact distribution:

* scanning bit ``i`` multiplies in the per-bit transition probabilities
  ``rho_g`` (generate), ``rho_p`` (propagate) and ``rho_k`` (kill); for
  a PMF they are ``alpha_i^2``, ``2 alpha_i (1 - alpha_i)`` and
  ``(1 - alpha_i)^2``, where ``alpha_i`` is the probability that bit
  ``i`` of an operand is one (both operands i.i.d. per bit);
* a *miss* of window ``w`` — the window computing its field with local
  carry-in 0 while the true carry into ``result_low`` is 1 — fires at
  the end of bit ``result_low - 1`` exactly when ``carry == 1`` and the
  propagate run covers the window's prediction bits, and subtracts
  ``2**result_low``;
* a *wrap* of a non-last window — the missing carry would have rippled
  out of the window's top — fires at the end of bit ``result_high`` when
  ``carry == 1`` and the whole window propagated, and adds
  ``2**(result_high + 1)``;
* an OR-truncated low part emits ``-2**i`` on the generate branch of
  each truncated bit and a ``+2**truncation`` correction whenever the
  true carry into the first window is one; the first window above a
  truncation misses with threshold 1 and wraps with threshold
  ``length + 1`` because its local carry-in is the generate of bit
  ``truncation - 1``;
* a ``hoeraa`` static low part is the OR rule with the top static bit
  computed as a half-adder sum: on that bit's generate branch the
  output loses ``2**(t-1)`` *more* than the OR rule, so its generate
  delta doubles to ``-2**t`` (which the ``+2**t`` carry correction then
  cancels exactly — HOERAA's static error is confined to the bits below
  the boundary);
* a *rectified* window (IR v2 ``rectify`` stage) adds its §3.3 flag back
  at ``result_low``, repairing exactly the misses its flag observes: the
  flag is ``AND(prediction propagates) & previous local carry-out``, so
  the window's residual miss condition tightens from ``run >=
  prediction_bits`` to ``run >= result_low - previous.low`` — the full
  span whose propagation defeats the previous window's local carry-out
  too.  That threshold equals the previous window's wrap threshold, so
  for interior windows the wrap/miss pair fuses into a no-op (the wrap
  is always re-missed in full) and for the first speculative window the
  event is unreachable: a fully rectified ``error_detect`` spec is
  provably exact;
* the last window emits nothing at the top: its wrap (``+2**N``) and the
  flipped carry-out bit (``-2**N``) occur under the identical condition
  and cancel exactly;
* windows anchored at bit 0 cannot miss or wrap (their local carry-in
  *is* the true carry), so they are exempt from the schedule.

EP, MED, max-ED, NED and the MAA acceptance at threshold 1.0 are then
plain reductions of the PMF; MRED and the amplitude/information accuracy
averages depend on the joint (error, exact sum) distribution and remain
``None`` in analytic results.

When only EP and MED of a plain speculative layout are wanted,
:func:`window_ep_med` walks the same schedule and segment matrices as a
support-free carry chain: it never tracks error values, so it never
overflows (R=1 layouts outgrow ``MAX_SUPPORT`` from N=24).

The DP is vectorised in two passes.  A *symbolic* pass walks the event
bits only, on arrays, tracking for every error value an upper bound on
its trailing propagate run; that discovers the full error support and
plans every emission's index moves.  It depends on the layout alone, so
one pass serves every bit profile; binding a profile compiles it into a
short op list (segment matmuls + index-planned emissions).  Runs of
event-free bits never need per-bit scanning: the ``(carry, run)``
distribution after ``g`` homogeneous bits has a closed form (the run is
geometric in the propagate probability, the carry chain is a two-state
Markov chain), so each gap collapses into a single precomputed segment
matrix.  The *numeric* pass then replays the op list over one
preallocated ``(support, states)`` array.  See ``docs/analytic.md`` for
the full formulation and the supported-spec rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.metrics.error_metrics import TABLE1_MAA_THRESHOLDS, ErrorStats

__all__ = [
    "ANALYTIC_VERSION",
    "MAX_SUPPORT",
    "AnalyticUnsupported",
    "ErrorPMF",
    "adder_error_pmf",
    "analytic_layout",
    "analytic_overflow",
    "bit_probability_profile",
    "error_pmf",
    "window_ep_med",
]

#: Version of the analytic formulation; folded into cache keys so stored
#: PMFs are invalidated whenever the DP changes.  2: static-approximation
#: kinds (HOERAA) and rectified windows joined the formulation.
ANALYTIC_VERSION = 2

#: Hard cap on the tracked error-support size.  Real block-based layouts
#: stay far below this (support is bounded by the realisable subset sums
#: of per-window deltas); the cap turns a pathological layout into a
#: clean :class:`AnalyticUnsupported` instead of an OOM.
MAX_SUPPORT = 1 << 20


class AnalyticUnsupported(ValueError):
    """Raised when a request cannot be answered by the analytic backend."""


@dataclass(frozen=True)
class ErrorPMF:
    """Exact distribution of the signed error ``approx - exact``.

    ``support`` is sorted ascending and every probability is strictly
    positive; an exact adder has the single entry ``{0: 1.0}``.
    """

    width: int
    support: Tuple[int, ...]
    probabilities: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.support) != len(self.probabilities):
            raise ValueError("support and probabilities must align")
        if not self.support:
            raise ValueError("an error PMF cannot be empty")

    @property
    def total_mass(self) -> float:
        return math.fsum(self.probabilities)

    @property
    def error_rate(self) -> float:
        """Exact error probability ``P(error != 0)``."""
        return math.fsum(p for e, p in zip(self.support, self.probabilities)
                         if e != 0)

    @property
    def med(self) -> float:
        """Exact mean error distance ``E[|error|]``."""
        return math.fsum(abs(e) * p
                         for e, p in zip(self.support, self.probabilities))

    @property
    def max_abs(self) -> int:
        """Largest error magnitude with non-zero probability."""
        return max(abs(e) for e in self.support)

    def probability(self, error: int) -> float:
        for e, p in zip(self.support, self.probabilities):
            if e == error:
                return p
        return 0.0

    def to_dict(self) -> dict:
        return {
            "width": self.width,
            "support": list(self.support),
            "probabilities": list(self.probabilities),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ErrorPMF":
        return cls(
            width=int(payload["width"]),
            support=tuple(int(e) for e in payload["support"]),
            probabilities=tuple(float(p) for p in payload["probabilities"]),
        )

    def to_error_stats(
        self,
        maa_thresholds: Sequence[float] = TABLE1_MAA_THRESHOLDS,
        max_ed_bound: Optional[int] = None,
    ) -> ErrorStats:
        """Reduce the PMF to an :class:`ErrorStats` record.

        ``samples`` is 0 to mark the result as analytic.  MRED and the
        accuracy averages need the joint (error, exact-sum) distribution
        and stay ``None``; the MAA curve is exact only at threshold 1.0
        (amplitude accuracy >= 1 iff the error is zero), so other
        thresholds are omitted from the acceptance map.
        """
        d_max = max_ed_bound if max_ed_bound else (1 << self.width)
        # One pass over the support feeds all three reductions.
        err_terms = []
        med_terms = []
        max_abs = 0
        for e, p in zip(self.support, self.probabilities):
            a = abs(e)
            med_terms.append(a * p)
            if e:
                err_terms.append(p)
            if a > max_abs:
                max_abs = a
        error_rate = math.fsum(err_terms)
        med = math.fsum(med_terms)
        acceptance = {
            float(threshold): (1.0 - error_rate) * 100.0
            for threshold in maa_thresholds
            if threshold >= 1.0 - 1e-12
        }
        return ErrorStats(
            samples=0,
            error_rate=error_rate,
            med=med,
            ned=med / d_max,
            mred=None,
            max_ed_observed=max_abs,
            max_ed_bound=max_ed_bound,
            acc_amp_avg=None,
            acc_inf_avg=None,
            maa_acceptance=acceptance,
        )


def analytic_layout(
    adder,
) -> Optional[Tuple[int, Tuple[object, ...], int, Optional[str],
                    Tuple[int, ...]]]:
    """Extract ``(width, windows, truncation, static_kind, rectified)``.

    ``static_kind`` names the fixed low part's gate rule (``or`` /
    ``hoeraa``; ``None`` when ``truncation`` is 0) and ``rectified`` the
    indices of the windows whose flags are added back by a rectify stage
    (empty for none).  Returns ``None`` when the adder's arithmetic is
    not fully described by a window layout — i.e. when it overrides
    ``_add_impl`` without exposing an :class:`~repro.spec.ir.AdderSpec`
    (ETAI's segment OR, or any custom model).

    Adders are immutable, so the answer is memoised on the instance —
    backend dispatch asks once to route the request and once to solve it.
    """
    cached = getattr(adder, "_analytic_layout", None)
    if cached is not None:
        return cached[0]

    from repro.adders.base import WindowedSpeculativeAdder
    from repro.spec.ir import AdderSpec
    from repro.spec.model import RectifiedSpecAdder

    layout = None
    if getattr(adder, "is_exact", False):
        layout = (adder.width, (), 0, None, ())
    else:
        spec = getattr(adder, "spec", None)
        if isinstance(spec, AdderSpec):
            if spec.is_exact:
                layout = (spec.width, (), 0, None, ())
            else:
                static = spec.static_window
                if static is not None:
                    layout = (spec.width, spec.to_windows()[1:],
                              static.length, static.approx, ())
                else:
                    layout = (spec.width, spec.to_windows(),
                              spec.truncation,
                              "or" if spec.truncation else None,
                              spec.rectified_windows())
                # A model that overrides _add_impl beyond what the spec
                # declares (subclasses of the spec models) is not covered.
                if not isinstance(adder, RectifiedSpecAdder) \
                        and spec.rectify is not None:
                    layout = None
        elif (isinstance(adder, WindowedSpeculativeAdder)
                and type(adder)._add_impl is WindowedSpeculativeAdder._add_impl):
            layout = (adder.width, tuple(adder.windows), 0, None, ())
    try:
        adder._analytic_layout = (layout,)
    except (AttributeError, TypeError):  # slotted/frozen foreign models
        pass
    return layout


def bit_probability_profile(distribution, width: int,
                            mode: str) -> Optional[Tuple[float, ...]]:
    """Per-bit one-probabilities for an evaluation request.

    Exhaustive evaluation enumerates the full operand space uniformly,
    so the profile is uniform regardless of the request's distribution;
    Monte-Carlo requests use the distribution's per-bit independent form
    when it has one (``None`` otherwise — the analytic backend cannot
    serve such a request).
    """
    if mode == "exhaustive" or distribution is None:
        return (0.5,) * width
    return distribution.bit_probabilities()


def _emission_schedule(
    windows: Sequence[object], truncation: int,
    rectified: Tuple[int, ...] = (),
) -> Dict[int, Tuple[Tuple[int, int], ...]]:
    """Map ``bit -> ((run_threshold, error_delta), ...)``.

    Each entry fires at the end of the named bit for states with
    ``carry == 1`` and ``run >= run_threshold``, adding ``error_delta``
    to the accumulated error.  A threshold of 0 conditions on the carry
    alone.
    """
    schedule: Dict[int, List[Tuple[int, int]]] = {}
    rect = set(rectified)

    def put(bit: int, threshold: int, delta: int) -> None:
        schedule.setdefault(bit, []).append((threshold, delta))

    if truncation > 0:
        # The OR'd low part never produces the true carry into the first
        # window; whenever that carry is one the approximate sum is short
        # one unit at bit `truncation` before window effects.
        put(truncation - 1, 0, 1 << truncation)
    last = len(windows) - 1
    for idx, window in enumerate(windows):
        if window.low == 0:
            # The window's local carry-in is the true carry: exact.
            continue
        if idx == 0:
            if truncation == 0:
                continue
            # Local carry-in is generate(truncation - 1): a miss needs the
            # boundary bit to propagate under a true carry, and a wrap
            # additionally needs the whole window to propagate.
            miss_threshold = 1
            wrap_threshold = window.length + 1
        else:
            if idx in rect:
                # Rectification repairs exactly the misses the window's
                # flag sees, so only misses *invisible* to the flag
                # survive: those where the previous window's local
                # carry-out is 0 too, i.e. the propagate run reaches all
                # the way down past the previous window's low bit.
                miss_threshold = window.result_low - windows[idx - 1].low
            else:
                miss_threshold = window.prediction_bits
            wrap_threshold = window.length
        put(window.result_low - 1, miss_threshold, -(1 << window.result_low))
        if idx != last:
            put(window.result_high, wrap_threshold,
                1 << (window.result_high + 1))
    return {bit: tuple(entries) for bit, entries in schedule.items()}


def _emission_ops(entries: Sequence[Tuple[int, int]],
                  cap: int) -> Iterator[Tuple[int, int, int]]:
    """One bit's schedule entries as emission ops ``(lo, hi, delta)``.

    An op moves the carry-1 states with run in ``[lo, hi)`` to
    ``error + delta``; ``hi == cap + 1`` moves every run from ``lo`` up.
    """
    j = 0
    while j < len(entries):
        threshold, delta = entries[j]
        j += 1
        # Peephole: a wrap (t1, +d) chased at the same bit by the next
        # window's miss (t2, -d) with t2 <= t1 composes to a pure range
        # move — every row's columns [t2, t1-1] shift to error - d and
        # columns >= t1 stay put (the wrapped mass is re-missed in full).
        # Fusing skips the transient wrap rows entirely.
        if j < len(entries):
            t2, d2 = entries[j]
            if d2 == -delta and t2 <= threshold:
                j += 1
                if t2 < threshold:  # t2 == t1: the pair is a no-op
                    yield t2, threshold, d2
                continue
        yield threshold, cap + 1, delta


def _alpha_rates(alpha: float) -> Tuple[float, float, float]:
    """Per-bit ``(rho_g, rho_p, rho_k)`` of two i.i.d. operand bits that
    are one with probability ``alpha``."""
    return (alpha * alpha, 2.0 * alpha * (1.0 - alpha), (1.0 - alpha) ** 2)


def _segment_matrix(n_states: int, cap: int,
                    rates: Tuple[float, float, float], g: int,
                    with_generate: bool = True) -> np.ndarray:
    """Closed-form ``(carry, run)`` transition for ``g`` homogeneous bits.

    ``rates`` is each bit's ``(rho_g, rho_p, rho_k)``.  Equal to the
    one-bit transition raised to the ``g``-th power, but built directly:
    a trailing run of length ``r < g`` ends at the last non-propagate
    bit, whose kind alone fixes the carry, so those states get the
    start-independent geometric weights ``rho_p**r * rho_g`` /
    ``rho_p**r * rho_k``; the only start-dependent mass is the
    all-propagate branch (probability ``rho_p**g``), which keeps the
    carry and advances the run by ``g`` (saturating at ``cap``).

    ``with_generate=False`` is the single-bit transition without the
    generate branch — truncated bits move error mass on generate, so
    that branch cannot be error-preserving matrix algebra.
    """
    rho_g, rho_p, rho_k = rates
    M = np.zeros((n_states, n_states), dtype=np.float64)
    if with_generate:
        fresh = min(g, cap)
        lam = rho_p ** np.arange(fresh)
        M[:, :fresh] = rho_k * lam
        M[:, cap + 1:cap + 1 + fresh] = rho_g * lam
        if g > cap:
            # In-gap runs that already saturated: the run ends at a
            # non-propagate bit cap..g-1 places back.
            if rho_p == 1.0:  # every bit propagates
                tail = float(g - cap)
            else:
                tail = (rho_p ** cap - rho_p ** g) / (1.0 - rho_p)
            M[:, cap] += rho_k * tail
            M[:, 2 * cap + 1] += rho_g * tail
    else:
        if g != 1:
            raise ValueError("generate-free segments are single bits")
        M[:, 0] = rho_k
    src = np.arange(n_states)
    run = src % (cap + 1)
    M[src, src - run + np.minimum(run + g, cap)] += rho_p ** g
    return M


@lru_cache(maxsize=512)
def _cached_segment_matrix(n_states: int, cap: int,
                           rates: Tuple[float, float, float], g: int,
                           with_generate: bool) -> np.ndarray:
    """Process-wide segment-matrix cache.

    The matrix depends only on ``(cap, rates, g)``, not on the layout, so
    sweeps over many same-width configurations share entries — helped
    along by :func:`_state_space` rounding ``cap`` up to a power of two.
    Callers must treat the returned array as read-only.
    """
    return _segment_matrix(n_states, cap, rates, g, with_generate)


def _segments(n_states: int, cap: int,
              rates: Sequence[Tuple[float, float, float]],
              start: int, stop: int) -> Iterator[np.ndarray]:
    """Segment matrices for the event-free bits ``[start, stop)``, one
    per run of equal per-bit rates."""
    i = start
    while i < stop:
        j = i + 1
        while j < stop and rates[j] == rates[i]:
            j += 1
        yield _cached_segment_matrix(n_states, cap, rates[i], j - i, True)
        i = j


def _state_space(schedule: Dict[int, Tuple[Tuple[int, int], ...]]
                 ) -> Tuple[int, int]:
    """``(cap, n_states)`` of a schedule's ``(carry, run)`` state space.

    The run saturates at the largest threshold, rounded up to a power of
    two: a few spare states, but the segment matrices of a sweep's many
    configurations collide in :func:`_cached_segment_matrix`.
    """
    cap = max((threshold for entries in schedule.values()
               for threshold, _ in entries), default=0)
    cap = max(cap, 1)
    if cap & (cap - 1):
        cap = 1 << cap.bit_length()
    return cap, 2 * (cap + 1)  # state index = carry * (cap + 1) + run


def window_ep_med(
    width: int,
    windows: Sequence[object],
    rates: Optional[Sequence[Tuple[float, float, float]]] = None,
) -> Tuple[float, float]:
    """Exact ``(EP, MED)`` of a plain speculative window layout.

    A support-free carry chain over the same ``(carry, run)`` states and
    emission schedule as :func:`error_pmf`, so it never overflows: the
    error value is not tracked, only the probability that each schedule
    entry fires.  Plain-window errors are one-sided (every wrap is
    re-missed by the next window, and the lowest miss never is), hence

    * EP is the mass absorbed at the miss entries (negative deltas) —
      the first miss decides that the sum is wrong;
    * MED ``= -E[error] = -sum(delta * P(entry fires))``, read off a
      second, never-absorbed copy of the chain.

    Args:
        width: operand width N.
        windows: window layout (no truncation, no rectify stage — the
            PMF covers those).
        rates: per-bit ``(rho_g, rho_p, rho_k)`` generate / propagate /
            kill probabilities; ``None`` means uniform operands.
    """
    schedule = _emission_schedule(windows, 0)
    if not schedule:
        return 0.0, 0.0
    if rates is None:
        rates = (_alpha_rates(0.5),) * width
    elif len(rates) != width:
        raise ValueError(f"rates has {len(rates)} entries for width {width}")
    cap, n_states = _state_space(schedule)
    # Row 0 absorbs at every miss (EP); row 1 never absorbs (MED).
    chain = np.zeros((2, n_states), dtype=np.float64)
    chain[:, 0] = 1.0  # carry 0, run 0
    ep = med = 0.0
    pos = 0
    for bit in sorted(schedule):
        for M in _segments(n_states, cap, rates, pos, bit + 1):
            chain = chain @ M
        for threshold, delta in schedule[bit]:
            hot = cap + 1 + threshold  # carry 1, run >= threshold
            med -= delta * float(chain[1, hot:].sum())
            if delta < 0:
                ep += float(chain[0, hot:].sum())
                chain[0, hot:] = 0.0
        pos = bit + 1
    return ep, med


def _normalize_profile(
    width: int, bit_one: Optional[Sequence[float]]
) -> Tuple[float, ...]:
    """Validate a per-bit one-probability profile (None means uniform)."""
    if bit_one is None:
        return (0.5,) * width
    profile = tuple(map(float, bit_one))
    if len(profile) != width:
        raise ValueError(
            f"bit_one has {len(profile)} entries for width {width}")
    if min(profile) < 0.0 or max(profile) > 1.0:
        bad = next(a for a in profile if not 0.0 <= a <= 1.0)
        raise ValueError(f"bit probability {bad} outside [0, 1]")
    return profile


def error_pmf(
    width: int,
    windows: Sequence[object],
    truncation: int = 0,
    bit_one: Optional[Sequence[float]] = None,
    max_support: int = MAX_SUPPORT,
    static_kind: Optional[str] = None,
    rectified: Sequence[int] = (),
) -> ErrorPMF:
    """Exact signed error PMF of a window layout.

    Args:
        width: operand width N.
        windows: window layout (``WindowSpec`` or ``SpeculativeWindow``
            objects — anything exposing low/high/result_low/result_high/
            length/prediction_bits).
        truncation: fixed-approximation low bits (LOA-style), 0 for none.
        bit_one: per-bit probability that an operand bit is one (the
            same profile applies to both operands, bits independent).
            ``None`` means uniform (0.5 everywhere).
        max_support: raise :class:`AnalyticUnsupported` if the tracked
            error support would exceed this many values.
        static_kind: gate rule of the fixed low part — ``"or"`` (LOA,
            the default when ``truncation`` is set) or ``"hoeraa"``.
        rectified: indices into ``windows`` whose §3.3 flags a rectify
            stage adds back into the sum (incompatible with truncation,
            mirroring the IR's validation).
    """
    profile = _normalize_profile(width, bit_one)
    rect = tuple(int(i) for i in rectified)
    if truncation == 0:
        static_kind = None
    elif static_kind is None:
        static_kind = "or"
    if rect and truncation:
        raise ValueError("rectified windows require a truncation-free layout")
    symbolic = _symbolic_pass(width, tuple(windows), truncation, max_support,
                              static_kind, rect)
    return _execute_plan(width, _bind_profile(symbolic, profile))


def _symbolic_pass(
    width: int,
    windows: Tuple[object, ...],
    truncation: int,
    max_support: int,
    static_kind: Optional[str] = None,
    rectified: Tuple[int, ...] = (),
) -> Tuple[Tuple[int, ...], Tuple[Tuple, ...], int, int]:
    """Symbolic pass: a layout's plan with the bit profile left open.

    Returns ``(errors, steps, cap, n_states)``, where ``steps`` are the
    plan's ops with ``("gap", start, stop)`` standing for event-free bits,
    ``("tbit", bit, n0, dst)`` for a truncated bit, and finished ``emit``
    ops.  Which rows exist and which an emission moves never depend on
    the profile, so one pass serves every profile (and decides whether
    the support fits at all).
    """
    schedule = _emission_schedule(windows, truncation, rectified)
    if not schedule and truncation == 0:
        return ((0,), (), 1, 4)

    cap, n_states = _state_space(schedule)

    # Walk the event bits only, tracking per error value an upper bound on
    # its trailing propagate run (-1 == carry-1 block certainly empty).
    # That is enough to know which rows an emission *can* move, so the
    # full support and every emission's index plan are known before any
    # probability mass is touched; rows whose bound is loose just move
    # zero mass in the numeric replay.
    #
    # Rows live in arrays: ``errors``/``maxrun`` in row (creation) order,
    # plus ``keys`` — the errors sorted — and ``perm`` mapping each sorted
    # slot back to its row, so a whole emission's targets are looked up
    # with one searchsorted.  Unseen targets become new rows in ascending
    # order of their source row, which fixes the row numbering (and so
    # every op's index arrays) independently of how the lookup is done.
    #
    # Windows tile the result bits, so every tracked error is a signed sum
    # of distinct deltas of at most two per bit position and stays below
    # 2**(width + 2) in magnitude: int64 holds it up to width 61, wider
    # layouts keep exact Python ints in object arrays.
    dtype = np.int64 if width <= 61 else object
    errors = np.zeros(1, dtype=dtype)
    maxrun = np.full(1, -1, dtype=np.int64)
    keys = errors
    perm = np.zeros(1, dtype=np.intp)
    steps: List[Tuple] = []

    def land(targets: np.ndarray, runs: np.ndarray) -> np.ndarray:
        """Rows of the (distinct) target errors, appending unseen ones;
        each target's run bound rises to at least its entry of ``runs``."""
        nonlocal errors, maxrun, keys, perm
        pos = np.minimum(keys.searchsorted(targets), len(keys) - 1)
        dst = perm[pos]
        fresh = (keys[pos] != targets).nonzero()[0]
        if len(fresh):
            n0 = len(errors)
            if n0 + len(fresh) > max_support:
                raise AnalyticUnsupported(
                    f"error support exceeds {max_support} values; layout "
                    "is too irregular for the analytic backend")
            new_rows = np.arange(n0, n0 + len(fresh), dtype=np.intp)
            dst[fresh] = new_rows
            new = targets[fresh]
            errors = np.concatenate((errors, new))
            maxrun = np.concatenate((maxrun, runs[fresh]))
            # keys is one sorted run, so the stable sort is a linear
            # merge plus a sort of the new keys alone.
            keys = np.concatenate((keys, new))
            order = keys.argsort(kind="stable")
            keys = keys[order]
            perm = np.concatenate((perm, new_rows))[order]
        maxrun[dst] = np.maximum(maxrun[dst], runs)
        return dst

    def advance_gap(start: int, stop: int) -> None:
        """Plan the event-free bits [start, stop)."""
        if start < stop:
            steps.append(("gap", start, stop))
            # An empty block (-1) leaves stop - start - 1 too: the run
            # can only have started inside the gap.
            np.minimum(maxrun + (stop - start), cap, out=maxrun)

    event_bits = sorted(set(schedule) | set(range(min(truncation, width))))
    pos = 0
    for bit in event_bits:
        if bit < truncation:
            advance_gap(pos, bit)
            # Generate under the truncation: the OR'd result bit stays at
            # one while the exact sum bit drops to zero, costing 2**bit.
            # HOERAA's top static bit is a half-adder sum instead of an
            # OR, so its generate branch additionally drops the bit
            # itself — the loss doubles to 2**(bit+1).  Distinct errors
            # shift to distinct errors, so the target rows are unique and
            # a direct indexed add is safe.
            delta = 1 << bit
            if static_kind == "hoeraa" and bit == truncation - 1:
                delta = 1 << (bit + 1)
            n0 = len(errors)
            maxrun[:] = np.where(maxrun >= 0, np.minimum(cap, maxrun + 1), -1)
            dst = land(errors - delta, np.zeros(n0, dtype=np.int64))
            steps.append(("tbit", bit, n0, dst))
        else:
            # The bit's own transition is an ordinary segment bit: fold it
            # into the preceding gap so the pair plans as one matmul.
            advance_gap(pos, bit + 1)
        for lo, hi, delta in _emission_ops(schedule.get(bit, ()), cap):
            hot = (maxrun >= lo).nonzero()[0]
            if not len(hot):
                continue
            # A moved row keeps only runs below lo (-1 for threshold 0:
            # block empty) unless runs at or above hi stay put with it;
            # its target inherits the moved runs.
            peak = maxrun[hot]
            maxrun[hot[peak < hi]] = lo - 1
            dst = land(errors[hot] + delta, np.minimum(peak, hi - 1))
            steps.append(("emit", hot, dst, cap + 1 + lo, cap + 1 + hi))
        pos = bit + 1
    # Segment matmuls are row-stochastic, so anything after the last
    # emission preserves every row's mass and cannot change the PMF.
    while steps and steps[-1][0] == "gap":
        steps.pop()
    return (tuple(errors.tolist()), tuple(steps), cap, n_states)


def _bind_profile(
    symbolic: Tuple[Tuple[int, ...], Tuple[Tuple, ...], int, int],
    bit_one: Tuple[float, ...],
) -> Tuple[Tuple[int, ...], Tuple[Tuple, ...], int, int]:
    """Bind a bit profile: the plan ``(errors, ops, cap, n_states)``.

    Each gap becomes one segment matmul per run of equal bit
    probabilities; each truncated bit gets its generate-free matrix.
    The plan holds no probability mass, so callers may compile once and
    replay many times (see :func:`adder_error_pmf`).
    """
    errors, steps, cap, n_states = symbolic
    rates = [_alpha_rates(alpha) for alpha in bit_one]
    ops: List[Tuple] = []
    for step in steps:
        tag = step[0]
        if tag == "gap":
            ops.extend(("mat", M) for M in
                       _segments(n_states, cap, rates, step[1], step[2]))
        elif tag == "tbit":
            _, bit, n0, dst = step
            M = _cached_segment_matrix(n_states, cap, rates[bit], 1, False)
            ops.append(("tbit", M, n0, dst, rates[bit][0]))
        else:
            ops.append(step)
    return (errors, tuple(ops), cap, n_states)


def _execute_plan(
    width: int,
    plan: Tuple[Tuple[int, ...], Tuple[Tuple, ...], int, int],
) -> ErrorPMF:
    """Numeric pass: replay a compiled plan into the error PMF."""
    errors, ops, cap, n_states = plan
    probs = np.zeros((len(errors), n_states), dtype=np.float64)
    probs[0, 0] = 1.0  # carry 0, run 0, error 0
    first = True
    for op in ops:
        tag = op[0]
        if tag == "mat":
            if first:
                # Still the initial point mass: the product is one row.
                probs[0] = op[1][0]
                first = False
            else:
                probs = probs @ op[1]
        elif tag == "emit":
            _, src, dst, lo, hi = op
            moved = probs[src, lo:hi]
            probs[src, lo:hi] = 0.0
            probs[dst, lo:hi] += moved
            first = False
        else:  # "tbit": generate mass is pre-transition, lands post.
            _, M, n0, dst, rho_g = op
            gen = rho_g * probs[:n0].sum(axis=1)
            probs = probs @ M
            probs[dst, cap + 1] += gen
            first = False
    mass = probs.sum(axis=1)
    pairs = sorted((e, float(p)) for e, p in zip(errors, mass) if p > 0.0)
    return ErrorPMF(
        width=width,
        support=tuple(e for e, _ in pairs),
        probabilities=tuple(p for _, p in pairs),
    )


def _adder_plans(adder) -> Dict:
    """The adder's plan memo: ``max_support -> symbolic pass`` plus
    ``(profile, max_support) -> plan``."""
    plans = getattr(adder, "_analytic_plans", None)
    if plans is None:
        plans = {}
        try:
            adder._analytic_plans = plans
        except (AttributeError, TypeError):  # slotted/frozen foreign models
            pass
    return plans


def _adder_symbolic(adder, layout, max_support: int):
    """The adder's memoised symbolic pass (raises when it overflows)."""
    plans = _adder_plans(adder)
    symbolic = plans.get(max_support)
    if symbolic is None:
        width, windows, truncation, static_kind, rectified = layout
        try:
            symbolic = _symbolic_pass(width, tuple(windows), truncation,
                                      max_support, static_kind, rectified)
        except AnalyticUnsupported:
            obs.count("engine.analytic.plan.overflow")
            raise
        plans[max_support] = symbolic
    return symbolic


def _adder_plan(adder, layout, profile: Tuple[float, ...],
                max_support: int):
    """The adder's plan for ``profile``, memoised on the instance."""
    plans = _adder_plans(adder)
    key = (profile, max_support)
    plan = plans.get(key)
    if plan is not None:
        obs.count("engine.analytic.plan.hit")
        return plan
    obs.count("engine.analytic.plan.miss")
    with obs.span("engine.analytic.plan"):
        plan = _bind_profile(_adder_symbolic(adder, layout, max_support),
                             profile)
    plans[key] = plan
    return plan


def adder_error_pmf(
    adder,
    bit_one: Optional[Sequence[float]] = None,
    max_support: int = MAX_SUPPORT,
) -> ErrorPMF:
    """Exact error PMF of a supported adder model.

    Raises :class:`AnalyticUnsupported` when the adder is not purely
    block-based (see :func:`analytic_layout`) or its error support
    outgrows ``max_support``.

    The symbolic pass depends only on the (immutable) layout and the
    plan also on the bit profile, so both are memoised on the adder
    instance; repeat evaluations of the same configuration pay only the
    numeric replay, and a new profile only the binding of its matrices.
    """
    layout = analytic_layout(adder)
    if layout is None:
        raise AnalyticUnsupported(
            f"adder {getattr(adder, 'name', adder)!r} is not a pure "
            "block-based windowed adder; its arithmetic cannot be derived "
            "from a window layout")
    profile = _normalize_profile(layout[0], bit_one)
    plan = _adder_plan(adder, layout, profile, max_support)
    with obs.span("engine.analytic.replay"):
        return _execute_plan(layout[0], plan)


def analytic_overflow(adder) -> Optional[str]:
    """Why a block-based adder's error support outgrows ``MAX_SUPPORT``.

    Returns ``None`` when the support fits (or the adder has no layout
    at all — :func:`analytic_layout` answers that).  Each emission op at
    most doubles the tracked rows, so ``2**ops`` soundly bounds the
    support and only a layout whose bound exceeds the cap runs its
    symbolic pass to find out; that pass stays memoised for the
    evaluation that follows.  The rows never depend on the bit profile,
    so the verdict is a property of the layout and is memoised on the
    adder next to :func:`analytic_layout`'s answer.
    """
    cached = getattr(adder, "_analytic_overflow", None)
    if cached is not None:
        return cached[0]
    layout = analytic_layout(adder)
    reason = None
    if layout is not None:
        width, windows, truncation, _, rectified = layout
        schedule = _emission_schedule(windows, truncation, rectified)
        n_ops = min(truncation, width) + sum(
            len(list(_emission_ops(entries, 0)))
            for entries in schedule.values())
        if (1 << n_ops) > MAX_SUPPORT:
            try:
                with obs.span("engine.analytic.plan"):
                    _adder_symbolic(adder, layout, MAX_SUPPORT)
            except AnalyticUnsupported as exc:
                reason = str(exc)
    try:
        adder._analytic_overflow = (reason,)
    except (AttributeError, TypeError):  # slotted/frozen foreign models
        pass
    return reason
