"""Determinant concentration and least-singular-value tails.

The log-determinant is split at a cutoff eps: eigenvalues with
|lambda| >= eps contribute their logs (the cutoff functions
f+(x) = log(max(eps, x)) and f-(x) = log(max(eps, -x)) are 1/eps-Lipschitz,
which is what the spectral concentration inequality consumes), while the
small-eigenvalue product is bounded below through the least singular
value.

The `randsym tail` and `randsym detconc` experiments (randsym.cli) run
this module's trials: per n, one tail_trial or detconc_trial range of
rows.  Their runners summarize each n's rows (the empirical sigma_n /
condition-number tails, and the spread of the truncated log-product at
cutoff_epsilon) and grade them by the rules stated here: bound_verdict,
envelope_rule and loglog_slope.

Trials are keyed (seed, n, t).  tail_trial and detconc_trial take a range
of trial indices and return its rows; keyed_spectra keys the range in one
block (streams.key_seed and substream), cuts it into stacks, and lanes
(threads, the caller one of them) take the stacks in turn, one sampler
call on a slice of the block and one np.linalg.eigvalsh call per stack,
with BLAS pinned to one thread.  numpy releases the GIL for a solve only when
stack size x n > 500, so a lane's stack holds at least 500 // n + 1
matrices; otherwise the stacks of all lanes hold at most
ensembles._STACK_ENTRIES entries together (at least one matrix each).
The rows do not depend on how a range is cut or on the lanes.
"""

from __future__ import annotations

import math
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .ensembles import (_STACK_ENTRIES, SpectralSummary, blas_pinnable, one_blas_thread,
                        sample_symmetric, spectral_summaries)
from .laws import AtomicLaw, Law
from .streams import chunk_bounds, key_seed, substream

Z95 = 1.959963984540054


class SpacingUnverified(Exception):
    """No spacing certificate passes for the entry law."""


@dataclass(frozen=True)
class TruncatedLogDet:
    kept_sum: float
    dropped_count: int
    small_product_bound: float


def truncated_log_det(summary: SpectralSummary, epsilon: float) -> TruncatedLogDet:
    """Split log|det| at the cutoff.

    kept_sum runs over S_eps^- u S_eps^+ = {lambda <= -eps} u {lambda >= eps}
    (closed); dropped_count is the rest; the small product is bounded
    below by (min |lambda|)^dropped_count, whose log is -inf when an
    eigenvalue is exactly zero.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    lam = summary.eigenvalues
    kept = (lam >= epsilon) | (lam <= -epsilon)
    dropped = int(np.sum(~kept))
    min_abs = float(np.min(np.abs(lam)))
    kept_sum = float(np.sum(np.log(np.abs(lam[kept])))) if kept.any() else 0.0
    bound = (dropped * math.log(min_abs) if min_abs else -math.inf) if dropped else 0.0
    return TruncatedLogDet(kept_sum=kept_sum, dropped_count=dropped,
                           small_product_bound=bound)


def wilson_interval(hits: int, trials: int) -> Tuple[float, float]:
    """95% Wilson score interval for a binomial frequency."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= hits <= trials:
        raise ValueError(f"need 0 <= hits <= trials, got hits {hits}, trials {trials}")
    p = hits / trials
    z = Z95
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if hits == 0 else max(0.0, center - half)
    hi = 1.0 if hits == trials else min(1.0, center + half)
    return lo, hi


def bound_verdict(hits: int, trials: int, bound: float) -> str:
    """pass, fail, or inconclusive while bound lies in the Wilson interval, for
    the claim that a frequency of hits in trials is at most bound.  At least b
    is the same call on trials - hits at 1 - b: p -> 1 - p maps the interval."""
    lo, hi = wilson_interval(hits, trials)
    if lo <= bound <= hi:
        return "inconclusive"
    return "pass" if hits / trials <= bound else "fail"


# ---------------------------------------------------------------------------
# experiments


def envelope_norm(n: int) -> float:
    """n^(1/3) log n, the upper envelope of std(kept sum); 1 at n = 1."""
    return float(n) ** (1.0 / 3.0) * math.log(n) if n > 1 else 1.0


def loglog_slope(n_list: Sequence[int], values: Sequence[float]) -> Optional[float]:
    """Least-squares slope of log value (a std, a frequency) against log n;
    None below two distinct n or when a value is not positive (it has no
    logarithm)."""
    ys = np.asarray(values, dtype=float)
    if len(set(n_list)) < 2 or np.any(ys <= 0):
        return None
    xs = np.log(np.asarray(n_list, dtype=float))
    xc = xs - xs.mean()
    ys = np.log(ys)
    # shifting ys by ys[0] leaves the slope as it is and makes a flat value
    # give exactly 0 (a least-squares solver leaves +-1e-16 of round-off)
    return float(np.dot(xc, ys - ys[0]) / float(np.dot(xc, xc)))


@dataclass(frozen=True)
class EnvelopeVerdict:
    """The shape rule for std(kept sum) across n.

    n^(1/3) log n bounds the std from above; it is not a growth law (the
    log-determinant CLT has the std grow like sqrt(log n)).  So the ratio
    std / (n^(1/3) log n) may fall freely but may rise by at most
    rise_bound from any smaller n to any larger one (within_envelope), and
    the std itself must be positive at every n with a positive log-log
    slope (grows), so collapsed or unkeyed trials fail.
    """

    max_rise: float                  # max ratio(n) / ratio(n') over n' < n; 1 for one n
    fitted_exponent: Optional[float]
    within_envelope: bool
    grows: bool

    @property
    def ok(self) -> bool:
        return self.within_envelope and self.grows


def envelope_rule(n_list: Sequence[int], std_kept: Sequence[float],
                  rise_bound: float = 1.5) -> EnvelopeVerdict:
    """Judge per-n stds of the kept sum against the n^(1/3) log n envelope."""
    pairs = sorted(zip((int(n) for n in n_list), (float(s) for s in std_kept)))
    ratios = [s / envelope_norm(n) for n, s in pairs]
    rises = [hi / lo if lo > 0 else math.inf
             for i, lo in enumerate(ratios) for hi in ratios[i + 1:]]
    max_rise = max(rises, default=1.0)
    fitted = loglog_slope([n for n, _ in pairs], [s for _, s in pairs])
    grows = fitted is not None and fitted > 0       # None when a std is not positive
    return EnvelopeVerdict(max_rise, fitted, max_rise <= rise_bound, grows)


def cutoff_epsilon(n: int, epsilon: Optional[float]) -> float:
    """The cutoff: epsilon when given, else n^(-1/6); ValueError unless it
    is positive (NaN is not), so a bad epsilon fails before any draw."""
    eps = float(epsilon) if epsilon is not None else float(n) ** (-1.0 / 6.0)
    if not eps > 0:
        raise ValueError(f"epsilon must be positive, got {eps}")
    return eps


# the least order keyed_spectra splits into lanes: below it the work that
# holds the GIL (sampling, summaries) outweighs the solver.  Two lanes
# against one, on 2 vCPUs, tail_trial of 400 trials (medians of 15
# alternating calls, 2 repeats), after block keying: 0.81-1.23x as fast
# at n = 8..16, 1.25-1.54x at 20..28, 1.15-1.42x at 32, 1.40-1.81x at
# 36..40.  A floor of 20 left mc-serial no faster (21.8 against 22.2
# ops/s, medians of 4 alternating 10-s pairs), so it stays at 32
_LANE_MIN_N = 32


def usable_cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:       # no affinity call (macOS, Windows)
        return os.cpu_count() or 1


def keyed_spectra(law: Law, F, n: int, seed: int, trials: Iterable[int],
                  row: Callable[[int, int, SpectralSummary], tuple],
                  lanes: Optional[int] = None, pin_blas: bool = True) -> List[tuple]:
    """row(t, trial seed, summary) for each trial index t, in order; matrix
    t is drawn from substream(key_seed(seed, n, t)), the whole range keyed
    in one block before any stack is drawn.

    pin_blas: BLAS runs at one thread for the call (the old count is
    restored after), so rows from n = 208 up do not depend on the thread
    count the process has.  The trials are cut into stacks of max(1,
    _STACK_ENTRIES // (lanes n^2)) matrices, each drawn and summarized
    with one sample_symmetric and one spectral_summaries call, so the
    entries in flight across the lanes stay within _STACK_ENTRIES; with
    two or more lanes a stack holds at least 500 // n + 1 matrices, the
    least that numpy solves without the GIL.  The `lanes` threads (default
    usable_cores(), at most one per trial; the caller is one) take the
    stacks from one queue in turn, so a lane on a slow core holds up no
    other.  One lane runs below n = _LANE_MIN_N, without pin_blas (the
    BLAS thread count is then left alone), and where the BLAS cannot be
    pinned.  The threads are joined before the call returns, so a process
    forked after it inherits none.
    """
    trials = list(trials)
    if not pin_blas or n < _LANE_MIN_N or not blas_pinnable():
        lanes = 1
    lanes = max(1, min(lanes or usable_cores(), len(trials)))
    per = max(1, _STACK_ENTRIES // (lanes * n * n))
    if lanes > 1:
        # numpy's eigvalsh holds the GIL unless stack size x n > 500, and
        # lanes only run side by side while they solve without it
        per = max(per, 500 // n + 1)
    # the whole range keyed in one pass; each stack draws from a slice
    seeds = key_seed(seed, n, trials)
    streams = substream(seeds)
    seeds = seeds.tolist()
    blocks = [(start, stop) for _, start, stop in chunk_bounds(len(trials), per)]

    def draw(block: Tuple[int, int]) -> List[tuple]:
        start, stop = block
        stack = sample_symmetric(law, F, n, seed=streams[start:stop])
        return list(map(row, trials[start:stop], seeds[start:stop], spectral_summaries(stack)))

    with one_blas_thread(pin_blas):
        if lanes == 1:
            return [r for block in blocks for r in draw(block)]
        rows = [[] for _ in blocks]
        todo = queue.SimpleQueue()
        for i in range(len(blocks)):
            todo.put(i)

        def lane() -> None:
            while True:
                try:
                    i = todo.get_nowait()
                except queue.Empty:
                    return
                rows[i] = draw(blocks[i])
        # the caller is a lane too: one thread and malloc arena fewer.  A pool
        # map over the blocks, 18 lines shorter, raised mc-serial's peak RSS by
        # 5% (2 vCPUs, seed 4101, medians of 3 10-s runs: 51.81 -> 54.38 MB)
        with ThreadPoolExecutor(max_workers=lanes - 1) as pool:
            others = [pool.submit(lane) for _ in range(lanes - 1)]
            lane()
            for f in others:
                f.result()
        return [r for block_rows in rows for r in block_rows]


def seed_repeats(seed: int, n: int, trials: int) -> int:
    """Trials of range(trials) whose key_seed(seed, n, t) an earlier trial
    already has, and with it the whole matrix: about trials^2 / 2^33 (the
    seed is one 32-bit word).  For tail, whose rows hold no seed; detconc
    counts the seeds its rows carry."""
    # a set, not np.unique, whose sort code adds 0.8 MB to peak RSS
    return trials - len(set(key_seed(seed, n, range(trials)).tolist()))


def detconc_trial(law: AtomicLaw, n: int, seed: int, trials: Iterable[int],
                  epsilon: Optional[float] = None, lanes: Optional[int] = None,
                  pin_blas: bool = True) -> List[tuple]:
    """Concentration rows (n, t, trial seed, log|det|, kept_sum, dropped,
    sigma_n, kappa), one per trial index t in trials; lanes and pin_blas
    as in keyed_spectra."""
    eps = cutoff_epsilon(n, epsilon)

    def row(t: int, trial_seed: int, summ: SpectralSummary) -> tuple:
        tld = truncated_log_det(summ, eps)
        return (n, t, trial_seed, summ.log_abs_det, tld.kept_sum, tld.dropped_count,
                summ.sigma_n, summ.kappa)
    return keyed_spectra(law, None, n, seed, trials, row, lanes, pin_blas)


def tail_trial(law: Law, F, n: int, seed: int, trials: Iterable[int],
               lanes: Optional[int] = None, pin_blas: bool = True) -> List[tuple]:
    """Tail rows (n, t, sigma_n, kappa), one per trial index t in trials;
    lanes and pin_blas as in keyed_spectra."""
    return keyed_spectra(law, F, n, seed, trials,
                         lambda t, _, summ: (n, t, summ.sigma_n, summ.kappa), lanes, pin_blas)
