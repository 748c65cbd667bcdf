"""Structural side of the inverse concentration theorems.

Covers the integer row-rewrite matrix R (diagonal k on rewritten rows,
unit diagonal elsewhere, off-diagonal support in the designated columns
with a sign split), the random-bipartition mask A_U, the decoupling
inequality harness (quadratic rho^8 / ((2pi)^{7/2} exp(4pi)) against the
bilinear small ball of A_U at an inflated radius), and a rank <= 2 inverse
search over submultiples of the least nonzero coefficient.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .exactlinalg import bareiss_det
from .gap import ENUM_CAP, Gap, is_proper
from .laws import AtomicLaw, difference_law
from .smallball import (ATOM_CAP, LinearForm, QuadraticForm, _bilinear_stack,
                        _exact_scan, _quadratic_stack, _radius, linear_small_ball_mc)
from .streams import substream

#: (2*pi)^(7/2) * exp(4*pi), the decoupling loss constant (~1.784e8)
DECOUPLING_CONST = (2 * math.pi) ** 3.5 * math.exp(4 * math.pi)


class OverlapError(Exception):
    """Rewritten rows and coefficient columns must be disjoint."""


# ---------------------------------------------------------------------------
# the row matrix R


@dataclass(frozen=True)
class RowMatrixSpec:
    """Integer data defining R (0-based index sets).

    rows: indices whose rows are rewritten (diagonal k there);
    cols_plus / cols_minus: coefficient columns entering with +k_ij and
    -k_ij; all other entries vanish except unit diagonals off `rows`.
    """

    n: int
    rows: Tuple[int, ...]
    cols_plus: Tuple[int, ...]
    cols_minus: Tuple[int, ...]
    k: int
    coeffs: Mapping[Tuple[int, int], int]
    bound_exponent: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(sorted(int(i) for i in self.rows)))
        object.__setattr__(self, "cols_plus", tuple(sorted(int(i) for i in self.cols_plus)))
        object.__setattr__(self, "cols_minus", tuple(sorted(int(i) for i in self.cols_minus)))
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "coeffs",
                           {(int(i), int(j)): int(v) for (i, j), v in dict(self.coeffs).items()})
        if self.k == 0:
            raise ValueError("k must be a nonzero integer")
        cols = set(self.cols_plus) | set(self.cols_minus)
        if set(self.cols_plus) & set(self.cols_minus):
            raise ValueError("cols_plus and cols_minus must be disjoint")
        if set(self.rows) & cols:
            raise OverlapError(f"row set and column set overlap: {set(self.rows) & cols}")
        all_idx = set(self.rows) | cols
        if any(not 0 <= i < self.n for i in all_idx):
            raise ValueError("index out of range")
        for (i, j) in self.coeffs:
            if i not in set(self.rows) or j not in cols:
                raise ValueError(f"coefficient at ({i},{j}) outside rows x cols")
        if self.bound_exponent is not None:
            bound = float(self.n) ** float(self.bound_exponent)
            entries = [abs(self.k)] + [abs(v) for v in self.coeffs.values()]
            if any(e > bound for e in entries):
                raise ValueError(f"entry exceeds declared bound n^{self.bound_exponent}")


def build_row_matrix(spec: RowMatrixSpec) -> np.ndarray:
    """The dense n x n integer matrix R."""
    n = spec.n
    R = np.zeros((n, n), dtype=np.int64)
    in_rows = set(spec.rows)
    for i in range(n):
        R[i, i] = spec.k if i in in_rows else 1
    for i in spec.rows:
        for j in spec.cols_plus:
            R[i, j] = spec.coeffs.get((i, j), 0)
        for j in spec.cols_minus:
            R[i, j] = -spec.coeffs.get((i, j), 0)
    return R


def row_matrix_det(spec: RowMatrixSpec) -> int:
    """Exact determinant of R; |det| = |k|^len(rows) by construction."""
    return int(bareiss_det(build_row_matrix(spec).tolist()))


def conditioning_check(R: np.ndarray, c: float) -> bool:
    """True iff every singular value of R lies in [n^-c, n^c]."""
    R = np.asarray(R, dtype=np.float64)
    n = R.shape[0]
    sv = np.linalg.svd(R, compute_uv=False)
    lo, hi = float(n) ** (-c), float(n) ** c
    return bool(sv.min() >= lo and sv.max() <= hi)


# ---------------------------------------------------------------------------
# bipartition mask and decoupling


@dataclass(frozen=True)
class Bipartition:
    """Index split: membership[i] says whether i is in U."""

    membership: Tuple[bool, ...]

    @property
    def n(self) -> int:
        return len(self.membership)

    @classmethod
    def random(cls, n: int, seed: int) -> "Bipartition":
        rng = substream(seed)
        return cls(tuple(bool(b) for b in rng.random(n) < 0.5))


@dataclass(frozen=True)
class DecouplingCheck:
    rho_quad: Union[Fraction, float]
    lhs: float
    rhs: Union[Fraction, float]
    radius: float
    radius_constant: float
    holds: bool


def _stack(forms: Sequence[QuadraticForm], us: Sequence[Bipartition]):
    """The forms and bipartitions as lists, checked: equal-length,
    nonempty, each bipartition the size of its form."""
    forms, us = list(forms), list(us)
    if not forms or len(forms) != len(us):
        raise ValueError(f"need as many bipartitions as forms, at least one: "
                         f"{len(forms)} forms, {len(us)} bipartitions")
    if any(f.n != b.n for f, b in zip(forms, us)):
        raise ValueError("matrix and bipartition sizes disagree")
    return forms, us


def verify_decoupling(forms: Sequence[QuadraticForm], law: AtomicLaw, beta,
                      us: Sequence[Bipartition],
                      radius_constant: float = 1.0) -> List[DecouplingCheck]:
    """Check rho_quad^8 / ((2pi)^{7/2} exp(4pi)) <= bilinear rho of A_U,
    one check per form.

    The bilinear side is evaluated at radius radius_constant * beta *
    sqrt(log n) under independent copies of xi - xi'.  Both small-ball
    probabilities are exact (fractions); only the universal constant and
    the radius are floating.  forms is a sequence of quadratic forms of one
    size and shifts, us the bipartition of each: every quadratic and every
    bilinear distribution of the stack is enumerated together.  A radius
    constant that is not finite or is below 0, an empty stack, sequences
    of unequal length and a form that needs more outcomes than the cap or
    values past the float-exactness bound are rejected before any
    enumeration.
    """
    forms, us = _stack(forms, us)
    if not (math.isfinite(radius_constant) and radius_constant >= 0):
        raise ValueError(f"radius_constant must be finite and >= 0, got {radius_constant!r}")
    beta = _radius(beta)
    quadratic = _quadratic_stack(forms, law, ATOM_CAP)
    diff = difference_law(law)
    sides = np.array([u.membership for u in us])
    bilinear = _bilinear_stack(forms, diff, diff, ATOM_CAP,
                               keep=sides[:, :, None] != sides[:, None, :])
    n = forms[0].n
    radius = radius_constant * float(beta) * math.sqrt(math.log(n)) if n > 1 else 0.0
    wide = _radius(radius)
    checks = []
    for q, b in zip(quadratic(), bilinear()):
        rho_q = _exact_scan(q, beta)[0]      # the rho alone: no witness center
        lhs = float(rho_q) ** 8 / DECOUPLING_CONST
        rhs = _exact_scan(b, wide)[0]
        checks.append(DecouplingCheck(rho_q, lhs, rhs, radius, radius_constant, bool(rhs >= lhs)))
    return checks


def decoupling_scan(forms: Sequence[QuadraticForm], law: AtomicLaw, beta,
                    us: Sequence[Bipartition]):
    """Smallest radius constant of 1, 2 and 4 making the decoupling
    inequality hold, for each form.

    Takes the sequences verify_decoupling takes and returns (the constant
    of each form, the per-constant checks of each form); a constant of
    None flags a form needing more than the scanned constants.  Each
    constant is one verify_decoupling call on the forms that do not hold
    yet.  The stack is checked before the first enumeration.
    """
    forms, us = _stack(forms, us)
    found = [None] * len(forms)
    checks = [[] for _ in forms]
    due = list(range(len(forms)))
    for c in (1.0, 2.0, 4.0):
        new = verify_decoupling([forms[g] for g in due], law, beta, [us[g] for g in due],
                                radius_constant=c)
        for g, chk in zip(due, new):
            checks[g].append(chk)
            if chk.holds:
                found[g] = c
        due = [g for g in due if found[g] is None]
        if not due:
            break
    return found, checks


# ---------------------------------------------------------------------------
# inverse search (rank <= 2)


def _round_frac(x: Fraction) -> int:
    """Nearest integer, half away from zero."""
    n, d = x.numerator, x.denominator
    if n >= 0:
        return (2 * n + d) // (2 * d)
    return -((-2 * n + d) // (2 * d))


@dataclass(frozen=True)
class InverseLOReport:
    gap: Optional[Gap]
    covered: Tuple[int, ...]
    coverage: int
    needed: int
    size_cap: int
    candidates_tried: int
    note: str = ""


def _rank1_cover(a: List[Fraction], g: Fraction, beta: Fraction, half_cap: int):
    ks, covered = [], []
    for i, ai in enumerate(a):
        k = _round_frac(ai / g)
        if abs(k) <= half_cap and abs(ai - k * g) <= beta:
            covered.append(i)
            ks.append(k)
    return covered, ks


def _rank2_cover(a: List[Fraction], g1: Fraction, g2: Fraction, beta: Fraction,
                 size_cap: int):
    ks, covered = [], []
    for i, ai in enumerate(a):
        best = None
        k1c = _round_frac(ai / g1)
        for k1 in (k1c - 1, k1c, k1c + 1):
            k2 = _round_frac((ai - k1 * g1) / g2)
            res = abs(ai - k1 * g1 - k2 * g2)
            if res <= beta and (best is None or res < best[0]):
                best = (res, k1, k2)
        if best is not None:
            covered.append(i)
            ks.append((best[1], best[2]))
    if not covered:
        return covered, ks, None
    h1 = max(1, max(abs(k[0]) for k in ks))
    h2 = max(1, max(abs(k[1]) for k in ks))
    if (2 * h1 + 1) * (2 * h2 + 1) > size_cap:
        return [], [], None
    return covered, ks, (h1, h2)


def inverse_lo_search(form: LinearForm, law: AtomicLaw, beta, rank_cap: int = 2,
                      closeness_budget: int = 1, size_cap: Optional[int] = None,
                      seed: int = 0) -> InverseLOReport:
    """Search for a proper symmetric GAP of rank <= rank_cap covering the
    coefficients.

    At least n - closeness_budget coefficients must come beta-close.  The
    candidate generators are the submultiples |a_ref| / q of the nonzero
    coefficient a_ref of least modulus, q from 1 to
    isqrt(closeness_budget), at least to 1 and at most to 64.  Each is
    tried as a rank-1 generator; when rank 1 covers too few and rank_cap
    is 2, every pair of the 8 candidates that cover the most is tried,
    kept only if the gap is proper.  The best gap covers the most, then
    has the least volume, then the smallest generators.  Absence of a
    covering gap within the size cap is a value, not an error, and a
    size_cap below 3 gives it before any candidate is tried; beta < 0,
    a closeness_budget that is not an integer >= 0 and a size_cap < 1
    are rejected before any work.
    """
    if rank_cap not in (1, 2):
        raise ValueError("rank_cap must be 1 or 2")
    beta = Fraction(beta)
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    if not isinstance(closeness_budget, numbers.Integral) or closeness_budget < 0:
        raise ValueError(f"closeness_budget must be an integer >= 0, got {closeness_budget!r}")
    if size_cap is not None and size_cap < 1:
        raise ValueError(f"size_cap must be >= 1, got {size_cap!r}")
    a = [Fraction(x) for x in form.coefficients]
    n = len(a)
    budget = int(closeness_budget)
    needed = max(0, n - budget)
    if size_cap is None:
        est = linear_small_ball_mc(form, law, float(beta), trials=4096, seed=seed)
        rho = max(est.rho, 1.0 / 4096)
        size_cap = max(1, min(ENUM_CAP, math.ceil(4.0 / (rho * math.sqrt(max(budget, 1))))))
    nonzero = [(abs(x), i) for i, x in enumerate(a) if x != 0]
    if not nonzero:
        zero_gap = Gap.symmetric((), ())
        return InverseLOReport(zero_gap, tuple(range(n)), n, needed, size_cap, 0,
                               note="all coefficients zero")
    if size_cap < 3:    # a box of rank >= 1 has volume at least 3
        return InverseLOReport(None, (), 0, needed, size_cap, 0,
                               note="no candidate covers enough coefficients")
    ref = min(nonzero)[1]
    half_cap = (size_cap - 1) // 2
    pool = [abs(a[ref]) / q for q in range(1, min(max(1, math.isqrt(budget)), 64) + 1)]
    best = None  # (key, gap, covered), key = (-coverage, volume, generators)
    scored: List[Tuple[int, Fraction]] = []
    for g in pool:
        covered, ks = _rank1_cover(a, g, beta, half_cap)
        scored.append((len(covered), g))
        if not covered:
            continue
        half = max(1, max(abs(k) for k in ks))
        q1 = Gap.symmetric((g,), (half,))
        key = (-len(covered), q1.volume, (g,))
        if best is None or key < best[0]:
            best = (key, q1, tuple(covered))
    tried = len(pool)
    if rank_cap >= 2 and (best is None or -best[0][0] < needed):
        top = [g for _, g in sorted(scored, key=lambda t: (-t[0], t[1]))[:8]]
        for g1, g2 in itertools.combinations(top, 2):
            tried += 1
            covered, ks, halves = _rank2_cover(a, g1, g2, beta, size_cap)
            if halves is None or not covered:
                continue
            q2 = Gap.symmetric((g1, g2), halves)
            if not is_proper(q2, ENUM_CAP):
                continue
            key = (-len(covered), q2.volume, (g1, g2))
            if best is None or key < best[0]:
                best = (key, q2, tuple(covered))
    if best is None or -best[0][0] < needed:
        cov = () if best is None else best[2]
        return InverseLOReport(None, cov, len(cov), needed, size_cap, tried,
                               note="no candidate covers enough coefficients")
    return InverseLOReport(best[1], best[2], len(best[2]), needed, size_cap, tried)
