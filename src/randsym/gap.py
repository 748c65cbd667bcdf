"""Generalized arithmetic progressions (GAPs).

A GAP is the image of an integer box under the affine map
k -> g0 + k1*g1 + ... + kr*gr.  Arithmetic is exact rational: generators
and offsets are fractions (floats are admitted as the exact binary
rationals they are).  Incommensurable generators have no exact
representation here and are out of scope.

rank_reduce implements the full-rank reduction: while the witness points
of the contained set fail to span, eliminate the degenerate direction
(g_i' := g_i - alpha_i * w with g_pivot = alpha_pivot * w) and, when the
eliminated progression stops being proper, restore properness by a
bounded collision search instead of the general embedding theorem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .exactlinalg import exact_rank, kernel_basis, lattice, primitive

ENUM_CAP = 10 ** 7
_INT64_SAFE = 2 ** 62


class VolumeTooLarge(Exception):
    """Box volume exceeds the enumeration cap."""


class FullRank(Exception):
    """No nonzero integer kernel vector exists."""


class OutOfBox(Exception):
    """Lattice point violates the box bounds."""


class ReductionStalled(Exception):
    """Bounded properness restoration failed (see module docstring)."""


LatticePoint = Tuple[int, ...]


@dataclass(frozen=True)
class Gap:
    """offset + integer combinations of generators over a box."""

    offset: Fraction
    generators: Tuple[Fraction, ...]
    lower: Tuple[int, ...]
    upper: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "offset", Fraction(self.offset))
        object.__setattr__(self, "generators", tuple(Fraction(g) for g in self.generators))
        object.__setattr__(self, "lower", tuple(int(k) for k in self.lower))
        object.__setattr__(self, "upper", tuple(int(k) for k in self.upper))
        if not (len(self.generators) == len(self.lower) == len(self.upper)):
            raise ValueError("generators and bounds must have equal length")
        for lo, hi in zip(self.lower, self.upper):
            if lo > hi:
                raise ValueError(f"empty box dimension [{lo}, {hi}]")

    @classmethod
    def symmetric(cls, generators, half_widths) -> "Gap":
        hw = tuple(int(h) for h in half_widths)
        if any(h < 0 for h in hw):
            raise ValueError("half widths must be >= 0")
        return cls(Fraction(0), tuple(generators), tuple(-h for h in hw), hw)

    @property
    def rank(self) -> int:
        return len(self.generators)

    @property
    def volume(self) -> int:
        v = 1
        for lo, hi in zip(self.lower, self.upper):
            v *= hi - lo + 1
        return v

    @property
    def is_symmetric(self) -> bool:
        return self.offset == 0 and all(lo == -hi for lo, hi in zip(self.lower, self.upper))


def _box_point(q: Gap, point: Sequence[int]) -> LatticePoint:
    """point as a tuple of ints; OutOfBox unless it is a point of q's box."""
    point = tuple(int(k) for k in point)
    if len(point) != q.rank:
        raise OutOfBox(f"point has {len(point)} coordinates, gap has rank {q.rank}")
    for k, lo, hi in zip(point, q.lower, q.upper):
        if not lo <= k <= hi:
            raise OutOfBox(f"coordinate {k} outside [{lo}, {hi}]")
    return point


def evaluate(q: Gap, point: Sequence[int]) -> Fraction:
    """Exact value of the affine map at a box point."""
    point = _box_point(q, point)
    return q.offset + sum((Fraction(k) * g for k, g in zip(point, q.generators)), Fraction(0))


def _check_cap(q: Gap, cap: int) -> None:
    if q.volume > cap:
        raise VolumeTooLarge(f"volume {q.volume} exceeds cap {cap}")


def _points_array(q: Gap) -> np.ndarray:
    """All box points, shape (volume, rank), row-major (last axis fastest)."""
    if q.rank == 0:
        return np.zeros((1, 0), dtype=np.int64)
    axes = [np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in zip(q.lower, q.upper)]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _scaled_values(q: Gap) -> Tuple[np.ndarray, Fraction, np.ndarray]:
    """(values, unit, points): the integers Phi(p) / unit aligned with the
    points _points_array(q), unit being the lattice unit of the offset and
    generators.  The values are int64 while every value fits, else an
    object array of Python ints."""
    ((g0, *gens),), unit = lattice([(q.offset,) + q.generators])
    bound = abs(g0) + sum(max(abs(lo), abs(hi)) * abs(g)
                          for lo, hi, g in zip(q.lower, q.upper, gens))
    dtype = np.int64 if bound < _INT64_SAFE else object
    pts = _points_array(q)
    return pts.astype(dtype, copy=False) @ np.array(gens, dtype=dtype) + g0, unit, pts


def enumerate_values(q: Gap, cap: int = ENUM_CAP) -> List[Fraction]:
    """All Phi(p) over the box, with multiplicity, sorted."""
    _check_cap(q, cap)
    vals, unit, _ = _scaled_values(q)
    return sorted(int(v) * unit for v in vals)


def _distinct(vals: np.ndarray) -> bool:
    """True iff no two values are equal: sorted, no neighbours are."""
    vals = np.sort(vals)
    return not (vals[1:] == vals[:-1]).any()


def is_proper(q: Gap, cap: int = ENUM_CAP) -> bool:
    """True iff the affine map is injective on the box (exact comparison)."""
    _check_cap(q, cap)
    return _distinct(_scaled_values(q)[0])


def beta_close(q: Gap, a, beta, cap: int = ENUM_CAP) -> Optional[LatticePoint]:
    """Some box point whose value is within beta of a, or None.

    Ties break toward the smallest |value - a|, then lexicographically
    smallest coordinates.  Comparison is exact rational.
    """
    _check_cap(q, cap)
    beta = Fraction(beta)
    if beta < 0:
        raise ValueError("beta must be >= 0")
    return _closest(*_scaled_values(q), a, beta)


def _closest(vals: np.ndarray, unit: Fraction, pts: np.ndarray, a,
             beta: Fraction) -> Optional[LatticePoint]:
    """beta_close on the enumeration _scaled_values of a gap."""
    target = Fraction(a) / unit
    width = beta / unit
    idx = np.nonzero((vals >= math.ceil(target - width)) & (vals <= math.floor(target + width)))[0]
    cand = [(int(vals[i]), tuple(int(c) for c in pts[i])) for i in idx]
    if not cand:
        return None
    best = min(cand, key=lambda vp: (abs(Fraction(vp[0]) - target), vp[1]))
    return best[1]


def spans(q: Gap, points: Sequence[Sequence[int]]) -> bool:
    """True iff the coordinate vectors have full rank over the rationals."""
    pts = [list(_box_point(q, p)) for p in points]
    if q.rank == 0:
        return True
    if not pts:
        return False
    return exact_rank(pts) == q.rank


def integer_hyperplane(points: Sequence[Sequence[int]], rank: Optional[int] = None) -> Tuple[int, ...]:
    """Primitive integer normal vector annihilating all the points.

    gcd of the entries is 1 and the last nonzero entry is positive.  The
    deterministic choice among several degenerate directions is the
    lexicographically smallest primitivized vector of the canonical
    kernel basis (the identity basis when there are no points).  Raises
    FullRank when the points span.
    """
    pts = [list(int(k) for k in p) for p in points]
    if rank is None:
        if not pts:
            raise ValueError("rank needed when the point list is empty")
        rank = len(pts[0])
    basis = kernel_basis(pts, rank)
    if not basis:
        raise FullRank(f"points span all of rank {rank}")
    return min(primitive(v) for v in basis)


@dataclass(frozen=True)
class ReductionStep:
    kind: str                      # "hyperplane" | "collision"
    relation: Tuple[int, ...]
    pivot: int


@dataclass(frozen=True)
class GapReduction:
    gap: Gap
    witnesses: Tuple[LatticePoint, ...]
    inflation: Fraction
    steps: Tuple[ReductionStep, ...]


def _eliminate_hyperplane(q: Gap, wits: List[LatticePoint], alpha: Sequence[int]):
    """Drop the pivot generator: g_i' := g_i - alpha_i * w, g_piv = alpha_piv * w.

    Witness coordinates keep their non-pivot entries; values are
    preserved exactly because alpha . k = 0 on every witness.
    """
    piv = max(i for i, a in enumerate(alpha) if a != 0)
    w = q.generators[piv] / alpha[piv]
    keep = [i for i in range(q.rank) if i != piv]
    gens = tuple(q.generators[i] - alpha[i] * w for i in keep)
    out = Gap.symmetric(gens, tuple(q.upper[i] for i in keep))
    new_wits = [tuple(p[i] for i in keep) for p in wits]
    return out, new_wits, piv


def _eliminate_relation(q: Gap, wits: List[LatticePoint], rel: Sequence[int]):
    """Remove one generator using an exact relation sum_i rel_i * g_i = 0.

    Coordinates need not lie on the relation hyperplane, so the box is
    rescaled: with s = rel_piv, value = sum_{i != piv} (k_i*s - k_piv*rel_i)
    * (g_i / s); bounds widen to |s|*K_i + K_piv*|rel_i|.
    """
    piv = max(i for i, a in enumerate(rel) if a != 0)
    s = rel[piv]
    keep = [i for i in range(q.rank) if i != piv]
    gens = tuple(q.generators[i] / s for i in keep)
    half = tuple(abs(s) * q.upper[i] + q.upper[piv] * abs(rel[i]) for i in keep)
    out = Gap.symmetric(gens, half)
    new_wits = [tuple(p[i] * s - p[piv] * rel[i] for i in keep) for p in wits]
    return out, new_wits, piv


def _collision_relation(q: Gap) -> Tuple[int, ...]:
    """Primitive relation sum d_i g_i = 0 exhibited by a duplicate value.

    Deterministic: the first duplicate in (value, point) order.
    """
    vals, _, pts = _scaled_values(q)
    order = sorted(range(len(pts)), key=lambda i: (int(vals[i]), tuple(pts[i])))
    prev = None
    for i in order:
        v = int(vals[i])
        if prev is not None and v == prev[0]:
            return primitive([int(a) - int(b) for a, b in zip(pts[i], pts[prev[1]])])
        prev = (v, i)
    raise AssertionError("collision requested on a proper gap")


def rank_reduce(q: Gap, values: Sequence, witnesses: Optional[Sequence[Sequence[int]]] = None,
                cap: int = ENUM_CAP) -> GapReduction:
    """Reduce to a proper symmetric gap that the given values span.

    Returns a gap of rank <= rank(q) containing every input value
    exactly, new witness points that span it, and the volume inflation
    factor.  When witnesses are omitted they are located with
    beta_close at radius 0.  Raises ReductionStalled when the bounded
    properness search (3 collision eliminations per step, volume capped)
    gives out.
    """
    if not q.is_symmetric:
        raise ValueError("rank_reduce needs a symmetric gap")
    _check_cap(q, cap)
    enum = _scaled_values(q)    # one enumeration for properness and the witnesses
    if not _distinct(enum[0]):
        raise ValueError("rank_reduce needs a proper gap")
    vals = [Fraction(v) for v in values]
    if witnesses is None:
        wits = []
        for v in vals:
            p = _closest(*enum, v, Fraction(0))
            if p is None:
                raise ValueError(f"value {v} is not an element of the gap")
            wits.append(p)
    else:
        wits = [tuple(int(k) for k in p) for p in witnesses]
        if len(wits) != len(vals):
            raise ValueError("one witness per value required")
        for v, p in zip(vals, wits):
            if evaluate(q, p) != v:
                raise ValueError(f"witness {p} does not evaluate to {v}")
    vol0 = q.volume
    cur = q
    steps: List[ReductionStep] = []
    while cur.rank > 0:
        try:
            alpha = integer_hyperplane(wits, cur.rank)
        except FullRank:
            break
        cur, wits, piv = _eliminate_hyperplane(cur, wits, alpha)
        steps.append(ReductionStep("hyperplane", tuple(alpha), piv))
        for v, p in zip(vals, wits):
            assert evaluate(cur, p) == v, "reduction identity violated"
        retries = 0
        while cur.rank > 0:
            if cur.volume > cap:
                raise ReductionStalled(
                    f"volume {cur.volume} exceeded cap {cap} during restoration")
            if is_proper(cur, cap):
                break
            if retries >= 3:
                raise ReductionStalled("properness not restored in 3 collision steps")
            rel = _collision_relation(cur)
            cur, wits, piv = _eliminate_relation(cur, wits, rel)
            steps.append(ReductionStep("collision", rel, piv))
            for v, p in zip(vals, wits):
                assert evaluate(cur, p) == v, "reduction identity violated"
            retries += 1
    if cur.volume > cap:
        raise ReductionStalled(f"final volume {cur.volume} exceeds cap {cap}")
    for v, p in zip(vals, wits):
        if evaluate(cur, p) != v:
            raise ReductionStalled("containment lost (arithmetic bug)")
    return GapReduction(
        gap=cur,
        witnesses=tuple(wits),
        inflation=Fraction(cur.volume, vol0),
        steps=tuple(steps),
    )


# ---------------------------------------------------------------------------
# literals


def format_value(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def format_gap(q: Gap) -> str:
    g0 = format_value(q.offset)
    gs = ",".join(format_value(g) for g in q.generators)
    lo = ",".join(str(k) for k in q.lower)
    hi = ",".join(str(k) for k in q.upper)
    return f"gap{{g0={g0}; g=[{gs}]; K=[{lo}]; K'=[{hi}]}}"


def parse_gap(text: str) -> Gap:
    """Parse ``gap{g0=0; g=[1,10]; K=[-2,-2]; K'=[2,2]}``."""
    t = text.strip()
    if not (t.startswith("gap{") and t.endswith("}")):
        raise ValueError(f"not a gap literal: {text!r}")
    fields = {}
    for part in t[4:-1].split(";"):
        part = part.strip()
        if not part:
            continue
        key, _, val = part.partition("=")
        fields[key.strip()] = val.strip()
    def _list(s: str) -> List[str]:
        s = s.strip()
        if not (s.startswith("[") and s.endswith("]")):
            raise ValueError(f"expected a [..] list, got {s!r}")
        inner = s[1:-1].strip()
        return [tok.strip() for tok in inner.split(",")] if inner else []
    try:
        g0 = Fraction(fields.get("g0", "0"))
        gens = tuple(Fraction(tok) for tok in _list(fields["g"]))
        lower = tuple(int(tok) for tok in _list(fields["K"]))
        upper = tuple(int(tok) for tok in _list(fields["K'"]))
    except KeyError as e:
        raise ValueError(f"gap literal missing field {e}") from None
    return Gap(g0, gens, lower, upper)
