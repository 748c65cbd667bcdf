"""Small-ball (concentration) probabilities of linear, bilinear and
quadratic forms in iid entries.

The exact routines work on integer-scaled atoms: each set of rational
quantities (the values of the linear steps, the shifted coordinates, the
form's matrix, the masses) goes on its own integer lattice through
exactlinalg.lattice, as integers times one positive unit, their rational
content.  Convolution and window counting are then integer arithmetic,
and an atom's mass is its integer count over the sum of the counts;
outputs are fractions.  Floats are admitted everywhere and treated as the
exact binary rationals they are.  The supremum over window centers is
realized as a maximum over closed windows whose left edge sits on an
atom: sliding any window right until its left edge hits an atom never
loses mass, so the finite scan, shared with the Monte Carlo estimates,
attains the sup.  Every exact distribution holds its counts as int64
limb rows, count k = sum_r cnts[r, k] << 16 r, each row summing below
2**62, and the window scan reads the rows themselves.

The linear sum is convolved in one of two layouts.  Dense: when its
support span S has S + 1 <= min(cap, prod m_i), with m_i the distinct
values of step i (prod m_i bounds any support), it runs in place on the
lattice lo + stride * [0, S / stride], stride the gcd of the law's atom
gaps (2 for signs).  Sparse: otherwise, the outer sum of each step is
aggregated by _aggregate_np, which counts where the values span few
lattice points per value and sorts where they are sparse.  Either way
the limbs in use are no more than the count total total**k of step k
needs, a law's count past 2**16 enters as its 16-bit digits, and the
limbs carry only before a step that could pass 2**62; a distribution
takes them as they are, or carried in a copy if a row could sum to
2**62.  Values are int64 below 2**61 and Python ints beyond, so no size
changes the arithmetic silently.  The suffix sums of
suffix_smallball_factors are the partial sums of one pass from the end.

Quadratic and bilinear forms are enumerated over all outcomes, block by
block.  Coordinates i and j are coupled when a_ij or a_ji != 0; the
connected blocks of that graph are independent, so the distribution of
z^T A z is the convolution of theirs (outer sums, aggregated by
_aggregate_np), and a coordinate that no entry touches is not enumerated.
The bilinear form x^T A y is z^T [[0, A], [0, 0]] z on z = (x, y); the
mask A_U of the decoupling check splits it into at least {x_U, y_U^c}
and {x_U^c, y_U}, so one check at n = 5 under the difference law of
signs enumerates 2 * 3**5 outcomes instead of 3**10.  Each block is
enumerated by one meet-in-the-middle engine (Horowitz-Sahni): its
coordinates are split in half, z = (x, y), z^T A z = q_x(x) + q_y(y) +
x^T (A_xy + A_yx^T) y, the outcomes of each half are tabulated once, and
the cross term is one BLAS product per block of x outcomes, whose values
_aggregate_np counts into their span; a dense form is one block.  The
cap and the float-exactness bound are judged on the whole form: float64
stays exact because every partial sum is an integer of absolute value
below val_bound = sum |a_ij| max|z_i| max|z_j| + 1 < 2**53, summed over
the nonzero a_ij (a coordinate that is always 0 contributes exact
zeros); inputs past that bound, or with more outcomes in all than the
cap, raise EnumerationTooLarge.  The counts are one row while the count
total of the enumerated coordinates stays below 2**61 and carried 16-bit
limbs beyond (_limb_product), so float masses such as 0.1 stay exact.  A
law's atoms and masses go on their lattices once per law object.

Monte Carlo variants draw from splittable streams keyed (seed, chunk)
and carry a Dvoretzky-Kiefer-Wolfowitz half-width at the 95% level.
"""

from __future__ import annotations

import functools
import math
from itertools import compress
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, List, Sequence, Tuple, Union

import numpy as np

from .exactlinalg import lattice
from .laws import AtomicLaw, Law
from .streams import chunk_bounds, substream

ATOM_CAP = 10 ** 7
_FLOAT_EXACT = 2 ** 53
_INT64_SAFE = 2 ** 61   # leaves room for value + clamped window width in int64
_LIMB_BITS = 16         # counts past one row are int64 limbs of this many bits
_LIMB_MASK = (1 << _LIMB_BITS) - 1
_LIMB_ROOM = 2 ** 62    # the most a limb may hold between carries
DKW_DELTA = 0.05


class AtomBlowup(Exception):
    """Exact sum distribution exceeds the atom cap."""


class EnumerationTooLarge(Exception):
    """Outcome enumeration exceeds the cap."""


def _radius(beta, convert=Fraction):
    """beta as an exact Fraction (a float is the binary rational it is), or
    as a float with convert=float; every public small ball takes it here,
    before any work, so a negative radius never reaches an engine."""
    beta = convert(beta)
    if beta < 0:
        raise ValueError("beta must be >= 0")
    return beta


@dataclass(frozen=True)
class LinearForm:
    """sum_i a_i (x_i + f_i)."""

    coefficients: Tuple[Fraction, ...]
    shifts: Tuple[Fraction, ...] = ()

    def __post_init__(self):
        coeffs = tuple(Fraction(a) for a in self.coefficients)
        shifts = tuple(Fraction(f) for f in self.shifts) if self.shifts else \
            tuple(Fraction(0) for _ in coeffs)
        if len(shifts) != len(coeffs):
            raise ValueError("shifts must match coefficients")
        if not coeffs:
            raise ValueError("form needs at least one coefficient")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "shifts", shifts)

    @property
    def n(self) -> int:
        return len(self.coefficients)


@dataclass(frozen=True)
class QuadraticForm:
    """sum_ij a_ij (x_i + f_i)(x_j + f_j) with a_ij = a_ji exactly."""

    matrix: Tuple[Tuple[Fraction, ...], ...]
    shifts: Tuple[Fraction, ...] = ()

    def __post_init__(self):
        mat = tuple(tuple(a if type(a) is Fraction else Fraction(a) for a in row)
                    for row in self.matrix)
        n = len(mat)
        if not n:
            raise ValueError("form needs at least one row")
        if any(len(row) != n for row in mat):
            raise ValueError("matrix must be square")
        for i in range(n):
            for j in range(i + 1, n):
                if mat[i][j] != mat[j][i]:
                    raise ValueError(f"matrix not symmetric at ({i},{j})")
        shifts = tuple(Fraction(f) for f in self.shifts) if self.shifts else \
            tuple(Fraction(0) for _ in range(n))
        if len(shifts) != n:
            raise ValueError("shifts must match dimension")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "shifts", shifts)

    @property
    def n(self) -> int:
        return len(self.matrix)


@dataclass(frozen=True)
class SmallBallEstimate:
    """rho = sup_a P(|form - a| <= beta), with the attaining center."""

    rho: Union[Fraction, float]
    beta: Union[Fraction, float]
    method: str
    ci_halfwidth: float
    witness_center: Union[Fraction, float]

    def __post_init__(self):
        if not (0 <= float(self.rho) <= 1 + 1e-15):
            raise ValueError(f"rho {self.rho} outside [0, 1]")
        if self.method == "exact" and self.ci_halfwidth != 0:
            raise ValueError("exact estimates carry no confidence interval")


# ---------------------------------------------------------------------------
# exact engine: integer-scaled atom distributions


def _aggregate_np(vals: np.ndarray, cnts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of vals, each with the sum of its counts,
    in the dtypes of vals and cnts, which is a stack of limb rows (module
    docstring) summed row by row, or one row.

    Counting accumulates each row into an array indexed by value - min
    with one np.bincount.  It needs int64 values and counts (the values of
    both engines stay below 2**61 in absolute value, so max - min fits),
    and its float64 weights are exact only while each row of the call sums
    below 2**53, which a float64 sum tells exactly.  It beats a stable
    sort and reduceat while the span is under 8 per value aggregated (1.1x
    to 2.3x at 8, 1.8x to 3.3x at 4 and 2.4x to 9.7x at 1, for 100 to
    10**6 uniform random values; timeit, 2-vCPU VM), and that bound also
    caps the count array at 8 entries per value.  Sparse spans and object
    values are sorted.  Every count is positive, so a value is present
    exactly when some row's accumulated count is nonzero, and both give
    the same values and counts."""
    if vals.dtype == cnts.dtype == np.int64:
        lo = vals.min()
        if vals.max() - lo < 8 * len(vals) and \
                (cnts.sum(axis=-1, dtype=np.float64) < _FLOAT_EXACT).all():
            at = vals - lo
            acc = np.array([np.bincount(at, weights=row) for row in cnts.reshape(-1, len(vals))])
            at = np.flatnonzero(acc.any(axis=0))
            return at + lo, acc[:, at].astype(np.int64).reshape(cnts.shape[:-1] + at.shape)
    order = np.argsort(vals, kind="stable")
    sv, sc = vals[order], cnts[..., order]
    starts = np.r_[0, np.flatnonzero(np.diff(sv)) + 1]
    return sv[starts], np.add.reduceat(sc, starts, axis=-1)


@dataclass
class _ScaledDist:
    """Integer atoms: value = vals[k] * scale, mass = count k / ctotal, with
    count k = sum_r cnts[r, k] << 16 r, each row of cnts summing below 2**62."""

    vals: np.ndarray        # sorted ascending, unique
    cnts: np.ndarray        # (rows, len(vals)) int64 limbs, each count positive
    scale: Fraction         # positive lattice unit
    ctotal: int


def _limbs(total: int) -> int:
    """How many limbs hold any count up to total."""
    return (total.bit_length() - 1) // _LIMB_BITS + 1


def _carry(limbs: np.ndarray) -> np.ndarray:
    """limbs carried in place, each below 2**_LIMB_BITS but the top row,
    which keeps the rest: the same counts."""
    for low, high in zip(limbs, limbs[1:]):
        high += low >> _LIMB_BITS
        low &= _LIMB_MASK
    return limbs


def _limb_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The carried limb rows of the broadcast products of the counts of a
    and b (limb rows first), one product per pair of limbs: both are carried
    in the rows every product needs, so no limb product passes the top row."""
    rows = len(a)
    if rows == 1:
        return a * b
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.int64)
    for r in range(rows):
        for s in range(rows - r):
            out[r + s] += a[r] * b[s]
    return _carry(out)


def _limb_dist(vals: np.ndarray, limbs: np.ndarray, scale: Fraction, ctotal: int,
               bound: int) -> _ScaledDist:
    """The atoms vals with the linear engine's limb rows, each limb at most
    bound: the rows themselves while none can sum to 2**62 (row r sums to
    at most ctotal >> 16 r), else a carried copy in every limb ctotal needs."""
    if min(ctotal, bound * len(vals)) >= _LIMB_ROOM:
        limbs = _carry(np.pad(limbs, ((0, _limbs(ctotal) - len(limbs)), (0, 0))))
    return _ScaledDist(vals, limbs, scale, ctotal)


def _partial_sums(coeffs: Sequence[Fraction], law: AtomicLaw,
                  cap: int) -> Iterator[Callable[[], _ScaledDist]]:
    """The exact distributions of a_1 x_1 + ... + a_k x_k for k = 1..n in
    turn, by sequential convolution of int64 limb counts on the dense
    lattice or the sparse support (module docstring).  Each is built when
    its yielded function is called and may hold the dense layout's counts,
    which it updates in place, so it must be built and read before the
    generator advances.  The layout and the value dtype follow from all n
    steps.  The dense array never outgrows the cap, so AtomBlowup is a
    sparse-layout event."""
    if not isinstance(law, AtomicLaw):
        raise ValueError("an exact small ball needs atomic laws")
    _, ints, unit, counts, total = law._lattice
    # the steps a_k x on their lattice: primitive coefficients times atoms
    (a_ints,), a_unit = lattice([coeffs])
    step_ints, scale = [[a * v for v in ints] for a in a_ints], a_unit * unit
    val_bound = sum(max(abs(x) for x in row) for row in step_ints) + 1
    vtype = np.int64 if val_bound < _INT64_SAFE else object
    # each count as its nonzero limb digits (atom, limb, digit); atom 0's
    # lowest digit comes first even if it is 0
    digits = [(j, d, (c >> _LIMB_BITS * d) & _LIMB_MASK)
              for j, c in enumerate(counts) for d in range(_limbs(c))]
    terms = digits[:1] + [t for t in digits[1:] if t[2]]
    weight = sum(c for _, _, c in terms)
    top_digit = max(d for _, d, _ in terms)
    if weight * _LIMB_MASK > _LIMB_ROOM:
        raise ValueError("the law's counts are too large for int64 limbs")
    span = sum(max(row) - min(row) for row in step_ints)
    dense = span + 1 <= min(cap, math.prod(len(set(row)) for row in step_ints))
    if dense:   # every sum lies on lo + stride * Z
        stride = math.gcd(*(v - ints[0] for v in ints)) or 1
        cnts = np.zeros((_limbs(total ** len(coeffs)), span // stride + 1), dtype=np.int64)
        cnts[0, 0], live, lo = 1, 1, 0
    else:
        vals, cnts = np.zeros(1, dtype=vtype), np.ones((1, 1), dtype=np.int64)
    rows = bound = ctotal = 1
    for row in step_ints:
        # Every limb stays <= bound <= 2**62, so no sum overflows int64: a
        # step multiplies the bound by weight, and the limbs carry (each
        # then below 2**_LIMB_BITS) only when that could pass 2**62.
        if bound * weight > _LIMB_ROOM:
            rows = _limbs(ctotal)
            if dense:
                _carry(cnts[:rows, :live])
            else:
                cnts = _carry(np.pad(cnts, ((0, rows - len(cnts)), (0, 0))))
            bound = _LIMB_MASK
        bound *= weight
        ctotal *= total
        rows = min(_limbs(ctotal), rows + top_digit)    # the limbs in use
        if dense:
            base = min(row)
            offs = [(v - base) // stride for v in row]
            o, c0 = offs[0], terms[0][2]
            for r in range(rows - 1, -1, -1):   # top down: row r reads itself and rows below
                cur = cnts[r]
                old = cur[:live].copy()     # the live counts, for the atoms past the first
                if o or c0 != 1:    # atom 0's lowest digit, in place
                    cur[o:o + live] = old if c0 == 1 else old * c0
                    cur[:o] = 0
                for j, d, c in terms[1:]:
                    if d <= r:
                        part = cnts[r - d, :live] if d else old
                        cur[offs[j]:offs[j] + live] += part if c == 1 else part * c
            live += (max(row) - base) // stride
            lo += base
            yield functools.partial(_lattice_dist, cnts[:rows, :live], lo, stride, vtype,
                                    scale, ctotal, bound)
            continue
        parts = np.zeros((rows, len(vals), len(row)), dtype=np.int64)
        for j, d, c in terms:
            part = cnts[:rows - d]
            parts[d:d + len(part), :, j] += part * c
        vals = (vals[:, None] + np.array(row, dtype=vtype)[None, :]).ravel()
        vals, cnts = _aggregate_np(vals, parts.reshape(rows, -1))
        if len(vals) > cap:
            raise AtomBlowup(f"{len(vals)} atoms exceed cap {cap}")
        yield functools.partial(_limb_dist, vals, cnts, scale, ctotal, bound)


def _lattice_dist(cnts: np.ndarray, lo: int, stride: int, vtype, scale: Fraction,
                  ctotal: int, bound: int) -> _ScaledDist:
    """The atoms of limb counts cnts on the lattice lo, lo + stride, ..."""
    at = np.flatnonzero(cnts.any(axis=0))
    return _limb_dist(at.astype(vtype) * stride + lo,
                      cnts if len(at) == cnts.shape[1] else cnts[:, at], scale, ctotal, bound)


def _linear_sum_dist(coeffs: Sequence[Fraction], law: AtomicLaw, cap: int) -> _ScaledDist:
    """Exact distribution of sum_i a_i x_i: the last of the partial sums,
    the only one built."""
    for make in _partial_sums(coeffs, law, cap):
        pass
    return make()


def _window_scan(vals: np.ndarray, cnts: np.ndarray, width):
    """The fullest closed window [v, v + width] anchored at a value v of the
    ascending array vals, whose entries weigh the counts of the limb rows
    cnts, each row summing below 2**62: (its weight as an int, the lowest
    and the highest value it holds), the first such window from the left.

    Anchoring at values attains the sup over all windows: sliding a window
    right until its left edge hits a value never loses weight.  The window
    totals of each row, carried, rank the windows from the top row down.
    """
    rights = np.searchsorted(vals, vals + width, side="right")
    totals = np.empty(cnts.shape, dtype=np.int64)
    prefix = np.zeros(len(vals) + 1, dtype=np.int64)
    for row, out in zip(cnts, totals):      # one row's prefix sums at a time
        np.cumsum(row, out=prefix[1:])
        np.subtract(prefix.take(rights), prefix[:-1], out=out)
    _carry(totals)
    j = int(np.argmax(totals[-1]))
    if len(totals) > 1:     # of the windows tied so far, the fullest one row down
        best = np.flatnonzero(totals[-1] == totals[-1, j])
        for row in totals[-2::-1]:
            part = row[best]
            best = best[part == part.max()]
        j = int(best[0])
    weight = sum(int(row[j]) << _LIMB_BITS * r for r, row in enumerate(totals))
    return weight, vals[j], vals[rights[j] - 1]


def _exact_estimate(dist: _ScaledDist, beta: Fraction, shift=Fraction(0)) -> SmallBallEstimate:
    """The window scan at W = floor(2 * beta / scale), exact because atoms
    are integers.  The center reported is the midpoint of the extreme
    captured atoms, which the closed window around it still covers."""
    span = int(dist.vals[-1]) - int(dist.vals[0])
    width = min(math.floor(2 * beta / dist.scale), span)   # wider windows cover everything
    best, lo, hi = _window_scan(dist.vals, dist.cnts, width)
    return SmallBallEstimate(Fraction(best, dist.ctotal), beta, "exact", 0.0,
                             Fraction(int(lo) + int(hi), 2) * dist.scale + shift)


def linear_small_ball_exact(form: LinearForm, law: AtomicLaw, beta,
                            cap: int = ATOM_CAP) -> SmallBallEstimate:
    """Exact sup_a P(|sum a_i (x_i + f_i) - a| <= beta) for an atomic law."""
    beta = _radius(beta)
    shift = sum((a * f for a, f in zip(form.coefficients, form.shifts) if f), Fraction(0))
    return _exact_estimate(_linear_sum_dist(form.coefficients, law, cap), beta, shift)


def _mc_estimate(draw, beta, trials: int, seed: int) -> SmallBallEstimate:
    """Monte Carlo small ball of a form from `trials` values, drawn in
    chunks keyed (seed, chunk) by draw(rng, size): the window scan of the
    sorted values at width 2*beta, with the DKW half-width
    sqrt(ln(2/delta) / (2 trials)) at delta = 0.05."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    beta = _radius(beta, float)
    vals = np.empty(trials, dtype=np.float64)
    for ci, start, stop in chunk_bounds(trials):
        vals[start:stop] = draw(substream(seed, ci), stop - start)
    vals.sort(kind="stable")
    hits, lo, hi = _window_scan(vals, np.ones((1, trials), dtype=np.int64), 2 * beta)
    ci_half = math.sqrt(math.log(2 / DKW_DELTA) / (2 * trials))
    return SmallBallEstimate(hits / trials, beta, "monte_carlo", ci_half,
                             0.5 * (float(lo) + float(hi)))


def linear_small_ball_mc(form: LinearForm, sampler: Law, beta, trials: int,
                         seed: int) -> SmallBallEstimate:
    """Monte Carlo sup_a P(|sum a_i (x_i + f_i) - a| <= beta)."""
    a = np.array([float(c) for c in form.coefficients])
    shift = float(sum(float(c) * float(f) for c, f in zip(form.coefficients, form.shifts)))
    return _mc_estimate(lambda rng, size: sampler.sample_values(rng, (size, form.n)) @ a + shift,
                        beta, trials, seed)


# ---------------------------------------------------------------------------
# quadratic and bilinear enumeration


def _coordinates(law: AtomicLaw, shifts: Sequence[Fraction]):
    """Per-coordinate shifted atom values (x + f_i) on one integer lattice,
    each with the law's integer counts and their total, and the lattice
    unit: the law's own lattice when every shift is 0, else one lattice
    row per distinct shift."""
    if not isinstance(law, AtomicLaw):
        raise ValueError("an exact small ball needs atomic laws")
    values, ints, unit, counts, total = law._lattice
    distinct = list(set(shifts))
    if distinct == [0]:
        rows = {0: ints}
    else:
        zs, unit = lattice([[v + f for v in values] for f in distinct])
        rows = dict(zip(distinct, zs))
    return [(rows[f], counts, total) for f in shifts], unit


def _outcome_table(coords, one: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Every outcome of independent coordinates, each (values, limb rows of
    its counts, count total), as a row of values, with the product of its
    counts in carried limb rows, as many as the count 1 has in `one`."""
    sizes = [len(vals) for vals, _, _ in coords]
    Z = np.empty(sizes + [len(coords)])
    cnts = one.reshape([len(one)] + [1] * len(coords))
    for i, (vals, limbs, _) in enumerate(coords):
        axis = [1] * len(coords)
        axis[i] = -1
        Z[..., i] = np.array(vals, dtype=np.float64).reshape(axis)
        cnts = _limb_product(cnts, limbs.reshape([len(one)] + axis))
    return Z.reshape(math.prod(sizes), len(coords)), cnts.reshape(len(one), -1)


def _blocks(A: np.ndarray) -> List[np.ndarray]:
    """The ascending coordinates of each connected block of the coupling
    graph of A, in which i and j are coupled when a_ij or a_ji != 0; a
    coordinate that no entry touches is in no block."""
    coupled = A != 0
    coupled |= coupled.T
    reach = coupled | np.eye(len(A), dtype=bool)
    while True:     # paths of twice the length, until no path is added
        wider = reach @ reach
        if np.array_equal(wider, reach):
            break
        reach = wider
    root = reach.argmax(axis=1)     # the least coordinate of each block
    touched = coupled.any(axis=1)
    return [np.flatnonzero(touched & (root == r))
            for r in np.flatnonzero(touched & (root == np.arange(len(A))))]


def _aggregate_rows(rows: int, width: int, piece) -> Tuple[np.ndarray, np.ndarray]:
    """_aggregate_np over the rows x width (values, limb counts) that
    piece(part) gives for slices part of the rows, aggregated at most 2**21
    at a time; the counts come out carried."""
    step = max(1, (1 << 21) // width)
    pieces = [_aggregate_np(*piece(slice(start, start + step)))
              for start in range(0, rows, step)]
    vals, cnts = pieces[0] if len(pieces) == 1 else \
        _aggregate_np(*(np.concatenate(part, axis=-1) for part in zip(*pieces)))
    return vals, _carry(cnts)


def _block_dist(A: np.ndarray, coords, one: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of z^T A z over one block of coordinates,
    with their counts in the limb rows of `one`, by meet in the middle:
    x = z[:h], y = z[h:] at h = len(coords) // 2 (module docstring)."""
    h = len(coords) // 2
    X, cx = _outcome_table(coords[:h], one)
    Y, cy = _outcome_table(coords[h:], one)
    qx = np.einsum("ti,ti->t", X @ A[:h, :h], X)
    qy = np.einsum("ti,ti->t", Y @ A[h:, h:], Y)
    B = A[:h, h:] + A[h:, :h].T

    def piece(part):
        vals = (X[part] @ B) @ Y.T
        vals += qx[part, None]
        vals += qy
        return vals.astype(np.int64).ravel(), \
            _limb_product(cx[:, part, None], cy[:, None]).reshape(len(one), -1)
    return _aggregate_rows(len(X), len(Y), piece)


def _split_enumeration(a_int: List[List[int]], coords, scale: Fraction,
                       cap: int) -> _ScaledDist:
    """Exact distribution of z^T A z over independent integer coordinates,
    each (values, counts, count total): each block of the coupling graph
    enumerated apart and the block distributions convolved, with the cap
    and the float-exactness bound judged on the whole form (module
    docstring)."""
    outcomes = math.prod(len(vals) for vals, _, _ in coords)
    if outcomes > cap:
        raise EnumerationTooLarge(f"{outcomes} outcomes exceed cap {cap}")
    zmax = [max(abs(v) for v in vals) for vals, _, _ in coords]
    val_bound = sum(zi * sum(abs(a) * zj for a, zj in compress(zip(row, zmax), row))
                    for row, zi in zip(a_int, zmax)) + 1
    if val_bound >= _FLOAT_EXACT:
        raise EnumerationTooLarge(
            "scaled values too large for exact vectorized enumeration")
    A = np.asarray(a_int, dtype=np.float64)
    blocks = _blocks(A)
    # an untouched coordinate leaves every value as it is: its counts are
    # left out of the counts and of their total alike
    ctotal = math.prod(coords[i][2] for block in blocks for i in block)
    rows = 1 if ctotal < _INT64_SAFE else _limbs(ctotal)   # one row of whole counts, or limbs
    limbs = {counts: np.array([[c >> _LIMB_BITS * r & (_LIMB_MASK if r < rows - 1 else -1)
                                for c in counts] for r in range(rows)], dtype=np.int64)
             for counts in {counts for _, counts, _ in coords}}     # the top row keeps the rest
    coords = [(vals, limbs[counts], total) for vals, counts, total in coords]
    one = np.eye(rows, 1, dtype=np.int64)   # the count 1
    vals, cnts = np.zeros(1, dtype=np.int64), one
    for k, block in enumerate(blocks):
        bv, bc = _block_dist(A[np.ix_(block, block)], [coords[i] for i in block], one)
        vals, cnts = (bv, bc) if not k else _aggregate_rows(len(vals), len(bv), lambda part: (
            (vals[part, None] + bv).ravel(),
            _limb_product(cnts[:, part, None], bc[:, None]).reshape(rows, -1)))
    return _ScaledDist(vals, cnts, scale, ctotal)


def quadratic_small_ball_exact(form: QuadraticForm, law: AtomicLaw, beta,
                               cap: int = ATOM_CAP) -> SmallBallEstimate:
    """Exact sup_a P(|sum a_ij (x_i+f_i)(x_j+f_j) - a| <= beta) by full enumeration."""
    beta = _radius(beta)
    a_int, ga = lattice(form.matrix)
    coords, gz = _coordinates(law, form.shifts)
    return _exact_estimate(_split_enumeration(a_int, coords, ga * gz * gz, cap), beta)


def quadratic_small_ball_mc(form: QuadraticForm, sampler: Law, beta, trials: int,
                            seed: int) -> SmallBallEstimate:
    """Monte Carlo counterpart of quadratic_small_ball_exact."""
    return _mc_matrix_form(form, sampler, None, beta, trials, seed)


def _mc_matrix_form(form: QuadraticForm, law_x: Law, law_y, beta, trials: int,
                    seed: int) -> SmallBallEstimate:
    """Monte Carlo small ball of (x + f)^T A (y + f); law_y None takes y = x,
    the quadratic form."""
    A = np.array([[float(a) for a in row] for row in form.matrix])
    f = np.array([float(x) for x in form.shifts])

    def draw(rng, size):
        X = law_x.sample_values(rng, (size, form.n)) + f
        Y = X if law_y is None else law_y.sample_values(rng, (size, form.n)) + f
        return np.einsum("ti,ij,tj->t", X, A, Y)

    return _mc_estimate(draw, beta, trials, seed)


def bilinear_small_ball(form: QuadraticForm, law_x: Law, law_y: Law, beta,
                        method: str = "exact", trials: int = 10 ** 5,
                        seed: int = 0, cap: int = ATOM_CAP) -> SmallBallEstimate:
    """sup_a P(|sum a_ij (x_i+f_i)(y_j+f_j) - a| <= beta), x and y independent."""
    if method == "exact":
        return _bilinear_exact(form, law_x, law_y, _radius(beta), cap)
    if method == "mc":
        return _mc_matrix_form(form, law_x, law_y, beta, trials, seed)
    raise ValueError(f"unknown method {method!r}")


def _bilinear_exact(form: QuadraticForm, law_x: AtomicLaw, law_y: AtomicLaw,
                    beta: Fraction, cap: int) -> SmallBallEstimate:
    """x^T A y is z^T [[0, A], [0, 0]] z on z = (x, y); each side keeps
    its own lattice unit."""
    n = form.n
    a_int, ga = lattice(form.matrix)
    cx, gzx = _coordinates(law_x, form.shifts)
    cy, gzy = _coordinates(law_y, form.shifts)
    joint = [[0] * n + row for row in a_int] + [[0] * (2 * n)] * n
    return _exact_estimate(_split_enumeration(joint, cx + cy, ga * gzx * gzy, cap), beta)


# ---------------------------------------------------------------------------
# truncated products over suffixes


def suffix_smallball_factors(u: Sequence, law: AtomicLaw, beta, n0: int,
                             cap: int = ATOM_CAP) -> List[Fraction]:
    """rho_beta^(i)(u) = sup_a P(|x_i u_i + ... + x_{n0} u_{n0} - a| <= beta), i = 1..n0.

    One pass from the end: the suffix sums are the partial sums of the
    reversed coefficients, each scanned as the convolution reaches it.  All
    suffixes share the lattice of u_1..u_{n0}; rho is exact on any lattice
    that holds the atoms."""
    beta = _radius(beta)
    u = [Fraction(x) for x in u]
    if not 1 <= n0 <= len(u):
        raise ValueError("need 1 <= n0 <= len(u)")
    factors = [_exact_estimate(make(), beta).rho
               for make in _partial_sums(u[n0 - 1::-1], law, cap)]
    return factors[::-1]


def truncated_product_bound(u: Sequence, law: AtomicLaw, beta, n0: int,
                            cap: int = ATOM_CAP) -> Fraction:
    """Product of the suffix small-ball factors over i = 1..n0.

    Upper-bounds the probability that a vector stays nearly orthogonal to
    n0 exposed rows.
    """
    return math.prod(suffix_smallball_factors(u, law, beta, n0, cap), start=Fraction(1))


def central_binomial_rho(n: int) -> Fraction:
    """Exact rho for the all-ones form, Bernoulli entries, beta = 0 (even n)."""
    if n % 2:
        raise ValueError("even n required")
    return Fraction(math.comb(n, n // 2), 2 ** n)
