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
changes the arithmetic silently.

Quadratic and bilinear forms are enumerated over all outcomes, block by
block, by one engine (_form_stack) that takes a stack of forms sharing
their coordinates (one law, the same shifts); a single form is the stack
of one.  The bilinear form is the decoupled form of the proof, x and y
independent with one law and no shifts (they cancel in the decoupling).
Coordinates i and j are coupled when a_ij or a_ji != 0; the connected
blocks of that graph are independent, so the distribution of z^T A z is
the convolution of theirs, and a coordinate that no entry touches is not
enumerated.  The bilinear form x^T A y is
z^T [[0, A], [0, 0]] z on z = (x, y); the mask A_U of the decoupling
check splits it into at least {x_U, y_U^c} and {x_U^c, y_U}, so one check
at n = 5 under the difference law of signs enumerates 2 * 3**5 outcomes
instead of 3**10.  The blocks of every form of the stack are grouped by
the kinds of the coordinates they hold (values and counts), and each
group is enumerated together by meet in the middle (Horowitz-Sahni):
the coordinates split in half, z = (x, y), z^T A z = q_x(x) + q_y(y) +
x^T (A_xy + A_yx^T) y, the outcomes of each half are tabulated once for
the whole stack, and q_x, q_y and the cross term are BLAS products over
the stacked block matrices.  The values of the blocks of a group, then
the outer sums convolving the blocks of each form, are aggregated
together by _aggregate_np, each block or form moved by its own offset
into a value range of its own (_packed), at most 2**21 values at a time;
each form's distribution is then scanned on its own.  The cap and the
float-exactness bound are judged on every whole form before any
enumeration: float64 stays exact because every partial sum is an integer
of absolute value below val_bound = sum |a_ij| max|z_i| max|z_j| + 1 <
2**53 (a coordinate that is always 0 contributes exact zeros); inputs
past that bound, or with more outcomes in all than the cap, raise
EnumerationTooLarge.  The forms of a stack are packed in runs whose
offsets stay below 2**61.  The counts are one row while the largest
count total of the enumerated coordinates stays below 2**61 and carried
16-bit limbs beyond (_limb_product), so float masses such as 0.1 stay
exact.  A law's atoms and masses go on their lattices once per law
object, a form's matrix once per form.

Monte Carlo variants draw from splittable streams keyed (seed, chunk)
and carry a Dvoretzky-Kiefer-Wolfowitz half-width at the 95% level.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Sequence, Tuple, Union

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
_ZERO = Fraction(0)
_TOO_LARGE = "scaled values too large for exact vectorized enumeration"


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
                a, b = mat[i][j], mat[j][i]
                if a is not b and a != b:
                    raise ValueError(f"matrix not symmetric at ({i},{j})")
        shifts = tuple(Fraction(f) for f in self.shifts) if self.shifts else (_ZERO,) * n
        if len(shifts) != n:
            raise ValueError("shifts must match dimension")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "shifts", shifts)

    @property
    def n(self) -> int:
        return len(self.matrix)

    @functools.cached_property
    def _lattice(self) -> Tuple[List[List[int]], Fraction]:
        """The matrix on its integer lattice (exactlinalg.lattice), built
        once per form for the exact engines."""
        return lattice(self.matrix)


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


def _linear_sum_dist(coeffs: Sequence[Fraction], law: AtomicLaw, cap: int) -> _ScaledDist:
    """The exact distribution of a_1 x_1 + ... + a_n x_n, by sequential
    convolution of int64 limb counts on the dense lattice or the sparse
    support (module docstring).  The layout and the value dtype follow
    from all n steps, and the distribution is built once, after the last.
    The dense array never outgrows the cap, so AtomBlowup is a
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
            continue
        parts = np.zeros((rows, len(vals), len(row)), dtype=np.int64)
        for j, d, c in terms:
            part = cnts[:rows - d]
            parts[d:d + len(part), :, j] += part * c
        vals = (vals[:, None] + np.array(row, dtype=vtype)[None, :]).ravel()
        vals, cnts = _aggregate_np(vals, parts.reshape(rows, -1))
        if len(vals) > cap:
            raise AtomBlowup(f"{len(vals)} atoms exceed cap {cap}")
    if dense:   # the atoms of the live counts, on the lattice lo, lo + stride, ...
        cnts = cnts[:rows, :live]
        at = np.flatnonzero(cnts.any(axis=0))
        vals = at.astype(vtype) * stride + lo
        if len(at) < live:
            cnts = cnts[:, at]
    return _limb_dist(vals, cnts, scale, ctotal, bound)


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


def _exact_scan(dist: _ScaledDist, beta: Fraction):
    """(rho, lo, hi): the window scan at W = floor(2 * beta / scale), exact
    because atoms are integers; rho as a Fraction, lo and hi the extreme
    atoms the fullest window captures."""
    span = int(dist.vals[-1]) - int(dist.vals[0])
    width = min(math.floor(2 * beta / dist.scale), span)   # wider windows cover everything
    best, lo, hi = _window_scan(dist.vals, dist.cnts, width)
    return Fraction(best, dist.ctotal), lo, hi


def _exact_estimate(dist: _ScaledDist, beta: Fraction, shift=Fraction(0)) -> SmallBallEstimate:
    """The estimate of _exact_scan.  The center reported is the midpoint of
    the extreme captured atoms, which the closed window around it still
    covers."""
    rho, lo, hi = _exact_scan(dist, beta)
    return SmallBallEstimate(rho, beta, "exact", 0.0,
                             Fraction(int(lo) + int(hi), 2) * dist.scale + shift)


def linear_small_ball_exact(form: LinearForm, law: AtomicLaw, beta) -> SmallBallEstimate:
    """Exact sup_a P(|sum a_i (x_i + f_i) - a| <= beta) for an atomic law."""
    beta = _radius(beta)
    shift = sum((a * f for a, f in zip(form.coefficients, form.shifts) if f), Fraction(0))
    return _exact_estimate(_linear_sum_dist(form.coefficients, law, ATOM_CAP), beta, shift)


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


def _blocks(A: np.ndarray) -> List[List[np.ndarray]]:
    """For each matrix of the stack A, the ascending coordinates of each
    connected block of its coupling graph, in which i and j are coupled
    when a_ij or a_ji != 0; a coordinate that no entry touches is in no
    block."""
    coupled = A != 0
    coupled |= coupled.transpose(0, 2, 1)
    reach = coupled | np.eye(A.shape[-1], dtype=bool)
    while True:     # paths of twice the length, until no path is added
        wider = reach @ reach
        if np.array_equal(wider, reach):
            break
        reach = wider
    root = reach.argmax(axis=-1)    # the least coordinate of each block
    touched = coupled.any(axis=-1)
    lead = touched & (root == np.arange(A.shape[-1]))
    return [[np.flatnonzero(t & (r == k)) for k in np.flatnonzero(ld)]
            for t, r, ld in zip(touched, root, lead)]


def _aggregated(pieces) -> Tuple[np.ndarray, np.ndarray]:
    """_aggregate_np of the (values, limb counts) pieces together, each
    aggregated apart first, so no more values are in flight at once than
    a piece holds; the counts come out carried."""
    parts = [_aggregate_np(vals, cnts) for vals, cnts in pieces]
    vals, cnts = parts[0] if len(parts) == 1 else \
        _aggregate_np(*(np.concatenate(part, axis=-1) for part in zip(*parts)))
    return vals, _carry(cnts)


def _packed(bounds: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """(offsets, edges): value v of segment s, |v| < bounds[s], moves to v +
    offsets[s], in [edges[s], edges[s + 1]); the first segment stays put."""
    b = np.asarray(bounds, dtype=np.int64)
    offsets = 2 * np.cumsum(b) - b - b[0]
    return offsets, offsets - b + 1


def _unpacked(vals: np.ndarray, cnts: np.ndarray, offsets: np.ndarray,
              edges: np.ndarray) -> List[Tuple[np.ndarray, np.ndarray]]:
    """The (values, counts) of each segment of an aggregate of _packed values."""
    cut = [0, *np.searchsorted(vals, edges[1:]).tolist(), len(vals)]
    return [(vals[a:b] - o, cnts[:, a:b]) for a, b, o in zip(cut, cut[1:], offsets.tolist())]


def _group_dists(A: np.ndarray, x_table, y_table,
                 bounds: np.ndarray) -> List[Tuple[np.ndarray, np.ndarray]]:
    """The sorted distinct values of z^T A z with their limb counts for
    every k x k block matrix of the stack A, the blocks alike in their
    coordinates, by meet in the middle (module docstring): x = z[:h] and
    y = z[h:] at h = k // 2, with the outcome tables (values, counts) of
    the halves.  |z^T A z| < bounds[g] for block g.  A piece of the
    enumeration is whole blocks, or x outcomes of one block, 2**21 values
    at most."""
    (X, cx), (Y, cy) = x_table, y_table
    G, h, tx = len(A), X.shape[1], len(X)
    qx = np.einsum("gti,ti->gt", X @ A[:, :h, :h], X).ravel()
    qy = np.einsum("gti,ti->gt", Y @ A[:, h:, h:], Y)
    XB = (X @ (A[:, :h, h:] + A[:, h:, :h].transpose(0, 2, 1))).reshape(G * tx, -1)
    offsets, edges = _packed(bounds)
    step = (1 << 21) // len(Y)          # x outcomes in flight at once
    cut = list(range(0, G * tx, step // tx * tx)) if step >= tx else \
        [g * tx + t for g in range(G) for t in range(0, tx, max(step, 1))]

    def piece(start, stop):
        g0, g1 = start // tx, -(-stop // tx)
        vals = XB[start:stop] @ Y.T
        vals += qx[start:stop, None]
        vals = vals.reshape(g1 - g0, -1, len(Y))
        vals += qy[g0:g1, None]
        vals = vals.astype(np.int64)
        if offsets[g1 - 1]:     # the offsets ascend from 0: all 0 otherwise
            vals += offsets[g0:g1, None, None]
        t0 = start - g0 * tx
        cnts = _limb_product(cx[:, t0:t0 + min(stop - start, tx), None], cy[:, None])
        cnts = cnts.reshape(len(cx), -1)
        return vals.ravel(), cnts if g1 - g0 == 1 else np.tile(cnts, g1 - g0)
    return _unpacked(*_aggregated(piece(a, b) for a, b in zip(cut, cut[1:] + [G * tx])),
                     offsets, edges)


def _convolved(left, right, bounds: Sequence[int]) -> List[Tuple[np.ndarray, np.ndarray]]:
    """The distribution of the sum of left[g] and right[g], both (values,
    limb counts), for every g, whose values stay below bounds[g] in
    absolute value: all outer sums aggregated together, each pair's values
    moved apart (_packed), 2**21 at most in flight."""
    offsets, edges = _packed(bounds)
    lens = np.array([len(v) for v, _ in right])
    g = np.repeat(np.arange(len(left)), [len(v) for v, _ in left])  # the pair of each left value
    lv = np.concatenate([v for v, _ in left]) + offsets[g]
    lc = np.concatenate([c for _, c in left], axis=1)
    rv = np.concatenate([v for v, _ in right])
    rc = np.concatenate([c for _, c in right], axis=1)
    wide, first = lens[g], (np.cumsum(lens) - lens)[g]

    def piece(i):
        w = wide[i]
        li = np.repeat(i, w)
        ri = np.arange(w.sum()) - np.repeat(np.cumsum(w) - w - first[i], w)
        return lv[li] + rv[ri], _limb_product(lc[:, li], rc[:, ri])
    step = max(1, (1 << 21) // int(lens.max()))
    return _unpacked(*_aggregated(piece(np.arange(start, min(start + step, len(lv))))
                                  for start in range(0, len(lv), step)), offsets, edges)


def _floats(ints) -> np.ndarray:
    """Integers as float64; one past the float range is past the
    float-exactness bound too (EnumerationTooLarge)."""
    try:
        return np.asarray(ints, dtype=np.float64)
    except OverflowError:
        raise EnumerationTooLarge(_TOO_LARGE) from None


def _form_stack(A: np.ndarray, coords, scales: Sequence[Fraction],
                cap: int) -> Callable[[], List[_ScaledDist]]:
    """Exact distributions of z^T A z for every integer matrix A of the
    float64 stack A over the same independent integer coordinates, each
    (values, counts, count total), with the lattice unit of each: the
    enumeration as a function, returned once the cap and the
    float-exactness bound are judged on every whole form (module
    docstring)."""
    outcomes = math.prod(len(vals) for vals, _, _ in coords)
    if outcomes > cap:
        raise EnumerationTooLarge(f"{outcomes} outcomes exceed cap {cap}")
    zmax = _floats([max(abs(v) for v in vals) for vals, _, _ in coords])
    bounds = _value_bounds(A, zmax)
    if not (bounds < _FLOAT_EXACT).all():
        raise EnumerationTooLarge(_TOO_LARGE)
    return functools.partial(_enumerate, A, coords, scales, bounds.astype(np.int64), zmax)


def _value_bounds(A: np.ndarray, zmax: np.ndarray) -> np.ndarray:
    """sum_ij |a_ij| zmax_i zmax_j + 1 for each matrix of the stack A: each
    product and partial sum is an integer, exact below 2**53, and float
    rounding is monotone, so a bound at or past 2**53 never comes out
    below it."""
    return np.einsum("...ij,...i,...j->...", np.abs(A), zmax, zmax) + 1


def _runs(costs: Sequence[int]) -> List[List[int]]:
    """Consecutive runs of the indices of costs, each run's costs summing
    to at most 2**61 unless one cost alone passes it."""
    runs, total = [[]], 0
    for i, cost in enumerate(costs):
        if runs[-1] and total + cost > _INT64_SAFE:
            runs.append([])
            total = 0
        runs[-1].append(i)
        total += cost
    return runs


def _enumerate(A: np.ndarray, coords, scales: Sequence[Fraction], bounds: np.ndarray,
               zmax: np.ndarray) -> List[_ScaledDist]:
    """_form_stack's enumeration: the blocks of every form grouped by the
    coordinates they hold, each group's outcome tables built once and its
    blocks enumerated together, then the blocks of each form convolved,
    all forms at once, in runs whose packed values stay below 2**61."""
    blocks = _blocks(A)
    # an untouched coordinate leaves every value as it is: its counts are
    # left out of the counts and of their total alike
    ctotals = [math.prod(coords[i][2] for block in form for i in block) for form in blocks]
    rows = max(1 if t < _INT64_SAFE else _limbs(t) for t in ctotals)  # one row, or limbs
    limbs = {counts: np.array([[c >> _LIMB_BITS * r & (_LIMB_MASK if r < rows - 1 else -1)
                                for c in counts] for r in range(rows)], dtype=np.int64)
             for counts in {counts for _, counts, _ in coords}}     # the top row keeps the rest
    kinds = {}      # coordinates alike in values and counts share a kind
    kind = np.array([kinds.setdefault((tuple(vals), counts), len(kinds))
                     for vals, counts, _ in coords])
    coords = [(vals, limbs[counts], total) for vals, counts, total in coords]
    one = np.eye(rows, 1, dtype=np.int64)   # the count 1
    tables = {}

    def table(idx):
        key = tuple(kind[idx].tolist())
        if key not in tables:
            tables[key] = _outcome_table([coords[i] for i in idx], one)
        return tables[key]

    dists = []
    for run in _runs((2 * bounds + 2 * len(coords)).tolist()):
        groups = {}     # signature -> [(form, block)]
        for f in run:
            for block in blocks[f]:
                groups.setdefault(tuple(kind[block].tolist()), []).append((f, block))
        parts = {f: [] for f in run}
        for members in groups.values():
            form = np.array([f for f, _ in members])
            idx = np.array([block for _, block in members])
            sub = A[form[:, None, None], idx[:, :, None], idx[:, None, :]]
            h = idx.shape[1] // 2
            bnd = _value_bounds(sub, zmax[idx]).astype(np.int64)
            for f, dist in zip(form.tolist(), _group_dists(sub, table(idx[0, :h]),
                                                           table(idx[0, h:]), bnd)):
                parts[f].append(dist)
        cur = {f: ps[0] if ps else (np.zeros(1, dtype=np.int64), one) for f, ps in parts.items()}
        for k in range(1, max(len(ps) for ps in parts.values())):
            due = [f for f in run if len(parts[f]) > k]
            for f, dist in zip(due, _convolved([cur[f] for f in due], [parts[f][k] for f in due],
                                               [bounds[f] for f in due])):
                cur[f] = dist
        dists += [_ScaledDist(*cur[f], scales[f], ctotals[f]) for f in run]
    return dists


def _shared_shifts(forms: Sequence[QuadraticForm]) -> Tuple[Fraction, ...]:
    """The shifts every form of a nonempty stack of one size has."""
    if not forms:
        raise ValueError("a stack needs at least one form")
    sizes = sorted({f.n for f in forms})
    if len(sizes) > 1:
        raise ValueError(f"the forms of a stack must be of one size, got sizes {sizes}")
    shifts = forms[0].shifts
    if any(f.shifts != shifts for f in forms):
        raise ValueError("the forms of a stack must share their shifts")
    return shifts


def _quadratic_stack(forms: Sequence[QuadraticForm], law: AtomicLaw,
                     cap: int) -> Callable[[], List[_ScaledDist]]:
    """_form_stack of quadratic forms sharing their shifts."""
    coords, gz = _coordinates(law, _shared_shifts(forms))
    unit = gz * gz
    return _form_stack(_floats([f._lattice[0] for f in forms]), coords,
                       [f._lattice[1] * unit for f in forms], cap)


def quadratic_small_ball_exact(form: QuadraticForm, law: AtomicLaw, beta) -> SmallBallEstimate:
    """Exact sup_a P(|sum a_ij (x_i+f_i)(x_j+f_j) - a| <= beta) by full enumeration."""
    beta = _radius(beta)
    return _exact_estimate(_quadratic_stack([form], law, ATOM_CAP)()[0], beta)


def quadratic_small_ball_mc(form: QuadraticForm, sampler: Law, beta, trials: int,
                            seed: int) -> SmallBallEstimate:
    """Monte Carlo counterpart of quadratic_small_ball_exact."""
    return _mc_matrix_form(form, sampler, False, beta, trials, seed)


def _mc_matrix_form(form: QuadraticForm, law: Law, bilinear: bool, beta, trials: int,
                    seed: int) -> SmallBallEstimate:
    """Monte Carlo small ball of (x + f)^T A (y + f): y = x, the quadratic
    form, or with bilinear drawn after x from the same stream."""
    A = np.array([[float(a) for a in row] for row in form.matrix])
    f = np.array([float(x) for x in form.shifts])

    def draw(rng, size):
        X = law.sample_values(rng, (size, form.n)) + f
        Y = law.sample_values(rng, (size, form.n)) + f if bilinear else X
        return np.einsum("ti,ij,tj->t", X, A, Y)

    return _mc_estimate(draw, beta, trials, seed)


def _unshifted(form: QuadraticForm) -> None:
    if any(form.shifts):
        raise ValueError("the bilinear small ball takes the decoupled form: shifts must be 0")


def bilinear_small_ball(form: QuadraticForm, law: AtomicLaw, beta) -> SmallBallEstimate:
    """Exact sup_a P(|sum a_ij x_i y_j - a| <= beta) by full enumeration, x
    and y independent with the one law; the form has no shifts."""
    _unshifted(form)
    beta = _radius(beta)
    return _exact_estimate(_bilinear_stack([form], law, ATOM_CAP)()[0], beta)


def bilinear_small_ball_mc(form: QuadraticForm, law: Law, beta, trials: int,
                           seed: int) -> SmallBallEstimate:
    """Monte Carlo counterpart of bilinear_small_ball."""
    _unshifted(form)
    return _mc_matrix_form(form, law, True, beta, trials, seed)


def _bilinear_stack(forms: Sequence[QuadraticForm], law: AtomicLaw, cap: int,
                    keep=None) -> Callable[[], List[_ScaledDist]]:
    """_form_stack of the decoupled forms x^T A y of a stack of forms of one
    size: z^T [[0, A], [0, 0]] z on z = (x, y), all 2n coordinates of the
    law on its own lattice.  The forms' shifts are left out.  Where the
    boolean stack keep is false, a_ij is left out (the mask A_U)."""
    if not forms:
        raise ValueError("a stack needs at least one form")
    n = forms[0].n
    coords, gz = _coordinates(law, (_ZERO,) * (2 * n))
    joint = np.zeros((len(forms), 2 * n, 2 * n))
    joint[:, :n, n:] = _floats([f._lattice[0] for f in forms])
    if keep is not None:
        joint[:, :n, n:] *= keep
    unit = gz * gz
    return _form_stack(joint, coords, [f._lattice[1] * unit for f in forms], cap)


# ---------------------------------------------------------------------------
# the extremal all-ones form


def central_binomial_rho(n: int) -> Fraction:
    """Exact rho for the all-ones form, Bernoulli entries, beta = 0 (even n)."""
    if n % 2:
        raise ValueError("even n required")
    return Fraction(math.comb(n, n // 2), 2 ** n)
