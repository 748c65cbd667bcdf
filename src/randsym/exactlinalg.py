"""Exact linear algebra over the rationals.

Rank, determinant, cofactors and row-space membership all run through one
elimination kernel (`_eliminate`).  It works on a numpy int64 stack
(B, r, c) with one prime p < 2**31 per layer: fraction-free elimination
mod p with full pivoting, so every layer steps in lockstep and every
product stays below 2**62.  A step reduces its products as x - (x // q) q,
once for each run of consecutive layers that share one prime q: numpy
divides by a scalar through a precomputed multiplier, where a remainder
by a per-layer array of primes costs one hardware division per entry.
So every caller lays its layers out prime-major, all the layers of a
prime together, which makes at most one run per distinct prime.  Each
answer is certified by the Hadamard bound H, which bounds every minor of
the matrix:

* rank is the largest rank seen over the primes used.  Primes are added
  until their product exceeds H or the rank reaches min(r, c).  Were the
  rank below the true rank at every prime, each prime would divide one
  fixed nonzero minor, so their product would be at most H.  The kernel
  can also take its pivots inside the smallest trailing block [g:, g:]
  whose residual is nonzero, so one elimination ranks every nested
  trailing block of a matrix (`trailing_ranks`, the bordered matrices of
  rank growth); each block is certified as a matrix of its own.
* the determinant is rebuilt by the Chinese remainder theorem from primes
  whose product exceeds 2H, as the symmetric residue.
* a vector lies in a row space when its residue against the basis
  vanishes at primes that see the full rank of the basis and whose
  product exceeds H([basis; vector]).  `rowspace_membership` takes a
  block of bases, any number of chunks of vectors, each tagged with its
  basis, and a bound on every entry, and picks the primes once from that
  bound.  The bases are zero-padded into one stack and put in echelon
  form by one `row_echelon_int` call per round of primes; a basis whose
  Hadamard bound asks for more primes takes them in the same call, and
  one whose rank rose at a later prime in a further round.  Each echelon
  form is prepared as a kernel matrix K, so a chunk is tested by the
  product U K, after a sieve: one fixed combination c = K w of its
  columns drops, after one matrix-vector product U c, every vector with
  u c != 0 mod p, and only the survivors take the full product.

Matrices are lists of lists (or arrays) of ints, Fractions or floats
(taken as the binary rationals they are).  Every exact engine of the
package (this kernel, small balls, GAP values, rank growth) puts its
rationals on one integer lattice first: `lattice` writes them as
integers times one positive unit, their rational content, and
`primitive` is a vector on its lattice up to sign.  A matrix of int64
integers is its own lattice; any other matrix is eliminated on its
lattice, and an n x n determinant is scaled back by unit^n, a cofactor
by unit^(n-1).  Entries beyond int64 are reduced mod p in Python.  The
primes come from a fixed table, and a certificate that needs more primes
than it holds raises OutOfPrimes instead of guessing.  kernel_basis
keeps its Fraction RREF.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np


class OutOfPrimes(ArithmeticError):
    """A certificate needs more primes than PRIMES holds."""


Matrix = List[List]

# The 128 largest primes below 2**31, descending.  Each exceeds 2**30, so
# any m of them multiply to more than 2**(30 m).  A literal table: nothing
# is sieved at import.
PRIMES = (
    2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549,
    2147483543, 2147483497, 2147483489, 2147483477, 2147483423, 2147483399,
    2147483353, 2147483323, 2147483269, 2147483249, 2147483237, 2147483179,
    2147483171, 2147483137, 2147483123, 2147483077, 2147483069, 2147483059,
    2147483053, 2147483033, 2147483029, 2147482951, 2147482949, 2147482943,
    2147482937, 2147482921, 2147482877, 2147482873, 2147482867, 2147482859,
    2147482819, 2147482817, 2147482811, 2147482801, 2147482763, 2147482739,
    2147482697, 2147482693, 2147482681, 2147482663, 2147482661, 2147482621,
    2147482591, 2147482583, 2147482577, 2147482507, 2147482501, 2147482481,
    2147482417, 2147482409, 2147482367, 2147482361, 2147482349, 2147482343,
    2147482327, 2147482291, 2147482273, 2147482237, 2147482231, 2147482223,
    2147482121, 2147482093, 2147482091, 2147482081, 2147482063, 2147482021,
    2147481997, 2147481967, 2147481949, 2147481937, 2147481907, 2147481901,
    2147481899, 2147481893, 2147481883, 2147481863, 2147481827, 2147481811,
    2147481797, 2147481793, 2147481673, 2147481629, 2147481571, 2147481563,
    2147481529, 2147481509, 2147481499, 2147481491, 2147481487, 2147481373,
    2147481367, 2147481359, 2147481353, 2147481337, 2147481317, 2147481311,
    2147481283, 2147481269, 2147481263, 2147481247, 2147481209, 2147481199,
    2147481179, 2147481173, 2147481151, 2147481143, 2147481139, 2147481071,
    2147481053, 2147481031, 2147481019, 2147480989, 2147480971, 2147480969,
    2147480957, 2147480941, 2147480927, 2147480921, 2147480899, 2147480897,
    2147480893, 2147480849,
)
_PRIME_BITS = 30
_P = np.array(PRIMES, dtype=np.int64)
# int64 entries per elimination stack; larger stacks run in chunks
_CHUNK = 1 << 16


# ---------------------------------------------------------------------------
# the integer lattice


def lattice(rows: Sequence[Sequence]) -> Tuple[List[List[int]], Fraction]:
    """(int_rows, unit) with rows[i][j] == int_rows[i][j] * unit exactly.

    The unit is the rational content of all the entries: the gcd of their
    numerators over the lcm of their denominators, and 1 when every entry
    is 0.  Dividing by it keeps the integers small: entries +-c become +-1
    whatever c is.  Entries are ints, Fractions or floats (the binary
    rationals they are); rows may differ in length.
    """
    fr = [[x if type(x) is Fraction else Fraction(x) for x in row] for row in rows]
    num = math.gcd(*(x.numerator for row in fr for x in row))
    if not num:
        return [[0] * len(row) for row in fr], Fraction(1)
    den = math.lcm(*(x.denominator for row in fr for x in row))
    return [[x.numerator * (den // x.denominator) // num for x in row] for row in fr], \
        Fraction(num, den)


def primitive(vec: Sequence) -> Tuple[int, ...]:
    """vec on its lattice: coprime integers, the last nonzero entry positive."""
    (ints,), _ = lattice([vec])
    last = next((x for x in reversed(ints) if x), 0)
    if not last:
        raise ValueError("zero vector cannot be primitivized")
    return tuple(ints) if last > 0 else tuple(-x for x in ints)


# ---------------------------------------------------------------------------
# the kernel


def _integer_matrix(mat) -> Tuple[np.ndarray, Fraction]:
    """(A, unit) with mat == A * unit: int64 input as it is with unit 1,
    any other matrix on its lattice.  A is int64 when every entry fits,
    else an object array of Python ints."""
    arr = np.asarray(mat)       # int64 only when every entry is an int that fits
    if arr.dtype.kind in "bi" and arr.ndim == 2:
        return arr.astype(np.int64), Fraction(1)
    obj = np.array(mat, dtype=object)      # keeps ints and Fractions exact
    if obj.ndim != 2:
        if obj.size:
            raise ValueError("a matrix needs rows of equal length")
        obj = obj.reshape(len(obj), 0)
    ints, unit = lattice(obj.tolist())
    obj = np.array(ints, dtype=object).reshape(obj.shape)
    try:
        return obj.astype(np.int64), unit
    except OverflowError:
        return obj, unit


def _power(unit: Fraction, k: int):
    """unit^k, an int when it is an integer."""
    p = unit ** k
    return p.numerator if p.denominator == 1 else p


def _log2_lengths(a: np.ndarray, axis: int) -> np.ndarray:
    """log2 of the Euclidean lengths along `axis` of an integer array, each
    taken as at least 1."""
    if a.dtype == object:
        sums = (a * a).sum(axis=axis)
        return np.vectorize(lambda s: 0.5 * math.log2(s) if s > 1 else 0.0,
                            otypes=[float])(sums)
    f = a.astype(np.float64)
    return 0.5 * np.log2(np.maximum((f * f).sum(axis=axis), 1.0))


def _hadamard_bits(a: np.ndarray) -> np.ndarray:
    """log2 of a bound on every minor of each matrix of a (B, r, c) stack.

    A minor is at most the product of the lengths of its rows, hence of
    the rows (or columns) it is cut from, each taken as at least 1.  The
    added bit covers the rounding of the floating-point sums.
    """
    # a minor of order at most s = min(r, c) with entries at most A is at
    # most (sqrt(s) A)**s; when that fits one prime, finer sums change nothing
    s = min(a.shape[1:])
    big = max(-int(a.min()), int(a.max()), 1) if a.size else 1
    coarse = s * (0.5 * math.log2(max(s, 1)) + math.log2(big)) + 1.0
    if coarse < _PRIME_BITS - 1:
        return np.full(len(a), coarse)
    return np.minimum(_log2_lengths(a, 2).sum(axis=1), _log2_lengths(a, 1).sum(axis=1)) + 1.0


def _check_primes(count: int) -> int:
    if count > len(PRIMES):
        raise OutOfPrimes(f"the certificate needs {count} primes; the table holds "
                          f"{len(PRIMES)}")
    return count


def _prime_count(bits: np.ndarray) -> int:
    """How many table primes multiply to more than 2**max(bits)."""
    return _check_primes(int(np.max(bits, initial=0.0)) // _PRIME_BITS + 1)


def _runs(p: np.ndarray) -> List[Tuple[int, int, int]]:
    """(start, stop, q) of each run of consecutive layers that share one
    prime q, q a Python int."""
    runs, e = [], 0
    for q, layers in itertools.groupby(p.tolist()):
        s, e = e, e + len(list(layers))
        runs.append((s, e, q))
    return runs


def _reduce(x: np.ndarray, runs, buf: np.ndarray) -> None:
    """x[l] mod p[l] in place, as x - (x // q) q with the scalar prime q
    of each run of p; buf is scratch of x's shape."""
    for s, e, q in runs:
        quot = np.floor_divide(x[s:e], q, out=buf[s:e])
        quot *= q
    x -= buf


def _residues(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """a[l] mod p[l] as a new int64 array; Python ints are reduced before
    the cast."""
    if a.dtype == object:
        return (a % p.astype(object)[:, None, None]).astype(np.int64)
    x = a.astype(np.int64)
    _reduce(x, _runs(p), np.empty_like(x))
    return x


def _eliminate(a: np.ndarray, p: np.ndarray, nested: bool = False):
    """Fraction-free elimination mod p of a (B, r, c) stack, in place.

    a[l] holds residues mod p[l] < 2**31.  Step k takes in every layer a
    largest entry a[i, j] as the pivot (full pivoting) and replaces the
    layer by pivot * a - a[:, j] a[i, :] mod p.  That clears row i and
    column j and scales the remaining rows by the nonzero pivot, so the
    rank drops by exactly one; products of two residues stay below 2**62.
    The step reduces x = pivot * a - a[:, j] a[i, :] as x - (x // q) q,
    once per run of consecutive layers that share a prime q (`_reduce`),
    so callers lay the layers out prime-major: all the layers of one
    prime together, at most one run per distinct prime.  The residues
    are those of x % p, bit for bit.  A layer that has reached zero gets
    zero pivots from then on and stays zero, so no layer needs a mask,
    and the loop ends once every layer is zero.  Returns, for each of the
    s steps taken, the pivots (B, s), the flat indices i * c + j of the
    pivots (B, s) and the rows a[i, :] they eliminated with (B, s, c); a
    layer's rank is its number of nonzero pivots.

    nested=True takes the pivot instead in the smallest trailing block
    [g:, g:] whose residual is nonzero, a largest entry there.  With i and
    j in the block, the update changes the block only through block
    entries, so its residual is what eliminating the block alone would
    give: the pivots lie inside [g:, g:] until its residual is zero, and
    their number is then its rank (`_block_ranks`).  So one elimination
    ranks every trailing block.
    """
    B, r, c = a.shape
    layer = np.arange(B)
    flat_a = a.reshape(B, r * c)
    runs = _runs(p)
    buf = np.empty_like(a)      # the products a[:, j] a[i, :], then the quotients
    if nested:
        # a nonzero entry of the block [g:, g:] with g = min(i, j) outranks
        # every entry outside that block
        boost = (np.minimum.outer(np.arange(r), np.arange(c)).ravel() + 1) << 31
    pivots, flats, pivot_rows = [], [], []
    last = min(r, c) - 1
    for k in range(last + 1):
        flat = (boost * (flat_a > 0) + flat_a if nested else flat_a).argmax(axis=1)
        pv = flat_a[layer, flat]
        if not np.count_nonzero(pv):
            break
        i, j = np.divmod(flat, c)
        prow = a[layer, i]
        pivots.append(pv)
        flats.append(flat)
        pivot_rows.append(prow)
        if k < last:            # the last pivot leaves nothing to eliminate
            np.multiply(a[layer, :, j][:, :, None], prow[:, None, :], out=buf)
            flat_a *= pv[:, None]
            a -= buf
            _reduce(a, runs, buf)
    s = len(pivots)
    return (np.array(pivots, np.int64).reshape(s, B).T,
            np.array(flats, np.int64).reshape(s, B).T,
            np.array(pivot_rows, np.int64).reshape(s, B, c).transpose(1, 0, 2))


def _eliminate_layers(a: np.ndarray, p: np.ndarray, nested: bool = False):
    """_eliminate on a[l] mod p[l] for every layer l, _CHUNK entries at a time."""
    per = max(1, _CHUNK // max(1, a.shape[1] * a.shape[2]))
    if len(a) <= per:
        return _eliminate(_residues(a, p), p, nested)
    parts = [_eliminate(_residues(a[s:s + per], p[s:s + per]), p[s:s + per], nested)
             for s in range(0, len(a), per)]
    steps = max(x[0].shape[1] for x in parts)

    def pad(x):     # a chunk that stopped early took zero pivots from then on
        return np.pad(x, [(0, 0), (0, steps - x.shape[1])] + [(0, 0)] * (x.ndim - 2))

    return tuple(np.concatenate([pad(x[k]) for x in parts]) for k in range(3))


def _block_ranks(pivots: np.ndarray, flats: np.ndarray, c: int, grow: int) -> np.ndarray:
    """(B, grow + 1) ranks mod p of the blocks [grow - t:, grow - t:] from
    a nested elimination: the number of leading nonzero pivots inside
    each block."""
    shell = np.minimum(*np.divmod(flats, c))
    inside = (pivots != 0)[:, :, None] & (shell[:, :, None] >= np.arange(grow, -1, -1))
    return np.logical_and.accumulate(inside, axis=1).sum(axis=1)


def _det_residues(pivots, flats, n: int, p) -> List[int]:
    """det mod p[l] of each n x n layer from its elimination.

    Step k scales the n - k - 1 rows still in play by pivot k, so
    det = sign * prod_k pivot_k ** (k + 2 - n), the sign being that of the
    permutation taking each pivot row to its pivot column.
    """
    if pivots.shape[1] < n:                 # every layer fell below rank n
        return [0] * len(pivots)
    rows, cols = np.divmod(flats, n)
    perm = np.zeros_like(cols)
    perm[np.arange(len(perm))[:, None], rows] = cols
    odd = np.count_nonzero(np.triu(perm[:, :, None] > perm[:, None, :], 1),
                           axis=(1, 2)) % 2
    # scale = prod_{k < n-2} prod_{l <= k} pivot_l = prod_k pivot_k ** (n - 2 - k)
    run = np.ones(len(p), np.int64)
    scale = run.copy()
    for k in range(n - 2):
        run = run * pivots[:, k] % p
        scale = scale * run % p
    out = []
    for last, sc, q, flip in zip(pivots[:, n - 1].tolist(), scale.tolist(), p.tolist(),
                                 odd.tolist()):
        det = last * pow(sc, -1, q) % q if last else 0    # last == 0: rank below n
        out.append(-det % q if flip else det)
    return out


def _crt(residues: Sequence[int], primes: Sequence[int]) -> int:
    """The x with |x| < prod(primes) / 2 and x = r mod p for every pair."""
    x, m = 0, 1
    for r, p in zip(residues, primes):
        x += m * ((r - x) * pow(m, -1, p) % p)
        m *= p
    return x - m if 2 * x > m else x


def _dets(a: np.ndarray) -> List[int]:
    """Exact determinants of a (B, n, n) integer stack, every prime of every
    matrix in one stack."""
    B, n = a.shape[:2]
    if n == 0:
        return [1] * B
    m = _prime_count(_hadamard_bits(a) + 1.0)      # product > 2H
    p = np.repeat(_P[:m], B)                        # prime-major: layer k * B + b
    residues = _det_residues(*_eliminate_layers(np.tile(a, (m, 1, 1)), p)[:2], n, p)
    return [_crt(residues[b::B], PRIMES[:m]) for b in range(B)]


def trailing_ranks(stack, grow: int) -> np.ndarray:
    """Exact ranks of the trailing blocks [grow - t:, grow - t:], t = 0 ..
    grow, of every matrix of a (B, r, c) integer stack (int64, or an object
    array of Python ints), as a (B, grow + 1) array.

    One nested elimination per prime ranks every block of a matrix.  Every
    matrix is eliminated at the first prime; the matrices with a block
    below full size then take, in one stack, the further primes that their
    Hadamard bound asks for, and each block's rank is the largest seen.
    The bound of a matrix bounds every minor of its blocks, so it
    certifies each block as exact_ranks certifies a matrix.
    """
    a = np.asarray(stack)
    B, r, c = a.shape
    t = np.arange(grow + 1)
    full = np.minimum(r - grow + t, c - grow + t)
    if B == 0 or min(r, c) == 0:
        return np.zeros((B, grow + 1), dtype=np.int64)
    pivots, flats, _ = _eliminate_layers(a, np.full(B, PRIMES[0], np.int64), grow > 0)
    ranks = _block_ranks(pivots, flats, c, grow)
    todo = np.flatnonzero((ranks < full).any(axis=1))
    if todo.size:
        m = _prime_count(_hadamard_bits(a[todo]))
        if m > 1:
            # prime-major: layer k * todo.size + b
            pivots, flats, _ = _eliminate_layers(np.tile(a[todo], (m - 1, 1, 1)),
                                                 np.repeat(_P[1:m], todo.size), grow > 0)
            more = _block_ranks(pivots, flats, c, grow).reshape(m - 1, todo.size, grow + 1)
            ranks[todo] = np.maximum(ranks[todo], more.max(axis=0))
    return ranks


def exact_ranks(stack) -> np.ndarray:
    """Exact ranks of a (B, r, c) stack of integer matrices (int64, or an
    object array of Python ints): trailing_ranks with one block, the
    whole matrix."""
    return trailing_ranks(stack, 0)[:, 0]


# ---------------------------------------------------------------------------
# rank, determinant, cofactors


def exact_rank(mat: Sequence[Sequence]) -> int:
    """Rank over the rationals, certified (see the module docstring)."""
    return int(exact_ranks(_integer_matrix(mat)[0][None])[0])


def bareiss_det(mat: Sequence[Sequence]):
    """Exact determinant; int for integer entries, Fraction otherwise.

    Multi-modular: one layer per prime, rebuilt by CRT.
    """
    n = len(mat)
    a, unit = _integer_matrix(mat)
    if a.shape != (n, n):
        raise ValueError("determinant needs a square matrix")
    return _dets(a[None])[0] * _power(unit, n)


def cofactor_matrix(mat: Sequence[Sequence]) -> Matrix:
    """Signed cofactors c_ij = (-1)^(i+j) det(M without row i and column j),
    exact; the n^2 minors are eliminated as one stack."""
    n = len(mat)
    if n == 0:
        return []
    a, unit = _integer_matrix(mat)
    if a.shape != (n, n):
        raise ValueError("cofactors need a square matrix")
    keep = np.array([[k for k in range(n) if k != i] for i in range(n)],
                    dtype=np.int64).reshape(n, n - 1)
    dets: List[int] = []
    per = max(1, _CHUNK // (n * max(1, n - 1) ** 2))     # rows of minors per stack
    for i0 in range(0, n, per):
        rows = keep[i0:i0 + per]
        minors = a[rows[:, None, :, None], keep[None, :, None, :]]
        dets += _dets(minors.reshape(len(rows) * n, n - 1, n - 1))
    scale = _power(unit, n - 1)
    return [[(-1) ** (i + j) * dets[i * n + j] * scale for j in range(n)] for i in range(n)]


def adjugate(mat: Sequence[Sequence]) -> Matrix:
    """adj(M): transpose of the cofactor matrix, exact."""
    n = len(mat)
    c = cofactor_matrix(mat)
    return [[c[j][i] for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# rational kernels (Fraction RREF)


def kernel_basis(rows: Sequence[Sequence], ncols: int) -> List[List[Fraction]]:
    """Canonical rational basis of {x : rows @ x = 0} from the RREF."""
    m = [[Fraction(x) for x in row] for row in rows]
    nr = len(m)
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nr):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -m[ri][fc]
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# row-space membership


def row_echelon_int(stack, primes: Sequence[int]
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduced row echelon form of each layer of an integer stack modulo
    its prime.

    `stack` is (L, r, c), int64 or an object array of Python ints, and
    layer l is reduced mod primes[l]; the layers are laid out prime-major,
    as `_eliminate` asks.  Returns (R, J, ranks): rows R[l, :ranks[l]] are
    the RREF of layer l mod primes[l], with R[l, k, J[l, m]] = 1 if k == m
    and 0 otherwise; the later rows are zero.
    """
    a = np.asarray(stack)
    p = np.asarray(primes, dtype=np.int64)
    P = len(p)
    pivots, flats, R = _eliminate_layers(a, p)
    J = flats % a.shape[2]
    ranks = np.count_nonzero(pivots, axis=1)
    runs = _runs(p)
    # unit pivots (a row past the rank is zero and stays zero); contiguous,
    # so that the rows R[:, :k] of a layer are one block
    inv = np.array([[pow(v, -1, q) if v else 0 for v in row]
                    for row, q in zip(pivots.tolist(), p.tolist())],
                   dtype=np.int64).reshape(pivots.shape)
    R = np.ascontiguousarray(R)
    R *= inv[:, :, None]
    buf = np.empty_like(R)
    _reduce(R, runs, buf)
    # back-substitution: clear column J[:, k] from the rows above row k
    layer = np.arange(P)
    for k in range(R.shape[1] - 1, 0, -1):
        above = R[layer[:, None], np.arange(k)[None, :], J[:, k, None]]
        upper = R[:, :k]
        upper -= above[:, :, None] * R[:, k, None, :]
        _reduce(upper, runs, buf[:, :k])
    return R, J, ranks


@lru_cache(maxsize=None)
def _sieve_weights(m: int) -> Tuple[int, ...]:
    """m fixed weights in [1, PRIMES[-1]), the sieve's combination of the
    kernel columns: drawn once per m from a generator of their own, so
    every run sieves alike and no experiment stream is drawn from."""
    return tuple(np.random.default_rng([0x51E7E, m]).integers(1, PRIMES[-1], m).tolist())


class _SpanMod:
    """The row space mod p of an RREF R[:r] with pivot columns J[:r],
    prepared once for any number of chunks of vectors.

    u lies in the span mod p when its residue u - sum_k u[J[k]] R[k]
    vanishes on the free columns (it vanishes on the pivot columns by
    construction), that is when u K = 0 mod p, K being the (n, n - r)
    kernel matrix: the identity on the free columns and -R[:, free],
    centred in [-p/2, p/2], on the pivot columns.

    A sieve runs first.  For the fixed weights w of `_sieve_weights`, the
    column c = K w mod p (centred) gives s = u c, and u K = 0 implies
    s = 0 mod p, so a row with s != 0 is no member and is dropped after one
    matrix-vector product.  Only the survivors, the members and about a
    1/p share of the others, take the full n - r column test.  When
    n - r <= 1 the sieve would be the test, and it is skipped.
    """

    def __init__(self, R: np.ndarray, J: np.ndarray, r: int, p: int):
        n = R.shape[1]
        self.p, self.half = p, p // 2
        free = np.ones(n, dtype=bool)
        free[J[:r]] = False
        Rf = R[:r][:, free]
        self.K = np.zeros((n, n - r), dtype=np.int64)
        self.K[free] = np.eye(n - r, dtype=np.int64)
        self.K[J[:r]] = np.where(Rf > self.half, p - Rf, -Rf)
        c = self.K.astype(object) @ np.array(_sieve_weights(n - r), dtype=object) % p
        self.c = np.array([x - p if x > self.half else x for x in c.tolist()],
                          dtype=np.int64).reshape(n, 1)

    def contains(self, U: np.ndarray, big: int) -> np.ndarray:
        """Which rows of U, whose entries are integers at most big in size,
        lie in the span mod p.  U is an integer array, or a float64 array
        of integers, tested as it is when the float test is exact
        (n big p/2 < 2**52) and as int64 otherwise."""
        p, half = self.p, self.half
        if U.dtype.kind == "f" and U.shape[1] * big * half >= 2 ** 52:
            U = U.astype(np.int64)
        if U.dtype == object or big > half:
            U = _residues(U[None], np.array([p]))[0]
            U = np.where(U > half, U - p, U)
            big = max(-int(U.min()), int(U.max()), 1)

        def test(V, M):
            if U.shape[1] * big * half < 2 ** 52:
                return self._float_test(V, M)
            return self._grouped_test(V, M, big)

        if self.K.shape[1] <= 1:
            return test(U, self.K)
        member = test(U, self.c)
        rest = np.flatnonzero(member)
        if rest.size:
            member[rest] = test(U[rest], self.K)
        return member

    def _float_test(self, U: np.ndarray, M: np.ndarray) -> np.ndarray:
        # Which rows of U M vanish mod p.  Every partial sum of U M is an
        # integer below n big p/2 < 2**52 in size, so float64 holds X = U M
        # exactly.  An entry x that is k p has |k| < 2**23, so rint(x / p)
        # is k despite rounding, and k p is exact: x == rint(x / p) p
        # exactly when p divides x.
        p = self.p
        X = U.astype(np.float64, copy=False) @ M.astype(np.float64)
        Y = X * (1.0 / p)
        np.rint(Y, out=Y)
        Y *= p
        return (X == Y).all(axis=1)

    def _grouped_test(self, U: np.ndarray, M: np.ndarray, big: int) -> np.ndarray:
        # int64 products, reduced mod p as x - (x // p) p (numpy divides by
        # the scalar p through a multiplier) after every group of terms
        p = self.p
        group = max(1, (1 << 62) // (big * (self.half + 1)))    # terms per exact product
        X = U[:, :group] @ M[:group]
        for s in range(group, U.shape[1], group):
            X -= X // p * p
            X += U[:, s:s + group] @ M[s:s + group]
        X -= X // p * p
        return ~X.any(axis=1)


def _prepared_spans(bases, n: int, size: int) -> List[List[_SpanMod]]:
    """For each basis, the spans it is tested against: its echelon forms at
    primes p where rank_p(basis) = rank(basis), as many as the Hadamard
    bound of the basis with a vector of entries at most `size` appended
    asks for.

    The bases are zero-padded into one (B, k, n) stack, which keeps each
    row space.  A round eliminates, in one row_echelon_int call, every
    basis at the further primes it still needs; a basis whose rank rose at
    a later prime needs more, and takes them in a later round.
    """
    mats = [_integer_matrix(V)[0].reshape(-1, n) for V in bases]
    obj = any(V.dtype == object for V in mats)
    stack = np.zeros((len(mats), max(map(len, mats)), n), dtype=object if obj else np.int64)
    for layer, V in zip(stack, mats):
        layer[:len(V)] = V
    # H([V; u]) <= H(V) * |u|, and |u| <= sqrt(n) max |u_i|
    bits = _log2_lengths(stack, 2).sum(axis=1) + 0.5 * math.log2(n) + math.log2(size) + 1.0
    want = (bits // _PRIME_BITS).astype(int) + 1
    done = [[] for _ in mats]           # (R, J, rank, p) at each prime tried
    while True:
        layers = []                     # (prime index, basis) of this round
        for b, tried in enumerate(done):
            ranks = [form[2] for form in tried]
            more = want[b] - ranks.count(max(ranks, default=0))
            layers += [(q, b) for q in range(len(tried), _check_primes(len(tried) + more))]
        if not layers:
            break
        q, b = np.array(sorted(layers)).T       # prime-major
        R, J, k = row_echelon_int(stack[b], _P[q])
        for l, (ql, bl) in enumerate(zip(q.tolist(), b.tolist())):
            done[bl].append((R[l], J[l], int(k[l]), PRIMES[ql]))
    spans = []
    for tried, m in zip(done, want):
        rank = max(form[2] for form in tried)
        spans.append([_SpanMod(*form) for form in tried if form[2] == rank][:m])
    return spans


def rowspace_membership(bases: Sequence[Sequence[Sequence]], chunks, big: int
                        ) -> List[np.ndarray]:
    """Exact test of which vectors lie in the rational row spaces of bases.

    `bases` is a sequence of rational matrices (k_b, n).  `chunks` is an
    iterable of pairs (b, U), U an array (T, n) of integers at most `big`
    in size to test against basis b: int64, Python ints in an object
    array, or float64 (AtomicLaw.lattice_values), tested in floating point
    as they are wherever _SpanMod's float test is exact.  The answer for
    basis b is the answers of its chunks concatenated in turn.  Each
    vector is reduced against the RREF of its basis modulo primes p at
    which rank_p(basis) = rank(basis).  A nonzero residue at such a prime
    proves the vector is outside the span; a vector is a member once its
    residues vanish at such primes whose product exceeds H([basis;
    vector]), since otherwise a nonzero minor of order rank + 1 would be
    divisible by all of them.  The primes are picked from `big` at the
    first chunk, every basis put in echelon form at them in one stack
    (`_prepared_spans`), and no chunk is scanned; a chunk is dropped
    before the next is drawn.
    """
    size = max(big, 1)
    spans = None
    out = [[] for _ in bases]
    for b, U in chunks:
        U = np.asarray(U)
        if U.dtype.kind in "bi":
            U = U.astype(np.int64, copy=False)
        elif U.dtype not in (object, np.float64):
            raise ValueError("vectors must be integers")
        T, n = U.shape
        if T == 0 or n == 0:
            out[b].append(np.full(T, n == 0))
            continue
        if spans is None:
            spans = _prepared_spans(bases, n, size)
        first, *others = spans[b]
        member = first.contains(U, size)
        for test in others:         # only the members so far
            rest = np.flatnonzero(member)
            if rest.size:
                member[rest] = test.contains(U[rest], size)
        out[b].append(member)
        del U           # freed before the next chunk is drawn
    return [np.concatenate(o) if o else np.zeros(0, dtype=bool) for o in out]
