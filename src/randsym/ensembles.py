"""Random symmetric matrices M = F + X and their measurements.

The upper triangle of X (diagonal included) is iid from an entry law;
draws are keyed by seed.  A sample comes in one of two forms, from one
index draw: sample_symmetric gives float arrays, which the spectral
functions take, and exact_sample (rational atomic laws only) the exact
rows of the same matrix, which exact rank, determinant, cofactor and
growth work takes, over the rationals by fraction-free elimination.
sample_symmetric takes one seed or a block of them; grow_and_track and
subspace_membership_mc take a sequence of seeds only.  Subspace
membership (the Odlyzko bound) is decided exactly too, a block of k's at
a time, against one stacked echelon form of their bases per prime, the
primes picked once from the largest lattice atom.  Spectral quantities
use the symmetric eigendecomposition: for symmetric matrices the
singular values are the |eigenvalues|, so sigma_n = min |lambda| and
kappa = sigma_1 / sigma_n.

Monte Carlo works on stacks: sample_symmetric given a sequence of seeds
returns a (T, n, n) float stack, each matrix drawn as its seed alone
would draw it, and spectral_summaries summarizes a stack with one
np.linalg.eigvalsh call, the one eigensolver.  Callers keep the entries
of all stacks in flight at once (one per lane of detconc.keyed_spectra)
within _STACK_ENTRIES = 2^16, so memory does not grow with the number of
trials or lanes.  The cap gives way where it would leave lanes a stack
that numpy solves holding the GIL (stack size x n <= 500).

one_blas_thread pins the OpenBLAS that numpy bundles to one thread for a
block, since from n = 208 up the eigenvalues depend on its thread count.
Without a bundled OpenBLAS (numpy built against Accelerate or a system
BLAS) there is nothing to pin and the thread count is left alone.
"""

from __future__ import annotations

import ctypes
import glob
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, List, Optional, Sequence, Union

import numpy as np

from .exactlinalg import (adjugate, bareiss_det, exact_rank as _rank,
                          lattice, rowspace_membership, trailing_ranks)
from .laws import AtomicLaw, Law, atom_bound_holds
from .streams import StreamBlock, chunk_bounds, substream


# entries per stack: the grown integer matrices of grow_and_track, the
# float matrices of all the lanes of a block of keyed Monte Carlo trials
# (lanes draw more when this cap would leave a stack that numpy solves
# with the GIL held; see detconc.keyed_spectra)
_STACK_ENTRIES = 1 << 16


class BoundViolation(Exception):
    """Fixed part has an entry above n in absolute value."""


class ConvergenceFailure(Exception):
    """Eigensolver did not converge."""


def _fixed_part(F, n: int) -> Optional[np.ndarray]:
    """F as a checked float array (finite, n x n, symmetric, entries at most
    n); None when there is no fixed part."""
    if F is None:
        return None
    _check_square(F, n)
    F_arr = np.array(F, dtype=np.float64)
    if not np.isfinite(F_arr).all():
        raise ValueError("fixed part must be finite")
    return _symmetric_within(F_arr, n)


def _exact_fixed_part(F, n: int) -> Optional[np.ndarray]:
    """F as an (n, n) object array of ints and Fractions, checked as
    _fixed_part checks it but exactly; None without F."""
    if F is None:
        return None
    _check_square(F, n)
    try:
        f = np.array([[int(x) if isinstance(x, (int, np.integer)) else Fraction(x) for x in row]
                      for row in F], dtype=object)
    except (OverflowError, ValueError):     # Fraction of an inf or a nan
        raise ValueError("fixed part must be finite") from None
    return _symmetric_within(f, n)


def _check_square(F, n: int) -> None:
    if len(F) != n or any(np.shape(row) != (n,) for row in F):
        raise ValueError(f"fixed part must be {n} x {n}")


def _symmetric_within(f: np.ndarray, n: int) -> np.ndarray:
    """f, once it is symmetric with entries at most n in absolute value."""
    if (f != f.T).any():
        raise ValueError("fixed part must be symmetric")
    if np.max(np.abs(f)) > n:
        raise BoundViolation(f"|f_ij| exceeds n = {n}")
    return f


@lru_cache(maxsize=64)
def _mirror(n: int) -> np.ndarray:
    """Flat n x n map into the n(n+1)/2 upper entries (diagonal included)
    in triu_indices order: entries (i, j) and (j, i) both read the
    position of (min(i, j), max(i, j))."""
    iu = np.triu_indices(n)
    pos = np.empty((n, n), dtype=np.int32)
    pos[iu] = pos.T[iu] = np.arange(len(iu[0]))
    pos = pos.ravel()
    pos.flags.writeable = False
    return pos


def _upper_draws(law: Law, n: int, seed) -> np.ndarray:
    """The n(n+1)/2 upper entries of X per seed, row by row, as one row of a
    (T, n(n+1)/2) array: the first draws of substream(seed), atom indices
    under an atomic law and values under any other."""
    rng = seed if isinstance(seed, StreamBlock) else substream(seed)
    m = n * (n + 1) // 2
    draw = law.sample_indices if isinstance(law, AtomicLaw) else law.sample_values
    return draw(rng, m).reshape(-1, m)


def sample_symmetric(law: Law, F, n: int,
                     seed: Union[int, Sequence[int], StreamBlock]) -> np.ndarray:
    """Draw M = F + X as floats; the upper triangle of X (with diagonal) is iid.

    Deterministic in seed: the n(n+1)/2 upper entries, row by row, are the
    first draws of substream(seed).  One seed gives the (n, n) matrix, the
    reference the stacked form is held to; exact_sample gives its exact
    rows.

    Given a sequence of T seeds, or their StreamBlock substream(seeds),
    draws one matrix per seed in one pass (the seeds hashed at once, F
    checked once, one sampler call) and returns them as a (T, n, n) stack,
    matrix t drawn exactly as the single-seed call with seed[t] draws it.
    Callers keep T n^2, summed over the stacks in flight at once, within
    _STACK_ENTRIES, or T at the least stack that numpy's eigvalsh solves
    without the GIL (detconc.keyed_spectra does, each stack a slice of one
    block hashed for the whole trial range).
    """
    F_arr = _fixed_part(F, n)
    vals = _upper_draws(law, n, seed)
    if isinstance(law, AtomicLaw):
        vals = law.values_float()[vals]
    X = np.take(vals, _mirror(n), axis=1).reshape(len(vals), n, n)
    X += 0.0      # a -0.0 draw reads +0.0, as in any sum with a zero matrix
    M = X if F_arr is None else F_arr + X
    return M[0] if isinstance(seed, (int, np.integer)) else M


def exact_sample(law: AtomicLaw, F, n: int, seed: int) -> List[list]:
    """The exact rows of the matrix sample_symmetric(law, F, n, seed) draws,
    from the same index draw.

    X holds the atoms of a rational atomic law (ints when every atom is an
    integer, Fractions otherwise).  F is read exactly and checked before
    the draw, its entries bounded by n: int entries stay ints, Fractions
    stay Fractions and floats are the binary rationals they are.
    """
    if not (isinstance(law, AtomicLaw) and law.is_rational):
        raise ValueError("rational atomic law required")
    if not isinstance(seed, (int, np.integer)):
        raise ValueError(f"exact rows are drawn one seed at a time, got {seed!r}")
    f = _exact_fixed_part(F, n)
    idx, = _upper_draws(law, n, seed)
    as_int = all(v.denominator == 1 for v in law.values)      # Fractions all
    atoms = np.array([int(v) if as_int else v for v in law.values], dtype=object)
    entries = atoms[idx[_mirror(n)]].reshape(n, n)
    return (entries if f is None else f + entries).tolist()


# ---------------------------------------------------------------------------
# spectra


@dataclass(frozen=True)
class SpectralSummary:
    eigenvalues: np.ndarray        # ascending
    sigma_1: float
    sigma_n: float
    kappa: float
    log_abs_det: float
    corank: Optional[int]


@lru_cache(maxsize=None)
def _openblas() -> Optional[ctypes.CDLL]:
    """The OpenBLAS bundled with numpy (ILP64, symbols prefixed scipy_),
    its thread-count calls typed; None when numpy has none."""
    numpy_dir = os.path.dirname(np.__file__)
    pattern = "libscipy_openblas64_*"
    paths = sorted(glob.glob(os.path.join(os.path.dirname(numpy_dir), "numpy.libs", pattern))
                   + glob.glob(os.path.join(numpy_dir, ".dylibs", pattern)))
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
            get_threads = lib.scipy_openblas_get_num_threads64_
            set_threads = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get_threads.restype, get_threads.argtypes = ctypes.c_int, []
        set_threads.restype, set_threads.argtypes = None, [ctypes.c_int]
        return lib
    return None


def blas_pinnable() -> bool:
    """Whether numpy bundles an OpenBLAS, so one_blas_thread can pin its
    thread count."""
    return _openblas() is not None


@contextmanager
def one_blas_thread(pin: bool = True) -> Iterator[None]:
    """The bundled OpenBLAS at one thread inside the block, its old count
    restored after; pin=False, or no bundled OpenBLAS, leaves it alone."""
    lib = _openblas()
    if not pin or lib is None:
        yield
        return
    old = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(old)


def spectral_summaries(stack: np.ndarray) -> List[SpectralSummary]:
    """One summary per matrix of a (T, n, n) stack, from one
    np.linalg.eigvalsh call (it reads the lower triangle); each is reduced
    from its own eigenvalue row, so it equals the summary of that matrix
    alone bit for bit.  No exact corank."""
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError(f"a stack of square matrices is needed, got shape {stack.shape}")
    try:
        lam = np.linalg.eigvalsh(stack)
    except np.linalg.LinAlgError as e:
        raise ConvergenceFailure(str(e)) from e
    absl = np.abs(lam)
    with np.errstate(divide="ignore"):
        logs = np.log(absl)
    out = []
    for row, logs_row, s1, sn in zip(lam, logs, absl.max(axis=-1).tolist(),
                                     absl.min(axis=-1).tolist()):
        kappa = s1 / sn if sn > 0 else math.inf
        log_abs_det = float(np.sum(logs_row)) if sn > 0 else -math.inf
        out.append(SpectralSummary(row, s1, sn, kappa, log_abs_det, None))
    return out


def spectral_summary(m: np.ndarray) -> SpectralSummary:
    """Eigenvalues of a float matrix and the derived sigma_1, sigma_n,
    kappa, log|det|; no exact corank (n - exact_rank gives it)."""
    return spectral_summaries(np.asarray(m, dtype=np.float64)[None])[0]


def exact_rank(rows: Sequence[Sequence]) -> int:
    """Rank over the rationals (fraction-free elimination)."""
    return _rank(rows)


def exact_det(rows: Sequence[Sequence]):
    return bareiss_det(rows)


# ---------------------------------------------------------------------------
# the bordered cofactor identity


@dataclass(frozen=True)
class CofactorIdentity:
    lhs: Union[int, Fraction]
    rhs: Union[int, Fraction]
    equal: bool


def cofactor_expansion_check(m: Sequence[Sequence]) -> CofactorIdentity:
    """Verify det(M) = m11 * det(A) - x^T adj(A) x exactly.

    A is M with the first row and column removed, x the off-diagonal top
    row.  This is the bordered-determinant identity the symmetric
    quadratic expansion folds into.
    """
    rows = [list(r) for r in m]
    n = len(rows)
    if n > 10:
        raise ValueError("exact expansion check is limited to n <= 10")
    lhs = bareiss_det(rows)
    if n == 1:
        return CofactorIdentity(lhs, rows[0][0], lhs == rows[0][0])
    A = [row[1:] for row in rows[1:]]
    x = rows[0][1:]
    adj = adjugate(A)
    quad = sum(x[i] * adj[i][j] * x[j] for i in range(n - 1) for j in range(n - 1))
    det_a = sum(A[0][j] * adj[j][0] for j in range(n - 1))     # Laplace, first row
    rhs = rows[0][0] * det_a - quad
    return CofactorIdentity(lhs, rhs, lhs == rhs)


# ---------------------------------------------------------------------------
# rank growth under symmetric bordering


@dataclass(frozen=True)
class GrowthStep:
    size: int
    new_rank: int
    jumped_by_2: bool


def grow_and_track(rows: Sequence[Sequence], law: AtomicLaw, steps: int,
                   seeds: Sequence[int]) -> List[List[GrowthStep]]:
    """Border the exact matrix M with fresh symmetric rows and columns,
    once per seed, tracking exact rank; one list of steps per seed.

    Each step prepends an independent first row and column (diagonal
    entry plus one entry per old row), drawn from substream (seed, step),
    and records the new exact rank and whether it rose by 2.  The draws
    do not depend on the ranks, so every step is drawn first: the (seed,
    step) keys of a stack are hashed in one block, and step t is drawn for
    every seed of the stack in one sampler call.  The matrix after step t
    is the trailing block of the final one, so one elimination of the
    final matrix ranks every step (exactlinalg.trailing_ranks).
    """
    seeds = np.asarray(seeds)
    if seeds.ndim != 1:
        raise ValueError("seeds must be a sequence")
    if not (isinstance(law, AtomicLaw) and law.is_rational):
        raise ValueError("rational atomic law required")
    if steps < 0:
        raise ValueError(f"steps must be at least 0, got {steps}")
    n, size = len(rows), len(rows) + steps
    # one lattice makes M and the atoms integers; the rank is unchanged
    (atoms, *base), _ = lattice([law.values, *rows])
    atoms, base = np.array(atoms, dtype=object), np.array(base, dtype=object).reshape(n, n)
    try:
        atoms, base = atoms.astype(np.int64), base.astype(np.int64)
    except OverflowError:       # entries beyond int64 stay Python ints
        pass
    per = max(1, _STACK_ENTRIES // (size * size))
    out: List[List[GrowthStep]] = []
    for c0 in range(0, len(seeds), per):
        chunk = seeds[c0:c0 + per]
        c = len(chunk)
        # the keys step by step: (chunk[i], t) at t * c + i
        streams = substream(np.tile(chunk, steps), np.repeat(np.arange(steps), c))
        grown = np.zeros((c, size, size), dtype=base.dtype)
        grown[:, steps:, steps:] = base
        for t in range(steps):
            g = steps - 1 - t
            new = atoms[law.sample_indices(streams[t * c:(t + 1) * c], n + t + 1)]
            grown[:, g, g:] = grown[:, g:, g] = new
        ranks = trailing_ranks(grown, steps).tolist()
        if ranks[0][0] > n - 2:
            raise ValueError(f"rank {ranks[0][0]} > n - 2 = {n - 2}: nothing to grow")
        out += [[GrowthStep(size=n + t + 1, new_rank=r[t + 1], jumped_by_2=r[t + 1] == r[t] + 2)
                 for t in range(steps)] for r in ranks]
    return out


# ---------------------------------------------------------------------------
# near-kernel vectors


@dataclass(frozen=True)
class NearKernel:
    u: np.ndarray
    residuals: np.ndarray          # |<u, row_i>| sorted descending
    lambda_min: float


def near_kernel_vector(m: np.ndarray) -> NearKernel:
    """Unit eigenvector of the smallest |eigenvalue| of a float matrix, with
    its row residuals."""
    mat = np.asarray(m, dtype=np.float64)
    try:
        lam, vec = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as e:
        raise ConvergenceFailure(str(e)) from e
    j = int(np.argmin(np.abs(lam)))
    u = vec[:, j]
    res = np.sort(np.abs(mat @ u))[::-1]
    return NearKernel(u=u, residuals=res, lambda_min=float(lam[j]))


# ---------------------------------------------------------------------------
# subspace membership Monte Carlo (the Odlyzko bound)


@dataclass(frozen=True)
class MembershipResult:
    n: int
    k: int
    trials: int
    freq: float
    se: float
    bound: float
    hits: int


def check_atom_bound(law: AtomicLaw, c3: float) -> None:
    """ValueError unless laws.atom_bound_holds: only then does Odlyzko's
    (max_a P(xi = a))^(n - k) give the bound (sqrt(1 - c3))^(n - k)."""
    if not atom_bound_holds(law, c3):
        raise ValueError(f"c3 = {c3}: the largest atom mass {law.max_atom_mass} "
                         f"exceeds sqrt(1 - c3)")


def subspace_membership_mc(law: AtomicLaw, n: int, ks: Sequence[int], trials: int,
                           seeds: Sequence[int], c3: float = 0.5) -> List[MembershipResult]:
    """Frequency of a random row landing in the span of k earlier rows, for
    each k of a block ks, keyed by its own seed s_k of `seeds`.

    H_k is the span of k iid law vectors (drawn once from (s_k, 0));
    membership of each trial vector is decided exactly over the
    rationals.  The reference bound is (sqrt(1 - c3))^(n - k) (check_atom_bound).

    The block's streams are keyed as streams.substream blocks: the bases
    from (seeds, 0), and chunk ci of 4096 trials from (seeds, 1 + ci),
    each k's chunk drawn, tested by rowspace_membership against its own
    basis and dropped before the next is drawn.  Every basis of the block
    is put in echelon form in one stack per round of primes, the primes
    picked once from the largest lattice atom.  A chunk is built from its
    uniforms as the float64 lattice values of AtomicLaw.lattice_values, the
    array the span test multiplies; a law with lattice atoms beyond 2**52
    is drawn as int64 atom values instead, or Python ints past int64.
    """
    if not law.is_rational:
        raise ValueError("rational atomic law required")
    ks = list(ks)
    if not all(1 <= k <= n for k in ks):
        raise ValueError("need 1 <= k <= n")
    if len(seeds) != len(ks):
        raise ValueError("need one seed per k")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    check_atom_bound(law, c3)
    if not ks:
        return []
    seeds = np.asarray(seeds, dtype=np.int64)
    atoms = law._lattice[1]
    big = max(map(abs, atoms))
    vals_int = np.array(atoms, dtype=np.int64 if big < 2 ** 63 else object)
    bases = [vals_int[law.sample_indices(rng, (k, n))]
             for k, rng in zip(ks, substream(seeds, 0))]

    def chunks():       # one chunk of trial vectors in memory at a time
        for ci, start, stop in chunk_bounds(trials, 4096):
            size = (stop - start, n)
            for b, rng in enumerate(substream(seeds, 1 + ci)):
                yield b, law.lattice_values(rng, size) if big <= 2 ** 52 else \
                    vals_int[law.sample_indices(rng, size)]

    out = []
    for k, member in zip(ks, rowspace_membership(bases, chunks(), big)):
        hits = int(np.count_nonzero(member))
        freq = hits / trials
        se = math.sqrt(freq * (1 - freq) / trials)
        bound = math.sqrt(1 - c3) ** (n - k)
        out.append(MembershipResult(n=n, k=k, trials=trials, freq=freq, se=se, bound=bound,
                                    hits=hits))
    return out


# ---------------------------------------------------------------------------
# matrix I/O


def write_matrix_text(mat: np.ndarray, path: str) -> None:
    np.savetxt(path, np.asarray(mat, dtype=np.float64), fmt="%.17g")


def read_matrix_exact(path: str) -> List[List[Fraction]]:
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append([Fraction(tok) for tok in line.split()])
    return out

