"""Random symmetric matrices M = F + X and their measurements.

The upper triangle of X (diagonal included) is iid from an entry law;
draws are keyed by seed.  One seed draws one sample; a rational atomic
law with an exact fixed part gives its exact matrix alongside the
floating mirror, enabling exact rank, cofactor and determinant work over
the rationals (fraction-free elimination).  Subspace membership (the
Odlyzko bound) is decided exactly too, a block of k's at a time, against
one stacked echelon form of their bases per prime, the primes picked once
from the largest lattice atom.  Spectral quantities use the symmetric
eigendecomposition: for symmetric matrices the singular values are the
|eigenvalues|, so sigma_n = min |lambda| and kappa = sigma_1 / sigma_n.

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
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .exactlinalg import (adjugate, bareiss_det, exact_rank as _rank,
                          lattice, rowspace_membership, trailing_ranks)
from .laws import AtomicLaw, Law
from .streams import StreamBlock, chunk_bounds, substream


# entries per stack: the grown integer matrices of grow_and_track, the
# float matrices of all the lanes of a block of keyed Monte Carlo trials
# (lanes draw more when this cap would leave a stack that numpy solves
# with the GIL held; see detconc.keyed_spectra)
_STACK_ENTRIES = 1 << 16


class BoundViolation(Exception):
    """Fixed part exceeds its declared n^gamma entry bound."""


class ConvergenceFailure(Exception):
    """Eigensolver did not converge."""


@dataclass(frozen=True)
class SymmetricSample:
    """M = F + X with X symmetric iid-upper-triangle; exact rows or None."""

    n: int
    matrix: np.ndarray
    exact: Optional[Tuple[Tuple[Union[int, Fraction], ...], ...]]

    def exact_rows(self) -> List[List[Union[int, Fraction]]]:
        if self.exact is None:
            raise ValueError("sample has floating entries only")
        return [list(r) for r in self.exact]


def _exact_fixed(F) -> Optional[np.ndarray]:
    """Exact fixed part as an object array: ints (Python or numpy) stay
    Python ints, Fractions stay Fractions, and floats are taken as the
    binary rationals they are; None if an entry is none of these."""
    rows = []
    for r in F:
        row = []
        for x in r:
            if isinstance(x, (int, np.integer)):
                row.append(int(x))
            elif isinstance(x, Fraction):
                row.append(x)
            elif isinstance(x, (float, np.floating)) and math.isfinite(x):
                row.append(Fraction(float(x)))
            else:
                return None
        rows.append(row)
    return np.array(rows, dtype=object)


def _fixed_part(F, n: int, gamma: float) -> Optional[np.ndarray]:
    """F as a checked float array (finite, n x n, symmetric, entries at most
    n^gamma); None when there is no fixed part."""
    if F is None:
        return None
    F_arr = np.asarray([[float(x) for x in row] for row in F], dtype=np.float64) \
        if not isinstance(F, np.ndarray) else F.astype(np.float64)
    if F_arr.shape != (n, n):
        raise ValueError(f"fixed part must be {n} x {n}")
    if not np.isfinite(F_arr).all():
        raise ValueError("fixed part must be finite")
    if not (F_arr == F_arr.T).all():
        raise ValueError("fixed part must be symmetric")
    bound = float(n) ** float(gamma)
    if np.max(np.abs(F_arr)) > bound:
        raise BoundViolation(f"|f_ij| exceeds n^gamma = {bound}")
    return F_arr


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


def sample_symmetric(law: Law, F, n: int, seed: Union[int, Sequence[int], StreamBlock],
                     gamma: float = 1.0) -> Union[SymmetricSample, np.ndarray]:
    """Draw M = F + X; the upper triangle of X (with diagonal) is iid.

    Deterministic in seed: the n(n+1)/2 upper entries, row by row, are the
    first draws of substream(seed).  One seed gives a SymmetricSample,
    with the exact rational matrix when the law is a rational atomic law
    and F is exact.

    Given a sequence of T seeds, or their StreamBlock substream(seeds),
    draws one matrix per seed in one pass (the seeds hashed at once, F
    checked once, one sampler call) and returns the float matrices as a
    (T, n, n) stack, matrix t drawn exactly as the single-seed call with
    seed[t] draws it.  Callers keep T n^2, summed over the stacks in flight
    at once, within _STACK_ENTRIES, or T at the least stack that numpy's
    eigvalsh solves without the GIL (detconc.keyed_spectra does, each
    stack a slice of one block hashed for the whole trial range).
    """
    F_arr = _fixed_part(F, n, gamma)
    rng = seed if isinstance(seed, StreamBlock) else substream(seed)
    m = n * (n + 1) // 2
    if isinstance(law, AtomicLaw):
        idx = law.sample_indices(rng, m).reshape(-1, m)
        vals_f = law.values_float()[idx]
    else:
        vals_f = law.sample_values(rng, m).reshape(-1, m)
    X = np.take(vals_f, _mirror(n), axis=1).reshape(len(vals_f), n, n)
    X += 0.0      # a -0.0 draw reads +0.0, as in any sum with a zero matrix
    M = X if F_arr is None else F_arr + X
    if not isinstance(seed, (int, np.integer)):
        return M
    exact_rows = None
    if isinstance(law, AtomicLaw) and law.is_rational:
        f_exact = None if F is None else _exact_fixed(F)
        if F is None or f_exact is not None:
            values = [v if isinstance(v, Fraction) else Fraction(v) for v in law.values]
            as_int = all(v.denominator == 1 for v in values)
            atoms = np.array([int(v) if as_int else v for v in values], dtype=object)
            entries = atoms[idx[0][_mirror(n)]].reshape(n, n)
            if f_exact is not None:
                entries = f_exact + entries
            exact_rows = tuple(map(tuple, entries.tolist()))
    return SymmetricSample(n=n, matrix=M[0], exact=exact_rows)


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


def spectral_summary(m: Union[SymmetricSample, np.ndarray]) -> SpectralSummary:
    """Eigenvalues and the derived sigma_1, sigma_n, kappa, log|det|; no
    exact corank (n - exact_rank gives it)."""
    mat = m.matrix if isinstance(m, SymmetricSample) else np.asarray(m, dtype=np.float64)
    return spectral_summaries(mat[None])[0]


def _exact_rows(m: Union[SymmetricSample, Sequence[Sequence]]) -> List[list]:
    """The exact entries of a sample, or the rows of an exact matrix."""
    return m.exact_rows() if isinstance(m, SymmetricSample) else [list(r) for r in m]


def exact_rank(m: Union[SymmetricSample, Sequence[Sequence]]) -> int:
    """Rank over the rationals (fraction-free elimination)."""
    return _rank(_exact_rows(m))


def exact_det(m: Union[SymmetricSample, Sequence[Sequence]]):
    return bareiss_det(_exact_rows(m))


# ---------------------------------------------------------------------------
# the bordered cofactor identity


@dataclass(frozen=True)
class CofactorIdentity:
    lhs: Union[int, Fraction]
    rhs: Union[int, Fraction]
    equal: bool


def cofactor_expansion_check(m: Union[SymmetricSample, Sequence[Sequence]]) -> CofactorIdentity:
    """Verify det(M) = m11 * det(A) - x^T adj(A) x exactly.

    A is M with the first row and column removed, x the off-diagonal top
    row.  This is the bordered-determinant identity the symmetric
    quadratic expansion folds into.
    """
    rows = _exact_rows(m)
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


def grow_and_track(m: Union[SymmetricSample, Sequence[Sequence]], law: AtomicLaw,
                   steps: int, seed: Union[int, Sequence[int]]):
    """Border M, an exact sample or matrix, with fresh symmetric rows and
    columns, tracking exact rank.

    Each step prepends an independent first row and column (diagonal
    entry plus one entry per old row), drawn from substream (seed, step),
    and records the new exact rank and whether it rose by 2.  The draws
    do not depend on the ranks, so every step is drawn first: the (seed,
    step) keys of a stack are hashed in one block, and step t is drawn for
    every seed of the stack in one sampler call.  The matrix after step t
    is the trailing block of the final one, so one elimination of the
    final matrix ranks every step (exactlinalg.trailing_ranks).  Given a
    sequence (or array) of seeds, grows once per seed through the same
    stacks and returns one list of steps per seed.
    """
    rows = _exact_rows(m)
    if not (isinstance(law, AtomicLaw) and law.is_rational):
        raise ValueError("rational atomic law required")
    if steps < 0:
        raise ValueError(f"steps must be at least 0, got {steps}")
    seeds = np.atleast_1d(np.asarray(seed))
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
    return out[0] if isinstance(seed, (int, np.integer)) else out


# ---------------------------------------------------------------------------
# near-kernel vectors


@dataclass(frozen=True)
class NearKernel:
    u: np.ndarray
    residuals: np.ndarray          # |<u, row_i>| sorted descending
    lambda_min: float


def near_kernel_vector(m: Union[SymmetricSample, np.ndarray]) -> NearKernel:
    """Unit eigenvector of the smallest |eigenvalue| with its row residuals."""
    mat = m.matrix if isinstance(m, SymmetricSample) else np.asarray(m, dtype=np.float64)
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
    """ValueError unless the largest atom mass m has m^2 <= 1 - c3 (the rule of
    laws.atom_bound_holds): only then does Odlyzko's (max_a P(xi = a))^(n - k)
    give the bound (sqrt(1 - c3))^(n - k)."""
    if not law.max_atom_mass ** 2 <= 1 - c3:
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


def read_matrix_text(path: str) -> np.ndarray:
    out = np.loadtxt(path, dtype=np.float64)
    return out.reshape(1, 1) if out.ndim == 0 else np.atleast_2d(out)


def read_matrix_exact(path: str) -> List[List[Fraction]]:
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append([Fraction(tok) for tok in line.split()])
    return out

