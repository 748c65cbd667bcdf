"""Shared random-instance generators and Fraction oracles for the test suite.

Everything is driven by seeded numpy generators so failures reproduce.
"""

import bisect
from fractions import Fraction
from itertools import product

import numpy as np

from randsym import Gap, evaluate, is_proper
from randsym.exactlinalg import kernel_basis, rowspace_membership

# verdict lines the acceptance suite registers for the terminal summary
ACCEPTANCE_LINES = []


def random_proper_symmetric_gap(rng: np.random.Generator, max_rank: int = 3,
                                max_volume: int = 10 ** 4) -> Gap:
    """A random proper symmetric GAP of rank <= max_rank, volume <= max_volume."""
    while True:
        r = int(rng.integers(1, max_rank + 1))
        half_caps = {1: 40, 2: 12, 3: 5}[r]
        gens = []
        for _ in range(r):
            num = 0
            while num == 0:
                num = int(rng.integers(-30, 31))
            den = int(rng.integers(1, 7))
            gens.append(Fraction(num, den))
        halves = tuple(int(rng.integers(1, half_caps + 1)) for _ in range(r))
        q = Gap.symmetric(tuple(gens), halves)
        if q.volume <= max_volume and is_proper(q):
            return q


def plant_degenerate_subset(rng: np.random.Generator, q: Gap, max_points: int = 6):
    """Witness points of q lying on a random rational hyperplane through 0.

    Returns (values, witnesses); at least two points, possibly spanning a
    lower-dimensional sublattice (that is the point).
    """
    r = q.rank
    if r == 1:
        k = int(rng.integers(1, q.upper[0] + 1))
        pts = [(0,), (k,)] if rng.random() < 0.5 else [(k,), (-k,), (0,)]
    else:
        while True:
            alpha = [int(a) for a in rng.integers(-3, 4, size=r)]
            if not any(alpha):
                continue
            pts = []
            from itertools import product
            for p in product(*[range(lo, hi + 1) for lo, hi in zip(q.lower, q.upper)]):
                if sum(a * k for a, k in zip(alpha, p)) == 0:
                    pts.append(p)
            if len(pts) >= 2:
                break
        idx = rng.permutation(len(pts))[:max_points]
        pts = [pts[i] for i in sorted(int(i) for i in idx)]
    values = [evaluate(q, p) for p in pts]
    return values, pts


def random_symmetric_int_matrix(rng: np.random.Generator, n: int, lo: int = -9,
                                hi: int = 9) -> list:
    m = rng.integers(lo, hi + 1, size=(n, n))
    m = np.triu(m) + np.triu(m, 1).T
    return [[int(x) for x in row] for row in m]


# ---------------------------------------------------------------------------
# Fraction oracles, independent of the modular kernel in randsym.exactlinalg


def fraction_det(rows) -> Fraction:
    """Determinant by Gaussian elimination over Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return det


def fraction_rank(rows, ncols: int) -> int:
    """ncols minus the dimension of the kernel from the Fraction RREF."""
    return ncols - len(kernel_basis(rows, ncols))


def membership(basis, U):
    """rowspace_membership of one array of integers against one basis,
    bounded by its own largest entry."""
    U = np.asarray(U)
    return rowspace_membership([basis], [(0, U)],
                               max((abs(int(x)) for x in U.flat), default=0))[0]


def brute_force_window(laws, value, beta):
    """Small-ball oracle: enumerate every outcome of independent
    coordinates (coordinate i drawn from laws[i]) with itertools.product in
    Fraction arithmetic and scan closed windows of width 2*beta whose left
    edge sits on an outcome.  Returns (sup mass, witness centre) of the
    first best window from the left, centred between the extreme outcomes
    it holds."""
    outcomes = []
    for atoms in product(*(law.atoms for law in laws)):
        mass = Fraction(1)
        for _, p in atoms:
            mass *= Fraction(p)
        outcomes.append((value([Fraction(v) for v, _ in atoms]), mass))
    outcomes.sort()
    sums = [v for v, _ in outcomes]
    prefix = [Fraction(0)]
    for _, m in outcomes:
        prefix.append(prefix[-1] + m)
    best, center = Fraction(0), None
    for j, v in enumerate(sums):
        r = bisect.bisect_right(sums, v + 2 * Fraction(beta))
        tot = prefix[r] - prefix[j]
        if tot > best:
            best, center = tot, (v + sums[r - 1]) / 2
    return best, center
