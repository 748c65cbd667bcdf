"""The integer lattice and the multi-modular kernel, against Fraction oracles
that do not use them."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from randsym import exactlinalg
from randsym.exactlinalg import (PRIMES, OutOfPrimes, adjugate, bareiss_det,
                                 cofactor_matrix, exact_rank, exact_ranks, lattice,
                                 primitive, row_echelon_int, rowspace_membership,
                                 trailing_ranks)
from genutil import fraction_det, fraction_rank, membership

P1, P2, P3 = PRIMES[:3]


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.2e9 (bases 2, 3, 5, 7)."""
    if n < 2:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        if n == a:
            return True
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def low_rank(rng, r, c, k, lo=-5, hi=5):
    return (rng.integers(lo, hi + 1, (r, k)) @ rng.integers(lo, hi + 1, (k, c))).tolist()


def on_lattices(rows):
    """Integer rows, then as rationals, floats and integral Fractions whose
    entries share a numerator factor, which the lattice divides out."""
    return [rows, [[F(6 * x, 35) for x in row] for row in rows],
            [[0.75 * x for x in row] for row in rows], [[F(10 * x) for x in row] for row in rows]]


def integral(rows) -> bool:
    return all(F(x).denominator == 1 for row in rows for x in row)


class TestPrimeTable:
    def test_entries_are_primes_between_2_30_and_2_31(self):
        assert all(2 ** 30 < p < 2 ** 31 and is_prime(p) for p in PRIMES)

    def test_largest_primes_below_2_31_descending(self):
        assert list(PRIMES) == sorted(set(PRIMES), reverse=True)
        assert [n for n in range(2 ** 31 - 1, PRIMES[-1] - 1, -1) if is_prime(n)] \
            == list(PRIMES)


class TestLattice:
    @pytest.mark.parametrize("rows, ints, unit", [
        # ints, Fractions and floats (0.75 = 3/4, 0.5 = 1/2) on one lattice
        ([[1, F(1, 2)], [0.75, np.int64(-2)]], [[4, 2], [3, -8]], F(1, 4)),
        ([[6, -9], [F(3, 2)]], [[4, -6], [1]], F(3, 2)),         # content > 1, ragged
        ([[-4, -10]], [[-2, -5]], F(2)),
        ([[F(2, 3), F(4, 5)]], [[5, 6]], F(2, 15)),
        ([[0, 0], [0.0]], [[0, 0], [0]], F(1)),                  # all zero: unit 1
        ([], [], F(1)),
        ([[]], [[]], F(1)),
    ])
    def test_cases(self, rows, ints, unit):
        assert lattice(rows) == (ints, unit)

    def test_exact_on_random_rationals(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            rows = [[F(int(a), int(b)) * int(c) for a, b, c in
                     zip(rng.integers(-50, 50, k), rng.integers(1, 30, k), rng.integers(1, 4, k))]
                    for k in rng.integers(0, 5, rng.integers(1, 4))]
            ints, unit = lattice(rows)
            assert unit > 0
            assert [[x * unit for x in row] for row in ints] == rows
            flat = [x for row in ints for x in row]
            assert all(type(x) is int for x in flat)
            assert math.gcd(*flat) == 1 or (not any(flat) and unit == 1)


class TestPrimitive:
    @pytest.mark.parametrize("vec, want", [
        ((F(1, 2), F(-1, 3), 0), (-3, 2, 0)),
        ((4, -6, 8), (2, -3, 4)),
        ((0.5, -0.25), (-2, 1)),
        ((7,), (1,)),
        ((-3, 0), (1, 0)),
    ])
    def test_cases(self, vec, want):
        assert primitive(vec) == want

    @pytest.mark.parametrize("vec", [(0, 0, 0), (F(0), 0.0), ()])
    def test_zero_vector_raises(self, vec):
        with pytest.raises(ValueError):
            primitive(vec)


class TestRank:
    def test_matches_fraction_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(150):
            r, c = (int(x) for x in rng.integers(1, 8, 2))
            for rows in on_lattices(low_rank(rng, r, c, int(rng.integers(0, min(r, c) + 1)))):
                assert exact_rank(rows) == fraction_rank(rows, c)

    def test_rank_vanishing_mod_first_primes(self):
        # full rank over Q, rank 1 modulo P1 and P2
        assert exact_rank([[P1 * P2, 0], [0, 1]]) == 2
        assert exact_rank([[P1, P1 * P2], [P1 * P2, P1 * P2 * P2 + P1 * P3]]) == 2

    def test_entries_above_2_63(self):
        big = [[2 ** 64 + 1, 2 ** 64], [2 ** 64, 2 ** 64 - 1]]
        assert exact_rank(big) == 2
        assert exact_rank([[2 ** 70, 3 * 2 ** 70], [2 ** 71, 6 * 2 ** 70]]) == 1

    def test_fraction_entries(self):
        rows = [[F(1, 2), F(1, 3), F(1, 4)], [F(3, 2), 1, F(3, 4)], [F(1, 7), 0, 2]]
        assert exact_rank(rows) == fraction_rank(rows, 3) == 2

    def test_degenerate_shapes(self):
        assert exact_rank([]) == 0
        assert exact_rank([[]]) == 0
        assert exact_rank([[0, 0, 0], [0, 0, 0]]) == 0
        assert exact_rank([[0]]) == 0 and exact_rank([[-3]]) == 1
        assert exact_rank([[1, 2, 3], [2, 4, 6]]) == 1
        assert exact_rank([[1, 2], [3, 4], [5, 6]]) == 2

    def test_stack_matches_single_matrices(self, monkeypatch):
        rng = np.random.default_rng(5)
        stack = np.array([low_rank(rng, 6, 6, int(k)) for k in rng.integers(0, 7, 40)])
        want = [fraction_rank(m.tolist(), 6) for m in stack]
        assert exact_ranks(stack).tolist() == want
        monkeypatch.setattr(exactlinalg, "_CHUNK", 50)      # several chunks
        assert exact_ranks(stack).tolist() == want

    def test_out_of_primes_is_loud(self):
        huge = 2 ** 4000
        assert exact_rank([[huge]]) == 1        # full rank needs no certificate
        # a common factor is divided out by the lattice: [[1, 1], [1, 1]]
        assert exact_rank([[huge, huge], [huge, huge]]) == 1
        with pytest.raises(OutOfPrimes):
            exact_rank([[huge, huge + 1], [2 * huge, 2 * huge + 2]])


def bordered(rng, base, atoms, steps: int, count: int, dtype=np.int64) -> np.ndarray:
    """count symmetric matrices: base bordered steps times with rows and
    columns of atoms, prepended as grow_and_track prepends them."""
    n = len(base)
    size = n + steps
    out = np.zeros((count, size, size), dtype=dtype)
    out[:, steps:, steps:] = np.array(base, dtype=dtype)
    for g in range(steps):
        new = np.array(atoms, dtype=dtype)[rng.integers(0, len(atoms), (count, size - g))]
        out[:, g, g:] = out[:, g:, g] = new
    return out


class TestTrailingRanks:
    """Each column of trailing_ranks is exact_ranks of one trailing block."""

    BASE = [[1, 2, 0, 1], [2, 4, 0, 2], [0, 0, 0, 0], [1, 2, 0, 1]]     # rank 1

    def blockwise(self, stack, steps):
        return np.column_stack([exact_ranks(stack[:, g:, g:]) for g in range(steps, -1, -1)])

    @pytest.mark.parametrize("atoms", [(-1, 1), (0, 1, 3), (-2, 0, 5)])
    def test_int64_laws_on_a_nonzero_base(self, atoms, monkeypatch):
        stack = bordered(np.random.default_rng(len(atoms)), self.BASE, atoms, 6, 60)
        want = self.blockwise(stack, 6)
        assert trailing_ranks(stack, 6).tolist() == want.tolist()
        for m, row in zip(stack[:5], want[:5]):
            assert row.tolist() == [fraction_rank(m[g:, g:].tolist(), 10 - g)
                                    for g in range(6, -1, -1)]
        monkeypatch.setattr(exactlinalg, "_CHUNK", 300)     # several chunks
        assert trailing_ranks(stack, 6).tolist() == want.tolist()

    def test_object_entries_beyond_int64(self):
        big = 2 ** 70
        base = [[big, 1, 0], [1, 0, 0], [0, 0, 0]]
        stack = bordered(np.random.default_rng(8), base, (-big, 0, 3), 4, 20, dtype=object)
        want = self.blockwise(stack, 4)
        assert trailing_ranks(stack, 4).tolist() == want.tolist()
        assert want[0].tolist() == [fraction_rank(stack[0, g:, g:].tolist(), 7 - g)
                                    for g in range(4, -1, -1)]

    @pytest.mark.parametrize("base", [[[P1]], [[1, 1], [1, 1 + P1]]])
    def test_rank_below_full_at_the_first_prime(self, base):
        # an entry or a 2 x 2 minor equal to P1: the base block has rank
        # len(base) over Q and less modulo P1, so a further prime must run
        stack = bordered(np.random.default_rng(2), base, (-1, 0, 1), 3, 30)
        got = trailing_ranks(stack, 3)
        assert got[:, 0].tolist() == [len(base)] * 30
        assert got.tolist() == self.blockwise(stack, 3).tolist()
        for m, row in zip(stack[:6], got[:6]):
            n = len(m)
            assert row.tolist() == [fraction_rank(m[g:, g:].tolist(), n - g)
                                    for g in range(3, -1, -1)]

    def test_no_steps_is_exact_ranks(self):
        stack = bordered(np.random.default_rng(3), self.BASE, (-1, 1), 2, 25)
        assert trailing_ranks(stack, 0)[:, 0].tolist() == exact_ranks(stack).tolist()
        assert trailing_ranks(stack[:0], 2).shape == (0, 3)


class TestDeterminant:
    def test_matches_fraction_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(150):
            n = int(rng.integers(1, 8))
            for rows in on_lattices(low_rank(rng, n, n, int(rng.integers(n - 1, n + 1)), -9, 9)):
                det = bareiss_det(rows)
                assert det == fraction_det(rows)
                assert isinstance(det, int) == integral(rows)

    def test_det_vanishing_mod_first_primes(self):
        assert bareiss_det([[P1 * P2, 0], [0, 1]]) == P1 * P2
        # L D L^T with L unit lower triangular: det = det D = -P1 P2 P3
        L = np.array([[1, 0, 0], [5, 1, 0], [-7, 2, 1]], dtype=object)
        D = np.diag(np.array([P1, -P2, P3], dtype=object))
        rows = (L @ D @ L.T).tolist()
        assert bareiss_det(rows) == -P1 * P2 * P3
        assert exact_rank(rows) == 3

    def test_negative_and_big(self):
        assert bareiss_det([[2 ** 64 + 1, 2 ** 64], [2 ** 64, 2 ** 64 - 1]]) == -1
        assert bareiss_det([[0, 1], [1, 0]]) == -1
        assert bareiss_det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
        assert bareiss_det([[-7]]) == -7

    def test_fraction_entries(self):
        det = bareiss_det([[F(1, 2), F(1, 3)], [F(1, 4), F(1, 5)]])
        assert det == F(1, 60) and isinstance(det, F)

    def test_degenerate_shapes(self):
        assert bareiss_det([]) == 1
        assert bareiss_det([[0, 0], [0, 0]]) == 0
        with pytest.raises(ValueError):
            bareiss_det([[1, 2, 3], [4, 5, 6]])

    def test_out_of_primes_is_loud(self):
        assert bareiss_det([[2 ** 4000]]) == 2 ** 4000      # [[1]] on its lattice
        with pytest.raises(OutOfPrimes):
            bareiss_det([[2 ** 4000, 1], [0, 1]])


class TestCofactors:
    def test_minors_match_fraction_oracle(self):
        rng = np.random.default_rng(6)
        for n in (1, 2, 3, 5):
            for rows in on_lattices(rng.integers(-9, 10, (n, n)).tolist()):
                got = cofactor_matrix(rows)
                for i in range(n):
                    for j in range(n):
                        minor = [[rows[a][b] for b in range(n) if b != j]
                                 for a in range(n) if a != i]
                        assert got[i][j] == (-1) ** (i + j) * fraction_det(minor)
                        assert isinstance(got[i][j], int) == (n == 1 or integral(rows))

    def test_adjugate_is_det_times_inverse(self):
        rows = [[F(1, 2), 2, 0], [3, F(-1, 3), 1], [0, 1, 4]]
        adj = adjugate(rows)
        det = fraction_det(rows)
        for i in range(3):
            for j in range(3):
                assert sum(rows[i][k] * adj[k][j] for k in range(3)) == (det if i == j else 0)

    @staticmethod
    def adjugate_oracle(rows):
        n = len(rows)
        return [[(-1) ** (i + j) * fraction_det([[rows[a][b] for b in range(n) if b != i]
                                                 for a in range(n) if a != j])
                 for j in range(n)] for i in range(n)]

    def test_corank_one_adjugate_is_rank_one(self):
        # adj(M) = c v v^T for the kernel vector v, and M adj(M) = adj(M) M = 0
        rows = [[1, 2, 3], [2, 4, 6], [3, 6, 10]]
        adj = adjugate(rows)
        assert fraction_det(rows) == 0 and adj == self.adjugate_oracle(rows)
        v = [2, -1, 0]
        c = F(adj[0][0], v[0] * v[0])
        assert c != 0
        assert adj == [[c * vi * vj for vj in v] for vi in v]
        for i in range(3):
            for j in range(3):
                assert sum(rows[i][k] * adj[k][j] for k in range(3)) == 0
                assert sum(adj[i][k] * rows[k][j] for k in range(3)) == 0

    def test_corank_two_adjugate_vanishes(self):
        rows = [[1] * 3] * 3
        assert adjugate(rows) == self.adjugate_oracle(rows) == [[0] * 3] * 3

    def test_degenerate_shapes(self):
        assert cofactor_matrix([]) == []
        assert cofactor_matrix([[7]]) == [[1]]


def eliminate_by_remainder(a, p, nested=False):
    """The elimination kernel with x % p taken per entry at every step:
    the reference that _eliminate's division-free reduction must match
    bit for bit."""
    B, r, c = a.shape
    layer = np.arange(B)
    flat_a = a.reshape(B, r * c)
    if nested:
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
        if k < last:
            pcol = a[layer, :, j]
            a = (pv[:, None, None] * a - pcol[:, :, None] * prow[:, None, :]) % p[:, None, None]
            flat_a = a.reshape(B, r * c)
    s = len(pivots)
    return (np.array(pivots, np.int64).reshape(s, B).T,
            np.array(flats, np.int64).reshape(s, B).T,
            np.array(pivot_rows, np.int64).reshape(s, B, c).transpose(1, 0, 2))


def prime_major(rng, primes, per, shape, near_top=False):
    """A stack of per layers for each prime in turn, with residues mod
    that prime: random, or p - 1 - {0, 1, 2, 3} (the largest products)."""
    p = np.repeat(np.array(primes, dtype=np.int64), per)
    if near_top:
        a = p[:, None, None] - 1 - rng.integers(0, 4, (len(p),) + shape)
    else:
        a = rng.integers(0, 2 ** 31, (len(p),) + shape) % p[:, None, None]
    return a, p


def runs_of(p) -> list:
    return [int(q) for k, q in enumerate(p.tolist()) if k == 0 or q != p[k - 1]]


class TestKernelReduction:
    """_eliminate reduces each step by one scalar prime per run of layers;
    its outputs are those of x % p, and every caller hands it prime-major
    runs."""

    @pytest.mark.parametrize("shape", [(6, 6), (5, 9), (9, 4), (1, 7), (12, 12)])
    @pytest.mark.parametrize("nested", [False, True])
    @pytest.mark.parametrize("near_top", [False, True])
    def test_matches_remainder_reference(self, shape, nested, near_top):
        rng = np.random.default_rng(sum(shape) + 2 * nested + near_top)
        a, p = prime_major(rng, PRIMES[:4], 5, shape, near_top)
        if nested:      # rank-deficient layers stop early, and zero blocks nest
            a[::3, :, 0] = 0
            a[1::4, 0, :] = 0
        want = eliminate_by_remainder(a.copy(), p, nested)
        got = exactlinalg._eliminate(a.copy(), p, nested)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)

    def test_low_rank_layers_at_the_largest_residues(self):
        rng = np.random.default_rng(11)
        p = np.repeat(np.array(PRIMES[:3], dtype=np.int64), 4)
        a = np.array(low_rank(rng, 8 * 12, 8, 3, -2, 1)).reshape(12, 8, 8)
        a %= p[:, None, None]           # negative entries become p - 1, p - 2, ...
        got = exactlinalg._eliminate(a.copy(), p)
        want = eliminate_by_remainder(a.copy(), p)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert (np.count_nonzero(got[0], axis=1) <= 3).all()

    def test_residues_at_the_int64_extremes(self):
        # x - (x // q) q wraps past -2**63 on the way and lands on x % q
        big = np.iinfo(np.int64)
        row = [big.min, big.max, big.min + 1, -1, 0, 2 ** 62, -2 ** 62]
        p = np.array(PRIMES[:3], dtype=np.int64)
        got = exactlinalg._residues(np.array([[row]] * 3), p)
        assert got.tolist() == [[[x % q for x in row]] for q in PRIMES[:3]]

    @pytest.mark.parametrize("nested", [False, True])
    def test_a_run_across_a_chunk_boundary(self, nested, monkeypatch):
        rng = np.random.default_rng(12)
        a, p = prime_major(rng, PRIMES[:3], 7, (5, 5))
        a[2::5, 3:, :] = 0              # some layers stop before the others
        want = eliminate_by_remainder(a.copy(), p, nested)
        monkeypatch.setattr(exactlinalg, "_CHUNK", 4 * 25)     # runs of 7, chunks of 4
        got = exactlinalg._eliminate_layers(a, p, nested)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @staticmethod
    def recording(monkeypatch):
        seen = []
        real = exactlinalg._eliminate

        def record(a, p, nested=False):
            seen.append(p.copy())
            return real(a, p, nested)
        monkeypatch.setattr(exactlinalg, "_eliminate", record)
        return seen

    def test_determinants_take_one_run_per_prime(self, monkeypatch):
        rng = np.random.default_rng(13)
        stack = rng.integers(-1000, 1001, (6, 12, 12))
        stack[1] = np.array(low_rank(rng, 12, 12, 11, -30, 30))        # det 0
        seen = self.recording(monkeypatch)
        got = exactlinalg._dets(stack)
        (p,) = seen
        m = len(set(p.tolist()))
        assert m >= 2 and runs_of(p) == list(PRIMES[:m])
        assert got == [fraction_det(mat.tolist()) for mat in stack] and got[1] == 0
        seen.clear()
        assert bareiss_det(stack[0].tolist()) == got[0]
        assert runs_of(seen[0]) == list(PRIMES[:len(seen[0])])

    def test_cofactors_take_one_run_per_prime(self, monkeypatch):
        rng = np.random.default_rng(14)
        rows = rng.integers(-1000, 1001, (8, 8)).tolist()
        seen = self.recording(monkeypatch)
        got = cofactor_matrix(rows)
        assert seen and all(len(runs_of(p)) == len(set(p.tolist())) >= 2 for p in seen)
        for i in range(8):
            for j in range(8):
                minor = [[rows[a][b] for b in range(8) if b != j] for a in range(8) if a != i]
                assert got[i][j] == (-1) ** (i + j) * fraction_det(minor)

    @pytest.mark.parametrize("grow", [0, 3])
    def test_further_primes_of_ranks_take_one_run_each(self, grow, monkeypatch):
        rng = np.random.default_rng(15 + grow)
        stack = np.array([low_rank(rng, 12, 12, int(k), -30, 30)
                          for k in rng.integers(8, 13, 10)])
        seen = self.recording(monkeypatch)
        got = trailing_ranks(stack, grow)
        first, more = seen      # every matrix at P1, then the rank-deficient ones
        assert set(first.tolist()) == {P1}
        assert runs_of(more) == list(PRIMES[1:len(runs_of(more)) + 1])
        assert len(runs_of(more)) >= 2
        assert len(more) == len(runs_of(more)) * np.count_nonzero(got[:, -1] < 12)
        for mat, row in zip(stack, got):
            assert row.tolist() == [fraction_rank(mat[g:, g:].tolist(), 12 - g)
                                    for g in range(grow, -1, -1)]


class TestMembershipPaths:
    def setup_method(self):
        rng = np.random.default_rng(9)
        self.V = rng.integers(0, 2, (5, 8)) * 2 - 1
        self.C = rng.integers(-3, 4, (40, 5))

    def test_echelon_is_reduced(self):
        R, J, ranks = row_echelon_int(np.repeat(self.V[None], 2, axis=0), PRIMES[:2])
        assert ranks.tolist() == [5, 5]
        for q in range(2):
            assert (R[q][:, J[q]] == np.eye(5, dtype=np.int64)).all()

    def test_stacked_echelon_forms_are_each_layers_own(self):
        # bases of ranks 1 .. 5, zero-padded into one stack at two primes
        # laid out prime-major, reduce as each basis alone does
        rng = np.random.default_rng(4)
        bases = [np.array(low_rank(rng, 5, 8, k, -3, 3)) for k in range(1, 6)]
        stack = np.array(bases * 2)
        R, J, ranks = row_echelon_int(stack, [P1] * 5 + [P2] * 5)
        for layer, (V, p) in enumerate(zip(bases * 2, [P1] * 5 + [P2] * 5)):
            R1, J1, r1 = row_echelon_int(V[None], [p])
            r = r1[0]
            assert ranks[layer] == r == fraction_rank(V.tolist(), 8)
            assert (R[layer, :r] == R1[0, :r]).all() and not R[layer, r:].any()
            assert (J[layer, :r] == J1[0, :r]).all()

    def test_large_entries_take_the_int64_path(self):
        U = self.C @ self.V * 2 ** 40
        assert membership(self.V, U).all()
        U[:, 0] += 1
        assert not membership(self.V, U).any()

    def test_python_int_vectors(self):
        U = np.array((self.C @ self.V).tolist(), dtype=object) * 2 ** 70
        assert membership(self.V.tolist(), U).all()
        U[:, 0] += 1
        assert not membership(self.V.tolist(), U).any()

    def test_chunks_as_one_call_per_chunk(self, monkeypatch):
        small = self.C @ self.V
        beyond = small * 2 ** 40
        beyond[::2, 0] += 1
        chunks = [small[:25], np.zeros((0, 8), np.int64), beyond,
                  np.array(small[25:].tolist(), dtype=object) * 2 ** 70]
        want = np.concatenate([membership(self.V, c) for c in chunks])
        big = 15 * 2 ** 70      # past 2**60: three primes
        asked = []

        def counted(mat, primes):
            asked.append(list(primes))
            return row_echelon_int(mat, primes)

        monkeypatch.setattr(exactlinalg, "row_echelon_int", counted)
        got, = rowspace_membership([self.V], ((0, c) for c in chunks), big)
        assert got.tolist() == want.tolist()
        assert want[:25].all() and not want[25:65:2].any() and want[26:65:2].all()
        # the primes picked once from the bound, their echelon forms made once
        assert asked == [[P1, P2, P3]]
        assert [a.shape for a in rowspace_membership([self.V], iter([]), big)] == [(0,)]

    def test_chunks_of_several_bases(self, monkeypatch):
        # chunks tagged with their basis are tested against that basis
        # alone, in one echelon call for all the bases
        rng = np.random.default_rng(12)
        other = np.array(low_rank(rng, 6, 8, 2, -2, 2))
        bases = [self.V, other, []]
        members = [self.C @ self.V, rng.integers(-2, 3, (40, 6)) @ other,
                   np.zeros((3, 8), np.int64)]
        chunks = [(b, U[:20]) for b, U in enumerate(members)] + \
            [(b, U[20:]) for b, U in enumerate(members)] + [(0, members[1])]
        asked = []
        monkeypatch.setattr(exactlinalg, "row_echelon_int",
                            lambda stack, primes: asked.append(len(stack)) or
                            row_echelon_int(stack, primes))
        got = rowspace_membership(bases, iter(chunks), 15)
        assert asked == [3]
        assert [g.tolist() for g in got] == [[True] * 40 + membership(self.V, members[1]).tolist(),
                                            [True] * 40, [True] * 3]
        assert not membership(self.V, members[1]).all()

    def test_rank_drop_takes_a_further_round(self, monkeypatch):
        # [[1, 0, 0], [0, P1, 0]] has rank 2 but rank 1 mod P1: its bound asks
        # for two primes, P1 is no good, so a second round takes P3; the
        # other basis needs one prime and is done after the first round
        bases = [[[1, 0, 0], [0, P1, 0]], [[1, 1, 0], [1, -1, 0]]]
        U = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]])
        asked = []
        monkeypatch.setattr(exactlinalg, "row_echelon_int",
                            lambda stack, primes: asked.append(list(primes)) or
                            row_echelon_int(stack, primes))
        got = rowspace_membership(bases, [(0, U), (1, U)], 1)
        assert asked == [[P1, P1, P2], [P3]]
        assert [g.tolist() for g in got] == [[True, True, False, True]] * 2

    def test_float_chunks_under_a_bound(self, monkeypatch):
        # given a bound on every entry, the primes are picked from it once,
        # and float64 chunks of integers answer as their int64 copies do:
        # tested as floats while that is exact, as int64 past the guard
        # (entries near 2**27, n = 8 and p/2 multiply past 2**52)
        small = self.C @ self.V                 # entries at most 3 * 5
        wide = small * 2 ** 23
        wide[::2, 0] += 1
        tests = []
        for name in ("_float_test", "_grouped_test"):
            real = getattr(exactlinalg._SpanMod, name)
            monkeypatch.setattr(exactlinalg._SpanMod, name,
                                lambda self, U, *rest, name=name, real=real:
                                tests.append((name, U.dtype.kind)) or real(self, U, *rest))
        for ints, big, test in ((small, 15, ("_float_test", "f")),
                                (wide, 15 * 2 ** 23 + 1, ("_grouped_test", "i"))):
            want = membership(self.V, ints)
            asked, tests[:] = [], []
            with monkeypatch.context() as m:
                m.setattr(exactlinalg, "row_echelon_int",
                          lambda stack, primes: asked.append(primes) or
                          row_echelon_int(stack, primes))
                got, = rowspace_membership(
                    [self.V], ((0, c.astype(np.float64)) for c in (ints[:15], ints[15:])), big)
            assert got.tolist() == want.tolist() and len(asked) == 1
            assert set(tests) == {test}
        assert not want[::2].any() and want[1::2].all()
        with pytest.raises(ValueError, match="integers"):
            rowspace_membership([self.V], [(0, small.astype(np.float32))], 15)

    def test_empty_and_zero_basis(self):
        U = np.array([[0, 0, 0], [1, 0, 0]])
        assert membership([], U).tolist() == [True, False]
        assert membership([[0, 0, 0]], U).tolist() == [True, False]


def span_of(V, p=P1):
    """The prepared span mod p of one integer basis."""
    R, J, k = row_echelon_int(np.asarray(V, dtype=np.int64)[None], [p])
    return exactlinalg._SpanMod(R[0], J[0], int(k[0]), p)


def signs_and_members(rng, V, count=300, planted=60):
    """Random +-1 rows, then integer combinations of the rows of V."""
    signs = rng.integers(0, 2, (count, V.shape[1])) * 2 - 1
    return np.concatenate([signs, rng.integers(-2, 3, (planted, len(V))) @ V])


class TestSieve:
    """_SpanMod.contains drops the rows with u (K w) != 0 mod p after one
    matrix-vector product and takes only the others to the full test."""

    @staticmethod
    def products(monkeypatch):
        """(rows, columns) of each test product, in order."""
        made = []
        for name in ("_float_test", "_grouped_test"):
            real = getattr(exactlinalg._SpanMod, name)
            monkeypatch.setattr(exactlinalg._SpanMod, name,
                                lambda self, U, M, *rest, real=real:
                                made.append((len(U), M.shape[1])) or real(self, U, M, *rest))
        return made

    @staticmethod
    def oracle(V, U):
        rank = fraction_rank(V.tolist(), V.shape[1])
        return [fraction_rank(V.tolist() + [u.tolist()], V.shape[1]) == rank for u in U]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sieve_matches_the_full_test(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        V = rng.integers(0, 2, (2 + seed, 8)) * 2 - 1
        U = signs_and_members(rng, V)
        span = span_of(V)
        free = span.K.shape[1]
        made = self.products(monkeypatch)
        got = span.contains(U, 2 * len(V))
        monkeypatch.undo()
        assert got.tolist() == span._float_test(U, span.K).tolist() == self.oracle(V, U)
        assert got[300:].all() and not got[:300].all()
        # every row meets the sieve, only its survivors (here the members)
        # the full test
        assert free >= 2 and made == [(360, 1), (int(got.sum()), free)]

    def test_int64_rows_match_the_full_test(self):
        # entries past the float guard take the grouped int64 products in
        # both the sieve and the full test
        rng = np.random.default_rng(8)
        V = rng.integers(0, 2, (4, 8)) * 2 - 1
        U = signs_and_members(rng, V) * 2 ** 40
        span = span_of(V)
        got = span.contains(U, 2 ** 43)
        assert got.tolist() == span._grouped_test(U, span.K, 2 ** 43).tolist()
        assert got.tolist() == self.oracle(V, U)

    def test_rank_zero_and_full_rank(self, monkeypatch):
        rng = np.random.default_rng(3)
        U = rng.integers(-3, 4, (50, 6))
        U[::5] = 0
        made = self.products(monkeypatch)
        zero = span_of(np.zeros((2, 6)))           # only the zero vector is a member
        assert zero.contains(U, 3).tolist() == (~U.any(axis=1)).tolist()
        assert made == [(50, 1), (10, 6)]
        made.clear()
        full = span_of(np.triu(np.ones((6, 6))))   # rank 6: everything is a member
        assert full.K.shape == (6, 0)
        assert full.contains(U, 3).all()
        assert made == [(50, 0)]                    # no sieve before a test of no column

    def test_one_free_column_skips_the_sieve(self, monkeypatch):
        rng = np.random.default_rng(4)
        V = np.triu(np.ones((5, 6), np.int64))     # rank 5 in 6 columns
        U = signs_and_members(rng, V, 40, 20)
        span = span_of(V)
        made = self.products(monkeypatch)
        got = span.contains(U, 10)
        assert span.K.shape == (6, 1) and made == [(60, 1)]
        assert got.tolist() == self.oracle(V, U)

    def test_false_positive_is_rejected(self, monkeypatch):
        # weights chosen so that one non-member u passes the sieve: with
        # x = u K != 0 mod p, w = (x_j, -x_i) on two columns i, j makes
        # u K w = 0 mod p; the full test must still reject u
        rng = np.random.default_rng(6)
        V = rng.integers(0, 2, (3, 8)) * 2 - 1
        U = signs_and_members(rng, V, 40, 10)
        want = self.oracle(V, U)
        u = want.index(False)
        x = U[u] @ span_of(V).K % P1
        i, j = np.flatnonzero(x)[:2]
        w = [0] * len(x)
        w[i], w[j] = int(x[j]), int(-x[i] % P1)
        monkeypatch.setattr(exactlinalg, "_sieve_weights", lambda m: tuple(w))
        span = span_of(V)
        assert int(U[u] @ span.c[:, 0]) % P1 == 0
        made = self.products(monkeypatch)
        got = span.contains(U, 6)
        assert got.tolist() == want
        members = sum(want)
        assert made == [(50, 1), (made[1][0], 5)] and made[1][0] > members
