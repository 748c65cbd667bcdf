import math
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

from randsym import (AtomicLaw, BoundViolation, ConvergenceFailure, bernoulli,
                     cofactor_expansion_check, exact_det, exact_rank, exact_sample, gaussian,
                     grow_and_track, lazy_sign, near_kernel_vector, parse_law,
                     sample_symmetric, spectral_summary, subspace_membership_mc, uniform3)
from randsym import exactlinalg
from randsym.ensembles import (blas_pinnable, one_blas_thread, read_matrix_exact,
                               spectral_summaries, write_matrix_text)
from randsym.exactlinalg import exact_rank as rational_rank
from randsym.streams import chunk_bounds, key_seed, substream
from genutil import fraction_det, fraction_rank, membership, random_symmetric_int_matrix

BERN = bernoulli()


class TestSampling:
    def test_one_by_one(self):
        F1 = np.array([[0.5]])
        s = sample_symmetric(BERN, F1, 1, seed=3)
        assert s.shape == (1, 1) and abs((s - F1)[0, 0]) == 1.0

    def test_symmetric_structure_and_reproducibility(self):
        a = sample_symmetric(BERN, None, 3, seed=11)
        b = sample_symmetric(BERN, None, 3, seed=11)
        assert a.shape == (3, 3) and a.dtype == np.float64
        assert (a == b).all()
        assert (a == a.T).all()
        assert set(np.unique(a)) <= {-1.0, 1.0}
        # the exact rows are the same matrix, from the same draws
        assert exact_sample(BERN, None, 3, seed=11) == a.astype(int).tolist()

    def test_fixed_part_bound(self):
        Fbad = np.zeros((3, 3))
        Fbad[0, 1] = Fbad[1, 0] = 3.0 ** 1.0 + 1
        with pytest.raises(BoundViolation):
            sample_symmetric(BERN, Fbad, 3, seed=1)
        with pytest.raises(BoundViolation):
            exact_sample(BERN, Fbad, 3, seed=1)
        # exact_sample holds F to the bound n exactly
        Fbad = [[0, 0, 0], [0, F(3) + F(1, 10 ** 30), 0], [0, 0, 0]]
        assert sample_symmetric(BERN, Fbad, 3, seed=1).shape == (3, 3)
        with pytest.raises(BoundViolation):
            exact_sample(BERN, Fbad, 3, seed=1)

    @pytest.mark.parametrize("fixed, kind", [
        (None, int), (np.eye(3, dtype=int), int), ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], int),
        (np.eye(3), F), ([[F(1, 2)] * 3] * 3, F)])
    def test_exact_entries_keep_their_type(self, fixed, kind):
        # ints (Python or numpy) stay Python ints, Fractions and floats are Fractions
        rows = exact_sample(BERN, fixed, 3, seed=1)
        assert {type(x) for row in rows for x in row} == {kind}
        assert [[float(x) for x in row] for row in rows] == \
            sample_symmetric(BERN, fixed, 3, seed=1).tolist()

    def test_continuous_law_floats_only(self):
        # a continuous law, like an atomic law with irrational atoms, has no exact rows
        for law in (gaussian(), AtomicLaw(((-math.sqrt(2), 0.5), (math.sqrt(2), 0.5)))):
            assert sample_symmetric(law, None, 4, seed=2).shape == (4, 4)
            with pytest.raises(ValueError, match="rational atomic law required"):
                exact_sample(law, None, 4, seed=2)

    def test_exact_rows_of_one_seed_only(self):
        with pytest.raises(ValueError, match="one seed at a time"):
            exact_sample(BERN, None, 3, seed=[1, 2])

    def test_exact_fixed_part_must_be_exactly_symmetric(self, monkeypatch):
        # equal as floats, unequal as rationals
        fixed = [[0, F(1, 3)], [F(1, 3) + F(1, 10 ** 30), 0]]
        assert sample_symmetric(BERN, fixed, 2, seed=1).shape == (2, 2)
        # refused before any draw
        monkeypatch.setattr("randsym.ensembles._upper_draws", None)
        with pytest.raises(ValueError, match="fixed part must be symmetric"):
            exact_sample(BERN, fixed, 2, seed=1)

    @pytest.mark.parametrize("fixed", [np.zeros((2, 3)), np.zeros(3),
                                       [[0, 1, 0], [1, 0], [0, 0, 0]]])
    def test_fixed_part_must_be_n_by_n(self, fixed):
        for sample in (sample_symmetric, exact_sample):
            with pytest.raises(ValueError, match="fixed part must be 3 x 3"):
                sample(BERN, fixed, 3, seed=1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_fixed_part_must_be_finite(self, bad):
        Fbad = np.zeros((3, 3))
        Fbad[0, 1] = Fbad[1, 0] = bad
        for seed in (1, [1, 2]):
            with pytest.raises(ValueError, match="fixed part must be finite"):
                sample_symmetric(BERN, Fbad, 3, seed=seed)
        with pytest.raises(ValueError, match="fixed part must be finite"):
            exact_sample(BERN, Fbad, 3, seed=1)

    def test_seed_sequence_gives_float_stack(self):
        fixed = np.eye(4)
        stack = sample_symmetric(BERN, fixed, 4, seed=[7, 8, 9])
        assert stack.shape == (3, 4, 4) and stack.dtype == np.float64
        for sd, mat in zip((7, 8, 9), stack):
            assert np.array_equal(mat, sample_symmetric(BERN, fixed, 4, seed=sd))

    def test_negative_zero_draws_read_positive_zero(self):
        # a -0.0 atom gives +0.0 entries, as the sum X + triu(X, 1).T did,
        # so `ensemble sample` prints 0.0
        law = AtomicLaw(((-0.0, 0.5), (1.0, 0.5)))
        s = sample_symmetric(law, None, 6, seed=3)
        stack = sample_symmetric(law, None, 6, seed=[3, 4])
        for mat in (s, *stack):
            assert (mat == 0).any() and not np.signbit(mat).any()

    @pytest.mark.parametrize("law, fixed", [
        (BERN, None), (lazy_sign(F(1, 3)), [[F(1, 2)] * 5] * 5),
        (AtomicLaw(((F(-1, 2), F(1, 3)), (0, F(1, 3)), (3, F(1, 3)))), np.eye(5, dtype=int))])
    def test_exact_rows_match_entrywise_oracle(self, law, fixed):
        rows = exact_sample(law, fixed, 5, seed=12)
        # the upper triangle, row by row, holds the draws; F adds exactly
        as_int = all(v.denominator == 1 for v in law.values)
        atoms = [int(v) if as_int else v for v in law.values]
        cum = law.cum_masses()
        u = substream(12).random(15)
        idx = np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)
        want = [[None] * 5 for _ in range(5)]
        for (i, j), k in zip(zip(*np.triu_indices(5)), idx):
            f = 0 if fixed is None else fixed[i][j]
            f = int(f) if isinstance(f, (int, np.integer)) else f
            want[i][j] = want[j][i] = f + atoms[k]
        assert rows == want
        assert [[type(x) for x in r] for r in rows] == [[type(x) for x in r] for r in want]


class TestSpectralSummary:
    def test_diagonal(self):
        summ = spectral_summary(np.diag([3.0, -1.0]))
        assert summ.sigma_1 == 3.0 and summ.sigma_n == 1.0
        assert summ.kappa == 3.0
        assert summ.log_abs_det == pytest.approx(math.log(3.0))

    def test_offdiagonal_pair(self):
        summ = spectral_summary(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert summ.eigenvalues.tolist() == pytest.approx([-1.0, 1.0])
        assert summ.sigma_n == pytest.approx(1.0)

    def test_trace_identities(self):
        s = sample_symmetric(BERN, None, 50, seed=4)
        summ = spectral_summary(s)
        n = 50
        assert abs(summ.eigenvalues.sum() - np.trace(s)) <= 1e-9 * n
        assert abs((summ.eigenvalues ** 2).sum() -
                   (s ** 2).sum()) <= 1e-9 * n * n

    def test_exact_corank(self):
        # the corank is n - exact_rank; the spectral summary leaves it unset
        rows = [[1, 1], [1, 1]]
        assert 2 - exact_rank(rows) == 1 and spectral_summary(rows).corank is None


needs_bundled_openblas = pytest.mark.skipif(
    not blas_pinnable(), reason="numpy bundles no OpenBLAS (Accelerate or system BLAS)")


class TestSolver:
    """Every stack is solved by one np.linalg.eigvalsh call, whose result
    for a matrix must not depend on the stack it sits in; the bundled
    OpenBLAS is only pinned to one thread."""

    def test_bundled_openblas_found(self):
        # numpy built on scipy-openblas must be pinnable; other builds
        # leave the thread count alone
        try:
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        except (TypeError, KeyError):
            pytest.skip("numpy does not report its BLAS")
        if blas != "scipy-openblas":
            pytest.skip(f"numpy is built on {blas}")
        assert blas_pinnable()

    def test_bit_identical_to_numpy(self):
        # each matrix of a stack gets the eigenvalues of a one-matrix call,
        # bit for bit, at the stack sizes lanes draw (k n > 500, where numpy
        # solves without the GIL); +-1, three-atom and Gaussian entries,
        # with and without a fixed part
        for n, k in ((80, 7), (200, 3), (240, 3)):
            F = np.diag(np.linspace(-1.0, 1.0, n))
            F[0, -1] = F[-1, 0] = 0.5
            for law in (BERN, uniform3(), gaussian()):
                for fixed in (None, F):
                    stack = sample_symmetric(law, fixed, n, seed=range(n, n + k))
                    got = spectral_summaries(stack)
                    for t in range(k):
                        lone = spectral_summaries(stack[t:t + 1])[0]
                        assert np.array_equal(got[t].eigenvalues, lone.eigenvalues), (n, t)
                        assert repr(replace(got[t], eigenvalues=None)) == \
                            repr(replace(lone, eigenvalues=None)), (n, t)

    def test_non_symmetric_input_reads_lower_triangle(self):
        a = np.random.default_rng(3).standard_normal((7, 7))
        before = a.copy()
        got = spectral_summary(a).eigenvalues
        assert np.array_equal(got, np.linalg.eigvalsh(np.tril(a) + np.tril(a, -1).T))
        assert np.array_equal(a, before)
        assert not np.array_equal(got, np.linalg.eigvalsh(a.T))

    # pinned: as lanes solve, BLAS at one thread
    @pytest.mark.parametrize("pinned", [False, True])
    @pytest.mark.parametrize("shape", [(2, 3), (1, 4, 3), (2, 2, 2, 2)])
    def test_only_square_stacks_reach_lapack(self, shape, pinned):
        with one_blas_thread(pinned), pytest.raises(ValueError, match="square"):
            spectral_summaries(np.ones(shape))

    @pytest.mark.parametrize("pinned", [False, True])
    def test_nan_raises_convergence_failure(self, pinned):
        with one_blas_thread(pinned), pytest.raises(ConvergenceFailure):
            spectral_summaries(np.full((1, 3, 3), np.nan))

    @needs_bundled_openblas
    def test_thread_count_restored(self):
        import randsym.ensembles
        lib = randsym.ensembles._openblas()
        old = lib.scipy_openblas_get_num_threads64_()
        with one_blas_thread():
            assert lib.scipy_openblas_get_num_threads64_() == 1
        assert lib.scipy_openblas_get_num_threads64_() == old
        with one_blas_thread(False):
            assert lib.scipy_openblas_get_num_threads64_() == old

    def test_numpy_without_bundled_openblas(self, monkeypatch):
        import randsym.ensembles
        stack = sample_symmetric(BERN, None, 9, seed=[1, 2, 3])
        want = [s.eigenvalues for s in spectral_summaries(stack)]
        monkeypatch.setattr(randsym.ensembles, "_openblas", lambda: None)
        assert not blas_pinnable()
        with one_blas_thread():
            got = [s.eigenvalues for s in spectral_summaries(stack)]
        assert all(map(np.array_equal, got, want))


class TestExactRank:
    def test_all_ones(self):
        assert exact_rank([[1, 1, 1]] * 3) == 1

    def test_offdiag(self):
        assert exact_rank([[0, 1], [1, 0]]) == 2

    def test_agrees_with_float_rank(self):
        rng = np.random.default_rng(19)
        for i in range(10 ** 4):
            m = rng.integers(0, 2, size=(8, 8)) * 2 - 1
            m = np.triu(m) + np.triu(m, 1).T
            r_exact = rational_rank([[int(x) for x in row] for row in m])
            sv = np.linalg.svd(m.astype(float), compute_uv=False)
            r_float = int(np.sum(sv > 1e-8 * sv[0] * 8))
            assert r_exact == r_float


class TestCofactorExpansion:
    def test_two_by_two(self):
        chk = cofactor_expansion_check([[3, 2], [2, 5]])
        assert chk.equal and chk.lhs == 11 and chk.rhs == 11

    def test_diagonal_reduces(self):
        chk = cofactor_expansion_check([[2, 0, 0], [0, 5, 0], [0, 0, 7]])
        assert chk.equal and chk.lhs == 70

    def test_random_six_by_six(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            rows = random_symmetric_int_matrix(rng, 6)
            chk = cofactor_expansion_check(rows)
            assert chk.equal
            assert chk.lhs == exact_det(rows)

    def test_singular_trailing_block(self):
        # A singular with adj(A) = v v^T, v = (2, -1, 0): det M = -(x.v)^2
        A = [[1, 2, 3], [2, 4, 6], [3, 6, 10]]
        for m11, x in [(5, [1, 0, 2]), (0, [1, 0, 2]), (-3, [3, 1, 7]), (7, [2, 4, 1])]:
            rows = [[m11] + x] + [[xi] + row for xi, row in zip(x, A)]
            chk = cofactor_expansion_check(rows)
            assert chk.equal and chk.lhs == fraction_det(rows) == -(2 * x[0] - x[1]) ** 2

    def test_size_guard(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError):
            cofactor_expansion_check(random_symmetric_int_matrix(rng, 11))


class TestGrowAndTrack:
    def zero(self, n):
        return [[0] * n for _ in range(n)]

    def test_first_step_bound_two_by_two(self):
        # from the 2x2 zero matrix the new off-diagonal pair is never zero,
        # so the first bordering always jumps by 2; the escape bound is 1/2
        trials = 2000
        hits = sum(steps[0].jumped_by_2
                   for steps in grow_and_track(self.zero(2), BERN, 1, seeds=range(trials)))
        bound = 1 - math.sqrt(1 / 2) ** 2
        se = math.sqrt(0.25 / trials)
        assert hits / trials >= bound - 3 * se

    def test_full_rank_rejected(self):
        with pytest.raises(ValueError):
            grow_and_track([[1, 0], [0, 1]], BERN, 1, seeds=[0])

    def test_jump_bound_from_rank_two_start(self):
        # rank-2 start in dimension 6: escape bound 1 - (1/sqrt2)^(6-2)
        v = [1, -1, 1, 1, -1, 1]
        w = [1, 1, -1, 1, 1, -1]
        rows = [[v[i] * v[j] + w[i] * w[j] for j in range(6)] for i in range(6)]
        assert rational_rank(rows) == 2
        trials = 600
        hits = sum(steps[0].jumped_by_2
                   for steps in grow_and_track(rows, BERN, 1, seeds=range(5000, 5000 + trials)))
        bound = 1 - math.sqrt(0.5) ** 4
        se = math.sqrt(max(hits / trials * (1 - hits / trials), 1e-9) / trials)
        assert hits / trials >= bound - 3 * se

    def test_chain_reaches_corank_one(self):
        n = 4
        trials = 300
        good = sum(steps[-1].size == 2 * n - 1 and steps[-1].new_rank == 2 * n - 2
                   for steps in grow_and_track(self.zero(n), BERN, n - 1, seeds=range(trials)))
        assert good / trials >= 0.5

    @pytest.mark.parametrize("law, base", [
        (BERN, [[0] * 5] * 5),
        (uniform3(), [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]),
        (AtomicLaw(((F(1, 2), F(1, 2)), (-3, F(1, 4)), (0, F(1, 4)))),
         [[F(1, 3), 0, 0], [0, 0, 0], [0, 0, 0]]),
        (BERN, [[2 ** 70, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]),
    ])
    def test_ranks_of_every_bordered_matrix(self, law, base):
        # the oracle borders the matrix step by step from the same streams
        # and ranks each bordered matrix on its own
        n, steps = len(base), 4
        values = [F(v) for v in law.values]
        runs = grow_and_track(base, law, steps, seeds=list(range(12)))
        for sd, run in enumerate(runs):
            mat = [list(map(F, row)) for row in base]
            for t, st in enumerate(run):
                new = [values[i] for i in law.sample_indices(substream(sd, t), n + t + 1)]
                mat = [new] + [[new[i + 1]] + row for i, row in enumerate(mat)]
                assert (st.size, st.new_rank) == (n + t + 1, fraction_rank(mat, n + t + 1))
            ranks = [fraction_rank(base, n)] + [st.new_rank for st in run]
            assert [st.jumped_by_2 for st in run] == [b == a + 2 for a, b in zip(ranks, ranks[1:])]
        assert [runs[3]] == grow_and_track(base, law, steps, seeds=[3])

    def test_no_steps(self):
        assert grow_and_track(self.zero(3), BERN, 0, seeds=[1, 2]) == [[], []]
        assert grow_and_track(self.zero(3), BERN, 2, seeds=[]) == []

    def test_one_seed_rejected(self):
        with pytest.raises(ValueError, match="seeds must be a sequence"):
            grow_and_track(self.zero(3), BERN, 1, seeds=1)

    def test_bad_steps_fail_before_any_draw(self, monkeypatch):
        def no_draws(*key):
            raise AssertionError("drew before checking")

        monkeypatch.setattr("randsym.ensembles.substream", no_draws)
        with pytest.raises(ValueError, match="steps"):
            grow_and_track(self.zero(3), BERN, -1, seeds=[1])


class TestNearKernel:
    def test_near_diagonal(self):
        nk = near_kernel_vector(np.diag([5.0, 1e-8]))
        assert abs(abs(nk.u[1]) - 1.0) <= 1e-12
        assert nk.residuals.tolist() == pytest.approx([1e-8, 0.0])

    def test_exactly_singular(self):
        nk = near_kernel_vector(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert np.max(nk.residuals) <= 1e-12

    def test_eigen_residual_identity(self):
        s = sample_symmetric(BERN, None, 100, seed=8)
        nk = near_kernel_vector(s)
        lam = abs(nk.lambda_min)
        # residuals are |lambda_min| * |u_i| and their l2 norm is |lambda_min|
        resid = np.sort(np.abs(s @ nk.u))[::-1]
        expect = np.sort(lam * np.abs(nk.u))[::-1]
        assert np.max(np.abs(resid - expect)) <= 1e-9
        assert np.linalg.norm(nk.residuals) == pytest.approx(lam, abs=1e-9)


class TestMembership:
    def test_matches_rank_oracle(self):
        rng = np.random.default_rng(17)
        V = (rng.integers(0, 2, size=(3, 6)) * 2 - 1).tolist()
        U = rng.integers(0, 2, size=(100, 6)) * 2 - 1
        got = membership(V, U)
        for row, flag in zip(U, got):
            aug = V + [[int(x) for x in row]]
            assert flag == (fraction_rank(aug, 6) == fraction_rank(V, 6))

    def test_minors_beyond_int64(self):
        # echelon minors of 25 +-1 rows reach 25^12.5 > 2^63, beyond int64
        rng = np.random.default_rng(25)
        V = rng.integers(0, 2, size=(25, 50)) * 2 - 1
        U = rng.integers(-3, 4, size=(200, 25)) @ V
        assert membership(V.tolist(), U).all()
        e1 = np.eye(50, dtype=np.int64)[0]
        assert fraction_rank(V.tolist() + [e1.tolist()], 50) == 26
        assert not membership(V.tolist(), U + e1).any()

    def test_nearly_square_basis(self):
        # k = 39 rows in n = 40: minors up to 40^19.5, far beyond int64
        rng = np.random.default_rng(39)
        V = rng.integers(0, 2, size=(39, 40)) * 2 - 1
        U = rng.integers(-2, 3, size=(30, 39)) @ V
        assert membership(V.tolist(), U).all()
        e1 = np.eye(40, dtype=np.int64)[0]
        inside = fraction_rank(V.tolist() + [e1.tolist()], 40) == fraction_rank(V.tolist(), 40)
        assert membership(V.tolist(), U + e1).tolist() == [inside] * 30

    def test_span_of_one_vector(self):
        res, = subspace_membership_mc(BERN, 8, [1], 20000, seeds=[3])
        # only +-v land in span(v): true frequency 2/2^8
        assert abs(res.freq - 2 / 256) <= 5 * math.sqrt(res.freq * (1 - res.freq) / 20000) + 1e-3
        assert res.freq <= res.bound + 3 * res.se

    def test_bound_formula(self):
        res, = subspace_membership_mc(BERN, 8, [5], 100, seeds=[1], c3=0.5)
        assert res.bound == pytest.approx(math.sqrt(0.5) ** 3)

    @pytest.mark.parametrize("trials", [0, -5])
    def test_bad_trials_fail_before_any_draw(self, trials, monkeypatch):
        def no_draws(*key):
            raise AssertionError("drew before checking")

        monkeypatch.setattr("randsym.ensembles.substream", no_draws)
        with pytest.raises(ValueError, match="trials"):
            subspace_membership_mc(BERN, 4, [2], trials, seeds=[1])

    @pytest.mark.parametrize("ks, seeds, match", [
        ([0, 2], [1, 2], "1 <= k <= n"), ([2, 5], [1, 2], "1 <= k <= n"),
        ([1, 2], [1], "one seed per k")])
    def test_bad_block_fails_before_any_draw(self, ks, seeds, match, monkeypatch):
        def no_draws(*key):
            raise AssertionError("drew before checking")

        monkeypatch.setattr("randsym.ensembles.substream", no_draws)
        with pytest.raises(ValueError, match=match):
            subspace_membership_mc(BERN, 4, ks, 100, seeds=seeds)

    @pytest.mark.parametrize("law, c3, mass", [
        (lazy_sign(F(1, 10)), 0.5, "9/10"), (BERN, 0.9, "1/2")])
    def test_atom_bound_outside_fails_before_any_draw(self, law, c3, mass, monkeypatch):
        # (sqrt(1 - c3))^(n - k) bounds membership only when the largest
        # atom mass is at most sqrt(1 - c3), as laws.atom_bound_holds states
        def no_draws(*key):
            raise AssertionError("drew before checking")

        monkeypatch.setattr("randsym.ensembles.substream", no_draws)
        with pytest.raises(ValueError, match=f"c3 = {c3}: the largest atom mass {mass} "):
            subspace_membership_mc(law, 8, [2], 100, seeds=[1], c3=c3)

    def test_atom_bound_at_its_edge_runs(self):
        # Bernoulli: (1/2)^2 = 1 - 3/4 exactly
        res, = subspace_membership_mc(BERN, 6, [2], 100, seeds=[1], c3=0.75)
        assert res.bound == 0.5 ** 4

    @staticmethod
    def reference_hits(law, n, k, seed, trials, dtype=np.int64):
        """Hits of one rowspace_membership call per chunk of atom values,
        the basis drawn from (seed, 0) and chunk ci from (seed, 1 + ci),
        each keyed alone."""
        vals = np.array(law._lattice[1], dtype=dtype)
        V = vals[law.sample_indices(substream(seed, 0), (k, n))]
        return sum(int(membership(V, vals[law.sample_indices(
            substream(seed, 1 + ci), (stop - start, n))]).sum())
            for ci, start, stop in chunk_bounds(trials, 4096))

    @staticmethod
    def echelon_calls(monkeypatch):
        """The primes handed to each row_echelon_int call."""
        asked = []
        real = exactlinalg.row_echelon_int

        def counted(stack, primes):
            asked.append(list(primes))
            return real(stack, primes)

        monkeypatch.setattr(exactlinalg, "row_echelon_int", counted)
        return asked

    def test_one_echelon_form_per_prime(self, monkeypatch):
        # every k of a block is put in echelon form in one stacked call
        ks = range(1, 8)
        seeds = key_seed(2, 8, ks)
        asked = self.echelon_calls(monkeypatch)
        res = subspace_membership_mc(BERN, 8, ks, 20000, seeds=seeds)     # five chunks
        assert asked == [[exactlinalg.PRIMES[0]] * 7]
        monkeypatch.undo()
        # the same hits as one call per chunk of the same streams
        assert [r.k for r in res] == list(ks)
        assert [r.hits for r in res] == [self.reference_hits(BERN, 8, k, int(s), 20000)
                                         for k, s in zip(ks, seeds)]

    @pytest.mark.parametrize("lit, paths", [
        ("uniform3", {("contains", "f"), ("_float_test", "f")}),
        ("atoms[(-3,1/5),(1,3/10),(7/2,1/2)]",              # unit 1/2: -6, 2, 7
         {("contains", "f"), ("_float_test", "f")}),
        # n = 8 times 10**7 times p/2 passes 2**52: the float test would
        # not be exact, and the chunks are tested as int64
        ("atoms[(1,1/2),(10000000,1/2)]", {("contains", "f"), ("_grouped_test", "i")}),
        # 2**70: Python ints, reduced mod p to int64, whose size then
        # picks the test at each prime
        ("atoms[(1,1/2),(1180591620717411303424,1/2)]",
         {("contains", "O"), ("_grouped_test", "i"), ("_float_test", "i")})])
    def test_chunks_match_the_reference(self, lit, paths, monkeypatch):
        # the chunks of float lattice values, or of int64 and Python-int
        # atom values where those are not exact, give the hits of one
        # rowspace_membership call per chunk of atom values
        law = parse_law(lit)
        span = exactlinalg._SpanMod
        seen = set()

        def spy(name):
            real = getattr(span, name)

            def wrapped(self, U, *rest):
                seen.add((name, U.dtype.kind))
                return real(self, U, *rest)
            monkeypatch.setattr(span, name, wrapped)

        asked = self.echelon_calls(monkeypatch)
        for name in ("contains", "_float_test", "_grouped_test"):
            spy(name)
        ks = (1, 4, 7)
        res = subspace_membership_mc(law, 8, ks, 20000, seeds=[2, 3, 4])     # five chunks
        assert len(asked) == 1          # the primes picked once, one echelon call
        assert seen == paths
        monkeypatch.undo()
        dtype = object if ("contains", "O") in paths else np.int64
        assert [r.hits for r in res] == [self.reference_hits(law, 8, k, s, 20000, dtype)
                                         for k, s in zip(ks, (2, 3, 4))]

    @pytest.mark.parametrize("lit, n, dtype", [
        # Bernoulli at n = 16: one prime up to k = 13, two from k = 14
        ("bernoulli", 16, np.int64),
        # lattice atoms past 2**52 are drawn as int64 atom values
        ("atoms[(1,1/2),(1152921504606846976,1/2)]", 8, np.int64),
        # past int64: Python ints in object chunks
        ("atoms[(1,1/2),(1180591620717411303424,1/2)]", 8, object)])
    def test_mixed_prime_counts(self, lit, n, dtype, monkeypatch):
        # a block whose bases ask for different numbers of primes is put in
        # echelon form in one prime-major call, and each k answers as one
        # rowspace_membership call per chunk of its own streams
        law = parse_law(lit)
        ks = range(1, n)
        seeds = key_seed(5, n, ks)
        asked = self.echelon_calls(monkeypatch)
        res = subspace_membership_mc(law, n, ks, 5000, seeds=seeds)     # two chunks
        monkeypatch.undo()
        primes, = asked
        assert primes == sorted(primes, reverse=True)       # prime-major
        counts = [primes.count(q) for q in dict.fromkeys(primes)]
        assert counts[0] == len(ks) > counts[-1]            # mixed counts
        assert [r.hits for r in res] == [self.reference_hits(law, n, k, int(s), 5000, dtype)
                                         for k, s in zip(ks, seeds)]


class TestMatrixIO:
    def test_text_roundtrip(self, tmp_path):
        m = np.array([[1.5, -2.0], [-2.0, 0.25]])
        p = tmp_path / "m.txt"
        write_matrix_text(m, str(p))
        assert (np.loadtxt(str(p)) == m).all()

    def test_exact_roundtrip(self, tmp_path):
        p = tmp_path / "m.frac"
        p.write_text("1/3 -2\n-2 7/5\n")
        assert read_matrix_exact(str(p)) == [[F(1, 3), F(-2)], [F(-2), F(7, 5)]]
