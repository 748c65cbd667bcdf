import math
from fractions import Fraction as F

import numpy as np
import pytest

from randsym import (DECOUPLING_CONST, EnumerationTooLarge, Gap, InverseLOReport,
                     LinearForm, OverlapError, QuadraticForm, RowMatrixSpec, bernoulli,
                     beta_close, build_row_matrix, conditioning_check, decoupling_scan,
                     inverse_lo_search, quadratic_small_ball_exact, row_matrix_det,
                     uniform3, verify_decoupling)
from randsym.smallball import ATOM_CAP
from randsym.streams import substream

BERN = bernoulli()


def example_spec():
    # rewritten rows {2,3} (0-based), coefficient column {0}, k = 2
    return RowMatrixSpec(n=4, rows=(2, 3), cols_plus=(0,), cols_minus=(), k=2,
                         coeffs={(2, 0): 5, (3, 0): -1})


class TestRowMatrix:
    def test_example_matrix_and_det(self):
        R = build_row_matrix(example_spec())
        want = np.array([[1, 0, 0, 0],
                         [0, 1, 0, 0],
                         [5, 0, 2, 0],
                         [-1, 0, 0, 2]])
        assert (R == want).all()
        assert row_matrix_det(example_spec()) == 4   # k^{|I|}

    def test_empty_rows_identity(self):
        spec = RowMatrixSpec(n=3, rows=(), cols_plus=(), cols_minus=(), k=7, coeffs={})
        assert (build_row_matrix(spec) == np.eye(3, dtype=int)).all()

    def test_overlap_rejected(self):
        with pytest.raises(OverlapError):
            RowMatrixSpec(n=3, rows=(1,), cols_plus=(1,), cols_minus=(), k=2, coeffs={})

    def test_sign_split(self):
        spec = RowMatrixSpec(n=4, rows=(3,), cols_plus=(0,), cols_minus=(1,), k=3,
                             coeffs={(3, 0): 4, (3, 1): 6})
        R = build_row_matrix(spec)
        assert R[3, 0] == 4 and R[3, 1] == -6 and R[3, 3] == 3

    def test_det_invariant_random_specs(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            n = int(rng.integers(2, 13))
            idx = list(rng.permutation(n))
            n_rows = int(rng.integers(1, max(2, n - 1)))
            n_cols = int(rng.integers(1, max(2, min(3, n - n_rows) + 1)))
            rows = tuple(idx[:n_rows])
            cols = idx[n_rows:n_rows + n_cols]
            half = len(cols) // 2
            k = 0
            while k == 0:
                k = int(rng.integers(-6, 7))
            coeffs = {(i, j): int(rng.integers(-9, 10)) for i in rows for j in cols}
            spec = RowMatrixSpec(n=n, rows=rows, cols_plus=tuple(cols[half:]),
                                 cols_minus=tuple(cols[:half]), k=k, coeffs=coeffs)
            assert abs(row_matrix_det(spec)) == abs(k) ** len(rows)


class TestConditioning:
    def test_identity(self):
        assert conditioning_check(np.eye(5), 1.0)

    def test_example_matrix(self):
        assert conditioning_check(build_row_matrix(example_spec()), 2.0)

    def test_zero_matrix(self):
        assert not conditioning_check(np.zeros((3, 3)), 5.0)


class TestDecoupling:
    def test_constant_value(self):
        assert DECOUPLING_CONST == pytest.approx(1.7829327e8, rel=1e-6)

    def test_zero_form_holds(self):
        chk, = verify_decoupling([QuadraticForm(((0, 0), (0, 0)))], BERN, 0.1,
                                 [(True, False)])
        assert chk.rho_quad == 1 and chk.rhs == 1 and chk.holds

    def test_irrational_unit_form_exact(self):
        s = 1 / math.sqrt(12)
        rng = np.random.default_rng(9)
        m = rng.choice([-s, s], size=(4, 4))
        m = np.triu(m, 1)
        m = m + m.T
        form = QuadraticForm(tuple(tuple(row) for row in m))
        chk, = verify_decoupling([form], BERN, 0.1, [substream(17).random(4) < 0.5])
        assert chk.holds
        assert isinstance(chk.rhs, F)        # both sides exact counts

    def test_sweep_small_forms(self):
        rng = np.random.default_rng(31)
        for t in range(20):
            n = int(rng.integers(2, 6))
            m = rng.integers(-3, 4, size=(n, n))
            m = np.triu(m, 1)
            m = m + m.T
            form = QuadraticForm(tuple(tuple(F(int(x), 4) for x in row) for row in m))
            (const,), _ = decoupling_scan([form], BERN, F(1, 10), [rng.random(n) < 0.5])
            assert const == 1.0

    def test_constant_one_always_holds(self):
        # decoupling_scan's premise: a bilinear rho the outcome cap admits
        # is at least 1 / ATOM_CAP, and the left side at most
        # 1 / DECOUPLING_CONST
        assert 1 / ATOM_CAP > 1 / DECOUPLING_CONST

    def test_stack_matches_one_by_one(self):
        rng = np.random.default_rng(33)
        for law in (BERN, uniform3()):
            for n in (2, 4):
                forms, us = [], []
                for _ in range(6):
                    m = np.triu(rng.integers(-3, 4, size=(n, n)), 1)
                    m = m + m.T
                    forms.append(QuadraticForm(tuple(tuple(F(int(x), 4) for x in row)
                                                     for row in m)))
                    us.append(rng.random(n) < 0.5)
                stacked = verify_decoupling(forms, law, 0.1, us)
                assert stacked == [chk for f, u in zip(forms, us)
                                   for chk in verify_decoupling([f], law, 0.1, [u])]
                const, checks = decoupling_scan(forms, law, F(1, 10), us)
                alone = [decoupling_scan([f], law, F(1, 10), [u]) for f, u in zip(forms, us)]
                assert const == [c for (c,), _ in alone]
                assert checks == [chk for _, (chk,) in alone]

    def test_stack_fails_before_any_enumeration(self, monkeypatch):
        from randsym import smallball

        def no_work(*args, **kwargs):
            raise AssertionError("enumeration started before the stack was judged")
        monkeypatch.setattr(smallball, "_enumerate", no_work)
        small = QuadraticForm(((0, 1), (1, 0)))
        u = (True, False)
        # the last form's values pass 2**53 on both sides: on the lattice
        # of its entries 2**52 stays 2**52 beside the 1
        huge = QuadraticForm(((1, 2 ** 52), (2 ** 52, 0)))
        for call in (verify_decoupling, decoupling_scan):
            with pytest.raises(EnumerationTooLarge, match="too large for exact"):
                call([small, small, huge], BERN, 0.1, [u, u, u])
        # n = 8: 2**8 quadratic outcomes, but 3**16 bilinear ones under the
        # difference law of signs, past the cap: no quadratic enumeration
        # either (every form of a stack has the same outcomes)
        m = np.triu(np.ones((8, 8), dtype=int), 1)
        wide = QuadraticForm(tuple(tuple(int(x) for x in row) for row in m + m.T))
        side = (True, False) * 4
        with pytest.raises(EnumerationTooLarge, match="43046721 outcomes exceed cap"):
            verify_decoupling([wide, wide], BERN, 0.1, [side, side])

    @pytest.mark.parametrize("count, sides, match", [
        (0, [], "at least one form"),
        (1, [(True, False)] * 2, r"shape \(2, 2\); 1 forms of size 2 need shape \(1, 2\)"),
        (2, [(True, False)], r"shape \(1, 2\); 2 forms of size 2 need shape \(2, 2\)"),
        (1, [True, False], r"shape \(2,\); 1 forms of size 2 need shape \(1, 2\)"),
        (1, [(True, False, True)], r"shape \(1, 3\); 1 forms of size 2 need shape \(1, 2\)"),
        (1, [[(True, False)]], r"shape \(1, 1, 2\); 1 forms of size 2 need shape \(1, 2\)")],
        ids=["empty", "more-bipartitions", "more-forms", "flat", "too-wide", "too-deep"])
    def test_stack_shape_rejected(self, count, sides, match, monkeypatch):
        from randsym import smallball
        monkeypatch.setattr(smallball, "_enumerate", None)
        forms = [QuadraticForm(((0, 1), (1, 0)))] * count
        for call in (verify_decoupling, decoupling_scan):
            with pytest.raises(ValueError, match=match):
                call(forms, BERN, 0.1, sides)

    def test_shifted_form_decouples(self):
        # the bilinear side is the decoupled form in x_i - x'_i, where the
        # shifts cancel: a shifted form's rhs is the unshifted form's, while
        # its quadratic side keeps the shifts
        mat = ((0, 1, 1), (1, 0, 1), (1, 1, 0))
        shifted = QuadraticForm(mat, shifts=(F(1, 2), F(1, 3), F(1, 5)))
        sides = [(True, False, False)]
        chk, = verify_decoupling([shifted], BERN, F(1, 10), sides)
        bare, = verify_decoupling([QuadraticForm(mat)], BERN, F(1, 10), sides)
        assert chk.rhs == bare.rhs == F(259, 512)
        assert chk.rho_quad == quadratic_small_ball_exact(shifted, BERN, F(1, 10)).rho \
            == F(1, 8)
        assert bare.rho_quad == F(3, 4)
        assert chk.holds and bare.holds

    def test_stack_of_mixed_sizes_rejected(self):
        forms = [QuadraticForm(((0, 1), (1, 0))), QuadraticForm(((0, 1, 0), (1, 0, 0), (0, 0, 0)))]
        us = [(True, False), (True, False)]     # (2, 2): the first form sets n
        with pytest.raises(ValueError, match=r"one size, got sizes \[2, 3\]"):
            verify_decoupling(forms, BERN, 0.1, us)

    def test_caps_read_at_call_time(self, monkeypatch):
        # n = 3 Bernoulli forms have 3^6 = 729 bilinear outcomes
        from randsym import smallball
        form = QuadraticForm(((0, 1, 1), (1, 0, 1), (1, 1, 0)))
        sides = [(True, False, False)]
        assert verify_decoupling([form], BERN, 0.1, sides)[0].holds
        monkeypatch.setattr(smallball, "ATOM_CAP", 728)
        with pytest.raises(EnumerationTooLarge):
            verify_decoupling([form], BERN, 0.1, sides)
        with pytest.raises(EnumerationTooLarge):
            decoupling_scan([form], BERN, 0.1, sides)


class TestInverseSearch:
    def test_arithmetic_progression(self):
        form = LinearForm(tuple(F(i, 100) for i in range(1, 101)))
        rep = inverse_lo_search(form, BERN, F(1, 1000), rank_cap=1,
                                closeness_budget=10, size_cap=301)
        assert rep.gap is not None
        assert rep.gap.generators == (F(1, 100),)
        assert rep.coverage == 100

    def test_constant_coefficients(self):
        rep = inverse_lo_search(LinearForm((1,) * 30), BERN, 0, rank_cap=1,
                                closeness_budget=5, size_cap=9)
        assert rep.gap is not None
        assert rep.gap.generators == (F(1),)
        assert rep.gap.upper == (1,)
        assert rep.coverage == 30

    def test_generic_coefficients_absent(self):
        rng = np.random.default_rng(3)
        coeffs = tuple(float(x) for x in rng.standard_normal(100))
        rep = inverse_lo_search(LinearForm(coeffs), BERN, 1e-6, rank_cap=2,
                                closeness_budget=25, size_cap=50, seed=5)
        assert rep.gap is None
        assert rep.coverage < rep.needed

    def test_soundness_of_reported_cover(self):
        form = LinearForm(tuple(F(3 * i, 7) for i in range(1, 41)))
        rep = inverse_lo_search(form, BERN, F(1, 100), rank_cap=1,
                                closeness_budget=4, size_cap=121)
        assert rep.gap is not None
        for i in rep.covered:
            assert beta_close(rep.gap, form.coefficients[i], F(1, 100)) is not None

    def test_rank2_two_scale_instance(self):
        # 1..6 and 1/97..6/97: rank 1 decides this one, since g = 1/97
        # covers both scales at half width 582, volume 1165 <= 2100
        coeffs = tuple(F(k) for k in range(1, 7)) + tuple(F(k, 97) for k in range(1, 7))
        rep = inverse_lo_search(LinearForm(coeffs), BERN, 0, rank_cap=2,
                                closeness_budget=1, size_cap=2100)
        assert rep.gap == Gap.symmetric((F(1, 97),), (582,))
        assert rep.coverage >= len(coeffs) - 1

    def test_rank2_needs_two_generators(self):
        # every coefficient is k1/4 + k2/3 with |k1| <= 5, |k2| <= 1; no
        # single submultiple 1/q (q <= 4) of the least one covers 14
        base = (F(1), F(13, 12), F(5, 4), F(4, 3), F(19, 12))
        form = LinearForm(tuple(s * x for x in base for s in (1, -1)) * 3)
        one = inverse_lo_search(form, BERN, 0, rank_cap=1, closeness_budget=16,
                                size_cap=100)
        assert one == InverseLOReport(None, (0, 1, 6, 7, 10, 11, 16, 17, 20, 21, 26, 27),
                                      12, 14, 100, 4,
                                      note="no candidate covers enough coefficients")
        two = inverse_lo_search(form, BERN, 0, rank_cap=2, closeness_budget=16,
                                size_cap=100)
        assert two == InverseLOReport(Gap.symmetric((F(1, 4), F(1, 3)), (5, 1)),
                                      tuple(range(30)), 30, 14, 100, 10)

    def test_size_cap_clamped_at_call_time(self, monkeypatch):
        # the Monte Carlo size cap of GOLDEN's "mc_size_cap" (33), clamped
        # at the enumeration cap in force when the search runs
        from randsym import gap
        monkeypatch.setattr(gap, "ENUM_CAP", 20)
        form = LinearForm((1,) * 10 + (2,) * 10 + (F(1, 3),))
        rep = inverse_lo_search(form, BERN, 0, rank_cap=1, closeness_budget=4, seed=7)
        assert rep.size_cap == 20

    # (coefficients, beta, rank_cap, closeness_budget, size_cap, seed) and
    # the whole report they give
    GOLDEN = {
        "ap": ((tuple(F(i, 100) for i in range(1, 101)), F(1, 1000), 1, 10, 301, 0),
               InverseLOReport(Gap.symmetric((F(1, 100),), (100,)), tuple(range(100)),
                               100, 90, 301, 3)),
        # isqrt(5000) = 70 submultiples, cut at 64
        "budget5000": ((tuple(F(3 * i, 7) for i in range(1, 41)), 0, 2, 5000, 121, 0),
                       InverseLOReport(Gap.symmetric((F(3, 7),), (40,)), tuple(range(40)),
                                       40, 0, 121, 64)),
        # no box fits below a size cap of 3: no candidate is tried
        "budget5000_rank2": ((tuple(F(i * i, 11) for i in range(1, 31)), 0, 2, 5000, 2, 0),
                             InverseLOReport(None, (), 0, 0, 2, 0,
                                             note="no candidate covers enough coefficients")),
        "budget0": ((tuple(F(i * i, 11) for i in range(1, 31)), 0, 2, 0, 1, 0),
                    InverseLOReport(None, (), 0, 30, 1, 0,
                                    note="no candidate covers enough coefficients")),
        "mc_size_cap": (((1,) * 10 + (2,) * 10 + (F(1, 3),), 0, 1, 4, None, 7),
                        InverseLOReport(Gap.symmetric((F(1, 3),), (6,)), tuple(range(21)),
                                        21, 17, 33, 2)),
        "mc_size_cap_rank2": ((tuple(range(1, 9)) + (F(1, 2),), F(1, 10), 2, 2, None, 11),
                              InverseLOReport(Gap.symmetric((F(1, 2),), (16,)),
                                              tuple(range(9)), 9, 7, 100, 1)),
        "floats": ((tuple(0.1 * i for i in range(1, 21)), 1e-9, 1, 2, 101, 0),
                   InverseLOReport(Gap.symmetric((F(0.1),), (20,)), tuple(range(20)),
                                   20, 18, 101, 1)),
        "gaussian_rank2": ((tuple(float(x) for x in np.random.default_rng(3).standard_normal(100)),
                            1e-6, 2, 25, 50, 5),
                           InverseLOReport(None, (96,), 1, 75, 50, 15,
                                           note="no candidate covers enough coefficients")),
        "zeros": (((0,) * 5, 0, 2, 1, 9, 0),
                  InverseLOReport(Gap.symmetric((), ()), tuple(range(5)), 5, 4, 9, 0,
                                  note="all coefficients zero")),
    }

    @pytest.mark.parametrize("name", list(GOLDEN))
    def test_golden_report(self, name):
        (coeffs, beta, rank_cap, budget, size_cap, seed), expected = self.GOLDEN[name]
        rep = inverse_lo_search(LinearForm(coeffs), BERN, beta, rank_cap=rank_cap,
                                closeness_budget=budget, size_cap=size_cap, seed=seed)
        assert rep == expected

    @pytest.mark.parametrize("size_cap", [1, 2])
    def test_size_cap_below_three_tries_nothing(self, size_cap, monkeypatch):
        # a box of rank >= 1 has volume at least 3: the answer needs no candidate
        from randsym import structure

        def no_work(*args, **kw):
            raise AssertionError("a candidate was tried")
        monkeypatch.setattr(structure, "_rank1_cover", no_work)
        monkeypatch.setattr(structure, "_rank2_cover", no_work)
        rep = inverse_lo_search(LinearForm((1,) * 20), BERN, 0, closeness_budget=20,
                                size_cap=size_cap)
        assert rep == InverseLOReport(None, (), 0, 0, size_cap, 0,
                                      note="no candidate covers enough coefficients")

    @pytest.mark.parametrize("kwargs, name", [
        pytest.param(dict(beta=-1, size_cap=9), "beta", id="negative_beta_given_cap"),
        pytest.param(dict(beta=F(-1, 100)), "beta", id="negative_beta_mc_cap"),
        pytest.param(dict(closeness_budget=-3), "closeness_budget", id="negative_budget"),
        pytest.param(dict(closeness_budget=2.5), "closeness_budget", id="fractional_budget"),
        pytest.param(dict(size_cap=0), "size_cap", id="zero_size_cap"),
        pytest.param(dict(size_cap=-5), "size_cap", id="negative_size_cap"),
    ])
    def test_bad_input_rejected_before_work(self, kwargs, name, monkeypatch):
        from randsym import structure

        def no_work(*args, **kw):
            raise AssertionError("search started before the inputs were checked")
        monkeypatch.setattr(structure, "linear_small_ball_mc", no_work)
        monkeypatch.setattr(structure, "_rank1_cover", no_work)
        with pytest.raises(ValueError, match=name):
            inverse_lo_search(LinearForm((1,) * 20), BERN, **{"beta": 0, **kwargs})
