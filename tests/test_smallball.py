import math
import time
from collections import Counter
from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest

from randsym import (AtomBlowup, AtomicLaw, EnumerationTooLarge, LinearForm, QuadraticForm,
                     bernoulli, bilinear_small_ball, bilinear_small_ball_mc,
                     central_binomial_rho, difference_law, gaussian, lazy_sign,
                     linear_small_ball_exact, linear_small_ball_mc,
                     quadratic_small_ball_exact, quadratic_small_ball_mc, uniform3)
from randsym import smallball
from randsym.smallball import ATOM_CAP, _linear_sum_dist, _radius
from genutil import brute_force_window

BERN = bernoulli()
# two atoms with a third and two thirds: a lattice content of 1/4
LOPSIDED = AtomicLaw(((F(-1, 2), F(1, 3)), (F(3, 4), F(2, 3))))


def _two_point(den):
    """Atoms 0 and 1 with masses 1/den and 1 - 1/den: count total den."""
    return AtomicLaw(((0, F(1, den)), (1, 1 - F(1, den))))


def brute_force_mass(laws, value, center, beta):
    """Independent oracle: P(|value(x) - center| <= beta) over every
    outcome of independent coordinates, in Fraction arithmetic."""
    mass = F(0)
    for atoms in product(*(law.atoms for law in laws)):
        if abs(value([F(v) for v, _ in atoms]) - F(center)) <= beta:
            mass += math.prod(F(p) for _, p in atoms)
    return mass


def linear_value(coeffs):
    return lambda x: sum(F(a) * v for a, v in zip(coeffs, x))


def _joined(cnts):
    """The counts that limb rows hold, row r weighing 2**(16 r), as ints."""
    return [sum(x << 16 * r for r, x in enumerate(col)) for col in cnts.T.tolist()]


def brute_force_linear(coeffs, shifts, law, beta):
    return brute_force_window(
        [law] * len(coeffs),
        lambda x: sum(F(a) * (v + F(f)) for a, v, f in zip(coeffs, x, shifts)), beta)


def brute_force_quadratic(mat, shifts, law, beta):
    n = len(mat)

    def value(x):
        z = [v + f for v, f in zip(x, shifts)]
        return sum(mat[i][j] * z[i] * z[j] for i in range(n) for j in range(n))
    return brute_force_window([law] * n, value, beta)


def brute_force_bilinear(mat, law, beta):
    n = len(mat)

    def value(xy):
        x, y = xy[:n], xy[n:]
        return sum(mat[i][j] * x[i] * y[j] for i in range(n) for j in range(n))
    return brute_force_window([law] * (2 * n), value, beta)


def _estimate(est):
    return est.rho, est.witness_center


class TestLinearExact:
    def test_ones_ten(self):
        est = linear_small_ball_exact(LinearForm((1,) * 10), BERN, 0)
        assert est.rho == F(252, 1024)

    def test_pair_window(self):
        est = linear_small_ball_exact(LinearForm((1, 1)), BERN, 1)
        assert est.rho == F(3, 4)
        assert abs(est.witness_center) == 1

    def test_degenerate_zero_form(self):
        est = linear_small_ball_exact(LinearForm((0, 0, 0)), uniform3(), 5)
        assert est.rho == 1
        assert est.witness_center == 0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            n = int(rng.integers(1, 9))
            law = BERN if rng.random() < 0.5 else uniform3()
            a = tuple(F(int(rng.integers(-8, 9)), int(rng.integers(1, 5)))
                      for _ in range(n))
            f = tuple(F(int(rng.integers(-3, 4)), int(rng.integers(1, 3)))
                      for _ in range(n))
            beta = F(int(rng.integers(0, 5)), 8)
            est = linear_small_ball_exact(LinearForm(a, f), law, beta)
            assert _estimate(est) == brute_force_linear(a, f, law, beta)

    def test_witness_realizes_rho(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            n = int(rng.integers(1, 7))
            a = tuple(F(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
                      for _ in range(n))
            form = LinearForm(a)
            beta = F(int(rng.integers(0, 3)), 4)
            est = linear_small_ball_exact(form, BERN, beta)
            assert brute_force_mass([BERN] * n, linear_value(a), est.witness_center,
                                    beta) == est.rho

    def test_monotone_in_beta(self):
        form = LinearForm((F(1), F(5, 3), F(-2, 7), 1, 2))
        last = F(0)
        for k in range(8):
            rho = linear_small_ball_exact(form, uniform3(), F(k, 4)).rho
            assert rho >= last
            last = rho

    def test_atom_cap(self, monkeypatch):
        # powers of 3 with atoms {-1,0,1}: balanced-ternary sums are all
        # distinct, so the distribution has 3^8 atoms, over any small cap
        monkeypatch.setattr(smallball, "ATOM_CAP", 1000)
        with pytest.raises(AtomBlowup):
            linear_small_ball_exact(LinearForm(tuple(3 ** p for p in range(8))),
                                    uniform3(), 0)

    def test_scale_invariance_huge_coefficients(self):
        # rho(c*a, c*beta) == rho(a, beta); content scaling divides c back
        # out, so the scaled lattice is the same small one for any c
        base = (F(3), F(5), F(7, 2), F(-1))
        beta = F(1, 2)
        want = linear_small_ball_exact(LinearForm(base), BERN, beta).rho
        c = F(2 ** 70 + 1)
        got = linear_small_ball_exact(LinearForm(tuple(c * a for a in base)),
                                      BERN, c * beta).rho
        assert got == want

    def test_scaled_values_beyond_int64(self):
        # 2**70 + 1 shares no content with 1 and 3, so the scaled values
        # themselves pass 2**61 and the sparse layout holds Python ints;
        # atoms near 2**70 put a span-6 dense lattice there too
        huge = AtomicLaw(((2 ** 70, F(1, 2)), (2 ** 70 + 1, F(1, 2))))
        for coeffs, law in (((1, 2 ** 70 + 1, 3), BERN),
                            ((1, 2 ** 70 + 1, 3), uniform3()),
                            ((1, 2, 3), huge)):
            assert _linear_sum_dist([F(a) for a in coeffs], law, ATOM_CAP).vals.dtype == object
            for beta in (F(0), F(1), F(3, 2), F(2 ** 70)):
                est = linear_small_ball_exact(LinearForm(coeffs), law, beta)
                assert _estimate(est) == brute_force_linear(coeffs, (0,) * 3, law, beta)
                assert brute_force_mass([law] * 3, linear_value(coeffs), est.witness_center,
                                        beta) == est.rho

    def test_huge_window_covers_everything(self):
        est = linear_small_ball_exact(LinearForm((F(1, 2 ** 40),)), BERN, 10 ** 9)
        assert est.rho == 1


class TestLayoutPins:
    """(rho, witness_center) of the exact linear engine on one case per
    layout and count form (one row of whole counts, or 16-bit limbs), to
    the exact Fractions the sparse-only engine with its dict fallback gave
    before the dense lattice."""

    TINY = AtomicLaw(((-1, F(1, 2 ** 32)), (1, 1 - F(1, 2 ** 32))))

    @pytest.mark.parametrize("case, beta, rho, center", [
        ("int48", F(0), F(280815756045, 140737488355328), F(0)),
        ("int48", F(7, 2), F(2246484616127, 281474976710656), F(-1)),
        ("int120", F(0), F(951253391602579127959081834065239,
                           664613997892457936451903530140172288), F(-1)),
        ("int120", F(7, 2), F(1902494643315474862581564077075555,
                              332306998946228968225951765070086144), F(0)),
        ("pow3-bernoulli", F(200), F(1, 128), F(-265599)),
        ("pow3-tiny", F(3), F(340282366762482138434845932253270245375,
                              340282366920938463463374607431768211456), F(37)),
    ])
    def test_pinned(self, case, beta, rho, center, monkeypatch):
        coeffs, law, layout, rows = {
            # integer coefficients 1..99: the support fills a dense lattice;
            # count totals 2**48 and 2**120, on the limbs in use
            "int48": (self._ints(48), BERN, "dense", 1),
            "int120": (self._ints(120), BERN, "dense", 7),
            # powers of 3 with two atoms: 2^k atoms spread over 3^k points;
            # count totals 2**12 and 2**128
            "pow3-bernoulli": (tuple(3 ** p for p in range(12)), BERN, "sparse", 1),
            "pow3-tiny": (tuple(3 ** p for p in range(4)), self.TINY, "sparse", 8),
        }[case]
        aggregations = []
        real = smallball._aggregate_np
        monkeypatch.setattr(smallball, "_aggregate_np",
                            lambda v, c: aggregations.append(1) or real(v, c))
        dist = _linear_sum_dist([F(a) for a in coeffs], law, ATOM_CAP)
        assert ("sparse" if aggregations else "dense") == layout
        assert dist.cnts.dtype == np.int64 and dist.cnts.shape == (rows, len(dist.vals))
        est = linear_small_ball_exact(LinearForm(coeffs), law, beta)
        assert (est.rho, est.witness_center) == (rho, center)

    @staticmethod
    def _ints(n):
        return tuple(int(x) for x in np.random.default_rng(n).integers(1, 100, n))


def _layout(coeffs, law, monkeypatch):
    """The distribution of sum a_i x_i and the layout that built it."""
    aggregations = []
    real = smallball._aggregate_np
    monkeypatch.setattr(smallball, "_aggregate_np",
                        lambda v, c: aggregations.append(1) or real(v, c))
    dist = _linear_sum_dist([F(a) for a in coeffs], law, ATOM_CAP)
    monkeypatch.setattr(smallball, "_aggregate_np", real)
    return dist, "sparse" if aggregations else "dense"


class TestLimbs:
    """The int64 limb counts of the linear engine against the Fraction
    oracle: count totals on both sides of 2**61 and of each limb boundary
    2**(16 k), laws whose counts take several limbs, and carries at their
    edge and at every step, in both layouts."""

    # counts 1, 2 and 4: three atoms of unequal weight
    UNEQUAL = AtomicLaw(((-1, F(1, 7)), (0, F(2, 7)), (2, F(4, 7))))
    # counts 2**16 and 1: the lowest limb digit of atom 0 is 0
    HIGH_FIRST = AtomicLaw(((-1, F(2 ** 16, 2 ** 16 + 1)), (1, F(1, 2 ** 16 + 1))))

    @staticmethod
    def _check(coeffs, law, layout, monkeypatch, betas=(0, F(1, 2), 3)):
        dist, built = _layout(coeffs, law, monkeypatch)
        assert built == layout
        # int64 limb rows, no more than the count total needs, each row
        # summing below 2**62 so that its prefix sums fit
        rows, atoms = dist.cnts.shape
        assert dist.cnts.dtype == np.int64 and atoms == len(dist.vals)
        assert rows <= (dist.ctotal.bit_length() + 15) // 16
        assert all(0 <= min(row) and sum(row) < 2 ** 62 for row in dist.cnts.tolist())
        assert sum(_joined(dist.cnts)) == dist.ctotal
        for beta in betas:
            est = linear_small_ball_exact(LinearForm(coeffs), law, beta)
            assert _estimate(est) == brute_force_linear(coeffs, (0,) * len(coeffs), law, beta)
        return dist

    @pytest.mark.parametrize("den, n", [(1518500249, 2), (1518500250, 2),
                                        (1321122, 3), (1321123, 3)])
    def test_count_total_around_2_61(self, den, n, monkeypatch):
        # den**n just below and just above 2**61
        law = _two_point(den)
        for coeffs, layout in (((1,) * n, "dense"), ((1, 3, 9)[:n], "sparse")):
            dist = self._check(coeffs, law, layout, monkeypatch)
            assert dist.ctotal == den ** n and (dist.ctotal < 2 ** 61) == (den ** n < 2 ** 61)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("den", [2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1])
    def test_limb_boundaries(self, k, den, monkeypatch):
        # den**k on both sides of 2**(16 k); den = 2**16 + 1 has the count
        # 2**16, one limb up
        law = _two_point(den)
        self._check((1,) * k, law, "dense", monkeypatch)
        self._check((1, 3, 9, 27, 81)[:k], law, "dense" if k == 1 else "sparse", monkeypatch)

    @pytest.mark.parametrize("law", [TestLayoutPins.TINY, UNEQUAL, HIGH_FIRST],
                             ids=["tiny", "unequal", "high-first"])
    @pytest.mark.parametrize("coeffs, layout", [
        ((1, 2, 3, 1, 2), "dense"),
        # negative coefficients: atom 0 lands off the start, and every
        # shifted slice overlaps the live counts
        ((2, -1, 3, -2, 1, -3), "dense"),
        ((1, 3, 9, 27, 81), "sparse"),
    ])
    def test_laws_with_large_or_unequal_counts(self, law, coeffs, layout, monkeypatch):
        self._check(coeffs, law, layout, monkeypatch)

    @staticmethod
    def _engine_carries(monkeypatch):
        """The list that each _carry call of the linear engine's steps
        appends to; the carried copy of the final build (_limb_dist) is
        not counted."""
        calls = []
        carry, build = smallball._carry, smallball._limb_dist

        def counted(limbs):
            calls.append(1)
            return carry(limbs)

        def uncounted(*args):
            mark = len(calls)
            dist = build(*args)
            del calls[mark:]
            return dist
        monkeypatch.setattr(smallball, "_carry", counted)
        monkeypatch.setattr(smallball, "_limb_dist", uncounted)
        return calls

    @pytest.mark.parametrize("n, carries", [(62, 0), (63, 1), (64, 1)])
    def test_carry_at_its_edge(self, n, carries, monkeypatch):
        # zero coefficients: one count 2**k on one limb, the bound 2**k
        # exact, so the first carry comes right before the step to 2**63
        calls = self._engine_carries(monkeypatch)
        dist = _linear_sum_dist([F(0)] * n, BERN, ATOM_CAP)
        assert len(calls) == carries
        assert _joined(dist.cnts) == [2 ** n] and dist.ctotal == 2 ** n
        assert linear_small_ball_exact(LinearForm((0,) * n), BERN, 0).rho == 1

    @pytest.mark.parametrize("coeffs, layout", [((1, 2, 3, -1, 2), "dense"),
                                                ((1, 3, 9, 27, 81), "sparse")])
    def test_carries_at_every_step(self, coeffs, layout, monkeypatch):
        # the least room the law's counts allow: a carry before every step
        # past the first
        law = TestLayoutPins.TINY      # limb digits 1 and 2**16 - 1, twice
        weight = 1 + 2 * smallball._LIMB_MASK
        monkeypatch.setattr(smallball, "_LIMB_ROOM", weight * smallball._LIMB_MASK)
        self._check(coeffs, law, layout, monkeypatch)
        calls = self._engine_carries(monkeypatch)
        _linear_sum_dist([F(a) for a in coeffs], law, ATOM_CAP)
        assert len(calls) == len(coeffs) - 1
        monkeypatch.setattr(smallball, "_LIMB_ROOM", weight * smallball._LIMB_MASK - 1)
        with pytest.raises(ValueError, match="too large for int64 limbs"):
            _linear_sum_dist([F(a) for a in coeffs], law, ATOM_CAP)


def scan_oracle(vals, counts, width):
    """Independent oracle: (weight, lowest value, highest value) of the
    first fullest closed window [v, v + width] anchored at a value v, by
    direct sums of Python ints."""
    best = None
    for v in vals:
        inside = [k for k, w in enumerate(vals) if v <= w <= v + width]
        weight = sum(counts[k] for k in inside)
        if best is None or weight > best[0]:
            best = (weight, v, vals[inside[-1]])
    return best


def _limb_rows(counts, rows):
    """counts as `rows` carried 16-bit limb rows, the top row keeping the rest."""
    return np.array([[c >> 16 * r & (0xFFFF if r < rows - 1 else -1) for c in counts]
                     for r in range(rows)], dtype=np.int64)


class TestWindowScan:
    """The window scan on int64 limb rows against direct sums of Python
    ints: window totals carried across rows, the argmax taken from the top
    row down with the leftmost window winning ties, and the engines'
    limbs carried before a scan when a row could sum to 2**62."""

    @staticmethod
    def _scan(vals, cnts, width):
        weight, lo, hi = smallball._window_scan(np.array(vals), cnts, width)
        return weight, int(lo), int(hi)

    def test_low_limbs_carry(self):
        # the first window's low limbs sum to 3 * 65535, which carries 2
        # into a middle limb that alone would lose, 10 against 12
        vals = [0, 1, 2, 10, 11, 12]
        counts = [65535 + (3 << 16), 65535 + (3 << 16), 65535 + (4 << 16)] + [4 << 16] * 3
        got = self._scan(vals, _limb_rows(counts, 3), 2)
        assert got == scan_oracle(vals, counts, 2) == (3 * 65535 + (10 << 16), 0, 2)

    def test_ties_in_the_top_limbs(self):
        # equal top limbs: the lower limbs decide, the leftmost of equal
        # windows wins, and an exact tie goes to the leftmost window
        vals = [0, 5, 9, 14]
        for counts, width, want in (
                ([(1 << 32) + 5, (1 << 32) + 7, (1 << 32) + 7, 3], 0, 1),
                ([(1 << 32) + 5, (1 << 32) + 7, (1 << 32) + 7, 3], 4, 1),
                ([(2 << 32) + 1] * 4, 0, 0),
                ([(2 << 32) + 1] * 4, 5, 0)):
            got = self._scan(vals, _limb_rows(counts, 3), width)
            assert got == scan_oracle(vals, counts, width)
            assert got[1] == vals[want]

    def test_one_int64_row(self):
        # whole counts up to 2**57 in one row, as the block engine and the
        # Monte Carlo scan hold them
        rng = np.random.default_rng(61)
        for _ in range(20):
            vals = sorted({int(v) for v in rng.integers(-50, 50, 12)})
            counts = [int(c) for c in rng.integers(1, 2 ** 57, len(vals))]
            width = int(rng.integers(0, 30))
            got = self._scan(vals, np.array([counts], dtype=np.int64), width)
            assert got == scan_oracle(vals, counts, width)

    def test_random_rows(self):
        # carried limbs, and raw limbs as large as a row summing below
        # 2**62 allows, the linear engine's between carries
        rng = np.random.default_rng(62)
        for trial in range(40):
            vals = sorted({int(v) for v in rng.integers(-40, 40, 10)})
            rows = int(rng.integers(1, 6))
            if trial % 2:
                cnts = rng.integers(0, 2 ** 62 // len(vals), (rows, len(vals)))
                cnts[0] += 1
            else:   # one row holds whole counts, which must sum below 2**62 too
                top = 2 ** 62 // len(vals) if rows == 1 else 2 ** 62
                cnts = _limb_rows([int(c) for c in rng.integers(1, top, len(vals))], rows)
            counts = _joined(cnts)
            width = int(rng.integers(0, 20))
            assert self._scan(vals, cnts, width) == scan_oracle(vals, counts, width)

    @pytest.mark.parametrize("coeffs, layout", [((1,) * 5, "dense"), ((1, 3, 9, 27), "sparse")])
    def test_limbs_at_2_62_before_a_carry(self, coeffs, layout, monkeypatch):
        # zero coefficients multiply every count by 3, the count total of
        # LOPSIDED: the limbs reach ~2**62 at step 68, the last before the
        # engine's second carry, and a row then sums past 2**63, which an
        # uncarried prefix sum would overflow
        padded = coeffs + (0,) * (68 - len(coeffs))
        handed = []
        real = smallball._limb_dist
        monkeypatch.setattr(smallball, "_limb_dist", lambda vals, limbs, *rest: handed.append(
            [sum(row) for row in limbs.tolist()]) or real(vals, limbs, *rest))
        dist, built = _layout(padded, LOPSIDED, monkeypatch)
        assert built == layout
        assert max(handed[-1]) >= 2 ** 63 and dist.ctotal == 3 ** 68
        for beta in (0, F(1, 4), F(5, 4), 3):
            est = linear_small_ball_exact(LinearForm(padded), LOPSIDED, beta)
            assert _estimate(est) == brute_force_linear(coeffs, (0,) * len(coeffs),
                                                        LOPSIDED, beta)


class TestSplitLayoutPins:
    """(rho, witness_center) of the split enumeration on one case per
    aggregation and count form, and which aggregation ran: counting on a
    narrow span, with one row of counts or with limbs, and sort and
    reduceat on a sparse span.
    The one-row pins are the Fractions the sort-only engine gave, the
    limb pins those of its Python-int counts."""

    FLOAT_MASSES = AtomicLaw(((-1, 0.1), (1, 0.9)))
    P, Q = F(0.1), F(0.9)

    @pytest.mark.parametrize("case, beta, rho, center", [
        ("narrow", F(0), F(109, 2048), F(5)),
        ("narrow", F(7, 2), F(13, 128), F(3)),
        ("sparse", F(0), F(2, 27), F(-605123912, 21)),
        ("sparse", F(1, 2), F(7, 27), F(1, 2)),
        # 2xy with signs of masses 0.1 and 0.9 weighed by their sum: the
        # count total (about 2**110) passes 2**61 at n = 2
        ("limbs", F(0), (P ** 2 + Q ** 2) / (P + Q) ** 2, F(2)),
        ("limbs", F(2), F(1), F(0)),
    ])
    def test_pinned(self, case, beta, rho, center, monkeypatch):
        form, law, counted, rows = {
            # entries -3..3 on 12 signs: 4096 values over a span of 21
            "narrow": (self._narrow(), BERN, True, 1),
            # 27 values spread over ~10**8 lattice points
            "sparse": (QuadraticForm(((F(1, 3), 3 ** 10, 3 ** 5), (3 ** 10, F(2, 7), 3 ** 15),
                                      (3 ** 5, 3 ** 15, 1))), uniform3(), False, 1),
            "limbs": (QuadraticForm(((0, 1), (1, 0))), self.FLOAT_MASSES, True, 7),
        }[case]
        seen = []
        real_aggregate, real_bincount = smallball._aggregate_np, np.bincount
        monkeypatch.setattr(smallball, "_aggregate_np",
                            lambda v, c: seen.append(c.shape[0]) or real_aggregate(v, c))
        monkeypatch.setattr(np, "bincount",
                            lambda *a, **k: seen.append("counted") or real_bincount(*a, **k))
        est = quadratic_small_ball_exact(form, law, beta)
        assert ("counted" in seen) == counted
        assert {d for d in seen if d != "counted"} == {rows}
        assert (est.rho, est.witness_center) == (rho, center)

    @staticmethod
    def _narrow():
        m = np.random.default_rng(16).integers(-3, 4, (12, 12))
        m = np.triu(m) + np.triu(m, 1).T
        return QuadraticForm(tuple(tuple(int(x) for x in row) for row in m))


def _spread(span, size, seed):
    """size int64 values in [0, span], both ends present."""
    vals = np.random.default_rng(seed).integers(0, span + 1, size)
    vals[:2] = 0, span
    return vals


class TestAggregate:
    """_aggregate_np against a Counter, and which of its two ways ran:
    counting for int64 values and counts whose span is under 8 per value
    and whose counts sum below 2**53, sort and reduceat otherwise."""

    @pytest.mark.parametrize("vals, cnts, counted", [
        pytest.param(np.arange(-60, -10) * 3 % 41 - 50, np.arange(1, 51), True,
                     id="negative"),
        pytest.param(np.array([-7]), np.array([3]), True, id="single"),
        pytest.param(_spread(799, 100, 1), np.arange(1, 101), True, id="span-799-of-100"),
        pytest.param(_spread(800, 100, 2), np.arange(1, 101), False, id="span-800-of-100"),
        # float64 weights hold 2**53 - 1 exactly but round 2**53 + 1 down
        pytest.param(np.array([4, 4, 6]), np.array([2 ** 52, 2 ** 52 - 2, 1]), True,
                     id="counts-2**53-1"),
        pytest.param(np.array([4, 4, 6]), np.array([2 ** 52, 2 ** 52, 1]), False,
                     id="counts-2**53+1"),
        pytest.param(np.array([5, -3, 5, 5]), np.array([2 ** 60, 7, 2 ** 60 - 9, 1]), False,
                     id="counts-2**61-1"),
        pytest.param(np.array([2, 1, 2]), np.array([2 ** 70, 1, 2 ** 70 + 1], dtype=object),
                     False, id="object-counts"),
        pytest.param(np.array([2 ** 70, -2 ** 70, 2 ** 70], dtype=object), np.array([1, 2, 3]),
                     False, id="object-values"),
    ])
    def test_matches_counter(self, vals, cnts, counted, monkeypatch):
        calls = []
        real = np.bincount
        monkeypatch.setattr(np, "bincount", lambda *a, **k: calls.append(1) or real(*a, **k))
        got_vals, got_cnts = smallball._aggregate_np(vals, cnts)
        assert bool(calls) == counted
        assert (got_vals.dtype, got_cnts.dtype) == (vals.dtype, cnts.dtype)
        oracle = Counter()
        for v, c in zip(vals.tolist(), cnts.tolist()):
            oracle[v] += c
        assert list(zip(got_vals.tolist(), got_cnts.tolist())) == sorted(oracle.items())

    @pytest.mark.parametrize("vals, limbs, counted", [
        # value 4 holds nothing in the lowest limb, only in the next one
        pytest.param(np.array([4, 4, 6, 5]), [[0, 0, 3, 65535], [1, 2, 0, 7]], True,
                     id="limbs-counted"),
        pytest.param(np.array([400, 4, 6, 400]), [[0, 0, 3, 65535], [1, 2, 0, 7]], False,
                     id="limbs-sparse"),
        # the lowest limb sums to 2**53 + 1, the next to 3
        pytest.param(np.array([4, 4, 6]), [[2 ** 52, 2 ** 52, 1], [1, 2, 0]], False,
                     id="limbs-2**53+1"),
    ])
    def test_limb_rows_match_counter(self, vals, limbs, counted, monkeypatch):
        calls = []
        real = np.bincount
        monkeypatch.setattr(np, "bincount", lambda *a, **k: calls.append(1) or real(*a, **k))
        limbs = np.array(limbs, dtype=np.int64)
        got_vals, got_limbs = smallball._aggregate_np(vals, limbs)
        assert bool(calls) == counted
        assert got_limbs.dtype == np.int64 and got_limbs.shape == (2, len(got_vals))
        oracle = Counter()
        for v, low, high in zip(vals.tolist(), *limbs.tolist()):
            oracle[v] += low + (high << 16)
        got = [low + (high << 16) for low, high in zip(*got_limbs.tolist())]
        assert list(zip(got_vals.tolist(), got)) == sorted(oracle.items())


def test_dense_lattice_time_budget():
    # n = 1000 coefficients 1..99: a ~1e5-point lattice with 1000-bit counts
    # (26 s with a dict per step, under 2 s on the dense lattice, 2-vCPU VM)
    t0 = time.monotonic()
    coeffs = tuple(int(x) for x in np.random.default_rng(1).integers(1, 100, 1000))
    rho = linear_small_ball_exact(LinearForm(coeffs), BERN, 0).rho
    elapsed = time.monotonic() - t0
    # Erdos: nonzero integer coefficients put at most C(n, n/2) / 2^n on a point
    assert 0 < rho <= central_binomial_rho(1000)
    assert elapsed < 15, f"runtime {elapsed:.1f}s over budget 15s"


def test_300_coefficients_pinned():
    # coefficients 1..99 on the dense lattice with 300-bit counts: the rho
    # of the engine with Python-int counts, bit for bit
    t0 = time.monotonic()
    u = tuple(int(x) for x in np.random.default_rng(1).integers(1, 100, 300))
    est = linear_small_ball_exact(LinearForm(u), BERN, 0)
    elapsed = time.monotonic() - t0
    assert est.rho == F(int("399682757486600411719955118436399526253799256781391242520"
                            "750312505086496277761277144023"), 2 ** 298)
    assert est.witness_center == 0
    assert elapsed < 2, f"runtime {elapsed:.1f}s over budget 2s"


def test_float_masses_weighed_by_their_sum():
    # 0.1 and 0.9 are binary rationals whose sum is not exactly 1: every
    # exact engine weighs an atom by its mass over that sum, so rho stays
    # a probability
    law = AtomicLaw(((-1, 0.1), (1, 0.9)))
    p, q = F(0.1), F(0.9)
    assert p + q != 1
    assert linear_small_ball_exact(LinearForm((1, 1)), law, 0).rho == (q / (p + q)) ** 2
    assert linear_small_ball_exact(LinearForm((1, 1)), law, 10).rho == 1
    square = QuadraticForm(((1,),), shifts=(F(1, 2),))      # (x + 1/2)^2
    assert quadratic_small_ball_exact(square, law, 0).rho == q / (p + q)
    assert quadratic_small_ball_exact(square, law, 10).rho == 1
    # x y is 1 with mass p^2 + q^2 and -1 with mass 2 p q, over (p + q)^2
    assert bilinear_small_ball(QuadraticForm(((1,),)), law, 0).rho == \
        (p * p + q * q) / (p + q) ** 2


class TestLinearMC:
    def test_converges_to_exact(self):
        est = linear_small_ball_mc(LinearForm((1,) * 10), BERN, 0, 10 ** 5, seed=3)
        assert abs(est.rho - 252 / 1024) <= est.ci_halfwidth

    def test_single_trial(self):
        est = linear_small_ball_mc(LinearForm((1, 2)), BERN, 0.25, 1, seed=0)
        assert est.rho == 1.0

    def test_gaussian_window(self):
        est = linear_small_ball_mc(LinearForm((1,)), gaussian(), 0.5, 10 ** 5, seed=11)
        want = math.erf(0.5 / math.sqrt(2))
        assert abs(est.rho - want) <= est.ci_halfwidth

    def test_deterministic_in_seed(self):
        a = linear_small_ball_mc(LinearForm((1, 1, 1)), BERN, 0.5, 5000, seed=9)
        b = linear_small_ball_mc(LinearForm((1, 1, 1)), BERN, 0.5, 5000, seed=9)
        assert a == b

    def test_dkw_halfwidth_formula(self):
        est = linear_small_ball_mc(LinearForm((1,)), BERN, 0, 400, seed=2)
        assert est.ci_halfwidth == pytest.approx(math.sqrt(math.log(40.0) / 800))


class TestQuadraticExact:
    def test_offdiagonal_pair(self):
        c = 1 / math.sqrt(2)
        form = QuadraticForm(((0, c), (c, 0)))
        est = quadratic_small_ball_exact(form, BERN, 0.1)
        assert est.rho == F(1, 2)

    def test_zero_form(self):
        est = quadratic_small_ball_exact(QuadraticForm(((0, 0), (0, 0))), BERN, 0)
        assert est.rho == 1

    def test_constant_square(self):
        form = QuadraticForm(((1, 0), (0, 0)))
        est = quadratic_small_ball_exact(form, BERN, 0)
        assert est.rho == 1          # x1^2 == 1 on +-1

    def test_enumeration_cap(self, monkeypatch):
        form = QuadraticForm(tuple(tuple(F(1) if i == j else F(0) for j in range(9))
                                   for i in range(9)))
        monkeypatch.setattr(smallball, "ATOM_CAP", 1000)
        with pytest.raises(EnumerationTooLarge):
            quadratic_small_ball_exact(form, uniform3(), 0)

    def test_mc_matches_exact(self):
        form = QuadraticForm(((0, F(1, 2)), (F(1, 2), 0)), shifts=(F(1, 3), 0))
        exact = quadratic_small_ball_exact(form, BERN, F(1, 4))
        mc = quadratic_small_ball_mc(form, BERN, 0.25, 10 ** 5, seed=6)
        assert abs(mc.rho - float(exact.rho)) <= mc.ci_halfwidth

    def test_matches_brute_force(self):
        # independent oracle, Fraction arithmetic end to end; n up to 5 so
        # the two halves of the split enumeration differ and n is odd too;
        # asymmetric shifts exercise the per-coordinate value tables
        rng = np.random.default_rng(33)
        for trial in range(20):
            n = int(rng.integers(1, 6))
            law = (BERN, uniform3(), LOPSIDED)[trial % 3]
            m = rng.integers(-3, 4, size=(n, n))
            m = np.triu(m) + np.triu(m, 1).T
            mat = tuple(tuple(F(int(x), 3) for x in row) for row in m)
            shifts = tuple(F(int(rng.integers(-2, 3)), 2) for _ in range(n))
            beta = F(int(rng.integers(0, 3)), 4)
            est = quadratic_small_ball_exact(QuadraticForm(mat, shifts=shifts), law, beta)
            assert _estimate(est) == brute_force_quadratic(mat, shifts, law, beta), trial

    def test_enumeration_cap_boundary(self, monkeypatch):
        form = QuadraticForm(((1, 1, 0, 0), (1, 0, 0, 2), (0, 0, -1, 1), (0, 2, 1, 0)))
        want = brute_force_quadratic(form.matrix, form.shifts, uniform3(), 1)
        monkeypatch.setattr(smallball, "ATOM_CAP", 81)
        assert _estimate(quadratic_small_ball_exact(form, uniform3(), 1)) == want
        monkeypatch.setattr(smallball, "ATOM_CAP", 80)
        with pytest.raises(EnumerationTooLarge):
            quadratic_small_ball_exact(form, uniform3(), 1)

    def test_float_exactness_boundary(self):
        # val_bound = 1 + 2c + 1 must stay below 2**53
        for c, fits in ((2 ** 52 - 2, True), (2 ** 52 - 1, False)):
            form = QuadraticForm(((1, c), (c, 0)))
            if fits:
                assert _estimate(quadratic_small_ball_exact(form, uniform3(), 0)) == \
                    brute_force_quadratic(form.matrix, form.shifts, uniform3(), 0)
            else:
                with pytest.raises(EnumerationTooLarge):
                    quadratic_small_ball_exact(form, uniform3(), 0)

    def test_count_total_boundary(self):
        # counts are int64 while the count total den**n stays below 2**61
        # and Python ints beyond; the answer is exact on both sides
        for form, law in ((QuadraticForm(((1, 2), (2, -1))), _two_point(2 ** 30)),
                          (QuadraticForm(((1, 2), (2, -1))), _two_point(2 ** 31)),
                          (QuadraticForm(((1,),)), _two_point(2 ** 61 - 1)),
                          (QuadraticForm(((1,),)), _two_point(2 ** 61))):
            for beta in (0, F(1, 2)):
                est = quadratic_small_ball_exact(form, law, beta)
                assert _estimate(est) == \
                    brute_force_quadratic(form.matrix, form.shifts, law, beta)


class TestBilinear:
    def test_single_product(self):
        est = bilinear_small_ball(QuadraticForm(((1,),)), BERN, 0)
        assert est.rho == F(1, 2)

    def test_zero_matrix(self):
        est = bilinear_small_ball(QuadraticForm(((0, 0), (0, 0))), BERN, 0)
        assert est.rho == 1

    def test_scaled_identity(self):
        c = 1 / math.sqrt(2)
        est = bilinear_small_ball(QuadraticForm(((c, 0), (0, c))), BERN, 0)
        assert est.rho == F(1, 2)

    def test_matches_brute_force(self):
        # x and y of one law, on the law's own lattice, which the form's
        # lattice unit scales
        rng = np.random.default_rng(44)
        laws = (BERN, uniform3(), LOPSIDED, lazy_sign(F(1, 3)))
        for trial in range(16):
            n = int(rng.integers(1, 4))
            law = laws[trial % 4]
            m = rng.integers(-3, 4, size=(n, n))
            m = np.triu(m) + np.triu(m, 1).T
            mat = tuple(tuple(F(int(x), 2) for x in row) for row in m)
            beta = F(int(rng.integers(0, 4)), 4)
            est = bilinear_small_ball(QuadraticForm(mat), law, beta)
            assert _estimate(est) == brute_force_bilinear(mat, law, beta), trial

    def test_enumeration_cap_boundary(self, monkeypatch):
        # 3^3 outcomes of x times 3^3 of y: 729
        form = QuadraticForm(((1, 2, 0), (2, -1, 1), (0, 1, 3)))
        want = brute_force_bilinear(form.matrix, uniform3(), 1)
        monkeypatch.setattr(smallball, "ATOM_CAP", 729)
        assert _estimate(bilinear_small_ball(form, uniform3(), 1)) == want
        monkeypatch.setattr(smallball, "ATOM_CAP", 728)
        with pytest.raises(EnumerationTooLarge):
            bilinear_small_ball(form, uniform3(), 1)

    def test_float_exactness_boundary(self):
        # val_bound = 1 + 2c + 1 must stay below 2**53
        for c, fits in ((2 ** 52 - 2, True), (2 ** 52 - 1, False)):
            form = QuadraticForm(((1, c), (c, 0)))
            if fits:
                assert _estimate(bilinear_small_ball(form, uniform3(), 0)) == \
                    brute_force_bilinear(form.matrix, uniform3(), 0)
            else:
                with pytest.raises(EnumerationTooLarge):
                    bilinear_small_ball(form, uniform3(), 0)

    def test_count_total_boundary(self):
        # counts are int64 while den**(2n) stays below 2**61 and Python
        # ints beyond (isqrt(2**61)**2 < 2**61 < (isqrt(2**61) + 1)**2);
        # the answer is exact on both sides
        root = math.isqrt(2 ** 61)
        for form, law in ((QuadraticForm(((1,),)), _two_point(root)),
                          (QuadraticForm(((1,),)), _two_point(root + 1)),
                          (QuadraticForm(((1, 2), (2, -1))), _two_point(2 ** 20))):
            for beta in (0, 1):
                est = bilinear_small_ball(form, law, beta)
                assert _estimate(est) == brute_force_bilinear(form.matrix, law, beta)

    def test_mc_close_to_exact(self):
        form = QuadraticForm(((F(1, 2), F(1, 3)), (F(1, 3), F(-1, 4))))
        exact = bilinear_small_ball(form, BERN, F(1, 8))
        mc = bilinear_small_ball_mc(form, BERN, 0.125, 10 ** 5, seed=4)
        assert abs(mc.rho - float(exact.rho)) <= mc.ci_halfwidth

    @pytest.mark.parametrize("shifts", [(F(1, 2), 0), (0, -1e-300)], ids=["half", "tiny"])
    def test_shifted_form_refused_before_work(self, shifts, monkeypatch):
        # the decoupled form has no shifts: refused before any enumeration
        # or draw, exact or Monte Carlo
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the shifts were checked")
        for name in ("_form_stack", "_coordinates", "substream"):
            monkeypatch.setattr(smallball, name, no_work)
        form = QuadraticForm(((1, 2), (2, -1)), shifts=shifts)
        with pytest.raises(ValueError, match="shifts must be 0"):
            bilinear_small_ball(form, BERN, 0)
        with pytest.raises(ValueError, match="shifts must be 0"):
            bilinear_small_ball_mc(form, BERN, 0, 100, seed=0)


def _block_diagonal(*blocks):
    """The symmetric Fraction matrix with the given square blocks on its diagonal."""
    n = sum(len(b) for b in blocks)
    m = [[F(0)] * n for _ in range(n)]
    k = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                m[k + i][k + j] = F(x)
        k += len(b)
    return tuple(tuple(row) for row in m)


def _random_symmetric(rng, n, den):
    m = rng.integers(-3, 4, size=(n, n))
    m = np.triu(m) + np.triu(m, 1).T
    return tuple(tuple(F(int(x), den) for x in row) for row in m)


class TestBlocks:
    """The exact quadratic and bilinear small balls enumerate each connected
    block of the form's coupling graph apart (i and j coupled when a_ij or
    a_ji != 0, an untouched coordinate enumerated not at all) and convolve
    the block distributions: checked against the Fraction oracles on forms
    of several blocks, while the outcome cap and the float-exactness bound
    stay judged on the whole form."""

    LAWS = (BERN, uniform3(), LOPSIDED, lazy_sign(F(1, 3)))

    def test_blocks_of_the_coupling_graph(self):
        a = np.array([[0, 0, 1, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 5]], float)
        joint = np.zeros((4, 4))        # an entry above the diagonal couples both ends
        joint[0, 3] = joint[1, 2] = 1
        assert [[b.tolist() for b in form] for form in smallball._blocks(np.stack([a, joint]))] \
            == [[[0, 2], [3]], [[0, 3], [1, 2]]]
        path = np.eye(6, k=1)           # a path needs more than one widening
        assert [b.tolist() for b in smallball._blocks(path[None])[0]] == [list(range(6))]
        assert smallball._blocks(np.zeros((1, 3, 3))) == [[]]

    def test_quadratic_block_diagonal(self):
        rng = np.random.default_rng(51)
        for trial in range(16):
            sizes = [int(k) for k in rng.integers(1, 4, size=int(rng.integers(2, 4)))]
            while sum(sizes) > 6:
                sizes.pop()
            mat = _block_diagonal(*(_random_symmetric(rng, k, 3) for k in sizes))
            shifts = tuple(F(int(rng.integers(-2, 3)), 2) for _ in mat) if trial % 2 else ()
            law = self.LAWS[trial % 4]
            beta = F(int(rng.integers(0, 3)), 4)
            form = QuadraticForm(mat, shifts=shifts)
            est = quadratic_small_ball_exact(form, law, beta)
            assert _estimate(est) == brute_force_quadratic(mat, form.shifts, law, beta), trial

    def test_zero_rows_are_not_enumerated(self):
        rng = np.random.default_rng(52)
        for trial in range(12):
            n = int(rng.integers(2, 5))
            m = np.array(_random_symmetric(rng, n, 2), dtype=object)
            for i in rng.choice(n, size=int(rng.integers(1, n)), replace=False):
                m[i, :] = m[:, i] = F(0)
            mat = tuple(tuple(row) for row in m)
            shifts = tuple(F(int(rng.integers(-2, 3)), 3) for _ in range(n))
            law = self.LAWS[trial % 4]
            beta = F(int(rng.integers(0, 3)), 4)
            est = quadratic_small_ball_exact(QuadraticForm(mat, shifts=shifts), law, beta)
            assert _estimate(est) == brute_force_quadratic(mat, shifts, law, beta), trial
            est = bilinear_small_ball(QuadraticForm(mat), law, beta)
            assert _estimate(est) == brute_force_bilinear(mat, law, beta), trial

    def test_bipartition_masked(self):
        # A_U of the decoupling check: under the difference law it splits
        # into {x_U, y_U^c} and {x_U^c, y_U}
        diff = difference_law(BERN)
        rng = np.random.default_rng(53)
        for trial in range(6):
            n = int(rng.integers(2, 5))
            m = np.triu(rng.integers(-3, 4, size=(n, n)), 1)
            m = m + m.T
            sides = rng.random(n) < 0.5     # membership in U
            m = np.where(sides[:, None] != sides[None, :], m, 0)
            mat = tuple(tuple(F(int(x), 4) for x in row) for row in m)
            beta = F(int(rng.integers(0, 4)), 4)
            law = (diff, uniform3())[trial % 2]
            est = bilinear_small_ball(QuadraticForm(mat), law, beta)
            assert _estimate(est) == brute_force_bilinear(mat, law, beta), trial
            est = quadratic_small_ball_exact(QuadraticForm(mat), law, beta)
            assert _estimate(est) == brute_force_quadratic(mat, (0,) * n, law, beta), trial

    def test_masked_form_enumerates_its_blocks(self, monkeypatch):
        # n = 5 under xi - xi' of signs: the two blocks of A_U hold
        # 3**5 = 243 outcomes each, against 3**10 = 59,049 unsplit (the
        # stored decoupling_n5 record pins the answers at this size)
        m = _random_symmetric(np.random.default_rng(54), 5, 4)
        sides = (True, False, True, False, False)
        mat = tuple(tuple(x if si != sj else F(0) for x, sj in zip(row, sides))
                    for row, si in zip(m, sides))
        diff = difference_law(BERN)
        outcomes = []
        real = smallball._group_dists
        monkeypatch.setattr(smallball, "_group_dists", lambda A, X, Y, b: outcomes.append(
            len(A) * len(X[0]) * len(Y[0])) or real(A, X, Y, b))
        bilinear_small_ball(QuadraticForm(mat), diff, F(1, 4))
        assert sum(outcomes) == 2 * 243

    def test_bilinear_block_diagonal(self):
        rng = np.random.default_rng(55)
        for trial in range(12):
            sizes = (1, 2) if trial % 2 else (1, 1, 1)
            mat = _block_diagonal(*(_random_symmetric(rng, k, 2) for k in sizes))
            law = self.LAWS[trial % 4]
            beta = F(int(rng.integers(0, 4)), 4)
            est = bilinear_small_ball(QuadraticForm(mat), law, beta)
            assert _estimate(est) == brute_force_bilinear(mat, law, beta), trial

    @pytest.mark.parametrize("kind, den, rows", [
        ("quadratic", 2 ** 20, 1), ("quadratic", 2 ** 21, 4),
        ("bilinear", 1149, 1), ("bilinear", 1150, 4)],
        ids=["quadratic-1048576-int64", "quadratic-2097152-limbs",
             "bilinear-1149-int64", "bilinear-1150-limbs"])
    def test_count_total_boundary(self, kind, den, rows, monkeypatch):
        # two blocks and one coordinate (of each side) that no entry
        # touches: the counts of the three touched coordinates total den**3
        # (quadratic: 2**60, one row of int64 counts, or 2**63, four 16-bit
        # limbs) or of the six touched ones den**6 (bilinear: 1149**6 <
        # 2**61 <= 1150**6 < 2**64)
        law = _two_point(den)
        mat = _block_diagonal(((1, 2), (2, -1)), ((0,),), ((3,),))
        seen = []
        real = smallball._aggregate_np
        monkeypatch.setattr(smallball, "_aggregate_np",
                            lambda v, c: seen.append(c.shape[0]) or real(v, c))
        for beta in (0, F(1, 2), 3):
            if kind == "quadratic":
                est = quadratic_small_ball_exact(QuadraticForm(mat), law, beta)
                want = brute_force_quadratic(mat, (0,) * 4, law, beta)
            else:
                est = bilinear_small_ball(QuadraticForm(mat), law, beta)
                want = brute_force_bilinear(mat, law, beta)
            assert _estimate(est) == want
        assert set(seen) == {rows}

    def test_limb_products_carry(self, monkeypatch):
        # counts 1 and 2**16 - 2 on six coupled coordinates: a count total
        # just below 2**96 in six limbs, whose outcome tables of three
        # coordinates each hold counts near 2**48; their products pass
        # 2**63 unless the limbs carry, and the distribution's rows come
        # out carried
        law = _two_point(2 ** 16 - 1)
        m = _random_symmetric(np.random.default_rng(56), 6, 1)
        mat = tuple(tuple(x if i == j else x or F(1) for j, x in enumerate(row))
                    for i, row in enumerate(m))
        dists = []
        real = smallball._exact_estimate
        monkeypatch.setattr(smallball, "_exact_estimate",
                            lambda dist, *rest: dists.append(dist) or real(dist, *rest))
        for beta in (0, F(1, 2), 2):
            est = quadratic_small_ball_exact(QuadraticForm(mat), law, beta)
            assert _estimate(est) == brute_force_quadratic(mat, (0,) * 6, law, beta)
        cnts = dists[0].cnts
        assert cnts.shape[0] == 6 and (cnts[:-1] < 2 ** 16).all()
        assert sum(_joined(cnts)) == dists[0].ctotal == (2 ** 16 - 1) ** 6

    def test_enumeration_cap_boundary(self, monkeypatch):
        # caps judged on every outcome of the whole form: 3**4 = 81 for the
        # quadratic form, 3**3 * 3**3 = 729 for the bilinear one, though each
        # block alone enumerates far fewer
        quad = QuadraticForm(_block_diagonal(((1, 1), (1, 0)), ((0, 2), (2, 1))))
        want = brute_force_quadratic(quad.matrix, quad.shifts, uniform3(), 1)
        monkeypatch.setattr(smallball, "ATOM_CAP", 81)
        assert _estimate(quadratic_small_ball_exact(quad, uniform3(), 1)) == want
        monkeypatch.setattr(smallball, "ATOM_CAP", 80)
        with pytest.raises(EnumerationTooLarge):
            quadratic_small_ball_exact(quad, uniform3(), 1)
        bil = QuadraticForm(_block_diagonal(((1, 2), (2, -1)), ((3,),)))
        want = brute_force_bilinear(bil.matrix, uniform3(), 1)
        monkeypatch.setattr(smallball, "ATOM_CAP", 729)
        assert _estimate(bilinear_small_ball(bil, uniform3(), 1)) == want
        monkeypatch.setattr(smallball, "ATOM_CAP", 728)
        with pytest.raises(EnumerationTooLarge):
            bilinear_small_ball(bil, uniform3(), 1)

    def test_float_exactness_judged_on_the_whole_form(self):
        # each block's values stay far below 2**53, but the whole form's
        # bound 1 + 2c + 1 + 1 + 2c + 1 does not
        c = 2 ** 51
        half = ((1, c), (c, 0))
        fits = QuadraticForm(_block_diagonal(half, ((0,),)))
        assert _estimate(quadratic_small_ball_exact(fits, uniform3(), 0)) == \
            brute_force_quadratic(fits.matrix, fits.shifts, uniform3(), 0)
        with pytest.raises(EnumerationTooLarge):
            quadratic_small_ball_exact(QuadraticForm(_block_diagonal(half, half)),
                                       uniform3(), 0)


class TestStacks:
    """The exact quadratic and bilinear engines on a stack of forms that
    share their coordinates (one law per side, the same shifts): every
    form's (rho, witness_center) from one enumeration of the stack against
    the Fraction oracle and against the stack-of-one calls, over mixed
    block structures, untouched coordinates, nonzero shifts, a 3-atom law
    of unequal masses and count totals past 2**61."""

    THREE = AtomicLaw(((-1, F(1, 6)), (0, F(1, 3)), (2, F(1, 2))))
    LAWS = (BERN, THREE, LOPSIDED, lazy_sign(F(1, 3)))

    @staticmethod
    def _stack_forms(rng, count, n, shifts):
        forms = []
        for _ in range(count):
            m = np.array(_random_symmetric(rng, n, int(rng.integers(1, 4))), dtype=object)
            m[rng.random((n, n)) < 0.4] = F(0)        # blocks of several shapes
            m = np.triu(m) + np.triu(m, 1).T
            for i in rng.choice(n, size=int(rng.integers(0, n)), replace=False):
                m[i, :] = m[:, i] = F(0)                # coordinates no entry touches
            forms.append(QuadraticForm(tuple(tuple(row) for row in m), shifts=shifts))
        return forms

    def test_quadratic_stack(self):
        rng = np.random.default_rng(71)
        for trial in range(12):
            n = int(rng.integers(2, 5))
            shifts = tuple(F(int(rng.integers(-2, 3)), 3) for _ in range(n)) if trial % 2 else ()
            forms = self._stack_forms(rng, int(rng.integers(2, 6)), n, shifts)
            law = self.LAWS[trial % 4]
            beta = F(int(rng.integers(0, 4)), 4)
            stack = [smallball._exact_estimate(d, beta)
                     for d in smallball._quadratic_stack(forms, law, ATOM_CAP)()]
            for form, est in zip(forms, stack):
                want = brute_force_quadratic(form.matrix, form.shifts, law, beta)
                assert _estimate(est) == want, trial
                assert _estimate(quadratic_small_ball_exact(form, law, beta)) == want, trial

    def test_bilinear_stack(self):
        # the stack leaves the forms' shifts out: the decoupled form
        rng = np.random.default_rng(72)
        for trial in range(12):
            n = int(rng.integers(2, 4))
            shifts = tuple(F(int(rng.integers(-2, 3)), 2) for _ in range(n)) if trial % 2 else ()
            forms = self._stack_forms(rng, int(rng.integers(2, 5)), n, shifts)
            law = self.LAWS[trial % 4]
            beta = F(int(rng.integers(0, 4)), 4)
            stack = [smallball._exact_estimate(d, beta)
                     for d in smallball._bilinear_stack(forms, law, ATOM_CAP)()]
            for form, est in zip(forms, stack):
                want = brute_force_bilinear(form.matrix, law, beta)
                assert _estimate(est) == want, trial
                assert _estimate(bilinear_small_ball(QuadraticForm(form.matrix), law, beta)) \
                    == want, trial

    def test_limbs_shared_by_the_stack(self):
        # the first form touches three coordinates, whose counts total
        # 2**63 (four 16-bit limbs); the second touches two (2**42) and one
        # only the diagonal: the stack holds every count in four limbs
        law = _two_point(2 ** 21)
        forms = [QuadraticForm(_block_diagonal(((1, 2), (2, -1)), ((0,),), ((3,),))),
                 QuadraticForm(_block_diagonal(((0, 1), (1, 0)), ((0,),), ((0,),))),
                 QuadraticForm(_block_diagonal(((2, 0), (0, 0)), ((0,),), ((0,),)))]
        dists = smallball._quadratic_stack(forms, law, ATOM_CAP)()
        assert [d.cnts.shape[0] for d in dists] == [4] * 3
        assert [d.ctotal for d in dists] == [2 ** 63, 2 ** 42, 2 ** 21]
        for beta in (0, F(1, 2), 3):
            for form, dist in zip(forms, dists):
                assert _estimate(smallball._exact_estimate(dist, _radius(beta))) == \
                    brute_force_quadratic(form.matrix, form.shifts, law, beta)

    def test_one_row_stack_past_2_63(self):
        # ten forms on two coordinates, each of count total 2**60, one int64
        # row: the counts the stack aggregates together sum past 2**63, and
        # every form's counts stay exact
        rng = np.random.default_rng(74)
        law = _two_point(2 ** 30)
        forms = []
        while len(forms) < 10:
            m = _random_symmetric(rng, 2, 2)
            if m[0][1]:         # both coordinates touched
                forms.append(QuadraticForm(m))
        dists = smallball._quadratic_stack(forms, law, ATOM_CAP)()
        assert [d.cnts.shape[0] for d in dists] == [1] * 10
        assert sum(d.ctotal for d in dists) == 10 * 2 ** 60 > 2 ** 63
        for beta in (0, F(1, 2), 2):
            for form, dist in zip(forms, dists):
                want = brute_force_quadratic(form.matrix, form.shifts, law, beta)
                assert _estimate(smallball._exact_estimate(dist, _radius(beta))) == want
                assert _estimate(quadratic_small_ball_exact(form, law, beta)) == want

    def test_outcome_tables_built_once_per_kind(self, monkeypatch):
        # five n = 4 forms of one block each: the tables of the two halves
        # (both two coordinates of one kind) are built once for the stack
        rng = np.random.default_rng(73)
        forms = [QuadraticForm(_random_symmetric(rng, 4, 1)) for _ in range(5)]
        for form in forms:
            assert len(smallball._blocks(np.array(form.matrix, dtype=float)[None])[0]) == 1
        tables = []
        real = smallball._outcome_table
        monkeypatch.setattr(smallball, "_outcome_table",
                            lambda c, t: tables.append(len(c)) or real(c, t))
        smallball._quadratic_stack(forms, BERN, ATOM_CAP)()
        assert tables == [2]

    def test_stack_needs_shared_shifts(self):
        forms = [QuadraticForm(((0, 1), (1, 0))), QuadraticForm(((0, 1), (1, 0)), shifts=(1, 0))]
        with pytest.raises(ValueError, match="shifts"):
            smallball._quadratic_stack(forms, BERN, ATOM_CAP)
        with pytest.raises(ValueError, match="at least one"):
            smallball._bilinear_stack([], BERN, ATOM_CAP)


class TestMonteCarloPins:
    """(rho, witness_center, ci_halfwidth) of each Monte Carlo engine at a
    fixed seed, to the exact floats the engines gave before they shared
    one window scan."""

    def test_linear_atoms(self):
        est = linear_small_ball_mc(LinearForm((1, 2, 3, 1, 1)), BERN, 0.5, 3000, seed=11)
        assert (est.rho, est.witness_center, est.ci_halfwidth) == \
            (0.204, 0.0, 0.024795427851769823)

    def test_linear_continuous_shifted(self):
        form = LinearForm((1, F(1, 2), 3), shifts=(F(1, 3), 0, 1))
        est = linear_small_ball_mc(form, gaussian(), 0.4, 2000, seed=11)
        assert (est.rho, est.witness_center, est.ci_halfwidth) == \
            (0.115, 4.022264071951322, 0.030368073095415258)

    def test_quadratic(self):
        form = QuadraticForm(((0, F(1, 2), 1), (F(1, 2), 0, -1), (1, -1, 2)),
                             shifts=(F(1, 3), 0, F(-1, 4)))
        est = quadratic_small_ball_mc(form, uniform3(), 0.25, 3000, seed=12)
        assert (est.rho, est.witness_center, est.ci_halfwidth) == \
            (0.189, 3.041666666666667, 0.024795427851769823)

    def test_bilinear(self):
        # X, then Y, from each chunk's stream, as when the Monte Carlo
        # bilinear small ball took a law for each side
        form = QuadraticForm(((1, 2), (2, -1)))
        for law, pin in ((BERN, (0.26066666666666666, 2.0, 0.024795427851769823)),
                         (gaussian(), (0.13466666666666666, -0.014713181167996858,
                                       0.024795427851769823))):
            est = bilinear_small_ball_mc(form, law, 0.3, 3000, seed=13)
            assert (est.rho, est.witness_center, est.ci_halfwidth) == pin


class TestForms:
    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            QuadraticForm(((0, 1), (2, 0)))

    def test_shift_length_checked(self):
        with pytest.raises(ValueError):
            LinearForm((1, 2), shifts=(0,))

    def test_empty_quadratic_form_rejected(self):
        with pytest.raises(ValueError):
            QuadraticForm(())


class TestNegativeBeta:
    """Every public small ball rejects beta < 0 before any convolution,
    enumeration or sampling."""

    LIN = LinearForm((1, 1, 1, 1))
    QUAD = QuadraticForm(((1, 2), (2, -1)))

    @pytest.mark.parametrize("call", [
        lambda b: linear_small_ball_exact(TestNegativeBeta.LIN, BERN, b),
        lambda b: linear_small_ball_mc(TestNegativeBeta.LIN, BERN, b, 100, seed=0),
        lambda b: quadratic_small_ball_exact(TestNegativeBeta.QUAD, BERN, b),
        lambda b: quadratic_small_ball_mc(TestNegativeBeta.QUAD, BERN, b, 100, seed=0),
        lambda b: bilinear_small_ball(TestNegativeBeta.QUAD, BERN, b),
        lambda b: bilinear_small_ball_mc(TestNegativeBeta.QUAD, BERN, b, 100, seed=0),
    ], ids=["linear-exact", "linear-mc", "quadratic-exact",
            "quadratic-mc", "bilinear-exact", "bilinear-mc"])
    @pytest.mark.parametrize("beta", [-1, F(-1, 4), -1e-300])
    def test_rejected_before_work(self, call, beta, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before beta was checked")
        for name in ("_linear_sum_dist", "_form_stack", "substream"):
            monkeypatch.setattr(smallball, name, no_work)
        with pytest.raises(ValueError, match="beta"):
            call(beta)


@pytest.mark.parametrize("call", [
    lambda law: linear_small_ball_exact(LinearForm((1, 2)), law, 0),
    lambda law: quadratic_small_ball_exact(QuadraticForm(((0, 1), (1, 0))), law, 0),
    lambda law: bilinear_small_ball(QuadraticForm(((0, 1), (1, 0))), law, 0),
], ids=["linear", "quadratic", "bilinear"])
def test_exact_needs_atomic_laws(call):
    with pytest.raises(ValueError, match="atomic"):
        call(gaussian())


class TestScaling:
    def test_elo_constant_range_spot(self):
        for n in (16, 50, 200):
            val = float(central_binomial_rho(n)) * math.sqrt(n)
            assert 0.6 <= val <= 0.8

    def test_matches_exact_engine(self):
        est = linear_small_ball_exact(LinearForm((1,) * 16), BERN, 0)
        assert est.rho == central_binomial_rho(16)
