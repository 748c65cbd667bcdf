import itertools
from fractions import Fraction as F

import numpy as np
import pytest

from randsym import gap
from randsym import (FullRank, Gap, OutOfBox, VolumeTooLarge, beta_close,
                     enumerate_values, evaluate, format_gap, integer_hyperplane,
                     is_proper, parse_gap, rank_reduce, spans)
from genutil import plant_degenerate_subset, random_proper_symmetric_gap

LINE3 = Gap.symmetric((1,), (3,))            # {k : |k| <= 3}
WIDE = Gap.symmetric((1, 10), (2, 2))        # proper: stride 10 > width 5
NARROW = Gap.symmetric((1, 3), (2, 2))       # collides: 2 = 2+0*3 = -1+1*3


class TestEvaluate:
    def test_line(self):
        assert evaluate(LINE3, (2,)) == 2

    def test_rank2(self):
        assert evaluate(WIDE, (1, 1)) == 11

    def test_out_of_box(self):
        with pytest.raises(OutOfBox):
            evaluate(WIDE, (3, 0))


class TestEnumerate:
    def test_line(self):
        assert enumerate_values(Gap.symmetric((1,), (1,))) == [F(-1), F(0), F(1)]

    def test_collision_multiset(self):
        vals = enumerate_values(NARROW)
        assert len(vals) == 25
        assert vals.count(F(2)) >= 2          # 2 = 2 + 0*3 = -1 + 1*3

    def test_proper_distinct(self):
        vals = enumerate_values(WIDE)
        assert len(vals) == 25 == len(set(vals))

    def test_volume_cap(self, monkeypatch):
        monkeypatch.setattr(gap, "ENUM_CAP", 100)
        with pytest.raises(VolumeTooLarge):
            enumerate_values(Gap.symmetric((1, 2), (40, 40)))

    def test_length_equals_volume(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            q = random_proper_symmetric_gap(rng, max_volume=2000)
            assert len(enumerate_values(q)) == q.volume


class TestIsProper:
    def test_wide(self):
        assert is_proper(WIDE)

    def test_narrow_collides(self):
        assert not is_proper(NARROW)

    def test_rank1_nonzero(self):
        assert is_proper(Gap.symmetric((F(7, 3),), (25,)))

    @pytest.mark.parametrize("q", [
        WIDE, NARROW, LINE3, Gap.symmetric((), ()), Gap.symmetric((0,), (2,)),
        Gap(F(5, 2), (F(3, 2), F(1, 4), F(-7, 4)), (-2, 0, -1), (1, 3, 2)),
        # values past 2**61: an object array, one proper and one not
        Gap.symmetric((1, 2 ** 62 + 1), (3, 3)),
        Gap.symmetric((2 ** 62, 2 ** 63), (2, 2)),      # 2 * 2**62 = 1 * 2**63
    ])
    def test_matches_set_oracle(self, q):
        box = itertools.product(*(range(lo, hi + 1) for lo, hi in zip(q.lower, q.upper)))
        values = [evaluate(q, p) for p in box]
        assert is_proper(q) == (len(set(values)) == len(values) == q.volume)

    def test_random_gaps_match_set_oracle(self):
        rng = np.random.default_rng(19)
        seen = set()
        for _ in range(40):
            rank = int(rng.integers(1, 4))
            q = Gap.symmetric(tuple(int(g) for g in rng.integers(-12, 13, rank)),
                              tuple(int(h) for h in rng.integers(0, 4, rank)))
            values = enumerate_values(q)
            seen.add(is_proper(q))
            assert is_proper(q) == (len(set(values)) == q.volume)
        assert seen == {True, False}


class TestBetaClose:
    def test_hit(self):
        assert beta_close(LINE3, 2.4, 0.5) == (2,)

    def test_miss(self):
        assert beta_close(LINE3, 2.4, 0.3) is None

    def test_rank2(self):
        assert beta_close(WIDE, 11.05, 0.1) == (1, 1)

    def test_tie_breaks_to_smaller_point(self):
        # 0.5 is equidistant from 0 and 1: smallest |dist| ties, then lex order
        assert beta_close(LINE3, F(1, 2), 1) == (0,)


class TestSpans:
    def test_collinear(self):
        assert not spans(WIDE, [(1, 1), (2, 2)])

    def test_basis(self):
        assert spans(WIDE, [(1, 0), (0, 1)])

    def test_rank1(self):
        assert spans(LINE3, [(2,)])

    def test_box_checked(self):
        with pytest.raises(OutOfBox):
            spans(WIDE, [(5, 0)])


class TestIntegerHyperplane:
    def test_collinear_pair(self):
        assert integer_hyperplane([(1, 1), (2, 2)], 2) == (-1, 1)

    def test_full_rank(self):
        with pytest.raises(FullRank):
            integer_hyperplane([(1, 0), (0, 1)], 2)

    def test_single_point(self):
        # 2*k1 + 4*k2 = 0 direction, primitivized, last entry positive
        alpha = integer_hyperplane([(2, 4)], 2)
        assert alpha == (-2, 1)
        assert 2 * alpha[0] + 4 * alpha[1] == 0

    def test_annihilates_and_primitive(self):
        rng = np.random.default_rng(11)
        from math import gcd
        for _ in range(20):
            r = int(rng.integers(2, 4))
            base = [int(x) for x in rng.integers(-4, 5, size=r)]
            if not any(base):
                base[0] = 1
            pts = [tuple(c * b for b in base) for c in (1, 2, -1)]
            alpha = integer_hyperplane(pts, r)
            g = 0
            for x in alpha:
                g = gcd(g, abs(x))
            assert g == 1
            for p in pts:
                assert sum(a * k for a, k in zip(alpha, p)) == 0


class TestRankReduce:
    def test_worked_instance(self):
        red = rank_reduce(WIDE, [11, 22], [(1, 1), (2, 2)])
        assert red.gap.generators == (F(11),)
        assert red.gap.lower == (-2,) and red.gap.upper == (2,)
        assert red.witnesses == ((1,), (2,))
        assert beta_close(red.gap, 11, 0) is not None
        assert beta_close(red.gap, 22, 0) is not None

    def test_spanning_input_unchanged(self):
        red = rank_reduce(WIDE, [1, 10], [(1, 0), (0, 1)])
        assert red.gap == WIDE
        assert red.inflation == 1

    def test_zero_value(self):
        red = rank_reduce(WIDE, [0], [(0, 0)])
        assert red.gap.rank == 0
        assert evaluate(red.gap, ()) == 0

    def test_needs_proper_symmetric(self):
        with pytest.raises(ValueError):
            rank_reduce(NARROW, [2], [(2, 0)])
        asym = Gap(F(1), (F(1),), (-2,), (2,))
        with pytest.raises(ValueError):
            rank_reduce(asym, [1], [(0,)])

    def test_witnesses_found_when_omitted(self):
        red = rank_reduce(WIDE, [11, 22])
        assert red.gap.generators == (F(11),)

    def test_starting_gap_enumerated_once(self, monkeypatch):
        # properness and every omitted witness share one enumeration, and
        # the witnesses are beta_close's, tie-breaks included
        q = Gap.symmetric((1, 5, 25), (2, 2, 2))     # proper: balanced base 5
        values = [6, 12, 13]
        wits = [beta_close(q, v, 0) for v in values]
        enumerated = []
        real = gap._points_array
        monkeypatch.setattr(gap, "_points_array", lambda g: enumerated.append(g) or real(g))
        red = rank_reduce(q, values)
        assert enumerated.count(q) == 1
        assert red == rank_reduce(q, values, wits)

    def test_collision_restoration_end_to_end(self):
        # a hidden generator relation surfaces once the degenerate
        # direction is eliminated; properness restoration must kick in
        q = Gap(F(0), (F(16), F(15, 2), F(-9, 2)), (-3, -1, -4), (3, 1, 4))
        wits = [(-1, -1, -3), (-1, 0, -3), (-1, 1, -3),
                (0, -1, 0), (0, 1, 0), (1, 1, 3)]
        values = [evaluate(q, w) for w in wits]
        red = rank_reduce(q, values, wits)
        assert any(st.kind == "collision" for st in red.steps)
        assert red.gap == Gap.symmetric((F(5, 2),), (6,))
        assert is_proper(red.gap) and spans(red.gap, red.witnesses)
        for v, w in zip(values, red.witnesses):
            assert evaluate(red.gap, w) == v

    def test_relation_elimination_helpers(self):
        # white box: the collision relation annihilates the generators and
        # the rescaled elimination keeps every original value
        from randsym.gap import _collision_relation, _eliminate_relation
        q = Gap.symmetric((1, 3), (2, 2))      # 2 = 2 + 0*3 = -1 + 1*3
        d = _collision_relation(q)
        assert sum(k * g for k, g in zip(d, q.generators)) == 0
        wits = [(2, 1), (-1, -2), (1, 0)]
        values = [evaluate(q, w) for w in wits]
        q2, wits2, _ = _eliminate_relation(q, wits, d)
        assert is_proper(q2)
        for v, w in zip(values, wits2):
            assert evaluate(q2, w) == v
        assert set(enumerate_values(q)) <= set(enumerate_values(q2))

    def test_property_sweep(self):
        rng = np.random.default_rng(77)
        for _ in range(60):
            q = random_proper_symmetric_gap(rng)
            values, wits = plant_degenerate_subset(rng, q)
            red = rank_reduce(q, values, wits)
            assert red.gap.rank <= q.rank
            assert red.gap.is_symmetric
            assert is_proper(red.gap)
            assert spans(red.gap, red.witnesses)
            for v, w in zip(values, red.witnesses):
                assert evaluate(red.gap, w) == v
                assert beta_close(red.gap, v, 0) is not None


class TestBigGenerators:
    # generators beyond int64 that share their content: on their lattice
    # (unit 2**70 / 3) they are 1 and 10
    BIG = Gap.symmetric((F(2 ** 70, 3), F(2 ** 70, 3) * 10), (2, 2))

    def test_enumerate_and_proper(self):
        assert is_proper(self.BIG)
        assert len(enumerate_values(self.BIG)) == 25

    def test_beta_close(self):
        target = evaluate(self.BIG, (1, 1))
        assert beta_close(self.BIG, target, 0) == (1, 1)

    def test_rank_reduce(self):
        vals = [evaluate(self.BIG, (1, 1)), evaluate(self.BIG, (2, 2))]
        red = rank_reduce(self.BIG, vals, [(1, 1), (2, 2)])
        assert red.gap.generators == (F(2 ** 70, 3) * 11,)


class TestObjectValues:
    """Values beyond int64 on the lattice run as an object array of Python ints."""

    BIG = Gap.symmetric((1, 2 ** 61), (3, 3))
    THIRDS = Gap.symmetric((F(1, 3), 2 ** 62 + F(1, 3)), (2, 2))     # unit 1/3

    @pytest.mark.parametrize("q", [BIG, THIRDS])
    def test_object_path_matches_fraction_oracle(self, q):
        assert gap._scaled_values(q)[0].dtype == object
        box = itertools.product(*(range(lo, hi + 1) for lo, hi in zip(q.lower, q.upper)))
        oracle = sorted(sum((k * g for k, g in zip(p, q.generators)), q.offset) for p in box)
        assert enumerate_values(q) == oracle
        assert len(oracle) == q.volume
        assert is_proper(q)

    def test_beta_close(self):
        assert beta_close(self.BIG, 2 ** 61 + 2, 0) == (2, 1)
        assert beta_close(self.THIRDS, 2 ** 62, 1) == (-1, 1)
        assert beta_close(self.BIG, 2 ** 62 + 2 ** 61 + 4, 0) is None


class TestLiterals:
    def test_parse_format_roundtrip(self):
        text = "gap{g0=0; g=[1,10]; K=[-2,-2]; K'=[2,2]}"
        q = parse_gap(text)
        assert q == WIDE
        assert parse_gap(format_gap(q)) == q

    def test_fraction_generators(self):
        q = parse_gap("gap{g0=1/3; g=[2/7]; K=[-4]; K'=[4]}")
        assert q.offset == F(1, 3) and q.generators == (F(2, 7),)

    def test_reject_garbage(self):
        with pytest.raises(ValueError):
            parse_gap("gap{g=[1]}")
        with pytest.raises(ValueError):
            parse_gap("notagap")
