import math
from fractions import Fraction as F

import numpy as np
import pytest

from randsym import (AtomicLaw, SpacingCertificate, atom_bound_holds, auto_certificate,
                     bernoulli, difference_law, gaussian, lazy_sign, parse_law, uniform3,
                     verify_spacing)
from randsym.laws import _count_atoms, atom_indices, step_values
from randsym.streams import _block_state, chunk_bounds, key_seed, substream


def atoms_of(law):
    return tuple((v, p) for v, p in law.atoms)


class TestDifferenceLaw:
    def test_bernoulli(self):
        d = difference_law(bernoulli())
        assert atoms_of(d) == ((F(-2), F(1, 4)), (F(0), F(1, 2)), (F(2), F(1, 4)))

    def test_point_mass(self):
        assert atoms_of(difference_law(AtomicLaw(((0, F(1)),)))) == ((F(0), F(1)),)

    def test_uniform3(self):
        d = difference_law(uniform3())
        assert atoms_of(d) == ((F(-2), F(1, 9)), (F(-1), F(2, 9)), (F(0), F(3, 9)),
                               (F(1), F(2, 9)), (F(2), F(1, 9)))

    def test_symmetric_about_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            k = int(rng.integers(1, 5))
            vals = sorted(set(int(v) for v in rng.integers(-9, 10, size=k)))
            masses = rng.integers(1, 5, size=len(vals))
            tot = int(masses.sum())
            law = AtomicLaw(tuple((v, F(int(m), tot)) for v, m in zip(vals, masses)))
            d = dict(difference_law(law).atoms)
            for v, p in d.items():
                assert d[-v] == p


class TestVerifySpacing:
    def test_bernoulli_tight(self):
        assert verify_spacing(bernoulli(), SpacingCertificate(2, 2, F(1, 2)))

    def test_bernoulli_gap_window(self):
        assert not verify_spacing(bernoulli(), SpacingCertificate(1, 1.5, 0.1))

    def test_point_mass_never(self):
        assert not verify_spacing(AtomicLaw(((5, F(1)),)), SpacingCertificate(1, 2, 0.01))

    def test_gaussian_closed_form(self):
        # xi - xi' ~ N(0,2): P(0.5 <= |D| <= 4) = erf(2) - erf(0.25)
        want = math.erf(2.0) - math.erf(0.25)
        assert verify_spacing(gaussian(), SpacingCertificate(0.5, 4.0, want - 1e-12))
        assert not verify_spacing(gaussian(), SpacingCertificate(0.5, 4.0, want + 1e-6))

    def test_atom_bound_for_accepted_certificates(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            k = int(rng.integers(2, 5))
            vals = sorted(set(int(v) for v in rng.integers(-9, 10, size=k)))
            if len(vals) < 2:
                continue
            masses = rng.integers(1, 5, size=len(vals))
            tot = int(masses.sum())
            law = AtomicLaw(tuple((v, F(int(m), tot)) for v, m in zip(vals, masses)))
            cert = auto_certificate(law)
            if cert is None:
                continue
            assert verify_spacing(law, cert)
            assert atom_bound_holds(law, cert.c3)

    def test_auto_certificate_bernoulli(self):
        cert = auto_certificate(bernoulli())
        assert (cert.c1, cert.c2, cert.c3) == (F(2), F(2), F(1, 2))

    def test_uniform_continuous_diff_mass(self):
        from randsym import uniform_continuous
        law = uniform_continuous()
        # |xi - xi'| for U(-sqrt3, sqrt3) is triangular on [0, 2 sqrt3];
        # cross-check the closed form against Monte Carlo
        rng = np.random.default_rng(6)
        x = law.sample(rng, 200000)
        y = law.sample(rng, 200000)
        d = np.abs(x - y)
        for c1, c2 in ((0.5, 1.5), (1.0, 3.0)):
            want = law.diff_interval_mass(c1, c2)
            got = float(np.mean((d >= c1) & (d <= c2)))
            assert abs(got - want) <= 0.005
        assert verify_spacing(law, auto_certificate(law))


class TestLawLiterals:
    def test_named(self):
        assert parse_law("bernoulli").atoms == bernoulli().atoms
        assert parse_law("uniform3").atoms == uniform3().atoms
        assert parse_law("gaussian").label == "gaussian"
        assert parse_law("lazy(1/2)").atoms == lazy_sign(F(1, 2)).atoms

    def test_inline_atoms(self):
        law = parse_law("atoms[(-1,1/4),(0,1/2),(1,1/4)]")
        assert law.atoms == lazy_sign(F(1, 2)).atoms

    def test_unknown(self):
        with pytest.raises(ValueError):
            parse_law("cauchy")

    @pytest.mark.parametrize("text, bad", [
        ("atoms[(1/0,1)]", r"\(1/0,1\)"),
        ("atoms[(1;1)]", r"\(1;1\)"),
        ("atoms[(0,1/2),(1,1/2,0)]", r"\(1,1/2,0\)"),
        ("atoms[(x,1)]", r"\(x,1\)"),
        ("lazy(1/0)", "'1/0'"),
    ], ids=["zero-denominator", "no-comma", "three-entries", "not-a-number", "lazy-1/0"])
    def test_malformed_literal_named(self, text, bad):
        with pytest.raises(ValueError, match=bad) as err:
            parse_law(text)
        assert repr(text) in str(err.value)


class TestCanonicalization:
    def test_mass_sum_enforced(self):
        with pytest.raises(ValueError):
            AtomicLaw(((0, F(1, 2)), (1, F(1, 3))))

    def test_duplicate_values_merge(self):
        law = AtomicLaw(((1, F(1, 4)), (1, F(1, 4)), (0, F(1, 2))))
        assert atoms_of(law) == ((F(0), F(1, 2)), (F(1), F(1, 2)))

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            AtomicLaw(((0, F(3, 2)), (1, F(-1, 2))))

    def test_values_strictly_increasing(self):
        law = AtomicLaw(((3, F(1, 3)), (-1, F(1, 3)), (0, F(1, 3))))
        vals = [float(v) for v in law.values]
        assert vals == sorted(vals)

    def test_order_is_exact_whatever_the_input_order(self):
        # 1 + 2**-60 and 1 are the same float: ordered by float(value) the
        # law kept its input order, so the two inputs below gave unequal
        # laws, and unequal draws from the same uniforms
        atoms = ((1 + F(1, 2 ** 60), F(1, 2)), (F(1), F(1, 2)))
        a, b = AtomicLaw(atoms), AtomicLaw(atoms[::-1])
        assert a == b
        assert a.values == (F(1), 1 + F(1, 2 ** 60))
        u = np.random.default_rng(2).random(50)
        assert (atom_indices(a._cum, u) == atom_indices(b._cum, u)).all()

    def test_mixed_floats_and_fractions_ordered_exactly(self):
        law = AtomicLaw(((0.5, F(1, 4)), (F(1, 3), F(1, 4)), (-0.25, F(1, 2))))
        assert law.values == (-0.25, F(1, 3), 0.5)

    def test_rational_beyond_float_range(self):
        # float(10**400) overflows; ordering and merging stay exact
        huge = F(10 ** 400)
        law = AtomicLaw(((huge, F(1, 2)), (F(1), F(1, 4)), (huge, F(1, 4))))
        assert atoms_of(law) == ((F(1), F(1, 4)), (huge, F(3, 4)))
        assert AtomicLaw(((huge, F(1, 2)), (2.5, F(1, 2)))).values == (2.5, huge)
        assert difference_law(law).values == (-huge + 1, F(0), huge - 1)

    def test_difference_law_built_once_per_law(self):
        law = uniform3()
        assert difference_law(law) is difference_law(law)
        assert difference_law(law) == difference_law(uniform3())


def _searched(cum, u):
    return np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)


class TestAtomIndices:
    """Counting atoms and searchsorted give the same indices; the sampler
    picks one from the atom count and the draw count."""

    @staticmethod
    def cum_with_zero_masses(k, rng):
        masses = rng.random(k)
        masses[rng.random(k) < 0.3] = 0.0          # flat steps in cum
        masses[-1] = max(masses[-1], 0.1)
        cum = np.cumsum(masses / masses.sum())
        cum[-1] = 1.0
        return cum

    @pytest.mark.parametrize("k", range(1, 34))
    def test_kernels_agree(self, k):
        rng = np.random.default_rng(k)
        cum = self.cum_with_zero_masses(k, rng)
        for draws in (1, 7, 210, 5000, 40000):
            u = rng.random(draws)
            j = min(k - 1, draws)
            u[:j] = cum[:j]                            # draws right on a step
            want = _searched(cum, u)
            assert np.array_equal(_count_atoms(cum, u), want)
            got = atom_indices(cum, u)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        u = rng.random((3, 50))
        assert np.array_equal(atom_indices(cum, u), _searched(cum, u))

    def test_both_kernels_chosen(self, monkeypatch):
        import randsym.laws
        counted = []

        def counting(cum, u):
            counted.append(u.size)
            return _count_atoms(cum, u)
        monkeypatch.setattr(randsym.laws, "_count_atoms", counting)
        cum = np.array([0.25, 0.5, 1.0])
        for draws in (10, 20100):
            u = np.random.default_rng(draws).random(draws)
            assert np.array_equal(atom_indices(cum, u), _searched(cum, u))
        assert counted == [20100]
        cum33 = np.linspace(1 / 33, 1, 33)
        atom_indices(cum33, np.random.default_rng(0).random(20100))
        assert counted == [20100]

    def test_stream_block_stacks_rows(self):
        law = uniform3()
        seeds = [3, 4, 5]
        stack = law.sample_indices(substream(seeds), (2, 6))
        assert stack.shape == (3, 2, 6)
        for s, row in zip(seeds, stack):
            assert np.array_equal(row, law.sample_indices(substream(s), (2, 6)))
        vals = gaussian().sample_values(substream(seeds), 4)
        assert vals.shape == (3, 4)
        assert np.array_equal(vals[1], gaussian().sample_values(substream(4), 4))
        assert gaussian().sample_values(substream([]), (2, 3)).shape == (0, 2, 3)


class TestStepForm:
    """The step form a0 + sum_j d_j [u >= c_j] gives the lattice value of
    the atom atom_indices picks for u, bit for bit: on random uniforms, on
    0, on every cut point c_j and just below it, and on the largest
    uniform 1 - 2**-53."""

    @pytest.mark.parametrize("law", [
        bernoulli(), uniform3(), lazy_sign(F(1, 10)),
        parse_law("atoms[(-1,1/3),(0,2/7),(1,8/21)]"),      # masses not dyadic
        parse_law("atoms[(-3,1/5),(1,3/10),(7/2,1/2)]"),    # unit 1/2: -6, 2, 7
    ], ids=["bernoulli", "uniform3", "lazy", "non-dyadic", "non-unit-lattice"])
    def test_step_form_is_the_lattice_value(self, law):
        ints = np.array(law._lattice[1], dtype=np.int64)
        cuts = np.array([c for c, _ in law._steps[1]])
        assert np.array_equal(cuts, law._cum[:-1])
        edges = np.concatenate([[0.0, 1 - 2 ** -53], cuts, np.nextafter(cuts, 0)])
        for u in (np.random.default_rng(7).random(5000), edges, edges[:, None]):
            got = step_values(law._steps, u)
            assert got.dtype == np.float64 and got.shape == u.shape
            assert np.array_equal(got, ints[atom_indices(law._cum, u)])
        # the same uniforms as sample_indices, searched (15 draws) or counted
        for size in ((3, 5), (4096, 8)):
            assert np.array_equal(law.lattice_values(substream(3), size),
                                  ints[law.sample_indices(substream(3), size)])

    def test_one_atom(self):
        law = AtomicLaw(((F(-5, 2), F(1)),))
        assert np.array_equal(law.lattice_values(substream(1), 4), [-1.0] * 4)

    def test_values_past_2_52_rejected(self):
        law = AtomicLaw(((1, F(1, 2)), (2 ** 52, F(1, 2))))
        assert law.lattice_values(substream(1), 3).max() <= 2 ** 52
        law = AtomicLaw(((1, F(1, 2)), (2 ** 52 + 1, F(1, 2))))
        with pytest.raises(ValueError, match="2\\*\\*52"):
            law.lattice_values(substream(1), 3)


class TestStreamKeys:
    @pytest.mark.parametrize("key", [
        (0,), (1, 0, 0), (7, 20, 3), (2 ** 32 - 1, 5), (2 ** 32, 1), (3, 2 ** 40, 0),
        (123456789, 200, 49)])
    def test_same_state_as_the_list_key(self, key):
        # the keys of every row ever written: the state numpy derives from
        # the key as a list of integers, whatever the size of its parts
        want = np.random.SeedSequence(list(key))
        assert key_seed(*key) == int(want.generate_state(1)[0])
        assert np.array_equal(substream(*key).random(5),
                              np.random.default_rng(want).random(5))
        # a block of one key, its last part an array of one
        with np.errstate(all="raise"):
            block = (*key[:-1], [key[-1]])
            assert key_seed(*block).tolist() == [key_seed(*key)]
            assert np.array_equal(substream(*block).random(5)[0], substream(*key).random(5))

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63])
    def test_blocks_are_numpy_streams(self, seed):
        # 3 x 700 keys per seed, 10,500 in all; at n = 20 the trials cross 2^32,
        # where the last part grows from one word to two
        with np.errstate(all="raise"):
            for n in (1, 20, 200):
                trials = range(2 ** 32 - 350, 2 ** 32 + 350) if n == 20 else range(700)
                seeds = key_seed(seed, n, trials)
                words = _block_state((seed, n, trials), 8)
                block = substream(seed, n, trials)
                states = block.map(lambda g: g.bit_generator.state)
                draws = block.random(3)
                reseeded = substream(seeds).random(2)
                for i, t in enumerate(trials):
                    want = np.random.SeedSequence([seed, n, t])
                    assert np.array_equal(words[:, i], want.generate_state(8))
                    assert seeds[i] == want.generate_state(1)[0] == key_seed(seed, n, t)
                    assert states[i] == np.random.PCG64(want).state
                    assert np.array_equal(draws[i], substream(seed, n, t).random(3))
                    assert np.array_equal(reseeded[i], substream(int(seeds[i])).random(2))

    def test_array_parts_broadcast(self):
        with np.errstate(all="raise"):
            firsts = np.array([0, 5, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 3], dtype=np.uint64)
            steps = np.array([0, 1, 2, 3, 2 ** 33])
            got = key_seed(firsts, steps, 9)
            assert got.dtype == np.int64
            assert got.tolist() == [key_seed(int(f), int(s), 9) for f, s in zip(firsts, steps)]
            one = key_seed(firsts, 7)
            assert one.tolist() == [key_seed(int(f), 7) for f in firsts]
            rows = substream(7, firsts).random((2, 3))
            assert rows.shape == (5, 2, 3)
            for f, row in zip(firsts, rows):
                assert np.array_equal(row, substream(7, int(f)).random((2, 3)))

    def test_empty_block_and_slices(self):
        empty = substream(4, 2, range(0))
        assert len(empty) == 0 and empty.random(3).shape == (0, 3) and empty.map(id) == []
        assert key_seed(4, 2, []).shape == (0,)
        block = substream(4, range(10))
        whole = block.random(6)
        assert np.array_equal(block[3:7].random(6), whole[3:7])
        assert np.array_equal(block.random(6), whole)

    @pytest.mark.parametrize("part", [[3, -1], range(-2, 3), np.array([1.5]), [[1, 2]]])
    def test_bad_array_parts(self, part):
        with pytest.raises(ValueError):
            key_seed(1, part)


class TestChunkBounds:
    @pytest.mark.parametrize("chunk", [0, -1])
    def test_chunk_below_one_rejected(self, chunk):
        # a chunk below 1 never advances: it must fail at the first step
        with pytest.raises(ValueError, match="chunk"):
            next(chunk_bounds(5, chunk))
