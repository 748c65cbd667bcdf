import math

import numpy as np
import pytest

from randsym import (AtomicLaw, SpacingUnverified, bernoulli, envelope_rule, gaussian,
                     sample_symmetric, spectral_summary, truncated_log_det, uniform3,
                     wilson_interval)
from randsym.cli import ExperimentConfig, InvalidConfig, run
from randsym.detconc import (_LANE_MIN_N, bound_verdict, detconc_trial, envelope_norm,
                             loglog_slope, tail_trial)
from randsym.ensembles import _STACK_ENTRIES, blas_pinnable, spectral_summaries
from randsym.streams import key_seed, substream

BERN = bernoulli()


def record(tmp_path, experiment, **kw):
    """The record of `randsym <experiment>` run with the given keys."""
    return run(ExperimentConfig(experiment, out=str(tmp_path / experiment), **kw))


@pytest.fixture
def no_draw(monkeypatch):
    """Fail if a matrix is drawn."""
    import randsym.detconc

    def fail(*args, **kw):
        raise AssertionError("drew a matrix")
    monkeypatch.setattr(randsym.detconc, "sample_symmetric", fail)


class TestTruncatedLogDet:
    def test_example(self):
        t = truncated_log_det(spectral_summary(np.diag([3.0, -1.0, 0.01])), 0.1)
        assert t.kept_sum == pytest.approx(math.log(3.0))
        assert t.dropped_count == 1
        assert t.small_product_bound == pytest.approx(math.log(0.01))

    def test_nothing_dropped(self):
        summ = spectral_summary(np.diag([3.0, -1.0]))
        t = truncated_log_det(summ, 0.5)
        assert t.dropped_count == 0
        assert t.kept_sum == pytest.approx(summ.log_abs_det)

    def test_degenerate(self):
        # an exactly zero eigenvalue below the cutoff: the small product is
        # bounded below by 0, whose log is -inf
        t = truncated_log_det(spectral_summary(np.diag([1.0, 0.0])), 0.1)
        assert t.kept_sum == 0.0 and t.dropped_count == 1
        assert t.small_product_bound == -math.inf

    @pytest.mark.parametrize("eps", [math.nan, 0.0, -1.0])
    def test_epsilon_must_be_positive(self, eps):
        # a NaN cutoff would keep no eigenvalue (kept_sum 0.0)
        with pytest.raises(ValueError, match="epsilon"):
            truncated_log_det(spectral_summary(np.diag([3.0, -1.0])), eps)

    def test_consistency_with_logdet(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            m = rng.standard_normal((12, 12))
            m = (m + m.T) / 2
            summ = spectral_summary(m)
            t = truncated_log_det(summ, 0.3)
            dropped = [x for x in summ.eigenvalues if abs(x) < 0.3]
            total = t.kept_sum + sum(math.log(abs(x)) for x in dropped)
            assert total == pytest.approx(summ.log_abs_det, rel=1e-9)


class TestConcentrationExperiment:
    def test_trials_floor(self, no_draw):
        with pytest.raises(InvalidConfig, match="trials: needs sizes >= 30"):
            ExperimentConfig("detconc", n_list=(10,), trials=10)

    @pytest.mark.parametrize("eps", [math.nan, 0.0, -1.0])
    def test_bad_epsilon_fails_before_any_draw(self, tmp_path, no_draw, eps):
        with pytest.raises(ValueError, match="epsilon"):
            detconc_trial(BERN, 4, 1, range(2), epsilon=eps)
        with pytest.raises(InvalidConfig, match="epsilon"):
            record(tmp_path, "detconc", n_list=(4, 8), trials=30, seed=1, epsilon=eps)

    def test_single_entry_closed_form(self, tmp_path):
        # n=1, eps=1: |lambda| = 1 always, so the kept sum is exactly 0
        rec = record(tmp_path, "detconc", n_list=(1,), trials=40, seed=3)
        assert rec.summary["per_n"][1]["std_kept"] == 0.0
        assert all(row[4] == 0.0 for row in rec.rows)

    def test_survival_monotone(self):
        kept = np.array([row[4] for row in detconc_trial(BERN, 16, 5, range(40))])
        devs = np.abs(kept - kept.mean())
        last = 1.0
        for thr in np.linspace(0, devs.max() + 1, 12):
            freq = float(np.mean(devs >= thr))
            assert freq <= last + 1e-12
            last = freq

    def test_rows_shape_and_determinism(self, tmp_path):
        rec1 = record(tmp_path, "detconc", n_list=(8, 12), trials=30, seed=7)
        rec2 = run(ExperimentConfig("detconc", n_list=(8, 12), trials=30, seed=7,
                                    out=str(tmp_path / "again")))
        assert rec1.rows == rec2.rows
        assert len(rec1.rows) == 60


class TestEnvelopeRule:
    N_LIST = (50, 100, 200)

    def stds_for(self, ratios):
        return [r * envelope_norm(n) for n, r in zip(self.N_LIST, ratios)]

    def test_measured_decay_passes(self):
        # stds of the kept sum at seed 1, 200 trials
        v = envelope_rule(self.N_LIST, [1.033, 1.149, 1.367])
        assert v.ok
        assert v.max_rise < 1.0
        assert v.fitted_exponent == pytest.approx(0.2, abs=0.01)

    def test_rise_above_bound_fails(self):
        v = envelope_rule(self.N_LIST, self.stds_for([0.05, 0.07, 0.10]))
        assert v.max_rise == pytest.approx(2.0)
        assert v.grows and not v.within_envelope and not v.ok

    def test_rise_at_bound_passes(self):
        v = envelope_rule(self.N_LIST, self.stds_for([0.05, 0.06, 0.075]))
        assert v.max_rise == pytest.approx(1.5)
        assert v.within_envelope

    @pytest.mark.parametrize("std", [0.7, 1.0, 1.2, 2.5])
    def test_flat_std_fails(self, std):
        v = envelope_rule(self.N_LIST, [std] * 3)
        assert v.within_envelope
        assert v.fitted_exponent == 0.0
        assert not v.grows and not v.ok

    def test_zero_std_fails(self):
        v = envelope_rule(self.N_LIST, [0.0, 1.1, 1.3])
        assert not v.grows and not v.ok

    def test_zero_std_has_no_slope(self):
        # log 0 is undefined, so a zero std leaves no exponent
        assert loglog_slope((1, 4), [0.0, 0.5]) is None
        assert envelope_rule((1, 4), [0.0, 0.5]).fitted_exponent is None

    def test_order_of_n_irrelevant(self):
        a = envelope_rule((50, 100, 200), [1.033, 1.149, 1.367])
        b = envelope_rule((200, 50, 100), [1.367, 1.033, 1.149])
        assert a == b

    def test_single_n_has_no_slope(self):
        for n_list in ((50,), (50, 50)):
            v = envelope_rule(n_list, [1.0] * len(n_list))
            assert v.fitted_exponent is None and not v.ok


class TestTailExperiment:
    def test_point_mass_unverified(self, tmp_path, no_draw):
        with pytest.raises(SpacingUnverified):
            record(tmp_path, "tail", law="atoms[(1,1)]", n_list=(8,), trials=30, seed=1,
                   c1=1, c2=2, c3=0.1)

    def test_direction_check_at_zero_exponent(self, tmp_path):
        rec = record(tmp_path, "tail", n_list=(8,), a_exp=0.0, trials=60, seed=2,
                     c1=2, c2=2, c3=0.5)
        # threshold sigma_n <= 1 is typical for small +-1 matrices
        assert rec.summary["per_n"][8]["freq_sigma"] >= 0.5

    def test_loglog_fit_present_when_nonzero(self, tmp_path):
        rec = record(tmp_path, "tail", n_list=(6, 8), a_exp=0.0, trials=60, seed=3,
                     c1=2, c2=2, c3=0.5)
        assert rec.summary["loglog_slope"] is not None


class TestWilson:
    def test_known_value(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0
        assert hi == pytest.approx(0.0370, abs=5e-4)

    def test_contains_point_estimate(self):
        for hits, n in ((5, 50), (49, 50), (1, 1000)):
            lo, hi = wilson_interval(hits, n)
            assert lo <= hits / n <= hi

    @pytest.mark.parametrize("hits, trials", [(5, 3), (-1, 10), (11, 10)])
    def test_impossible_counts(self, hits, trials):
        with pytest.raises(ValueError, match=f"hits {hits}, trials {trials}"):
            wilson_interval(hits, trials)
        assert wilson_interval(trials, trials)[1] == 1.0


class TestBoundVerdict:
    """bound_verdict(hits, trials, bound), the one verdict on a Monte Carlo
    frequency claimed to be at most bound."""

    @pytest.mark.parametrize("hits, trials", [(5, 50), (0, 50), (50, 50), (1, 1), (23, 40)])
    def test_interval_edges(self, hits, trials):
        lo, hi = wilson_interval(hits, trials)
        assert bound_verdict(hits, trials, lo) == "inconclusive"
        assert bound_verdict(hits, trials, hi) == "inconclusive"
        assert bound_verdict(hits, trials, math.nextafter(hi, math.inf)) == "pass"
        below = math.nextafter(lo, -math.inf)
        assert bound_verdict(hits, trials, below) == "fail"

    def test_zero_hits(self):
        # a frequency of 0 in 50 trials shows no bound below 0.0713; a
        # normal +-3 se interval has width 0 there and passed any bound
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0 and hi == pytest.approx(0.0713, abs=1e-4)
        assert bound_verdict(0, 50, 0.022) == "inconclusive"
        assert bound_verdict(0, 50, 0.08) == "pass"
        assert bound_verdict(0, 10 ** 4, 0.001) == "pass"

    def test_all_hits(self):
        lo, hi = wilson_interval(40, 40)
        assert hi == 1.0 and lo == pytest.approx(0.9124, abs=1e-4)
        assert bound_verdict(40, 40, 1.0) == "inconclusive"
        assert bound_verdict(40, 40, 0.95) == "inconclusive"
        assert bound_verdict(40, 40, 0.9) == "fail"

    @pytest.mark.parametrize("hits, verdict", [(23, "inconclusive"), (30, "pass"),
                                               (12, "fail")])
    def test_lower_bound_through_misses(self, hits, verdict):
        # "at least 1/2 of 40" is the claim "at most 1/2" on the misses
        assert bound_verdict(40 - hits, 40, 0.5) == verdict

    @pytest.mark.parametrize("trials", [1, 7, 40, 1000])
    def test_misses_mirror_the_interval(self, trials):
        for hits in range(0, trials + 1, max(1, trials // 40)):
            lo, hi = wilson_interval(hits, trials)
            mlo, mhi = wilson_interval(trials - hits, trials)
            assert (mlo, mhi) == pytest.approx((1 - hi, 1 - lo), abs=1e-12)
            for b in np.linspace(0.005, 0.995, 67):
                if min(abs(b - lo), abs(b - hi)) < 1e-9:
                    continue
                at_least = "inconclusive" if lo <= b <= hi else \
                    ("pass" if hits / trials >= b else "fail")
                assert bound_verdict(trials - hits, trials, 1 - b) == at_least

    def test_impossible_counts(self):
        with pytest.raises(ValueError, match="hits 5, trials 3"):
            bound_verdict(5, 3, 0.5)


def _oracle_matrix(law, F, n, trial_seed):
    """One keyed matrix built the per-trial way: uniforms of substream(trial
    seed) mapped by searchsorted, the upper triangle mirrored by addition."""
    rng = substream(trial_seed)
    m = n * (n + 1) // 2
    if isinstance(law, AtomicLaw):
        cum = law.cum_masses()
        idx = np.minimum(np.searchsorted(cum, rng.random(m), side="right"), len(cum) - 1)
        vals = law.values_float()[idx]
    else:
        vals = law.sample(rng, m)
    X = np.zeros((n, n))
    X[np.triu_indices(n)] = vals
    X = X + np.triu(X, 1).T
    return (np.zeros((n, n)) if F is None else np.asarray(F, dtype=float)) + X


def _oracle_spectrum(mat):
    lam = np.linalg.eigvalsh(mat)
    absl = np.abs(lam)
    sn, s1 = float(absl.min()), float(absl.max())
    return lam, sn, (s1 / sn if sn > 0 else math.inf), \
        (float(np.sum(np.log(absl))) if sn > 0 else -math.inf)


def oracle_tail_rows(law, F, n, seed, trials):
    rows = []
    for t in trials:
        _, sn, kappa, _ = _oracle_spectrum(_oracle_matrix(law, F, n, key_seed(seed, n, t)))
        rows.append((n, t, sn, kappa))
    return rows


def oracle_detconc_rows(law, n, seed, trials, epsilon=None):
    eps = n ** (-1.0 / 6.0) if epsilon is None else epsilon
    rows = []
    for t in trials:
        ts = key_seed(seed, n, t)
        lam, sn, kappa, logdet = _oracle_spectrum(_oracle_matrix(law, None, n, ts))
        kept = (lam >= eps) | (lam <= -eps)
        kept_sum = float(np.sum(np.log(np.abs(lam[kept])))) if kept.any() else 0.0
        rows.append((n, t, ts, logdet, kept_sum, int(np.sum(~kept)), sn, kappa))
    return rows


class TestStackedTrials:
    """Block trials drawn in capped stacks give, bit for bit, the rows of
    one keyed matrix and one eigvalsh per trial (compared through repr)."""

    @pytest.mark.parametrize("n, trials", [
        (9, range(5, 6)),          # T = 1
        (20, range(100, 430)),     # 163 matrices per stack: three stacks
        (1, range(40)),
        (200, range(3))])          # one matrix per stack
    def test_tail_rows(self, n, trials):
        got = tail_trial(BERN, None, n, 4, trials)
        assert repr(got) == repr(oracle_tail_rows(BERN, None, n, 4, trials))

    @staticmethod
    def record_stacks(monkeypatch) -> list:
        """The size of every stack drawn from now on, in drawing order."""
        import randsym.detconc
        sizes = []

        def recording(law, F, n, seed, **kw):
            sizes.append(len(seed))
            return sample_symmetric(law, F, n, seed, **kw)
        monkeypatch.setattr(randsym.detconc, "sample_symmetric", recording)
        return sizes

    def test_stacks_are_capped(self, monkeypatch):
        # the stacks in flight across all lanes hold at most _STACK_ENTRIES
        # entries together, at least one matrix each, unless numpy would
        # solve them holding the GIL
        sizes = self.record_stacks(monkeypatch)
        tail_trial(BERN, None, 20, 1, range(330), lanes=1)
        assert sizes == [163, 163, 4] and 163 * 20 * 20 <= _STACK_ENTRIES < 164 * 20 * 20
        sizes.clear()
        # two lanes take stacks of 65536 // (2 * 64^2) = 8 matrices in turn
        # (where BLAS cannot be pinned one lane takes stacks of 16)
        tail_trial(BERN, None, 64, 1, range(36), lanes=2)
        want = [4, 8, 8, 8, 8] if blas_pinnable() else [4, 16, 16]
        assert sorted(sizes) == want and 2 * 8 * 64 * 64 <= _STACK_ENTRIES
        sizes.clear()
        # below _LANE_MIN_N one lane draws the range, in full-size stacks
        tail_trial(BERN, None, 20, 1, range(330), lanes=2)
        assert sizes == [163, 163, 4]
        sizes.clear()
        detconc_trial(BERN, 200, 1, range(2), lanes=1)
        assert sizes == [1, 1]
        sizes.clear()
        # two lanes at n = 200 take stacks of 3, the least with size x n >
        # 500 (numpy's threshold for releasing the GIL), though the cap is 1
        tail_trial(BERN, None, 200, 1, range(9), lanes=2)
        assert sizes == ([3, 3, 3] if blas_pinnable() else [1] * 9)

    @pytest.mark.skipif(not blas_pinnable(), reason="numpy bundles no OpenBLAS: one lane")
    @pytest.mark.parametrize("lanes", [2, 3, 5])
    @pytest.mark.parametrize("n", [48, 64, 80, 100, 129, 200, 240])
    def test_lane_stacks_release_the_gil(self, monkeypatch, n, lanes):
        # numpy's eigvalsh releases the GIL only for stack size x n > 500,
        # so every stack lanes draw clears it, but the range's last, which
        # holds the remainder of the cut; the stacks pass the entries cap
        # only as far as that needs
        sizes = self.record_stacks(monkeypatch)
        trials = range(4 * lanes * (500 // n + 1) + 1)
        tail_trial(BERN, None, n, 1, trials, lanes=lanes)
        sizes.sort(reverse=True)
        per = sizes[0]
        assert sizes == [per] * (len(trials) // per) + [len(trials) % per]
        assert per * n > 500
        assert (per - 1) * n <= 500 or per * lanes * n * n <= _STACK_ENTRIES

    @pytest.mark.parametrize("n", [_LANE_MIN_N, 240])
    def test_rows_do_not_depend_on_lanes(self, n):
        trials = range(3, 3 + 7)
        one = tail_trial(BERN, None, n, 5, trials, lanes=1)
        assert repr(tail_trial(BERN, None, n, 5, trials, lanes=2)) == repr(one)
        assert repr(tail_trial(BERN, None, n, 5, trials, lanes=3)) == repr(one)
        one = detconc_trial(uniform3(), n, 5, trials, lanes=1)
        assert repr(detconc_trial(uniform3(), n, 5, trials, lanes=2)) == repr(one)

    def test_more_lanes_than_cores_under_frequent_switches(self):
        # lanes share the law, the caches and the BLAS library; five lanes
        # switching every 10 us must still give the one-lane rows
        import sys
        want = repr(detconc_trial(BERN, 64, 9, range(40), lanes=1))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            got = repr(detconc_trial(BERN, 64, 9, range(40), lanes=5))
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    @pytest.mark.skipif(not blas_pinnable(), reason="numpy bundles no OpenBLAS")
    def test_lanes_joined_and_blas_restored(self):
        import threading
        from randsym.ensembles import _openblas
        get = _openblas().scipy_openblas_get_num_threads64_
        before, threads = get(), threading.active_count()
        tail_trial(BERN, None, 64, 2, range(6), lanes=2)
        assert get() == before and threading.active_count() == threads

    def test_lane_error_surfaces(self):
        # a lane's exception reaches the caller once every lane has stopped
        F = np.full((64, 64), np.nan)
        with pytest.raises(ValueError, match="finite"):
            tail_trial(BERN, F, 64, 2, range(6), lanes=2)

    def test_detconc_rows(self):
        for n in (1, 20, 41):
            trials = range(0, 200) if n == 20 else range(7, 19)
            got = detconc_trial(BERN, n, 6, trials)
            assert repr(got) == repr(oracle_detconc_rows(BERN, n, 6, trials))

    def test_detconc_explicit_epsilon(self):
        law = uniform3()
        got = detconc_trial(law, 12, 8, range(50), epsilon=0.3)
        assert repr(got) == repr(oracle_detconc_rows(law, 12, 8, range(50), 0.3))

    def test_given_fixed_part(self):
        n = 12
        F = np.diag(np.linspace(-2, 2, n))
        F[0, 3] = F[3, 0] = 0.25
        F[1, 2] = F[2, 1] = -0.0
        got = tail_trial(BERN, F, n, 5, range(200))
        assert repr(got) == repr(oracle_tail_rows(BERN, F, n, 5, range(200)))

    def test_continuous_law(self):
        law = gaussian()
        got = tail_trial(law, None, 7, 3, range(300))
        assert repr(got) == repr(oracle_tail_rows(law, None, 7, 3, range(300)))

    def test_library_rows_are_the_blocks(self, tmp_path):
        rec = record(tmp_path, "detconc", n_list=(4, 9), trials=30, seed=2)
        assert list(rec.rows) == detconc_trial(BERN, 4, 2, range(30)) + \
            detconc_trial(BERN, 9, 2, range(30))

    def test_stack_matches_single_samples(self):
        seeds = [key_seed(3, 5, t) for t in range(6)]
        stack = sample_symmetric(uniform3(), None, 5, seed=seeds)
        assert stack.shape == (6, 5, 5)
        for sd, mat in zip(seeds, stack):
            assert np.array_equal(mat, sample_symmetric(uniform3(), None, 5, seed=sd))
        summaries = spectral_summaries(stack)
        for mat, summ in zip(stack, summaries):
            one = spectral_summary(mat)
            assert repr((one.sigma_1, one.sigma_n, one.kappa, one.log_abs_det)) == \
                repr((summ.sigma_1, summ.sigma_n, summ.kappa, summ.log_abs_det))
            assert np.array_equal(one.eigenvalues, summ.eigenvalues)

    def test_sizes_checked_before_sampling(self, tmp_path, no_draw):
        with pytest.raises(InvalidConfig, match="trials"):
            record(tmp_path, "tail", n_list=(8,), a_exp=1.0, trials=0, seed=1)
        with pytest.raises(InvalidConfig, match="n_list"):
            record(tmp_path, "detconc", n_list=(8, 0), trials=30, seed=1)
