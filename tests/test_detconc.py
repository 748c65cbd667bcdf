import math

import numpy as np
import pytest

from randsym import (CutoffSpec, DegenerateSpectrum, SpacingCertificate,
                     SpacingUnverified, bernoulli, concentration_experiment,
                     cutoff_log, envelope_rule, point_mass, spectral_summary,
                     spectral_window_count, tail_experiment, truncated_log_det,
                     wilson_interval)
from randsym.detconc import envelope_norm, loglog_slope

BERN = bernoulli()


class TestCutoffLog:
    def test_below_cutoff(self):
        assert cutoff_log(0.05, 0.1) == pytest.approx(math.log(0.1))

    def test_above_cutoff(self):
        assert cutoff_log(1.0, 0.1) == 0.0

    def test_minus_branch(self):
        assert cutoff_log(-2.0, 0.1, "minus") == pytest.approx(math.log(2.0))

    def test_lipschitz(self):
        rng = np.random.default_rng(12)
        eps = 0.1
        for _ in range(200):
            x, y = rng.uniform(-5, 5, size=2)
            for sign in ("plus", "minus"):
                d = abs(cutoff_log(x, eps, sign) - cutoff_log(y, eps, sign))
                assert d <= abs(x - y) / eps + 1e-12

    def test_reconstruction_identity(self):
        eps = 0.125
        for x in (-3.0, -eps, eps, 0.7, 42.0):
            if abs(x) >= eps:
                got = cutoff_log(x, eps) + cutoff_log(x, eps, "minus") - math.log(eps)
                assert got == pytest.approx(math.log(abs(x)), abs=1e-12)

    def test_cutoff_spec_validation(self):
        spec = CutoffSpec.for_matrix(epsilon=0.5, delta=1.0, c_const=1.0, n=100)
        assert spec.lipschitz_bound == 2.0
        with pytest.raises(ValueError):
            CutoffSpec.for_matrix(epsilon=0.5, delta=1e-6, c_const=1.0, n=100)


class TestWindowCount:
    def test_middle(self):
        summ = spectral_summary(np.diag([1.0, 2.0, 3.0]))
        assert spectral_window_count(summ, (1.5, 2.5)) == 1

    def test_short_window_scaling(self):
        # counts in the window [-0.1, 0.1] * sqrt(n) stay below sqrt(n)|I|
        from randsym import sample_symmetric
        n = 400
        ratios = []
        for t in range(100):
            s = sample_symmetric(bernoulli(), None, n, seed=900 + t, exact=False)
            summ = spectral_summary(s)
            half = 0.1 * math.sqrt(n)
            count = spectral_window_count(summ, (-half, half))
            ratios.append(count / (math.sqrt(n) * 2 * half))
        assert np.mean(ratios) <= 1.0

    def test_empty_interval(self):
        summ = spectral_summary(np.diag([1.0, 2.0, 3.0]))
        assert spectral_window_count(summ, (5.0, 4.0)) == 0

    def test_partition_sums_to_n(self):
        s = spectral_summary(np.diag(np.linspace(-4, 4, 17)))
        cuts = [-math.inf, -2.0, -0.5, 0.3, 1.7, math.inf]
        total = 0
        for a, b in zip(cuts[:-1], cuts[1:]):
            # half-open pieces [a, b) stitched as closed [a, prev(b)]
            total += spectral_window_count(s, (a, np.nextafter(b, -math.inf)))
        assert total == 17


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
        with pytest.raises(DegenerateSpectrum):
            truncated_log_det(spectral_summary(np.diag([1.0, 0.0])), 0.1)

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
    def test_trials_floor(self):
        with pytest.raises(ValueError):
            concentration_experiment(BERN, [10], trials=10, seed=1)

    def test_single_entry_closed_form(self):
        # n=1, eps=1: |lambda| = 1 always, so the kept sum is exactly 0
        rep = concentration_experiment(BERN, [1], trials=40, seed=3)
        assert rep.per_n[1]["std_kept"] == 0.0
        assert all(row[4] == 0.0 for row in rep.rows)

    def test_survival_monotone(self):
        rep = concentration_experiment(BERN, [16], trials=40, seed=5)
        kept = np.array([row[4] for row in rep.rows])
        devs = np.abs(kept - kept.mean())
        last = 1.0
        for thr in np.linspace(0, devs.max() + 1, 12):
            freq = float(np.mean(devs >= thr))
            assert freq <= last + 1e-12
            last = freq

    def test_rows_shape_and_determinism(self):
        rep1 = concentration_experiment(BERN, [8, 12], trials=30, seed=7)
        rep2 = concentration_experiment(BERN, [8, 12], trials=30, seed=7)
        assert rep1.rows == rep2.rows
        assert len(rep1.rows) == 60


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

    def test_report_shape_matches_rule(self):
        rep = concentration_experiment(BERN, [8, 12], trials=30, seed=7)
        v = rep.shape()
        assert v == envelope_rule([8, 12], [rep.per_n[n]["std_kept"] for n in (8, 12)])
        assert v.fitted_exponent == rep.fitted_exponent


class TestTailExperiment:
    def test_point_mass_unverified(self):
        with pytest.raises(SpacingUnverified):
            tail_experiment(point_mass(1), None, [8], 3.0, 30, 1,
                            SpacingCertificate(1, 2, 0.1))

    def test_direction_check_at_zero_exponent(self):
        cert = SpacingCertificate(2, 2, 0.5)
        rep = tail_experiment(BERN, None, [8], 0.0, 60, 2, cert)
        # threshold sigma_n <= 1 is typical for small +-1 matrices
        assert rep.per_n[8]["freq_sigma"] >= 0.5

    def test_loglog_fit_present_when_nonzero(self):
        cert = SpacingCertificate(2, 2, 0.5)
        rep = tail_experiment(BERN, None, [6, 8], 0.0, 60, 3, cert)
        assert rep.loglog_slope is not None


class TestWilson:
    def test_known_value(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0
        assert hi == pytest.approx(0.0370, abs=5e-4)

    def test_contains_point_estimate(self):
        for hits, n in ((5, 50), (49, 50), (1, 1000)):
            lo, hi = wilson_interval(hits, n)
            assert lo <= hits / n <= hi
