"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s`.  The suite-wide seed is
fixed at 1.  Every tolerance is pinned here, from the criterion text; the
runtime budgets are asserted too.
"""

import math
import time
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from randsym import (Bipartition, Gap, LinearForm, QuadraticForm, bernoulli,
                     beta_close, central_binomial_rho, cofactor_expansion_check,
                     conditioning_check,
                     decoupling_scan, evaluate, exact_det,
                     linear_small_ball_exact, is_proper, rank_reduce,
                     row_matrix_det, spans, spectral_summary,
                     subspace_membership_mc, uniform3,
                     AtomicLaw, RowMatrixSpec,
                     build_row_matrix, grow_and_track)
from randsym.cli import ExperimentConfig, run
from randsym.detconc import bound_verdict
from genutil import (plant_degenerate_subset, random_proper_symmetric_gap,
                     random_symmetric_int_matrix)

SEED = 1
BERN = bernoulli()


import genutil


def report(num, name, ok, t0, budget, detail=""):
    elapsed = time.monotonic() - t0
    status = "PASS" if ok else "FAIL"
    line = (f"criterion {num:2d} [{name}]: {status} "
            f"({elapsed:.1f}s / budget {budget}s)" + (f"  {detail}" if detail else ""))
    print(line)
    genutil.ACCEPTANCE_LINES.append(line)
    assert elapsed < budget, f"runtime {elapsed:.1f}s over budget {budget}s"
    return ok


# --------------------------------------------------------------------------
# 1. exact small-ball oracle equivalence


def oracle_linear_smallball(coeffs, shifts, law, beta):
    """Independent 2^n / atoms^n oracle: enumerate outcome tuples directly
    on an integer lattice (no convolution, no merging)."""
    terms = [[(F(a) * (F(v) + F(f))) for v in law.values]
             for a, f in zip(coeffs, shifts)]
    den = 1
    for row in terms:
        for x in row:
            den = den * x.denominator // math.gcd(den, x.denominator)
    mass_den = 1
    for p in law.masses:
        mass_den = mass_den * F(p).denominator // math.gcd(mass_den, F(p).denominator)
    counts = np.array([int(F(p) * mass_den) for p in law.masses], dtype=np.int64)
    sums = np.zeros(1, dtype=np.int64)
    mult = np.ones(1, dtype=np.int64)
    for row in terms:
        ints = np.array([int(x * den) for x in row], dtype=np.int64)
        sums = (sums[:, None] + ints[None, :]).ravel()
        mult = (mult[:, None] * counts[None, :]).ravel()
    order = np.argsort(sums, kind="stable")
    sums, mult = sums[order], mult[order]
    width = math.floor(2 * F(beta) * den)
    prefix = np.r_[0, np.cumsum(mult)]
    rights = np.searchsorted(sums, sums + width, side="right")
    best = int(np.max(prefix[rights] - prefix[:-1]))
    return F(best, mass_den ** len(coeffs))


def test_criterion_1_exact_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    ok = True
    for i in range(200):
        n = int(rng.integers(1, 11))
        law = BERN if i % 2 == 0 else uniform3()
        a = tuple(F(int(rng.integers(-8, 9)), int(rng.integers(1, 5)))
                  for _ in range(n))
        f = tuple(F(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
                  for _ in range(n))
        beta = F(int(rng.integers(0, 9)), 8)
        got = linear_small_ball_exact(LinearForm(a, f), law, beta).rho
        want = oracle_linear_smallball(a, f, law, beta)
        ok = ok and got == want
    assert report(1, "exact small-ball oracle", ok, t0, 10)


# --------------------------------------------------------------------------
# 2. Erdos-Littlewood-Offord scaling


def test_criterion_2_elo_scaling():
    t0 = time.monotonic()
    ok = True
    for n in range(16, 2001, 2):
        val = float(central_binomial_rho(n)) * math.sqrt(n)
        ok = ok and 0.6 <= val <= 0.8
    assert report(2, "ELO sqrt(n) scaling", ok, t0, 5)


# --------------------------------------------------------------------------
# 3. Odlyzko subspace bound


def test_criterion_3_odlyzko_bound():
    t0 = time.monotonic()
    ok = True
    worst = -math.inf
    for n in (8, 12):
        ks = range(1, n)
        for res in subspace_membership_mc(BERN, n, ks, 10 ** 5,
                                          seeds=[SEED * 1000 + n * 16 + k for k in ks], c3=0.5):
            ok = ok and bound_verdict(res.hits, res.trials, res.bound) == "pass"
            worst = max(worst, res.freq - res.bound)
    assert report(3, "Odlyzko membership bound", ok, t0, 60,
                  f"worst freq-bound gap {worst:.4f}")


# --------------------------------------------------------------------------
# 4. rank growth


def test_criterion_4_rank_growth():
    t0 = time.monotonic()
    n = 4
    trials = 10 ** 4
    jump1 = chain = 0
    # trial t grows from seed SEED * 10^6 + t, all trials in one call
    for steps in grow_and_track([[0] * n] * n, BERN, n - 1,
                                seeds=SEED * 10 ** 6 + np.arange(trials)):
        jump1 += steps[0].jumped_by_2
        chain += steps[-1].size == 2 * n - 1 and steps[-1].new_rank == 2 * n - 2
    bound1 = 1 - math.sqrt(1 - 0.5) ** n
    # each frequency is claimed at least its bound: its misses at most 1 - it
    v1 = bound_verdict(trials - jump1, trials, 1 - bound1)
    vc = bound_verdict(trials - chain, trials, 0.5)
    ok = v1 == vc == "pass"
    assert report(4, "rank growth (escape bound + corank chain)", ok, t0, 60,
                  f"jump1 {jump1 / trials:.4f} >= {bound1:.4f} {v1}, "
                  f"chain {chain / trials:.3f} >= 0.5 {vc}")


# --------------------------------------------------------------------------
# 5. decoupling inequality


def two_atom_laws():
    skew = AtomicLaw(((-2, F(1, 5)), (F(1, 2), F(4, 5))))   # mean 0, variance 1
    return (BERN, skew)


def test_criterion_5_decoupling():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED + 5)
    laws = two_atom_laws()
    ok = True
    worst_c = 0
    for i in range(100):
        n = int(rng.integers(2, 7))
        m = rng.integers(-3, 4, size=(n, n))
        m = np.triu(m, 1)
        m = m + m.T
        if not m.any():
            m[0, 1] = m[1, 0] = 1
        form = QuadraticForm(tuple(tuple(F(int(x), 4) for x in row) for row in m))
        u = Bipartition(tuple(bool(b) for b in rng.random(n) < 0.5))
        law = laws[i % 2]
        (const,), _ = decoupling_scan([form], law, F(1, 10), [u])
        ok = ok and const is not None
        worst_c = max(worst_c, const or math.inf)
    assert report(5, "decoupling rho^8 bound", ok, t0, 120,
                  f"largest constant needed {worst_c}")


# --------------------------------------------------------------------------
# 6. GAP rank reduction


def test_criterion_6_rank_reduction():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED + 6)
    ok = True
    for _ in range(500):
        q = random_proper_symmetric_gap(rng)
        values, wits = plant_degenerate_subset(rng, q)
        red = rank_reduce(q, values, wits)
        ok = ok and red.gap.rank <= q.rank
        ok = ok and is_proper(red.gap) and red.gap.is_symmetric
        ok = ok and spans(red.gap, red.witnesses)
        for v, w in zip(values, red.witnesses):
            ok = ok and evaluate(red.gap, w) == v
            ok = ok and beta_close(red.gap, v, 0) is not None
    wide = Gap.symmetric((1, 10), (2, 2))
    red = rank_reduce(wide, [11, 22], [(1, 1), (2, 2)])
    ok = ok and red.gap == Gap.symmetric((11,), (2,))
    assert report(6, "GAP rank reduction", ok, t0, 30)


# --------------------------------------------------------------------------
# 7. cofactor identity


def test_criterion_7_cofactor_identity():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED + 7)
    ok = True
    for _ in range(500):
        n = int(rng.integers(2, 9))
        rows = random_symmetric_int_matrix(rng, n)
        chk = cofactor_expansion_check(rows)
        ok = ok and chk.equal and chk.lhs == exact_det(rows)
    assert report(7, "bordered cofactor identity", ok, t0, 30)


# --------------------------------------------------------------------------
# 8. row matrix determinant and conditioning


def test_criterion_8_row_matrix():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED + 8)
    ok = True
    for _ in range(200):
        n = int(rng.integers(4, 13))
        idx = list(rng.permutation(n))
        n_rows = int(rng.integers(1, n // 2 + 1))
        n_cols = int(rng.integers(1, 3))
        rows = tuple(idx[:n_rows])
        cols = idx[n_rows:n_rows + n_cols]
        k = int(rng.integers(1, 4)) * (1 if rng.random() < 0.5 else -1)
        # coefficient size keeps sigma_min >= n^-2: |k| + sum|coeffs| <= |k| n^2
        cmax = min(4, (n * n - abs(k)) // (3 * max(1, len(cols))))
        coeffs = {(i, j): int(rng.integers(-cmax, cmax + 1))
                  for i in rows for j in cols}
        half = len(cols) // 2
        spec = RowMatrixSpec(n=n, rows=rows, cols_plus=tuple(cols[half:]),
                             cols_minus=tuple(cols[:half]), k=k, coeffs=coeffs)
        ok = ok and abs(row_matrix_det(spec)) == abs(k) ** len(rows)
        ok = ok and conditioning_check(build_row_matrix(spec), 2.0)
    assert report(8, "row matrix |det| = |k|^|I| + conditioning", ok, t0, 10)


# --------------------------------------------------------------------------
# 9. sigma_n tail


def test_criterion_9_sigma_tail(tmp_path):
    t0 = time.monotonic()
    rec = run(ExperimentConfig("tail", law="bernoulli", n_list=(20, 40, 80), a_exp=3.0,
                               trials=10 ** 4, seed=SEED, c1=2, c2=2, c3=0.5,
                               freq_bound=0.01, out=str(tmp_path / "tail")))
    per_n = rec.summary["per_n"]
    freqs = {n: per_n[n]["freq_sigma"] for n in (20, 40, 80)}
    # inconclusive permitted: 0.01 inside the Wilson interval
    ok = all(per_n[n]["verdict"] != "fail" for n in (20, 40, 80)) and rec.verdict != "fail"
    assert report(9, "sigma_n tail frequency", ok, t0, 600,
                  f"freqs {freqs}, verdicts {[per_n[n]['verdict'] for n in (20, 40, 80)]}")


# --------------------------------------------------------------------------
# 10. determinant concentration shape


def test_criterion_10_determinant_concentration(tmp_path):
    t0 = time.monotonic()
    rec = run(ExperimentConfig("detconc", law="bernoulli", n_list=(50, 100, 200),
                               trials=200, seed=SEED, spread_bound=1.5, dev_bound=0.05,
                               out=str(tmp_path / "detconc")))
    per_n, summary = rec.summary["per_n"], rec.summary
    ratios = [per_n[n]["ratio"] for n in (50, 100, 200)]
    # n^(1/3) log n is an upper envelope, not a growth law: the ratio may
    # fall, may rise by at most 1.5x towards larger n, and the std itself
    # must be positive and grow (positive log-log slope)
    envelope_ok = all(ratios[j] <= 1.5 * ratios[i]
                      for i in range(3) for j in range(i + 1, 3))
    growth_ok = (all(per_n[n]["std_kept"] > 0 for n in (50, 100, 200))
                 and summary["fitted_exponent"] > 0)
    shape_ok = envelope_ok and growth_ok and summary["shape_verdict"] == "pass"
    dev_ok = all(per_n[n]["dev_freq"] <= 0.05 for n in (50, 100, 200))
    # the record's verdict: every deviation frequency below 0.05 by its
    # Wilson interval, and the shape rule
    ok = shape_ok and dev_ok and rec.verdict == "pass"
    assert report(
        10, "determinant concentration shape", ok, t0, 900,
        f"ratios {[round(r, 4) for r in ratios]} spread {summary['ratio_spread']:.3f}, "
        f"largest rise {summary['max_rise']:.3f}, "
        f"fitted exponent {summary['fitted_exponent']:.3f}, "
        f"dev freqs {[per_n[n]['dev_freq'] for n in (50, 100, 200)]}, verdict {rec.verdict}")


# --------------------------------------------------------------------------
# 11. eigensolver oracle


def test_criterion_11_eigensolver_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED + 11)
    ok = True
    for i in range(1000):
        n = int(rng.integers(2, 201))
        if i % 2 == 0:
            m = (rng.integers(0, 2, size=(n, n)) * 2 - 1).astype(float)
        else:
            m = rng.standard_normal((n, n))
        m = np.triu(m) + np.triu(m, 1).T
        summ = spectral_summary(m)
        lam = summ.eigenvalues
        fro2 = float((m * m).sum())
        scale = max(1.0, math.sqrt(fro2))
        ok = ok and abs(lam.sum() - np.trace(m)) <= 1e-9 * scale
        ok = ok and abs((lam ** 2).sum() - fro2) <= 1e-9 * fro2
    for i in range(200):
        n = int(rng.integers(2, 11))
        rows = random_symmetric_int_matrix(rng, n)
        det = exact_det(rows)
        summ = spectral_summary(np.array(rows, dtype=float))
        if det == 0:
            ok = ok and summ.log_abs_det == -math.inf or \
                math.exp(summ.log_abs_det) <= 1e-6
        else:
            ok = ok and abs(math.exp(summ.log_abs_det) - abs(det)) <= 1e-6 * abs(det)
    assert report(11, "eigensolver trace/Frobenius/det oracle", ok, t0, 60)


# --------------------------------------------------------------------------
# 12. determinism across runs and worker counts


def test_criterion_12_determinism(tmp_path):
    from randsym.cli import ExperimentConfig, run
    t0 = time.monotonic()
    configs = [
        dict(experiment="smallball", form="linear", n=8, beta=0.25, method="mc",
             trials=4000),
        dict(experiment="tail", n_list=(8, 12), trials=40),
        dict(experiment="detconc", n_list=(10, 16), trials=30),
        dict(experiment="decoupling", n=3, trials=6, beta=0.1),
        dict(experiment="gapreduce", gap="gap{g0=0; g=[1,10]; K=[-2,-2]; K'=[2,2]}",
             values="11,22"),
        dict(experiment="rankgrow", n=4, trials=300),
        dict(experiment="odlyzko", n_list=(8,), trials=3000),
    ]
    ok = True
    for i, base in enumerate(configs):
        p1 = str(tmp_path / f"a{i}")
        p2 = str(tmp_path / f"b{i}")
        run(ExperimentConfig(seed=SEED, workers=1, out=p1, **base))
        run(ExperimentConfig(seed=SEED, workers=2, out=p2, **base))
        b1 = Path(p1 + ".csv").read_bytes()
        b2 = Path(p2 + ".csv").read_bytes()
        ok = ok and b1 == b2
    assert report(12, "experiment determinism across workers", ok, t0, 300)
