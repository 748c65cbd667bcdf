"""Determinant concentration and least-singular-value tails at desk scale.

The log-determinant splits at a cutoff eps = n^(-1/6): eigenvalues above
the cutoff enter through 1/eps-Lipschitz cutoff logs (the shape spectral
concentration consumes), the rest are bounded through sigma_n.
"""

from randsym import bernoulli, sample_symmetric, spectral_summary, truncated_log_det
from randsym.cli import ExperimentConfig, run

law = bernoulli()

# One sample: split the spectrum at the cutoff.
s = sample_symmetric(law, None, 100, seed=3)
summ = spectral_summary(s)
t = truncated_log_det(summ, 100 ** (-1 / 6))
print(f"n=100: log|det| = {summ.log_abs_det:.2f}, kept sum = {t.kept_sum:.2f}, "
      f"dropped {t.dropped_count} eigenvalues, small product >= "
      f"exp({t.small_product_bound:.2f})")

# The experiments run through the `randsym` runner: `randsym detconc` and
# `randsym tail` on the command line, `randsym.cli.run` here.  Each writes
# its record, randsym_<experiment>.csv and .json, to the working directory,
# and grades every frequency by its Wilson interval.
#
# detconc: spread of the kept log sum against n^(1/3) log n, and the
# frequency of large centered deviations.  n^(1/3) log n is an upper
# envelope, not a predicted growth rate: the std grows about like
# sqrt(log n), so the ratio falls with n.  The shape rule lets the ratio
# rise by at most 1.5x and asks the std to grow.
rec = run(ExperimentConfig("detconc", n_list=(20, 40, 80), trials=60, seed=1))
for n in (20, 40, 80):
    stats = rec.summary["per_n"][n]
    print(f"n={n}: std(kept)={stats['std_kept']:.3f} ratio={stats['ratio']:.4f} "
          f"dev_freq={stats['dev_freq']:.3f} ({stats['dev_verdict']})")
print("fitted std growth exponent:", round(rec.summary["fitted_exponent"], 3),
      " largest ratio rise:", round(rec.summary["max_rise"], 3),
      " shape", rec.summary["shape_verdict"], " verdict", rec.verdict)

# tail: P(sigma_n <= n^-A) and P(kappa >= n^A) with Wilson intervals;
# Bernoulli entries pass the spacing certificate (2, 2, 1/2), which the
# runner derives from the law.
rec = run(ExperimentConfig("tail", n_list=(20, 40), a_exp=3.0, trials=400, seed=1))
print("spacing certificate:", [rec.config[c] for c in ("c1", "c2", "c3")])
for n in (20, 40):
    stats = rec.summary["per_n"][n]
    print(f"n={n}: P(sigma_n <= n^-3) ~ {stats['freq_sigma']:.4f} "
          f"CI {tuple(round(c, 4) for c in stats['ci_sigma'])} ({stats['verdict']})")
