"""Random symmetric matrices: spectra, exact ranks, cofactor identities,
rank growth under bordering, subspace membership, and decoupling.
"""

from fractions import Fraction as F

import numpy as np

from randsym import (QuadraticForm, bernoulli,
                     build_row_matrix, cofactor_expansion_check,
                     conditioning_check, decoupling_scan, exact_rank,
                     exact_sample, grow_and_track, near_kernel_vector, row_matrix_det,
                     RowMatrixSpec, sample_symmetric, spectral_summary,
                     subspace_membership_mc)
from randsym.streams import substream

law = bernoulli()

# M = F + X with iid +-1 upper triangle, as floats for the spectrum and,
# from the same draws, as exact rows for the rank.
s = sample_symmetric(law, None, 8, seed=11)
rows = exact_sample(law, None, 8, seed=11)
summ = spectral_summary(s)
print(f"n=8 sample: sigma_1={summ.sigma_1:.3f} sigma_n={summ.sigma_n:.3f} "
      f"kappa={summ.kappa:.1f} corank={8 - exact_rank(rows)}")
print("exact rank:", exact_rank(rows))

# The bordered determinant identity det(M) = m11 det(A) - x^T adj(A) x,
# exactly over the rationals:
chk = cofactor_expansion_check(rows)
print("cofactor identity:", chk.lhs, "=", chk.rhs, "->", chk.equal)

# Rank growth: starting from the 4x4 zero matrix, each symmetric bordering
# almost surely raises the rank by 2 until corank 1: sizes 5, 6, 7 reach
# ranks 2, 4, 6.
steps, = grow_and_track([[0] * 4] * 4, law, 3, seeds=[2])
print("growth:", [(st.size, st.new_rank) for st in steps])

# Membership of a fresh +-1 row in a fixed k-dimensional span is rare:
# the Odlyzko bound (1/sqrt2)^(n-k) caps the frequency.
for res in subspace_membership_mc(law, 8, (1, 4, 7), 20000, seeds=[4, 4, 4]):
    print(f"n=8 k={res.k}: freq {res.freq:.4f} <= bound {res.bound:.4f}")

# The near-kernel vector of a sample and its row residuals:
nk = near_kernel_vector(sample_symmetric(law, None, 60, seed=9))
print(f"lambda_min={nk.lambda_min:.4f}, residual l2 norm="
      f"{float(np.linalg.norm(nk.residuals)):.4f}")

# The integer row-rewrite matrix R: determinant k^|I| and polynomially
# conditioned, both checked exactly / numerically.
spec = RowMatrixSpec(n=4, rows=(2, 3), cols_plus=(0,), cols_minus=(), k=2,
                     coeffs={(2, 0): 5, (3, 0): -1})
print("det R =", row_matrix_det(spec), "conditioned:",
      conditioning_check(build_row_matrix(spec), 2.0))

# Decoupling: the quadratic small ball of a form controls the bilinear
# small ball of its mask A_U, U a random half of the indices (a boolean
# row of membership), at an eighth-power loss.
rng = np.random.default_rng(5)
m = rng.integers(-3, 4, size=(5, 5))
m = np.triu(m, 1)
m = m + m.T
form = QuadraticForm(tuple(tuple(F(int(x), 4) for x in row) for row in m))
u = substream(8).random(5) < 0.5
(const,), ((chk,),) = decoupling_scan([form], law, F(1, 10), [u])
print(f"decoupling at constant {const}: rho_quad={float(chk.rho_quad):.4f}, "
      f"lhs={chk.lhs:.3e} <= rhs={float(chk.rhs):.4f}")
