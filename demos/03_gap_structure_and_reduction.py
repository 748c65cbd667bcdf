"""Generalized arithmetic progressions: the structured side of inverse
small-ball theorems.

A GAP is the image of an integer box under k -> g0 + sum k_i g_i.  The
library keeps all values as exact fractions, so properness (injectivity)
and membership are decided, not approximated.
"""

from fractions import Fraction as F

import numpy as np

from randsym import (Gap, LinearForm, bernoulli, beta_close, enumerate_values,
                     evaluate, format_gap, inverse_lo_search, is_proper,
                     rank_reduce, spans)

law = bernoulli()

# A rank-2 gap whose generators are far apart is proper (injective)...
wide = Gap.symmetric((1, 10), (2, 2))
print(format_gap(wide), "proper:", is_proper(wide), "volume:", wide.volume)
# ...while a crowded one collides: 2 = 2 + 0*3 = -1 + 1*3.
narrow = Gap.symmetric((1, 3), (2, 2))
print(format_gap(narrow), "proper:", is_proper(narrow))
vals = enumerate_values(narrow)
print("value 2 appears", vals.count(F(2)), "times")

# beta-closeness finds a witnessing lattice point, ties broken smallest
# distance then lexicographic.
print("11.05 within 0.1 of wide gap at", beta_close(wide, 11.05, 0.1))

# Rank reduction: {11, 22} sits inside the wide gap only degenerately
# (witnesses (1,1) and (2,2) are collinear).  Eliminating the degenerate
# direction with g_i' = g_i - alpha_i w gives the rank-1 gap <11>, which
# the set now spans.
red = rank_reduce(wide, [11, 22], [(1, 1), (2, 2)])
print("reduced:", format_gap(red.gap), "witnesses:", red.witnesses,
      "volume inflation:", red.inflation)
assert spans(red.gap, red.witnesses)
assert evaluate(red.gap, red.witnesses[0]) == 11

# The inverse direction at desk scale: coefficients in arithmetic
# progression are recovered (rank-1 search over the submultiples 1/100,
# 1/200, 1/300 of the least coefficient, q <= sqrt(closeness_budget))...
form = LinearForm(tuple(F(i, 100) for i in range(1, 101)))
rep = inverse_lo_search(form, law, F(1, 1000), rank_cap=1,
                        closeness_budget=10, size_cap=301)
print("AP coefficients ->", format_gap(rep.gap), "covering", rep.coverage)

# ...while generic coefficients admit no small cover: absence is a value.
rng = np.random.default_rng(3)
noise = LinearForm(tuple(float(x) for x in rng.standard_normal(100)))
rep2 = inverse_lo_search(noise, law, 1e-6, rank_cap=2,
                         closeness_budget=25, size_cap=50, seed=5)
print("gaussian coefficients ->", rep2.gap, f"(covered {rep2.coverage},"
      f" needed {rep2.needed})")
