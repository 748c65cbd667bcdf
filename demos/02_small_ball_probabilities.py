"""Small-ball probabilities: the quantity rho = sup_a P(|form - a| <= beta).

Exact routines enumerate or convolve on an integer lattice and return
fractions; Monte Carlo routines carry a DKW 95% half-width.
"""

import math
from fractions import Fraction as F

from randsym import (LinearForm, QuadraticForm, bernoulli, bilinear_small_ball,
                     central_binomial_rho, gaussian, linear_small_ball_exact,
                     linear_small_ball_mc, quadratic_small_ball_exact)

law = bernoulli()

# The classical example: sum of n signs, window radius 0.  The sup sits at
# the central binomial atom.
est = linear_small_ball_exact(LinearForm((1,) * 10), law, 0)
print("rho(sum of 10 signs, beta=0) =", est.rho, "at center", est.witness_center)
assert est.rho == F(252, 1024)

# Coefficient structure matters: spreading the a_i out kills concentration.
spread = linear_small_ball_exact(LinearForm(tuple(3 ** k for k in range(10))), law, 0)
print("rho(spread coefficients)     =", spread.rho)

# Monte Carlo agrees with the exact value within its half-width and is the
# tool for continuous laws.
mc = linear_small_ball_mc(LinearForm((1,) * 10), law, 0, trials=10 ** 5, seed=3)
print(f"MC rho = {mc.rho:.4f} +- {mc.ci_halfwidth:.4f}")
gs = linear_small_ball_mc(LinearForm((1,)), gaussian(), 0.5, trials=10 ** 5, seed=5)
print(f"gaussian window mass = {gs.rho:.4f} (true {math.erf(0.5 / math.sqrt(2)):.4f})")

# Quadratic and bilinear (decoupled) forms by full enumeration, still exact:
c = 1 / math.sqrt(2)
quad = quadratic_small_ball_exact(QuadraticForm(((0, c), (c, 0))), law, 0.1)
print("rho(sqrt2 * x1 x2, beta=0.1) =", quad.rho)
bil = bilinear_small_ball(QuadraticForm(((c, 0), (0, c))), law, law, 0)
print("rho((x1 y1 + x2 y2)/sqrt2)   =", bil.rho)

# The Erdos-Littlewood-Offord n^(-1/2) scaling is visible in the exact
# central-binomial value: rho(n) * sqrt(n) settles near sqrt(2/pi) ~ 0.7979.
for n in (16, 100, 1000):
    print(f"rho({n}) * sqrt(n) = {float(central_binomial_rho(n)) * math.sqrt(n):.4f}")
