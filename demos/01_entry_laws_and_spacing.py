"""Entry laws, the symmetrized law xi - xi', and the anti-concentration certificate.

Everything here is exact rational arithmetic: atoms and masses are
fractions, and the spacing check P(c1 <= |xi - xi'| <= c2) >= c3 is a
finite sum, not an estimate.
"""

from fractions import Fraction as F

from randsym import (SpacingCertificate, atom_bound_holds, auto_certificate,
                     bernoulli, difference_law, gaussian, verify_spacing)

law = bernoulli()
print("Bernoulli +-1:", law.atoms)

# The symmetrized law xi - xi' drives the quadratic-form machinery.
d = difference_law(law)
print("xi - xi':", d.atoms)

# A spacing certificate witnesses anti-concentration.  For Bernoulli the
# best certificate is (2, 2, 1/2), found automatically:
cert = auto_certificate(law)
print("auto certificate:", (cert.c1, cert.c2, cert.c3))
print("verify (2, 2, 1/2):", verify_spacing(law, SpacingCertificate(2, 2, F(1, 2))))
print("verify (1, 1.5, 0.1):", verify_spacing(law, SpacingCertificate(1, 1.5, 0.1)))

# Any accepted certificate caps the largest atom: sup_a P(xi = a) is at
# most sqrt(1 - c3), checked exactly by squaring.
print("largest-atom bound holds:", atom_bound_holds(law, cert.c3))

# Continuous laws carry a sampler plus the closed-form mass of |xi - xi'|.
g = gaussian()
print("gaussian spacing at (1/2, 4):",
      verify_spacing(g, SpacingCertificate(0.5, 4.0, 0.5)))
