"""randsym: least singular values, small-ball probabilities and GAP
structure of random symmetric matrices, computed exactly at desk scale
and measured by reproducible Monte Carlo.

Layout:

* laws        entry laws and their literals, spacing certificates
* gap         generalized arithmetic progressions and rank reduction
* smallball   exact / Monte Carlo concentration of linear, bilinear
              and quadratic forms
* structure   row-rewrite matrices, bipartition decoupling, inverse
              Littlewood-Offord search
* ensembles   random symmetric matrices, spectra, exact ranks,
              cofactor identities, rank growth, subspace membership
* detconc     cutoff log-determinants, the keyed trials of the tail and
              detconc experiments and their rules
* cli         the `randsym` experiment runner, the one way to run them
"""

from .laws import (AtomicLaw, ContinuousLaw, SpacingCertificate, atom_bound_holds,
                   auto_certificate, bernoulli, difference_law, gaussian, lazy_sign,
                   parse_law, uniform3, uniform_continuous, verify_spacing)
from .gap import (FullRank, Gap, GapReduction, OutOfBox, ReductionStalled,
                  VolumeTooLarge, beta_close, enumerate_values, evaluate, format_gap,
                  integer_hyperplane, is_proper, parse_gap, rank_reduce, spans)
from .exactlinalg import bareiss_det, exact_rank as rational_rank
from .smallball import (AtomBlowup, EnumerationTooLarge, LinearForm,
                        QuadraticForm, SmallBallEstimate, bilinear_small_ball,
                        central_binomial_rho, linear_small_ball_exact,
                        linear_small_ball_mc, quadratic_small_ball_exact,
                        quadratic_small_ball_mc)
from .structure import (Bipartition, DecouplingCheck, DECOUPLING_CONST,
                        InverseLOReport, OverlapError, RowMatrixSpec,
                        build_row_matrix, conditioning_check, decoupling_scan,
                        inverse_lo_search, row_matrix_det, verify_decoupling)
from .ensembles import (BoundViolation, ConvergenceFailure, SpectralSummary,
                        cofactor_expansion_check, exact_det, exact_rank,
                        exact_sample, grow_and_track, near_kernel_vector,
                        sample_symmetric, spectral_summary, subspace_membership_mc)
from .detconc import (EnvelopeVerdict, SpacingUnverified, envelope_rule,
                      truncated_log_det, wilson_interval)

__version__ = "0.1.0"
