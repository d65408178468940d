"""Sub-Riemannian geodesics, Jacobi fields, conjugate points and Maslov indices
for structures given by polynomial generating families on R^n.

The Heisenberg group is built in with fully explicit closed forms and serves
as the exact oracle for the numeric flow; see :mod:`subriem.heisenberg`.
"""

from .errors import (AmbiguousRankError, CrossingEndpointError,
                     DegenerateCrossingError, DimensionMismatchError,
                     IntegrationError, NonFiniteStateError,
                     NonIdealStructureError, SearchFailureError,
                     StepSizeUnderflowError, SubriemError,
                     UnresolvedCrossingError, ZeroHamiltonianError)
from .flow import (ExtremalTrajectory, IntegrationStats, check_constant_speed,
                   d_exp, d_exp_batch, exp_map, integrate_extremal,
                   integrate_extremal_batch)
from .heisenberg import (ALPHA_STAR, CollisionResult, ConjugateClass,
                         ConjugateRoot, HeisCovector, classify_conjugate,
                         conjugate_locus_rows, find_collision,
                         heis_conjugate_roots, heis_d_exp, heis_exp_closed,
                         heis_exp_point, heis_jacobi_matrix, heis_state,
                         phi_conjugate)
from .jacobi import (JacobiCoordinates, pairing, propagate_jacobi,
                     regularity_check)
from .maslov import (ContinuityReport, CrossingReport, JacobiCurveSamples,
                     LagrangianFrame, continuity_check, count_conjugate_on_ray,
                     crossing_form, jacobi_curve, l_curve, locate_crossings,
                     maslov_index, vertical_frame)
from .structure import (PolyVectorField, SparsePolynomial, Structure,
                        load_structure, make_structure)

__version__ = "0.1.0"
