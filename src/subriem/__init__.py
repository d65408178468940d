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
                         conjugate_locus_rows, find_collision, fold_derivative,
                         heis_conjugate_roots, heis_d_exp, heis_exp_closed,
                         heis_exp_point, heis_frame_blocks, heis_group_law,
                         heis_inverse, heis_jacobi_matrix, heis_state,
                         phi_conjugate)
from .jacobi import (DecompositionReport, FrameMatrices, JacobiCoordinates,
                     decomposition, frame_matrices, pairing, propagate_jacobi,
                     regularity_check)
from .maslov import (ContinuityReport, CrossingReport, JacobiCurveSamples,
                     LagrangianFrame, continuity_check, count_conjugate_on_ray,
                     crossing_form, form_signature, horizontal_frame,
                     intersection_dim, jacobi_curve, l_curve, locate_crossings,
                     maslov_index, vertical_frame)
from .structure import (PhaseState, PolyVectorField, SparsePolynomial, Structure,
                        hamiltonian, hamiltonian_jet, load_structure,
                        make_structure, minimal_control, momentum_functions,
                        save_structure)

__version__ = "0.1.0"
