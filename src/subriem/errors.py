"""Exception types shared across the toolkit."""


class SubriemError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatchError(SubriemError):
    """Inputs have inconsistent dimensions."""


class IntegrationError(SubriemError):
    """The adaptive integrator could not complete."""


class StepSizeUnderflowError(IntegrationError):
    """Step control drove the step below the floor (stiffness failure)."""


class NonFiniteStateError(IntegrationError):
    """The integrated state left the space of finite vectors."""


class AmbiguousRankError(SubriemError):
    """A numerical rank decision fell inside the ambiguity band.

    Carries the singular values so the caller can report instead of guess.
    """

    def __init__(self, message, singular_values=None):
        super().__init__(message)
        self.singular_values = singular_values


class ZeroHamiltonianError(SubriemError):
    """The covector lies on the zero level of the fiber Hamiltonian."""


class CrossingEndpointError(SubriemError):
    """A scan window endpoint is itself a crossing / conjugate point."""


class UnresolvedCrossingError(SubriemError):
    """Two crossings could not be separated at the refinement tolerance."""


class NonIdealStructureError(SubriemError):
    """The crossing indicator vanishes identically on a sub-interval."""


class DegenerateCrossingError(SubriemError):
    """A crossing form has an eigenvalue too close to zero to sign."""


class SearchFailureError(SubriemError):
    """A search could not meet its targets (for a collision: image gap,
    separation and radius)."""
