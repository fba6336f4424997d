"""Exception hierarchy shared by all perfolayer modules."""


class PerfolayerError(Exception):
    """Base class for all package-specific errors."""


# --- geometry ---------------------------------------------------------------

class EmptySolid(PerfolayerError):
    """The voxel mask contains no solid voxel."""


class DisconnectedSolid(PerfolayerError):
    """The solid voxel set is not 6-connected."""


class PeriodicMismatch(PerfolayerError):
    """Solid patterns on opposite lateral cell faces do not match."""


class ResolutionIncompatible(PerfolayerError):
    """Mesh resolution is not a multiple of the mask resolution."""


class EpsilonNotReciprocalInteger(PerfolayerError):
    """The scale parameter must satisfy 1/eps in N."""


# --- solvers ----------------------------------------------------------------

class SolverFailure(PerfolayerError):
    """A linear or nonlinear solve did not reach its tolerance."""


class MaxIterationsExceeded(SolverFailure):
    """Conjugate gradients hit the iteration cap before converging."""


class IndefiniteDetected(SolverFailure):
    """Operator is not positive definite on the constrained subspace."""


class ConvergenceFailure(SolverFailure):
    """Eigenvalue iteration did not converge."""


class SingularWithoutConstraints(SolverFailure):
    """Operator is singular because no constraints were applied."""


# --- data consistency -------------------------------------------------------

class InconsistentMesh(PerfolayerError):
    """Fields were produced on a different mesh than the one supplied."""


class AsymmetricInput(PerfolayerError):
    """A tensor field that must be symmetric is not."""


class EmptyColumn(PerfolayerError):
    """A vertical line through the layer meets no solid material."""


class TimeMismatch(PerfolayerError):
    """Micro and macro states correspond to different times."""


# --- configuration ----------------------------------------------------------

class ParseError(PerfolayerError):
    """Configuration document could not be parsed."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class ValidationError(PerfolayerError):
    """Configuration document is syntactically valid but semantically wrong."""

    def __init__(self, message, key=None):
        if key is not None:
            message = f"{key}: {message}"
        super().__init__(message)
        self.key = key
