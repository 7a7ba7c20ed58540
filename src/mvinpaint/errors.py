"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid solver or graph configuration value."""


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes or descriptors."""


class TangentBaseMismatch(ValueError):
    """Tangent vector is anchored at a different point than expected."""


class CutLocusError(ValueError):
    """Logarithm requested for a point numerically at the cut locus of the base."""

    def __init__(self, message, vertex=None, neighbor=None, bad_index=None):
        super().__init__(message)
        self.vertex = vertex
        self.neighbor = neighbor
        self.bad_index = bad_index


class NotPositiveDefinite(ValueError):
    """Matrix that must be symmetric positive definite is not."""


class EigenConvergenceError(RuntimeError):
    """The symmetric eigensolver failed: LAPACK did not converge or an entry is non-finite."""


class FileFormatError(ValueError):
    """Malformed or inconsistent image or mask file."""


class GraphBuildError(RuntimeError):
    """Nonlocal graph construction failed for a target vertex."""

    def __init__(self, message, vertex=None):
        super().__init__(message)
        self.vertex = vertex


class SolverError(RuntimeError):
    """Numerical failure inside an operator, a solve, or the front driver."""

    def __init__(self, message, vertex=None, layer=None):
        super().__init__(message)
        self.vertex = vertex
        self.layer = layer
