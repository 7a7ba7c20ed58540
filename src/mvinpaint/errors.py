"""Exception types shared across the package.

They fall into three families, one per CLI exit code:

* usage: ConfigError, an invalid setting or a command line that does not
  parse (exit 1);
* data: DimensionMismatch and FileFormatError, inputs that do not fit
  together or do not parse, plus any OSError (exit 2);
* numerical: every NumericalError, a failure of the computation itself
  (exit 3).  It carries the failing vertex when known, and the front
  driver sets the layer it failed in.
"""


class ConfigError(ValueError):
    """Invalid solver or graph configuration value, or a command line that does not parse."""


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes or descriptors."""


class FileFormatError(ValueError):
    """Malformed or inconsistent image or mask file."""


class NumericalError(Exception):
    """A numerical failure, with the vertex and front layer where known."""

    def __init__(self, message, vertex=None, layer=None):
        super().__init__(message)
        self.vertex = vertex
        self.layer = layer


class CutLocusError(NumericalError, ValueError):
    """Logarithm requested for a point numerically at the cut locus of the base."""

    def __init__(self, message, vertex=None, neighbor=None):
        super().__init__(message, vertex)
        self.neighbor = neighbor


class NotPositiveDefinite(NumericalError, ValueError):
    """Matrix that must be symmetric positive definite is not."""


class EigenConvergenceError(NumericalError, RuntimeError):
    """The symmetric eigensolver failed: LAPACK did not converge or an entry is non-finite."""


class GraphBuildError(NumericalError, RuntimeError):
    """Nonlocal graph construction failed for a target vertex."""


class SolverError(NumericalError, RuntimeError):
    """Numerical failure inside an operator, a solve, or the front driver."""
