"""Error types shared across the toolkit.

The CLI maps these onto process exit codes: ToolkitError and its plain
subclasses exit 1, NotRealizableError and InfeasibleError exit 2, and
CapExceededError exits 3.  OSError exits 1 too.
"""


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class FormulaSyntaxError(ToolkitError):
    """Formula text does not conform to the grammar."""

    def __init__(self, message, line, col, source="<formula>"):
        super().__init__(f"{source}:{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.source = source


class FactsSyntaxError(ToolkitError):
    """Facts file line does not parse."""

    def __init__(self, message, line, source="<facts>"):
        super().__init__(f"{source}:{line}: {message}")
        self.line = line
        self.source = source


class VocabularyError(ToolkitError):
    """Predicate used with inconsistent arity, or outside the declared vocabulary."""


class DomainError(ToolkitError):
    """Arguments violate a precondition (bad width, unknown constant, wrong shape)."""


class CapExceededError(ToolkitError):
    """An enumeration or size cap would be exceeded."""

    def __init__(self, message, size, cap):
        super().__init__(message)
        self.size = size
        self.cap = cap


class NotRealizableError(ToolkitError):
    """The max-entropy solver found no finite-weight model for the requested marginals.

    Carries the polytope diagnosis so callers can distinguish an infeasible
    target (outside the marginal polytope) from a boundary target (realizable,
    but only by distributions without full support).
    """

    def __init__(self, message, theta, distance, boundary):
        super().__init__(message)
        self.theta = tuple(theta)
        self.distance = distance
        self.boundary = boundary


class InfeasibleError(ToolkitError):
    """The primal oracle's feasibility phase did not converge."""
