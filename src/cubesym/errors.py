"""Exception types shared across the package."""


class CubeSymError(Exception):
    """Base class for all cubesym errors."""


class ParameterOutOfRange(CubeSymError):
    """A family parameter violates its documented constraint."""


class SizeGuard(CubeSymError):
    """A requested object exceeds the configured vertex or element cap."""


class DimensionMismatch(CubeSymError):
    """Operands disagree on word length or alphabet."""


class Unreachable(CubeSymError):
    """No path exists between the requested vertices."""


class VertexOutOfRange(CubeSymError):
    """A vertex index is outside the graph's vertex set."""


class DuplicateVertex(CubeSymError):
    """An ordered vertex set contains a repeated vertex."""


class NoStructuredForm(CubeSymError):
    """No closed-form automorphism group is available for this family."""


class SearchBudgetExceeded(CubeSymError):
    """A search exceeded its configured node or element budget."""


class MalformedRecord(CubeSymError):
    """A witness record lacks the shape that `param --witness` emits."""


class NotTwoDistinguishable(CubeSymError):
    """Cost of 2-distinguishing requested for a graph with dist > 2."""
