"""Exception hierarchy shared across the package."""


class MBResolveError(Exception):
    """Base class for all package errors."""


class GraphBuildError(MBResolveError):
    """Invalid graph construction input."""


class LoopEdgeError(GraphBuildError):
    """An edge joins a vertex to itself."""


class VertexRangeError(GraphBuildError):
    """A vertex id (an edge endpoint, landmark or pair vertex) is outside 0..n-1."""


class DisconnectedError(GraphBuildError):
    """The edge set does not connect all vertices."""


class SameVertexError(MBResolveError):
    """A vertex pair must consist of two distinct vertices."""


class SizeCapError(MBResolveError):
    """Graph order exceeds the configured solver cap."""

    def __init__(self, n: int, cap: int):
        super().__init__(f"graph order {n} exceeds the size cap {cap} (raise it with --max-n, or size_cap= in the library)")
        self.n = n
        self.cap = cap


class PairsOverlapError(MBResolveError):
    """Pair system vertices are not pairwise distinct."""


class TooManyPairsError(MBResolveError):
    """Pair system exceeds the transversal enumeration cap."""


class CycleTooSmallError(MBResolveError):
    """Cycle order below the gap-condition threshold n >= 2k+3."""


class CountUndefinedError(MBResolveError):
    """A move count was requested for the side that loses that game."""


class InvariantError(MBResolveError):
    """A solver result broke a theorem of the game; a bug, never bad input."""


class FamilyParameterError(MBResolveError):
    """Family parameters outside the generator's valid range."""


class NotATreeError(MBResolveError):
    """Operation requires a tree."""


class TreeHypothesisError(MBResolveError):
    """Tree outside the closed-form predictor's hypotheses."""


class NotCoveredError(MBResolveError):
    """No closed-form prediction exists for this instance."""


class GraphParseError(MBResolveError):
    """Graph file could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
