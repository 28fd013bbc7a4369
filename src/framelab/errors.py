"""Exception hierarchy for framelab.

Input/validation problems raise subclasses of :class:`FrameLabError`; plain
``ValueError`` is reserved for argument misuse not covered by a named error.
"""


class FrameLabError(Exception):
    """Base class for all framelab errors."""


class DimensionMismatch(FrameLabError):
    """Vector lengths do not match the declared dimension."""


class NotSpanning(FrameLabError):
    """The vectors do not span the ambient space."""


class NotDual(FrameLabError):
    """The candidate dual does not reproduce the identity."""


class IllConditioned(FrameLabError):
    """The frame operator is numerically singular."""


class ShapeMismatch(FrameLabError):
    """Operands describe different vector counts or dimensions."""


class InvalidProbability(FrameLabError):
    """A probability sequence violates its constraints."""


class DegenerateWeight(FrameLabError):
    """Some erasure probability equals one, so its weight is infinite."""


class DegenerateDenominator(FrameLabError):
    """The optimal-value formulas need at least two vectors."""


class CombinatorialLimit(FrameLabError):
    """Too many erasure sets to enumerate under the configured cap."""


class EigenFailure(FrameLabError):
    """The eigenvalue solver did not converge."""


class SvdFailure(FrameLabError):
    """The singular value solver did not converge."""


class InsufficientSupport(FrameLabError):
    """No valid erasure sampling is possible for the requested size."""


class NotOneErasureOptimal(FrameLabError):
    """The pair is not in the one-erasure spectral optimal set."""


class NotParseval(FrameLabError):
    """The frame operator is not the identity."""


class HypothesisFailed(FrameLabError):
    """A certificate's hypotheses do not hold, so no prediction is emitted.

    Carries the evaluated hypotheses so callers can still report them.
    """

    def __init__(self, message, hypotheses=None):
        super().__init__(message)
        self.hypotheses = list(hypotheses) if hypotheses is not None else []


class ParseError(FrameLabError):
    """An input file could not be parsed."""
