"""Exception hierarchy for framelab.

Every framelab error is a :class:`FrameLabError`.  Errors in the input (a
frame or probability file, or an argument) derive from :class:`InputError`,
which is also a ``ValueError``; argument misuse that no named class covers
raises a plain ``ValueError``.  The other classes report a numeric failure or
a certificate whose hypotheses do not hold.  A LAPACK failure is raised as
numpy's ``LinAlgError``, not re-labelled.  The command line exits 2 on any
``ValueError`` and 3 on any other ``FrameLabError`` and on ``LinAlgError``.
"""


class FrameLabError(Exception):
    """Base class for all framelab errors."""


class InputError(FrameLabError, ValueError):
    """The input, a file or an argument, is invalid."""


class DimensionMismatch(InputError):
    """Vector lengths do not match the declared dimension."""


class NotSpanning(InputError):
    """The vectors do not span the ambient space."""


class NotDual(FrameLabError):
    """The candidate dual does not reproduce the identity."""


class IllConditioned(FrameLabError):
    """The frame operator is numerically singular."""


class ShapeMismatch(InputError):
    """Operands describe different vector counts or dimensions."""


class InvalidProbability(InputError):
    """A probability sequence violates its constraints."""


class DegenerateWeight(InputError):
    """Some erasure probability equals one, so its weight is infinite."""


class CombinatorialLimit(InputError):
    """Too many erasure sets to enumerate under the configured cap."""


class SvdFailure(FrameLabError):
    """A closed-form operator norm disagrees with the singular value solver."""


class InsufficientSupport(InputError):
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


class ParseError(InputError):
    """An input file could not be parsed."""
