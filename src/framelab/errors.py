"""Exception hierarchy for framelab: one class per exit code, and one that is
caught.

Every framelab error is a :class:`FrameLabError`.  An error in the input (a
frame or probability file, or an argument) is an :class:`InputError`, which
is also a ``ValueError``; argument misuse that it does not cover raises a
plain ``ValueError``.  A numeric failure raises :class:`FrameLabError`
itself, except a dual that fails the reconstruction identity, which raises
:class:`NotDual` so that the dual search can catch it.  A certificate whose
hypotheses do not hold raises nothing: it reports them as failed.  A LAPACK
failure is raised as numpy's ``LinAlgError``, not re-labelled.  The command
line exits 2 on any ``ValueError`` and 3 on any other ``FrameLabError`` and
on ``LinAlgError``.
"""


class FrameLabError(Exception):
    """Base class for all framelab errors, and the numeric failure."""


class InputError(FrameLabError, ValueError):
    """The input, a file or an argument, is invalid."""


class NotDual(FrameLabError):
    """The candidate dual does not reproduce the identity."""
