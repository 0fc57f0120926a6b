"""Exception types shared across the solvers and the experiment harness.

Every solver failure subclasses ``NumericalError``; the command line maps
that one base to exit code 3, ``ConfigError`` to 2 and ``MeshFormatError``
to 4, except for a mesh built from the config, whose ``MeshFormatError`` it
reports as a ``ConfigError``.
"""


class NeumannLabError(Exception):
    """Base class for all package errors."""


class ConfigError(NeumannLabError):
    """An experiment configuration violates a parameter constraint."""


class MeshFormatError(NeumannLabError):
    """A mesh or field file does not follow the documented plain-text format."""


class NumericalError(NeumannLabError):
    """Base class for every solver failure."""


class NoConvergenceError(NumericalError):
    """An iterative solver hit its iteration cap, underflowed its step, or
    (ARPACK) stopped with an error."""


class SingularJacobianError(NumericalError):
    """The Newton linear step is not solvable (the Jacobian is numerically
    singular), typically near a bifurcation point."""


class InvalidBracketError(NumericalError):
    """A sign-change bracket does not actually change sign."""


class BranchLostError(NumericalError):
    """Natural continuation could not advance even after step halving.

    Carries the branch points accepted before the loss in ``points``.
    """

    def __init__(self, message, points=None):
        super().__init__(message)
        self.points = list(points) if points is not None else []


class FellBackToConstantError(NumericalError):
    """A branch-switch attempt converged back onto the constant branch."""


class ZeroFieldError(NumericalError):
    """An operation that needs a nonzero fluctuation received (numerically) zero."""
