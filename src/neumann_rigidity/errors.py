"""Exception types shared across the solvers and the experiment harness."""


class NeumannLabError(Exception):
    """Base class for all package errors."""


class ConfigError(NeumannLabError):
    """An experiment configuration violates a parameter constraint."""


class MeshFormatError(NeumannLabError):
    """A mesh or field file does not follow the documented plain-text format."""


class NoConvergenceError(NeumannLabError):
    """An iterative solver hit its iteration cap (or underflowed its step)."""


class SingularJacobianError(NeumannLabError):
    """The Newton linear step is not solvable (the Jacobian is numerically
    singular), typically near a bifurcation point."""


class InvalidBracketError(NeumannLabError):
    """A sign-change bracket does not actually change sign."""


class BranchLostError(NeumannLabError):
    """Natural continuation could not advance even after step halving.

    Carries the branch points accepted before the loss in ``points``.
    """

    def __init__(self, message, points=None):
        super().__init__(message)
        self.points = list(points) if points is not None else []


class FellBackToConstantError(NeumannLabError):
    """A branch-switch attempt converged back onto the constant branch."""


class ZeroFieldError(NeumannLabError):
    """An operation that needs a nonzero fluctuation received (numerically) zero."""
