"""Exception types shared across the library."""


class CvnnError(Exception):
    """Base class for all library errors."""


class GridError(CvnnError):
    """Raised when a grid construction yields no usable points."""


class StencilSingularityError(CvnnError):
    """A finite-difference stencil sampled a non-finite function value."""


class ActivationSingularityError(CvnnError):
    """An activation was evaluated at (or produced) a singular value."""


class NoActivePointError(CvnnError):
    """No expansion point was found at which every needed derivative is active."""


class IllConditionedBasisError(CvnnError):
    """Least-squares basis is rank deficient after column scaling."""

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class SynthesisRefusedError(CvnnError):
    """Synthesis was refused because the activation fails the required verdict."""
