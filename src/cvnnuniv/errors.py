"""Exception types shared across the library."""


class CvnnError(Exception):
    """Base class for all library errors."""


class GridError(CvnnError):
    """Raised when a grid construction leaves no points."""


class StencilSingularityError(CvnnError):
    """A finite-difference stencil sampled a non-finite function value."""


class ActivationSingularityError(CvnnError):
    """An activation was evaluated at (or produced) a singular value."""


class NoActivePointError(CvnnError):
    """No expansion point was found at which every needed derivative is active."""


class SynthesisRefusedError(CvnnError):
    """Synthesis was refused because the activation fails the required verdict."""
