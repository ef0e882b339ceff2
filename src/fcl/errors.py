"""Exception types shared across the library."""


class FclError(Exception):
    """Base class for all library-specific errors."""


class NotInClass(FclError):
    """The rational function is not of the form w*P(w)/Q(w) with P(0)=Q(0)=1."""


class InvalidRTransform(FclError):
    """R(0) != 0, so R cannot be the R-transform of a class member."""


class ComputationError(FclError):
    """Two independent computation routes disagreed; indicates a bug."""


class DegenerateEliminant(FclError):
    """A resultant eliminant vanished identically after cleaning."""


class DecompositionNotReal(FclError):
    """A claimed decomposition needs non-real weights for these parameters."""


class ContinuationFailure(FclError):
    """Numeric branch tracking passed too close to a critical point of F."""


class NetworkDisabled(FclError):
    """Remote fetch requested while networking is switched off."""


class NotFound(FclError):
    """Remote resource does not exist."""


class ParseError(FclError):
    """Input text could not be parsed.

    Carries the message without its position (`message`) and a position
    (offset into the input) when available.
    """

    def __init__(self, message, position=None):
        super().__init__(message if position is None
                         else f"{message} (at offset {position})")
        self.message = message
        self.position = position
