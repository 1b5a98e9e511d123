"""Exception types shared across the package."""


class OscymError(Exception):
    """Base class for all package errors."""


class DomainError(OscymError, ValueError):
    """Argument outside the function's domain."""


class RangeError(OscymError, ValueError):
    """Value outside a piece's image."""


class PieceKindError(OscymError, TypeError):
    """Operation applied to a piece of the wrong kind (e.g. inverting a constant)."""


class SingularSlopeError(OscymError, ArithmeticError):
    """Forward derivative zero or below its rounding noise: the inverse slope diverges."""

    def __init__(self, y, message=None):
        self.y = y
        super().__init__(message or f"singular inverse slope at y={y}")


class ConstructionError(OscymError, ValueError):
    """A derived object could not be built because validation failed."""


class QuadratureError(OscymError, ArithmeticError):
    """Adaptive quadrature failed to converge to the requested tolerance."""


class PreconditionError(OscymError, ValueError):
    """A documented operation precondition does not hold."""


class UnsupportedError(OscymError, ValueError):
    """Input outside the supported class (e.g. non-affine derivative pushforward)."""


class SpecError(OscymError, ValueError):
    """Malformed function or sequence specification."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
