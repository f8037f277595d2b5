"""Exception types shared across the package."""


class CurveLiftError(Exception):
    """Base class for all curvelift errors."""


class UnsupportedSurface(CurveLiftError):
    """Raised when an operation requires a surface outside its hypotheses
    (e.g. the word-problem solver on a closed surface of genus <= 1)."""


class NonIntegralTurning(CurveLiftError):
    """Raised when a component's fiber degree is not an integer (turning not
    integral in smooth mode, not half-integral in cusp-smooth): no lift closes up."""


class ModeMismatch(CurveLiftError):
    """Raised when a diagram's smooth/cusp-smooth mode does not match the
    requested circle bundle (smooth <-> UT/trivial, cusp-smooth <-> PT)."""


class InapplicableMove(CurveLiftError):
    """Raised when a move instance does not match the local pattern at its
    site in the given diagram."""


class MalformedAssociatedSubgroup(CurveLiftError):
    """Raised when an HNN datum's associated subgroups or stable-letter
    isomorphism are inconsistent."""


class DiagramSyntaxError(CurveLiftError):
    """Parse error in the diagram text format."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
