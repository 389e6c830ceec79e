"""Exception types shared across the package."""


class EdgeListParseError(ValueError):
    """Malformed edge-list input; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DigraphValidationError(ValueError):
    """Structurally invalid digraph (loop, out-of-range vertex, bad n)."""


class EigensolverError(RuntimeError):
    """Eigenvalue iteration failed to converge or failed the residual gate.

    Carries whatever partial values were computed in ``partial``.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class PurelyImaginaryEigenvalueError(ArithmeticError):
    """The Coulson-type integrand has a pole on the integration path.

    ``x`` is the real abscissa at which the pole sits (the imaginary part of
    the offending eigenvalue).
    """

    def __init__(self, x: float):
        super().__init__(f"integrand pole on the path at x = {x:.9g} "
                         "(purely imaginary eigenvalue)")
        self.x = x


class BoundInapplicableError(ArithmeticError):
    """The walk-ratio energy bound was asked for with ratio q > arc count.

    No digraph's profile has q > a (see ``energy_upper_walk_ratio``), so
    only a hand-built profile or a miscomputed one raises this; it is
    surfaced rather than clamped so the verification harness can flag it.
    """

    def __init__(self, q: float, arc_count: int):
        super().__init__(f"walk ratio q = {q:.9g} exceeds arc count a = {arc_count}")
        self.q = q
        self.arc_count = arc_count


class UnknownCheckError(ValueError):
    """A verification run was configured with an unregistered check name."""
