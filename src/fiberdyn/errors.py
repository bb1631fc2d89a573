"""Exception hierarchy shared by all fiberdyn modules."""


class FiberdynError(Exception):
    pass


class DerivativeVanishes(FiberdynError):
    """First derivative is (numerically) zero where it must not be."""


class MissingDerivative(FiberdynError):
    """A second or third derivative was requested but not supplied."""


class HitCritical(FiberdynError):
    """An orbit landed exactly on a critical point at the given step."""

    def __init__(self, step):
        super().__init__(f"orbit hits a critical point at step {step}")
        self.step = step


class DegenerateDifferential(FiberdynError):
    """A column of the skew-product differential vanished entirely."""


class CapExceeded(FiberdynError):
    """A partition or census would exceed its cell budget."""


class InvalidConstants(FiberdynError):
    """Pliss constants must satisfy c1 < c2 <= A (and values <= A)."""


class NotAGraph(FiberdynError):
    """A propagated curve piece degenerated below float resolution."""


class DomainCollapsed(FiberdynError):
    """A branch domain shrank to one float, so nothing can be solved in it."""


class NotHyperbolicLike(FiberdynError):
    """The requested iterate is not a hyperbolic-like time for the point."""


class ClosureDiverges(FiberdynError):
    """Forward closure of partition endpoints failed to stabilise."""


class InducingTimeNotFound(FiberdynError):
    """No inducing time up to the search cap satisfied the covering."""

    def __init__(self, k_max, message=None):
        super().__init__(message
                         or f"no inducing time found up to k_max={k_max}")
        self.k_max = k_max


class DegenerateGap(FiberdynError):
    """Cross-ratio gap component is (numerically) degenerate."""


class NotMonotone(FiberdynError):
    """The iterate is not monotone on the given interval."""


class EmptySample(FiberdynError):
    """A Monte-Carlo estimate received no admissible samples."""


class EscapedDomain(FiberdynError):
    """An induced-map orbit left the discovered branch domains."""


class ParseError(FiberdynError):
    """Config text is not well formed; carries line and column."""

    def __init__(self, message, line, col):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class ValidationError(FiberdynError):
    """Config is well formed but a field is invalid; carries field path."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field


class IOFailure(FiberdynError):
    """An experiment could not read or write its files."""
