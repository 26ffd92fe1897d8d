"""Exception types shared across the package."""


class GeometryError(Exception):
    """Base class for all projcurv errors."""


class ChartDomainError(GeometryError):
    """Point too close to (or outside) the chart boundary for the request."""


class ValidationError(GeometryError):
    """A field or map violates one of its structural invariants."""


class BackendMismatchError(GeometryError):
    """Finite-difference and dual-number backends disagree beyond tolerance."""


class QuadratureError(GeometryError):
    """Fiber quadrature did not converge under order doubling."""


class NotApplicable(GeometryError):
    """A verification suite's preconditions do not hold for the given input.

    Deliberately distinct from a failed verdict: a suite that cannot run is
    reported as 'not applicable', never as 'violated'.
    """


class ConfigError(GeometryError):
    """Run configuration is malformed, references unknown names, or is out of range."""
