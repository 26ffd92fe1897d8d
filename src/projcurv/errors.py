"""Exception types shared across the package, and the numeric rule that
turns configuration values into ConfigErrors."""

import math


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


class DomainError(ValueError):
    """A number outside the domain of an elementary function at a point: the
    log of a real number <= 0 or of a complex 0.  Like a pole, it makes the
    point's value NaN (``fields.NUMBER_ERRORS``)."""


class ConfigError(GeometryError):
    """Run configuration is malformed, references unknown names, or is out of range."""


def number(raw: dict, key: str, default, kind, where: str = ""):
    """``kind(raw[key])``, or of the default: the one numeric rule for plan
    keys and metric parameters.  A value that does not convert, a boolean,
    and for ``int`` a finite float with a fractional part (which ``int``
    would truncate) are ConfigErrors naming ``where + key`` and the value."""
    value = raw.get(key, default)
    if isinstance(value, bool):
        raise ConfigError(f"{where}{key}: expected a number, got {value!r}")
    if kind is int and isinstance(value, float) and math.isfinite(value) \
            and not value.is_integer():
        raise ConfigError(f"{where}{key}: expected an integer, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where}{key}: expected a number, got {value!r}") from None


def chart_params(raw: dict, where: str, dim: int, radius: float):
    """The ``dim`` (>= 1) and ``radius`` (positive and finite) of a metric's
    chart, each read by :func:`number` with the given default."""
    m = number(raw, "dim", dim, int, where)
    r = number(raw, "radius", radius, float, where)
    if m < 1:
        raise ConfigError(f"{where}dim: must be >= 1, got {m}")
    if not 0 < r < math.inf:
        raise ConfigError(f"{where}radius: must be positive and finite, got {r!r}")
    return m, r
