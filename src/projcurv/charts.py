"""Coordinate charts: boxes in C^m and R^n.

Charts are immutable. They carry the domain geometry needed for two things:
drawing interior sample points, and enforcing the boundary margin that all
finite-difference stencils require.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ChartDomainError


@dataclass(frozen=True)
class _Box:
    """What the complex and real charts share: a per-coordinate box about
    the center, its normalization and its boundary margin.  Subclasses set
    the coordinate ``_dtype`` and draw their own samples.

    ``scale``, the largest radius, is computed once here: every jet reads
    it for its fd step."""

    dim: int
    center: np.ndarray = None
    radius: np.ndarray = None
    name: str = ""

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("chart dimension must be >= 1")
        c = np.zeros(self.dim, self._dtype) if self.center is None \
            else np.asarray(self.center, self._dtype)
        r = np.ones(self.dim) if self.radius is None \
            else np.broadcast_to(np.asarray(self.radius, float), (self.dim,)).copy()
        # a NaN radius fails the comparison too
        if not (r > 0).all() or not np.isfinite(r).all():
            raise ValueError("chart radii must be positive and finite")
        if not np.isfinite(c).all():
            raise ValueError("chart center must be finite")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", r)
        object.__setattr__(self, "scale", float(r.max()))
        # the radius of each float of a point's float view: (r_i, r_i) for
        # the (Re, Im) of a complex coordinate, r_i for a real one
        object.__setattr__(self, "_view_radius",
                           np.repeat(r, 2 if self._dtype is complex else 1))

    def margin(self, z):
        """Distance from z to the chart boundary (negative when outside, NaN
        for a point with a NaN coordinate); an (N, dim) stack of points
        gives the array of their N margins."""
        gaps = self._margins(z)
        return float(gaps) if gaps.ndim == 0 else gaps

    def _margins(self, z) -> np.ndarray:
        d = np.asarray(z, self._dtype) - self.center
        return (self._view_radius - np.abs(d.view(float))).min(axis=-1)

    def require_margin(self, z, needed: float):
        """Raise ChartDomainError unless z, or each row of an (N, dim) stack,
        lies at least ``needed`` inside the box.  The first failing row is
        named, with the message a single point gives; a non-finite point
        fails too."""
        margins = self._margins(z)
        # a NaN margin fails the comparison; one point (the common case, a
        # stencil's) skips the array comparison
        if (margins.item() >= needed) if margins.size == 1 else (margins >= needed).all():
            return
        z = np.asarray(z)
        if z.ndim > 1:
            k = int(np.argmin(margins >= needed))   # the first failing row
            z, margins = z[k], margins[k]
        m = float(margins)
        where = f"chart {self.name or 'box'}"
        if math.isnan(m):
            raise ChartDomainError(f"point {z} is not a finite point of {where}")
        raise ChartDomainError(
            f"point {z} too close to boundary of {where}: "
            f"margin {m:.3e} < required {needed:.3e}")


class ComplexChart(_Box):
    """Chart on C^m: a per-coordinate box |Re|, |Im| <= r about the center."""

    _dtype = complex

    def sample(self, rng, frac: float = 0.5, count: int | None = None) -> np.ndarray:
        """Draw a point uniformly from the chart shrunk by ``frac``.

        With ``count``, draw a (count, dim) stack in one call: its rows, and
        the rng state after the draw, are bit for bit those of ``count``
        calls without it.
        """
        u = rng.uniform(-1, 1, (2, self.dim) if count is None else (count, 2, self.dim))
        re = u[..., 0, :] * self.radius * frac
        im = u[..., 1, :] * self.radius * frac
        return self.center + re + 1j * im

    def product(self, other: "ComplexChart") -> "ComplexChart":
        """Chart on the product of the two coordinate domains.

        Built once per factor box and name, and kept on this chart: the
        density fields ask for the same product on every call.
        """
        key = (other.dim, other.center.tobytes(), other.radius.tobytes(), other.name)
        products = self.__dict__.setdefault("_products", {})
        if key not in products:
            products[key] = ComplexChart(
                dim=self.dim + other.dim,
                center=np.concatenate([self.center, other.center]),
                radius=np.concatenate([self.radius, other.radius]),
                name=f"{self.name or 'chart'}*{other.name or 'chart'}",
            )
        return products[key]


class RealChart(_Box):
    """Chart on R^n: a per-coordinate box |x_i - c_i| <= r_i."""

    _dtype = float

    def sample(self, rng, frac: float = 0.5, count: int | None = None) -> np.ndarray:
        """As :meth:`ComplexChart.sample`, on the real box."""
        shape = self.dim if count is None else (count, self.dim)
        return self.center + rng.uniform(-1, 1, shape) * self.radius * frac


@functools.lru_cache(maxsize=None)
def fiber_chart(fiber_dim: int) -> ComplexChart:
    """The chart of affine fiber coordinates of P^{fiber_dim}, built once
    per dimension."""
    # affine fiber coordinates chosen by the largest-modulus rule are bounded
    # by 1; radius 1.1 leaves stencil margin at the |w|=1 corner
    return ComplexChart(dim=fiber_dim, radius=np.full(fiber_dim, 1.1), name="fiber")
