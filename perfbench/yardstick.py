"""A fixed CPU kernel that tracks the host's speed, independent of projcurv.

On a shared host the speed of one core drifts by a quarter or more over tens
of seconds, which no run length averages away.  The benchmark interleaves
short slices of this kernel with the ops and scales every measured time by
NOMINAL_S / (the kernel's own time around it), so the metrics report what the
ops would take at a fixed reference speed.  The kernel mixes the two kinds of
work the library does: pure-Python complex and object arithmetic of the kind
rule evaluations perform, and small dense NumPy calls (eigensolves,
contractions).  It must never call into projcurv, so a change to the library
cannot move it.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

# Reference slice time: the median of slices measured on a 2-core Intel Xeon
# host.  It only sets the scale of the corrected figures.
NOMINAL_S = 0.0094


class _Jet:
    """A value with one directional derivative, standing in for the engine's
    hyper-dual scalars."""

    __slots__ = ("v", "d")

    def __init__(self, v, d):
        self.v = v
        self.d = d

    def __add__(self, o):
        if isinstance(o, _Jet):
            return _Jet(self.v + o.v, self.d + o.d)
        return _Jet(self.v + o, self.d)

    __radd__ = __add__

    def __mul__(self, o):
        if isinstance(o, _Jet):
            return _Jet(self.v * o.v, self.v * o.d + self.d * o.v)
        return _Jet(self.v * o, self.d * o)

    __rmul__ = __mul__

    def __truediv__(self, o):
        return _Jet(self.v / o, self.d / o)

    def conjugate(self):
        return _Jet(self.v.conjugate(), self.d.conjugate())


def _python_part(rounds: int) -> complex:
    z = [0.1 + 0.2j, -0.3 + 0.05j, 0.2 - 0.1j]
    acc = 0j
    for k in range(rounds):
        zs = [_Jet(z[0], 1.0), z[1] + 1e-3 * k, z[2]]
        s = 1.0
        for a in zs:
            s = s + a * a.conjugate()
        for a in range(3):
            for b in range(3):
                e = zs[a].conjugate() * zs[b] / 2.0
                acc = acc + (e.v if isinstance(e, _Jet) else e)
        acc = acc + (s.d if isinstance(s, _Jet) else 0)
    return acc


def _numpy_part(rounds: int) -> float:
    rng = np.random.default_rng(0)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    H = A @ A.conj().T + np.eye(3)
    v = rng.standard_normal(3) + 0j
    acc = 0.0
    for k in range(rounds):
        M = H + (1e-6 * k) * np.eye(3)
        acc += float(np.linalg.eigvalsh(M)[0])
        acc += float(np.real(np.einsum("ij,i,j->", M, v, v.conj())))
        acc += float(np.max(np.abs(M - M.conj().T)))
    return acc


def slice_seconds() -> float:
    """Run one slice of the kernel and return its wall time."""
    t0 = time.perf_counter()
    _python_part(600)
    _numpy_part(200)
    return time.perf_counter() - t0


class SpeedLog:
    """Kernel slices taken between ops, and the speed factor they imply.

    The factor for any moment between two slices is NOMINAL_S over the mean
    of those two slices' times; multiplying a measured time by it gives the
    time at the reference speed.
    """

    def __init__(self):
        self.starts = []
        self.ends = []
        self.seconds = []

    def take(self):
        t0 = time.perf_counter()
        d = slice_seconds()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())
        self.seconds.append(d)

    def factor_at(self, t: float) -> float:
        k = max(bisect.bisect_right(self.ends, t) - 1, 0)
        nxt = min(k + 1, len(self.seconds) - 1)
        return NOMINAL_S / (0.5 * (self.seconds[k] + self.seconds[nxt]))

    def corrected_wall(self) -> float:
        """Time between the first and last slice, less the slices themselves,
        at the reference speed."""
        return sum((self.starts[k + 1] - self.ends[k]) * self.factor_at(self.ends[k])
                   for k in range(len(self.seconds) - 1))

    def raw_wall(self) -> float:
        return sum(self.starts[k + 1] - self.ends[k]
                   for k in range(len(self.seconds) - 1))
