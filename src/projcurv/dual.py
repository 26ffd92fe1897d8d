"""Second-order forward-mode scalars (hyper-dual numbers) and generic math.

A ``HyperDual`` carries a value together with two directional first
derivatives and the mixed second derivative along those directions:

    x = f0 + f1*e1 + f2*e2 + f12*e1*e2,   e1**2 = e2**2 = 0.

Propagating this truncated Taylor form through arithmetic gives, in a single
evaluation of a composite expression, the exact values of D_u f, D_v f and
D_u D_v f (up to rounding).  Components may be complex, and may themselves be
HyperDual, which nests the construction for higher derivative orders.

The module also provides generic elementary functions (``exp``, ``log``,
``conj``, ``abs2``, ...) that dispatch on plain numbers, NumPy arrays and
HyperDuals alike.  Field and map rules written with these primitives
evaluate unchanged under either differentiation backend and in plain
evaluation: the finite-difference backend passes each coordinate as an
array over the points of a stencil, plain evaluation passes Python numbers
at one point and arrays over a stack of points (``fields.plain_values``),
and the dual backend passes HyperDuals whose derivative slots are arrays
over the seeded directions.

The perturbation directions are always *real* chart directions, so complex
conjugation acts componentwise, which is what makes Wirtinger calculus on
non-holomorphic expressions work with this representation.

Untracked slots.  A derivative slot that holds ``None`` is untracked: it is
not computed, and every operation with an untracked operand slot gives an
untracked result slot.  A tracked mixed slot needs both first slots
tracked.  The engine seeds untracked whatever its caller does not read:

* ``diffops._real_jet_dual`` at order 1 (the dual gradient behind the
  Chern Christoffels, the W-form's dlog H and the normal frames) reads
  only ``f0`` and ``f1`` and seeds ``f2`` and ``f12`` untracked;
* ``diffops.jacobian_pair_generic`` reads ``f1`` and ``f2`` (and ``f0``
  of its first pass, the rule's value) and seeds ``f12`` untracked, also
  when it nests inside an outer jet;
* ``diffops._real_jet_dual`` at order 2 reads ``f1`` and ``f12`` and
  tracks all slots, since ``f12`` needs ``f1`` and ``f2``.

The slots that are read round exactly as with every slot tracked: ``f0``
depends only on ``f0``, ``f1`` only on ``f0`` and ``f1``, ``f2`` only on
``f0`` and ``f2``, and each is computed by the same operations on the same
operands either way.  What goes is the arithmetic of the slots thrown away,
so a NaN or inf (and its warning) can no longer appear in one of them.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DomainError

__all__ = ["HyperDual", "exp", "log", "sqrt", "power", "conj", "real", "imag",
           "abs2", "pairing"]


class HyperDual:
    __slots__ = ("f0", "f1", "f2", "f12")

    # NumPy defers its binary operators to the reflected methods below;
    # otherwise ``ndarray + HyperDual`` becomes an object array of jets
    __array_ufunc__ = None

    def __init__(self, f0, f1=0.0, f2=0.0, f12=0.0):
        self.f0 = f0
        self.f1 = f1
        self.f2 = f2
        self.f12 = f12

    def __repr__(self):
        return f"HyperDual({self.f0!r}, {self.f1!r}, {self.f2!r}, {self.f12!r})"

    # arithmetic; a None slot is untracked and stays so

    def __add__(self, other):
        if isinstance(other, HyperDual):
            a1, a2, a12 = self.f1, self.f2, self.f12
            b1, b2, b12 = other.f1, other.f2, other.f12
            return HyperDual(
                self.f0 + other.f0,
                None if a1 is None or b1 is None else a1 + b1,
                None if a2 is None or b2 is None else a2 + b2,
                None if a12 is None or b12 is None else a12 + b12)
        return HyperDual(self.f0 + other, self.f1, self.f2, self.f12)

    __radd__ = __add__

    def __neg__(self):
        f1, f2, f12 = self.f1, self.f2, self.f12
        return HyperDual(-self.f0, None if f1 is None else -f1,
                         None if f2 is None else -f2, None if f12 is None else -f12)

    def __sub__(self, other):
        return self + (-other if isinstance(other, HyperDual) else -other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a0, a1, a2, a12 = self.f0, self.f1, self.f2, self.f12
        if isinstance(other, HyperDual):
            b0, b1, b2, b12 = other.f0, other.f1, other.f2, other.f12
            return HyperDual(
                a0 * b0,
                None if a1 is None or b1 is None else a0 * b1 + a1 * b0,
                None if a2 is None or b2 is None else a0 * b2 + a2 * b0,
                None if a12 is None or b12 is None
                else a0 * b12 + a1 * b2 + a2 * b1 + a12 * b0,
            )
        return HyperDual(a0 * other,
                         None if a1 is None else a1 * other,
                         None if a2 is None else a2 * other,
                         None if a12 is None else a12 * other)

    __rmul__ = __mul__

    def _reciprocal(self):
        inv_a = 1.0 / self.f0
        f1, f2, f12 = self.f1, self.f2, self.f12
        b = None if f1 is None else f1 * inv_a
        c = None if f2 is None else f2 * inv_a
        return HyperDual(inv_a,
                         None if b is None else -b * inv_a,
                         None if c is None else -c * inv_a,
                         None if f12 is None else (2.0 * b * c - f12 * inv_a) * inv_a)

    def __truediv__(self, other):
        if isinstance(other, HyperDual):
            return self * other._reciprocal()
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def __pow__(self, p):
        if isinstance(p, HyperDual):
            raise TypeError("HyperDual exponents are not supported")
        if p == 0:
            return HyperDual(self.f0 ** 0, *(None if v is None else 0.0
                                             for v in (self.f1, self.f2, self.f12)))
        v = self.f0
        d2 = None
        if self.f12 is not None:
            d2 = p * (p - 1) * v ** (p - 2) if p != 1 else 0.0
        return self._lift(v ** p, p * v ** (p - 1), d2)

    # elementary functions; chain rule with f' and f'', where f'' is only
    # needed (and only passed) when the mixed slot is tracked

    def _lift(self, val, d1, d2):
        f1, f2, f12 = self.f1, self.f2, self.f12
        return HyperDual(val,
                         None if f1 is None else d1 * f1,
                         None if f2 is None else d1 * f2,
                         None if f12 is None else d1 * f12 + d2 * f1 * f2)

    def exp(self):
        e = exp(self.f0)
        return self._lift(e, e, e)

    def log(self):
        v = self.f0
        return self._lift(log(v), 1.0 / v,
                          None if self.f12 is None else -1.0 / (v * v))

    def sqrt(self):
        r = sqrt(self.f0)
        return self._lift(r, 0.5 / r,
                          None if self.f12 is None else -0.25 / (r * self.f0))

    def _slotwise(self, fn):
        f1, f2, f12 = self.f1, self.f2, self.f12
        return HyperDual(fn(self.f0), None if f1 is None else fn(f1),
                         None if f2 is None else fn(f2), None if f12 is None else fn(f12))

    def conjugate(self):
        return self._slotwise(conj)

    @property
    def real(self):
        return self._slotwise(real)

    @property
    def imag(self):
        return self._slotwise(imag)

    # ordering a jet is meaningless; fail loudly instead of comparing values
    def __lt__(self, other):
        raise TypeError("HyperDual values are not ordered")

    __le__ = __gt__ = __ge__ = __lt__


def exp(x):
    if isinstance(x, HyperDual):
        return x.exp()
    if isinstance(x, np.ndarray):
        return np.exp(x)
    if isinstance(x, complex):
        return cmath.exp(x)
    return math.exp(x)


def log(x):
    if isinstance(x, HyperDual):
        return x.log()
    if isinstance(x, np.ndarray):
        # where a point raises DomainError, its entry of a stack is NaN
        bad = (x == 0) if np.iscomplexobj(x) else (x <= 0)
        if not bad.any():
            return np.log(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(bad, np.nan, np.log(x))
    if isinstance(x, complex):
        if x == 0:
            raise DomainError("math domain error")
        return cmath.log(x)
    if x <= 0:
        raise DomainError("math domain error")
    return math.log(x)


def sqrt(x):
    if isinstance(x, HyperDual):
        return x.sqrt()
    if isinstance(x, np.ndarray):
        if not np.iscomplexobj(x) and np.any(x < 0):
            return np.sqrt(x.astype(complex))
        return np.sqrt(x)
    if isinstance(x, complex):
        return cmath.sqrt(x)
    return math.sqrt(x) if x >= 0 else cmath.sqrt(x)


def power(x, p):
    """x ** p, and on an array NaN where x is 0 and p has a nonzero
    imaginary part: 0 to such a power raises ZeroDivisionError at a point,
    where NumPy gives 0."""
    out = x ** p
    if isinstance(x, np.ndarray):
        bad = (x == 0) & (np.imag(p) != 0)
        if bad.any():
            out = np.where(bad, np.nan, out)
    return out


# the types with a conjugate and parts of their own; a NumPy complex
# scalar is not always a ``complex`` (np.complex64, np.clongdouble)
_COMPLEX_LIKE = (HyperDual, complex, np.complexfloating, np.ndarray)


def conj(x):
    if isinstance(x, _COMPLEX_LIKE):
        return x.conjugate()
    return x


def real(x):
    if isinstance(x, _COMPLEX_LIKE):
        return x.real
    return x


def imag(x):
    if isinstance(x, _COMPLEX_LIKE):
        return x.imag
    return 0.0 * x


def abs2(x):
    """Squared modulus x * conj(x); differentiable, unlike abs."""
    return x * conj(x)


def pairing(M, u, v):
    """Hermitian pairing sum_ij M[i][j] u[i] conj(v[j]), accumulated row by row
    from 0.0 in that order, so every backend rounds it the same way."""
    vbar = [conj(x) for x in v]
    acc = 0.0
    for i in range(len(u)):
        for j in range(len(v)):
            acc = acc + M[i][j] * u[i] * vbar[j]
    return acc
