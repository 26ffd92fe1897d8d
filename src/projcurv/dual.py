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
evaluate unchanged under either differentiation backend: the
finite-difference backend passes each coordinate as an array over the points
of a stencil, and the dual backend passes HyperDuals whose derivative slots
are arrays over the seeded directions.

The perturbation directions are always *real* chart directions, so complex
conjugation acts componentwise, which is what makes Wirtinger calculus on
non-holomorphic expressions work with this representation.

Untracked slots.  A derivative slot that holds ``None`` is untracked: it is
not computed, and every operation with an untracked operand slot gives an
untracked result slot.  A tracked mixed slot needs both first slots
tracked.  The engine seeds untracked whatever its caller does not read:

* ``diffops._real_grad_dual`` (the dual gradient behind the Chern
  Christoffels, the W-form's dlog H and the normal frames) reads only
  ``f0`` and ``f1`` and seeds ``f2`` and ``f12`` untracked;
* ``diffops.jacobian_pair_generic`` reads ``f1`` and ``f2`` (and ``f0``
  of its first pass, the rule's value) and seeds ``f12`` untracked, also
  when it nests inside an outer jet;
* ``diffops._real_jet2_dual`` reads ``f1`` and ``f12`` and tracks all
  slots, since ``f12`` needs ``f1`` and ``f2``.

The slots that are read round exactly as with every slot tracked: ``f0``
depends only on ``f0``, ``f1`` only on ``f0`` and ``f1``, ``f2`` only on
``f0`` and ``f2``, and each is computed by the same operations on the same
operands either way.  What goes is the arithmetic of the slots thrown away,
so a NaN or inf (and its warning) can no longer appear in one of them.

Lanes.  A ``Lanes`` holds one number per point of a stack, and a rule
called on Lanes coordinates evaluates every point of the stack in one call.
The lanes are Python floats or Python complexes, held as float64 arrays,
whose ``+ - * /``, ``conj``, ``real`` and ``imag`` repeat CPython's own
float and complex arithmetic in float64 array operations (never NumPy's
complex128 ufuncs, which may fuse a product and a sum); ``**``, ``exp``,
``log`` and ``sqrt`` run lane by lane through the scalar code.  Either
way each lane is the value of a call at that point alone, bit for bit.
What cannot act so raises ``TypeError``: lanes that are not all floats or
all complexes (ints, NumPy scalars, or a mix), comparisons, truth values,
conversion to an array, NumPy ufuncs, Lanes of another length, and NumPy
or HyperDual operands, whose values would mix points.  A caller that meets
any exception evaluates the points one by one (``fields.plain_values``).
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator

import numpy as np

__all__ = ["HyperDual", "Lanes", "exp", "log", "sqrt", "conj", "real", "imag", "abs2",
           "pairing"]


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


class Lanes:
    """One number per point of a stack, held as float64 arrays: the real
    parts, and the imaginary parts where the lanes are complex.

    The lanes are all Python floats or all Python complexes; any other
    lanes (ints, NumPy scalars, floats beside complexes) raise
    ``TypeError``.  ``values`` is the list of lanes as Python numbers.

    ``+ - * /`` with Lanes of as many lanes or a Python float, int or
    complex constant, unary minus, ``conj``, ``real`` and ``imag`` are
    float64 array operations in CPython's own steps (``_sum``,
    ``_difference``, ``_product``, ``_quotient``), each rounding as the
    scalar step does; a lane with a NaN part takes the scalar operation,
    since which of two NaN operands comes out is the loop's choice.
    ``**``, ``exp``, ``log`` and ``sqrt`` run lane by lane through the
    scalar operation, and their lanes are held as arrays again; lanes that
    turn mixed (``sqrt`` of negative floats) raise ``TypeError``.
    Everything whose result would not be a lane-by-lane scalar result
    raises ``TypeError``: comparisons (``==`` included), truth values,
    ``np.asarray``, NumPy ufuncs, Lanes of another length, and any other
    operand (a NumPy scalar, an ndarray, a HyperDual).
    """

    __slots__ = ("_re", "_im")

    __array_ufunc__ = None

    def __init__(self, values):
        kinds = set(map(type, values))
        if kinds == {float}:
            self._re, self._im = np.array(values, float), None
        elif kinds == {complex}:
            both = np.array(values, complex)
            self._re, self._im = both.real.copy(), both.imag.copy()
        else:
            raise TypeError("Lanes hold Python floats only or Python complexes only, "
                            f"not {sorted(t.__name__ for t in kinds)}")

    @classmethod
    def _of_arrays(cls, re, im=None):
        lanes = cls.__new__(cls)
        lanes._re, lanes._im = re, im
        return lanes

    @classmethod
    def of_array(cls, column):
        """The lanes of a float64 or complex128 1-D array's entries, as
        ``Lanes(column.tolist())`` holds them, with no list in between."""
        if column.dtype == np.complex128:
            return cls._of_arrays(column.real.copy(), column.imag.copy())
        if column.dtype == np.float64:
            return cls._of_arrays(np.array(column, np.float64))
        raise TypeError(f"Lanes are float64 or complex128, not {column.dtype}")

    @property
    def values(self):
        """The lanes as a list of Python numbers."""
        return (self._re if self._im is None else self.as_complex()).tolist()

    def as_complex(self):
        """The lanes as a complex array, each lane as ``complex(lane)``."""
        out = self._re.astype(complex)
        if self._im is not None:
            out.imag = self._im
        return out

    def __repr__(self):
        return f"Lanes({self.values!r})"

    def _binary(self, other, array_op, op, reflected=False):
        """self op other (other op self if ``reflected``) by ``array_op`` on
        the parts, a lane with a NaN part by the scalar ``op``."""
        a, b = (self._re, self._im), _parts(other, len(self._re))
        if reflected:
            a, b = b, a
        with np.errstate(all="ignore"):
            re, im = array_op(a, b)
            # a sum of squares is NaN exactly when a lane is
            squares = re.dot(re) + (0.0 if im is None else im.dot(im))
        if math.isnan(squares):
            nan = np.isnan(re) if im is None else np.isnan(re) | np.isnan(im)
            for k in np.flatnonzero(nan):
                lane = op(_lane(a, k), _lane(b, k))
                re[k] = lane.real
                if im is not None:
                    im[k] = lane.imag
        return Lanes._of_arrays(re, im)

    def __add__(self, other):
        return self._binary(other, _sum, operator.add)

    def __radd__(self, other):
        return self._binary(other, _sum, operator.add, True)

    def __sub__(self, other):
        return self._binary(other, _difference, operator.sub)

    def __rsub__(self, other):
        return self._binary(other, _difference, operator.sub, True)

    def __mul__(self, other):
        return self._binary(other, _product, operator.mul)

    def __rmul__(self, other):
        return self._binary(other, _product, operator.mul, True)

    def __truediv__(self, other):
        return self._binary(other, _quotient, operator.truediv)

    def __rtruediv__(self, other):
        return self._binary(other, _quotient, operator.truediv, True)

    def __pow__(self, other):
        return self._lanewise(other, operator.pow, False)

    def __rpow__(self, other):
        return self._lanewise(other, operator.pow, True)

    def _lanewise(self, other, op, reflected):
        """self op other (other op self if ``reflected``), lane by lane
        through the scalar ``op``."""
        _parts(other, len(self._re))     # refuses what the array operations refuse
        others = other.values if type(other) is Lanes else itertools.repeat(other)
        pairs = zip(self.values, others)
        return Lanes([op(b, a) for a, b in pairs] if reflected else
                     [op(a, b) for a, b in pairs])

    def __neg__(self):
        return Lanes._of_arrays(-self._re, None if self._im is None else -self._im)

    def _map(self, fn):
        return Lanes([fn(a) for a in self.values])

    def exp(self):
        return self._map(exp)

    def log(self):
        return self._map(log)

    def sqrt(self):
        return self._map(sqrt)

    # a float is its own conjugate and real part, and its imaginary part
    # is 0.0 * x, as ``imag`` gives it

    def conjugate(self):
        return self if self._im is None else Lanes._of_arrays(self._re, -self._im)

    @property
    def real(self):
        return self if self._im is None else Lanes._of_arrays(self._re)

    @property
    def imag(self):
        return 0.0 * self if self._im is None else Lanes._of_arrays(self._im)

    def _refuse(self, *args, **kwargs):
        raise TypeError("Lanes hold one value per point: they are not compared, "
                        "tested for truth or converted to an array")

    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = __bool__ = __array__ = _refuse
    __hash__ = None


# The array arithmetic of Lanes, in the steps of CPython 3.11's float and
# complex objects.  An operand is a pair of parts (re, im), float64 arrays
# or Python floats, with im None for a real operand; a real operand of a
# complex operation is complex(x, 0.0), as CPython converts it.  Each
# step is one float64 operation on the same operands in the same order as
# in C, so each lane rounds as the scalar does; NumPy's complex128
# ufuncs would not (they may fuse a product and a sum).

def _parts(x, n):
    """The parts of an operand of the arithmetic of n lanes: Lanes of n
    lanes, or a Python float, int or complex constant (an int as
    ``float(x)``, which raises where the scalar operation raises).  Any
    other operand raises ``TypeError``: its values would mix points."""
    t = type(x)
    if t is Lanes:
        if len(x._re) != n:
            raise TypeError(f"Lanes of {len(x._re)} lanes do not combine with {n} lanes")
        return x._re, x._im
    if t is float:
        return x, None
    if t is int:
        return float(x), None
    if t is complex:
        return x.real, x.imag
    raise TypeError(f"Lanes do not combine with {t.__name__}")


def _lane(parts, k):
    """The Python number in lane k of an operand's parts."""
    re, im = (p.item(k) if type(p) is np.ndarray else p for p in parts)
    return re if im is None else complex(re, im)


def _im(part):
    return 0.0 if part is None else part


def _componentwise(op):
    """A sum or a difference: ``op`` of the real parts and of the imaginary
    parts, two constants' imaginary parts repeated over the lanes."""
    def parts(a, b):
        (ar, ai), (br, bi) = a, b
        re = op(ar, br)
        if ai is None and bi is None:
            return re, None
        im = op(_im(ai), _im(bi))
        return re, im if type(im) is np.ndarray else np.full(re.shape, im)
    return parts


_sum, _difference = _componentwise(operator.add), _componentwise(operator.sub)


def _product(a, b):
    """(ac - bd, ad + bc)."""
    (ar, ai), (br, bi) = a, b
    if ai is None and bi is None:
        return ar * br, None
    ai, bi = _im(ai), _im(bi)
    return ar * br - ai * bi, ar * bi + ai * br


def _quotient(a, b):
    """A float quotient, or Smith's method (CACM Algorithm 116) as CPython's
    ``_Py_c_quot`` runs it: divide by the divisor's part of larger modulus.
    A divisor with a NaN part gives NaN parts, which ``Lanes._binary``
    redoes by the scalar division (its (nan, nan) branch).  A divisor that
    is zero in any lane raises ``ZeroDivisionError``, as that lane's scalar
    division does."""
    (ar, ai), (br, bi) = a, b
    if ai is None and bi is None:
        if np.any(br == 0):
            raise ZeroDivisionError("float division by zero")
        return ar / br, None
    ai = _im(ai)
    # 0-d arrays, so that a constant divisor divides by zero quietly, as C does
    br, bi = np.asarray(br), np.asarray(_im(bi))
    if np.any((br == 0) & (bi == 0)):
        raise ZeroDivisionError("complex division by zero")
    by_imag = np.abs(bi) > np.abs(br)

    def divided_by_real():
        ratio = bi / br
        denom = br + bi * ratio
        return (ar + ai * ratio) / denom, (ai - ar * ratio) / denom

    def divided_by_imag():
        ratio = br / bi
        denom = br * ratio + bi
        return (ar * ratio + ai) / denom, (ai * ratio - ar) / denom

    if not by_imag.any():
        return divided_by_real()
    if by_imag.all():
        return divided_by_imag()
    return tuple(np.where(by_imag, i, r) for r, i in zip(divided_by_real(), divided_by_imag()))


# the number types with methods of their own for the generic functions
_LIFTED = (HyperDual, Lanes)


def exp(x):
    if isinstance(x, _LIFTED):
        return x.exp()
    if isinstance(x, np.ndarray):
        return np.exp(x)
    if isinstance(x, complex):
        return cmath.exp(x)
    return math.exp(x)


def log(x):
    if isinstance(x, _LIFTED):
        return x.log()
    if isinstance(x, np.ndarray):
        # the scalar functions raise on these arguments; so do arrays
        bad = (x == 0) if np.iscomplexobj(x) else (x <= 0)
        if np.any(bad):
            raise ValueError("math domain error")
        return np.log(x)
    if isinstance(x, complex):
        return cmath.log(x)
    return math.log(x)


def sqrt(x):
    if isinstance(x, _LIFTED):
        return x.sqrt()
    if isinstance(x, np.ndarray):
        if not np.iscomplexobj(x) and np.any(x < 0):
            return np.sqrt(x.astype(complex))
        return np.sqrt(x)
    if isinstance(x, complex):
        return cmath.sqrt(x)
    return math.sqrt(x) if x >= 0 else cmath.sqrt(x)


# the types with a conjugate and parts of their own; a NumPy complex
# scalar is not always a ``complex`` (np.complex64, np.clongdouble)
_COMPLEX_LIKE = (HyperDual, Lanes, complex, np.complexfloating, np.ndarray)


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
