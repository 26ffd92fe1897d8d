r"""Doubly-checked Wirtinger differentiation engine.

Every first and second derivative in the package flows through this module.
Two independent backends are provided:

* ``fd``   -- Richardson-extrapolated central differences, base step
  ``REL_STEP`` times the chart scale.
* ``dual`` -- second-order forward mode (hyper-dual numbers), exact up to
  rounding.

The backend is fixed at each call site, never by a tag on a field.  The fd
backend takes the density and log-H Hessians and the Chern and Riemann
tensors; the dual backend takes map Jacobians and second derivatives, the
Chern Christoffels, the W-form's dlog H and the normal-coordinate
constructions, where exactness keeps nested differentiation honest.
``cross_check`` compares the two on any field.  Every jet goes through
``_real_jet``, which also enforces the chart margin its stencil needs.

The sample axis.  Every operation but the one-point view
``wirtinger_hessian`` takes one point or an (N, d) stack of points.  For a
stack the fd backend builds the N Richardson stencils as one (n, N*K) array
of real coordinates, calls the rule once, and assembles every value,
gradient and Hessian with elementwise operations over the leading sample
axis.  Elementwise arithmetic rounds each entry the same way whatever the
array around it, so the k-th result of a stack is bit for bit the result at
its point alone; a single point is the stack of one.  What is stacked here:
the density and log-H Hessians (``mixed_hessians``) and the metric jets
(``matrix_jet``) behind the Chern and Riemann tensors and the Levi-Civita
Christoffels.  The callers keep the sample axis through the assembly: the
tensors, contractions, Hermitian checks and eigenvalues after the jets take
one call per stack, with each contraction summing in an order that does not
depend on the stack's size.  What stays per point, by design: the dual
backend (one hyper-dual pass per point), and with it the map jets and
f(z), the W form's second derivatives and its dlog H.  The checks of a
stack (the chart margin, and the metric at the points through
``check_stack``) run once for the whole stack and name its first failing
point, with the message that point alone would give.

Values come with the jets.  Every jet carries the rule's value at its
points: the fd stencil's centre column, gradient stencils included, or
the dual value slot, map Jacobians (``jacobian_pair``) included.
``matrix_jet`` hands the metric's matrix on, which the curvature tensors
check and then invert and contract, and a joint density's Hessian hands
on the density's value for its T D term, so no check or density evaluates
the rule at the point again.  The centre column
is array arithmetic, so it may differ from a scalar call by an ulp.

Python numbers at one point, NumPy arrays on stacks.  A one-point
evaluation (a plain call through ``fields.plain_values``, a dual pass of
``_real_jet``, the single-point ``jacobian_pair``) hands the rule Python
numbers, whose arithmetic is cheaper than NumPy scalars'; fd stencils keep
their arrays, and so do plain values at a stack of points (the S5 probe's
lattice, validation), one rule call per chunk of points.  Where a NumPy
scalar gives inf or NaN, Python raises ``ZeroDivisionError`` or
``OverflowError``; those two are turned into NaN values
(``fields.NUMBER_ERRORS``), so the checks that follow still fail.

A jet pays for its arithmetic, not for its set-up.  What does not depend
on the point is built once: the chart's scale (its fd step), the seed
slots of a dual pass, complex coordinates included (``_dual_seeds``),
and the index tables the fd and dual assemblies read by.  A dual pass
reads each kind of slot of all output entries in one conversion
(``_dual_slots``), and the fd assembly divides and extrapolates all its
difference quotients, gradient and Hessian alike, in one array operation
each (``_real_jet_fd``).  Each entry goes through the operations it
went through one at a time, so every number is the same bit for bit.

One stencil per chart and point.  A density and the metric it divides by
live on the same chart at the same points, so a joint density field
(``ScalarField.joint``) returns both from one rule call and
``mixed_hessians`` takes their jets from one stencil: Y and Y_phi with
log H, Y1 with log H1, Y2 with log H and log H1, and u with the entries
h_{a bbar} behind the source Chern tensor.  The rule computes the shared
pairing once, and each output is assembled elementwise as it would be
alone, so it is bit for bit the jet a separate call gives.  Y2 lives on
the (z, w, x) chart and log H and log H1 on its (z, w) and (z, x)
sub-charts: a sub-chart's block of the Hessian is its own jet bit for bit
when the two charts have one scale, and so one fd step, since the
sub-chart's stencil is then the nested stencil's points with the other
coordinates at the centre.

Conventions.  On a complex chart with coordinates zeta^a = x^a + i y^a the
real directions are ordered (x^0..x^{d-1}, y^0..y^{d-1}) and

    d/dzeta^a     = (d/dx^a - i d/dy^a) / 2
    d/dzetabar^a  = (d/dx^a + i d/dy^a) / 2

so for a real jet (grad, hess) of a field F,

    (dF)_a           = (grad[xa] - i grad[ya]) / 2
    (d dbar F)_{ab}  = (H[xa,xb] + H[ya,yb] + i (H[xa,yb] - H[ya,xb])) / 4
    (d d F)_{ab}     = (H[xa,xb] - H[ya,yb] - i (H[xa,yb] + H[ya,xb])) / 4

The mixed matrix of a real-valued field is Hermitian; ``mixed_hessians``
keeps its Hermitian part, which drops the numerical skew part.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .charts import ComplexChart
from .dual import HyperDual
from .errors import BackendMismatchError, ValidationError
from .fields import NUMBER_ERRORS, Form11, ScalarField, hermitian_part, rule_values

REL_STEP = 1e-3
CROSS_CHECK_RTOL = 1e-5
GRADIENT_MARGIN_STEPS = 2
HESSIAN_MARGIN_STEPS = 3


def step_for(chart) -> float:
    return REL_STEP * chart.scale


# real-jet primitives ------------------------------------------------------
#
# A rule output has shape ``shape``: a scalar, or nested sequences for
# vector and matrix rules.  One primitive per backend gives the jet of
# order 1 or 2, whose value and gradient are the same bit for bit at both.
# The fd one takes ``F``, which maps a sequence of n real coordinates to a
# rule output and only indexes or iterates over it, and an (N, n) stack of
# points, and passes F one (n, N*K) array whose columns are the N
# Richardson stencils of K points each.  The dual one takes the rule and
# one point, and passes the rule its chart coordinates as HyperDuals whose
# derivative slots hold one entry per seeded real direction.  Every jet
# costs a single rule call.  fd derivative arrays put the sample axis first
# and the direction axes next: grad[k, a, ...] and hess[k, a, b, ...];
# dual ones omit the sample axis.

def _eval_stencil(F, p, offsets, shape):
    """Values of F at the stencils p + offsets (n, K) of the N points p
    (N, n), from one rule call: shape (N, K) + ``shape``."""
    (N, n), K = p.shape, offsets.shape[1]
    cols = (p.T[:, :, None] + offsets[:, None, :]).reshape(n, N * K)
    vals = rule_values(F(cols), shape, N * K).reshape(shape + (N, K))
    r = len(shape)
    return vals.transpose((r, r + 1) + tuple(range(r)))


@functools.lru_cache(maxsize=None)
def _unit_stencils(n):
    """Stencil offsets for step 1 in n real directions, read-only.

    Returns (full, A, B).  ``full`` holds the centre, then +1, -1, +1/2,
    -1/2 along each axis in turn (its first 1 + 4n columns are the gradient
    stencil), then, for each pair a < b in (A, B) and h = 1 then 1/2,
    h(+a+b), h(+a-b), h(-a+b), h(-a-b): the Hessian stencil.  Scaling by
    the step s is exact, so the points are those of the scalar formulas.
    """
    diag = np.arange(n)
    axis = np.zeros((n, n, 4))
    axis[diag, diag] = (1.0, -1.0, 0.5, -0.5)
    axis = axis.reshape(n, -1)
    A, B = np.triu_indices(n, 1)
    pairs = np.arange(A.size)
    cross = np.zeros((n, A.size, 2, 4))
    for k, h in enumerate((1.0, 0.5)):
        for j, (sa, sb) in enumerate(((1, 1), (1, -1), (-1, 1), (-1, -1))):
            cross[A, pairs, k, j] = sa * h
            cross[B, pairs, k, j] = sb * h
    full = np.concatenate([np.zeros((n, 1)), axis, cross.reshape(n, -1)], axis=1)
    for arr in (full, A, B):
        arr.setflags(write=False)
    return full, A, B


@functools.lru_cache(maxsize=None)
def _fd_tables(n, r):
    """Index tables of the fd assembly for n real directions and rule
    outputs of r axes, read-only: (rows, hess).

    The difference quotients are stacked as the gradient's along each axis,
    the Hessian's on each axis, then the Hessian's of each pair a < b
    (``_unit_stencils``), each at step s and s/2.  rows[q, k] picks the
    divisor of quotient q at step k from ``_fd_divisors``, with r axes of
    length 1 appended to broadcast over the output; hess[a, b] is the
    quotient that gives Hessian entry (a, b)."""
    _, A, B = _unit_stencils(n)
    diag = np.arange(n)
    rows = np.array([[0, 1]] * n + [[2, 3]] * n + [[4, 5]] * A.size)
    hess = np.empty((n, n), int)
    hess[diag, diag] = n + diag
    hess[A, B] = hess[B, A] = 2 * n + np.arange(A.size)
    out = (rows.reshape(rows.shape + (1,) * r), hess)
    for arr in out:
        arr.setflags(write=False)
    return out


def _fd_divisors(s):
    """The divisors of the difference quotients at step s, by stencil:
    the gradient's (2s, s), the Hessian diagonal's (s^2, s^2/4) and the
    mixed pairs' (4s^2, 4(s/2)^2)."""
    h = 0.5 * s
    return np.array([2 * s, s, s * s, 0.25 * s * s, 4 * s * s, 4 * h * h])


def _richardson(Q):
    """(4 Q(s/2) - Q(s)) / 3 of the difference quotients Q[:, :, k] at step
    s (k = 0) and s/2 (k = 1)."""
    return (4.0 * Q[:, :, 1] - Q[:, :, 0]) / 3.0


def _axis_block(V, n, shape):
    """The values at +h and -h along each axis, h = s and s/2: plus[:, a, k]
    and minus[:, a, k], from the axis block of stencil values (N, 4n, ...)."""
    Vs = V.reshape((V.shape[0], n, 4) + shape)
    return Vs[:, :, 0::2], Vs[:, :, 1::2]


@np.errstate(all="ignore")
def _real_jet_fd(F, p, s, shape=(), order=2):
    """Value, gradient and Hessian (None at order 1, whose stencil is the
    centre and axis columns only) at each of the N points p from one
    stencil evaluation.  The quotients are (f(+h) - f(-h)) / 2h,
    (f(+h) - 2 f + f(-h)) / h^2 and (f(++) - f(+-) - f(-+) + f(--)) / 4h^2
    entry by entry; all of them are divided and extrapolated
    (``_richardson``) in one array operation each.

    The rule call and the assembly run quietly (``np.errstate``): a stencil
    point where the rule overflows gives a non-finite jet, which the checks
    that follow reject, also where warnings are errors."""
    N, n = p.shape
    full, A, B = _unit_stencils(n)
    V = _eval_stencil(F, p, s * (full if order >= 2 else full[:, :1 + 4 * n]), shape)
    f0 = V[:, 0]
    plus, minus = _axis_block(V[:, 1:1 + 4 * n], n, shape)
    rows, hess = _fd_tables(n, len(shape))
    if order < 2:
        return f0, _richardson((plus - minus) / _fd_divisors(s)[rows[:n]]), None
    Vc = V[:, 1 + 4 * n:].reshape((N, A.size, 2, 4) + shape)
    quotients = np.concatenate([
        plus - minus,
        plus - 2 * f0[:, None, None] + minus,
        Vc[:, :, :, 0] - Vc[:, :, :, 1] - Vc[:, :, :, 2] + Vc[:, :, :, 3]], axis=1)
    R = _richardson(quotients / _fd_divisors(s)[rows])
    return f0, R[:, :n], R[:, hess]


def _flat_entries(out, shape) -> list:
    """The entries of a nested rule output of shape ``shape`` as one flat
    list in row-major order."""
    entries = [out]
    for _ in shape:
        entries = [v for row in entries for v in row]
    if len(entries) != math.prod(shape):
        raise ValueError(f"rule output does not have shape {shape}")
    return entries


def _slot_rows(slots, K) -> np.ndarray:
    """The derivative slots of E entries as one (E, K) complex array, from
    one conversion.  A slot the rule left a scalar (a constant entry, or a
    mixed slot seeded 0 that only linear operations reached) is the same
    along every direction, and is repeated K times."""
    return np.array([s if isinstance(s, np.ndarray) else (s,) * K for s in slots],
                    complex)


def _dual_slots(out, shape, K, mixed=True):
    """Value, first and mixed slots of a rule output over K seeded directions,
    as complex arrays of shape ``shape``, ``(K,) + shape``, ``(K,) + shape``.
    The mixed slot is None when it was seeded untracked (``mixed`` false).

    Each kind of slot is read from all entries in one conversion; entry by
    entry, the numbers are those of assigning each slot into its place."""
    values, firsts, mixeds = [], [], []
    for v in _flat_entries(out, shape):
        if isinstance(v, HyperDual):
            values.append(v.f0)
            firsts.append(v.f1)
            mixeds.append(v.f12)
        else:       # the rule ignored the seeds: constant along every direction
            values.append(v)
            firsts.append(0.0)
            mixeds.append(0.0)
    f0 = np.array(values, complex).reshape(shape)
    f1 = np.ascontiguousarray(_slot_rows(firsts, K).T).reshape((K,) + shape)
    if not mixed:
        return f0, f1, None
    return f0, f1, np.ascontiguousarray(_slot_rows(mixeds, K).T).reshape((K,) + shape)


@functools.lru_cache(maxsize=None)
def _pair_seeds(n):
    """Direction pairs a <= b of n real directions and the seeds that
    evaluate all of them at once, read-only: (A, B, diag, first, second)
    with first[c, k] = [A[k] == c], second[c, k] = [B[k] == c] and diag
    the positions of the pairs a == b."""
    A, B = np.triu_indices(n)
    coords = np.arange(n)[:, None]
    out = (A, B, np.flatnonzero(A == B),
           (A == coords).astype(float), (B == coords).astype(float))
    for arr in out:
        arr.setflags(write=False)
    return out


@functools.lru_cache(maxsize=None)
def _dual_seeds(d, complex_chart, order):
    """What a dual pass at a point of d chart coordinates reuses, built once
    and read-only: (seeds, diag, pairs).

    seeds holds the derivative slots (f1, f2, f12) each coordinate is
    seeded with.  Order 2 seeds every pair a <= b of the n real directions
    at once (``_pair_seeds``), and diag and pairs read the jet off the
    slots: the positions of the pairs a == b, and the (n, n) table of the
    position of the pair (min(a, b), max(a, b)).  Order 1 seeds every
    direction in the first slot, leaves the others untracked, and has no
    tables.  On a complex chart coordinate a is x^a + i y^a, and its slots
    are the ones that sum gives from the seeds of x^a and y^a, computed
    here once by the same operations instead of in every pass.
    """
    n = 2 * d if complex_chart else d
    if order >= 2:
        A, B, diag, first, second = _pair_seeds(n)
        real = [HyperDual(0.0, first[c], second[c], 0.0) for c in range(n)]
        pairs = np.empty((n, n), int)
        pairs[A, B] = pairs[B, A] = np.arange(A.size)
    else:
        real = [HyperDual(0.0, row, None, None) for row in np.eye(n)]
        diag = pairs = None
    coords = _complex_coords(real, d) if complex_chart else real
    seeds = tuple((v.f1, v.f2, v.f12) for v in coords)
    for arr in [pairs] + [slot for slots in seeds for slot in slots]:
        if isinstance(arr, np.ndarray):
            arr.setflags(write=False)
    return seeds, diag, pairs


def _dual_pass(rule, x, seeds, shape, complex_chart):
    """``_dual_slots`` of rule at the point x from one hyper-dual pass with
    the seeds of ``_dual_seeds``.  x is a list of Python numbers: the
    point's real coordinates, or its complex ones on a complex chart, whose
    value slots are x^a + i y^a computed from their parts as the sum of
    two real coordinates gives it.  A rule that raises one of
    ``fields.NUMBER_ERRORS`` there (a pole at the point) gets NaN slots."""
    mixed = seeds[0][2] is not None
    K = seeds[0][0].size
    values = [c.real + c.imag * 1j for c in x] if complex_chart else x
    coords = tuple(HyperDual(v, s1, s2, s12) for v, (s1, s2, s12) in zip(values, seeds))
    try:
        out = rule(coords)
    except NUMBER_ERRORS:
        nan = np.full((K,) + shape, np.nan, complex)
        return np.full(shape, np.nan, complex), nan, nan if mixed else None
    return _dual_slots(out, shape, K, mixed)


def _real_jet_dual(rule, x, shape=(), complex_chart=False, order=2):
    """Value, real gradient and real Hessian (None at order 1) at the point
    x from one hyper-dual pass (``_dual_pass``) with the seeds of
    ``_dual_seeds``: every direction pair a <= b at order 2, every
    direction in the first slot at order 1."""
    seeds, diag, pairs = _dual_seeds(len(x), complex_chart, order)
    f0, f1, f12 = _dual_pass(rule, x, seeds, shape, complex_chart)
    if order < 2:
        return f0, f1, None
    return f0, f1[diag], f12[pairs]


# complex-point wrappers ---------------------------------------------------
#
# The Wirtinger conversions act on the leading direction axes after the
# sample axis: grad[k, a, ...] and hess[k, a, b, ...].

def point_stack(z, dtype=complex) -> tuple[np.ndarray, bool]:
    """(points, stacked): one point of shape (d,) or an (N, d) stack of them
    as an (N, d) array, and whether a stack was given.  The engine works on
    stacks; a single point is the stack of one."""
    z = np.asarray(z, dtype)
    stacked = z.ndim == 2
    return (z if stacked else z.reshape(1, -1)), stacked


def _complex_coords(p, d: int) -> tuple:
    """Complex chart coordinates from real ones ordered (x^0.., y^0..)."""
    return tuple(p[a] + 1j * p[a + d] for a in range(d))


def _split_real(z) -> np.ndarray:
    """Real coordinates (x^0.., y^0..) of a complex point or of each row of
    a stack of them."""
    z = np.asarray(z, complex)
    return np.concatenate([z.real, z.imag], axis=-1)


def _wirt_grad_from_real(grad: np.ndarray, d: int) -> np.ndarray:
    return 0.5 * (grad[:, :d] - 1j * grad[:, d:])


def _wirt_mixed_from_real(H: np.ndarray, d: int) -> np.ndarray:
    xx = H[:, :d, :d]
    yy = H[:, d:, d:]
    xy = H[:, :d, d:]
    yx = H[:, d:, :d]
    return 0.25 * ((xx + yy) + 1j * (xy - yx))


def _wirt_holo2_from_real(H: np.ndarray, d: int) -> np.ndarray:
    xx = H[:, :d, :d]
    yy = H[:, d:, d:]
    xy = H[:, :d, d:]
    yx = H[:, d:, :d]
    return 0.25 * ((xx - yy) - 1j * (xy + yx))


def _real_jet(rule, chart, z, backend: str, order: int = 2, shape=()):
    """Real jets of a rule at one point or an (N, d) stack of points:
    (value, grad, hess) for order 2 and (value, grad, None) for order 1,
    each with a leading sample axis (of length 1 for a single point) and
    the derivative axes next.  The value is the stencil's centre column
    (fd) or the value slot (dual): the rule at the point, evaluated with
    the jet, never by a call of its own.

    The one dispatch point of the engine.  It enforces the chart margin the
    order's stencil needs at every point (naming the first that fails), on
    complex and real charts alike, and runs the fd or dual primitive.  The
    fd backend splits complex points into real coordinates ordered (x^0..,
    y^0..) and evaluates the stencils of all N points in one rule call; the
    dual backend takes one hyper-dual pass per point, on Python numbers,
    with the chart coordinates seeded directly (``_dual_seeds``).
    ``rule`` takes a tuple of chart coordinates and returns an output of
    shape ``shape``.
    """
    if backend not in ("fd", "dual"):
        raise ValueError(f"unknown backend {backend!r}")
    s = step_for(chart)
    steps = HESSIAN_MARGIN_STEPS if order >= 2 else GRADIENT_MARGIN_STEPS
    is_complex = isinstance(chart, ComplexChart)
    zs, _ = point_stack(z, complex if is_complex else float)
    chart.require_margin(zs, steps * s)
    if backend == "dual":
        jets = [_real_jet_dual(rule, x, shape, is_complex, order) for x in zs.tolist()]
        # a single point (the common case) is its jet with a sample axis of one
        return tuple(None if parts[0] is None else
                     parts[0][None] if len(parts) == 1 else np.stack(parts)
                     for parts in zip(*jets))
    if is_complex:
        p = _split_real(zs)
        d = chart.dim

        def F(q):
            return rule(_complex_coords(q, d))
    else:
        p = zs

        def F(q):
            return rule(tuple(q))
    return _real_jet_fd(F, p, s, shape, order)


# public operations --------------------------------------------------------
#
# Each but ``wirtinger_hessian`` takes one point or an (N, d) stack of
# points, and gives a stack's per-point results in order along a leading
# sample axis, from one fd stencil evaluation for the whole stack.

def wirtinger_gradient(field: ScalarField, z, backend: str = "fd") -> np.ndarray:
    """Holomorphic Wirtinger gradient (dF/dzeta^a).

    Antiholomorphic derivatives follow from the conjugate rule
    dbar F = conj(d conj(F)).
    """
    _, g, _ = _real_jet(field.rule, field.chart, z, backend, order=1)
    out = _wirt_grad_from_real(g, field.chart.dim)
    return out if np.ndim(z) == 2 else out[0]


def wirtinger_hessian(field: ScalarField, z, backend: str = "fd") -> Form11:
    """Mixed complex Hessian (d^2 F / dzeta^a dzetabar^b) at one point as a
    Form11 (the density's, for a joint field): the one-point view of
    ``mixed_hessians``, read from its stack of one.  A stack of points
    raises ValidationError, since ``mixed_hessians`` takes stacks."""
    if np.ndim(z) > 1:
        raise ValidationError("wirtinger_hessian takes one point; "
                              "use mixed_hessians for a stack of points")
    out = mixed_hessians(field, [z], backend)
    return Form11._of_hermitian((out if field.joint_rule is None else out[0])[0])


def mixed_hessians(field: ScalarField, z, backend: str = "fd"):
    """The Hermitian parts of the mixed Hessians of a real-valued field at
    one point or an (N, d) stack of points, as one (N, d, d) array.

    A joint density field (``ScalarField.joint``) is differentiated through
    its joint rule, so one stencil serves the density and its rider, and
    gives (that stack, the density's values, (value, dz, mixed) of the
    rider) with dz[k, g, ...] = d R / dz^g and mixed[k, a, b, ...] =
    d^2 R / dz^a dzbar^b at sample k over the rider's shape, as
    ``matrix_jet`` gives them for a metric.  Both values are the stencil's
    centre column."""
    d = field.chart.dim
    if field.joint_rule is None:
        _, _, H = _real_jet(field.rule, field.chart, z, backend)
        return hermitian_part(_wirt_mixed_from_real(H, d))
    shape = field.rider
    f0, grad, H = _real_jet(_flat_joint(field.joint_rule, shape), field.chart, z,
                            backend, shape=(1 + math.prod(shape),))
    mixed = _wirt_mixed_from_real(H, d)
    N = len(mixed)
    rider = (f0[:, 1:].reshape((N,) + shape),
             _wirt_grad_from_real(grad, d)[..., 1:].reshape((N, d) + shape),
             mixed[..., 1:].reshape((N, d, d) + shape))
    return hermitian_part(mixed[..., 0]), f0[:, 0].real, rider


def _flat_joint(joint_rule, shape):
    """A joint rule's (density, rider) as one flat output: the density, then
    the rider's entries in row-major order."""
    def rule(zs):
        density, rider = joint_rule(zs)
        return [density] + _flat_entries(rider, shape)

    return rule


def cross_check(field: ScalarField, z, rtol: float = CROSS_CHECK_RTOL) -> float:
    """Max relative disagreement between the two backends (gradient+Hessian).

    Raises BackendMismatchError beyond ``rtol``; returns the observed defect.
    """
    _, gf, Hf = _real_jet(field.rule, field.chart, z, "fd")
    _, gd, Hd = _real_jet(field.rule, field.chart, z, "dual")
    scale = max(1.0, float(np.abs(gd).max()), float(np.abs(Hd).max()))
    defect = max(float(np.abs(gf - gd).max()), float(np.abs(Hf - Hd).max())) / scale
    if not defect <= rtol:      # a NaN defect fails too
        raise BackendMismatchError(
            f"backends disagree on {field.name or 'field'} at {z}: "
            f"relative defect {defect:.3e} > {rtol:.1e}")
    return defect


# metric-matrix jets -------------------------------------------------------

def matrix_jet(metric, z, backend: str = "fd", order: int = 2):
    """The matrix of a metric field at z and the derivatives of its entries.

    One rule evaluation per stencil (fd; one for a whole stack of points) or
    per seed batch (dual) yields all entries at once, and the chart margin is
    enforced as for scalar fields.  On a complex chart the result is
    Wirtinger: (M, dz, mixed) with dz[g, a, b] = d M_ab / dz^g and
    mixed[k, l, a, b] = d^2 M_ab / dz^k dzbar^l.  On a real chart it is
    (M, d1, d2) with d1[i, a, b] = d M_ab / dx^i and d2[i, j, a, b] =
    d^2 M_ab / dx^i dx^j.  M is the complex matrix at z, from the stencil's
    centre column or the value slot; it is not checked (``check_stack``
    does that).  The second-order part is None when ``order`` is 1.  A
    stack of points puts a sample axis first on every part.
    """
    chart = metric.chart
    M, grad, hess = _real_jet(metric.rule, chart, z, backend, order,
                              (metric.dim, metric.dim))
    if isinstance(chart, ComplexChart):
        d = chart.dim
        grad = _wirt_grad_from_real(grad, d)
        hess = None if hess is None else _wirt_mixed_from_real(hess, d)
    if np.ndim(z) == 2:
        return M, grad, hess
    return M[0], grad[0], None if hess is None else hess[0]


# map-component jets (vector-valued rules) ---------------------------------

def jacobian_pair_generic(rule, z, dim: int, n_out: int):
    """Dual-backend Jacobian with generic scalar output, and the rule's value.

    Returns nested lists (holo, anti) with holo[i][a] = df^i/dz^a and
    anti[i][a] = df^i/dzbar^a, and the list value[i] = f^i(z): the value
    slot of the first pass, so no plain rule call is needed beside the
    Jacobian.  The value slot repeats the plain call's arithmetic on the
    same operands, so it is bit for bit ``rule(z)`` for rules that do not
    divide by a coordinate-dependent quantity (a hyper-dual quotient
    multiplies by the reciprocal).  The entries stay whatever scalar type
    the inputs carry, so an outer differentiation pass may seed ``z`` with
    its own HyperDuals and the inner Jacobian nests transparently.

    When nesting is detected, every coordinate is lifted into the inner dual
    level (outer jets become components, never peers of the inner seeds);
    mixing levels would silently corrupt the inner derivative slots.  The
    mixed slot is never read, so it is seeded untracked.
    """
    z = list(z)
    nested = any(isinstance(v, HyperDual) for v in z)
    holo = [[None] * dim for _ in range(n_out)]
    anti = [[None] * dim for _ in range(n_out)]
    value = None
    for a in range(dim):
        if nested:
            q = [HyperDual(v, 0.0, 0.0, None) for v in z]
        else:
            q = list(z)
        q[a] = HyperDual(z[a], 1.0, 1j, None)
        out = rule(tuple(q))
        if value is None:
            value = [out[i].f0 if isinstance(out[i], HyperDual) else out[i]
                     for i in range(n_out)]
        for i in range(n_out):
            v = out[i]
            if isinstance(v, HyperDual):
                dx, dy = v.f1, v.f2
            else:
                dx = dy = 0.0
            holo[i][a] = 0.5 * (dx - 1j * dy)
            anti[i][a] = 0.5 * (dx + 1j * dy)
    return holo, anti, value


def jacobian_pair(rule, z, dim: int, n_out: int):
    """First Wirtinger derivatives and value of a vector-valued rule at one
    point, or at each row of an (N, dim) stack with a leading sample axis.

    Returns (holo, anti, value) with holo[..., i, a] = df^i/dz^a,
    anti[..., i, a] = df^i/dzbar^a and value[..., i] = f^i(z), the value
    slot of the first pass (``jacobian_pair_generic``).  The dual backend
    evaluates the rule once per source coordinate with paired (x, y) seeds,
    which is exact and keeps inner derivatives noiseless when the result
    feeds an outer stencil.  A stack takes the same ``dim`` passes, with its
    columns (length-N arrays) as the coordinates; a slot the rule leaves
    scalar is broadcast.  Array arithmetic may round differently from the
    scalar one, so a stacked row may differ from its point alone by an ulp.
    A single point's passes carry Python numbers, and a pole there
    (``fields.NUMBER_ERRORS``) gives NaN parts.
    """
    zs, stacked = point_stack(z)
    if not stacked:
        try:
            parts = jacobian_pair_generic(rule, zs[0].tolist(), dim, n_out)
        except NUMBER_ERRORS:
            parts = ([[np.nan] * dim] * n_out,) * 2 + ([np.nan] * n_out,)
        return tuple(np.array(part, complex) for part in parts)
    holo, anti, value = jacobian_pair_generic(
        rule, tuple(np.ascontiguousarray(zs.T)), dim, n_out)
    out = np.empty((2, len(zs), n_out, dim), complex)
    fz = np.empty((len(zs), n_out), complex)
    for i in range(n_out):
        fz[:, i] = value[i]
        for M, parts in zip(out, (holo, anti)):
            for a, v in enumerate(parts[i]):
                M[:, i, a] = v
    return out[0], out[1], fz


def map_jet2(rule, chart, z, n_out: int):
    """Second Wirtinger derivatives of a vector-valued rule from one dual
    evaluation: (mixed, holo2) with mixed[i, a, b] = d^2 f^i / dz^a dzbar^b
    and holo2[i, a, b] = d^2 f^i / dz^a dz^b."""
    _, _, H = _real_jet(rule, chart, z, "dual", shape=(n_out,))
    d = chart.dim
    return tuple(np.ascontiguousarray(wirt(H, d)[0].transpose(2, 0, 1))
                 for wirt in (_wirt_mixed_from_real, _wirt_holo2_from_real))
