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

The sample axis.  Every operation takes one point or an (N, d) stack of
points.  For a stack the fd backend builds the N Richardson stencils as one
(n, N*K) array of real coordinates, calls the rule once, and assembles
every value, gradient and Hessian with elementwise operations over the
leading sample axis.  Elementwise arithmetic rounds each entry the same way
whatever the array around it, so the k-th result of a stack is bit for bit
the result at its point alone; a single point is the stack of one.  What
is stacked: the density and log-H Hessians (``wirtinger_hessian``) and the
metric jets (``matrix_jet``) behind the Chern and Riemann tensors and the
Levi-Civita Christoffels.  What stays per sample, by design: the dual
backend (one hyper-dual pass per point), every contraction after the jet
(``einsum`` and matmul may group their sums differently for a stack than
for one point, which would move results by an ulp), ``Form11`` and its
eigenvalues, and the Hermitian defects of the assembled tensors.  The
checks of a stack (the chart margin, and the metric at the points through
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

Python numbers at one point, NumPy arrays on stencils.  A one-point
evaluation (a plain call through ``fields.plain_values``, a dual pass of
``_real_jet``, the single-point ``jacobian_pair``) hands the rule Python
numbers, whose arithmetic is cheaper than NumPy scalars'; fd stencils keep
their arrays.  Where a NumPy scalar gives inf or NaN, Python raises
``ZeroDivisionError`` or ``OverflowError``; those two are turned into NaN
values (``fields.NUMBER_ERRORS``), so the checks that follow still fail.

One stencil per chart and point.  A density and the metric it divides by
live on the same chart at the same points, so a joint density field
(``ScalarField.joint``) returns both from one rule call and
``wirtinger_hessian`` takes their jets from one stencil: Y and Y_phi with
log H, Y1 with log H1, and u with the entries h_{a bbar} behind the source
Chern tensor.  The rule computes the shared pairing once, and each output
is assembled elementwise as it would be alone, so it is bit for bit the
jet a separate call gives.

Conventions.  On a complex chart with coordinates zeta^a = x^a + i y^a the
real directions are ordered (x^0..x^{d-1}, y^0..y^{d-1}) and

    d/dzeta^a     = (d/dx^a - i d/dy^a) / 2
    d/dzetabar^a  = (d/dx^a + i d/dy^a) / 2

so for a real jet (grad, hess) of a field F,

    (dF)_a           = (grad[xa] - i grad[ya]) / 2
    (d dbar F)_{ab}  = (H[xa,xb] + H[ya,yb] + i (H[xa,yb] - H[ya,xb])) / 4
    (d d F)_{ab}     = (H[xa,xb] - H[ya,yb] - i (H[xa,yb] + H[ya,xb])) / 4

The mixed matrix of a real-valued field is Hermitian; ``wirtinger_hessian``
symmetrizes it into a :class:`~projcurv.fields.Form11`.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .charts import ComplexChart
from .dual import HyperDual
from .errors import BackendMismatchError
from .fields import NUMBER_ERRORS, Form11, ScalarField, rule_values

REL_STEP = 1e-3
CROSS_CHECK_RTOL = 1e-5
GRADIENT_MARGIN_STEPS = 2
HESSIAN_MARGIN_STEPS = 3


def step_for(chart) -> float:
    return REL_STEP * chart.scale


# real-jet primitives ------------------------------------------------------
#
# ``F`` maps a sequence of n real coordinates to a rule output of shape
# ``shape``: a scalar, or nested sequences for vector and matrix rules.  It
# only indexes or iterates over its argument.  The fd primitives take an
# (N, n) stack of points and pass one (n, N*K) array whose columns are the
# N Richardson stencils of K points each, and the dual primitives pass n
# HyperDuals whose derivative slots hold one entry per seeded direction, so
# every jet costs a single rule call.  fd derivative arrays put the sample
# axis first and the direction axes next: grad[k, a, ...] and
# hess[k, a, b, ...]; dual ones omit the sample axis.

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


def _axis_grad(V, s):
    """Richardson gradient from the axis block of stencil values (N, 4n, ...)."""
    N, n = V.shape[0], V.shape[1] // 4
    Vs = V.reshape((N, n, 4) + V.shape[2:])
    vps, vms, vph, vmh = Vs[:, :, 0], Vs[:, :, 1], Vs[:, :, 2], Vs[:, :, 3]
    d1 = (vps - vms) / (2 * s)
    d2 = (vph - vmh) / s
    return (4.0 * d2 - d1) / 3.0, (vps, vms, vph, vmh)


def _real_grad_fd(F, p, s, shape=()):
    full, _, _ = _unit_stencils(p.shape[1])
    # the centre and the axis block: the Hessian stencil's first 1 + 4n columns
    V = _eval_stencil(F, p, s * full[:, :1 + 4 * p.shape[1]], shape)
    grad, _ = _axis_grad(V[:, 1:], s)
    return V[:, 0], grad


def _real_jet2_fd(F, p, s, shape=()):
    N, n = p.shape
    full, A, B = _unit_stencils(n)
    V = _eval_stencil(F, p, s * full, shape)
    f0 = V[:, 0]
    grad, (vps, vms, vph, vmh) = _axis_grad(V[:, 1:1 + 4 * n], s)
    hess = np.empty((N, n, n) + shape, complex)
    c0 = f0[:, None]
    h1 = (vps - 2 * c0 + vms) / (s * s)
    h2 = (vph - 2 * c0 + vmh) / (0.25 * s * s)
    diag = np.arange(n)
    hess[:, diag, diag] = (4.0 * h2 - h1) / 3.0
    Vc = V[:, 1 + 4 * n:].reshape((N, A.size, 2, 4) + shape)

    def cross_diff(k, h):
        return (Vc[:, :, k, 0] - Vc[:, :, k, 1] - Vc[:, :, k, 2]
                + Vc[:, :, k, 3]) / (4 * h * h)

    mixed = (4.0 * cross_diff(1, 0.5 * s) - cross_diff(0, s)) / 3.0
    hess[:, A, B] = mixed
    hess[:, B, A] = mixed
    return f0, grad, hess


def _dual_value(v):
    return v.f0 if isinstance(v, HyperDual) else v


def _dual_slots(out, shape, K, mixed=True):
    """Value, first and mixed slots of a rule output over K seeded directions,
    as complex arrays of shape ``shape``, ``(K,) + shape``, ``(K,) + shape``.
    The mixed slot is None when it was seeded untracked (``mixed`` false)."""
    f0 = np.empty(shape, complex)
    f1 = np.zeros((K,) + shape, complex)
    f12 = np.zeros((K,) + shape, complex) if mixed else None
    for idx in np.ndindex(*shape):
        v = _entry(out, idx)
        if isinstance(v, HyperDual):
            f0[idx] = _dual_value(v.f0)
            f1[(slice(None),) + idx] = _dual_value(v.f1)
            if mixed:
                f12[(slice(None),) + idx] = _dual_value(v.f12)
        else:       # the rule ignored the seeds: constant along every direction
            f0[idx] = v
    return f0, f1, f12


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


def _entry(out, idx):
    """The entry at the index tuple idx of a nested rule output."""
    for i in idx:
        out = out[i]
    return out


def _dual_pass(F, coords, shape, K, mixed=True):
    """``_dual_slots`` of F at one point's seeded coordinates, whose value
    slots hold Python numbers.  A rule that raises one of
    ``fields.NUMBER_ERRORS`` there (a pole at the point) gets NaN slots."""
    try:
        out = F(coords)
    except NUMBER_ERRORS:
        nan = np.full((K,) + shape, np.nan, complex)
        return np.full(shape, np.nan, complex), nan, nan if mixed else None
    return _dual_slots(out, shape, K, mixed)


def _real_jet2_dual(F, p, shape=()):
    """Full real jet at the point p (a list of Python floats) from one
    hyper-dual evaluation seeded with every direction pair a <= b at
    once."""
    n = len(p)
    A, B, diag, first, second = _pair_seeds(n)
    coords = [HyperDual(p[c], first[c], second[c], 0.0) for c in range(n)]
    f0, f1, f12 = _dual_pass(F, coords, shape, A.size)
    hess = np.empty((n, n) + shape, complex)
    hess[A, B] = f12
    hess[B, A] = f12
    return f0[()], f1[diag], hess


def _real_grad_dual(F, p, shape=()):
    """Value and real gradient at the point p (a list of Python floats)
    from one hyper-dual evaluation seeded with every direction in the
    first slot; the second and mixed slots are untracked."""
    n = len(p)
    eye = np.eye(n)
    coords = [HyperDual(p[c], eye[c], None, None) for c in range(n)]
    f0, f1, _ = _dual_pass(F, coords, shape, n, mixed=False)
    return f0, f1


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


def _wirt_gradbar_from_real(grad: np.ndarray, d: int) -> np.ndarray:
    return 0.5 * (grad[:, :d] + 1j * grad[:, d:])


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
    complex and real charts alike, splits complex points into real
    coordinates ordered (x^0.., y^0..), and runs the fd or dual primitive:
    the fd backend evaluates the stencils of all N points in one rule call,
    the dual backend takes one hyper-dual pass per point, seeded with
    Python numbers.  ``rule`` takes a tuple of chart coordinates and
    returns an output of shape ``shape``.
    """
    if backend not in ("fd", "dual"):
        raise ValueError(f"unknown backend {backend!r}")
    s = step_for(chart)
    steps = HESSIAN_MARGIN_STEPS if order >= 2 else GRADIENT_MARGIN_STEPS
    is_complex = isinstance(chart, ComplexChart)
    zs, _ = point_stack(z, complex if is_complex else float)
    chart.require_margin(zs, steps * s)
    if is_complex:
        p = _split_real(zs)
        d = chart.dim

        def F(q):
            return rule(_complex_coords(q, d))
    else:
        p = zs

        def F(q):
            return rule(tuple(q))
    if backend == "fd":
        if order >= 2:
            return _real_jet2_fd(F, p, s, shape)
        return _real_grad_fd(F, p, s, shape) + (None,)
    jet = _real_jet2_dual if order >= 2 else _real_grad_dual
    parts = tuple(np.stack(part) for part in zip(*[jet(F, q, shape) for q in p.tolist()]))
    return parts if order >= 2 else parts + (None,)


# public operations --------------------------------------------------------
#
# Each takes one point or an (N, d) stack of points.  A stack gives the
# per-point results in order, with a leading sample axis for arrays and as
# a list for Form11s, from one fd stencil evaluation for the whole stack.

def wirtinger_gradient(field: ScalarField, z, backend: str = "fd") -> np.ndarray:
    """Holomorphic Wirtinger gradient (dF/dzeta^a).

    Antiholomorphic derivatives follow from the conjugate rule
    dbar F = conj(d conj(F)); ``complex_jet2`` returns both.
    """
    _, g, _ = _real_jet(field.rule, field.chart, z, backend, order=1)
    out = _wirt_grad_from_real(g, field.chart.dim)
    return out if np.ndim(z) == 2 else out[0]


def wirtinger_hessian(field: ScalarField, z, backend: str = "fd"):
    """Mixed complex Hessian (d^2 F / dzeta^a dzetabar^b) as a Form11, or a
    list of them at a stack of points.

    Intended for real-valued fields, whose mixed Hessian is Hermitian; the
    Form11 constructor symmetrizes away the numerical skew part.

    A joint density field (``ScalarField.joint``) is differentiated through
    its joint rule, so one stencil serves the density and its rider, and
    each point gives (Form11 of the density, the density's value, (value,
    dz, mixed) of the rider) with dz[g, ...] = d R / dz^g and
    mixed[k, l, ...] = d^2 R / dz^k dzbar^l over the rider's shape, as
    ``matrix_jet`` gives them for a metric.  Both values are the stencil's
    centre column.
    """
    d = field.chart.dim
    if field.joint_rule is None:
        _, _, H = _real_jet(field.rule, field.chart, z, backend)
        out = [Form11(M) for M in _wirt_mixed_from_real(H, d)]
    else:
        shape = field.rider
        f0, grad, H = _real_jet(_flat_joint(field.joint_rule, shape), field.chart, z,
                                backend, shape=(1 + math.prod(shape),))
        mixed = _wirt_mixed_from_real(H, d)
        N = len(mixed)
        rider = (f0[:, 1:].reshape((N,) + shape),
                 _wirt_grad_from_real(grad, d)[..., 1:].reshape((N, d) + shape),
                 mixed[..., 1:].reshape((N, d, d) + shape))
        out = [(Form11(M[..., 0]), D, jet)
               for M, D, jet in zip(mixed, f0[:, 0].real, zip(*rider))]
    return out if np.ndim(z) == 2 else out[0]


def _flat_joint(joint_rule, shape):
    """A joint rule's (density, rider) as one flat output: the density, then
    the rider's entries in row-major order."""
    def rule(zs):
        density, rider = joint_rule(zs)
        return [density] + [_entry(rider, idx) for idx in np.ndindex(*shape)]

    return rule


def complex_jet2(field: ScalarField, z, backend: str = "fd"):
    """Value, d-gradient, dbar-gradient, mixed and pure-holomorphic Hessians."""
    d = field.chart.dim
    f0, g, H = _real_jet(field.rule, field.chart, z, backend)
    out = (f0,
           _wirt_grad_from_real(g, d),
           _wirt_gradbar_from_real(g, d),
           _wirt_mixed_from_real(H, d),
           _wirt_holo2_from_real(H, d))
    return out if np.ndim(z) == 2 else tuple(part[0] for part in out)


def cross_check(field: ScalarField, z, rtol: float = CROSS_CHECK_RTOL) -> float:
    """Max relative disagreement between the two backends (gradient+Hessian).

    Raises BackendMismatchError beyond ``rtol``; returns the observed defect.
    """
    _, gf, Hf = _real_jet(field.rule, field.chart, z, "fd")
    _, gd, Hd = _real_jet(field.rule, field.chart, z, "dual")
    scale = max(1.0, float(np.max(np.abs(gd))), float(np.max(np.abs(Hd))))
    defect = max(float(np.max(np.abs(gf - gd))), float(np.max(np.abs(Hf - Hd)))) / scale
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
            value = [_dual_value(out[i]) for i in range(n_out)]
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
    return tuple(np.ascontiguousarray(np.moveaxis(wirt(H, d)[0], -1, 0))
                 for wirt in (_wirt_mixed_from_real, _wirt_holo2_from_real))
