r"""The projectivized tangent bundle in affine fiber charts.

A point of P(T_M) is held as a base point z together with homogeneous fiber
coordinates [W^1 : ... : W^m]; the affine chart is selected by the
largest-modulus rule, which keeps the affine coordinates bounded by one.

The tautological metric on the line bundle O(-1) over P(T_M) is

    H(z, [W]) = h_{g dbar}(z) W^g Wbar^d        (optionally H e^{-phi})

and its curvature -ddbar log H is computed on the combined (z, w) chart by
the differentiation engine.  Fiberwise integration against the normalized
Fubini-Study volume uses the exact simplex-times-torus parametrization of
the unit-sphere measure, pulled to general h by a linear change of fiber
frame; reduction is by compensated summation so the node order cannot move
results at the 1e-12 level.  ``fiber_integrate`` takes the matrix h(z), not
the field, so the pushforward check hands it the h(z) its densities read;
it builds the frame once and calls the density once, on the nodes of both
quadrature orders stacked.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import diffops, dual
from .charts import ComplexChart, fiber_chart
from .errors import QuadratureError, ValidationError
from .fields import Form11, HermitianMetricField, ScalarField


@dataclass(frozen=True)
class BundlePoint:
    """A point (z, [W]) of P(T_M) in the affine chart of its largest coordinate."""

    z: np.ndarray
    W: np.ndarray          # homogeneous representative as given
    chart_index: int

    @staticmethod
    def make(z, W, chart_index: int | None = None) -> "BundlePoint":
        z = np.asarray(z, complex)
        W = np.asarray(W, complex)
        if np.abs(W).max() == 0:
            raise ValidationError("fiber coordinates must be a nonzero vector")
        idx = int(np.argmax(np.abs(W))) if chart_index is None else int(chart_index)
        if W[idx] == 0:
            raise ValidationError(f"chart index {idx} has zero coordinate")
        return BundlePoint(z=z, W=W, chart_index=idx)

    @property
    def m(self) -> int:
        return self.W.size

    @property
    def W_affine(self) -> np.ndarray:
        """Representative scaled so the chart coordinate equals one."""
        return self.W / self.W[self.chart_index]

    @property
    def w(self) -> np.ndarray:
        """Affine fiber coordinates (the chart coordinate removed)."""
        return _without(self.W_affine, self.chart_index)

    def combined(self) -> np.ndarray:
        return np.concatenate([self.z, self.w])


def _without(v: np.ndarray, i: int) -> np.ndarray:
    """The vector v with its entry i removed: ``np.delete`` without its
    fixed cost."""
    return np.concatenate([v[:i], v[i + 1:]])


def affine_rows(Ws: np.ndarray) -> np.ndarray:
    """Each row of an (N, m) stack of fiber directions scaled so that its
    largest-modulus coordinate is one, as BundlePoint.W_affine does."""
    return Ws / Ws[np.arange(len(Ws)), np.argmax(np.abs(Ws), axis=1)][:, None]


def reconstruct_W(w_scalars, chart_index: int, m: int) -> list:
    """Homogeneous W from affine fiber scalars, generically typed."""
    W = []
    k = 0
    for a in range(m):
        if a == chart_index:
            W.append(1.0)
        else:
            W.append(w_scalars[k])
            k += 1
    return W


@dataclass(frozen=True)
class TautologicalMetric:
    """h_{g dbar} W^g Wbar^d on O(-1) over P(T_M), with optional conformal weight.

    ``weight``, when present, is a callable phi(z_scalars, W_scalars) -> real,
    invariant under W -> lambda W; the metric becomes H e^{-phi}.

    The same machinery serves the covector bundle P(f*T*_N): feed it the
    pulled-back inverse target metric (whose matrix dimension differs from
    the base chart dimension) and W plays the role of the covector X.
    """

    h: HermitianMetricField
    weight: object = None

    @property
    def m(self) -> int:
        """Homogeneous fiber dimension (the pairing-matrix size)."""
        return self.h.dim

    @property
    def base_dim(self) -> int:
        return self.h.chart.dim

    def combined_chart(self) -> ComplexChart:
        if self.m == 1:
            return self.h.chart
        return self.h.chart.product(fiber_chart(self.m - 1))

    def H_raw(self, P: BundlePoint) -> float:
        H = self.h.matrix(P.z)
        W = P.W_affine
        val = np.einsum("gd,g,d->", H, W, W.conj())
        return float(val.real)

    def H_value(self, P: BundlePoint) -> float:
        """Metric of the tautological bundle at P (weight applied)."""
        v = self.H_raw(P)
        if self.weight is not None:
            v *= math.exp(-float(np.real(self.weight(tuple(P.z), tuple(P.W_affine)))))
        return v

    def log_H_field(self, chart_index: int) -> ScalarField:
        """log of the (weighted) metric as a field on the combined (z, w) chart."""
        m = self.m
        base_d = self.base_dim
        h = self.h
        weight = self.weight

        def rule(zs, _m=m, _d=base_d, _idx=chart_index):
            z = zs[:_d]
            W = reconstruct_W(zs[_d:], _idx, _m)
            out = dual.log(dual.pairing(h.matrix_generic(z), W, W))
            if weight is not None:
                out = out - weight(z, tuple(W))
            return out

        return ScalarField(self.combined_chart(), rule,
                           name="log_tautological_metric")


def tautological_H(tm: TautologicalMetric, P: BundlePoint) -> float:
    """The pairing h_{g dbar} W^g Wbar^d for the affine representative at P."""
    v = tm.H_raw(P)
    if v <= 0:
        raise ValidationError(f"tautological metric not positive at {P}")
    return v


def tautological_curvature(tm: TautologicalMetric, P: BundlePoint) -> Form11:
    """Curvature -ddbar log(H e^{-phi}) on the combined (z, w) chart at the
    point P as a Form11: the one-point view of ``curvature_matrices``, read
    from its stack of one.  A list of points raises ValidationError:
    ``curvature_matrices`` takes it."""
    if not isinstance(P, BundlePoint):
        raise ValidationError("tautological_curvature takes one BundlePoint; "
                              "use curvature_matrices for a list of points")
    return Form11._of_hermitian(curvature_matrices(tm, [P])[0])


def curvature_matrices(tm: TautologicalMetric, Ps) -> np.ndarray:
    """The curvature -ddbar log(H e^{-phi}) on the combined (z, w) chart at
    the points Ps, which share their fiber chart, as one (N, d, d) stack of
    Hermitian matrices from one stencil evaluation."""
    idx = Ps[0].chart_index
    if any(Q.chart_index != idx for Q in Ps):
        raise ValidationError("a stacked tautological curvature needs points "
                              "on one fiber chart")
    field = tm.log_H_field(idx)
    return diffops.mixed_hessians(field, np.array([Q.combined() for Q in Ps])) * -1.0


def _check_base_normal(tm: TautologicalMetric, z):
    H = tm.h.matrix(z)
    m = tm.m
    if not float(np.abs(H - np.eye(m)).max()) <= 1e-6:     # a NaN H fails too
        raise ValidationError(
            "horizontal curvature value needs base-normal coordinates "
            "(metric must be the identity at the base point); "
            "use hermitian_normal_coordinates first")


def horizontal_curvature_value(tm: TautologicalMetric, P: BundlePoint) -> float:
    """(ddbar log H^{-1})(u, ubar) at u = (W, 0) in base-normal coordinates.

    Equals the four-fold curvature contraction R(W, Wbar, W, Wbar)/|W|^2 of
    the base metric, which is the holomorphic sectional curvature scaled by
    |W|_h^2.
    """
    _check_base_normal(tm, P.z)
    unweighted = TautologicalMetric(tm.h, weight=None)
    form = tautological_curvature(unweighted, P)
    W = P.W_affine
    u = np.zeros(P.m + max(P.m - 1, 0), complex)
    u[:P.m] = W
    return form.evaluate(u)


# ---------------------------------------------------------------------------
# fiberwise integration

def _sphere_nodes(m: int, order: int):
    """Nodes and weights integrating the uniform measure on the unit sphere
    of C^m, reduced by the global phase.

    Radial part: the squared moduli t of a uniform sphere point are uniform
    on the simplex; stick-breaking coordinates with Gauss-Legendre nodes.
    Angular part: one full phase per coordinate after the first; trapezoid
    nodes are exact for the trigonometric polynomials that arise.
    """
    x, wgl = np.polynomial.legendre.leggauss(order)
    s_nodes = 0.5 * (x + 1.0)
    s_weights = 0.5 * wgl
    thetas = 2.0 * np.pi * np.arange(order) / order
    nodes = []
    for radial in itertools.product(*[range(order)] * (m - 1)):
        t = []
        rema = 1.0    # unallocated stick length; also the jacobian dt_j/ds_j
        wt = math.factorial(m - 1)
        for j, idx in enumerate(radial):
            s = s_nodes[idx]
            wt *= s_weights[idx] * rema
            t.append(rema * s)
            rema = rema * (1.0 - s)
        t.append(rema)
        nodes.append((np.array(t), wt))
    return nodes, thetas


def _fiber_nodes(m: int, order: int):
    """Flattened (V, weight) arrays over radial times angular grids."""
    radial_nodes, thetas = _sphere_nodes(m, order)
    out_V = []
    out_w = []
    for t, wt in radial_nodes:
        root_t = np.sqrt(t)
        for angles in itertools.product(*[range(order)] * (m - 1)):
            V = np.empty(m, complex)
            V[0] = root_t[0]
            for j, aidx in enumerate(angles):
                V[j + 1] = root_t[j + 1] * np.exp(1j * thetas[aidx])
            out_V.append(V)
            out_w.append(wt / order ** (m - 1))
    return np.asarray(out_V), np.asarray(out_w)


@functools.lru_cache(maxsize=None)
def _order_pair_nodes(m: int, order: int):
    """The nodes of orders ``order`` and 2 ``order`` as one (V, m) stack,
    and per order (order, weights, its rows of the stack); read-only."""
    (V1, w1), (V2, w2) = _fiber_nodes(m, order), _fiber_nodes(m, 2 * order)
    Vs = np.concatenate([V1, V2])
    for arr in (Vs, w1, w2):
        arr.setflags(write=False)
    return Vs, ((order, w1, slice(0, len(V1))), (2 * order, w2, slice(len(V1), None)))


def fiber_integrate(H, density, order: int = 8, tol: float = 1e-6):
    """Integral of a fiber density over P(T_zM) against the normalized
    Fubini-Study volume of the metric matrix H = h(z); constants integrate
    to themselves.

    ``density`` maps an (N, m) array of fiber directions over z, each row an
    affine representative whose largest-modulus coordinate is one, to N real
    values; it must be invariant under W -> lambda W.  It is called once,
    on the nodes of both quadrature orders stacked, and each order keeps its
    own compensated sum.  A non-finite value at any node raises
    QuadratureError naming the first such (order, node), the lower order
    first.  Convergence is certified by order doubling; disagreement beyond
    ``tol`` raises QuadratureError.
    """
    if order < 2:
        raise ValidationError("quadrature order must be at least 2")
    lam, U = np.linalg.eigh(np.conj(H))
    S_inv = (U * lam ** -0.5) @ U.conj().T      # H(S^{-1} V) = |V|^2
    Vs, orders = _order_pair_nodes(len(S_inv), order)
    Ws = affine_rows(Vs @ S_inv.T)
    vals = np.asarray(density(Ws), float)
    i1, i2 = (_order_sum(k, ws, Ws[rows], vals[rows]) for k, ws, rows in orders)
    if abs(i2 - i1) > tol * max(1.0, abs(i2)):
        raise QuadratureError(
            f"fiber quadrature did not converge: order {order} gives {i1!r}, "
            f"order {2 * order} gives {i2!r}")
    return i2


def _order_sum(order: int, ws, Ws, vals) -> float:
    """One quadrature order's sum of its node values ``vals`` at the rows
    ``Ws``; a non-finite value raises QuadratureError naming its node."""
    finite = np.isfinite(vals)
    if np.count_nonzero(finite) != finite.size:    # a count is cheaper than a scan
        k = int(np.flatnonzero(~finite)[0])
        raise QuadratureError(
            f"fiber density is not finite at order {order}, node {k} "
            f"(W = {Ws[k].tolist()}): {vals[k]}")
    return math.fsum((ws * vals).tolist())


def pushforward_energy_check(f, h: HermitianMetricField, g, z,
                             order: int = 8, tol: float = 1e-6):
    """Compare m times the fiber integral of the generalized density with the
    classical energy density at a base point.

    df, f(z), g(f(z)) and h(z) are evaluated once, f(z) read from the
    Jacobian's dual pass, and feed Y, the fiber integral's metric and u
    alike; the density is called once for both quadrature orders.  The
    results are those of ``h.dim * fiber_integrate(h.matrix(z),
    maps.Y_on_fiber(f, h, g, z))`` and ``maps.classical_energy_density(f,
    h, g, z)``.

    Returns (m_pi_Y, u, residual) with residual = |m pi_*(Y) - u|.
    """
    from . import maps as maps_mod

    base = maps_mod._base_values(f, h, g, z)
    H = base[2][0]                  # h(z)
    pushed = h.dim * fiber_integrate(H, maps_mod._fiber_density(base, False),
                                     order=order, tol=tol)
    u = maps_mod._energy_density(base)
    return pushed, u, abs(pushed - u)
