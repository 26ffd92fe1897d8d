r"""Chern and Riemann curvature from metric fields, and derived scalars.

Sign conventions, fixed once and inherited by every verification suite:

* Chern curvature of a Hermitian metric g (derivative pair first):

      R_{k lbar i jbar} = - d^2 g_{i jbar} / dz^k dzbar^l
                          + g^{p qbar} (d g_{i qbar}/dz^k)(d g_{p jbar}/dzbar^l)

  so the flat metric gives 0, the Fubini-Study chart gives holomorphic
  sectional curvature +2 and the Poincare disc gives -2.

* Riemann curvature of a Riemannian metric g:

      R^l_{ijk} = d Gamma^l_{kj}/dx^i - d Gamma^l_{ki}/dx^j
                  + Gamma^p_{kj} Gamma^l_{pi} - Gamma^p_{ki} Gamma^l_{pj}
      R_{ijkl}  = g_{sl} R^s_{ijk}
      R(X,Y,Z,W) = R_{ijkl} X^i Y^j Z^k W^l

  so the round sphere has sectional curvature +1 and hyperbolic space -1.

Tensors are computed at a point on demand and never stored as fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffops
from . import dual as gm
from .errors import ValidationError
from .fields import HermitianMetricField, RiemannianMetricField

KEY3_PRECONDITION_TOL = 1e-8
NORMAL_POST_TOL = 1e-10


# ---------------------------------------------------------------------------
# metric entry jets

def _riemannian_entry_jets(metric: RiemannianMetricField, xs, order=2):
    """Value, first and (optionally) second coordinate derivatives of g_{ij}
    at an (N, n) stack of points, sample axis first; the values are the
    stencil centres, validated by one ``check_stack`` for the stack.

    Entries below the diagonal are copied from those above it, so the
    derivative arrays are exactly symmetric in (i, j) whatever the rounding
    of the rule's two expressions for g_{ij} and g_{ji}.
    """
    M, d1, d2 = diffops.matrix_jet(metric, xs, backend="fd", order=order)
    G = metric.check_stack(M, xs)
    idx = np.arange(metric.dim)
    upper = idx[:, None] <= idx

    def mirrored(d):
        return np.where(upper, d.real, np.swapaxes(d.real, -1, -2))

    return G, mirrored(d1), None if d2 is None else mirrored(d2)


# ---------------------------------------------------------------------------
# Chern side

@dataclass(frozen=True)
class ChernCurvatureTensor:
    """R[k, l, i, j] = R_{k lbar i jbar}; derivative pair first, metric pair
    second.  At a stack of points every array puts the sample axis first."""

    array: np.ndarray
    metric_value: np.ndarray

    @property
    def dim(self) -> int:
        return self.array.shape[-1]

    def hermitian_defect(self) -> float:
        # R_{k lbar i jbar} = conj(R_{l kbar j ibar})
        return float(np.abs(
            self.array - self.array.conj().swapaxes(-4, -3).swapaxes(-2, -1)).max())

    def kahler_defect(self) -> float:
        # symmetry under swapping the two holomorphic indices (k <-> i)
        return float(np.abs(self.array - self.array.swapaxes(-4, -2)).max())

    def contract(self, u1, u2, v1, v2) -> complex:
        return np.einsum("...klij,k,l,i,j->...", self.array,
                         np.asarray(u1, complex), np.conj(u2),
                         np.asarray(v1, complex), np.conj(v2))


def chern_curvature(metric: HermitianMetricField, z):
    """Chern curvature tensor of a Hermitian metric at a point or at an
    (N, m) stack of points; a point is the stack of one.  A stack takes one
    metric jet, one ``check_stack`` of the jet's values, one inverse and
    one contraction for all its points (``chern_arrays``)."""
    zs, stacked = diffops.point_stack(z)
    # dz[k, g, a, b] = d h_{a bbar}/dz^g and
    # mixed[k, g, d, a, b] = d^2 h_{a bbar}/dz^g dzbar^d at the k-th point
    M, dz, mixed = diffops.matrix_jet(metric, zs, backend="fd")
    H = metric.check_stack(M, zs)
    R = chern_arrays(H, dz, mixed, zs)
    return ChernCurvatureTensor(*((R, H) if stacked else (R[0], H[0])))


def chern_arrays(H, dz, mixed, zs) -> np.ndarray:
    """The (N, m, m, m, m) stack of R[k, l, i, j] = R_{k lbar i jbar} at
    the points zs from the checked metric values H there and the jets dz
    and mixed of its entries (``matrix_jet``'s parts, sample axis first).
    Each tensor is checked for Hermitian symmetry; the first point that
    fails raises, as it would alone."""
    Hinv = np.linalg.inv(H)
    # g^{p qbar} = Hinv[q, p]
    R = -mixed + np.einsum("Zqp,Zkiq,Zljp->Zklij", Hinv, dz, dz.conj())
    k, defect = first_failing(sample_max(R - R.conj().transpose(0, 2, 1, 4, 3)),
                              sample_max(R), 1e-6)
    if k is not None:
        raise ValidationError(
            f"Chern curvature Hermitian-symmetry defect {defect:.3e} at {zs[k]}")
    return R


def sample_max(A: np.ndarray) -> np.ndarray:
    """max |A[k]| of each sample of a stack."""
    return np.abs(A).max(axis=tuple(range(1, A.ndim)))


def first_failing(defect: np.ndarray, size: np.ndarray, rel_tol: float):
    """(k, defect[k]) of the first sample whose defect exceeds rel_tol *
    max(1, size[k]), or (None, None); a NaN defect fails too."""
    # fmax(nan, 1) is 1, as Python's max(1.0, nan) is
    ok = defect <= rel_tol * np.fmax(size, 1.0)
    if np.count_nonzero(ok) == len(ok):
        return None, None
    k = int(np.argmin(ok))
    return k, float(defect[k])


def _hermitian_norm_sq(H: np.ndarray, v: np.ndarray) -> float:
    return float(np.real(np.einsum("ab,a,b->", H, v, v.conj())))


def holomorphic_sectional_curvature(metric: HermitianMetricField, z, v) -> float:
    """HSC(v) = R(v, vbar, v, vbar) / |v|_h^4; invariant under v -> lambda v."""
    v = np.asarray(v, complex)
    if np.abs(v).max() == 0:
        raise ValidationError("holomorphic sectional curvature of the zero vector")
    t = chern_curvature(metric, z)
    norm4 = _hermitian_norm_sq(t.metric_value, v) ** 2
    return float(np.real(t.contract(v, v, v, v))) / norm4


# ---------------------------------------------------------------------------
# Riemannian side

def _bracket(d):
    """b[..., l, j, k] = d[..., j, l, k] + d[..., k, l, j] - d[..., l, j, k]
    on the last three axes, where d[..., a, i, j] = d_a g_{ij}: the bracket
    d_j g_{lk} + d_k g_{lj} - d_l g_{jk} of the Christoffel symbols."""
    return d.swapaxes(-3, -2) + d.swapaxes(-3, -2).swapaxes(-2, -1) - d


def _christoffels_from_jets(Ginv, d1):
    # Gamma^i_{jk} = 1/2 g^{il} (d_j g_{lk} + d_k g_{lj} - d_l g_{jk})
    return 0.5 * np.einsum("Zil,Zljk->Zijk", Ginv, _bracket(d1))


def levi_civita_christoffels(metric: RiemannianMetricField, x):
    """(G, Gamma) at a point, or at an (N, n) stack of points with a leading
    sample axis on both (one metric jet, one inverse and one contraction
    for the stack; a point is the stack of one): the metric matrix the jet
    holds (the checked stencil centre) and the Christoffel symbols
    Gamma[i, j, k] = Gamma^i_{jk} of the Levi-Civita connection."""
    xs, stacked = diffops.point_stack(x, float)
    G, d1, _ = _riemannian_entry_jets(metric, xs, order=1)
    Gamma = _christoffels_from_jets(np.linalg.inv(G), d1)
    return (G, Gamma) if stacked else (G[0], Gamma[0])


def _christoffel_jets(metric: RiemannianMetricField, xs: np.ndarray):
    """(G, dG, d2G, Gamma, dGamma) at an (N, n) stack of points, with a
    leading sample axis on each: the metric jets, and Gamma and its first
    coordinate derivatives assembled from them."""
    G, d1, d2 = _riemannian_entry_jets(metric, xs, order=2)
    Ginv = np.linalg.inv(G)
    Gamma = _christoffels_from_jets(Ginv, d1)
    dGinv = -np.einsum("Zip,Zapq,Zql->Zail", Ginv, d1, Ginv)
    dGamma = 0.5 * (np.einsum("Zail,Zljk->Zaijk", dGinv, _bracket(d1))
                    + np.einsum("Zil,Zaljk->Zaijk", Ginv, _bracket(d2)))
    return G, d1, d2, Gamma, dGamma


@dataclass(frozen=True)
class RiemannCurvatureTensor:
    """R[i, j, k, l] = R_{ijkl}; a stack as in ``ChernCurvatureTensor``."""

    array: np.ndarray
    metric_value: np.ndarray

    @property
    def dim(self) -> int:
        return self.array.shape[-1]

    def antisymmetry_defect(self) -> float:
        d1 = np.abs(self.array + self.array.swapaxes(-4, -3)).max()
        d2 = np.abs(self.array + self.array.swapaxes(-2, -1)).max()
        return float(max(d1, d2))

    def pair_symmetry_defect(self) -> float:
        return float(np.abs(self.array - np.moveaxis(self.array, (-4, -3), (-2, -1))).max())

    def bianchi_defect(self) -> float:
        s = (self.array + np.moveaxis(self.array, -4, -2)
             + np.moveaxis(self.array, -2, -4))
        return float(np.abs(s).max())

    def contract(self, X, Y, Z, W) -> complex:
        return np.einsum("...ijkl,i,j,k,l->...", self.array,
                         np.asarray(X, complex), np.asarray(Y, complex),
                         np.asarray(Z, complex), np.asarray(W, complex))


def _riemann_from_jets(G, Gamma, dGamma):
    """R_{ijkl} from the metric, Gamma and its first derivatives, each with
    a leading sample axis."""
    # R^l_{ijk} = d_i Gamma^l_{kj} - d_j Gamma^l_{ki}
    #             + Gamma^p_{kj} Gamma^l_{pi} - Gamma^p_{ki} Gamma^l_{pj}
    R_up = (np.einsum("Zilkj->Zlijk", dGamma)
            - np.einsum("Zjlki->Zlijk", dGamma)
            + np.einsum("Zpkj,Zlpi->Zlijk", Gamma, Gamma)
            - np.einsum("Zpki,Zlpj->Zlijk", Gamma, Gamma))
    return np.einsum("Zsl,Zsijk->Zijkl", G, R_up)


def riemann_curvature(metric: RiemannianMetricField, x):
    """Riemann curvature tensor (all indices down) at a point or at an
    (N, n) stack of points (one metric jet and one assembly for the stack;
    a point is the stack of one)."""
    xs, stacked = diffops.point_stack(x, float)
    G, _, _, Gamma, dGamma = _christoffel_jets(metric, xs)
    R = _riemann_from_jets(G, Gamma, dGamma)
    return RiemannCurvatureTensor(*((R, G) if stacked else (R[0], G[0])))


def riemannian_sectional_curvature(metric: RiemannianMetricField, x, X, Y) -> float:
    """K = R(X, Y, Y, X) / (|X|^2 |Y|^2 - <X, Y>^2)."""
    X = np.asarray(X, float)
    Y = np.asarray(Y, float)
    t = riemann_curvature(metric, x)
    G = t.metric_value
    gram = ((X @ G @ X) * (Y @ G @ Y) - (X @ G @ Y) ** 2)
    if gram <= 1e-12:
        raise ValidationError("sectional curvature of linearly dependent vectors")
    return float(np.real(t.contract(X, Y, Y, X))) / float(gram)


def complex_sectional_curvature(metric: RiemannianMetricField, x, Z, W) -> float:
    """R(Z, Wbar, W, Zbar) with the Riemann tensor extended C-multilinearly."""
    Z = np.asarray(Z, complex)
    W = np.asarray(W, complex)
    if np.abs(Z).max() == 0 and np.abs(W).max() == 0:
        raise ValidationError("complex sectional curvature of two zero vectors")
    t = riemann_curvature(metric, x)
    val = t.contract(Z, W.conj(), W, Z.conj())
    if abs(val.imag) > 1e-8 * max(1.0, abs(val.real)):
        raise ValidationError(
            f"complex sectional curvature not real: imag {val.imag:.3e}")
    return float(val.real)


def key3_check(metric: RiemannianMetricField, x) -> float:
    """Residual of the normal-coordinate identity linking metric second
    derivatives, Christoffel derivatives and the curvature tensor:

        d^2 g_{kl}/dx^i dx^j - d Gamma^l_{ij}/dx^k - d Gamma^k_{ij}/dx^l
            = -(R_{ilkj} + R_{iklj})

    Valid at points where g = delta and dg = 0; the preconditions are
    enforced to KEY3_PRECONDITION_TOL, not assumed.
    """
    x = np.asarray(x, float)
    G, d1, d2, Gamma, dGamma = _christoffel_jets(metric, x[None])
    R = _riemann_from_jets(G, Gamma, dGamma)[0]
    G, d1, d2, dGamma = G[0], d1[0], d2[0], dGamma[0]
    n = metric.dim
    if float(np.abs(G - np.eye(n)).max()) > KEY3_PRECONDITION_TOL:
        raise ValidationError(
            f"key3 preconditions: metric is not the identity at {x}")
    if float(np.abs(d1).max()) > KEY3_PRECONDITION_TOL:
        raise ValidationError(
            f"key3 preconditions: first metric derivatives do not vanish at {x}")
    lhs = d2 - dGamma.transpose(2, 3, 0, 1) - dGamma.transpose(2, 3, 1, 0)
    rhs = -(R.transpose(0, 3, 2, 1) + R.transpose(0, 3, 1, 2))
    return float(np.abs(lhs - rhs).max())


# ---------------------------------------------------------------------------
# normal coordinates

def _pullback_rule(metric, p, A, b=None):
    """Rule of ``metric`` in the coordinates old = p + A (new + q(new)),
    q^d = b[d, a, g] new^a new^g / 2, in generic arithmetic: the matrix
    J^T M(old) conj(J) with J = A (I + b new).  The linear stage passes no
    ``b`` (J = A): b = 0 through the quadratic sums would add exact zeros in
    another order and move the Hermitian frame's ``quadratic`` by 5e-20.

    Each shared sub-expression is computed once: the inner factor
    D[d][a] = delta_da + sum_g b[d, a, g] new^g, each entry of J and of
    conj(J), and each product J[r][a] M[r][s].  Every entry still goes
    through the operations of the per-entry formula
    sum_{r, s} J[r][a] M[r][s] conj(J[s][c]) on the same operands, so the
    rule is bit for bit the same on Python numbers, stencil arrays and
    hyper-duals."""
    idx = range(metric.dim)

    def rule(zs):
        if b is None:
            vec, J = zs, A
        else:
            q = [0.5 * sum(b[d, a, g] * zs[a] * zs[g] for a in idx for g in idx)
                 for d in idx]
            vec = [zs[d] + q[d] for d in idx]
            D = [[(1.0 if d == a else 0.0) + sum(b[d, a, g] * zs[g] for g in idx)
                  for a in idx] for d in idx]
            J = [[sum(A[r, d] * D[d][a] for d in idx) for a in idx] for r in idx]
        old = []                # p + A vec, summed left to right
        for r in idx:
            acc = p[r]
            for c in idx:
                acc = acc + A[r, c] * vec[c]
            old.append(acc)
        M = metric.matrix_generic(old)
        Jbar = [[gm.conj(J[s][c]) for c in idx] for s in idx]
        out = []
        for a in idx:
            JM = [[J[r][a] * M[r][s] for s in idx] for r in idx]
            out.append([sum(JM[r][s] * Jbar[s][c] for r in idx for s in idx)
                        for c in idx])
        return out

    return rule


@dataclass(frozen=True)
class NormalFrame:
    """Coordinate change old = center + linear (new + q(new)) with
    q^d = quadratic[d, a, g] new^a new^g / 2, making a metric normal at
    the center; ``metric`` is the metric in the new coordinates.

    Hermitian frames are holomorphic: the new metric is the identity at 0
    and d_g h_{a bbar} = -d_a h_{g bbar} there.  Riemannian frames give
    g = delta and dg = 0 at 0; their ``quadratic`` is -Gamma, the
    Christoffel symbols at 0 of the metric after the linear change alone.
    """

    center: np.ndarray
    linear: np.ndarray
    quadratic: np.ndarray       # symmetric in its last two indices
    metric: HermitianMetricField | RiemannianMetricField

    def to_old_point(self, new):
        new = np.asarray(new, self.center.dtype)
        q = 0.5 * np.einsum("dag,a,g->d", self.quadratic, new, new)
        return self.center + self.linear @ (new + q)

    def to_new_vector(self, v):
        return np.linalg.solve(self.linear, np.asarray(v, self.center.dtype))


def _linear_stage(metric, p):
    """A = conj(M(p)^{-1/2}), which makes the metric the identity, and the
    exact first jet at 0 of the metric in the coordinates p + A new.

    M(p) is evaluated on NumPy scalars, not on the Python numbers of
    ``matrix``: the S5 probe's fd Hessian in the normal chart amplifies one
    ulp of M(p) about 1e7-fold (fs2-to-ball's term1 moved by 8.6e-10 with
    Python numbers here).  This exception goes once that Hessian is taken
    on the dual backend."""
    n = metric.dim
    M = np.asarray(metric.matrix_generic(tuple(p)), complex)
    lam, U = np.linalg.eigh(M if isinstance(metric, HermitianMetricField) else M.real)
    A = (U @ np.diag(lam ** -0.5) @ U.conj().T).conj()
    stage = type(metric)(type(metric.chart)(dim=n), _pullback_rule(metric, p, A),
                         validate_on_init=False)
    return A, diffops.matrix_jet(stage, np.zeros(n), backend="dual", order=1)[1]


def _normal_frame(metric, p, A, b):
    """The frame with linear part A and quadratic part b at p, its metric
    checked to be the identity at 0, and that metric's exact first jet
    at 0; the check reads the metric at 0 from the jet's value slot.  The
    new chart's radius is 0.45 times the old chart's margin at p over the
    norm of A, at most the old chart's scale and at least 1e-3."""
    n = metric.dim
    opnorm = float(np.linalg.norm(A, 2))
    margin = metric.chart.margin(p)
    radius = max(min(0.45 * margin / max(opnorm, 1e-12), metric.chart.scale), 1e-3)
    chart = type(metric.chart)(dim=n, radius=np.full(n, radius), name="normal")
    new_metric = type(metric)(chart, _pullback_rule(metric, p, A, b),
                              name=f"{metric.name or 'metric'}@normal",
                              validate_on_init=False)
    M0, jet, _ = diffops.matrix_jet(new_metric, np.zeros(n), backend="dual", order=1)
    identity_defect = np.abs(M0 - np.eye(n)).max()
    if not float(identity_defect) <= NORMAL_POST_TOL:   # a NaN defect fails too
        raise ValidationError("normal coordinates: metric not identity at center")
    return NormalFrame(center=p, linear=A, quadratic=b, metric=new_metric), jet


def hermitian_normal_coordinates(metric: HermitianMetricField, p) -> NormalFrame:
    """Linear plus quadratic holomorphic change of chart normalizing ``metric`` at p.

    The construction consumes exact first derivatives from the dual backend;
    its post-condition tolerance NORMAL_POST_TOL is far below what stencils
    deliver.
    """
    p = np.asarray(p, complex)
    A, c = _linear_stage(metric, p)
    # b[d, a, g] = -(c[g, a, d] + c[a, g, d]) / 2
    b = -0.5 * (c.transpose(2, 1, 0) + c.transpose(2, 0, 1))
    frame, d_new = _normal_frame(metric, p, A, b)
    defect = float(np.abs(d_new + d_new.transpose(1, 0, 2)).max())
    if not defect <= NORMAL_POST_TOL:
        raise ValidationError(
            f"normal coordinates: antisymmetry defect {defect:.3e} "
            f"> {NORMAL_POST_TOL:.1e}")
    return frame


def riemannian_normal_coordinates(metric: RiemannianMetricField, x0) -> NormalFrame:
    """Coordinate change making g = delta and dg = 0 at the image of ``x0``."""
    x0 = np.asarray(x0, float)
    A, d1 = _linear_stage(metric, x0)
    # the linear stage makes the metric delta at 0, so Gamma = bracket / 2
    frame, d_new = _normal_frame(metric, x0, A, -0.5 * _bracket(np.real(d1)))
    if not float(np.abs(np.real(d_new)).max()) <= NORMAL_POST_TOL:
        raise ValidationError("normal coordinates: first derivatives do not vanish")
    return frame
