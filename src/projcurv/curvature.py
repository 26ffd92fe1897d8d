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
from .charts import ComplexChart, RealChart
from .errors import ValidationError
from .fields import HermitianMetricField, RiemannianMetricField

KEY3_PRECONDITION_TOL = 1e-8
NORMAL_POST_TOL = 1e-10


# ---------------------------------------------------------------------------
# metric entry jets

def _riemannian_entry_jets(metric: RiemannianMetricField, x, order=2):
    """Value, first and (optionally) second coordinate derivatives of g_{ij};
    the value is the one ``check_at`` validated.

    Entries below the diagonal are copied from those above it, so the
    derivative arrays are exactly symmetric in (i, j) whatever the rounding
    of the rule's two expressions for g_{ij} and g_{ji}.
    """
    x = np.asarray(x, float)
    G = metric.check_at(x)
    d1, d2 = diffops.matrix_jet(metric, x, backend="fd", order=order)
    idx = np.arange(metric.dim)
    upper = idx[:, None] <= idx

    def mirrored(d):
        return np.where(upper, d.real, np.swapaxes(d.real, -1, -2))

    return G, mirrored(d1), None if d2 is None else mirrored(d2)


# ---------------------------------------------------------------------------
# Chern side

@dataclass(frozen=True)
class ChernCurvatureTensor:
    """R[k, l, i, j] = R_{k lbar i jbar}; derivative pair first, metric pair second."""

    array: np.ndarray
    metric_value: np.ndarray

    @property
    def dim(self) -> int:
        return self.array.shape[0]

    def hermitian_defect(self) -> float:
        # R_{k lbar i jbar} = conj(R_{l kbar j ibar})
        return float(np.max(np.abs(
            self.array - self.array.conj().transpose(1, 0, 3, 2))))

    def kahler_defect(self) -> float:
        # symmetry under swapping the two holomorphic indices (k <-> i)
        return float(np.max(np.abs(self.array - self.array.transpose(2, 1, 0, 3))))

    def contract(self, u1, u2, v1, v2) -> complex:
        return np.einsum("klij,k,l,i,j->", self.array,
                         np.asarray(u1, complex), np.conj(u2),
                         np.asarray(v1, complex), np.conj(v2))


def chern_curvature(metric: HermitianMetricField, z) -> ChernCurvatureTensor:
    """Chern curvature tensor of a Hermitian metric at a point."""
    z = np.asarray(z, complex)
    H = metric.check_at(z)
    # dz[g, a, b] = d h_{a bbar}/dz^g, mixed[k, l, a, b] = d^2 h_{a bbar}/dz^k dzbar^l
    dz, mixed = diffops.matrix_jet(metric, z, backend="fd")
    Hinv = np.linalg.inv(H)
    # g^{p qbar} = Hinv[q, p]
    second = np.einsum("qp,kiq,ljp->klij", Hinv, dz, dz.conj())
    R = -mixed + second
    tensor = ChernCurvatureTensor(array=R, metric_value=H)
    scale = max(1.0, float(np.max(np.abs(R))))
    if tensor.hermitian_defect() > 1e-6 * scale:
        raise ValidationError(
            f"Chern curvature Hermitian-symmetry defect "
            f"{tensor.hermitian_defect():.3e} at {z}")
    return tensor


def _hermitian_norm_sq(H: np.ndarray, v: np.ndarray) -> float:
    return float(np.real(np.einsum("ab,a,b->", H, v, v.conj())))


def holomorphic_sectional_curvature(metric: HermitianMetricField, z, v) -> float:
    """HSC(v) = R(v, vbar, v, vbar) / |v|_h^4; invariant under v -> lambda v."""
    v = np.asarray(v, complex)
    if np.max(np.abs(v)) == 0:
        raise ValidationError("holomorphic sectional curvature of the zero vector")
    t = chern_curvature(metric, z)
    norm4 = _hermitian_norm_sq(t.metric_value, v) ** 2
    return float(np.real(t.contract(v, v, v, v))) / norm4


def holomorphic_bisectional_curvature(metric: HermitianMetricField, z, u, v) -> float:
    """R(u, ubar, v, vbar) / (|u|_h^2 |v|_h^2)."""
    u = np.asarray(u, complex)
    v = np.asarray(v, complex)
    if np.max(np.abs(u)) == 0 or np.max(np.abs(v)) == 0:
        raise ValidationError("bisectional curvature of a zero vector")
    t = chern_curvature(metric, z)
    den = _hermitian_norm_sq(t.metric_value, u) * _hermitian_norm_sq(t.metric_value, v)
    return float(np.real(t.contract(u, u, v, v))) / den


# ---------------------------------------------------------------------------
# Riemannian side

def _bracket(d):
    """b[..., l, j, k] = d[..., j, l, k] + d[..., k, l, j] - d[..., l, j, k]
    on the last three axes, where d[..., a, i, j] = d_a g_{ij}: the bracket
    d_j g_{lk} + d_k g_{lj} - d_l g_{jk} of the Christoffel symbols."""
    return np.swapaxes(d, -3, -2) + np.moveaxis(d, -3, -1) - d


def _christoffels_from_jets(Ginv, d1):
    # Gamma^i_{jk} = 1/2 g^{il} (d_j g_{lk} + d_k g_{lj} - d_l g_{jk})
    return 0.5 * np.einsum("il,ljk->ijk", Ginv, _bracket(d1))


def levi_civita_christoffels(metric: RiemannianMetricField, x,
                             check_compatibility: bool = False) -> np.ndarray:
    """Christoffel symbols Gamma[i, j, k] = Gamma^i_{jk} of the Levi-Civita connection."""
    x = np.asarray(x, float)
    G, d1, _ = _riemannian_entry_jets(metric, x, order=1)
    Ginv = np.linalg.inv(G)
    Gamma = _christoffels_from_jets(Ginv, d1)
    if check_compatibility:
        # nabla_k g_{ij} = d_k g_{ij} - Gamma^s_{ki} g_{sj} - Gamma^s_{kj} g_{is}
        nabla = (d1 - np.einsum("ski,sj->kij", Gamma, G)
                 - np.einsum("skj,is->kij", Gamma, G))
        defect = float(np.max(np.abs(nabla)))
        if defect > 1e-6 * max(1.0, float(np.max(np.abs(d1)))):
            raise ValidationError(f"metric compatibility defect {defect:.3e} at {x}")
    return Gamma


def _christoffel_jets(metric: RiemannianMetricField, x):
    """Gamma and its first coordinate derivatives, assembled from metric jets."""
    G, d1, d2 = _riemannian_entry_jets(metric, x, order=2)
    Ginv = np.linalg.inv(G)
    Gamma = _christoffels_from_jets(Ginv, d1)
    dGinv = -np.einsum("ip,apq,ql->ail", Ginv, d1, Ginv)
    dGamma = 0.5 * (np.einsum("ail,ljk->aijk", dGinv, _bracket(d1))
                    + np.einsum("il,aljk->aijk", Ginv, _bracket(d2)))
    return G, Ginv, d1, d2, Gamma, dGamma


@dataclass(frozen=True)
class RiemannCurvatureTensor:
    """R[i, j, k, l] = R_{ijkl}; also carries the Christoffel symbols."""

    array: np.ndarray
    christoffels: np.ndarray
    metric_value: np.ndarray

    @property
    def dim(self) -> int:
        return self.array.shape[0]

    def antisymmetry_defect(self) -> float:
        d1 = np.max(np.abs(self.array + self.array.transpose(1, 0, 2, 3)))
        d2 = np.max(np.abs(self.array + self.array.transpose(0, 1, 3, 2)))
        return float(max(d1, d2))

    def pair_symmetry_defect(self) -> float:
        return float(np.max(np.abs(self.array - self.array.transpose(2, 3, 0, 1))))

    def bianchi_defect(self) -> float:
        s = (self.array + self.array.transpose(1, 2, 0, 3)
             + self.array.transpose(2, 0, 1, 3))
        return float(np.max(np.abs(s)))

    def contract(self, X, Y, Z, W) -> complex:
        return np.einsum("ijkl,i,j,k,l->", self.array,
                         np.asarray(X, complex), np.asarray(Y, complex),
                         np.asarray(Z, complex), np.asarray(W, complex))


def riemann_curvature(metric: RiemannianMetricField, x) -> RiemannCurvatureTensor:
    """Riemann curvature tensor (all indices down) at a point."""
    G, Ginv, d1, d2, Gamma, dGamma = _christoffel_jets(metric, x)
    # R^l_{ijk} = d_i Gamma^l_{kj} - d_j Gamma^l_{ki}
    #             + Gamma^p_{kj} Gamma^l_{pi} - Gamma^p_{ki} Gamma^l_{pj}
    R_up = (np.einsum("ilkj->lijk", dGamma)
            - np.einsum("jlki->lijk", dGamma)
            + np.einsum("pkj,lpi->lijk", Gamma, Gamma)
            - np.einsum("pki,lpj->lijk", Gamma, Gamma))
    R_dn = np.einsum("sl,sijk->ijkl", G, R_up)
    return RiemannCurvatureTensor(array=R_dn, christoffels=Gamma, metric_value=G)


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
    if np.max(np.abs(Z)) == 0 and np.max(np.abs(W)) == 0:
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
    G, Ginv, d1, d2, Gamma, dGamma = _christoffel_jets(metric, x)
    n = metric.dim
    if float(np.max(np.abs(G - np.eye(n)))) > KEY3_PRECONDITION_TOL:
        raise ValidationError(
            f"key3 preconditions: metric is not the identity at {x}")
    if float(np.max(np.abs(d1))) > KEY3_PRECONDITION_TOL:
        raise ValidationError(
            f"key3 preconditions: first metric derivatives do not vanish at {x}")
    R = riemann_curvature(metric, x).array
    lhs = np.empty((n, n, n, n))
    rhs = np.empty((n, n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    lhs[i, j, k, l] = (d2[i, j, k, l] - dGamma[k, l, i, j]
                                       - dGamma[l, k, i, j])
                    rhs[i, j, k, l] = -(R[i, l, k, j] + R[i, k, l, j])
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# normal coordinates

def _generic_affine(p, A, zs, q=None):
    """p + A @ (zs + q(zs)) with generic scalars (lists, no dtype coercion)."""
    n = len(zs)
    vec = list(zs) if q is None else [zs[i] + q[i] for i in range(n)]
    out = []
    for r in range(A.shape[0]):
        acc = p[r]
        for c in range(n):
            acc = acc + A[r, c] * vec[c]
        out.append(acc)
    return out


@dataclass(frozen=True)
class HermitianNormalFrame:
    """Holomorphic coordinate change making a Hermitian metric normal at a point.

    In the new coordinates the metric is the identity at 0 and its first
    holomorphic derivatives satisfy d_g h_{a bbar} = -d_a h_{g bbar} there.
    """

    center: np.ndarray
    linear: np.ndarray          # A; old = center + A (new + quadratic)
    quadratic: np.ndarray       # b[d, a, g], symmetric in (a, g)
    metric: HermitianMetricField

    def to_old_point(self, zeta):
        zeta = np.asarray(zeta, complex)
        q = 0.5 * np.einsum("dag,a,g->d", self.quadratic, zeta, zeta)
        return self.center + self.linear @ (zeta + q)

    def to_new_vector(self, v):
        return np.linalg.solve(self.linear, np.asarray(v, complex))


def hermitian_normal_coordinates(metric: HermitianMetricField,
                                 p) -> HermitianNormalFrame:
    """Linear plus quadratic holomorphic change of chart normalizing ``metric`` at p.

    The construction consumes exact first derivatives from the dual backend;
    its post-condition tolerance NORMAL_POST_TOL is far below what stencils
    deliver.
    """
    p = np.asarray(p, complex)
    m = metric.dim
    H0 = metric.matrix(p)
    lam, U = np.linalg.eigh(H0)
    B = U @ np.diag(lam ** -0.5) @ U.conj().T   # Hermitian, B^dagger H0 B = I
    A = B.conj()

    def stage1_rule(zs, _A=A, _p=p):
        zold = _generic_affine(_p, _A, zs)
        Hm = metric.matrix_generic(zold)
        return [[sum(_A[r, a] * Hm[r][s] * _A[s, b].conjugate()
                     for r in range(m) for s in range(m))
                 for b in range(m)] for a in range(m)]

    # exact first derivatives of the stage-1 metric at 0
    stage1 = HermitianMetricField(ComplexChart(dim=m, radius=np.full(m, 1.0)),
                                  stage1_rule, validate_on_init=False)
    c, _ = diffops.matrix_jet(stage1, np.zeros(m), backend="dual", order=1)

    b_arr = np.empty((m, m, m), complex)
    for d in range(m):
        for a in range(m):
            for g in range(m):
                b_arr[d, a, g] = -0.5 * (c[g, a, d] + c[a, g, d])

    opnorm = float(np.linalg.norm(A, 2))
    margin = metric.chart.margin(p)
    radius = max(min(0.45 * margin / max(opnorm, 1e-12), metric.chart.scale), 1e-3)
    new_chart = ComplexChart(dim=m, radius=np.full(m, radius), name="normal")

    def rule(zs, _A=A, _b=b_arr, _p=p):
        q = [0.5 * sum(_b[d, a, g] * zs[a] * zs[g]
                       for a in range(m) for g in range(m)) for d in range(m)]
        zold = _generic_affine(_p, _A, zs, q)
        Hm = metric.matrix_generic(zold)
        # J[r, a] = A @ (I + Dq), Dq[d, a] = b[d, a, g] zs[g]
        J = [[sum(_A[r, d] * ((1.0 if d == a else 0.0)
                              + sum(_b[d, a, g] * zs[g] for g in range(m)))
                  for d in range(m)) for a in range(m)] for r in range(m)]
        return [[sum(J[r][a] * Hm[r][s] * (J[s][b]).conjugate()
                     for r in range(m) for s in range(m))
                 for b in range(m)] for a in range(m)]

    new_metric = HermitianMetricField(new_chart, rule,
                                      name=f"{metric.name or 'metric'}@normal",
                                      validate_on_init=False)
    frame = HermitianNormalFrame(center=p, linear=A, quadratic=b_arr,
                                 metric=new_metric)

    # post-conditions, checked with exact derivatives
    H_new = new_metric.matrix(np.zeros(m))
    if float(np.max(np.abs(H_new - np.eye(m)))) > NORMAL_POST_TOL:
        raise ValidationError("normal coordinates: metric not identity at center")
    d_new, _ = diffops.matrix_jet(new_metric, np.zeros(m), backend="dual", order=1)
    defect = float(np.max(np.abs(d_new + d_new.transpose(1, 0, 2))))
    if defect > NORMAL_POST_TOL:
        raise ValidationError(
            f"normal coordinates: antisymmetry defect {defect:.3e} "
            f"> {NORMAL_POST_TOL:.1e}")
    return frame


@dataclass(frozen=True)
class RiemannianNormalFrame:
    center: np.ndarray
    linear: np.ndarray
    quadratic: np.ndarray       # Gamma^i_{jk} of the stage-1 metric at 0
    metric: RiemannianMetricField

    def to_old_point(self, xi):
        xi = np.asarray(xi, float)
        q = -0.5 * np.einsum("ijk,j,k->i", self.quadratic, xi, xi)
        return self.center + self.linear @ (xi + q)

    def to_new_vector(self, v):
        return np.linalg.solve(self.linear, np.asarray(v, float))


def riemannian_normal_coordinates(metric: RiemannianMetricField,
                                  x0) -> RiemannianNormalFrame:
    """Coordinate change making g = delta and dg = 0 at the image of ``x0``."""
    x0 = np.asarray(x0, float)
    n = metric.dim
    G0 = metric.matrix(x0)
    lam, U = np.linalg.eigh(G0)
    A = U @ np.diag(lam ** -0.5) @ U.T

    def stage1_rule(xs, _A=A, _x0=x0):
        xold = _generic_affine(_x0, _A, xs)
        Gm = metric.matrix_generic(xold)
        return [[sum(_A[r, i] * Gm[r][s] * _A[s, j]
                     for r in range(n) for s in range(n))
                 for j in range(n)] for i in range(n)]

    stage1 = RiemannianMetricField(RealChart(dim=n, radius=np.ones(n)), stage1_rule,
                                   validate_on_init=False)
    d1 = np.real(diffops.matrix_jet(stage1, np.zeros(n), backend="dual", order=1)[0])
    Gamma = 0.5 * _bracket(d1)  # stage-1 metric is delta at 0

    opnorm = float(np.linalg.norm(A, 2))
    margin = metric.chart.margin(x0)
    radius = max(min(0.45 * margin / max(opnorm, 1e-12), metric.chart.scale), 1e-3)
    new_chart = RealChart(dim=n, radius=np.full(n, radius), name="normal")

    def rule(xs, _A=A, _G=Gamma, _x0=x0):
        q = [-0.5 * sum(_G[i, j, k] * xs[j] * xs[k]
                        for j in range(n) for k in range(n)) for i in range(n)]
        xold = _generic_affine(_x0, _A, xs, q)
        Gm = metric.matrix_generic(xold)
        J = [[sum(_A[r, d] * ((1.0 if d == i else 0.0)
                              - sum(_G[d, i, k] * xs[k] for k in range(n)))
                  for d in range(n)) for i in range(n)] for r in range(n)]
        return [[sum(J[r][i] * Gm[r][s] * J[s][j]
                     for r in range(n) for s in range(n))
                 for j in range(n)] for i in range(n)]

    new_metric = RiemannianMetricField(new_chart, rule,
                                       name=f"{metric.name or 'metric'}@normal",
                                       validate_on_init=False)
    frame = RiemannianNormalFrame(center=x0, linear=A, quadratic=Gamma,
                                  metric=new_metric)
    G_new = new_metric.matrix(np.zeros(n))
    if float(np.max(np.abs(G_new - np.eye(n)))) > NORMAL_POST_TOL:
        raise ValidationError("normal coordinates: metric not identity at center")
    g, _ = diffops.matrix_jet(new_metric, np.zeros(n), backend="dual", order=1)
    if float(np.max(np.abs(np.real(g)))) > NORMAL_POST_TOL:
        raise ValidationError("normal coordinates: first derivatives do not vanish")
    return frame


# ---------------------------------------------------------------------------
# RC-positivity sampling for Riemannian curvature

def unit_sphere_grid(dim: int, count: int, seed: int = 0) -> np.ndarray:
    """Deterministic covering sample of the unit sphere in R^dim."""
    if count < 1:
        raise ValidationError("empty direction grid")
    if dim == 1:
        return np.array([[1.0], [-1.0]])[:count]
    if dim == 2:
        th = np.linspace(0.0, np.pi, count, endpoint=False)
        return np.stack([np.cos(th), np.sin(th)], axis=1)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def rc_positive_riemannian(metric: RiemannianMetricField, points,
                           z_grid, w_grid=None, tol: float = 1e-10):
    """Sampled RC-positivity verdicts for a Riemannian curvature tensor.

    For each point and each direction Z in the grid, reports
    sup_W R(Z, W, W, Z) over the W grid, the per-point verdict
    (positive iff every Z has a positive sup), and the uniform variant
    (one W whose min over Z of R(Z, W, W, Z) is positive).
    """
    Zg = np.asarray(z_grid, float)
    Wg = Zg if w_grid is None else np.asarray(w_grid, float)
    if Zg.size == 0 or Wg.size == 0:
        raise ValidationError("empty direction grid")
    reports = []
    for x in points:
        R = riemann_curvature(metric, x).array
        vals = np.einsum("ijkl,zi,wj,wk,zl->zw", R, Zg, Wg, Wg, Zg)
        sup_per_z = vals.max(axis=1)
        min_per_w = vals.min(axis=0)
        uniform_value = float(min_per_w.max())
        reports.append({
            "point": np.asarray(x, float),
            "sup_per_z": sup_per_z,
            "rc_positive": bool(sup_per_z.min() > tol),
            "worst_z_index": int(sup_per_z.argmin()),
            "uniform_value": uniform_value,
            "uniformly_rc_positive": bool(uniform_value > tol),
        })
    return reports
