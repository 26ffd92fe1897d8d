r"""Charted maps and the energy densities attached to them.

A ChartedMap carries a source complex chart, a target chart (complex or
real) and a component rule; all of its derivatives come from the
differentiation engine, none are stored.  The densities, and the fields the
suites differentiate them as:

    u       g_{ij} h^{a bbar} f^i_a conj(f^j_b)                   u_field
    Y       g_{ij} f^i_a conj(f^j_b) W^a Wbar^b / H  on P(T_M)     Y_field
    Y1      h^{a bbar} f^i_a conj(f^j_b) X_i Xbar_j / H1           Y1_field
            on P(f*T*_N)
    Y2      f^i_a conj(f^j_b) X_i Xbar_j W^a Wbar^b / (H1 H)       Y2_field
            on the nested bundle
    Y_phi   e^phi Y                                               Y_field(weight=phi)

with H = h_{g dbar} W^g Wbar^d and H1 = g^{k lbar} X_k Xbar_l.  Everything is
projectively invariant in the fiber coordinates, which the tests enforce.
u and Y also have pointwise forms (``classical_energy_density``,
``generalized_Y``, ``Y_on_fiber``) for the fiber integrals and the S5 probe.
They read df, f(z), g(f(z)) and h(z) through one helper (``_base_values``),
so ``bundle.pushforward_energy_check`` evaluates them once for Y, for the
fiber integral's metric and for u.

f(z) is read from the dual pass.  ``ChartedMap.jacobians`` returns the
value slot of its first hyper-dual pass beside df, and so does
``diffops.jacobian_pair_generic`` inside the density rules; no caller
evaluates f again next to df.  At a point and on a stencil the value slot
is the plain call's arithmetic on the same operands, so it is the plain
value bit for bit, unless the rule divides by a quantity that depends on
the coordinates (a hyper-dual quotient multiplies by the reciprocal).

``Y_on_fiber`` evaluates Y over an (N, m) stack of base points, as the S5
probe's lattice needs.  Stacked: df and f(z), from the m dual passes of one
point with length-N arrays in the slots, h(z) and g(f(z)), from the
metrics' ``matrices`` (one plain rule call per chunk of points, on NumPy
arrays), and the two matrix products of the density.  Array arithmetic
may round differently from scalar arithmetic, and the products group
their sums by the shapes, so a value of the density may differ from the
point alone by a few ulps (tests/conftest.py's ULP_BUDGET).

Residual operators for the harmonic-map side:

    pluriharmonic:      f^i_{a bbar} + Gamma^i_{jk} f^j_a f^k_{bbar}
    Hermitian harmonic: its trace against h^{a bbar}
    constraint:         R_{ikjl} f^i_a f^j_{bbar} f^k_g
    hatC:               R_{iklj} E^{ij} E^{kl},  E^{ij} = h^{a bbar} f^i_a f^j_{bbar}
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from . import diffops, dual as gm
from .bundle import BundlePoint, TautologicalMetric, reconstruct_W
from .charts import ComplexChart, fiber_chart
from .curvature import levi_civita_christoffels, riemann_curvature
from .errors import ValidationError
from .fields import HermitianMetricField, RiemannianMetricField, ScalarField, plain_values

HOLO_FLAG_TOL = 1e-8
PLURI_TOL = 1e-6        # max |pluri-harmonic residual| of a pluri-harmonic map


@dataclass(frozen=True)
class ChartedMap:
    """Map between charts with engine-backed Wirtinger derivatives."""

    source: ComplexChart
    target: object                  # ComplexChart or RealChart
    rule: object
    holomorphic: bool = False
    name: str = ""
    validate_on_init: bool = True

    def __post_init__(self):
        # a map flagged holomorphic needs df/dzbar = 0, and a map into a real
        # chart must be real-valued, Im f = 0 and df/dzbar = conj(df/dz): the
        # assembly pairs conj(df) with the target curvature for both target
        # types, and ``value`` would drop an imaginary part silently.  A
        # value or derivative that is not finite is named as such first: a
        # NaN defect would otherwise read as a gap in one of these
        real = not self.target_is_complex
        if not (self.validate_on_init and (self.holomorphic or real)):
            return
        rng = np.random.default_rng(20250809)
        for z in [self.source.center] + [self.source.sample(rng) for _ in range(4)]:
            holo, anti, fz = self.jacobians(z)
            for part, what in ((fz, "f(z)"), (holo, "df/dz"), (anti, "df/dzbar")):
                if not np.isfinite(part).all():
                    raise ValidationError(f"map {self.name!r} is not finite at {z}: "
                                          f"{what} = {part.tolist()}")
            gaps = [(anti, "flagged holomorphic but max |df/dzbar|")] \
                if self.holomorphic else []
            if real:
                gaps += [
                    (plain_values(self.rule, z[None], (self.n,))[0].imag,
                     "into a real chart is not real-valued: max |Im f(z)|"),
                    (anti - holo.conj(), "into a real chart is not "
                     "real-valued: max |df/dzbar - conj(df/dz)|")]
            for gap, what in gaps:
                defect = float(np.abs(gap).max())
                if not defect <= HOLO_FLAG_TOL:     # a NaN defect fails too
                    raise ValidationError(
                        f"map {self.name!r} {what} = {defect:.3e} at {z}")

    @property
    def m(self) -> int:
        return self.source.dim

    @property
    def n(self) -> int:
        return self.target.dim

    @property
    def target_is_complex(self) -> bool:
        return isinstance(self.target, ComplexChart)

    def value(self, z) -> np.ndarray:
        """f(z) from one plain rule call on Python numbers
        (``fields.plain_values``): the reference the value slot that
        ``jacobians`` returns is tested against."""
        out = plain_values(self.rule, np.asarray(z, complex)[None], (self.n,))[0]
        return out if self.target_is_complex else out.real

    def jacobians(self, z):
        """(holo, anti, f(z)): holo[i, a] = df^i/dz^a, anti[i, a] =
        df^i/dzbar^a, and the value f(z) as ``value`` gives it, read from
        the first dual pass (``diffops.jacobian_pair``) rather than from a
        call of its own.

        An (N, m) stack of points gives (N, n, m) arrays and an (N, n)
        value from the m dual passes of one point, with length-N arrays in
        the slots; every row's chart margin is checked first."""
        self.source.require_margin(z, 2 * diffops.step_for(self.source))
        holo, anti, fz = diffops.jacobian_pair(self.rule, z, self.m, self.n)
        return holo, anti, fz if self.target_is_complex else fz.real

    def second_mixed(self, z) -> np.ndarray:
        """f^i_{a bbar} = d^2 f^i / dz^a dzbar^b, shape (n, m, m)."""
        return diffops.map_jet2(self.rule, self.source, z, self.n)[0]

    def second_holo(self, z) -> np.ndarray:
        """f^i_{ab} = d^2 f^i / dz^a dz^b, shape (n, m, m)."""
        return diffops.map_jet2(self.rule, self.source, z, self.n)[1]


# ---------------------------------------------------------------------------
# densities, numeric entry points

def classical_energy_density(f: ChartedMap, h: HermitianMetricField, g, z) -> float:
    """u = g_{ij} h^{a bbar} f^i_a conj(f^j_b); zero exactly when df vanishes."""
    return _energy_density(_base_values(f, h, g, z))


def Y_on_fiber(f: ChartedMap, h: HermitianMetricField, g, z):
    """The density Y on the fiber P(T_zM) over one base point z, or over
    each row of an (N, m) stack of base points.

    The returned function maps a (K, m) stack of affine fiber
    representatives W to the (N, K) values g(df W, df W) / h(W, W), or to K
    values for a single base point.
    """
    return _fiber_density(_base_values(f, h, g, z), np.ndim(z) == 2)


def _base_values(f: ChartedMap, h: HermitianMetricField, g, z):
    """(df, g(f(z)), h(z)) at a base point z, or at each row of an (N, m)
    stack, as (N, n, m), (N, n, n) and (N, m, m) arrays: everything both
    densities read, so ``pushforward_energy_check`` evaluates it once.

    df and f(z) at all N points come from one set of m dual passes of the
    map rule (``ChartedMap.jacobians`` on the stack), f(z) from the first
    pass's value slot.  g(f(z)) and h(z) come from ``matrices``: one plain
    rule call per chunk of points, on NumPy arrays (``plain_values``).  A
    base point where df, f, g or h is not finite (a pole of a rule there,
    say) gets NaN g entries, so its densities are NaN, also where the
    contraction would drop the bad entry (g constant, say).
    """
    zs, _ = diffops.point_stack(z)
    N = len(zs)
    holo, _, fz = f.jacobians(z)
    holo, fz = holo.reshape(N, f.n, f.m), fz.reshape(N, f.n)
    G = g.matrices(fz)
    Hm = h.matrices(zs)
    parts = (holo, fz, G, Hm)
    finite = [np.isfinite(x) for x in parts]
    # no concatenated copy; count_nonzero costs less than all() on small parts
    if not all(np.count_nonzero(ok) == ok.size for ok in finite):
        # NaN entries of g reach every value at their point
        G[~np.logical_and.reduce([ok.reshape(N, -1).all(axis=1) for ok in finite])] = np.nan
    return holo, G, Hm


def _fiber_density(base, stacked: bool):
    """Y over the base points of ``base`` (``_base_values``), as a function
    of a (K, m) stack of affine fiber representatives: (N, K) values, or K
    for a single base point when ``stacked`` is false.

    F = df W for every base point and row is one 2-D product, and so is
    h(z) conj(W), whose pairing with W gives H.  A row's value may differ
    by an ulp with the number of rows and base points around it (the
    products group their sums by the shapes)."""
    holo, G, Hm = base
    N, n, m = holo.shape
    holo2, Hm2 = holo.reshape(N * n, m), Hm.reshape(N * m, m)

    def density(Ws: np.ndarray) -> np.ndarray:
        K = len(Ws)
        F = (holo2 @ Ws.T).reshape(N, n, K)
        num = np.einsum("bij,bik,bjk->bk", G, F, F.conj())
        H = (Ws.T * (Hm2 @ Ws.conj().T).reshape(N, m, K)).sum(axis=1)
        vals = num.real / H.real
        return vals if stacked else vals[0]

    return density


def _energy_density(base) -> float:
    """u at the first base point of ``base`` (``_base_values``)."""
    holo, G, Hm = (x[0] for x in base)
    hup = np.linalg.inv(Hm).conj()
    return float((G * (holo @ hup @ holo.conj().T)).sum().real)


def generalized_Y(f: ChartedMap, h: HermitianMetricField, g, P: BundlePoint) -> float:
    """Fiberwise Rayleigh quotient g(df W, df W) / H at a bundle point."""
    return float(Y_on_fiber(f, h, g, P.z)(P.W_affine[None])[0])


@dataclass(frozen=True)
class NestedBundlePoint:
    """Point of the nested bundle over P(T_M) and P(f*T*_N): the bundle point
    P = (z, [W]) and the covector point Q = (z, [X]) over one z, each in
    the affine chart of its largest coordinate."""

    P: BundlePoint
    Q: BundlePoint

    @staticmethod
    def make(z, W, X) -> "NestedBundlePoint":
        return NestedBundlePoint(P=BundlePoint.make(z, W), Q=BundlePoint.make(z, X))

    def combined(self) -> np.ndarray:
        return np.concatenate([self.P.combined(), self.Q.w])


# ---------------------------------------------------------------------------
# density fields on combined charts (for black-box Hessians)

def Y_field(f: ChartedMap, h: HermitianMetricField, g, chart_index: int,
            weight=None) -> ScalarField:
    """The generalized density as a joint field on the (z, w) chart: Y, or
    Y_phi = e^phi Y with a ``weight`` phi, and the log of the tautological
    metric H e^{-phi} it divides by, both from the one pairing H."""
    m, n = f.m, f.n
    tm = TautologicalMetric(h)

    def rule(zs):
        z = zs[:m]
        W = reconstruct_W(zs[m:], chart_index, m)
        holo, _, fz = diffops.jacobian_pair_generic(f.rule, z, m, n)
        G = g.matrix_generic(fz)
        F = [_sum_terms(holo[i][a] * W[a] for a in range(m)) for i in range(n)]
        num = gm.pairing(G, F, F)
        H = gm.pairing(h.matrix_generic(z), W, W)
        Y = gm.real(num) / gm.real(H)
        if weight is None:
            return Y, gm.log(H)
        phi = weight(z, tuple(W))
        return gm.exp(gm.real(phi)) * Y, gm.log(H) - phi

    return ScalarField.joint(tm.combined_chart(), rule,
                             "generalized_density" if weight is None
                             else "weighted_generalized_density")


def Y1_field(f: ChartedMap, h: HermitianMetricField, g: HermitianMetricField,
             x_chart_index: int) -> ScalarField:
    """Y1 as a joint field on the (z, x) chart of P(f*T*_N), with the log of
    the covector metric H1 it divides by."""
    m, n = f.m, f.n

    def rule(zs):
        z = zs[:m]
        X = reconstruct_W(zs[m:], x_chart_index, n)
        holo, _, fz = diffops.jacobian_pair_generic(f.rule, z, m, n)
        G = g.matrix_generic(fz)
        gup = _generic_inverse_up(G, n)
        Hm = h.matrix_generic(z)
        hup = _generic_inverse_up(Hm, m)
        holo_bar = [[gm.conj(v) for v in row] for row in holo]
        Xbar = [gm.conj(v) for v in X]
        num = 0.0
        for a in range(m):
            for b in range(m):
                for i in range(n):
                    # the left-to-right product's first factor pair, once per j loop
                    t = hup[a][b] * holo[i][a]
                    for j in range(n):
                        num = num + t * holo_bar[j][b] * X[i] * Xbar[j]
        H1 = gm.pairing(gup, X, X)
        return gm.real(num) / gm.real(H1), gm.log(H1)

    chart = f.source if n == 1 else f.source.product(fiber_chart(n - 1))
    return ScalarField.joint(chart, rule, "covector_density")


def Y2_field(f: ChartedMap, h: HermitianMetricField, g: HermitianMetricField,
             w_chart_index: int, x_chart_index: int) -> ScalarField:
    """Y2 as a joint field on the (z, w, x) chart of the nested bundle, with
    (log H, log H1) as its rider, both from the H and H1 it divides by:
    its Hessian hands on Y2's value for S3's T D term and the mixed jets
    behind S3's curvatures T of H and T1 of H1.  log H takes the operations
    of ``Y_field``'s rider, and log H1 those of ``Y1_field``'s."""
    m, n = f.m, f.n

    def rule(zs):
        z = zs[:m]
        W = reconstruct_W(zs[m:m + m - 1], w_chart_index, m)
        X = reconstruct_W(zs[m + m - 1:], x_chart_index, n)
        holo, _, fz = diffops.jacobian_pair_generic(f.rule, z, m, n)
        F = [_sum_terms(holo[i][a] * W[a] for a in range(m)) for i in range(n)]
        Fbar = [gm.conj(v) for v in F]
        Xbar = [gm.conj(v) for v in X]
        num = 0.0
        for i in range(n):
            for j in range(n):
                num = num + F[i] * Fbar[j] * X[i] * Xbar[j]
        H = gm.pairing(h.matrix_generic(z), W, W)
        gup = _generic_inverse_up(g.matrix_generic(fz), n)
        H1 = gm.pairing(gup, X, X)
        return gm.real(num) / (gm.real(H) * gm.real(H1)), (gm.log(H), gm.log(H1))

    chart = f.source
    if m > 1:
        chart = chart.product(fiber_chart(m - 1))
    if n > 1:
        chart = chart.product(fiber_chart(n - 1))
    return ScalarField.joint(chart, rule, "nested_density", (2,))


def u_field(f: ChartedMap, h: HermitianMetricField, g) -> ScalarField:
    """Classical energy density as a joint field on the source chart, with
    the entries h_{a bbar} it raises its indices with: one stencil gives
    ddbar u and the metric jet behind the source Chern tensor.  The map's
    source chart must be h's chart, where that jet is taken."""
    require_chart(f, "source", h)
    m, n = f.m, f.n

    def rule(zs):
        holo, _, fz = diffops.jacobian_pair_generic(f.rule, zs, m, n)
        G = g.matrix_generic(fz)
        Hm = h.matrix_generic(zs)
        hup = _generic_inverse_up(Hm, m)
        holo_bar = [[gm.conj(v) for v in row] for row in holo]
        u = 0.0
        for i in range(n):
            for j in range(n):
                for a in range(m):
                    for b in range(m):
                        u = u + G[i][j] * hup[a][b] * holo[i][a] * holo_bar[j][b]
        return gm.real(u), Hm

    return ScalarField.joint(f.source, rule, "classical_density", (m, m))


def require_chart(f: ChartedMap, end: str, metric):
    """The map's ``end`` chart ("source" or "target") must be the chart of
    ``metric``: the same type, dimension, centre and radii.  The densities
    read h and f at the same stencil points, and g at f's values, taken in
    f's target chart."""
    a, b = getattr(f, end), metric.chart
    if not (type(a) is type(b) and a.dim == b.dim and np.array_equal(a.center, b.center)
            and np.array_equal(a.radius, b.radius)):
        raise ValidationError(
            f"map {f.name!r} has {end} chart {a.name or 'box'} ({type(a).__name__}, "
            f"dim {a.dim}, centre {a.center.tolist()}, radius {a.radius.tolist()}), "
            f"not the chart of the {end} metric {metric.name!r} ({type(b).__name__}, "
            f"dim {b.dim}, centre {b.center.tolist()}, radius {b.radius.tolist()})")


def _sum_terms(terms):
    """Left-to-right sum of a nonempty sequence of generic scalars, starting
    from its first term: the builtin ``sum`` starts from the int 0 and pays
    one more stencil or hyper-dual addition."""
    return functools.reduce(operator.add, terms)


def _generic_inverse_up(M, n: int):
    """Raised-index inverse metric entries M^{a bbar} = conj(inv(M))[a][b].

    Only generic arithmetic is used, so the entries may be numbers, arrays
    over a stencil or hyper-duals: adjugate formulas up to n = 3, Gauss-Jordan
    elimination beyond.  A Hermitian positive-definite M has nonzero leading
    minors, so the elimination needs no pivoting.
    """
    if n == 1:
        return [[gm.conj(1.0 / M[0][0])]]
    if n == 2:
        det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
        inv = [[M[1][1] / det, -M[0][1] / det],
               [-M[1][0] / det, M[0][0] / det]]
    elif n == 3:
        det = (M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
               - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
               + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0]))
        inv = [[(M[1][1] * M[2][2] - M[1][2] * M[2][1]) / det,
                -(M[0][1] * M[2][2] - M[0][2] * M[2][1]) / det,
                (M[0][1] * M[1][2] - M[0][2] * M[1][1]) / det],
               [-(M[1][0] * M[2][2] - M[1][2] * M[2][0]) / det,
                (M[0][0] * M[2][2] - M[0][2] * M[2][0]) / det,
                -(M[0][0] * M[1][2] - M[0][2] * M[1][0]) / det],
               [(M[1][0] * M[2][1] - M[1][1] * M[2][0]) / det,
                -(M[0][0] * M[2][1] - M[0][1] * M[2][0]) / det,
                (M[0][0] * M[1][1] - M[0][1] * M[1][0]) / det]]
    else:
        M = [list(row) for row in M]
        inv = [[1.0 if a == b else 0.0 for b in range(n)] for a in range(n)]
        for p in range(n):
            pivot = M[p][p]
            M[p] = [v / pivot for v in M[p]]
            inv[p] = [v / pivot for v in inv[p]]
            for r in range(n):
                if r != p:
                    c = M[r][p]
                    M[r] = [x - c * y for x, y in zip(M[r], M[p])]
                    inv[r] = [x - c * y for x, y in zip(inv[r], inv[p])]
    return [[gm.conj(inv[a][b]) for b in range(n)] for a in range(n)]


# ---------------------------------------------------------------------------
# harmonic-map residuals

def pluriharmonic_residual(f: ChartedMap, g, z) -> np.ndarray:
    """Residual array f^i_{a bbar} + Gamma^i_{jk} f^j_a f^k_{bbar}, shape (n, m, m),
    with Gamma the target's connection at f(z) (``target_christoffels``).

    The Levi-Civita Gamma is symmetric in j, k, so for a Riemannian target
    this is the usual f^i_{a bbar} + Gamma^i_{jk} f^j_{bbar} f^k_a.
    """
    holo, anti, fz = f.jacobians(z)
    mixed = f.second_mixed(z)
    _, Gamma = target_christoffels(g, fz)
    return mixed + np.einsum("ijk,ja,kb->iab", Gamma, holo, anti)


def target_christoffels(g, p):
    """(G, Gamma) of the target's connection at p: the Chern connection of
    a Hermitian g, the Levi-Civita one of a Riemannian g, with G the metric
    matrix its jet holds (the dual value slot, or the fd stencil's checked
    centre) and Gamma[i, j, k] = Gamma^i_{jk}.  An (N, n) stack of points
    gives both with a leading sample axis, from one inverse and one
    contraction; the Levi-Civita symbols take one fd metric jet for the
    stack, the Chern ones an exact dual jet per point.  A Chern value that
    is not finite (a pole of g at the point gives NaN slots) fails the
    metric check there, naming the point."""
    if not isinstance(g, HermitianMetricField):
        return levi_civita_christoffels(g, p)
    ps, stacked = diffops.point_stack(p)
    M, dz, _ = diffops.matrix_jet(g, ps, backend="dual", order=1)
    if not np.isfinite(M).all():
        g.check_stack(M, ps)
    gup = np.linalg.inv(M).conj()   # g^{i lbar} = conj(inv)[i, l]
    # Gamma^i_{jk} = g^{i lbar} d g_{k lbar} / dz^j
    Gamma = np.einsum("Zil,Zjkl->Zijk", gup, dz)
    return (M, Gamma) if stacked else (M[0], Gamma[0])


def hermitian_harmonic_residual(f: ChartedMap, h: HermitianMetricField, g, z) -> np.ndarray:
    """Trace of the pluriharmonic residual against h^{a bbar}; an n-vector."""
    res = pluriharmonic_residual(f, g, z)
    hup = h.inverse_up(z)
    return np.einsum("ab,iab->i", hup, res)


def _pluriharmonic_defect(f: ChartedMap, g, z) -> float:
    """max |pluriharmonic_residual| at z; a non-finite residual is a
    ValidationError, not a map that fails to be pluri-harmonic."""
    defect = float(np.abs(pluriharmonic_residual(f, g, z)).max())
    if not np.isfinite(defect):
        raise ValidationError(
            f"pluri-harmonic residual of map {f.name!r} is not finite at {z}: {defect}")
    return defect


def is_pluriharmonic(f: ChartedMap, g, z) -> bool:
    return _pluriharmonic_defect(f, g, z) <= PLURI_TOL


def constraint_D_check(f: ChartedMap, g: RiemannianMetricField, z) -> dict:
    """Max-abs residual of R_{ikjl} f^i_a f^j_{bbar} f^k_g over all indices.

    Reported as not applicable when f is not pluri-harmonic at z; a vacuous
    check is never conflated with a violated one.
    """
    pluri = _pluriharmonic_defect(f, g, z)
    if pluri > PLURI_TOL:
        return {"applicable": False, "pluriharmonic_residual": pluri,
                "max_residual": None}
    holo, anti, fz = f.jacobians(z)
    R = riemann_curvature(g, fz).array
    eqn = np.einsum("ikjl,ia,jb,kg->abgl", R, holo, anti, holo)
    return {"applicable": True, "pluriharmonic_residual": pluri,
            "max_residual": float(np.abs(eqn).max())}


def hatC_value(f: ChartedMap, h: HermitianMetricField,
               g: RiemannianMetricField, z) -> float:
    """The doubled curvature contraction R_{iklj} E^{ij} E^{kl} with
    E^{ij} = h^{a bbar} f^i_a f^j_{bbar}; vanishes for pluri-harmonic maps and
    is nonpositive when the target has nonpositive complex sectional curvature.
    """
    holo, anti, fz = f.jacobians(z)
    hup = h.inverse_up(z)
    E = np.einsum("ab,ia,jb->ij", hup, holo, anti)
    R = riemann_curvature(g, fz).array
    val = np.einsum("iklj,ij,kl->", R, E, E)
    if abs(val.imag) > 1e-8 * max(1.0, abs(val.real)):
        raise ValidationError(f"hatC not real: imaginary part {val.imag:.3e}")
    return float(val.real)
