r"""Assembly and certification of the Hessian estimates and exact identities.

Every suite builds both sides of one display as Form11 matrices (or scalars
for the trace variants) and certifies the verdict spectrally: a form
inequality LHS >= RHS passes at a point when the smallest eigenvalue of
LHS - RHS clears -tol * scale with scale = max(1, ||LHS||).

The sample axis.  The runner evaluates the samples of a suite call that
share their fiber charts as one group, and every evaluator keeps the group
as a stack from the jets to the verdict: one stencil evaluation per field,
one curvature tensor, one contraction and one Hermitian check per term,
and one eigvalsh per side.  Each output is still a per-sample Form11 or
number, and each sample's numbers are those of its stack of one.  The map
jets (f(z) centres the target's stencils) and the W form's dual passes are
taken point by point.

Suite catalog.  ``SUITES`` holds one row per suite, the one place a suite
is defined: the pairs it applies to, its sample points, its evaluation and
its band.  ``evaluate_suite`` evaluates a row at given points, for the
runner and library callers alike; one point is the list of one.

    S1        ddbar Y  >=  (ddbar log H^{-1}) Y - [target curvature]/H
    S_minus1  ddbar Y  >=  (ddbar log H^{-1}) Y for a function to C
    S01       Chern-Lu form inequality for ddbar u on the base
    S02       trace of S01 against h^{a bbar}
    S2        covector-bundle estimate for Y1 with source curvature
    S3        nested-bundle estimate for Y2
    S03       conformal variant of S1 for Y_phi and H_phi
    S11       pluri-harmonic analogue of S1 with Riemann curvature
    hessian   pluri-harmonic analogue of S01
    hessian2  trace of hessian
    exact_holo   the full identity behind S1, both routes compared
    exact_pluri  the full identity behind S11
    W_psd     semi-positivity of the assembled (1,1)-form W
    S5_probe  maximum-principle sign pattern at the grid argmax of Y

The difference of the two sides of S1/S11 is the Gram-type form W divided by
H, which is why the identities decompose and why the inequality residuals are
singular matrices: their null directions are genuine, not numerical.
"""

from __future__ import annotations

import functools
import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import diffops, maps as maps_mod
from .bundle import (BundlePoint, TautologicalMetric, affine_rows,
                     curvature_matrices, horizontal_curvature_value, tautological_H)
from .curvature import (chern_arrays, chern_curvature, first_failing,
                        hermitian_normal_coordinates, riemann_curvature, sample_max)
from .errors import GeometryError, NotApplicable, ValidationError
from .fields import Form11, HermitianMetricField, eigenvalues, embedded, hermitian_part
from .maps import ChartedMap, NestedBundlePoint

DEFAULT_SAMPLES = 50
DEFAULT_SEED = 7
DEFAULT_TOL_RELATIVE = 1e-6
DEFAULT_TOL_EXACT = 1e-4
W_PSD_TOL = 1e-8
PROBE_VANISH_TOL = 1e-14        # a grid maximum of Y at or below this is "vacuous"
PROBE_GRID_SIZE = 5             # lattice points per real coordinate of the probe


@dataclass(frozen=True)
class PairContext:
    """A resolved (source metric, target metric, map) triple plus metadata."""

    f: ChartedMap
    h: HermitianMetricField
    g: object                    # HermitianMetricField or RiemannianMetricField
    name: str = "pair"
    compact: bool = False
    phi: object = None           # optional conformal weight phi(z, W)

    def __post_init__(self):
        maps_mod.require_source_chart(self.f, self.h)

    @property
    def target_is_complex(self) -> bool:
        return isinstance(self.g, HermitianMetricField)

    @functools.cached_property
    def pluriharmonic(self) -> bool:
        """Whether f is pluri-harmonic into g at three source points drawn
        from a fixed generator: decided on first use and kept for the pair,
        whatever the run seed."""
        zs = self.f.source.sample(np.random.default_rng(0), 0.5, count=3)
        return all(maps_mod.is_pluriharmonic(self.f, self.g, z) for z in zs)

    @functools.cached_property
    def probe_grid(self) -> tuple[np.ndarray, np.ndarray]:
        """The S5 probe's (zs, Ws) (``_probe_grid``): built on first use and
        kept for the pair, read-only."""
        grid = _probe_grid(self)
        for arr in grid:
            arr.setflags(write=False)
        return grid


# ---------------------------------------------------------------------------
# shared assembly pieces
#
# The evaluators take the sample points of one group (one fiber chart) and
# assemble each side as an (N, d, d) stack with the sample axis first: one
# contraction, one Hermitian check and one eigvalsh per stack.  Each
# sample's numbers are those of its stack of one, whatever stack it is in.
# Sums, differences and real multiples of the Hermitian stacks stay exactly
# Hermitian, as those of Form11s do, so they are not symmetrized again.

def _combined_dim(m: int) -> int:
    return m + max(m - 1, 0)


def _density_hessian_sides(f: ChartedMap, h: HermitianMetricField, g, Ps,
                           weight=None):
    """(ddbar Y, (ddbar log H^{-1}) Y) at the bundle points Ps, which share
    their fiber chart, as two stacks.  Y and log H take one stencil
    evaluation for all of Ps.

    Y is the generalized density, or Y_phi = e^phi Y when ``weight`` is given.
    """
    field = maps_mod.Y_field(f, h, g, Ps[0].chart_index, weight)
    return _hessian_sides(field, [P.combined() for P in Ps])


def _hessian_sides(density, coords):
    """(ddbar D, T D) for the joint density field D at the rows of coords,
    with T = -ddbar log of the metric D divides by, as two stacks.  Both,
    and D itself, come from one stencil evaluation for all rows."""
    L, D, (_, _, mixed) = diffops.mixed_hessians(density, np.array(coords))
    return L, hermitian_part(-mixed) * D[:, None, None]


def _map_jets(f: ChartedMap, zs):
    """(df, f(z)) at the base points zs as (N, n, m) and (N, n) stacks, from
    one Jacobian dual pass per point: f(z) is the point's own dual value,
    which centres the target's fd stencils."""
    jets = [f.jacobians(z) for z in zs]
    return np.array([holo for holo, _, _ in jets]), np.array([fz for _, _, fz in jets])


def _s1_sides(f: ChartedMap, h: HermitianMetricField, g, Ps, weight=None):
    """What the S1 family and the exact identities share, at the bundle
    points Ps on one fiber chart, as stacks: ddbar Y, (ddbar log H^{-1}) Y,
    -C/H, H and the map jets (df, f(z)), with C the target curvature term
    embedded in the base block of the combined chart."""
    L, T = _density_hessian_sides(f, h, g, Ps, weight)
    holo, fz = jets = _map_jets(f, [P.z for P in Ps])
    K, _ = _target_curvature(g, fz)
    tm = TautologicalMetric(h, weight=weight)
    H = np.array([tm.H_value(P) for P in Ps])
    C = _target_curvature_term(K, holo, np.array([P.W_affine for P in Ps]))
    minus_C = embedded(C, range(f.m), _combined_dim(f.m)) * (-1.0 / H)[:, None, None]
    return L, T, minus_C, H, jets


def _target_curvature(g, ps):
    """(K, g) at the stack of points ps, sample axis first: the target
    curvature as K[k, l, i, j], with (k, l) paired with df and conj(df) and
    (i, j) with F and conj(F), and the checked metric matrix there.  K is
    the Chern tensor of a Hermitian g, the Riemann tensor R_{kjil} of a
    Riemannian one.  One metric jet serves the whole stack."""
    if isinstance(g, HermitianMetricField):
        t = chern_curvature(g, ps)
        return t.array, t.metric_value
    t = riemann_curvature(g, ps)
    return t.array.transpose(0, 1, 4, 3, 2), t.metric_value


def _target_curvature_term(K: np.ndarray, holo: np.ndarray, W: np.ndarray) -> np.ndarray:
    """The target curvature K (as ``_target_curvature`` gives it) contracted
    with df and F = df W at each sample,

        C_{a bbar} = K_{k lbar i jbar} f^k_a conj(f^l_b) F^i conj(F^j).

    For a map into a real chart conj(f^l_b) is f^l_{bbar}.
    """
    F = (holo @ W[..., None])[..., 0]
    C = np.einsum("Zklij,Zka,Zlb,Zi,Zj->Zab", K, holo, holo.conj(), F, F.conj())
    _require_hermitian(C, "target curvature term")
    return C


def _pairing(G: np.ndarray, A: np.ndarray) -> np.ndarray:
    """G_{ij} A^i_a conj(A^j_b) at each sample of the stacks G (N, n, n) and
    A (N, n, d), from one einsum.  einsum groups the two sums of a 1 x 1
    result (d = 1) by the size of the stack, so A gets a zero column, which
    makes no result 1 x 1 and adds no term to any sum: each sample's
    result is then that of its stack of one."""
    d = A.shape[-1]
    padded = np.zeros(A.shape[:-1] + (d + 1,), complex)
    padded[..., :d] = A
    return np.einsum("Zij,Zia,Zjb->Zab", G, padded, padded.conj())[:, :d, :d]


def _require_hermitian(C: np.ndarray, what: str):
    """Each matrix of the stack C is Hermitian to 1e-8 of max(1, max |C|);
    the first that is not raises."""
    k, defect = first_failing(sample_max(C - np.swapaxes(C, 1, 2).conj()),
                              sample_max(C), 1e-8)
    if k is not None:
        raise ValidationError(f"{what} is not Hermitian: defect {defect:.3e}")


@functools.cache
def _flat_scalar_target():
    """The flat metric on a 1-dimensional complex target, built once."""
    from .charts import ComplexChart
    chart = ComplexChart(dim=1, radius=[1e6], name="C")
    return HermitianMetricField(chart, lambda z: [[1.0 + 0j]], name="flat_C")


# ---------------------------------------------------------------------------
# the W form

def assemble_W_form(f: ChartedMap, h: HermitianMetricField, g, P: BundlePoint,
                    weight=None) -> Form11:
    """The semi-positive (1,1)-form W on P(T_M),

        W = g_{ij} (dF^i + F^i dlog H^{-1} + T^i) wedge conj( ... )

    with F^i = f^i_a W^a and the connection correction T^i built from the
    target's connection (``maps.target_christoffels``): Chern for a complex
    target, which needs a holomorphic map, Levi-Civita for a Riemannian one.
    The W form of the stack of one, P (``_w_forms``).
    Positive semidefinite by construction; certified spectrally by callers.
    """
    return Form11._of_hermitian(_w_forms(f, h, g, [P], weight)[0])


def _w_forms(f: ChartedMap, h: HermitianMetricField, g, Ps, weight=None,
             jets=None) -> np.ndarray:
    """The matrices of the W form at the bundle points Ps, which share
    their fiber chart, as one stack.  ``jets`` are the map jets (df, f(z))
    at the Ps (``_map_jets``) when the caller has them already.  The
    target's connection at every f(z) comes from one stacked call, with
    g(f(z)) the matrix its jet holds; the second derivatives of f and
    dlog H are dual passes, one per point."""
    if isinstance(g, HermitianMetricField) and not f.holomorphic:
        raise ValidationError("the W form into a complex target needs a "
                              "holomorphic map")

    m, n = f.m, f.n
    dim = _combined_dim(m)
    holo, fz = jets if jets is not None else _map_jets(f, [P.z for P in Ps])
    sec = np.array([f.second_holo(P.z) for P in Ps])
    W = np.array([P.W_affine for P in Ps])
    F = (holo @ W[..., None])[..., 0]
    G, gamma = maps_mod.target_christoffels(g, fz)
    T_base = np.einsum("Zipk,Zk,Zpa->Zia", gamma, F, holo)

    logH = TautologicalMetric(h, weight=weight).log_H_field(Ps[0].chart_index)
    dlogH = diffops.wirtinger_gradient(logH, np.array([P.combined() for P in Ps]),
                                       backend="dual")

    fiber_idx = [a for a in range(m) if a != Ps[0].chart_index]
    V = np.empty((len(Ps), n, dim), complex)
    V[:, :, :m] = (sec @ W[:, None, :, None])[..., 0] + T_base
    V[:, :, m:] = holo[:, :, fiber_idx]
    V += F[:, :, None] * (-dlogH)[:, None, :]
    return hermitian_part(_pairing(G, V))       # g_{ij} V^i_A conj(V^j_B)


def _w_psd(f, h, g, Ps, weight=None) -> list:
    """W_psd's evaluator: the smallest eigenvalue of the W form at each of Ps."""
    return [{"min_eigenvalue": float(lam)}
            for lam in eigenvalues(_w_forms(f, h, g, Ps, weight))[:, 0]]


# ---------------------------------------------------------------------------
# exact identities

def _exact_identities(f, h, g, Ps, weight=None, *, holomorphic: bool) -> list:
    """The exact identities' evaluator at bundle points Ps on one fiber
    chart, exact_holo's when ``holomorphic`` and exact_pluri's when not.

    LHS: black-box mixed Hessian of Y (or Y_phi) on the (z, w) chart.
    RHS: (ddbar log H^{-1}) Y + W/H - [curvature term]/H, assembled from the
    tautological curvature, the W form and a curvature contraction.  The
    residual is entrywise, relative to max(1, ||LHS||)."""
    complex_target = isinstance(g, HermitianMetricField)
    if holomorphic and not (f.holomorphic and complex_target):
        raise NotApplicable("exact_holo needs a holomorphic map into a complex target")
    if not holomorphic and complex_target:
        raise NotApplicable("exact_pluri needs a Riemannian target")

    L, T, minus_C, H, jets = _s1_sides(f, h, g, Ps, weight)
    Wm = _w_forms(f, h, g, Ps, weight, jets=jets)
    rhs = T + Wm * (1.0 / H)[:, None, None] + minus_C
    scale = _scales(L)
    resid = sample_max(L - rhs) / scale
    w_min = eigenvalues(Wm)[:, 0]
    return [{"residual": float(resid[k]), "scale": float(scale[k]),
             "lhs": Form11._of_hermitian(L[k]), "rhs": Form11._of_hermitian(rhs[k]),
             "w_min_eigenvalue": float(w_min[k])} for k in range(len(Ps))]


def _scales(lhs: np.ndarray) -> np.ndarray:
    """max(1, max |LHS|) of each sample."""
    # fmax(nan, 1) is 1, as Python's max(1.0, nan) is
    return np.fmax(sample_max(lhs), 1.0)


# ---------------------------------------------------------------------------
# form inequalities

def _s01_sides(f: ChartedMap, h: HermitianMetricField, g, zs):
    """(ddbar u, RHS matrix, h^{a bbar}) of the base-chart Hessian
    estimates at the base points zs, as stacks: S01 for a complex target,
    its pluri-harmonic analogue (hessian) for a Riemannian one.  The trace
    suites contract both sides with the returned h^{a bbar}.  The RHS is

        R^h_{a bbar g dbar} h^{m dbar} h^{g nbar} g_{ij} f^i_m conj(f^j_n)
            - K_{k lbar i jbar} f^k_a conj(f^l_b) h^{m nbar} f^i_m conj(f^j_n).
    """
    zs = np.asarray(zs, complex)
    # one stencil gives ddbar u and the jet of h behind the source Chern tensor
    L, _, (M, dz, mixed) = diffops.mixed_hessians(maps_mod.u_field(f, h, g), zs)
    H = h.check_stack(M, zs)
    Rh = chern_arrays(H, dz, mixed, zs)
    holo, fz = _map_jets(f, zs)
    K, G = _target_curvature(g, fz)
    holo_bar = holo.conj()
    hup = np.linalg.inv(H).conj()
    P = _pairing(G, holo)                       # g_{ij} f^i_m conj(f^j_n)
    E = _pairing(hup, holo.swapaxes(1, 2))      # h^{m nbar} f^k_m conj(f^l_n)
    second = np.einsum("Zijkl,Zia,Zjb,Zkl->Zab", K, holo, holo_bar, E)
    first = np.einsum("Zabgd,Zmd,Zgn,Zmn->Zab", Rh, hup, hup, P)
    _require_hermitian(first, "source curvature term")
    _require_hermitian(second, "target curvature term")
    return L, first - second, hup


def _forms(lhs: np.ndarray, rhs: np.ndarray) -> list:
    """The outputs of a form inequality LHS >= RHS for the stacks of the two
    sides: the smallest eigenvalue of LHS - RHS, the scale, both sides and
    their difference, with one eigvalsh for the stack of differences."""
    residual = lhs - rhs
    lam = eigenvalues(residual)[:, 0]
    scale = _scales(lhs)
    return [{"min_eigenvalue": float(lam[k]),
             "scale": float(scale[k]),
             "lhs": Form11._of_hermitian(lhs[k]),
             "rhs": Form11._of_hermitian(rhs[k]),
             "residual_form": Form11._of_hermitian(residual[k])}
            for k in range(len(lhs))]


def _s_minus1(f, h, g, Ps, weight=None) -> list:
    """S_minus1's evaluator: the density of f into the flat C, whatever g is."""
    return _forms(*_density_hessian_sides(f, h, _flat_scalar_target(), Ps))


def _s1_family(f, h, g, Ps, weight=None) -> list:
    """The evaluator of S1 and S11, and of S03 with the conformal weight."""
    L, T, minus_C, _, _ = _s1_sides(f, h, g, Ps, weight)
    return _forms(L, T + minus_C)


def _s01_family(f, h, g, pts, weight=None) -> list:
    """The evaluator of S01 and hessian, at base points or at the base
    points of bundle points."""
    zs = [pt.z if isinstance(pt, BundlePoint) else pt for pt in pts]
    L, rhs, _ = _s01_sides(f, h, g, zs)
    return _forms(L, hermitian_part(rhs))


def _s2(f, h, g, Qs, weight=None) -> list:
    """S2's evaluator at covector points Qs, whose fiber coordinates are the
    covector X.  The source curvature term

        C_{a bbar} = R^h_{a bbar g dbar} h^{g nbar} conj(v_n) h^{m dbar} v_m

    with v_m = X^k f^k_m is contracted one index at a time."""
    tm1 = _covector_tautological(f, g)
    L, T = _hessian_sides(maps_mod.Y1_field(f, h, g, Qs[0].chart_index),
                          [Q.combined() for Q in Qs])
    source = chern_curvature(h, np.array([Q.z for Q in Qs]))
    holo, _ = _map_jets(f, [Q.z for Q in Qs])
    X = np.array([Q.W_affine for Q in Qs])
    hup = np.linalg.inv(source.metric_value).conj()
    v = np.einsum("Zk,Zkm->Zm", X, holo)
    s = np.einsum("Zm,Zmd->Zd", v, hup)
    t = np.einsum("Zgn,Zn->Zg", hup, v.conj())
    C = np.einsum("Zabg,Zg->Zab", np.einsum("Zabgd,Zd->Zabg", source.array, s), t)
    _require_hermitian(C, "source curvature term")
    H1 = np.array([tm1.H_raw(Q) for Q in Qs])
    dim = f.m + max(f.n - 1, 0)
    return _forms(L, T + embedded(C, range(f.m), dim) * (1.0 / H1)[:, None, None])


def _s3(f, h, g, Rs, weight=None) -> list:
    """S3's evaluator at nested points Rs (z, [W], [X]).

    One stencil gives ddbar Y2 and both tautological curvatures: T of H
    and T1 of H1 are -ddbar of the rider's log H and log H1, on the (z, w)
    and (z, x) blocks.  Such a block is bit for bit the sub-chart's own
    ``curvature_matrices`` when the sub-chart's scale, and so its fd step,
    is the nested chart's: the sub-chart's stencil is then the nested
    stencil's points with the other coordinates held at the centre.  The
    scales differ only where the nested chart has fiber coordinates
    (radius 1.1) that the sub-chart lacks and the source radius is below
    1.1: the (z, w) chart for m = 1 < n, the (z, x) chart for n = 1 < m.
    Such a sub-chart keeps its own stencil."""
    m, n = f.m, f.n
    dim = m + max(m - 1, 0) + max(n - 1, 0)
    zw_idx = list(range(m + max(m - 1, 0)))
    zx_idx = list(range(m)) + list(range(m + max(m - 1, 0), dim))
    y2 = maps_mod.Y2_field(f, h, g, Rs[0].P.chart_index, Rs[0].x_chart_index)
    L, D, (_, _, mixed) = diffops.mixed_hessians(y2, np.array([R.combined() for R in Rs]))
    sides = ((TautologicalMetric(h), zw_idx, lambda: [R.P for R in Rs]),
             (_covector_tautological(f, g), zx_idx,     # the points (z, [X])
              lambda: [BundlePoint.make(R.P.z, R.X, R.x_chart_index) for R in Rs]))
    blocks = []
    for k, (tm, idx, points) in enumerate(sides):
        if tm.combined_chart().scale == y2.chart.scale:
            A = -hermitian_part(mixed[:, idx][:, :, idx, k])
        else:
            A = curvature_matrices(tm, points())
        blocks.append(embedded(A, idx, dim))
    return _forms(L, (blocks[0] + blocks[1]) * D[:, None, None])


def _covector_tautological(f: ChartedMap, g: HermitianMetricField) -> TautologicalMetric:
    """H1 through the same machinery as H, with g^{k lbar}(f(z)) as the input."""
    return TautologicalMetric(maps_mod.covector_metric_field(f, g))


# ---------------------------------------------------------------------------
# trace inequalities

def _trace_inequalities(f, h, g, zs, weight=None) -> list:
    """The trace suites' evaluator at each of the base points zs: the signed
    scalar residual tr(LHS) - tr(RHS)."""
    L, R, hup = _s01_sides(f, h, g, zs)
    # h^{a bbar} A_{a bbar} over one flattened index: two summed indices
    # with a 1 x 1 result are grouped by the stack's size (see _pairing)
    N, m = len(hup), f.m
    flat = hup.reshape(N, m * m)
    lhs = np.einsum("Zk,Zk->Z", flat, L.reshape(N, m * m)).real.tolist()
    rhs = np.einsum("Zk,Zk->Z", flat, R.reshape(N, m * m)).real.tolist()
    return [{"residual": l - r, "lhs": l, "rhs": r, "scale": max(1.0, abs(l), abs(r))}
            for l, r in zip(lhs, rhs)]


# ---------------------------------------------------------------------------
# maximum-principle probe

def maximum_principle_probe(f: ChartedMap, h: HermitianMetricField,
                            g: HermitianMetricField, zs, Ws,
                            compact: bool = False) -> dict:
    """Locate the argmax of Y on the grid of base points ``zs`` (N, m) times
    fiber directions ``Ws`` (K, m) and evaluate the two terms of the
    pointwise estimate there, in base-normal coordinates.

    Reports the sign pattern only; a rigidity conclusion would need a compact
    manifold, and the probe says so rather than overclaiming.
    """
    if not f.holomorphic:
        raise NotApplicable("the probe needs a holomorphic map")
    zs = np.asarray(zs, complex)
    Ws = np.asarray(Ws, complex)
    if zs.ndim != 2 or Ws.ndim != 2 or zs.shape[1] != f.m or Ws.shape[1] != f.m \
            or not (len(zs) and len(Ws)):
        raise ValidationError(f"probe needs nonempty stacks of base points and "
                              f"fiber directions of dimension {f.m}")
    if not np.all(np.abs(Ws).max(axis=1) > 0):
        raise ValidationError("probe fiber directions must be nonzero vectors")
    # one evaluator for all base points, on one stack of affine rows
    vals = maps_mod.Y_on_fiber(f, h, g, zs)(affine_rows(Ws))
    if not np.isfinite(vals).all():
        i, j = np.argwhere(~np.isfinite(vals))[0]
        raise ValidationError(
            f"Y is not finite at probe point z = {zs[i].tolist()}, "
            f"W = {Ws[j].tolist()}: {vals[i, j]}")
    # the first of equal maxima in z-major order wins
    i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
    best_val = float(vals[i, j])
    if best_val <= PROBE_VANISH_TOL:
        return {"status": "vacuous", "y_max": best_val, "compact": compact,
                "pattern": "vacuous", "conclusion": "density vanishes on the grid"}

    q = BundlePoint.make(zs[i], Ws[j])
    frame = hermitian_normal_coordinates(h, q.z)
    W_new = frame.to_new_vector(q.W_affine)
    P_new = BundlePoint.make(np.zeros(f.m, complex), W_new)
    tm_new = TautologicalMetric(frame.metric)
    term1 = horizontal_curvature_value(tm_new, P_new) * best_val

    holo, _, fz = f.jacobians(q.z)
    F = holo @ q.W_affine
    Rg = chern_curvature(g, fz).array
    H_val = tautological_H(TautologicalMetric(h), q)
    term2 = float(np.real(np.einsum("klij,k,l,i,j->", Rg, F, F.conj(), F, F.conj()))) / H_val
    # a NaN term compares False both ways and would read as "consistent"
    for name, term in (("term1", term1), ("term2", term2)):
        if not np.isfinite(term):
            raise ValidationError(
                f"probe {name} is not finite at the argmax z = {q.z.tolist()}, "
                f"W = {q.W.tolist()}: {term}")

    if abs(term1) <= 1e-8 and abs(term2) <= 1e-8:
        pattern = "degenerate"
    elif term1 > 0 and term2 < 0:
        pattern = "contradiction-shaped"
    else:
        pattern = "consistent"
    conclusion = None
    if pattern == "contradiction-shaped":
        conclusion = ("sign pattern obstructs an interior maximum"
                      if compact else
                      "sign pattern only; no conclusion on a non-compact chart")
    return {"status": "evaluated", "argmax": q, "y_max": best_val,
            "term1": term1, "term2": term2, "pattern": pattern,
            "compact": compact, "conclusion": conclusion}


# ---------------------------------------------------------------------------
# the suite table

# routing: why a suite does not apply to a pair, "" when it does

def _holomorphic(pair: PairContext) -> str:
    """A holomorphic map into a complex target."""
    if not pair.f.holomorphic:
        return "requires a holomorphic map"
    return "" if pair.target_is_complex else "requires a complex target"


def _function_to_c(pair: PairContext) -> str:
    """A holomorphic function to C."""
    f = pair.f
    ok = f.holomorphic and f.target_is_complex and f.n == 1
    return "" if ok else "requires a holomorphic function to C"


def _pluriharmonic(pair: PairContext) -> str:
    """A pluri-harmonic map into a Riemannian target."""
    if pair.target_is_complex:
        return "requires a Riemannian target"
    return "" if pair.pluriharmonic else "map is not pluri-harmonic"


def _either(pair: PairContext) -> str:
    """The pair of a holomorphic suite or of a pluri-harmonic one."""
    if pair.target_is_complex:
        return _holomorphic(pair) and "requires holomorphic or pluri-harmonic input"
    return _pluriharmonic(pair) and "map is neither holomorphic nor pluri-harmonic"


# sample points, each drawn base point first

def _fiber_direction(rng, k: int) -> np.ndarray:
    """Gaussian complex k-vector, redrawn until its norm is at least 0.3."""
    V = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    while np.linalg.norm(V) < 0.3:
        V = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return V


def _base_point(f: ChartedMap, rng):
    return f.source.sample(rng, 0.5)


def _bundle_point(f: ChartedMap, rng) -> BundlePoint:
    """(z, [W])."""
    return BundlePoint.make(_base_point(f, rng), _fiber_direction(rng, f.m))


def _covector_point(f: ChartedMap, rng) -> BundlePoint:
    """(z, [X]) with X in the target's dimension: S2's point."""
    return BundlePoint.make(_base_point(f, rng), _fiber_direction(rng, f.n))


def _nested_point(f: ChartedMap, rng) -> NestedBundlePoint:
    """(z, [W], [X]): S3's point."""
    return NestedBundlePoint.make(_base_point(f, rng), _fiber_direction(rng, f.m),
                                  _fiber_direction(rng, f.n))


@dataclass(frozen=True)
class _Band:
    """sign * out[key] <= tol(tol_relative, tol_exact, out) for the output
    of each sample: a lower bound when sign is -1, an upper one when +1.
    The worst sample has the largest sign * out[key]."""
    key: str
    sign: float
    tol: Callable


_EIGEN = _Band("min_eigenvalue", -1.0, lambda relative, exact, out: relative * out["scale"])
_TRACE = _Band("residual", -1.0, lambda relative, exact, out: relative * out["scale"])
_EXACT = _Band("residual", 1.0, lambda relative, exact, out: exact)
_W_PSD = _Band("min_eigenvalue", -1.0, lambda relative, exact, out: W_PSD_TOL)


@dataclass(frozen=True)
class _Suite:
    """One suite: all that routing, the runner and ``evaluate_suite`` know
    of it.  The S5 probe has neither point kind nor band: its evaluation is
    ``maximum_principle_probe`` on ``PairContext.probe_grid``."""
    applies: Callable           # routing: (pair) -> why it does not apply, or ""
    point: Callable | None      # (f, rng) -> one sample point
    evaluate: Callable          # (f, h, g, pts, weight) -> an output dict per point
    band: _Band | None
    weighted: bool = False      # whether evaluate gets the run's conformal weight


SUITES = {
    "S1": _Suite(_holomorphic, _bundle_point, _s1_family, _EIGEN),
    "S_minus1": _Suite(_function_to_c, _bundle_point, _s_minus1, _EIGEN),
    "S01": _Suite(_holomorphic, _base_point, _s01_family, _EIGEN),
    "S02": _Suite(_holomorphic, _base_point, _trace_inequalities, _TRACE),
    "S2": _Suite(_holomorphic, _covector_point, _s2, _EIGEN),
    "S3": _Suite(_holomorphic, _nested_point, _s3, _EIGEN),
    "S03": _Suite(_holomorphic, _bundle_point, _s1_family, _EIGEN, weighted=True),
    "S11": _Suite(_pluriharmonic, _bundle_point, _s1_family, _EIGEN),
    "hessian": _Suite(_pluriharmonic, _base_point, _s01_family, _EIGEN),
    "hessian2": _Suite(_pluriharmonic, _base_point, _trace_inequalities, _TRACE),
    "exact_holo": _Suite(_holomorphic, _bundle_point,
                         functools.partial(_exact_identities, holomorphic=True), _EXACT),
    "exact_pluri": _Suite(_pluriharmonic, _bundle_point,
                          functools.partial(_exact_identities, holomorphic=False), _EXACT),
    "W_psd": _Suite(_either, _bundle_point, _w_psd, _W_PSD),
    "S5_probe": _Suite(_holomorphic, None, maximum_principle_probe, None),
}

# run_suite seeds each suite's generator with its index here
SUITE_TAGS = tuple(SUITES)
FORM_SUITES = tuple(tag for tag, row in SUITES.items() if row.band is _EIGEN)
TRACE_SUITES = tuple(tag for tag, row in SUITES.items() if row.band is _TRACE)
EXACT_VARIANTS = tuple(tag for tag, row in SUITES.items() if row.band is _EXACT)


def _row(suite) -> _Suite:
    """The row of ``suite``; anything else raises ValidationError."""
    row = SUITES.get(suite) if isinstance(suite, str) else None
    if row is None:
        raise ValidationError(f"unknown suite {suite!r}")
    return row


def suite_applicable(suite: str, pair: PairContext) -> tuple[bool, str]:
    """Routing: which suites make sense for which map/metric types."""
    why = _row(suite).applies(pair)
    return not why, why


def evaluate_suite(suite: str, f: ChartedMap, h: HermitianMetricField, g, points,
                   weight=None) -> list:
    """The ``SUITES`` row of ``suite`` evaluated at ``points``: one output
    dict per point, each that of its stack of one.

    ``points`` is a list of points of the row's kind (its ``point``: bundle
    points, base points, covector points for S2, nested points for S3) that
    share one fiber chart.  ``weight`` is the conformal weight phi(z, W),
    passed to the row as given.  An unknown suite, the S5 probe (it has no
    sample points: call ``maximum_principle_probe``) and points on more
    than one fiber chart, or none, raise ValidationError.
    """
    row = _row(suite)
    if row.point is None:
        raise ValidationError(f"{suite} has no sample points; call "
                              "maximum_principle_probe")
    charts = {_fiber_charts(pt) for pt in points}
    if len(charts) != 1:
        raise ValidationError(f"{suite} evaluates points on one fiber chart, "
                              f"got {len(points)} points on {len(charts)}")
    return row.evaluate(f, h, g, points, weight)


# ---------------------------------------------------------------------------
# suite runner

@dataclass
class VerificationReport:
    suite: str
    pair: str
    status: str                  # pass | fail | not_applicable | error
    seed: int
    samples: int
    tolerances: dict
    residuals: list = field(default_factory=list)
    points: list = field(default_factory=list)
    worst: dict = field(default_factory=dict)
    message: str = ""
    runtime_s: float = 0.0

    def to_dict(self) -> dict:
        finite = [float(r) for r in self.residuals if math.isfinite(r)]
        hist = {}
        if finite:
            counts, edges = _histogram(finite)
            hist = {"counts": counts, "edges": edges}
        return {
            "suite": self.suite,
            "pair": self.pair,
            "status": self.status,
            "seed": self.seed,
            "samples": self.samples,
            "tolerances": self.tolerances,
            "residuals": [float(r) for r in self.residuals],
            "points": self.points,
            "histogram": hist,
            "worst": self.worst,
            "message": self.message,
        }


def _histogram(values) -> tuple[list, list]:
    """(counts, edges) of 10 equal bins over the range of a nonempty list of
    finite floats, equal bit for bit to ``np.histogram(values)`` without its
    fixed cost on the few residuals of a report.

    The edges are lo + i * step with the last one set to hi, as
    ``np.linspace`` makes them (with its own rule when step underflows to
    0); a range of one value is widened by 0.5 on both sides.  Each value
    goes to the bin its scaled offset truncates to, moved by one where it
    lands on the wrong side of an edge, and the last bin is closed on the
    right.  The range hi - lo must not overflow.  A range too narrow for
    distinct edges, which NumPy refuses with a ValueError, is counted too.
    """
    bins = 10
    lo, hi = min(values), max(values)
    if hi == 0:
        # which signed zero is the maximum shows in the last edge, and
        # NumPy's reduction order picks it
        hi = float(np.max(values))
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    width = hi - lo
    step = width / bins
    if step == 0:
        edges = [lo + i / bins * width for i in range(bins)]
    else:
        edges = [lo + i * step for i in range(bins)]
    edges.append(hi)
    counts = [0] * bins
    for v in values:
        k = min(int((v - lo) / width * bins), bins - 1)
        if v < edges[k]:
            k -= 1
        elif v >= edges[k + 1] and k != bins - 1:
            k += 1
        counts[k] += 1
    return counts, edges


def _point_coords(pt) -> list:
    if isinstance(pt, BundlePoint):
        return {"z": _c2l(pt.z), "W": _c2l(pt.W)}
    if isinstance(pt, NestedBundlePoint):
        return {"z": _c2l(pt.P.z), "W": _c2l(pt.P.W), "X": _c2l(pt.X)}
    return {"z": _c2l(pt)}


def _c2l(arr) -> list:
    """[[re, im], ...] of the entries of arr as Python floats, read through
    the float view of the complex entries."""
    return np.ascontiguousarray(arr, complex).view(float).reshape(-1, 2).tolist()


def _default_phi(zs, Ws):
    from . import dual as gm
    return 0.2 * gm.real(zs[0])


def run_suite(pair: PairContext, suites, samples: int = DEFAULT_SAMPLES,
              seed: int = DEFAULT_SEED,
              tol_relative: float = DEFAULT_TOL_RELATIVE,
              tol_exact: float = DEFAULT_TOL_EXACT,
              workers: int = 1) -> list[VerificationReport]:
    """Run the requested suites on one pair; deterministic given (plan, seed).

    Sample points are drawn up front in a fixed order and evaluated in that
    order.  A ``GeometryError`` raised while a suite is routed or run makes
    that suite an error naming the exception type; the other suites still
    run.  Raised while one sample is evaluated, it is that sample's error:
    the sample gets a NaN residual and the others keep theirs.
    ``workers`` is accepted for compatibility and must be 1.
    """
    if workers != 1:
        raise ValidationError(f"workers must be 1, got {workers!r}")
    if samples < 1:
        raise ValidationError("sample count must be >= 1")
    reports = []
    for suite in suites:
        _row(suite)             # an unknown suite raises
        t0 = time.perf_counter()
        tolerances = {"tol_relative": tol_relative, "tol_exact": tol_exact,
                      "w_psd_tol": W_PSD_TOL}
        rep = VerificationReport(suite=suite, pair=pair.name, status="pass",
                                 seed=seed, samples=samples, tolerances=tolerances)
        try:
            ok, why = suite_applicable(suite, pair)
            if ok:
                # drawn only for a suite that runs: routing draws nothing
                rng = np.random.default_rng([seed, SUITE_TAGS.index(suite)])
                _run_one_suite(rep, suite, pair, rng, samples, tol_relative,
                               tol_exact)
            else:
                rep.status = "not_applicable"
                rep.message = why
        except GeometryError as exc:
            rep.status = "error"
            rep.message = f"{type(exc).__name__}: {exc}"
        rep.runtime_s = time.perf_counter() - t0
        reports.append(rep)
    return reports


def _draw_points(suite, pair, rng, samples):
    """``samples`` sample points of the kind the suite evaluates, drawn one
    after another by its row's ``point``."""
    point = SUITES[suite].point
    return [point(pair.f, rng) for _ in range(samples)]


def _record_sample(rep, k: int, pt, value: float, violated: bool,
                   error: GeometryError | None = None) -> bool:
    """Append one sample's residual and apply its verdict; returns whether
    the residual is finite.

    A non-finite residual makes the suite an error naming the sample: no
    comparison with a band means anything for it, and NaN compares False
    with every band.  A sample whose evaluation raised ``error`` has a NaN
    residual and the message names the error.  An error is never
    downgraded by a later sample.
    """
    rep.residuals.append(value)
    rep.points.append(_point_coords(pt))
    if not math.isfinite(value):
        if rep.status != "error":
            rep.status = "error"
            why = (f"{type(error).__name__}: {error}" if error is not None
                   else f"non-finite residual {value}")
            rep.message = f"{why} at sample {k}, point {rep.points[-1]}"
        return False
    if violated and rep.status == "pass":
        rep.status = "fail"
    return True


def _evaluate(suite, pair, pts, weight, tol_relative, tol_exact) -> list:
    """Samples of a sampled suite that share their fiber charts, in one
    pass: per sample (residual, band violated, residual form or None)."""
    row = SUITES[suite]
    band = row.band
    outs = evaluate_suite(suite, pair.f, pair.h, pair.g, pts,
                          weight if row.weighted else None)
    return [(out[band.key], band.sign * out[band.key] > band.tol(tol_relative, tol_exact, out),
             out.get("residual_form")) for out in outs]


def _fiber_charts(pt):
    """The fiber chart indices the fd fields of a sample are built on:
    samples with equal keys share every stencil field."""
    if isinstance(pt, BundlePoint):
        return pt.chart_index
    if isinstance(pt, NestedBundlePoint):
        return pt.P.chart_index, pt.x_chart_index
    return None                 # a base point


def _sample_groups(pts) -> list:
    """Indices of the samples, grouped by their fiber charts in order of
    first appearance; one group when m = n = 1."""
    groups = {}
    for k, pt in enumerate(pts):
        groups.setdefault(_fiber_charts(pt), []).append(k)
    return list(groups.values())


def _evaluate_group(suite, pair, pts, weight, tol_relative, tol_exact) -> list:
    """_evaluate plus each sample's error: (residual, violated, form, error).

    A group that raises is evaluated again one sample at a time, so every
    sample ends as it would alone: a GeometryError is the error of its own
    sample, recorded as a NaN residual, and any other exception propagates
    from the sample that raises it."""
    if len(pts) > 1:
        try:
            return [out + (None,) for out in
                    _evaluate(suite, pair, pts, weight, tol_relative, tol_exact)]
        except Exception:       # decided below, sample by sample
            pass
    outs = []
    for pt in pts:
        try:
            [out] = _evaluate(suite, pair, [pt], weight, tol_relative, tol_exact)
            outs.append(out + (None,))
        except GeometryError as exc:
            outs.append((math.nan, False, None, exc))
    return outs


def _run_one_suite(rep, suite, pair, rng, samples, tol_relative, tol_exact):
    row = SUITES[suite]
    if row.point is None:       # the S5 probe, once on the pair's grid
        out = row.evaluate(pair.f, pair.h, pair.g, *pair.probe_grid, compact=pair.compact)
        rep.residuals = [out.get("term1", 0.0), out.get("term2", 0.0)]
        rep.message = f"pattern={out['pattern']}"
        rep.worst = {k: v for k, v in out.items()
                     if k in ("pattern", "y_max", "term1", "term2", "conclusion",
                              "status")}
        return

    weight = pair.phi or _default_phi
    pts = _draw_points(suite, pair, rng, samples)
    # each group of samples on the same fiber charts is evaluated in one
    # pass, and the results go back in draw order
    outs = [None] * len(pts)
    for group in _sample_groups(pts):
        results = _evaluate_group(suite, pair, [pts[k] for k in group], weight,
                                  tol_relative, tol_exact)
        for k, out in zip(group, results):
            outs[k] = out
    sign = row.band.sign
    worst = None
    for k, (value, violated, form, error) in enumerate(outs):
        finite = _record_sample(rep, k, pts[k], value, violated, error)
        if finite and (worst is None or sign * value > sign * worst[0]):
            worst = (value, k, form)
    if worst:
        value, k, form = worst
        rep.worst = {"residual": value, "point": rep.points[k]}
        if form is not None:
            rep.worst["eigenvector"] = _c2l(np.linalg.eigh(form.matrix)[1][:, 0])


def _probe_grid(pair: PairContext) -> tuple[np.ndarray, np.ndarray]:
    """(zs, Ws): the base points of a lattice of PROBE_GRID_SIZE points per
    real coordinate over 0.55 of the source chart's box, and the fiber
    directions probed over each (the coordinate axes, the diagonal and one
    generic direction; the single direction when m = 1)."""
    chart = pair.f.source
    m = chart.dim
    axes = [np.linspace(-r, r, PROBE_GRID_SIZE) for r in chart.radius * 0.55]
    # row-major over (re_1..re_m, im_1..im_m), the last coordinate fastest
    lattice = np.stack(np.meshgrid(*axes * 2, indexing="ij"), axis=-1).reshape(-1, 2 * m)
    zs = chart.center + lattice[:, :m] + 1j * lattice[:, m:]
    if m == 1:
        return zs, np.ones((1, 1), complex)
    generic = np.arange(1, m + 1) + 1j
    Ws = np.vstack([np.eye(m, dtype=complex), np.ones(m, complex) / math.sqrt(m),
                    generic / np.linalg.norm(generic)])
    return zs, Ws
