r"""Assembly and certification of the Hessian estimates and exact identities.

Every suite builds both sides of one display as Form11 matrices (or scalars
for the trace variants) and certifies the verdict spectrally: a form
inequality LHS >= RHS passes at a point when the smallest eigenvalue of
LHS - RHS clears -tol * scale with scale = max(1, ||LHS||).

Suite catalog (applicability in parentheses):

    S1        ddbar Y  >=  (ddbar log H^{-1}) Y - [target curvature]/H   (holomorphic)
    S_minus1  ddbar Y  >=  (ddbar log H^{-1}) Y                          (holomorphic function, n = 1)
    S01       Chern-Lu form inequality for ddbar u on the base           (holomorphic)
    S02       trace of S01 against h^{a bbar}                            (holomorphic)
    S2        covector-bundle estimate for Y1 with source curvature      (holomorphic)
    S3        nested-bundle estimate for Y2                              (holomorphic)
    S03       conformal variant of S1 for Y_phi and H_phi                (holomorphic)
    S11       pluri-harmonic analogue of S1 with Riemann curvature       (pluri-harmonic)
    hessian   pluri-harmonic analogue of S01                             (pluri-harmonic)
    hessian2  trace of hessian                                           (pluri-harmonic)
    exact_holo   the full identity behind S1, both routes compared       (holomorphic)
    exact_pluri  the full identity behind S11                            (pluri-harmonic)
    W_psd     semi-positivity of the assembled (1,1)-form W              (either)
    S5_probe  maximum-principle sign pattern at the grid argmax of Y     (holomorphic)

The difference of the two sides of S1/S11 is the Gram-type form W divided by
H, which is why the identities decompose and why the inequality residuals are
singular matrices: their null directions are genuine, not numerical.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import diffops, maps as maps_mod
from .bundle import (BundlePoint, TautologicalMetric, affine_rows,
                     horizontal_curvature_value, tautological_H,
                     tautological_curvature)
from .curvature import (_chern_tensor, chern_curvature, hermitian_normal_coordinates,
                        riemann_curvature)
from .errors import GeometryError, NotApplicable, ValidationError
from .fields import Form11, HermitianMetricField
from .maps import ChartedMap, NestedBundlePoint

SUITE_TAGS = ("S1", "S_minus1", "S01", "S02", "S2", "S3", "S03", "S11",
              "hessian", "hessian2", "exact_holo", "exact_pluri",
              "W_psd", "S5_probe")

FORM_SUITES = ("S1", "S_minus1", "S01", "S2", "S3", "S03", "S11", "hessian")
TRACE_SUITES = ("S02", "hessian2")
EXACT_VARIANTS = ("exact_holo", "exact_pluri")

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


def suite_applicable(suite: str, pair: PairContext) -> tuple[bool, str]:
    """Routing: which suites make sense for which map/metric types."""
    f = pair.f
    if suite in ("S1", "S01", "S02", "S2", "S3", "S03", "exact_holo", "S5_probe"):
        if not f.holomorphic:
            return False, "requires a holomorphic map"
        if not pair.target_is_complex:
            return False, "requires a complex target"
        return True, ""
    if suite == "S_minus1":
        if not f.holomorphic or not f.target_is_complex or f.n != 1:
            return False, "requires a holomorphic function to C"
        return True, ""
    if suite in ("S11", "hessian", "hessian2", "exact_pluri"):
        if pair.target_is_complex:
            return False, "requires a Riemannian target"
        if not pair.pluriharmonic:
            return False, "map is not pluri-harmonic"
        return True, ""
    if suite == "W_psd":
        if f.holomorphic and pair.target_is_complex:
            return True, ""
        if not pair.target_is_complex:
            if pair.pluriharmonic:
                return True, ""
            return False, "map is neither holomorphic nor pluri-harmonic"
        return False, "requires holomorphic or pluri-harmonic input"
    raise ValidationError(f"unknown suite {suite!r}")


# ---------------------------------------------------------------------------
# shared assembly pieces

def _combined_dim(m: int) -> int:
    return m + max(m - 1, 0)


def _density_hessian_sides(f: ChartedMap, h: HermitianMetricField, g, Ps,
                           weight=None):
    """[(ddbar Y, (ddbar log H^{-1}) Y)] at the bundle points Ps, which share
    their fiber chart, and the tautological metric.  Y and log H take one
    stencil evaluation for all of Ps.

    Y is the generalized density, or Y_phi = e^phi Y when ``weight`` is given.
    """
    field = maps_mod.Y_field(f, h, g, Ps[0].chart_index, weight)
    return _hessian_sides(field, [P.combined() for P in Ps]), \
        TautologicalMetric(h, weight=weight)


def _hessian_sides(density, coords) -> list:
    """[(ddbar D, T D)] for the joint density field D at each row of coords,
    with T = -ddbar log of the metric D divides by.  Both, and D itself,
    come from one stencil evaluation for all rows."""
    jets = diffops.wirtinger_hessian(density, np.array(coords), backend="fd")
    # -ddbar log H as tautological_curvature forms it
    return [(L, Form11(-Form11(mixed).matrix).scaled(float(D)))
            for L, D, (_, _, mixed) in jets]


def _map_jets(f: ChartedMap, zs) -> list:
    """(df, f(z)) at each base point, f(z) from the Jacobian's dual pass."""
    return [(holo, fz) for holo, _, fz in map(f.jacobians, zs)]


def _s1_sides(f: ChartedMap, h: HermitianMetricField, g, Ps, weight=None):
    """What the S1 family and the exact identities share, at each of the
    bundle points Ps on one fiber chart: (ddbar Y, (ddbar log H^{-1}) Y,
    -C/H, H, (df, f(z))), with C the target curvature term embedded in the
    base block of the combined chart."""
    sides, tm = _density_hessian_sides(f, h, g, Ps, weight)
    jets = _map_jets(f, [P.z for P in Ps])
    curvatures = _target_curvature(g, np.array([fz for _, fz in jets]))
    out = []
    for P, (lhs, taut), jet, (K, _) in zip(Ps, sides, jets, curvatures):
        H_val = tm.H_value(P)
        C = _embed_base_block(_target_curvature_term(K, jet[0], P.W_affine), f.m,
                              _combined_dim(f.m))
        out.append((lhs, taut, C.scaled(-1.0 / H_val), H_val, jet))
    return out


def _embed_base_block(C: np.ndarray, m: int, dim: int) -> Form11:
    return Form11.embed(C, list(range(m)), dim)


def _target_curvature(g, ps) -> list:
    """(K, g) at each point of the stack ps: the target curvature as
    K[k, l, i, j], with (k, l) paired with df and conj(df) and (i, j) with F
    and conj(F), and the checked metric matrix there.  K is the Chern tensor
    of a Hermitian g, the Riemann tensor R_{kjil} of a Riemannian one.  One
    metric jet serves the whole stack."""
    if isinstance(g, HermitianMetricField):
        return [(t.array, t.metric_value) for t in chern_curvature(g, ps)]
    return [(t.array.transpose(0, 3, 2, 1), t.metric_value)
            for t in riemann_curvature(g, ps)]


def _target_curvature_term(K: np.ndarray, holo: np.ndarray, W: np.ndarray) -> np.ndarray:
    """The target curvature K (as ``_target_curvature`` gives it) contracted
    with df and F = df W,

        C_{a bbar} = K_{k lbar i jbar} f^k_a conj(f^l_b) F^i conj(F^j).

    For a map into a real chart conj(f^l_b) is f^l_{bbar}.
    """
    F = holo @ W
    C = np.einsum("klij,ka,lb,i,j->ab", K, holo, holo.conj(), F, F.conj())
    _require_hermitian(C, "target curvature term")
    return C


def _require_hermitian(C: np.ndarray, what: str):
    scale = max(1.0, float(np.max(np.abs(C))))
    defect = float(np.max(np.abs(C - C.conj().T)))
    if not defect <= 1e-8 * scale:      # a NaN defect fails too
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
                    weight=None, *, jet=None, connection=None) -> Form11:
    """The semi-positive (1,1)-form W on P(T_M),

        W = g_{ij} (dF^i + F^i dlog H^{-1} + T^i) wedge conj( ... )

    with F^i = f^i_a W^a and the connection correction T^i built from the
    target's connection (``maps.target_christoffels``): Chern for a complex
    target, which needs a holomorphic map, Levi-Civita for a Riemannian one.
    ``jet`` is (df, f(z)) at P.z and ``connection`` the target's (g,
    Christoffel symbols) at f(z) (``maps.target_christoffels``), when the
    caller has them already; g(f(z)) is the matrix the connection's jet
    holds, not a rule call of its own.
    Positive semidefinite by construction; certified spectrally by callers.
    """
    if isinstance(g, HermitianMetricField) and not f.holomorphic:
        raise ValidationError("the W form into a complex target needs a "
                              "holomorphic map")

    m, n = f.m, f.n
    dim = _combined_dim(m)
    holo, fz = jet if jet is not None else _map_jets(f, [P.z])[0]
    sec = f.second_holo(P.z)
    W_aff = P.W_affine
    F = holo @ W_aff
    G, gamma = connection if connection is not None \
        else maps_mod.target_christoffels(g, fz)
    T_base = np.einsum("ipk,k,pa->ia", gamma, F, holo)

    tm = TautologicalMetric(h, weight=weight)
    logH = tm.log_H_field(P.chart_index)
    dlogH = diffops.wirtinger_gradient(logH, P.combined(), backend="dual")

    fiber_idx = [a for a in range(m) if a != P.chart_index]
    V = np.zeros((n, dim), complex)
    for i in range(n):
        V[i, :m] = sec[i] @ W_aff + T_base[i]
        for s, a in enumerate(fiber_idx):
            V[i, m + s] = holo[i, a]
        V[i, :] += F[i] * (-dlogH)
    Wmat = np.einsum("ij,iA,jB->AB", G, V, V.conj())
    return Form11(Wmat)


def _w_forms(f: ChartedMap, h: HermitianMetricField, g, Ps, weight=None,
             jets=None) -> list:
    """The W form at each of the bundle points Ps; the target's Christoffel
    symbols at every f(z) come from one stacked call.  ``jets`` are the
    (df, f(z)) at the Ps when the caller has them already."""
    if jets is None:
        jets = _map_jets(f, [P.z for P in Ps])
    connections = maps_mod.target_christoffels(g, np.array([fz for _, fz in jets]))
    return [assemble_W_form(f, h, g, P, weight, jet=jet, connection=connection)
            for P, jet, connection in zip(Ps, jets, connections)]


# ---------------------------------------------------------------------------
# exact identities

def verify_exact_identity(variant: str, f: ChartedMap, h: HermitianMetricField,
                          g, P: BundlePoint, weight=None) -> dict:
    """Two-route comparison of the full Hessian identity for the density.

    LHS: black-box mixed Hessian of Y (or Y_phi) on the (z, w) chart.
    RHS: (ddbar log H^{-1}) Y + W/H - [curvature term]/H, assembled from the
    tautological curvature, the W form and a curvature contraction.
    Returns the entrywise residual relative to max(1, ||LHS||).
    """
    return _exact_identities(variant, f, h, g, [P], weight)[0]


def _exact_identities(variant, f, h, g, Ps, weight=None) -> list:
    """``verify_exact_identity`` at bundle points Ps on one fiber chart."""
    if variant not in EXACT_VARIANTS:
        raise ValidationError(f"unknown exact-identity variant {variant!r}")
    complex_target = isinstance(g, HermitianMetricField)
    if variant == "exact_holo" and not (f.holomorphic and complex_target):
        raise NotApplicable("exact_holo needs a holomorphic map into a complex target")
    if variant == "exact_pluri" and complex_target:
        raise NotApplicable("exact_pluri needs a Riemannian target")

    sides = _s1_sides(f, h, g, Ps, weight)
    Wforms = _w_forms(f, h, g, Ps, weight, jets=[jet for *_, jet in sides])
    out = []
    for (lhs, taut, minus_C, H_val, _), Wform in zip(sides, Wforms):
        rhs = taut + Wform.scaled(1.0 / H_val) + minus_C
        scale = max(1.0, lhs.max_abs())
        resid = float(np.max(np.abs(lhs.matrix - rhs.matrix))) / scale
        out.append({
            "residual": resid,
            "scale": scale,
            "lhs": lhs,
            "rhs": rhs,
            "w_min_eigenvalue": Wform.min_eigenvalue(),
        })
    return out


# ---------------------------------------------------------------------------
# form inequalities

def _s01_sides(f: ChartedMap, h: HermitianMetricField, g, zs) -> list:
    """[(ddbar u, RHS matrix, h^{a bbar})] of the base-chart Hessian
    estimates at each of the base points zs: S01 for a complex target, its
    pluri-harmonic analogue (hessian) for a Riemannian one.  The trace
    suites contract both sides with the returned h^{a bbar}.  The RHS is

        R^h_{a bbar g dbar} h^{m dbar} h^{g nbar} g_{ij} f^i_m conj(f^j_n)
            - K_{k lbar i jbar} f^k_a conj(f^l_b) h^{m nbar} f^i_m conj(f^j_n).
    """
    zs = np.asarray(zs, complex)
    # one stencil gives ddbar u and the jet of h behind the source Chern tensor
    u_jets = diffops.wirtinger_hessian(maps_mod.u_field(f, h, g), zs, backend="fd")
    Hs = h.check_stack(np.array([H for _, _, (H, _, _) in u_jets]), zs)
    source = [_chern_tensor(H, dz, mixed, z)
              for H, (_, _, (_, dz, mixed)), z in zip(Hs, u_jets, zs)]
    jets = _map_jets(f, zs)
    target = _target_curvature(g, np.array([fz for _, fz in jets]))
    out = []
    for (L, _, _), H, Rh, (holo, _), (K, G) in zip(u_jets, Hs, source, jets, target):
        holo_bar = holo.conj()
        hup = np.linalg.inv(H).conj()
        P_mat = np.einsum("ij,im,jn->mn", G, holo, holo_bar)
        E = np.einsum("mn,km,ln->kl", hup, holo, holo_bar)
        second = np.einsum("ijkl,ia,jb,kl->ab", K, holo, holo_bar, E)
        first = np.einsum("abgd,md,gn,mn->ab", Rh.array, hup, hup, P_mat)
        _require_hermitian(first, "source curvature term")
        _require_hermitian(second, "target curvature term")
        out.append((L, first - second, hup))
    return out


def verify_form_inequality(suite: str, f: ChartedMap, h: HermitianMetricField,
                           g, point, phi=None) -> dict:
    """Min eigenvalue of LHS - RHS for one of the form-inequality suites.

    ``point`` is a BundlePoint for the projective-bundle suites (S1 family), a
    NestedBundlePoint for S3 and a base point for S01/hessian.
    """
    return _form_inequalities(suite, f, h, g, [point], phi)[0]


def _form_inequalities(suite, f, h, g, pts, phi=None) -> list:
    """``verify_form_inequality`` at points of one kind that share their
    fiber charts, each fd field taking one stencil evaluation for all."""
    if suite not in FORM_SUITES:
        raise ValidationError(f"{suite!r} is not a form-inequality suite")

    if suite == "S_minus1":
        sides, _ = _density_hessian_sides(f, h, _flat_scalar_target(), pts)

    elif suite in ("S1", "S03", "S11"):
        sides = [(lhs, taut + minus_C) for lhs, taut, minus_C, _, _
                 in _s1_sides(f, h, g, pts, phi if suite == "S03" else None)]

    elif suite in ("S01", "hessian"):
        zs = [pt.z if isinstance(pt, BundlePoint) else pt for pt in pts]
        sides = [(lhs, Form11(rhs_mat)) for lhs, rhs_mat, _ in _s01_sides(f, h, g, zs)]

    elif suite == "S2":
        Qs: list[BundlePoint] = pts     # fiber coordinates are the covector X
        tm1 = _covector_tautological(f, g)
        y1_sides = _hessian_sides(maps_mod.Y1_field(f, h, g, Qs[0].chart_index),
                                  [Q.combined() for Q in Qs])
        source = chern_curvature(h, np.array([Q.z for Q in Qs]))
        dim = f.m + max(f.n - 1, 0)
        sides = []
        for Q, (L, T), Rh in zip(Qs, y1_sides, source):
            holo = f.jacobians(Q.z)[0]
            X = Q.W_affine
            hup = np.linalg.inv(Rh.metric_value).conj()
            C = np.einsum("abgd,gn,md,km,ln,k,l->ab", Rh.array, hup, hup,
                          holo, holo.conj(), X, X.conj())
            _require_hermitian(C, "source curvature term")
            H1_val = tm1.H_raw(Q)
            sides.append((L, T + _embed_base_block(C, f.m, dim).scaled(1.0 / H1_val)))

    elif suite == "S3":
        Rs: list[NestedBundlePoint] = pts
        m, n = f.m, f.n
        dim = m + max(m - 1, 0) + max(n - 1, 0)
        zw_idx = list(range(m + max(m - 1, 0)))
        zx_idx = list(range(m)) + list(range(m + max(m - 1, 0), dim))

        # the two tautological curvatures keep their own stencils: they live
        # on the (z, w) and (z, x) sub-charts, whose fd steps are those of
        # the nested chart only when m, n > 1
        y2 = maps_mod.Y2_field(f, h, g, Rs[0].P.chart_index, Rs[0].x_chart_index)
        lhs = diffops.wirtinger_hessian(y2, np.array([R.combined() for R in Rs]),
                                        backend="fd")
        curv = tautological_curvature(TautologicalMetric(h), [R.P for R in Rs])
        Qs = [BundlePoint.make(R.P.z, R.X, R.x_chart_index) for R in Rs]   # (z, [X])
        curv1 = tautological_curvature(_covector_tautological(f, g), Qs)
        sides = [(L, (Form11.embed(T.matrix, zw_idx, dim) + Form11.embed(T1.matrix, zx_idx, dim))
                  .scaled(float(D)))
                 for (L, D, _), T, T1 in zip(lhs, curv, curv1)]

    else:
        raise ValidationError(f"unhandled suite {suite!r}")

    out = []
    for lhs, rhs in sides:
        residual = lhs - rhs
        out.append({
            "min_eigenvalue": residual.min_eigenvalue(),
            "scale": max(1.0, lhs.max_abs()),
            "lhs": lhs,
            "rhs": rhs,
            "residual_form": residual,
        })
    return out


def _covector_tautological(f: ChartedMap, g: HermitianMetricField) -> TautologicalMetric:
    """H1 through the same machinery as H, with g^{k lbar}(f(z)) as the input."""
    return TautologicalMetric(maps_mod.covector_metric_field(f, g))


# ---------------------------------------------------------------------------
# trace inequalities

def verify_trace_inequality(suite: str, f: ChartedMap, h: HermitianMetricField,
                            g, z) -> dict:
    """Signed scalar residual tr(LHS) - tr(RHS) for the trace suites."""
    return _trace_inequalities(suite, f, h, g, [z])[0]


def _trace_inequalities(suite, f, h, g, zs) -> list:
    """``verify_trace_inequality`` at each of the base points zs."""
    if suite not in TRACE_SUITES:
        raise ValidationError(f"{suite!r} is not a trace suite")
    out = []
    for lhs_form, rhs_mat, hup in _s01_sides(f, h, g, zs):
        lhs = float(np.real(np.einsum("ab,ab->", hup, lhs_form.matrix)))
        rhs = float(np.real(np.einsum("ab,ab->", hup, rhs_mat)))
        scale = max(1.0, abs(lhs), abs(rhs))
        out.append({"residual": lhs - rhs, "lhs": lhs, "rhs": rhs, "scale": scale})
    return out


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
    if not np.all(np.max(np.abs(Ws), axis=1) > 0):
        raise ValidationError("probe fiber directions must be nonzero vectors")
    # one evaluator for all base points, on one stack of affine rows
    vals = maps_mod.Y_on_fiber(f, h, g, zs)(affine_rows(Ws))
    bad = np.argwhere(~np.isfinite(vals))
    if bad.size:
        i, j = bad[0]
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


def _histogram(values, bins: int = 10) -> tuple[list, list]:
    """(counts, edges) of ``bins`` equal bins over the range of a nonempty
    list of finite floats, equal bit for bit to ``np.histogram(values,
    bins)`` without its fixed cost on the few residuals of a report.

    The edges are lo + i * step with the last one set to hi, as
    ``np.linspace`` makes them (with its own rule when step underflows to
    0); a range of one value is widened by 0.5 on both sides.  Each value
    goes to the bin its scaled offset truncates to, moved by one where it
    lands on the wrong side of an edge, and the last bin is closed on the
    right.  The range hi - lo must not overflow.  A range too narrow for
    distinct edges, which NumPy refuses with a ValueError, is counted too.
    """
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
    return {"z": _c2l(np.asarray(pt))}


def _c2l(arr) -> list:
    """[[re, im], ...] of the entries of arr as Python floats."""
    arr = np.asarray(arr).ravel()
    return np.stack([arr.real, arr.imag], axis=-1).astype(float).tolist()


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
        if suite not in SUITE_TAGS:
            raise ValidationError(f"unknown suite {suite!r}")
        t0 = time.perf_counter()
        rng = np.random.default_rng([seed, SUITE_TAGS.index(suite)])
        tolerances = {"tol_relative": tol_relative, "tol_exact": tol_exact,
                      "w_psd_tol": W_PSD_TOL}
        rep = VerificationReport(suite=suite, pair=pair.name, status="pass",
                                 seed=seed, samples=samples, tolerances=tolerances)
        try:
            ok, why = suite_applicable(suite, pair)
            if ok:
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


def _fiber_direction(rng, k: int) -> np.ndarray:
    """Gaussian complex k-vector, redrawn until its norm is at least 0.3."""
    V = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    while np.linalg.norm(V) < 0.3:
        V = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return V


def _draw_points(suite, pair, rng, samples):
    """Sample points of the kind the suite evaluates: a base point, a
    bundle point (z, [W]), a covector point (z, [X]) for S2 or a nested
    point (z, [W], [X]) for S3.  Draw order per sample: z, then W, then X."""
    f = pair.f
    pts = []
    for _ in range(samples):
        z = f.source.sample(rng, 0.5)
        if suite in ("S01", "hessian") or suite in TRACE_SUITES:
            pts.append(z)
        elif suite == "S2":
            pts.append(BundlePoint.make(z, _fiber_direction(rng, f.n)))
        elif suite == "S3":
            W = _fiber_direction(rng, f.m)
            pts.append(NestedBundlePoint.make(z, W, _fiber_direction(rng, f.n)))
        else:
            pts.append(BundlePoint.make(z, _fiber_direction(rng, f.m)))
    return pts


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
    f, h, g = pair.f, pair.h, pair.g
    if suite in FORM_SUITES:
        outs = _form_inequalities(suite, f, h, g, pts,
                                  phi=weight if suite == "S03" else None)
        return [(o["min_eigenvalue"], o["min_eigenvalue"] < -tol_relative * o["scale"],
                 o["residual_form"]) for o in outs]
    if suite in TRACE_SUITES:
        outs = _trace_inequalities(suite, f, h, g, pts)
        return [(o["residual"], o["residual"] < -tol_relative * o["scale"], None)
                for o in outs]
    if suite in EXACT_VARIANTS:
        outs = _exact_identities(suite, f, h, g, pts)
        return [(o["residual"], o["residual"] > tol_exact, None) for o in outs]
    values = [W.min_eigenvalue() for W in _w_forms(f, h, g, pts)]       # W_psd
    return [(value, value < -W_PSD_TOL, None) for value in values]


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
    if suite == "S5_probe":
        out = maximum_principle_probe(pair.f, pair.h, pair.g, *_probe_grid(pair),
                                      compact=pair.compact)
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
    # the worst sample has the largest residual for the exact identities and
    # the smallest for every lower-bound suite
    sign = 1.0 if suite in EXACT_VARIANTS else -1.0
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
