"""The sample axis of the engine: a stack of points gives, bit for bit,
what the points give one at a time (fd jets and map Jacobians), the fiber
density equals its per-point oracle bit for bit except in the cases named
as moving, which stay within ULP_BUDGET, and the runner's grouped pass
keeps every sample's outcome its own."""

import functools
import json

import numpy as np
import pytest

from projcurv import bundle, diffops, dual as gm, verify as V, zoo
from projcurv import maps as mp
from projcurv.bundle import (BundlePoint, TautologicalMetric, affine_rows,
                             tautological_curvature)
from projcurv.charts import ComplexChart, RealChart
from projcurv.errors import ChartDomainError
from projcurv.curvature import (_chern_tensor, chern_curvature,
                                levi_civita_christoffels, riemann_curvature)
from projcurv.fields import (Form11, HermitianMetricField, RiemannianMetricField,
                             ScalarField)
from projcurv.maps import ChartedMap, NestedBundlePoint

from conftest import ULP_BUDGET, assert_within_ulps, nan_on_right_half

STACK = 7


@functools.cache
def build_pair(name):
    if name != "fs3-to-ball3":
        return zoo.build_entry(name).obj
    h = zoo.build_entry("fubini-study", {"dim": 3, "radius": 0.9}).obj
    g = zoo.build_entry("poincare-ball", {"dim": 3, "radius": 0.38}).obj
    f = zoo.build_map("linear", {"matrix": (0.4 * np.eye(3)).tolist()}, h.chart, g.chart)
    return V.PairContext(f=f, h=h, g=g, name=name)


PAIRS = list(zoo.catalog_names()["map-pair"]) + ["fs3-to-ball3"]


def fiber_vector(rng, k, idx):
    """A direction in C^k whose largest coordinate is the idx-th."""
    W = 0.6 * (rng.uniform(-1, 1, k) + 1j * rng.uniform(-1, 1, k))
    W[idx] = 1.0
    return W


def same_jets(stacked, single):
    """The k-th slice of every stacked part equals the k-th single result."""
    for k, parts in enumerate(single):
        for got, want in zip(stacked, parts):
            if want is None:
                assert got is None
            else:
                assert np.array_equal(got[k], want), k


def hessian_parts(out):
    """The arrays of a wirtinger_hessian result at one point: the Form11's
    matrix, and for a joint field the density's value and the rider's
    value, dz and mixed jets."""
    if isinstance(out, tuple):
        form, D, (R, dz, mixed) = out
        return [form.matrix, D, R, dz, mixed]
    return [out.matrix]


@pytest.mark.parametrize("name", PAIRS)
def test_stacked_jets_equal_per_point_jets(name):
    p = build_pair(name)
    f, h, g = p.f, p.h, p.g
    m, n = f.m, f.n
    rng = np.random.default_rng(11)
    zs = np.array([f.source.sample(rng, 0.5) for _ in range(STACK)])
    w_idx, x_idx = m - 1, n - 1
    Ps = [BundlePoint.make(z, fiber_vector(rng, m, w_idx)) for z in zs]
    assert all(P.chart_index == w_idx for P in Ps)

    # the scalar fields whose Hessians the suites take
    fields = [(mp.Y_field(f, h, g, w_idx), [P.combined() for P in Ps]),
              (mp.u_field(f, h, g), list(zs)),
              (TautologicalMetric(h).log_H_field(w_idx), [P.combined() for P in Ps])]
    if f.holomorphic and p.target_is_complex:
        Xs = [fiber_vector(rng, n, x_idx) for _ in range(STACK)]
        Qs = [BundlePoint.make(z, X) for z, X in zip(zs, Xs)]
        Rs = [NestedBundlePoint.make(P.z, P.W, X) for P, X in zip(Ps, Xs)]
        fields += [(mp.Y1_field(f, h, g, x_idx),
                    [np.concatenate([Q.z, Q.w]) if n > 1 else Q.z for Q in Qs]),
                   (mp.Y2_field(f, h, g, w_idx, x_idx), [R.combined() for R in Rs])]
    for field, points in fields:
        stack = np.array(points)
        same_jets(diffops._real_jet(field.rule, field.chart, stack, "fd"),
                  [[part[0] for part in diffops._real_jet(field.rule, field.chart, x, "fd")]
                   for x in points])
        for got, x in zip(diffops.wirtinger_hessian(field, stack), points):
            for a, b in zip(hessian_parts(got),
                            hessian_parts(diffops.wirtinger_hessian(field, x))):
                assert np.array_equal(a, b), field.name

    # the metric jets, at the base points and at their images
    fzs = np.array([f.value(z) for z in zs])
    for metric, points in ((h, zs), (g, fzs)):
        for order in (1, 2):
            same_jets(diffops.matrix_jet(metric, points, order=order),
                      [diffops.matrix_jet(metric, x, order=order) for x in points])
        if isinstance(metric, HermitianMetricField):
            for got, x in zip(chern_curvature(metric, points), points):
                assert np.array_equal(got.array, chern_curvature(metric, x).array)
        else:
            for got, x in zip(riemann_curvature(metric, points), points):
                assert np.array_equal(got.array, riemann_curvature(metric, x).array)
            for (G, Gamma), x in zip(levi_civita_christoffels(metric, points), points):
                want_G, want_Gamma = levi_civita_christoffels(metric, x)
                assert np.array_equal(G, want_G) and np.array_equal(Gamma, want_Gamma)
    for got, P in zip(tautological_curvature(TautologicalMetric(h), Ps), Ps):
        assert np.array_equal(got.matrix,
                              tautological_curvature(TautologicalMetric(h), P).matrix)


@pytest.mark.parametrize("name", PAIRS)
def test_a_metric_matrix_is_its_stack_of_one(name):
    # plain values are one rule call per point on Python numbers, so a
    # point's matrix is its row of any stack, bit for bit
    p = build_pair(name)
    zs = p.h.chart.sample(np.random.default_rng(9), count=STACK)
    fzs = np.array([p.f.value(z) for z in zs])
    for metric, points in ((p.h, zs), (p.g, fzs)):
        stack = metric.matrices(points)
        dtype = complex if isinstance(metric, HermitianMetricField) else float
        assert stack.dtype == metric.matrix(points[0]).dtype == dtype
        for k, x in enumerate(points):
            assert np.array_equal(metric.matrix(x), stack[k])
            assert np.array_equal(metric.matrix(x), metric.matrices(x[None])[0])


def alone(field):
    """The density of a joint field as a field of its own."""
    return ScalarField(field.chart, field.rule, field.name)


@pytest.mark.parametrize("count", [1, STACK])
@pytest.mark.parametrize("name", PAIRS)
def test_joint_jets_equal_the_separate_calls(name, count):
    # one stencil for a density and the metric it divides by gives, bit for
    # bit, the density Hessian and the curvature the separate calls give
    p = build_pair(name)
    f, h, g = p.f, p.h, p.g
    m, n = f.m, f.n
    rng = np.random.default_rng(13)
    zs = np.array([f.source.sample(rng, 0.5) for _ in range(count)])
    Ps = [BundlePoint.make(z, fiber_vector(rng, m, m - 1)) for z in zs]
    cases = []
    for weight in (None, V._default_phi):
        field = mp.Y_field(f, h, g, m - 1, weight)
        assert field.name == ("generalized_density" if weight is None
                              else "weighted_generalized_density")
        cases.append((field, Ps, TautologicalMetric(h, weight=weight)))
    if f.holomorphic and p.target_is_complex:
        Qs = [BundlePoint.make(z, fiber_vector(rng, n, n - 1)) for z in zs]
        cases.append((mp.Y1_field(f, h, g, n - 1), Qs, V._covector_tautological(f, g)))
    for field, pts, tm in cases:
        coords = np.array([P.combined() for P in pts])
        joint = diffops.wirtinger_hessian(field, coords)
        density = diffops.wirtinger_hessian(alone(field), coords)
        # the density's value is its own stencil's centre column
        values = diffops._real_jet(field.rule, field.chart, coords, "fd")[0].real
        taut = tautological_curvature(tm, pts)
        assert len(joint) == len(density) == len(taut) == count
        for (L, D, (_, _, mixed)), want_L, want_D, want_T in zip(joint, density, values,
                                                                 taut):
            assert np.array_equal(L.matrix, want_L.matrix), field.name
            assert D == want_D, field.name
            assert np.array_equal(Form11(-Form11(mixed).matrix).matrix,
                                  want_T.matrix), field.name

    u = mp.u_field(f, h, g)
    joint = diffops.wirtinger_hessian(u, zs)
    density = diffops.wirtinger_hessian(alone(u), zs)
    M, dz, mixed = diffops.matrix_jet(h, zs)
    for k, (z, (L, _, jet)) in enumerate(zip(zs, joint)):
        assert np.array_equal(L.matrix, density[k].matrix)
        assert all(np.array_equal(a, b[k]) for a, b in zip(jet, (M, dz, mixed)))
        assert np.array_equal(_chern_tensor(*jet, z).array, chern_curvature(h, z).array)


def test_a_map_off_the_source_metric_chart_is_rejected():
    # u and Y read h and f on one stencil, so f must live on h's chart
    p = build_pair("fs-to-poincare")
    for chart in (ComplexChart(dim=1, radius=[0.4], name="smaller"),
                  ComplexChart(dim=1, center=[0.05], radius=p.h.chart.radius)):
        f = ChartedMap(chart, p.g.chart, p.f.rule, holomorphic=True, name="moved")
        with pytest.raises(V.ValidationError, match="not the chart of the source metric"):
            V.PairContext(f=f, h=p.h, g=p.g)
        with pytest.raises(V.ValidationError, match="not the chart of the source metric"):
            V.verify_form_inequality("S01", f, p.h, p.g, chart.center)
    same = ComplexChart(dim=1, radius=p.h.chart.radius, name="copy")
    V.PairContext(f=ChartedMap(same, p.g.chart, p.f.rule, holomorphic=True),
                  h=p.h, g=p.g)


def test_a_stack_must_share_its_fiber_chart():
    p = build_pair("fs2-to-ball")
    z = p.f.source.center
    Ps = [BundlePoint.make(z, [1.0, 0.5]), BundlePoint.make(z, [0.5, 1.0])]
    with pytest.raises(V.ValidationError, match="one fiber chart"):
        tautological_curvature(TautologicalMetric(p.h), Ps)


def one_at_a_time(monkeypatch):
    """Make the runner evaluate every sample alone."""
    monkeypatch.setattr(V, "_sample_groups", lambda pts: [[k] for k in range(len(pts))])


def report_json(reports):
    return [json.dumps(rep.to_dict(), sort_keys=True) for rep in reports]


@pytest.mark.parametrize("name,seed", [("fs-to-poincare", 0), ("pluri-poincare", 1),
                                       ("fs2-to-ball", 2), ("pluri-m2-flat", 3)])
def test_grouped_runs_equal_one_sample_evaluations(monkeypatch, name, seed):
    p = build_pair(name)
    p.pluriharmonic
    sizes = []
    groups = V._sample_groups

    def recorded(pts):
        out = groups(pts)
        sizes.append([len(grp) for grp in out])
        return out

    monkeypatch.setattr(V, "_sample_groups", recorded)
    grouped = V.run_suite(p, V.SUITE_TAGS, samples=5, seed=seed)
    one_at_a_time(monkeypatch)
    alone = V.run_suite(p, V.SUITE_TAGS, samples=5, seed=seed)
    assert report_json(grouped) == report_json(alone)
    assert any(rep.status == "pass" for rep in grouped)
    if p.f.m == 1:
        # one group of every sample
        assert sizes and all(s == [5] for s in sizes)
    else:
        # the drawn samples fall on more than one fiber chart
        assert any(len(s) > 1 for s in sizes)


def shrunk_target_pair():
    """fs-to-poincare with the map scaled so that part of the sampled
    source region maps outside the target chart."""
    base = build_pair("fs-to-poincare")
    f = ChartedMap(base.h.chart, base.g.chart, lambda z: (3.0 * z[0],),
                   holomorphic=True, name="overshoot", validate_on_init=False)
    return V.PairContext(f=f, h=base.h, g=base.g, name="overshoot")


def half_nan_pair():
    base = build_pair("fs-to-poincare")
    f = ChartedMap(base.h.chart, base.g.chart,
                   lambda z: (0.4 * z[0] * nan_on_right_half(z[0]),),
                   holomorphic=True, name="half-nan", validate_on_init=False)
    return V.PairContext(f=f, h=base.h, g=base.g, name="half-nan")


# the suites that evaluate the target at f(z), and every holomorphic suite
@pytest.mark.parametrize("make,suites", [
    (shrunk_target_pair, ["S1", "S01", "S02", "exact_holo", "W_psd"]),
    (half_nan_pair, ["S1", "S01", "S02", "S2", "S3", "exact_holo", "W_psd"])])
def test_a_failing_sample_is_its_own_error(monkeypatch, make, suites):
    p = make()
    with np.errstate(invalid="ignore", divide="ignore"):
        grouped = V.run_suite(p, suites, samples=8, seed=4)
        one_at_a_time(monkeypatch)
        alone = V.run_suite(p, suites, samples=8, seed=4)
    assert report_json(grouped) == report_json(alone)
    for rep in grouped:
        bad = [k for k, r in enumerate(rep.residuals) if not np.isfinite(r)]
        assert rep.status == "error" and bad and len(bad) < 8, rep.suite
        assert f"at sample {bad[0]}, point {rep.points[bad[0]]}" in rep.message


def test_nan_inside_a_stacked_pass_stays_with_its_sample():
    # the middle point lies left of the NaN half-plane, so no check sees a
    # NaN at it, but its stencil reaches across: only its Hessian is NaN,
    # and the pass raises nothing
    p = half_nan_pair()
    step = diffops.step_for(p.f.source)
    zs = [np.array([-0.2 + 0.1j]), np.array([-0.5 * step + 0.05j]), np.array([-0.1 - 0.2j])]
    Ps = [BundlePoint.make(z, [1.0]) for z in zs]
    with np.errstate(invalid="ignore", divide="ignore"):
        stacked = V._evaluate("S1", p, Ps, V._default_phi, 1e-6, 1e-4)
        alone = [V._evaluate("S1", p, [P], V._default_phi, 1e-6, 1e-4)[0] for P in Ps]
    values = [out[0] for out in stacked]
    assert np.isnan(values[1])
    assert np.isfinite(values[0]) and np.isfinite(values[2])
    assert [out[0] for out in alone][::2] == values[::2]
    assert not stacked[1][1]            # a NaN never violates a band...
    rep = V.VerificationReport(suite="S1", pair=p.name, status="pass", seed=0,
                               samples=3, tolerances={})
    for k, (value, violated, _) in enumerate(stacked):
        V._record_sample(rep, k, Ps[k], value, violated)
    assert rep.status == "error"        # ...and never passes
    assert rep.message.startswith("non-finite residual nan at sample 1")


# ---------------------------------------------------------------------------
# the fiber density over a stack of base points

def fiber_oracle(f, h, g, z, rows, holo=None):
    """Y over one base point from per-point scalar calls (``holo`` is
    ``f.jacobians(z)[0]`` when given) and the per-point contraction: the
    evaluator the S5 probe called once per base point."""
    if holo is None:
        holo = f.jacobians(z)[0]
    G = g.matrix(f.value(z))
    Hm = h.matrix(z)
    F = (holo @ rows[:, :, None])[:, :, 0]
    num = np.einsum("ij,ni,nj->n", G, F, F.conj())
    H = np.einsum("gd,ng,nd->n", Hm, rows, rows.conj())
    return np.real(num) / np.real(H)


# Where the fiber density moves against the per-point oracle, with the most
# ulps measured; every other case is bit for bit.  The stacked f(z) comes
# from array arithmetic in the dual slots, which may round differently from
# the point alone (in ulps of the value's largest entry, as an entry may
# cancel to ~0), and the density's two matrix products group their sums by
# the stack's shape.
FZ_STACK_MOVES = {"disc-square-to-poincare": 0.5, "pluri-flat3": 0.5, "pluri-m2-flat": 0.2}
LATTICE_MOVES = {"fs2-to-ball": 2, "hopf-function": 2, "pluri-m2-flat": 3, "fs3-to-ball3": 4}
# at one point and one row: h(z) conj(W) is summed before its pairing with
# W, where the oracle sums the three-factor products (m = 3 only)
SINGLE_POINT_MOVES = {"fs3-to-ball3": 1}


def assert_matches(got, want, moves):
    """Bit for bit, or within ULP_BUDGET where a case is measured to move."""
    if moves:
        assert_within_ulps(got, want)
    else:
        assert np.array_equal(got, want)


@pytest.mark.parametrize("name", PAIRS)
def test_the_probe_lattice_equals_the_per_point_oracle(name):
    p = build_pair(name)
    f, h, g = p.f, p.h, p.g
    zs, Ws = V._probe_grid(p)
    rows = affine_rows(Ws)
    holo, anti, fz = f.jacobians(zs)
    assert holo.shape == anti.shape == (len(zs), f.n, f.m)
    assert fz.shape == (len(zs), f.n)
    want = []
    for k, z in enumerate(zs):
        want_holo, want_anti, want_fz = f.jacobians(z)
        assert np.array_equal(holo[k], want_holo) and np.array_equal(anti[k], want_anti)
        # f(z) from the dual pass is the plain call at a point, bit for bit
        assert np.array_equal(want_fz, f.value(z))
        if name in FZ_STACK_MOVES:
            assert np.max(np.abs(fz[k] - want_fz)) <= \
                ULP_BUDGET * np.spacing(np.max(np.abs(want_fz)))
        else:
            assert np.array_equal(fz[k], want_fz)
        want.append(fiber_oracle(f, h, g, z, rows, want_holo))
    got = mp.Y_on_fiber(f, h, g, zs)(rows)
    assert got.shape == (len(zs), len(rows))
    assert_matches(got, np.array(want), name in LATTICE_MOVES)
    # single rows over single base points: the first, a middle and the last;
    # a point and its stack of one are the same evaluation, bit for bit
    moves = name in SINGLE_POINT_MOVES
    for z in zs[[0, len(zs) // 2, -1]]:
        for W in rows:
            want = fiber_oracle(f, h, g, z, W[None])
            one = mp.Y_on_fiber(f, h, g, z)(W[None])
            assert_matches(one, want, moves)
            assert np.array_equal(mp.Y_on_fiber(f, h, g, z[None])(W[None]), one[None])
            Y = mp.generalized_Y(f, h, g, BundlePoint.make(z, W))
            assert Y == one[0]
            assert_matches(Y, want[0], moves)


# the pushforward base points of the fiber_density benchmark workload:
# pair -> (its index in the plan, quadrature order); 16 points per pair
PUSH_POOL = {"fs3-to-ball3": (0, 4), "fs2-to-ball": (1, 8)}


@pytest.mark.parametrize("name", PUSH_POOL)
def pool_points(name):
    """The 16 base points of the benchmark's pushforward pool for a pair."""
    index, _ = PUSH_POOL[name]
    chart = build_pair(name).h.chart
    return [chart.sample(np.random.default_rng([1810, index, k]), 0.5) for k in range(16)]


@pytest.mark.parametrize("name", PUSH_POOL)
def test_pushforward_nodes_equal_the_per_point_oracle(monkeypatch, name):
    p = build_pair(name)
    _, order = PUSH_POOL[name]
    integrate = bundle.fiber_integrate
    nodes = []

    def checked(H, density, **kwargs):
        assert np.array_equal(H, p.h.matrix(z))

        def values(Ws):
            got = density(Ws)
            # both pairs move: at most 6 ulps (fs3-to-ball3) and 3 (fs2-to-ball)
            assert_within_ulps(got, fiber_oracle(p.f, p.h, p.g, z, Ws))
            nodes.append(len(Ws))
            return got
        return integrate(H, values, **kwargs)

    monkeypatch.setattr(bundle, "fiber_integrate", checked)
    for z in pool_points(name):
        bundle.pushforward_energy_check(p.f, p.h, p.g, z, order=order, tol=1e-6)
    # both quadrature orders at every base point, in one density call
    assert len(nodes) == 16 and len(set(nodes)) == 1


@pytest.mark.parametrize("name", PUSH_POOL)
def test_pushforward_equals_the_public_composition(name):
    # the check evaluates df, f(z), g(f(z)) and h(z) once for Y, the fiber
    # metric and u, and gives bit for bit what the public calls give
    p = build_pair(name)
    _, order = PUSH_POOL[name]
    for z in pool_points(name):
        pushed, u, resid = bundle.pushforward_energy_check(p.f, p.h, p.g, z, order=order,
                                                           tol=1e-6)
        want = p.h.dim * bundle.fiber_integrate(p.h.matrix(z), mp.Y_on_fiber(p.f, p.h, p.g, z),
                                                order=order, tol=1e-6)
        assert pushed == want
        assert u == mp.classical_energy_density(p.f, p.h, p.g, z)
        assert resid == abs(want - u)


def test_a_stack_fails_the_margin_at_its_first_failing_row():
    # the same ChartDomainError as the failing point alone, with each of the
    # stacked entry points
    p = build_pair("fs2-to-ball")
    f = p.f
    r = f.source.radius[0]
    zs = np.array([[0.1, 0.2j], [r, 0.0], [0.0, np.nan], [-r, 0.0]], complex)
    with pytest.raises(ChartDomainError) as alone:
        f.jacobians(zs[1])
    assert "too close to boundary" in str(alone.value)
    for call in (f.jacobians, lambda zs: mp.Y_on_fiber(f, p.h, p.g, zs)):
        with pytest.raises(ChartDomainError) as stacked:
            call(zs)
        assert str(stacked.value) == str(alone.value)
    with pytest.raises(ChartDomainError, match="not a finite point"):
        f.jacobians(zs[[0, 2, 3]])


def failing_rule(kind, real):
    """A one-entry-per-dimension metric rule that is NaN (kind "nan") or
    negative (kind "neg") where the real part of the first coordinate
    exceeds 0.3, on numbers and on stencil arrays alike."""
    def rule(z):
        x = gm.real(z[0])
        a = np.where(x > 0.3, np.nan, 1.0) if kind == "nan" else 1.0 - 2.5 * x
        return [[a, 0.0], [0.0, a]] if real else [[a + 0j]]

    return rule


@pytest.mark.parametrize("kind,what", [("nan", "has non-finite entries at"),
                                       ("neg", "not positive definite at")])
@pytest.mark.parametrize("entry", ["chern", "riemann", "S01"])
def test_a_stack_fails_the_metric_check_at_its_first_failing_row(entry, kind, what):
    # the metric is checked at the stencil centres of its jet, once for the
    # stack; the error is the one the first failing point gives alone
    real = entry == "riemann"
    chart = (RealChart(dim=2, radius=[0.9, 0.9]) if real
             else ComplexChart(dim=1, radius=[0.9]))
    cls = RiemannianMetricField if real else HermitianMetricField
    metric = cls(chart, failing_rule(kind, real), name="bad", validate_on_init=False)
    points = np.array([[0.0, 0.1], [0.5, 0.0], [0.6, 0.0]]) if real \
        else np.array([[0.1j], [0.5 + 0.1j], [0.6]])
    if entry == "chern":
        call = functools.partial(chern_curvature, metric)
    elif entry == "riemann":
        call = functools.partial(riemann_curvature, metric)
    else:
        flat = HermitianMetricField(ComplexChart(dim=1, radius=[2.0]), lambda z: [[1.0 + 0j]],
                                    name="flat")
        f = ChartedMap(chart, flat.chart, lambda z: (0.5 * z[0],), holomorphic=True,
                       name="half", validate_on_init=False)

        def call(zs):
            return V._form_inequalities("S01", f, metric, flat, list(np.atleast_2d(zs)))
    with np.errstate(invalid="ignore"):
        with pytest.raises(V.ValidationError) as alone:
            call(points[1])
        with pytest.raises(V.ValidationError) as stacked:
            call(points)
    assert str(alone.value).startswith(f"metric 'bad' {what} ")
    assert str(stacked.value) == str(alone.value)
    call(points[:1])            # the first row alone passes
