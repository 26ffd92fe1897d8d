"""The sample axis of the engine: a stack of points gives, bit for bit,
what the points give one at a time (fd jets and map Jacobians), metric
matrices within ULP_BUDGET of it, the fiber density equals its per-point
oracle bit for bit except in the cases named as moving, which stay within
ULP_BUDGET, and the runner's grouped pass keeps every sample's outcome its
own."""

import functools
import json

import numpy as np
import pytest

from projcurv import bundle, diffops, dual as gm, verify as V, zoo
from projcurv import maps as mp
from projcurv.bundle import (BundlePoint, TautologicalMetric, affine_rows,
                             curvature_matrices, tautological_curvature)
from projcurv.charts import ComplexChart, RealChart
from projcurv.errors import ChartDomainError
from projcurv.curvature import (chern_arrays, chern_curvature,
                                levi_civita_christoffels, riemann_curvature)
from projcurv.fields import (Form11, HermitianMetricField, RiemannianMetricField,
                             ScalarField, embedded)
from projcurv.maps import ChartedMap, NestedBundlePoint

from conftest import (STACK_METRICS, ULP_BUDGET, assert_within_ulps,
                      compatible_christoffels, fiber_vector, nan_on_right_half,
                      stack_metric)

STACK = 7


# pairs built from zoo entries: (source dim, target, map matrix).  The zoo
# has no m = 3 pair, and its m = 1, n = 2 and m = 2, n = 1 pairs have flat
# or diagonal metrics there, whose exact zeros hide how a contraction
# groups its sums
LINEAR_PAIRS = {"fs3-to-ball3": (3, ("poincare-ball", {"dim": 3, "radius": 0.38}),
                                 0.4 * np.eye(3)),
                "line-in-ball": (1, ("poincare-ball", {"dim": 2, "radius": 0.38}),
                                 [[0.3], [0.2]]),
                "ball-to-disc": (2, ("poincare-disc", {}), [[0.3, 0.2]])}


@functools.cache
def build_pair(name):
    if name not in LINEAR_PAIRS:
        return zoo.build_entry(name).obj
    m, target, matrix = LINEAR_PAIRS[name]
    h = zoo.build_entry("fubini-study", {"dim": m, "radius": 0.9}).obj
    g = zoo.build_entry(*target).obj
    f = zoo.build_map("linear", {"matrix": np.asarray(matrix).tolist()}, h.chart, g.chart)
    return V.PairContext(f=f, h=h, g=g, name=name)


PAIRS = list(zoo.catalog_names()["map-pair"]) + ["fs3-to-ball3"]


def same_jets(stacked, single):
    """The k-th slice of every stacked part equals the k-th single result."""
    for k, parts in enumerate(single):
        for got, want in zip(stacked, parts):
            if want is None:
                assert got is None
            else:
                assert np.array_equal(got[k], want), k


def hessian_parts(out):
    """The arrays of a mixed_hessians result: the Hessians, and for a joint
    field the density's values and the rider's value, dz and mixed jets,
    each with its sample axis first."""
    if isinstance(out, tuple):
        L, D, rider = out
        return [L, D, *rider]
    return [out]


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
        stacked = hessian_parts(diffops.mixed_hessians(field, stack))
        for k in range(len(stack)):
            one = hessian_parts(diffops.mixed_hessians(field, stack[k:k + 1]))
            assert all(np.array_equal(a[k], b[0]) for a, b in zip(stacked, one)), field.name

    # the metric jets, at the base points and at their images
    fzs = np.array([f.value(z) for z in zs])
    for metric, points in ((h, zs), (g, fzs)):
        for order in (1, 2):
            same_jets(diffops.matrix_jet(metric, points, order=order),
                      [diffops.matrix_jet(metric, x, order=order) for x in points])
        hermitian = isinstance(metric, HermitianMetricField)
        curvature = chern_curvature if hermitian else riemann_curvature
        stacked = curvature(metric, points)
        for k, x in enumerate(points):
            assert np.array_equal(stacked.array[k], curvature(metric, x).array)
        if not hermitian:
            G, Gamma = levi_civita_christoffels(metric, points)
            for k, x in enumerate(points):
                want_G, want_Gamma = levi_civita_christoffels(metric, x)
                assert np.array_equal(G[k], want_G) and np.array_equal(Gamma[k], want_Gamma)
    stacked = curvature_matrices(TautologicalMetric(h), Ps)
    for k, P in enumerate(Ps):
        assert np.array_equal(stacked[k], curvature_matrices(TautologicalMetric(h), [P])[0])


@pytest.mark.parametrize("name", PAIRS)
def test_a_metric_matrix_is_its_stack_of_one(name):
    # a point's matrix is its stack of one, bit for bit, and its row of a
    # larger stack (one rule call on arrays) within ULP_BUDGET
    p = build_pair(name)
    zs = p.h.chart.sample(np.random.default_rng(9), count=STACK)
    fzs = np.array([p.f.value(z) for z in zs])
    for metric, points in ((p.h, zs), (p.g, fzs)):
        stack = metric.matrices(points)
        dtype = complex if isinstance(metric, HermitianMetricField) else float
        assert stack.dtype == metric.matrix(points[0]).dtype == dtype
        for k, x in enumerate(points):
            assert_within_ulps(stack[k], metric.matrix(x), axes=(-2, -1))
            assert np.array_equal(metric.matrix(x), metric.matrices(x[None])[0])


def curvature_parts(metric, points):
    """What the curvature entry points give at a stack of points, split
    along the sample axis into one tuple of arrays per point: the Chern
    tensor and its metric value, or the Riemann tensor, its metric value
    and the checked Christoffel symbols."""
    if isinstance(metric, HermitianMetricField):
        t = chern_curvature(metric, points)
        return list(zip(t.array, t.metric_value))
    G, Gamma = compatible_christoffels(metric, points)
    t = riemann_curvature(metric, points)
    return list(zip(t.array, t.metric_value, G, Gamma))


@pytest.mark.parametrize("kind,name", STACK_METRICS + [("fs3-to-ball3", "h"),
                                                       ("fs3-to-ball3", "g")])
def test_curvature_tensors_of_a_stack_are_those_of_stacks_of_one(kind, name):
    # one inverse and one contraction for a stack of 7 points give each
    # point's tensors bit for bit as its stack of one and the point alone do
    metric = getattr(build_pair(kind), name) if kind == "fs3-to-ball3" \
        else stack_metric(kind, name)
    points = metric.chart.sample(np.random.default_rng(21), 0.6, count=STACK)
    stacked = curvature_parts(metric, points)
    assert len(stacked) == STACK
    for k, x in enumerate(points):
        [one] = curvature_parts(metric, points[k:k + 1])
        if isinstance(metric, HermitianMetricField):
            t = chern_curvature(metric, x)
            alone = [t.array, t.metric_value]
        else:
            t = riemann_curvature(metric, x)
            alone = [t.array, t.metric_value,
                     *compatible_christoffels(metric, x)]
        for got, want, point in zip(stacked[k], one, alone):
            assert np.array_equal(got, want) and np.array_equal(got, point), (name, k)


@pytest.mark.parametrize("kind,name", STACK_METRICS)
def test_a_stacked_tensors_checks_and_contraction_are_its_points(kind, name):
    # a stack is one tensor: its dimension is the metric's, each symmetry
    # defect is the largest of its points' and its contraction gives each
    # point's value
    metric = stack_metric(kind, name)
    points = metric.chart.sample(np.random.default_rng(22), 0.6, count=STACK)
    hermitian = isinstance(metric, HermitianMetricField)
    curvature = chern_curvature if hermitian else riemann_curvature
    checks = (("hermitian_defect", "kahler_defect") if hermitian
              else ("antisymmetry_defect", "pair_symmetry_defect", "bianchi_defect"))
    rng = np.random.default_rng(23)
    vectors = rng.standard_normal((4, metric.dim)) + 1j * rng.standard_normal((4, metric.dim))
    stack = curvature(metric, points)
    alone = [curvature(metric, x) for x in points]
    assert stack.dim == metric.dim
    for check in checks:
        assert getattr(stack, check)() == max(getattr(t, check)() for t in alone), check
    np.testing.assert_allclose(stack.contract(*vectors),
                               [t.contract(*vectors) for t in alone], rtol=1e-13)


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
        L, D, (_, _, mixed) = diffops.mixed_hessians(field, coords)
        # the density's value is its own stencil's centre column
        values = diffops._real_jet(field.rule, field.chart, coords, "fd")[0].real
        taut = curvature_matrices(tm, pts)
        assert len(L) == len(D) == len(taut) == count
        assert np.array_equal(L, diffops.mixed_hessians(alone(field), coords)), field.name
        assert np.array_equal(D, values), field.name
        for k in range(count):
            assert np.array_equal(Form11(-Form11(mixed[k]).matrix).matrix,
                                  taut[k]), field.name

    u = mp.u_field(f, h, g)
    L, _, jet = diffops.mixed_hessians(u, zs)
    assert np.array_equal(L, diffops.mixed_hessians(alone(u), zs))
    assert all(np.array_equal(a, b) for a, b in zip(jet, diffops.matrix_jet(h, zs)))
    for k, z in enumerate(zs):
        assert np.array_equal(chern_arrays(*(part[k:k + 1] for part in jet), z[None])[0],
                              chern_curvature(h, z).array)


# the pairs S3 applies to: holomorphic maps into complex targets
S3_PAIRS = [name for name in PAIRS if not V._holomorphic(build_pair(name))]
# S3's sub-charts whose fd step is not the nested chart's, and so keep a
# stencil of their own: the (z, w) chart of a line (m = 1 < n) and the
# (z, x) chart of a function (n = 1 < m), both on a source radius below
# the fiber chart's 1.1
OWN_STENCIL_S3 = {"fs-line-in-plane": 1, "hopf-function": 1}


@pytest.mark.parametrize("name", S3_PAIRS)
def test_s3_takes_both_curvatures_from_the_nested_stencil(monkeypatch, name):
    # S3 reads T and T1 from Y2's rider where the steps agree: its outputs
    # are, bit for bit, those of Y2's stencil beside the curvature stencils
    # of the (z, w) and (z, x) sub-charts, on every pair of fiber charts
    p = build_pair(name)
    f, h, g = p.f, p.h, p.g
    m, n = f.m, f.n
    dim = m + max(m - 1, 0) + max(n - 1, 0)
    zw_idx = list(range(m + max(m - 1, 0)))
    zx_idx = list(range(m)) + list(range(m + max(m - 1, 0), dim))
    rng = np.random.default_rng(17)
    calls = []
    counted = V.curvature_matrices

    def counting(tm, pts):
        calls.append(len(pts))
        return counted(tm, pts)

    monkeypatch.setattr(V, "curvature_matrices", counting)
    for w_idx in range(m):
        for x_idx in range(n):
            zs = f.source.sample(rng, 0.5, count=3)
            Rs = [NestedBundlePoint.make(z, fiber_vector(rng, m, w_idx),
                                         fiber_vector(rng, n, x_idx)) for z in zs]
            Qs = [BundlePoint.make(R.P.z, R.X, R.x_chart_index) for R in Rs]
            calls.clear()
            got = V._s3(f, h, g, Rs)
            assert len(calls) == OWN_STENCIL_S3.get(name, 0)
            y2 = mp.Y2_field(f, h, g, w_idx, x_idx)
            L, D, _ = diffops.mixed_hessians(y2, np.array([R.combined() for R in Rs]))
            T = bundle.curvature_matrices(TautologicalMetric(h), [R.P for R in Rs])
            T1 = bundle.curvature_matrices(V._covector_tautological(f, g), Qs)
            rhs = (embedded(T, zw_idx, dim) + embedded(T1, zx_idx, dim)) * D[:, None, None]
            assert len(got) == len(Rs)
            for k, out in enumerate(got):
                assert np.array_equal(out["lhs"].matrix, L[k])
                assert np.array_equal(out["rhs"].matrix, rhs[k]), (w_idx, x_idx, k)
            assert [out["min_eigenvalue"] for out in got] == \
                [out["min_eigenvalue"] for out in V._forms(L, rhs)]


def test_a_map_off_the_source_metric_chart_is_rejected():
    # u and Y read h and f on one stencil, so f must live on h's chart
    p = build_pair("fs-to-poincare")
    for chart in (ComplexChart(dim=1, radius=[0.4], name="smaller"),
                  ComplexChart(dim=1, center=[0.05], radius=p.h.chart.radius)):
        f = ChartedMap(chart, p.g.chart, p.f.rule, holomorphic=True, name="moved")
        with pytest.raises(V.ValidationError, match="not the chart of the source metric"):
            V.PairContext(f=f, h=p.h, g=p.g)
        with pytest.raises(V.ValidationError, match="not the chart of the source metric"):
            V.evaluate_suite("S01", f, p.h, p.g, [chart.center])
    same = ComplexChart(dim=1, radius=p.h.chart.radius, name="copy")
    V.PairContext(f=ChartedMap(same, p.g.chart, p.f.rule, holomorphic=True),
                  h=p.h, g=p.g)


def test_a_stack_must_share_its_fiber_chart():
    p = build_pair("fs2-to-ball")
    z = p.f.source.center
    Ps = [BundlePoint.make(z, [1.0, 0.5]), BundlePoint.make(z, [0.5, 1.0])]
    with pytest.raises(V.ValidationError, match="one fiber chart"):
        curvature_matrices(TautologicalMetric(p.h), Ps)
    # so must the points of a suite evaluation, on the W chart or the X chart
    Rs = [NestedBundlePoint.make(z, [1.0, 0.5], X) for X in ([1.0, 0.5], [0.5, 1.0])]
    for suite, pts in (("S1", Ps), ("W_psd", Ps), ("S3", Rs)):
        with pytest.raises(V.ValidationError,
                           match=f"{suite} evaluates points on one fiber chart, "
                                 "got 2 points on 2"):
            V.evaluate_suite(suite, p.f, p.h, p.g, pts)
        for pt in pts:
            V.evaluate_suite(suite, p.f, p.h, p.g, [pt])


@pytest.mark.parametrize("name", ["fs-to-poincare", "fs2-to-ball", "fs3-to-ball3"])
def test_the_one_point_views_are_stacks_of_one(name):
    # wirtinger_hessian and tautological_curvature are Form11s of the
    # stacked functions at the stack of one, bit for bit, and refuse a stack
    p = build_pair(name)
    f, h, g = p.f, p.h, p.g
    rng = np.random.default_rng(19)
    z = f.source.sample(rng, 0.5)
    P = BundlePoint.make(z, fiber_vector(rng, f.m, f.m - 1))
    tm = TautologicalMetric(h)
    for field, x in ((mp.u_field(f, h, g), z),
                     (mp.Y_field(f, h, g, P.chart_index), P.combined()),
                     (tm.log_H_field(P.chart_index), P.combined())):
        out = diffops.mixed_hessians(field, x[None])
        form = diffops.wirtinger_hessian(field, x)
        assert isinstance(form, Form11)
        assert np.array_equal(form.matrix, (out if field.joint_rule is None else out[0])[0])
        with pytest.raises(V.ValidationError, match="use mixed_hessians"):
            diffops.wirtinger_hessian(field, x[None])
    form = tautological_curvature(tm, P)
    assert isinstance(form, Form11)
    assert np.array_equal(form.matrix, curvature_matrices(tm, [P])[0])
    with pytest.raises(V.ValidationError, match="use curvature_matrices"):
        tautological_curvature(tm, [P])


def one_at_a_time(monkeypatch):
    """Make the runner evaluate every sample alone."""
    monkeypatch.setattr(V, "_sample_groups", lambda pts: [[k] for k in range(len(pts))])


def report_json(reports):
    return [json.dumps(rep.to_dict(), sort_keys=True) for rep in reports]


@pytest.mark.parametrize("name,seed", [("fs-to-poincare", 0), ("pluri-poincare", 1),
                                       ("fs2-to-ball", 2), ("pluri-m2-flat", 3),
                                       ("fs3-to-ball3", 4), ("line-in-ball", 0),
                                       ("ball-to-disc", 1)])
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
    # a bundle point has m fiber charts, and a covector point (S2 and S3,
    # whose maps go into a complex target) n
    if max(p.f.m, p.f.n if p.target_is_complex else 1) == 1:
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


# the point of each suite at a base point z of the m = n = 1 half-NaN pair,
# and whether the suite takes an fd stencil of f around z: the W form
# reads f by dual passes at z alone
NAN_SUITE_POINTS = {
    "S1": (lambda z: BundlePoint.make(z, [1.0]), True),
    "S01": (lambda z: z, True),
    "S2": (lambda z: BundlePoint.make(z, [1.0]), True),
    "S3": (lambda z: NestedBundlePoint.make(z, [1.0], [1.0]), True),
    "exact_holo": (lambda z: BundlePoint.make(z, [1.0]), True),
    "W_psd": (lambda z: BundlePoint.make(z, [1.0]), False),
}


@pytest.mark.parametrize("suite", NAN_SUITE_POINTS)
def test_nan_inside_a_stacked_pass_stays_with_its_sample(suite):
    # the middle point lies left of the NaN half-plane, so no check sees a
    # NaN at it, but its stencil reaches across: only its Hessian is NaN,
    # and the pass raises nothing; every sample's value is its value alone
    p = half_nan_pair()
    point, stencil = NAN_SUITE_POINTS[suite]
    step = diffops.step_for(p.f.source)
    zs = [np.array([-0.2 + 0.1j]), np.array([-0.5 * step + 0.05j]), np.array([-0.1 - 0.2j])]
    pts = [point(z) for z in zs]
    with np.errstate(invalid="ignore", divide="ignore"):
        stacked = V._evaluate(suite, p, pts, V._default_phi, 1e-6, 1e-4)
        alone = [V._evaluate(suite, p, [pt], V._default_phi, 1e-6, 1e-4)[0] for pt in pts]
    values = [out[0] for out in stacked]
    assert np.isfinite(values[0]) and np.isfinite(values[2])
    assert np.isnan(values[1]) == stencil
    # NaN where alone it is NaN, and the same number everywhere else
    assert np.array_equal(values, [out[0] for out in alone], equal_nan=True)
    if not stencil:
        return
    assert not stacked[1][1]            # a NaN never violates a band...
    rep = V.VerificationReport(suite=suite, pair=p.name, status="pass", seed=0,
                               samples=3, tolerances={})
    for k, (value, violated, _) in enumerate(stacked):
        V._record_sample(rep, k, pts[k], value, violated)
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
# ulps measured; every other case is bit for bit.  The stacked f(z), h(z)
# and g(f(z)) come from array arithmetic (in the dual slots, and in the
# metrics' one rule call per chunk), which may round differently from the
# point alone (f(z) in ulps of the value's largest entry, as an entry may
# cancel to ~0), and the density's two matrix products group their sums by
# the stack's shape.
FZ_STACK_MOVES = {"disc-square-to-poincare": 0.5, "pluri-flat3": 0.5, "pluri-m2-flat": 0.2}
LATTICE_MOVES = {"fs2-to-ball": 3, "hopf-function": 4, "pluri-flat3": 1, "pluri-m2-flat": 3,
                 "fs3-to-ball3": 6}
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
            return V.evaluate_suite("S01", f, metric, flat, list(np.atleast_2d(zs)))
    with np.errstate(invalid="ignore"):
        with pytest.raises(V.ValidationError) as alone:
            call(points[1])
        with pytest.raises(V.ValidationError) as stacked:
            call(points)
    assert str(alone.value).startswith(f"metric 'bad' {what} ")
    assert str(stacked.value) == str(alone.value)
    call(points[:1])            # the first row alone passes
