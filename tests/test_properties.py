"""Property tests over randomly drawn inputs (hypothesis)."""

import dataclasses
import functools
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

import exprs_reference  # noqa: E402
from projcurv import diffops, exprs, maps as mp, verify, zoo  # noqa: E402
from projcurv.bundle import BundlePoint, TautologicalMetric, affine_rows  # noqa: E402
from projcurv.charts import ComplexChart, RealChart  # noqa: E402
from projcurv.dual import HyperDual  # noqa: E402
from projcurv.fields import Form11, HermitianMetricField  # noqa: E402

from conftest import (STACK_METRICS, assert_within_ulps, fs_rule,  # noqa: E402
                      nan_off_centre, pole_at, stack_metric)


def _complex(bound):
    part = st.floats(-bound, bound, allow_nan=False)
    return st.builds(complex, part, part)


@st.composite
def fiber_cases(draw):
    """(m, A, z, rows, lam): a map z -> 0.3 A z + 0.1 z^2 of C^m, a base point,
    nonzero fiber directions and a nonzero projective scale."""
    m = draw(st.integers(1, 3))
    A = np.array(draw(st.lists(_complex(1.0), min_size=m * m, max_size=m * m)))
    z = np.array(draw(st.lists(_complex(0.3), min_size=m, max_size=m)))
    rows = draw(st.lists(
        st.lists(_complex(1.0), min_size=m, max_size=m).filter(
            lambda w: max(abs(x) for x in w) > 1e-3),
        min_size=1, max_size=5))
    lam = draw(_complex(3.0).filter(lambda c: abs(c) > 1e-2))
    return m, A.reshape(m, m), z, np.array(rows), lam


def _fs_pair(m, A):
    source = ComplexChart(dim=m, radius=[1.0] * m, name="source")
    target = ComplexChart(dim=m, radius=[1.0] * m, name="target")
    h = HermitianMetricField(source, fs_rule(m), name="fs-source")
    g = HermitianMetricField(target, fs_rule(m), name="fs-target")

    def rule(z):
        return tuple(0.3 * sum(A[i, a] * z[a] for a in range(m)) + 0.1 * z[i] * z[i]
                     for i in range(m))

    f = mp.ChartedMap(source, target, rule, holomorphic=True, name="quadratic",
                      validate_on_init=False)
    return f, h, g


@settings(max_examples=80, deadline=None)
@given(fiber_cases())
def test_fiber_evaluator_equals_generalized_Y_row_by_row(case):
    m, A, z, rows, lam = case
    f, h, g = _fs_pair(m, A)
    # every cyclic shift of a row, so rows sit in different affine charts,
    # and every row again scaled by lam
    Ws = [np.roll(W, k) for W in rows for k in range(m)]
    points = [BundlePoint.make(z, W) for W in Ws + [lam * W for W in Ws]]
    batched = mp.Y_on_fiber(f, h, g, z)(np.array([P.W_affine for P in points]))
    single = np.array([mp.generalized_Y(f, h, g, P) for P in points])
    assert batched.shape == (len(points),)
    # the density's products may group their sums differently over a stack
    # than over one row, so rows agree to a few ulps, not bitwise; with the
    # FS metrics at |z| < 1 the pairings are well conditioned and 1e-13 is
    # about 500 ulps
    np.testing.assert_allclose(batched, single, rtol=1e-13, atol=0)
    # projective invariance: the scaled rows give the same density
    half = len(Ws)
    np.testing.assert_allclose(single[half:], single[:half], rtol=1e-12, atol=1e-15)


@st.composite
def chart_cases(draw):
    """(m, A, z, W): a well-conditioned map z -> 0.3 A z + 0.1 z^2 with
    A = I + B / (4m), a base point and a nonzero fiber direction."""
    m = draw(st.integers(1, 3))
    B = np.array(draw(st.lists(_complex(1.0), min_size=m * m, max_size=m * m)))
    z = np.array(draw(st.lists(_complex(0.3), min_size=m, max_size=m)))
    W = np.array(draw(st.lists(_complex(1.0), min_size=m, max_size=m).filter(
        lambda w: max(abs(x) for x in w) > 1e-3)))
    return m, np.eye(m) + B.reshape(m, m) / (4 * m), z, W


@st.composite
def stack_cases(draw):
    """(m, A, zs, rows): a well-conditioned map as ``chart_cases`` draws it,
    an (N, m) stack of base points and K nonzero fiber directions, with N
    and K from 1 to 6."""
    m = draw(st.integers(1, 3))
    B = np.array(draw(st.lists(_complex(1.0), min_size=m * m, max_size=m * m)))
    point = st.lists(_complex(0.3), min_size=m, max_size=m)
    zs = draw(st.lists(point, min_size=1, max_size=6))
    rows = draw(st.lists(st.lists(_complex(1.0), min_size=m, max_size=m).filter(
        lambda w: max(abs(x) for x in w) > 1e-3), min_size=1, max_size=6))
    return m, np.eye(m) + B.reshape(m, m) / (4 * m), np.array(zs), np.array(rows)


@settings(max_examples=60, deadline=None)
@given(stack_cases())
def test_a_fiber_density_row_does_not_depend_on_its_stack(case):
    # each of the N x K values of a stacked Y_on_fiber call agrees with the
    # same base point and row evaluated alone, within the ulp budget: the
    # stack's shape may regroup the density's sums and round its f(z)
    # differently, but by no more than that
    m, A, zs, rows = case
    f, h, g = _fs_pair(m, A)
    rows = affine_rows(rows)
    stacked = mp.Y_on_fiber(f, h, g, zs)(rows)
    assert stacked.shape == (len(zs), len(rows))
    alone = [[mp.Y_on_fiber(f, h, g, z)(W[None])[0] for W in rows] for z in zs]
    assert_within_ulps(stacked, np.array(alone))


@settings(max_examples=60, deadline=None)
@given(chart_cases())
def test_Y_is_the_same_in_every_affine_chart(case):
    m, A, z, W = case
    f, h, g = _fs_pair(m, A)
    reference = mp.generalized_Y(f, h, g, BundlePoint.make(z, W))
    for k in range(m):
        if abs(W[k]) <= 1e-3:
            continue
        P = BundlePoint.make(z, W, chart_index=k)
        assert P.chart_index == k
        field = mp.Y_field(f, h, g, k)
        np.testing.assert_allclose(mp.generalized_Y(f, h, g, P), reference, rtol=1e-12)
        np.testing.assert_allclose(field(P.combined()).real, reference, rtol=1e-12)


@st.composite
def box_cases(draw):
    """(chart, points): a complex or real box with random center and radii,
    and points drawn inside and outside it (up to twice the radius away)."""
    complex_box = draw(st.booleans())
    dim = draw(st.integers(1, 4))
    coord = st.floats(-5.0, 5.0, allow_nan=False)
    part = st.lists(coord, min_size=dim, max_size=dim)
    radius = np.array(draw(st.lists(st.floats(0.01, 10.0), min_size=dim, max_size=dim)))
    offset = st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim)
    count = draw(st.integers(1, 6))
    if complex_box:
        center = np.array(draw(part)) + 1j * np.array(draw(part))
        points = [center + radius * (np.array(draw(offset)) + 1j * np.array(draw(offset)))
                  for _ in range(count)]
        return ComplexChart(dim=dim, center=center, radius=radius), points
    center = np.array(draw(part))
    points = [center + radius * np.array(draw(offset)) for _ in range(count)]
    return RealChart(dim=dim, center=center, radius=radius), points


@settings(max_examples=150, deadline=None)
@given(box_cases())
def test_box_margin_is_the_closed_form(case):
    chart, points = case
    for z in points:
        d = z - chart.center
        if isinstance(chart, ComplexChart):
            gaps = np.concatenate([chart.radius - np.abs(d.real),
                                   chart.radius - np.abs(d.imag)])
        else:
            gaps = chart.radius - np.abs(d)
        assert chart.margin(z) == float(np.min(gaps))


@settings(max_examples=150, deadline=None)
@given(box_cases(), st.floats(0.01, 1.0), st.one_of(st.none(), st.integers(1, 5)),
       st.integers(0, 2 ** 32 - 1))
def test_box_samples_stay_in_the_shrunk_box(case, frac, count, seed):
    chart, _ = case
    s = chart.sample(np.random.default_rng(seed), frac, count)
    assert s.shape == ((chart.dim,) if count is None else (count, chart.dim))
    d = s - chart.center
    # the offset is rounded once more when the center is added back
    bound = chart.radius * frac + 4e-16 * (np.abs(chart.center) + chart.radius)
    assert np.all(np.abs(d.real) <= bound) and np.all(np.abs(d.imag) <= bound)
    if isinstance(chart, RealChart):
        assert s.dtype == float


@functools.cache
def _zoo_pair(name):
    return zoo.build_entry(name).obj


# the pairs S1 applies to whose fibers have two charts or more (m >= 2):
# the zoo's, and fs3 into the ball by z -> 0.4 z, since the zoo has no m = 3
_S1_FIBER_CHART_PAIRS = ("flat-identity", "fs2-to-ball", "hopf-function", "fs3-to-ball3")


@functools.cache
def _s1_pair(name):
    if name != "fs3-to-ball3":
        return _zoo_pair(name)
    h = zoo.build_entry("fubini-study", {"dim": 3, "radius": 0.9}).obj
    g = zoo.build_entry("poincare-ball", {"dim": 3, "radius": 0.38}).obj
    f = zoo.build_map("linear", {"matrix": (0.4 * np.eye(3)).tolist()}, h.chart, g.chart)
    return verify.PairContext(f=f, h=h, g=g, name=name)


@pytest.mark.parametrize("name", _S1_FIBER_CHART_PAIRS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_the_S1_residual_is_the_same_form_in_two_fiber_charts(name, data):
    # at a point (z, [W]) with two admissible fiber charts i != j, the S1
    # residual forms satisfy A_i = J^T A_j conj(J), with J[c, a] = dv_c/du_a
    # the Jacobian of the chart change from the affine coordinates u of
    # chart i to v of chart j (the identity on z), within the fd noise of
    # the forms (1e-10 to 2e-8)
    p = _s1_pair(name)
    m = p.f.m
    i, j = data.draw(st.permutations(range(m)), label="charts")[:2]
    z = data.draw(bundle_points(p.f.source)).z
    # W_i and W_j of modulus 0.95-1 and the rest at most 0.85: every affine
    # coordinate of both charts is inside the fiber chart's radius 1.1
    W = np.array(data.draw(st.lists(_complex(0.6), min_size=m, max_size=m)))
    for k in (i, j):
        W[k] = data.draw(st.floats(0.95, 1.0)) * np.exp(1j * data.draw(st.floats(0, 6.3)))
    A_i, A_j = (verify.evaluate_suite(
        "S1", p.f, p.h, p.g, [BundlePoint.make(z, W, k)])[0]["residual_form"].matrix
        for k in (i, j))
    # D[k, l] = d(W_k / W_j) / dW_l with W scaled so that W_i = 1; v drops
    # index j and u drops index i
    Wi = W / W[i]
    D = np.eye(m) / Wi[j] - np.outer(Wi, np.eye(m)[j]) / Wi[j] ** 2
    J = np.eye(2 * m - 1, dtype=complex)
    J[m:, m:] = np.delete(np.delete(D, j, axis=0), i, axis=1)
    gap = float(np.abs(A_i - J.T @ A_j @ J.conj()).max())
    assert gap <= 1e-6 * max(1.0, float(np.abs(A_i).max())), (i, j, gap)


@st.composite
def bundle_points(draw, chart):
    """A point of P(T_M) over the source chart shrunk by 1/2, as the suites
    draw them: z in the box and a nonzero fiber direction W."""
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    re, im = (np.array(draw(st.lists(unit, min_size=chart.dim, max_size=chart.dim)))
              for _ in range(2))
    z = chart.center + 0.5 * chart.radius * (re + 1j * im)
    return BundlePoint.make(z, draw(fiber_vectors(chart.dim)))


def fiber_vectors(k):
    """A fiber direction in C^k with a component of modulus above 1e-3."""
    return st.lists(_complex(1.0), min_size=k, max_size=k).filter(
        lambda w: max(abs(x) for x in w) > 1e-3)


@pytest.mark.parametrize("name", zoo.catalog_names()["map-pair"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_backends_agree_on_the_density_fields(name, data):
    # fd and hyper-dual jets of Y, u and log H agree within the engine's
    # cross-check band at any bundle point the suites could draw; so do
    # those of Y1 and Y2 at any covector and nested point, for the pairs
    # whose map is holomorphic into a complex target
    p = _zoo_pair(name)
    P = data.draw(bundle_points(p.f.source))
    fields = [(mp.Y_field(p.f, p.h, p.g, P.chart_index), P.combined()),
              (mp.u_field(p.f, p.h, p.g), P.z),
              (TautologicalMetric(p.h).log_H_field(P.chart_index), P.combined())]
    if p.f.holomorphic and p.target_is_complex:
        X = data.draw(fiber_vectors(p.f.n))
        Q = BundlePoint.make(P.z, X)
        R = mp.NestedBundlePoint.make(P.z, P.W, X)
        fields += [(mp.Y1_field(p.f, p.h, p.g, Q.chart_index), Q.combined()),
                   (mp.Y2_field(p.f, p.h, p.g, R.P.chart_index, R.Q.chart_index),
                    R.combined())]
    for field, x in fields:
        assert diffops.cross_check(field, x) <= diffops.CROSS_CHECK_RTOL, field.name


# residual-like floats; the range of any two stays finite
_report_floats = st.floats(-1e307, 1e307, allow_nan=False)


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.lists(_report_floats, min_size=1, max_size=12),
    st.lists(st.sampled_from([0.0, -0.0, -1.0, 5e-324, -5e-324]), min_size=1, max_size=12),
    st.builds(lambda v, k: [v] * k, _report_floats, st.integers(1, 4))))
@example([0.3])
@example([-2.5, -2.5, -2.5])
@example([-7.0, -1e-9, -3.0])
@example([0.0, -0.0])
@example([-1.0, -0.0, 0.0, -0.0])
@example([-1.0, 0.0, -0.0])
@example([-1e307, 1e307, 3e306])
def test_report_histogram_is_numpys(values):
    # the report's plain-Python histogram gives NumPy's counts and edges
    # bit for bit, wherever NumPy can make 10 distinct edges
    try:
        counts, edges = np.histogram(np.asarray(values), bins=10)
    except ValueError:
        assume(False)
    got_counts, got_edges = verify._histogram(values)
    assert got_counts == counts.tolist()
    assert np.array_equal(np.array(got_edges).view(np.int64), edges.view(np.int64))


# the suites whose stencils go through a joint density rule, and the maps
# function that builds it
_JOINT_SUITES = {"S1": "Y_field", "S03": "Y_field", "exact_holo": "Y_field",
                 "S_minus1": "Y_field", "S2": "Y1_field", "S01": "u_field",
                 "S02": "u_field"}


def _poison(joint_rule, output, entry, where):
    """The joint rule with a NaN in one stencil column of one of its outputs:
    the density (output 0) or the rider's entry ``entry`` (output 1)."""
    def rule(zs):
        parts = list(joint_rule(zs))
        columns = np.size(zs[0])
        k = int(where * columns)

        def nan_at(v):
            arr = np.array(np.broadcast_to(v, (columns,)), complex)
            arr[k] = np.nan
            return arr

        if output == 0:
            parts[0] = nan_at(parts[0])
        elif isinstance(parts[1], list):        # the entries h_{a bbar}
            rows = [list(row) for row in parts[1]]
            a, b = divmod(entry % (len(rows) ** 2), len(rows))
            rows[a][b] = nan_at(rows[a][b])
            parts[1] = rows
        else:                                   # log H or log H1
            parts[1] = nan_at(parts[1])
        return tuple(parts)

    return rule


@pytest.mark.parametrize("name,suite", [
    (name, suite) for name in ("fs-to-poincare", "fs2-to-ball") for suite in _JOINT_SUITES
    if (name, suite) != ("fs2-to-ball", "S_minus1")])       # S_minus1 needs n = 1
@settings(max_examples=8, deadline=None)
@given(output=st.integers(0, 1), entry=st.integers(0, 3),
       where=st.floats(0, 1, exclude_max=True), seed=st.integers(0, 2 ** 16))
def test_a_nan_in_a_joint_rule_output_is_an_error(name, suite, output, entry, where, seed):
    # a NaN in the density or in the metric it divides by, anywhere in the
    # one stencil they share, makes the sample an error and never a pass
    p = _zoo_pair(name)
    builder = getattr(mp, _JOINT_SUITES[suite])

    def poisoned(*args, **kwargs):
        field = builder(*args, **kwargs)
        return dataclasses.replace(
            field, joint_rule=_poison(field.joint_rule, output, entry, where))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mp, _JOINT_SUITES[suite], poisoned)
        [rep] = verify.run_suite(p, [suite], samples=1, seed=seed)
    assert rep.status == "error", (rep.status, rep.residuals)
    assert not np.isfinite(rep.residuals[0])


def _nan_where(coords, point):
    """NaN where the coordinates (numbers, arrays or jets) equal ``point``,
    elementwise, and 0 elsewhere."""
    hit = True
    for x, q in zip(coords, point):
        while isinstance(x, HyperDual):
            x = x.f0
        hit = hit & (np.asarray(x) == q)
    return np.where(hit, np.nan, 0.0)


def _poisoned(rule, point, entry, add=False, matrix=False):
    """The rule with a NaN added to (or multiplied into) one entry of its
    output where its input is ``point``; a map rule gives a flat output, a
    metric rule (``matrix``) rows."""
    def poisoned(q):
        nan = _nan_where(q, point)
        out = [list(row) for row in rule(q)] if matrix else [list(rule(q))]
        row = out[entry // len(out[0]) % len(out)]
        k = entry % len(row)
        row[k] = row[k] + nan if add else row[k] * (1 + nan)
        return out if matrix else tuple(out[0])
    return poisoned


@pytest.mark.parametrize("name", ("fs-to-poincare", "fs2-to-ball", "flat-identity"))
@settings(max_examples=12, deadline=None)
@given(part=st.sampled_from(["f value", "f", "h", "g"]), entry=st.integers(0, 3),
       where=st.floats(0, 1, exclude_max=True))
@example(part="f value", entry=0, where=0.5)
def test_a_nan_in_a_rule_at_one_probe_point_is_an_error(name, part, entry, where):
    # a NaN in the output of the map, source metric or target metric rule at
    # one base point of the probe's lattice is a ValidationError naming that
    # point, never a finite y_max; "f value" puts the NaN in f(z) alone,
    # where df stays finite and a flat target never reads it
    p = _zoo_pair(name)
    zs, Ws = verify._probe_grid(p)
    z = zs[int(where * len(zs))]
    f, h, g = p.f, p.h, p.g
    if part.startswith("f"):
        f = dataclasses.replace(f, validate_on_init=False,
                                rule=_poisoned(f.rule, z, entry, add=part == "f value"))
    elif part == "h":
        h = dataclasses.replace(h, validate_on_init=False,
                                rule=_poisoned(h.rule, z, entry, matrix=True))
    else:
        g = dataclasses.replace(g, validate_on_init=False,
                                rule=_poisoned(g.rule, f.value(z), entry, matrix=True))
    named = f"not finite at probe point z = {z.tolist()}, "
    with np.errstate(invalid="ignore"):
        with pytest.raises(mp.ValidationError) as raised:
            verify.maximum_principle_probe(f, h, g, zs, Ws)
        [rep] = verify.run_suite(verify.PairContext(f=f, h=h, g=g, name=name),
                                 ["S5_probe"], samples=1, seed=0)
    assert named in str(raised.value)
    assert rep.status == "error" and named in rep.message
    assert "y_max" not in rep.worst


@pytest.mark.parametrize("name", ("fs-to-poincare", "fs2-to-ball", "flat-identity"))
@settings(max_examples=8, deadline=None)
@given(part=st.sampled_from(["h", "g"]), where=st.floats(0, 1, exclude_max=True))
def test_a_division_by_zero_in_a_metric_rule_at_one_probe_point_is_an_error(name, part, where):
    # the lattice's plain metric calls run on Python numbers, which raise
    # ZeroDivisionError where NumPy scalars gave inf or NaN; the point gets
    # NaN values, and the probe names it as it names a NaN
    p = _zoo_pair(name)
    zs, Ws = verify._probe_grid(p)
    z = zs[int(where * len(zs))]
    metric = getattr(p, part)
    point = z if part == "h" else p.f.value(z)
    p = dataclasses.replace(p, **{part: dataclasses.replace(
        metric, validate_on_init=False, rule=pole_at(metric.rule, point))})
    named = f"Y is not finite at probe point z = {z.tolist()}, "
    with pytest.raises(mp.ValidationError) as raised:
        verify.maximum_principle_probe(p.f, p.h, p.g, zs, Ws)
    [rep] = verify.run_suite(p, ["S5_probe"], samples=1, seed=0)
    assert named in str(raised.value)
    assert rep.status == "error" and named in rep.message


# the suites that read g's jets at f(z): the Chern side on a Hermitian
# target, the Riemann side (and the pluri-harmonic routing) on a Riemannian one
_TARGET_JET_SUITES = {
    **dict.fromkeys(("fs-to-poincare", "fs2-to-ball"), ("S1", "S01", "S2", "exact_holo")),
    **dict.fromkeys(("realpart-flat", "pluri-flat3", "pluri-poincare", "pluri-m2-flat",
                     "pluri-sphere-slice"),
                    ("S11", "hessian", "hessian2", "exact_pluri", "W_psd")),
}


@pytest.mark.parametrize("name", _TARGET_JET_SUITES)
@settings(max_examples=10, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 16), samples=st.integers(1, 4))
def test_a_nan_beside_the_target_curvature_jet_centre_never_passes(name, data, seed,
                                                                   samples):
    # g's value at f(z) is the jet's stencil centre and passes its check;
    # every derivative of g is NaN, and the suite must not pass on them
    suite = data.draw(st.sampled_from(_TARGET_JET_SUITES[name]), label="suite")
    p = _zoo_pair(name)
    p = dataclasses.replace(p, g=dataclasses.replace(p.g, rule=nan_off_centre(p.g.rule)))
    with np.errstate(invalid="ignore", divide="ignore"):
        [rep] = verify.run_suite(p, [suite], samples=samples, seed=seed)
    assert rep.status == "error", (rep.status, rep.message)


# Entries up to 1e150 keep every sum and product below 1e300: re-symmetrizing
# doubles each entry first, which overflows to inf above 2**1023 where the
# sum itself does not.  Signed zeros and subnormals are drawn.
_ENTRY = st.floats(-1e150, 1e150, allow_nan=False)


@st.composite
def hermitian_pairs(draw):
    """Two forms of one dimension, built by the symmetrizing constructor
    from arbitrary square matrices, and a real factor."""
    d = draw(st.integers(1, 4))

    def form():
        parts = draw(st.lists(_ENTRY, min_size=2 * d * d, max_size=2 * d * d))
        entries = [complex(re, im) for re, im in zip(parts[::2], parts[1::2])]
        return Form11(np.array(entries).reshape(d, d))

    return form(), form(), draw(_ENTRY)


def _same_form(fast, resymmetrized):
    """fast is exactly Hermitian, and equals the form the constructor builds
    of the same matrix bit for bit, signed zeros included: the constructor
    keeps a matrix that equals its conjugate transpose as it is."""
    M, R = fast.matrix, resymmetrized.matrix
    assert np.array_equal(M, M.conj().T)
    assert M.tobytes() == R.tobytes()
    assert fast.dim == resymmetrized.dim


@settings(max_examples=300, deadline=None)
@given(hermitian_pairs())
@example((Form11(np.array([[-1.0, -0.0 + 1j], [0.0 - 1j, 0.3]])),
          Form11(np.array([[1e-300, 0.5j], [-0.5j, -3.0]])), -0.7))
def test_form_sums_differences_and_real_multiples_are_exactly_hermitian(case):
    a, b, c = case
    _same_form(a + b, Form11(a.matrix + b.matrix))
    _same_form(a - b, Form11(a.matrix - b.matrix))
    _same_form(a.scaled(c), Form11(a.matrix * c))
    resymmetrized = Form11(Form11(a.matrix + b.matrix).matrix * c)
    _same_form((a + b).scaled(c) - a, Form11(resymmetrized.matrix - a.matrix))


@pytest.mark.parametrize("c", [1j, 0.5 + 0j, np.complex128(2.0), np.complex64(1.0)])
def test_a_form_is_not_scaled_by_a_complex_number(c):
    with pytest.raises(TypeError, match="real number"):
        Form11(np.eye(2)).scaled(c)


# ---------------------------------------------------------------------------
# a metric at a stack of points is the metric at each point, within ULP_BUDGET

# parts a stack's coordinates may take besides drawn ones: signed zeros,
# subnormals and the smallest normal
_SPECIAL_PARTS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308]


@st.composite
def metric_stacks(draw, chart):
    """An (N, d) stack of chart points, complex on a complex chart, N from
    2 to 88: each part drawn in the chart's box or one of
    ``_SPECIAL_PARTS``."""
    center = np.asarray(chart.center, complex)
    is_complex = isinstance(chart, ComplexChart)

    def part(c, r):
        return st.one_of(st.floats(-1, 1).map(lambda u: c + r * u),
                         st.sampled_from(_SPECIAL_PARTS))

    parts = [part(c.real, r) for c, r in zip(center, chart.radius)]
    if is_complex:
        parts += [part(c.imag, r) for c, r in zip(center, chart.radius)]
    count = draw(st.integers(2, 88))
    rows = np.array(draw(st.lists(st.tuples(*parts), min_size=count, max_size=count)))
    d = chart.dim
    return rows[:, :d] + 1j * rows[:, d:] if is_complex else rows


@functools.cache
def _stack_metric(kind, name):
    return stack_metric(kind, name)


@pytest.mark.parametrize("kind,name", STACK_METRICS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_the_matrices_of_a_drawn_stack_are_the_matrices_of_its_points(kind, name, data):
    # one rule call on arrays: the points where the matrix alone is not
    # finite (a pole added at one point, a drawn point on the metric's own
    # singular set) are the points where the stack is not, and the others
    # are within ULP_BUDGET of it
    metric = _stack_metric(kind, name)
    points = data.draw(metric_stacks(metric.chart))
    pole = data.draw(st.one_of(st.none(), st.integers(0, len(points) - 1)))
    if pole is not None:
        metric = dataclasses.replace(metric, rule=pole_at(metric.rule, points[pole]),
                                     validate_on_init=False)
    stack = metric.matrices(points)
    alone = np.stack([metric.matrix(p) for p in points])
    assert stack.shape == alone.shape and stack.dtype == alone.dtype
    finite = np.isfinite(stack).all(axis=(1, 2))
    assert np.array_equal(finite, np.isfinite(alone).all(axis=(1, 2)))
    assert pole is None or not finite[pole]
    assert_within_ulps(stack[finite], alone[finite], axes=(-2, -1))


@pytest.mark.parametrize("name,radius", [("fubini-study", 0.9), ("poincare-ball", 0.38)])
def test_the_matrices_of_the_m3_probe_lattice_are_the_matrices_of_its_points(name, radius):
    # the S5 probe's lattice at m = 3: 15,625 base points in several chunks
    metric = zoo.build_entry(name, {"dim": 3, "radius": radius}).obj
    pair = verify.PairContext(f=zoo.build_map("identity", {}, metric.chart, metric.chart),
                              h=metric, g=metric, name="m3")
    zs, _ = verify._probe_grid(pair)
    assert len(zs) == 15_625
    alone = np.stack([metric.matrix(z) for z in zs])
    assert_within_ulps(metric.matrices(zs), alone, axes=(-2, -1))


# inline expressions over two coordinates (``exprs``): literals (an inf
# among them), the operators and the grammar's calls.  An exponent is a
# leaf of at most 3, so nested integer powers stay small enough to compute
_EXPR_FUNCS = ["exp", "log", "sqrt", "conj", "re", "im", "abs2"]
_exponents = st.sampled_from(["z1", "z2", "0", "2", "3", "-1", "0.5", "-0.0", "1e999",
                              "1j", "(0.5 - 1j)"])
_expr_leaves = st.one_of(
    st.sampled_from(["z1", "z2"]),
    st.integers(0, 9).map(str),
    st.floats(-10, 10).map(repr),
    st.sampled_from(["-0.0", "1e999", "5e-324", "1j", "(2 - 3j)"]))


def _expr_nodes(sub):
    return st.one_of(
        st.builds("({} {} {})".format, sub, st.sampled_from("+-*/"), sub),
        st.builds("({} ** {})".format, sub, _exponents),
        st.builds("(-{})".format, sub),
        st.builds("(+{})".format, sub),
        st.builds("{}({})".format, st.sampled_from(_EXPR_FUNCS), sub))


_expressions = st.recursive(_expr_leaves, _expr_nodes, max_leaves=10)
_special_floats = st.one_of(st.floats(-3, 3),
                            st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf]))
_special_numbers = st.one_of(_special_floats, st.builds(complex, _special_floats,
                                                        _special_floats))


@st.composite
def _expr_arguments(draw):
    """Two coordinates: Python numbers, NumPy stacks (float or complex, with
    NaN, inf and -0.0 among their entries) or HyperDuals whose derivative
    slots are arrays over two directions, the mixed slot perhaps untracked."""
    kind = draw(st.sampled_from(["python", "numpy", "dual"]))
    if kind == "python":
        return tuple(draw(_special_numbers) for _ in range(2))
    if kind == "numpy":
        size = draw(st.integers(1, 4))
        entries = draw(st.sampled_from([_special_floats, _special_numbers]))
        return tuple(np.array(draw(st.lists(entries, min_size=size, max_size=size)))
                     for _ in range(2))
    slots = st.lists(_special_numbers, min_size=2, max_size=2).map(
        lambda v: np.array(v, dtype=complex))
    return tuple(HyperDual(draw(_special_numbers), draw(slots), draw(slots),
                           draw(st.one_of(st.none(), slots))) for _ in range(2))


def _bits(value):
    """A value's type and bytes, slot by slot for a HyperDual and entry by
    entry for a tuple."""
    if isinstance(value, tuple):
        return tuple(map(_bits, value))
    if isinstance(value, HyperDual):
        return ("HyperDual",) + tuple(_bits(s) for s in (value.f0, value.f1, value.f2,
                                                        value.f12))
    array = np.asarray(value)
    if array.dtype == object:                  # an int beyond int64
        return type(value).__name__, repr(value)
    return type(value).__name__, array.dtype.str, array.shape, array.tobytes()


def _outcome(rule, args):
    """The rule's value at ``args`` as bits, or the type of what it raised."""
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        try:
            return _bits(rule(args))
        except Exception as exc:               # noqa: BLE001 - compared below
            return type(exc)


@settings(max_examples=300, deadline=None)
@given(_expressions, _expressions, _expr_arguments())
@example("(-0.0 - z1)", "(z1 ** (0.5 - 1j))", (np.array([0j, 1j]), np.array([-0.0, 2.0])))
@example("(1e999 * 0)", "log(z2)", (np.array([np.nan, -0.0]), np.array([0.0, np.inf])))
def test_a_compiled_rule_is_the_reference_interpreter_bit_for_bit(first, second, args):
    # each entry of a vector rule keeps its expression's operations in
    # their order: the same value, bit for bit, on every number type, and
    # the same exception type where the closure interpreter raises
    names = ["z1", "z2"]
    refs = [exprs_reference.parse_expression(e, names) for e in (first, second)]
    want = _outcome(lambda z: tuple(ref(z) for ref in refs), args)
    assert _outcome(exprs.compile_rule((first, second), names), args) == want
    assert _outcome(exprs.compile_rule(first, names), args) \
        == _outcome(refs[0], args)
