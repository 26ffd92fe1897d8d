"""Untracked hyper-dual slots: every operation leaves an untracked slot
untracked and computes the tracked ones exactly as with every slot tracked,
so the engine's seeds that leave unread slots untracked give the same
numbers, bit for bit, as the fully tracked seeds they replaced."""

import numpy as np
import pytest

from projcurv import diffops, zoo
from projcurv import dual as gm
from projcurv.bundle import BundlePoint
from projcurv.dual import HyperDual
from projcurv.maps import Y1_field, Y_field, u_field

from conftest import STACK_METRICS, fiber_vector, stack_metric

SLOTS = ("f1", "f2", "f12")
# an untracked first-order slot leaves the mixed slot nothing to track
UNTRACKED = ({"f12"}, {"f2", "f12"}, {"f1", "f12"}, {"f1", "f2", "f12"})


def jet(seed, untracked=()):
    rng = np.random.default_rng(seed)
    vals = [0.6 + 0.3j] + [rng.standard_normal(3) + 1j * rng.standard_normal(3)
                           for _ in SLOTS]
    return HyperDual(vals[0], *(None if s in untracked else v
                                for s, v in zip(SLOTS, vals[1:])))


def positive_jet(seed, untracked=()):
    x = jet(seed, untracked)
    x.f0 = 1.7
    return x


def assert_slots(out, ref, untracked):
    assert isinstance(out, HyperDual)
    assert np.array_equal(out.f0, ref.f0)
    for s in SLOTS:
        if s in untracked:
            assert getattr(out, s) is None, s
        else:
            assert np.array_equal(getattr(out, s), getattr(ref, s)), s


UNARY = {
    "neg": lambda x: -x,
    "pow2": lambda x: x ** 2,
    "pow1": lambda x: x ** 1,
    "pow0": lambda x: x ** 0,
    "pow_half": lambda x: x ** 0.5,
    "pow_neg": lambda x: x ** -3,
    "exp": gm.exp,
    "log": gm.log,
    "sqrt": gm.sqrt,
    "conj": gm.conj,
    "real": gm.real,
    "imag": gm.imag,
    "abs2": gm.abs2,
    "add_scalar": lambda x: x + 2.5,
    "radd_scalar": lambda x: 2.5 + x,
    "sub_scalar": lambda x: x - 1j,
    "rsub_scalar": lambda x: 1j - x,
    "mul_scalar": lambda x: x * (0.5 - 2j),
    "rmul_array": lambda x: np.array([1.0, 2.0, 3.0]) * x,
    "div_scalar": lambda x: x / 3.0,
    "rdiv_scalar": lambda x: 2.0 / x,
}

BINARY = {
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "mul": lambda x, y: x * y,
    "div": lambda x, y: x / y,
}


class TestUntrackedSlots:
    @pytest.mark.parametrize("untracked", UNTRACKED, ids=lambda u: "+".join(sorted(u)))
    @pytest.mark.parametrize("op", sorted(UNARY))
    def test_unary(self, op, untracked):
        fn = UNARY[op]
        make = positive_jet if op in ("log", "sqrt", "pow_half") else jet
        assert_slots(fn(make(1, untracked)), fn(make(1)), untracked)

    @pytest.mark.parametrize("untracked", UNTRACKED, ids=lambda u: "+".join(sorted(u)))
    @pytest.mark.parametrize("op", sorted(BINARY))
    def test_binary_either_operand(self, op, untracked):
        fn = BINARY[op]
        ref = fn(jet(1), jet(2))
        assert_slots(fn(jet(1, untracked), jet(2)), ref, untracked)
        assert_slots(fn(jet(1), jet(2, untracked)), ref, untracked)

    def test_untracked_in_one_operand_each(self):
        # f2 untracked on the left and f1 on the right leaves only the value
        out = jet(1, {"f2", "f12"}) * jet(2, {"f1", "f12"})
        assert (out.f1, out.f2, out.f12) == (None, None, None)
        assert np.array_equal(out.f0, (jet(1) * jet(2)).f0)

    def test_untracked_slots_are_not_computed(self):
        # 1/x at a tiny value: the second and mixed slots of the reciprocal
        # overflow and its first slot does not; untracked, they are never formed
        a = np.array([1e-200])
        tracked = HyperDual(a, a, np.array([1.0]), np.array([0.0]))
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                1 / tracked
            out = 1 / HyperDual(a, a, None, None)
        assert out.f2 is None and out.f12 is None
        with np.errstate(over="ignore"):
            assert np.array_equal(out.f1, (1 / tracked).f1)

    def test_pairing_equals_per_term_formula(self):
        rng = np.random.default_rng(3)
        M = [[jet(10 + 3 * i + j) for j in range(3)] for i in range(3)]
        u = [jet(20 + i) for i in range(3)]
        v = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(3)]
        ref = 0.0
        for i in range(3):
            for j in range(3):
                ref = ref + M[i][j] * u[i] * gm.conj(v[j])
        assert_slots(gm.pairing(M, u, v), ref, ())


@pytest.mark.parametrize("x", [np.complex64(1 + 2j), np.clongdouble(-0.5 - 3j)])
def test_a_numpy_complex_that_is_not_a_complex_is_conjugated(x):
    # np.complex64 and np.clongdouble do not subclass complex
    want = {gm.conj: np.conj(x), gm.real: np.real(x), gm.imag: np.imag(x)}
    jet = HyperDual(x, x, None, x)
    for fn, w in want.items():
        assert type(fn(x)) is type(w) and fn(x) == w
        got = fn(jet)
        assert [got.f0, got.f1, got.f2, got.f12] == [w, w, None, w]


# fully tracked references: the engine's seeds before the unread slots were
# left untracked

def tracked_jet_dual(rule, x, shape=(), complex_chart=False, order=1):
    # the order-1 jet: real coordinates seeded one by one, combined into
    # complex ones per pass
    assert order == 1
    p = [c.real for c in x] + [c.imag for c in x] if complex_chart else list(x)
    n = len(p)
    eye = np.eye(n)
    coords = [HyperDual(p[c], eye[c], 0.0, 0.0) for c in range(n)]
    coords = diffops._complex_coords(coords, len(x)) if complex_chart else tuple(coords)
    f0, f1, _ = diffops._dual_slots(rule(coords), shape, n)
    return f0, f1, None


def tracked_jacobian_pair_generic(rule, z, dim, n_out):
    z = list(z)
    nested = any(isinstance(v, HyperDual) for v in z)
    holo = [[None] * dim for _ in range(n_out)]
    anti = [[None] * dim for _ in range(n_out)]
    value = None
    for a in range(dim):
        q = [HyperDual(v, 0.0, 0.0, 0.0) for v in z] if nested else list(z)
        q[a] = HyperDual(z[a], 1.0, 1j, 0.0)
        out = rule(tuple(q))
        if value is None:
            value = [v.f0 if isinstance(v, HyperDual) else v for v in out]
        for i in range(n_out):
            v = out[i]
            dx, dy = (v.f1, v.f2) if isinstance(v, HyperDual) else (0.0, 0.0)
            holo[i][a] = 0.5 * (dx - 1j * dy)
            anti[i][a] = 0.5 * (dx + 1j * dy)
    return holo, anti, value


def zoo_metrics():
    out = [(name, {}) for name in zoo.HERMITIAN_METRICS + zoo.RIEMANNIAN_METRICS]
    return out + [("fubini-study", {"dim": 3}), ("poincare-ball", {"dim": 3})]


def zoo_maps():
    maps = [(name, zoo.build_entry(name).obj.f) for name in zoo.catalog_names()["map-pair"]]
    flat, poincare = (zoo.build_entry(n, {"dim": 2}).obj for n in ("flat", "poincare-ball"))
    maps.append(("constant", zoo.build_map("constant", {"value": [0.1, 0.2j]},
                                           flat.chart, poincare.chart)))
    return maps


class TestUntrackedSeedsAreBitwiseTracked:
    @pytest.mark.parametrize("name,params", zoo_metrics(),
                             ids=lambda v: v if isinstance(v, str) else str(v.get("dim", "")))
    def test_metric_first_order_dual_jet(self, monkeypatch, name, params):
        metric = zoo.build_entry(name, params).obj
        rng = np.random.default_rng(5)
        points = [metric.chart.sample(rng) for _ in range(5)]
        got = [diffops.matrix_jet(metric, z, backend="dual", order=1)[:2] for z in points]
        monkeypatch.setattr(diffops, "_real_jet_dual", tracked_jet_dual)
        for z, jet in zip(points, got):
            want = diffops.matrix_jet(metric, z, backend="dual", order=1)[:2]
            assert all(np.array_equal(a, b) for a, b in zip(jet, want)), z

    @pytest.mark.parametrize("name,f", zoo_maps(), ids=lambda v: v if isinstance(v, str) else "")
    def test_map_jacobian_pair(self, name, f):
        rng = np.random.default_rng(6)
        for _ in range(5):
            z = f.source.sample(rng)
            holo, anti, value = diffops.jacobian_pair(f.rule, z, f.m, f.n)
            ref_holo, ref_anti, ref_value = tracked_jacobian_pair_generic(f.rule, z, f.m, f.n)
            assert np.array_equal(holo, np.array(ref_holo, complex)), z
            assert np.array_equal(anti, np.array(ref_anti, complex)), z
            assert np.array_equal(value, np.array(ref_value, complex)), z
            # no zoo map divides, so the value slot is the plain call bit for bit
            assert np.array_equal(value, np.asarray(f.rule(tuple(z)), complex)), z

    @pytest.mark.parametrize("name", ["fs2-to-ball", "pluri-m2-flat"])
    def test_nested_Y_field_jet2(self, monkeypatch, name):
        # the inner Jacobian seeds its mixed slot untracked under an outer,
        # fully tracked hyper-dual pass
        pair = zoo.build_entry(name).obj
        rng = np.random.default_rng(7)
        P = BundlePoint.make(pair.f.source.sample(rng),
                             rng.standard_normal(2) + 1j * rng.standard_normal(2))
        field = Y_field(pair.f, pair.h, pair.g, P.chart_index)
        got = diffops._real_jet(field.rule, field.chart, P.combined(), "dual")
        monkeypatch.setattr(diffops, "jacobian_pair_generic", tracked_jacobian_pair_generic)
        ref = diffops._real_jet(field.rule, field.chart, P.combined(), "dual")
        for g, r in zip(got, ref):
            assert np.array_equal(g, r)

    @staticmethod
    def first_order_parts(jet):
        """The value and gradient of a jet as bytes, and whether the jet
        has a Hessian."""
        return [np.ascontiguousarray(a).tobytes() for a in jet[:2]], jet[2] is not None

    def assert_order_1_is_order_2(self, rule, chart, points, shape, backend):
        # on the fd backend at a stack of points and at one point; the dual
        # backend takes one pass per point either way
        for z in (points, points[0]):
            one = self.first_order_parts(diffops._real_jet(rule, chart, z, backend, 1, shape))
            two = self.first_order_parts(diffops._real_jet(rule, chart, z, backend, 2, shape))
            assert one == (two[0], False) and two[1]

    @pytest.mark.parametrize("backend", ["fd", "dual"])
    @pytest.mark.parametrize("kind,name", STACK_METRICS)
    def test_an_order_1_metric_jet_is_the_order_2_jets_value_and_gradient(self, kind, name,
                                                                          backend):
        # one primitive per backend serves both orders: the order-1 jet's
        # value and gradient are the order-2 jet's bit for bit
        metric = stack_metric(kind, name)
        points = metric.chart.sample(np.random.default_rng(11), 0.6, count=4)
        self.assert_order_1_is_order_2(metric.rule, metric.chart, points,
                                       (metric.dim, metric.dim), backend)

    @pytest.mark.parametrize("backend", ["fd", "dual"])
    @pytest.mark.parametrize("name", zoo.catalog_names()["map-pair"])
    def test_an_order_1_joint_jet_is_the_order_2_jets_value_and_gradient(self, name,
                                                                         backend):
        # the Y, Y1 and u joint fields, density and rider in one output
        pair = zoo.build_entry(name).obj
        f, h, g = pair.f, pair.h, pair.g
        rng = np.random.default_rng(12)
        zs = f.source.sample(rng, 0.5, count=4)
        Ps = [BundlePoint.make(z, fiber_vector(rng, f.m, f.m - 1), f.m - 1) for z in zs]
        cases = [(Y_field(f, h, g, f.m - 1), [P.combined() for P in Ps]),
                 (u_field(f, h, g), zs)]
        if f.holomorphic and pair.target_is_complex:
            Qs = [BundlePoint.make(z, fiber_vector(rng, f.n, f.n - 1), f.n - 1) for z in zs]
            cases.append((Y1_field(f, h, g, f.n - 1), [Q.combined() for Q in Qs]))
        for field, points in cases:
            shape = (1 + int(np.prod(field.rider)),)
            self.assert_order_1_is_order_2(diffops._flat_joint(field.joint_rule, field.rider),
                                           field.chart, np.array(points), shape, backend)
