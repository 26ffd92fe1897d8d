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
from projcurv.maps import Y_field

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

def tracked_grad_dual(rule, x, shape=(), complex_chart=False):
    # real coordinates seeded one by one, combined into complex ones per pass
    p = [c.real for c in x] + [c.imag for c in x] if complex_chart else list(x)
    n = len(p)
    eye = np.eye(n)
    coords = [HyperDual(p[c], eye[c], 0.0, 0.0) for c in range(n)]
    coords = diffops._complex_coords(coords, len(x)) if complex_chart else tuple(coords)
    f0, f1, _ = diffops._dual_slots(rule(coords), shape, n)
    return f0, f1


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
        monkeypatch.setattr(diffops, "_real_grad_dual", tracked_grad_dual)
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
