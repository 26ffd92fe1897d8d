import numpy as np
import pytest

from projcurv import dual as gm
from projcurv.charts import ComplexChart, RealChart
from projcurv.errors import ValidationError
from projcurv.fields import Form11, HermitianMetricField, RiemannianMetricField


class TestForm11:
    def test_evaluate_identity(self):
        form = Form11(np.eye(2))
        assert form.evaluate([1, 0]) == pytest.approx(1.0)

    def test_signature_cancellation(self):
        form = Form11(np.diag([1.0, -1.0]))
        u = np.array([1, 1]) / np.sqrt(2)
        assert form.evaluate(u) == pytest.approx(0.0, abs=1e-14)

    def test_fs_potential_hessian_direction(self):
        from projcurv import diffops
        from projcurv.fields import ScalarField
        chart = ComplexChart(dim=2, radius=[1.0, 1.0])
        F = ScalarField(chart, lambda z: gm.log(1 + gm.abs2(z[0]) + gm.abs2(z[1])))
        form = diffops.wirtinger_hessian(F, [0.0, 0.0])
        assert form.evaluate([1, 0]) == pytest.approx(1.0, abs=1e-9)

    def test_evaluate_always_real(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            form = Form11(A)   # symmetrized on construction
            u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            val = form.evaluate(u)
            assert isinstance(val, float)
            # against the raw quadratic form of the symmetrized matrix
            direct = u.conj() @ form.matrix @ u
            assert abs(direct.imag) < 1e-12

    def test_min_eigenvalue_examples(self):
        assert Form11(np.eye(3)).min_eigenvalue() == pytest.approx(1.0)
        assert Form11(np.zeros((2, 2))).min_eigenvalue() == pytest.approx(0.0)
        assert Form11(np.diag([2.0, -3.0])).min_eigenvalue() == pytest.approx(-3.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            Form11(np.eye(2)).evaluate([1, 0, 0])

    def test_embed(self):
        sub = np.array([[2.0]])
        form = Form11.embed(sub, [1], 3)
        assert form.matrix[1, 1] == 2.0
        assert np.count_nonzero(form.matrix) == 1


class TestMetricValidation:
    def test_hermitian_defect_rejected(self):
        chart = ComplexChart(dim=2, radius=[1.0, 1.0])
        with pytest.raises(ValidationError):
            HermitianMetricField(chart, lambda z: [[1, 0.1], [0, 1]], name="bad")

    def test_non_positive_rejected(self):
        chart = ComplexChart(dim=1, radius=[1.0])
        with pytest.raises(ValidationError):
            HermitianMetricField(chart, lambda z: [[-1.0 + 0j]], name="neg")

    def test_probe_validation(self):
        # positive at the center, degenerate away from it
        chart = ComplexChart(dim=1, radius=[2.0])
        field = HermitianMetricField(chart, lambda z: [[1.0 - gm.abs2(z[0])]],
                                     name="shrinking")
        with pytest.raises(ValidationError):
            field.validate(np.random.default_rng(0), count=100)

    def test_riemannian_symmetry(self):
        chart = RealChart(dim=2, radius=[1.0, 1.0])
        with pytest.raises(ValidationError):
            RiemannianMetricField(chart, lambda x: [[1, 0.2], [0, 1]], name="asym")

    def test_inverse_up_convention(self):
        # h^{a bbar} h_{g bbar} = delta^a_g, i.e. sum_b inv_up[a,b] H[g,b] = I
        chart = ComplexChart(dim=2, radius=[0.8, 0.8])
        rule = lambda z: [[2 + gm.abs2(z[0]), 0.3j + z[0] * gm.conj(z[1])],
                          [-0.3j + z[1] * gm.conj(z[0]), 1 + gm.abs2(z[1])]]
        field = HermitianMetricField(chart, rule, name="generic")
        z = [0.2 + 0.1j, -0.3j]
        up = field.inverse_up(z)
        H = field.matrix(z)
        assert np.allclose(np.einsum("ab,gb->ag", up, H), np.eye(2), atol=1e-12)
