"""Scalar and metric fields on charts, and Hermitian (1,1)-form carriers.

Field rules are plain callables written against the generic scalar math in
:mod:`projcurv.dual` (operators plus ``exp``/``log``/``conj``/``abs2``), so a
single rule serves the finite-difference backend (arrays over stencil
points), the dual-number backend (HyperDual points), and direct evaluation.

All fields are immutable after construction and all methods are pure, so
concurrent evaluation needs no synchronization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charts import ComplexChart, RealChart
from .errors import ValidationError

HERMITIAN_DEFECT_TOL = 1e-12


@dataclass(frozen=True)
class ScalarField:
    """A scalar-valued field on a chart.

    ``rule`` maps a tuple of generic scalars (one per chart coordinate) to
    a generic scalar; it must serve both differentiation backends.
    """

    chart: ComplexChart
    rule: object
    name: str = ""

    def __call__(self, z):
        v = self.rule(tuple(np.asarray(z, complex)))
        return complex(v)


class _MetricBase:
    """What the Hermitian and Riemannian metric fields share: generic
    evaluation, inversion and the probe-point validation, which checks the
    shape, the subclass's symmetry condition and positive definiteness."""

    def matrix_generic(self, scalars):
        return self.rule(tuple(scalars))

    def inverse(self, z) -> np.ndarray:
        return np.linalg.inv(self.matrix(z))

    def _raw_matrix(self, z) -> np.ndarray:
        return np.asarray(self.rule(tuple(np.asarray(z, self._coordinate_type))), complex)

    def check_at(self, z):
        M = self._raw_matrix(z)
        if M.shape != (self.dim, self.dim):
            raise ValidationError(
                f"metric {self.name!r}: rule returned shape {M.shape}, "
                f"expected ({self.dim}, {self.dim})")
        lam = np.linalg.eigvalsh(self._check_symmetry(M, z))
        if lam[0] <= 0:
            raise ValidationError(
                f"metric {self.name!r} not positive definite at {z}: "
                f"min eigenvalue {lam[0]:.3e}")

    def validate(self, rng, count: int = 100):
        for _ in range(count):
            self.check_at(self.chart.sample(rng))


@dataclass(frozen=True)
class HermitianMetricField(_MetricBase):
    """Matrix field z -> h_{a bbar}(z), Hermitian positive definite.

    ``rule`` returns an m x m nested sequence; entry [a][b] is the pairing of
    dz^a with dzbar^b.  Construction runs a light validation at the chart
    center; ``validate`` runs the full probe-point check.

    ``matrix_dim`` defaults to the chart dimension; pairing fields that live
    over a different base (the pulled-back inverse target metric on a
    covector bundle) set it explicitly.
    """

    chart: ComplexChart
    rule: object
    name: str = ""
    validate_on_init: bool = True
    matrix_dim: int = None

    _coordinate_type = complex

    def __post_init__(self):
        if self.matrix_dim is None:
            object.__setattr__(self, "matrix_dim", self.chart.dim)
        if self.validate_on_init:
            self.check_at(self.chart.center)

    @property
    def dim(self) -> int:
        return self.matrix_dim

    def matrix(self, z) -> np.ndarray:
        return self._raw_matrix(z)

    def inverse_up(self, z) -> np.ndarray:
        """Inverse metric with raised indices: h^{a bbar} = conj(inv(H))[a, b]."""
        return np.linalg.inv(self.matrix(z)).conj()

    def _check_symmetry(self, H, z):
        defect = float(np.max(np.abs(H - H.conj().T)))
        if defect > HERMITIAN_DEFECT_TOL:
            raise ValidationError(
                f"metric {self.name!r} not Hermitian at {z}: defect {defect:.3e}")
        return H


@dataclass(frozen=True)
class RiemannianMetricField(_MetricBase):
    """Matrix field x -> g_{ij}(x), symmetric positive definite."""

    chart: RealChart
    rule: object
    name: str = ""
    validate_on_init: bool = True

    _coordinate_type = float

    def __post_init__(self):
        if self.validate_on_init:
            self.check_at(self.chart.center)

    @property
    def dim(self) -> int:
        return self.chart.dim

    def matrix(self, x) -> np.ndarray:
        return self._raw_matrix(x).real

    def _check_symmetry(self, G, x):
        if float(np.max(np.abs(G.imag))) > HERMITIAN_DEFECT_TOL:
            raise ValidationError(f"metric {self.name!r} has complex entries at {x}")
        defect = float(np.max(np.abs(G.real - G.real.T)))
        if defect > HERMITIAN_DEFECT_TOL:
            raise ValidationError(
                f"metric {self.name!r} not symmetric at {x}: defect {defect:.3e}")
        return G.real


class Form11:
    """Coefficient matrix A of a real (1,1)-form sqrt(-1) A_{a bbar} dz^a dzbar^b.

    The sqrt(-1) factor is kept out of the stored matrix, so positivity of the
    form is exactly positive semidefiniteness of A.  The matrix is Hermitian
    by construction: the constructor symmetrizes (A + A^dagger)/2.
    """

    __slots__ = ("matrix", "dim")

    def __init__(self, matrix):
        A = np.asarray(matrix, complex)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValidationError(f"Form11 expects a square matrix, got {A.shape}")
        self.matrix = 0.5 * (A + A.conj().T)
        self.dim = A.shape[0]

    def __add__(self, other):
        return Form11(self.matrix + other.matrix)

    def __sub__(self, other):
        return Form11(self.matrix - other.matrix)

    def scaled(self, c: float) -> "Form11":
        return Form11(self.matrix * c)

    def evaluate(self, u) -> float:
        """Pairing with (u, ubar): sum A[a, b] u^a conj(u^b).

        The first matrix index is the holomorphic one, matching every tensor
        contraction in the package; Hermiticity makes the value real.
        """
        u = np.asarray(u, complex)
        if u.shape != (self.dim,):
            raise ValidationError(
                f"vector of length {u.shape} against form of dimension {self.dim}")
        return float(np.real(u @ self.matrix @ u.conj()))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])

    def max_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[-1])

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.matrix)))

    @staticmethod
    def embed(sub: np.ndarray, index_map, dim: int) -> "Form11":
        """Place a sub-block into an otherwise zero form of size ``dim``."""
        A = np.zeros((dim, dim), complex)
        idx = np.asarray(index_map, int)
        A[np.ix_(idx, idx)] = sub
        return Form11(A)

    def __repr__(self):
        return f"Form11(dim={self.dim}, min_eig={self.min_eigenvalue():.3e})"
