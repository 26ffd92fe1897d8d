"""Scalar and metric fields on charts, and Hermitian (1,1)-form carriers.

Field rules are plain callables written against the generic scalar math in
:mod:`projcurv.dual` (operators plus ``exp``/``log``/``conj``/``abs2``), so a
single rule serves the finite-difference backend (arrays over stencil
points), the dual-number backend (HyperDual points), and plain evaluation
(Python numbers at one point, arrays over a stack of points:
``plain_values``).

All fields are immutable after construction and all methods are pure, so
concurrent evaluation needs no synchronization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charts import ComplexChart, RealChart
from .errors import DomainError, ValidationError

HERMITIAN_DEFECT_TOL = 1e-12


@dataclass(frozen=True)
class ScalarField:
    """A scalar-valued field on a chart.

    ``rule`` maps a tuple of generic scalars (one per chart coordinate) to
    a generic scalar; it must serve both differentiation backends.

    A density field built by :meth:`joint` also carries ``joint_rule``,
    which returns the density and a rider of shape ``rider`` from one pass:
    the rider is the metric the density divides by, so one stencil serves
    both (``diffops.mixed_hessians``).  Its ``rule`` is the density
    alone.
    """

    chart: ComplexChart
    rule: object
    name: str = ""
    joint_rule: object = None
    rider: tuple = ()

    @classmethod
    def joint(cls, chart, joint_rule, name: str, rider: tuple = ()) -> "ScalarField":
        """The density field of a rule returning (density, rider)."""
        return cls(chart, lambda zs: joint_rule(zs)[0], name, joint_rule, rider)

    def __call__(self, z):
        return complex(plain_values(self.rule, np.asarray(z, complex)[None], ())[0])


# What Python numbers raise where NumPy scalars return inf or NaN: a
# division by zero, an overflow in ``**`` and ``dual.log`` outside its
# domain.  The one-point evaluations (``plain_values`` and the dual passes of
# ``diffops``) turn exactly these into non-finite values, so the checks that
# follow fail as they would on NumPy scalars; any other exception escapes.
NUMBER_ERRORS = (ZeroDivisionError, OverflowError, DomainError)


# The points one stacked rule call evaluates at most: it bounds the memory
# of the arrays alive at once (the S5 lattice of 25^m base points has
# 15,625 at m = 3 and 390,625 at m = 4), and a 625-point lattice (m = 2) is
# one call.  fs3-to-ball3's S5 probe on its 15,625-point lattice took
# 29.4-30.5 ms at 1,024, 2,048 and 4,096 points a chunk alike, and its h
# 3.5, 3.5 and 4.0 ms (2-core VM, best of 15 shuffled rounds, two runs).
# No benchmark workload has a stack of more than 625 points.
STACK_CHUNK = 4096


class RuleShapeError(ValueError):
    """A rule output over a stack of points that is not nested as the shape
    asked for; ``shape`` is one point's shape in it."""

    def __init__(self, shape):
        super().__init__(f"rule output of shape {shape} at a point")
        self.shape = shape


def plain_values(rule, points, shape) -> np.ndarray:
    """Plain rule values at each row of an (N, d) stack of points, as one
    complex array ``(N,) + shape``.

    A single point is one rule call on Python numbers (``points.tolist()``),
    whose arithmetic is much cheaper than NumPy scalars'; where the rule
    raises one of ``NUMBER_ERRORS`` the point gets NaN values.  Two or more
    points are evaluated ``STACK_CHUNK`` at a time, with one rule call per
    chunk on the columns of the chunk as NumPy arrays, as the fd stencils
    are, under ``np.errstate(all="ignore")``: a pole at one point gives
    non-finite values at that point, which the checks that follow reject.
    Array arithmetic may round differently from Python's, so a point's
    value in a stack may differ from its value alone by a few ulps.  An
    output that ``rule_values`` cannot read as ``shape`` raises
    ``RuleShapeError``; any exception of the rule escapes.
    """
    if len(points) < 2:
        return _pointwise(rule, points.tolist(), shape)
    chunks = [_stacked(rule, points[k:k + STACK_CHUNK], shape)
              for k in range(0, len(points), STACK_CHUNK)]
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def _pointwise(rule, rows, shape) -> np.ndarray:
    """``plain_values`` of a list of points, one rule call per point."""
    out = []
    for p in rows:
        try:
            out.append(rule(tuple(p)))
        except NUMBER_ERRORS:
            out.append(np.full(shape, np.nan))
    return np.array(out, complex)


def _stacked(rule, points, shape) -> np.ndarray:
    """``plain_values`` of an (n, d) stack of points from one rule call on
    its columns."""
    n = len(points)
    with np.errstate(all="ignore"):
        out = rule(tuple(np.ascontiguousarray(points.T)))
        try:
            vals = rule_values(out, shape, n)
        except ValueError:
            raise RuleShapeError(_point_shape(out, n)) from None
    return np.ascontiguousarray(np.moveaxis(vals, -1, 0))


def rule_values(out, shape, N):
    """Rule output over N points as a complex array ``shape + (N,)``.

    The points are those of coordinate arrays of length N.  Entries that do
    not depend on the coordinates come back as plain numbers and are
    broadcast along the points.  Any other shape is a ``ValueError``.
    """
    try:
        arr = np.asarray(out, complex)
    except ValueError:          # ragged: constant entries beside arrays
        if not shape or len(out) != shape[0]:
            raise ValueError(f"rule output does not have shape {shape}") from None
        return np.stack([rule_values(o, shape[1:], N) for o in out])
    if arr.shape == shape + (N,):
        return arr
    if arr.shape != shape:
        raise ValueError(f"rule output of shape {arr.shape}, expected {shape} "
                         f"or {shape + (N,)}")
    return np.broadcast_to(arr[..., None], shape + (N,))


def _point_shape(out, N):
    """Shape of one point's value in a rule output over N points, for
    error messages; a ragged output is measured along its first entries."""
    try:
        shape = np.shape(out)
    except ValueError:          # ragged: constant entries beside arrays
        return (len(out),) + _point_shape(out[0], N)
    return shape[:-1] if shape[-1:] == (N,) else shape


@dataclass(frozen=True)
class _MetricBase:
    """What the Hermitian and Riemannian metric fields share: the fields,
    the check at the chart center on construction, generic evaluation and
    the probe-point validation, which checks the shape, finiteness, the
    subclass's symmetry condition and positive definiteness of a whole
    stack of values at once."""

    chart: ComplexChart | RealChart
    rule: object
    name: str = ""
    validate_on_init: bool = True

    def __post_init__(self):
        if self.validate_on_init:
            self.check_at(self.chart.center)

    @property
    def dim(self) -> int:
        """The matrix size, the chart's dimension."""
        return self.chart.dim

    def matrix_generic(self, scalars):
        return self.rule(tuple(scalars))

    def _raw_matrices(self, points) -> np.ndarray:
        """The rule's complex values at each row of an (N, d) stack of
        points (``plain_values``)."""
        return plain_values(self.rule, np.asarray(points, self._coordinate_type),
                            (self.dim, self.dim))

    def _raw_matrix(self, z) -> np.ndarray:
        return self._raw_matrices(np.asarray(z, self._coordinate_type)[None])[0]

    def matrix(self, z) -> np.ndarray:
        """The metric's matrix at one point: ``matrices`` of its stack of one."""
        return self.matrices(np.asarray(z, self._coordinate_type)[None])[0]

    def _shape_error(self, shape):
        return ValidationError(
            f"metric {self.name!r}: rule returned shape {shape}, "
            f"expected ({self.dim}, {self.dim})")

    def check_stack(self, M, points):
        """Check the (count, d, d) stack M of rule values at ``points``: the
        values a jet's stencil centre or value slot holds (``matrix_jet``),
        or a probe-point evaluation.

        Raises for the first failing point, with the first check it fails,
        exactly as checking the points one by one would.  Returns the
        checked stack as the subclass's ``matrix`` gives it.
        """
        if M.shape[1:] != (self.dim, self.dim):
            raise self._shape_error(M.shape[1:])
        # inf - inf in a defect is NaN, quietly: the checks name it
        with np.errstate(all="ignore"):
            A, defects = self._symmetry_defects(M)
        # a NaN or inf entry makes its defect NaN or inf, so the first test
        # also keeps non-finite stacks away from eigvalsh
        if (all(defect.max(initial=0.0) <= HERMITIAN_DEFECT_TOL for _, defect in defects)
                and np.linalg.eigvalsh(A)[:, 0].min(initial=np.inf) > 0):
            return A
        finite = np.isfinite(M).all(axis=(1, 2))
        lam = np.linalg.eigvalsh(np.where(finite[:, None, None], A, np.eye(self.dim)))[:, 0]
        checks = [("has non-finite entries at {point}", ~finite, None)]
        for text, defect in defects:
            defect = defect.max(axis=(1, 2))
            checks.append((text, defect > HERMITIAN_DEFECT_TOL, defect))
        checks.append(("not positive definite at {point}: min eigenvalue {value:.3e}",
                       lam <= 0, lam))
        k = int(np.argmax(np.logical_or.reduce([failed for _, failed, _ in checks])))
        text, _, value = next(c for c in checks if c[1][k])
        raise ValidationError(f"metric {self.name!r} " + text.format(
            point=points[k], value=None if value is None else value[k]))

    def check_at(self, z) -> np.ndarray:
        """Validate the metric at one point; returns ``matrix(z)``."""
        return self.check_stack(self._raw_matrix(z)[None], [z])[0]

    def validate(self, rng, count: int = 100):
        """Validate at ``count`` chart points drawn as ``count`` calls to
        ``chart.sample(rng)`` would draw them, with one rule evaluation
        (``plain_values``)."""
        points = self.chart.sample(rng, count=count)
        try:
            M = self._raw_matrices(points)
        except RuleShapeError as err:
            raise self._shape_error(err.shape) from None
        self.check_stack(M, points)


@dataclass(frozen=True)
class HermitianMetricField(_MetricBase):
    """Matrix field z -> h_{a bbar}(z), Hermitian positive definite.

    ``rule`` returns an m x m nested sequence; entry [a][b] is the pairing of
    dz^a with dzbar^b.  Construction runs a light validation at the chart
    center; ``validate`` runs the full probe-point check.
    """

    _coordinate_type = complex

    def matrices(self, points) -> np.ndarray:
        """The (N, d, d) matrices at each row of an (N, m) stack of points,
        from one plain rule call per chunk of points (``plain_values``);
        each is within a few ulps of the point's ``matrix``."""
        return self._raw_matrices(points)

    def inverse_up(self, z) -> np.ndarray:
        """Inverse metric with raised indices: h^{a bbar} = conj(inv(H))[a, b]."""
        return np.linalg.inv(self.matrix(z)).conj()

    def _symmetry_defects(self, H):
        return H, [("not Hermitian at {point}: defect {value:.3e}",
                    np.abs(H - np.swapaxes(H, 1, 2).conj()))]


class RiemannianMetricField(_MetricBase):
    """Matrix field x -> g_{ij}(x), symmetric positive definite."""

    _coordinate_type = float

    def matrices(self, points) -> np.ndarray:
        """The (N, n, n) matrices at each row of an (N, n) stack of points,
        from one plain rule call per chunk of points (``plain_values``);
        each is within a few ulps of the point's ``matrix``."""
        return self._raw_matrices(points).real

    def _symmetry_defects(self, G):
        imag, G = np.abs(G.imag), G.real
        return G, [("has complex entries at {point}", imag),
                   ("not symmetric at {point}: defect {value:.3e}",
                    np.abs(G - np.swapaxes(G, 1, 2)))]


class Form11:
    """Coefficient matrix A of a real (1,1)-form sqrt(-1) A_{a bbar} dz^a dzbar^b.

    The sqrt(-1) factor is kept out of the stored matrix, so positivity of the
    form is exactly positive semidefiniteness of A.  The matrix is Hermitian
    by construction: the constructor keeps a matrix equal to its conjugate
    transpose as it is and symmetrizes any other to (A + A^dagger)/2, so a
    form of a form's matrix holds that matrix bit for bit, signed zeros too.

    Sums, differences and real multiples of forms are not symmetrized
    again.  Their operands are exactly Hermitian: the real parts of entries
    (a, b) and (b, a) come from equal numbers and the imaginary parts from
    negated ones, by operations that round a negated result to the negated
    number, so the result is exactly Hermitian too.
    """

    __slots__ = ("matrix", "dim")

    def __init__(self, matrix):
        A = np.array(matrix, complex)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValidationError(f"Form11 expects a square matrix, got {A.shape}")
        self.matrix = A if np.array_equal(A, A.conj().T) else hermitian_part(A)
        self.dim = A.shape[0]

    @classmethod
    def _of_hermitian(cls, matrix: np.ndarray) -> "Form11":
        """The form of a square complex matrix that is exactly Hermitian
        already, taken as it is."""
        form = cls.__new__(cls)
        form.matrix = matrix
        form.dim = matrix.shape[0]
        return form

    def __add__(self, other):
        return Form11._of_hermitian(self.matrix + other.matrix)

    def __sub__(self, other):
        return Form11._of_hermitian(self.matrix - other.matrix)

    def scaled(self, c: float) -> "Form11":
        """The form times the real number c; a complex c is refused, since
        it would not give a real form."""
        if isinstance(c, (complex, np.complexfloating)):
            raise TypeError(f"a Form11 scales by a real number, not {c!r}")
        return Form11._of_hermitian(self.matrix * c)

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
        """Smallest eigenvalue, NaN when an entry is not finite."""
        return float(eigenvalues(self.matrix)[0])

    def max_eigenvalue(self) -> float:
        """Largest eigenvalue, NaN when an entry is not finite."""
        return float(eigenvalues(self.matrix)[-1])

    def __repr__(self):
        return f"Form11(dim={self.dim}, min_eig={self.min_eigenvalue():.3e})"


# ---------------------------------------------------------------------------
# stacks of (1,1)-form matrices, sample axis first

def hermitian_part(A: np.ndarray) -> np.ndarray:
    """(A + A^dagger) / 2 of a square matrix, or of each matrix of a stack:
    the matrix a ``Form11`` holds."""
    return 0.5 * (A + np.swapaxes(A, -1, -2).conj())


def embedded(sub: np.ndarray, index_map, dim: int) -> np.ndarray:
    """The Hermitian part of each matrix of a stack ``sub`` placed at the
    rows and columns ``index_map`` of an otherwise zero dim x dim matrix."""
    A = np.zeros(sub.shape[:-2] + (dim, dim), complex)
    idx = np.asarray(index_map, int)
    A[..., idx[:, None], idx] = sub
    return hermitian_part(A)


def eigenvalues(A: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, or of each matrix of a
    stack, from one ``eigvalsh``.  A matrix with an entry that is not
    finite has NaN eigenvalues and the others keep theirs: eigvalsh may
    return finite eigenvalues for a matrix with a NaN entry, or raise
    LinAlgError, so such a matrix goes in as the identity."""
    finite = np.isfinite(A)
    # counting is cheaper than ndarray.all() on a few entries
    if np.count_nonzero(finite) == finite.size:
        return np.linalg.eigvalsh(A)
    ok = finite.all(axis=(-2, -1))
    lam = np.linalg.eigvalsh(np.where(ok[..., None, None], A, np.eye(A.shape[-1])))
    lam[~ok] = np.nan
    return lam
