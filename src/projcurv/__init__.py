"""projcurv: numerical certification of curvature identities and Hessian
estimates for generalized energy densities on projectivized tangent bundles.
"""

from .charts import ComplexChart, RealChart
from .fields import (Form11, HermitianMetricField, RiemannianMetricField,
                     ScalarField)
from .diffops import cross_check, wirtinger_gradient, wirtinger_hessian
from .curvature import (ChernCurvatureTensor, RiemannCurvatureTensor,
                        chern_curvature, complex_sectional_curvature,
                        hermitian_normal_coordinates,
                        holomorphic_sectional_curvature, key3_check,
                        levi_civita_christoffels, riemann_curvature,
                        riemannian_normal_coordinates,
                        riemannian_sectional_curvature)
from .bundle import (BundlePoint, TautologicalMetric, fiber_integrate,
                     horizontal_curvature_value, pushforward_energy_check,
                     tautological_H, tautological_curvature)
from .maps import (ChartedMap, NestedBundlePoint, classical_energy_density,
                   constraint_D_check, generalized_Y, hatC_value,
                   hermitian_harmonic_residual, pluriharmonic_residual)
from .verify import (PairContext, VerificationReport, assemble_W_form,
                     maximum_principle_probe, run_suite, verify_exact_identity,
                     verify_form_inequality, verify_trace_inequality)
from .zoo import ZooEntry, build_entry, catalog_facts, catalog_names
from .errors import (BackendMismatchError, ChartDomainError, ConfigError,
                     DomainError, GeometryError, NotApplicable, QuadratureError,
                     ValidationError)

__version__ = "0.1.0"
