"""Rule-evaluation counters and outside-in layer spans.

Both instruments live in the benchmark, not in the library: counters wrap the
metric and map rules of the pairs a workload certifies, and spans wrap the
library's public functions at the module attributes through which callers
reach them.  Neither changes a computed number.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter
from contextlib import contextmanager

from projcurv import bundle, curvature, diffops, maps, verify
from projcurv.dual import HyperDual
from projcurv.fields import Form11, HermitianMetricField, RiemannianMetricField


class RuleCounter:
    """Counts rule evaluations per rule label, split by argument type.

    An evaluation is "dual" when any input scalar is a HyperDual (a jet pass
    of the engine) and "plain" otherwise.
    """

    def __init__(self):
        self.counts = Counter()

    def wrap(self, rule, label: str):
        counts = self.counts
        plain = f"rules.{label}_evals.plain"
        dual = f"rules.{label}_evals.dual"

        def counted(zs, *args, **kwargs):
            key = plain
            for v in zs:
                if type(v) is HyperDual:
                    key = dual
                    break
            counts[key] += 1
            return rule(zs, *args, **kwargs)

        return counted

    def wrap_pair(self, pair: verify.PairContext) -> verify.PairContext:
        """The same pair with counted h, g and f rules; validation is not rerun."""
        h = dataclasses.replace(pair.h, rule=self.wrap(pair.h.rule, "h"),
                                validate_on_init=False)
        g = dataclasses.replace(pair.g, rule=self.wrap(pair.g.rule, "g"),
                                validate_on_init=False)
        f = dataclasses.replace(pair.f, rule=self.wrap(pair.f.rule, "f"),
                                validate_on_init=False)
        return dataclasses.replace(pair, f=f, h=h, g=g)

    def snapshot(self) -> Counter:
        return Counter(self.counts)


class Tracer:
    """In-memory spans (name, start_ns, end_ns, parent index) on one thread."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent)

    def wrap(self, fn, name_of):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name_of(args), fn, *args, **kwargs)

        return traced

    def self_ns(self) -> list:
        """Each span's self time: its duration minus the time its child
        spans cover."""
        out = [t1 - t0 for _, t0, t1, _ in self.spans]
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                out[parent] -= t1 - t0
        return out

    def count_children(self, name: str, parent_name: str) -> int:
        spans = self.spans
        return sum(1 for n, _, _, p in spans
                   if n == name and p >= 0 and spans[p][0] == parent_name)


class NullTracer:
    """Stand-in for untraced runs: calls straight through."""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def _named(label):
    return lambda args: label


# the density and metric fields whose Hessians the suites take, by ScalarField.name
HESSIAN_FIELDS = ("generalized_density", "weighted_generalized_density",
                  "covector_density", "nested_density", "classical_density",
                  "log_tautological_metric")


def _hessian_name(args):
    field_name = getattr(args[0], "name", "")
    return "diffops.hessian." + (field_name if field_name in HESSIAN_FIELDS else "other")


# (owner, attribute, span name from the call's positional arguments).  Each
# attribute is the one the library's callers look up at call time, so the
# wrapper sees every call that goes through it.
TRACE_POINTS = (
    (diffops, "wirtinger_hessian", _hessian_name),
    (diffops, "wirtinger_gradient", _named("diffops.gradient")),
    (verify, "chern_curvature", _named("curvature.chern")),
    (verify, "riemann_curvature", _named("curvature.riemann")),
    (curvature, "levi_civita_christoffels", _named("curvature.levi_civita")),
    (maps, "levi_civita_christoffels", _named("curvature.levi_civita")),
    (verify, "assemble_W_form", _named("verify.w_form")),
    (verify, "suite_applicable", _named("verify.routing")),
    (maps, "generalized_Y", _named("maps.generalized_Y")),
    (maps.ChartedMap, "jacobians", _named("maps.jacobians")),
    (maps, "pluriharmonic_residual", _named("maps.pluriharmonic")),
    (bundle, "fiber_integrate", _named("bundle.fiber_integrate")),
    (Form11, "min_eigenvalue", _named("fields.eig")),
)


@contextmanager
def traced(tracer: Tracer, points=TRACE_POINTS):
    """Install span wrappers for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attr, name_of in points:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name_of))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


@contextmanager
def counting_validation(counter: Counter):
    """Count metric probe points validated while the block builds zoo entries."""
    classes = (HermitianMetricField, RiemannianMetricField)
    saved = [(cls, cls.validate) for cls in classes]

    def wrap(original):
        def validate(self, rng, count: int = 100):
            counter["zoo.validate_points"] += count
            return original(self, rng, count)
        return validate

    try:
        for cls, original in saved:
            cls.validate = wrap(original)
        yield counter
    finally:
        for cls, original in saved:
            cls.validate = original
