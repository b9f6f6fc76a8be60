"""Span tracing of ``torus_surgery`` from outside the package.

``install`` replaces the public functions named in ``SPANS`` with wrappers
that record one span per call: name, start, end, parent span and op id.
Each wrapper is bound wherever the original is, because modules import one
another's functions by name (``verification`` imports
``compatibility_check``, ``compose``, ``mat_equal`` and
``operator_pullback``), and a class attribute is replaced under every alias
(``__rmul__ = __mul__``). Spans live in flat arrays until ``write`` dumps
them; ``metrics`` derives self time (a span's duration minus its direct
children's) and the per-layer numbers, each normalised per op.

Object counts (``Fraction``, ``GaussianRational``, ``intersect``) would add
a call to every one of up to a million constructions per op and swamp the
self times, so ``ObjectCounter`` installs them on their own, for a separate
replay with no spans.
"""

from __future__ import annotations

import fractions
import functools
import gzip
import sys
import time
from array import array
from collections import defaultdict

# (module, class or None, attribute, span name). The span name's first
# component is the layer it is charged to.
SPANS = (
    ("cli", None, "main", "cli.main"),
    ("verification", None, "check_lemma2", "verification.check_lemma2"),
    ("verification", None, "check_theorem5", "verification.check_theorem5"),
    ("verification", None, "negative_control_reports", "verification.negative_controls"),
    ("forms", None, "compatibility_check", "forms.compatibility_check"),
    ("forms", None, "mat_inverse", "forms.mat_inverse"),
    ("forms", None, "mat_determinant", "forms.mat_determinant"),
    ("forms", None, "mat_mul", "forms.mat_mul"),
    ("forms", None, "mat_equal", "forms.mat_equal"),
    ("forms", None, "compose", "forms.compose"),
    ("forms", None, "operator_pullback", "forms.operator_pullback"),
    ("forms", "LinearOperator", "conjugate_by", "forms.conjugate_by"),
    ("forms", "LinearOperator", "square", "forms.operator_square"),
    ("forms", "LinearOperator", "__call__", "forms.operator_apply"),
    ("forms", "LinearOperator", "in_region", "forms.operator_in_region"),
    ("forms", "CoframeMap", "__init__", "forms.coframe_map"),
    ("forms", "CoframeMap", "pullback", "forms.pullback"),
    ("forms", "CoframeMap", "inverse", "forms.coframe_inverse"),
    ("forms", "Form", "wedge", "forms.wedge"),
    ("forms", "Form", "__add__", "forms.form_add"),
    ("forms", "Form", "__sub__", "forms.form_sub"),
    ("forms", "Form", "substitute", "forms.form_substitute"),
    ("forms", "Form", "exterior_derivative", "forms.exterior_derivative"),
    ("coefficients", "Polynomial", "__mul__", "coefficients.polynomial.mul"),
    ("coefficients", "RationalFunction", "__init__", "coefficients.rational.normalise"),
    ("coefficients", "RationalFunction", "__add__", "coefficients.rational.add"),
    ("coefficients", "RationalFunction", "__mul__", "coefficients.rational.mul"),
    ("coefficients", "RationalFunction", "__truediv__", "coefficients.rational.div"),
    ("coefficients", "RationalFunction", "__eq__", "coefficients.rational.eq"),
    ("coefficients", "RationalFunction", "evaluate", "coefficients.evaluate"),
    ("lattice", None, "complement_betti", "lattice.complement_betti"),
    ("lattice", None, "lemma_matrix", "lattice.lemma_matrix"),
    ("lattice", None, "rational_rank", "lattice.rational_rank"),
    ("lattice", None, "find_dual_torus", "lattice.find_dual_torus"),
    ("lattice", None, "snf", "lattice.snf"),
    ("lattice", None, "quotient_group", "lattice.quotient_group"),
    ("lattice", None, "embedding_catalog", "lattice.embedding_catalog"),
    ("surgery", None, "sweep", "surgery.sweep"),
    ("surgery", None, "report", "surgery.report"),
    ("surgery", None, "relation_classes", "surgery.relation_classes"),
)
# Generator functions: one span per resume, so the time is charged to the
# generator even when its consumer interleaves other spans.
GENERATOR_SPANS = (
    ("surgery", None, "sweep_descriptors", "surgery.sweep_descriptors"),
)
HOOK = "trace.hook"
LAYERS = ("verification", "forms", "coefficients", "lattice", "surgery")
PACKAGE = "torus_surgery"


def _rebind(module_name, class_name, attr, make):
    """Replace a function everywhere the package binds it; return the
    original."""
    module = sys.modules[f"{PACKAGE}.{module_name}"]
    if class_name is not None:
        cls = getattr(module, class_name)
        original = cls.__dict__[attr]
        wrapper = make(original)
        for name, value in list(vars(cls).items()):
            if value is original:
                setattr(cls, name, wrapper)
        return original
    original = getattr(module, attr)
    wrapper = make(original)
    for name, mod in list(sys.modules.items()):
        if name == PACKAGE or name.startswith(PACKAGE + "."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    return original


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_span = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op_of = array("i")
        self.stack: list[int] = []
        self.op = -1
        # Made by hooks: totals and maxima over the run, and the values seen
        # per (kind, op) for repeat and distinctness ratios.
        self.totals: dict[str, float] = defaultdict(float)
        self.maxima = dict.fromkeys(
            ("coefficients.rational.terms_max", "lattice.snf.max_abs_entry"), 0)
        self.seen: dict[tuple[str, int], set] = defaultdict(set)

    # -- recording --------------------------------------------------------

    def begin_op(self, op_id: int):
        self.op = op_id

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, hook=None):
        nid = self._name_id(name)
        hook_id = self._name_id(HOOK)
        clock = time.perf_counter_ns
        stack, names, start, end = self.stack, self.name_span, self.start, self.end
        parent, op_of = self.parent, self.op_of

        def open_span(nid):
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            op_of.append(self.op)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            return idx

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_span(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                # Hook work is a child span, so it is not charged to the
                # caller's self time.
                hidx = open_span(hook_id)
                try:
                    hook(args, result)
                finally:
                    end[hidx] = clock()
                    stack.pop()
            return result

        return wrapper

    def wrap_generator(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            resume = self.wrap(name, fn(*args, **kwargs).__next__)
            while True:
                try:
                    item = resume()
                except StopIteration:
                    return
                yield item

        return wrapper

    def install(self):
        hooks = self._hooks()
        for module, cls, attr, name in SPANS:
            _rebind(module, cls, attr,
                    lambda fn, name=name: self.wrap(name, fn, hooks.get(name)))
        for module, cls, attr, name in GENERATOR_SPANS:
            _rebind(module, cls, attr,
                    lambda fn, name=name: self.wrap_generator(name, fn))

    # -- hooks: counts measured where the work happens ----------------------

    def count(self, metric: str, amount: float = 1):
        self.totals[metric] += amount

    def track_max(self, metric: str, value: int):
        self.maxima[metric] = max(self.maxima[metric], value)

    def _inside(self, name: str) -> bool:
        nid = self.names.index(name)
        return any(self.name_span[i] == nid for i in self.stack)

    def _hooks(self):
        def normalise(args, _):
            rf = args[0]
            self.track_max("coefficients.rational.terms_max",
                           len(rf.num.terms) + len(rf.den.terms))

        def compatibility(_, report):
            self.count("forms.compatibility_check.samples", report.sample_count)

        def inverse(args, _):
            key = repr(args[0])
            seen = self.seen[("mat_inverse", self.op)]
            if key in seen:
                self.count("forms.mat_inverse.repeats")
            seen.add(key)

        def identity_check(_, report):
            if self._inside("verification.negative_controls"):
                return
            self.count("verification.claims", len(report.claims))
            self.count("verification.claims_failed",
                       sum(not c.passed for c in report.claims))

        def controls(_, reports):
            self.count("verification.controls", len(reports))
            self.count("verification.controls_caught",
                       sum(not r.passed for r in reports.values()))

        def snf(args, _):
            self.track_max("lattice.snf.max_abs_entry",
                           max((abs(v) for row in args[0] for v in row), default=0))

        def report(_, rep):
            seen = self.seen[("relations", self.op)]
            if rep.relations not in seen:
                self.count("surgery.report.distinct_relations")
            seen.add(rep.relations)

        def sweep(_, classes):
            self.count("surgery.sweep.classes", len(classes))
            self.count("surgery.sweep.descriptors", sum(c.count for c in classes))

        return {
            "coefficients.rational.normalise": normalise,
            "forms.compatibility_check": compatibility,
            "forms.mat_inverse": inverse,
            "verification.check_lemma2": identity_check,
            "verification.check_theorem5": identity_check,
            "verification.negative_controls": controls,
            "lattice.snf": snf,
            "surgery.report": report,
            "surgery.sweep": sweep,
        }

    # -- results ------------------------------------------------------------

    def metrics(self, n_ops: int) -> dict[str, float]:
        """Per-op layer metrics over every span recorded."""
        n = len(self.start)
        child = [0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += self.end[i] - self.start[i]
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for i in range(n):
            name = self.names[self.name_span[i]]
            duration = (self.end[i] - self.start[i]) / 1e9
            calls[name] += 1
            total[name] += duration
            own[name] += duration - child[i] / 1e9
        layer_own: dict[str, float] = defaultdict(float)
        for name, value in own.items():
            layer_own[name.split(".")[0]] += value

        def ratio(num, den):
            return num / den if den else 0.0

        out = {f"{layer}.self_s": layer_own[layer] / n_ops for layer in LAYERS}
        for name in ("coefficients.polynomial.mul", "coefficients.evaluate",
                     "forms.mat_inverse", "forms.mat_determinant", "forms.mat_mul",
                     "forms.conjugate_by", "forms.pullback", "forms.wedge",
                     "lattice.snf", "lattice.embedding_catalog", "surgery.report"):
            out[f"{name}.calls"] = calls[name] / n_ops
        for name in ("coefficients.polynomial.mul", "coefficients.evaluate",
                     "forms.compatibility_check", "lattice.quotient_group",
                     "surgery.report", "surgery.sweep", "cli.main"):
            out[f"{name}.self_s"] = own[name] / n_ops
        for name in ("forms.compatibility_check", "forms.mat_inverse",
                     "forms.mat_determinant", "forms.mat_mul", "forms.conjugate_by",
                     "forms.pullback", "forms.wedge", "verification.check_theorem5",
                     "verification.check_lemma2", "verification.negative_controls",
                     "lattice.snf", "lattice.embedding_catalog", "lattice.find_dual_torus",
                     "lattice.rational_rank", "lattice.lemma_matrix",
                     "surgery.relation_classes", "surgery.sweep_descriptors"):
            out[f"{name}.s"] = total[name] / n_ops
        for name in ("forms.compatibility_check.samples", "verification.claims",
                     "verification.claims_failed", "surgery.sweep.descriptors",
                     "surgery.sweep.classes"):
            out[name] = self.totals[name] / n_ops
        out.update(self.maxima)
        out["coefficients.rational.normalised"] = calls["coefficients.rational.normalise"] / n_ops
        out["forms.mat_inverse.repeat_frac"] = ratio(
            self.totals["forms.mat_inverse.repeats"], calls["forms.mat_inverse"])
        out["verification.controls_caught_frac"] = ratio(
            self.totals["verification.controls_caught"], self.totals["verification.controls"])
        out["surgery.report.distinct_relations_frac"] = ratio(
            self.totals["surgery.report.distinct_relations"], calls["surgery.report"])
        out["trace.spans_per_op"] = n / n_ops
        return out

    def write(self, path):
        """Dump every span as CSV: id, name, start_ns, end_ns, parent, op."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,start_ns,end_ns,parent,op\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.name_span[i]]},{self.start[i]},"
                         f"{self.end[i]},{self.parent[i]},{self.op_of[i]}\n")


class ObjectCounter:
    """Counts constructions of the coefficient scalars and calls of
    ``lattice.intersect`` for a replay run without spans."""

    METRICS = ("coefficients.fraction.created", "coefficients.gaussian.created",
               "lattice.intersect.calls")

    def __init__(self):
        self.counts = dict.fromkeys(self.METRICS, 0)
        self._restore = []

    def _counting(self, metric, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        coefficients = sys.modules[f"{PACKAGE}.coefficients"]
        targets = (
            (fractions.Fraction, "__new__", "coefficients.fraction.created"),
            (coefficients.GaussianRational, "__init__", "coefficients.gaussian.created"),
        )
        for cls, attr, metric in targets:
            original = cls.__dict__[attr]
            fn = original.__func__ if isinstance(original, staticmethod) else original
            setattr(cls, attr, self._counting(metric, fn))
            self._restore.append((cls, attr, original))
        original = _rebind("lattice", None, "intersect",
                           lambda fn: self._counting("lattice.intersect.calls", fn))
        self._restore.append(("lattice", "intersect", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, str):
                _rebind(owner, None, attr, lambda _, original=original: original)
            else:
                setattr(owner, attr, original)
        self._restore.clear()
