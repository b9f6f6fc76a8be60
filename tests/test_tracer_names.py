"""Every name the span tracer in perfbench/tracer.py rebinds must exist, so
deleting a traced function fails here rather than in a traced benchmark run."""

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from torus_surgery import coefficients, lattice, surgery
from torus_surgery.forms import Region, compatibility_check
from torus_surgery.verification import (
    almost_complex_structure,
    standard_symplectic_form,
)

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    # The tracer imports only the standard library, so it loads on its own.
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = load_tracer()


@pytest.mark.parametrize(
    "module_name, class_name, attr",
    [entry[:3] for entry in TRACER.SPANS + TRACER.GENERATOR_SPANS],
    ids=str,
)
def test_traced_name_resolves(module_name, class_name, attr):
    module = importlib.import_module(f"{TRACER.PACKAGE}.{module_name}")
    if class_name is None:
        assert callable(getattr(module, attr, None))
    else:
        # The tracer looks class attributes up in the class's own dict.
        assert attr in vars(getattr(module, class_name))


def test_compatibility_report_has_integer_sample_count():
    # The tracer's hook reads report.sample_count from every
    # compatibility_check result; without it a traced run would crash.
    report = compatibility_check(
        almost_complex_structure(0), standard_symplectic_form(), Region.INNER
    )
    assert isinstance(report.sample_count, int)


def test_report_relations_and_sweep_counts_suit_the_hooks():
    # The report hook keeps report.relations in a set, and the sweep hook
    # sums SweepClass.count. No traced workload calls report, so only this
    # test would see a relations value that cannot be hashed.
    shear, swap = surgery.SL2Z(1, 1, 0, 1), surgery.SL2Z(0, -1, 1, 0)
    descriptor = surgery.SurgeryDescriptor(
        (1, -2, 3, 4), (shear, surgery.SL2Z(2, 3, 1, 2), swap, shear)
    )
    relations = surgery.report(descriptor).relations
    hash(relations)
    assert isinstance(relations, tuple)
    assert len(relations) == 4
    for row, expected in zip(relations, surgery.relation_classes(descriptor)):
        assert isinstance(row, tuple)
        assert list(row) == expected
    classes = surgery.sweep(range(-1, 2), [surgery.SL2Z.identity(), shear])
    assert classes
    assert all(type(c.count) is int for c in classes)


def test_object_counter_targets_resolve():
    # The counter wraps GaussianRational's own __init__, Fraction.__new__
    # and lattice.intersect wherever the package binds it.
    assert "__init__" in vars(coefficients.GaussianRational)
    assert callable(lattice.intersect)
    original = lattice.intersect
    counter = TRACER.ObjectCounter()
    counter.install()
    try:
        assert lattice.intersect is not original
        coefficients.GaussianRational(1, 2)
        Fraction(1, 3)
    finally:
        counter.uninstall()
    assert lattice.intersect is original
    assert counter.counts["coefficients.gaussian.created"] == 1
    assert counter.counts["coefficients.fraction.created"] >= 1


def test_normalise_hook_reads_term_counts():
    # The size hook runs after every RationalFunction.__init__ and reads
    # the term counts of its num and den views.
    x, y = (coefficients.Polynomial.variable(s) for s in ("x", "y"))
    rf = coefficients.RationalFunction(x * x - y * y, 2 * x * x + y)
    tracer = TRACER.Tracer()
    tracer._hooks()["coefficients.rational.normalise"]((rf,), None)
    assert tracer.maxima["coefficients.rational.terms_max"] == 4
