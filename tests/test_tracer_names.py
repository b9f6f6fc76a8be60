"""Every name the span tracer in perfbench/tracer.py rebinds must exist, so
deleting a traced function fails here rather than in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
