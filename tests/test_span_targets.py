"""Every callable the host benchmark's tracer wraps still exists.

``benchmarks/host/spans.py`` names its targets by dotted module, class
and attribute, and rebinds them when a traced run starts; a rename in
``repro`` would otherwise fail only that run.  The file is loaded here
read-only, by path — nothing in it is installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "host" / "spans.py"


def load_span_targets():
    spec = importlib.util.spec_from_file_location("host_bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPAN_TARGETS


SPAN_TARGETS = load_span_targets()


@pytest.mark.parametrize("span", list(SPAN_TARGETS))
def test_every_target_resolves_in_repro(span):
    for module_name, class_name, attributes in SPAN_TARGETS[span]:
        assert module_name.startswith("repro"), module_name
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        for attribute in attributes:
            assert hasattr(owner, attribute), (span, module_name, class_name, attribute)
