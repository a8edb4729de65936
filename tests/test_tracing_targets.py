"""Every library name that perfbench/tracing.py wraps still exists.

The tracer replaces functions and methods by name when a benchmark runs
with `--trace 1`.  It is loaded here by path, unchanged, so that renaming
or deleting a traced name fails this test instead of the traced run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()
TARGETS = [(mod, attr) for mod, attr, _ in tracing.SPANS.values()] + list(tracing.COUNTED.values())


@pytest.mark.parametrize("modname, attr", TARGETS, ids=[f"{mod}.{attr}" for mod, attr in TARGETS])
def test_traced_target_resolves(modname, attr):
    owner = importlib.import_module(f"corings.{modname}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        raw = inspect.getattr_static(getattr(owner, cls_name), meth)
        assert raw is not inspect.getattr_static(object, meth, None), f"{attr} is inherited from object"
    else:
        assert callable(getattr(owner, attr))
