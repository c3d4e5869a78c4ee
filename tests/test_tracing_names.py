"""perfbench's traced mode finds every function it wraps by name.

perfbench/tracing.py names the library functions it times as
"<module>.<function>" strings and looks each one up in its packwise module
when a traced run starts; a name that no longer resolves crashes that run.
The file is loaded here as it is, without importing the perfbench package.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look their module up
    cache, sys.dont_write_bytecode = sys.dont_write_bytecode, True   # write nothing in perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = cache
    return module


tracing = load_tracing()


@pytest.mark.parametrize("name", tracing.SPANS + (tracing.GA_EVOLVE,))
def test_traced_name_resolves(name):
    module_name, attr = name.rsplit(".", 1)
    module = importlib.import_module("packwise." + module_name)
    assert callable(getattr(module, attr, None)), f"packwise.{name} is gone"
