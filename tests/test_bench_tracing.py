"""The benchmark tracer's targets exist in the engine.

``bench/tracing.py`` names the engine functions and methods it wraps; a
rename or deletion in the engine would otherwise surface only when a traced
benchmark run (``--trace 1``) fails.  The module is read from its file and
executed in a fresh namespace, so nothing is written next to it.
"""

import importlib
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing() -> types.ModuleType:
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def _engine(name: str) -> types.ModuleType:
    return importlib.import_module(f"cubecrawl.{name}")


def test_every_traced_function_resolves():
    tracing = _tracing()
    for mod_name, attr, _, _ in tracing.FUNCTIONS:
        assert callable(getattr(_engine(mod_name), attr, None)), f"{mod_name}.{attr}"


def test_every_traced_method_resolves():
    tracing = _tracing()
    for mod_name, cls_name, method, _, _ in tracing.METHODS:
        module = _engine(mod_name)
        if cls_name == "*cursor":
            classes = module.RegionCursor.__subclasses__()
            assert classes, "RegionCursor has no subclass to trace"
        else:
            classes = [getattr(module, cls_name, None)]
            assert isinstance(classes[0], type), f"{mod_name}.{cls_name}"
        for cls in classes:
            assert callable(getattr(cls, method, None)), f"{cls.__name__}.{method}"
