"""The benchmark's hooks into the engine still hold.

``bench/tracing.py`` names the engine functions and methods it wraps, and
``bench/oracle.py`` checks a loaded cellset's ``cells`` by measure name; a
rename, deletion or change of shape in the engine would otherwise surface
only when a benchmark run fails.  Each module is read from its file and
executed in a fresh namespace, so nothing is written next to it.
"""

import importlib
import types
from pathlib import Path

from cubecrawl import load_cellset, materialize

from conftest import t1_cube, t1_row_dicts

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name: str) -> types.ModuleType:
    path = BENCH / f"{name}.py"
    module = types.ModuleType(f"bench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def _engine(name: str) -> types.ModuleType:
    return importlib.import_module(f"cubecrawl.{name}")


def test_every_traced_function_resolves():
    tracing = _bench_module("tracing")
    for mod_name, attr, _, _ in tracing.FUNCTIONS:
        assert callable(getattr(_engine(mod_name), attr, None)), f"{mod_name}.{attr}"


def test_every_traced_method_resolves():
    tracing = _bench_module("tracing")
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


def test_the_oracle_reads_a_loaded_cellsets_cells(tmp_path):
    oracle = _bench_module("oracle")
    dims, measures = ["Device", "Browser", "is_test"], ("Revenue", "Clicks")
    expected = oracle.cellset(oracle.lattice(t1_row_dicts(), dims, sums=measures), dims)
    materialize(t1_cube(), dims, tmp_path / "cells")
    cells = load_cellset(tmp_path / "cells").cells
    assert oracle.check_cells(cells, expected, measures, "x") == []
    wrong = {**expected, ("Pixel", "*", "*"): [71, 30]}
    assert oracle.check_cells(cells, wrong, measures, "x") == \
        ["x: 1 cells with wrong measures (e.g. ('Pixel', '*', '*'))"]
