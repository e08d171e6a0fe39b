"""Spans around the engine's public calls, recorded from outside the engine.

``Tracer.install()`` replaces each traced name with a wrapper where its
callers look it up: module functions in every ``cubecrawl`` module that
imported them by name, and methods on the classes that define or inherit
them.  ``uninstall()`` puts the originals back.  Spans stay in memory until
``write()``; ``layer_split()`` turns them into per-layer self time.
"""

from __future__ import annotations

import csv
import functools
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

#: layers in report order; "bench" is time inside an operation that no
#: traced engine call covers
LAYERS = ("cli", "core", "crawler", "models", "attribution", "join", "store", "bench")

_MISSING = object()

# (module, function name, layer, span name)
FUNCTIONS = (
    ("cli", "main", "cli", "cli.main"),
    ("cli", "load_config", "cli", "cli.config"),
    ("cli", "result_records", "cli", "cli.output"),
    ("cli", "write_records", "cli", "cli.output"),
    ("core", "build_cellset", "core", "core.build_cellset"),
    ("crawler", "top_down_crawl", "crawler", "crawler.top_down_crawl"),
    ("crawler", "topn_crawl", "crawler", "crawler.topn_crawl"),
    ("crawler", "naive_crawl", "crawler", "crawler.naive_crawl"),
    ("crawler", "exhaustive_top_n", "crawler", "crawler.exhaustive_top_n"),
    ("attribution", "attribute_density", "attribution", "attribution.attribute_density"),
    ("join", "join_cubes", "join", "join.build"),
    ("store", "materialize", "store", "store.write.materialize"),
    ("store", "chunk_by_partition", "store", "store.write.chunk"),
    ("store", "rechunk", "store", "store.write.rechunk"),
    ("store", "load_store", "store", "store.open"),
    ("store", "load_cellset", "store", "store.open"),
)

# (module, class name, method, layer, span name); "*cursor" expands to every
# RegionCursor subclass, i.e. whatever ``bind`` returns
METHODS = (
    ("cli", "InputConfig", "load_cube", "cli", "cli.load_cube"),
    ("core", "Table", "from_csv", "core", "core.csv_parse"),
    ("core", "BaseTableGroupByCube", "__init__", "core", "core.build"),
    ("core", "BaseTableGroupByCube", "view", "core", "core.table_view"),
    ("core", "BaseTableGroupByCube", "bind", "core", "core.bind"),
    ("core", "AbstractCube", "bind", "core", "core.bind"),
    ("core", "*cursor", "view", "core", "core.view"),
    ("core", "*cursor", "child", "core", "core.child"),
    ("core", "*cursor", "values", "core", "core.values"),
    ("core", "CellsetCube", "view", "core", "core.cellset_view"),
    ("models", "RegionAnalysisModel", "run", "models", None),
    ("join", "JoinedCube", "view", "join", "join.view"),
    ("store", "ChunkStore", "view", "store", "store.view"),
    ("store", "RechunkedStore", "view", "store", "store.view"),
)


class Tracer:
    """In-memory span recorder: one span per traced call, nested by a stack."""

    def __init__(self):
        # [span id, parent id, op id, layer, name, start, end, frame rows]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple] = []

    # -- recording -------------------------------------------------------

    def call(self, layer: str, name: str, fn, args, kwargs):
        if not self._stack and layer != "bench":
            return fn(*args, **kwargs)  # outside any operation: checks, not work
        span = [len(self.spans), self._stack[-1] if self._stack else -1, self._op,
                layer, name, perf_counter(), 0.0, 0]
        self.spans.append(span)
        self._stack.append(span[0])
        try:
            result = fn(*args, **kwargs)
            if name == "core.view":
                span[7] = result.n_rows
            return result
        finally:
            span[6] = perf_counter()
            self._stack.pop()

    def op(self, name: str, fn):
        """Run one benchmark operation as a root span of layer ``bench``."""
        self._op += 1
        return self.call("bench", f"op.{name}", fn, (), {})

    # -- patching --------------------------------------------------------

    def _wrap(self, fn, layer, name):
        tracer = self

        if name is None:  # model runs are named after the model instance
            @functools.wraps(fn)
            def traced_model(model, *args, **kwargs):
                return tracer.call(layer, f"models.{model.name}", fn, (model,) + args, kwargs)
            return traced_model

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(layer, name, fn, args, kwargs)
        return traced

    def install(self, engine_modules: dict) -> None:
        """Patch every traced name; ``engine_modules`` maps short name -> module."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = list(engine_modules.values()) + [sys.modules["cubecrawl"]]
        for mod_name, attr, layer, name in FUNCTIONS:
            original = getattr(engine_modules[mod_name], attr)
            wrapper = self._wrap(original, layer, name)
            for ns in namespaces:
                if getattr(ns, attr, None) is original:
                    self._patch(ns, attr, wrapper)
        for mod_name, cls_name, method, layer, name in METHODS:
            module = engine_modules[mod_name]
            if cls_name == "*cursor":
                classes = module.RegionCursor.__subclasses__()
            else:
                classes = [getattr(module, cls_name)]
            for cls in classes:
                raw = cls.__dict__.get(method)
                if isinstance(raw, classmethod):
                    wrapper = classmethod(self._wrap(raw.__func__, layer, name))
                else:
                    wrapper = self._wrap(getattr(cls, method), layer, name)
                self._patch(cls, method, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- output ----------------------------------------------------------

    def write(self, path: Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "parent", "op", "layer", "name", "start_s", "end_s"])
            for s in self.spans:
                writer.writerow(s[:5] + [repr(s[5]), repr(s[6])])


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[6] - s[5] for s in spans]
    for s in spans:
        if s[1] >= 0:
            own[s[1]] -= s[6] - s[5]
    return own


def layer_split(spans) -> dict:
    """Self time per layer, and per span name the call count and inclusive time.

    Inclusive time counts only spans whose parent has another name, so a
    recursive call is not counted twice.
    """
    own = self_times(spans)
    by_layer = {layer: 0.0 for layer in LAYERS}
    calls: dict[str, int] = defaultdict(int)
    inclusive: dict[str, float] = defaultdict(float)
    frame_rows = 0
    for s, self_s in zip(spans, own):
        by_layer[s[3]] += self_s
        calls[s[4]] += 1
        if s[1] < 0 or spans[s[1]][4] != s[4]:
            inclusive[s[4]] += s[6] - s[5]
        frame_rows += s[7]
    return {"self_s": by_layer, "calls": dict(calls), "inclusive_s": dict(inclusive),
            "frame_rows": frame_rows}
