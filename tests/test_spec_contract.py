"""Property: a library argument of the wrong type or shape never escapes a crawl.

The library twin of ``test_config_contract``.  Each example takes a valid crawl
spec, model or join spec, replaces one field or constructor parameter with a
random Python value, builds what it builds and runs both crawls.  Each either
runs or raises a ``CubeError``; no other exception may escape.
"""

import dataclasses
import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubecrawl import (
    BaseTableGroupByCube,
    CrawlSpec,
    Dimension,
    DimensionSchema,
    EntityWeightModel,
    IdModel,
    JoinSpec,
    Measure,
    PushdownTerm,
    Table,
    join_cubes,
    naive_crawl,
    top_down_crawl,
)
from cubecrawl.errors import CubeError, SchemaError, SpecError
from cubecrawl.models import MODEL_KINDS, build_model

NAMES = ("d", "e", "is_test", "m", "n", "support", "l.m", "r.m")

_HASHABLE = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
             | st.sampled_from(NAMES))
ANY_VALUES = st.recursive(
    _HASHABLE | st.sampled_from([PushdownTerm("m", ">=", 1), PushdownTerm("n", "<", 9)]),
    lambda inner: (st.lists(inner, max_size=3) | st.tuples(inner, inner)
                   | st.frozensets(_HASHABLE, max_size=3)
                   | st.dictionaries(_HASHABLE, inner, max_size=3)),
    max_leaves=6,
)


def _cube():
    rows = [("a", "x", True, 3, 1, 1), ("a", "y", False, 5, 2, 2), ("b", "x", True, 4, 2, 3),
            ("b", "y", False, 6, 1, 1), ("a", "x", False, 2, 3, 2)]
    table = Table.from_rows(["d", "e", "is_test", "m", "n", "tid"], rows)
    schema = DimensionSchema(
        (Dimension("d"), Dimension("e"), Dimension("is_test", "boolean")),
        (Measure.sum("m"), Measure.sum("n"), Measure.count_distinct("support", "tid")),
        (("d", "e"),))
    return BaseTableGroupByCube(table, schema)


def _right_cube():
    table = Table.from_rows(["d", "f", "m"], [("a", "p", 1), ("b", "q", 2), ("c", "p", 3)])
    return BaseTableGroupByCube(table, DimensionSchema((Dimension("d"), Dimension("f")),
                                                       (Measure.sum("m"),)))


#: valid keywords of every built-in model kind over ``_cube()``
MODEL_PARAMS = {
    "id": {"metrics": ["m"], "apriori": {"m": True}, "pushdown": [PushdownTerm("n", ">=", 1)]},
    "entity_weight": {"metric": "m", "min_weight_pushdown": 1},
    "frequent_itemset": {"support_measure": "support"},
    "diff": {"weight_measure": "m", "segment_dim": "is_test", "test_value": True,
             "epsilon": 0.5},
    "entity": {"entity_columns": ["e"]},
    "entity_measure": {"entity_columns": ["e"], "entity_measure": "m"},
    "window_outlier": {"date_dim": "e", "metric": "m", "window": 1},
    "attribution": {"numerator": "m", "denominator": "n"},
}

SPEC = CrawlSpec(models=[IdModel(["m"], apriori={"m": True})], dimensions=["d", "e"],
                 grouping_sets=[["d"], ["d", "e"]], thresholds={"m": 3}, top_n=("m", 2),
                 exploration="bfs", dimension_order=["d", "e"], hierarchies=[["d", "e"]],
                 max_degree=2, dimension_values={"d": ["a", "b"]}, batch_size=4,
                 allow_exhaustive_topn=False, naive_cap=100)

JOIN = {"on": ("d",), "left_prefix": "l", "right_prefix": "r", "kind": "inner"}


def _crawl_both(cube, spec):
    for crawl in (top_down_crawl, naive_crawl):
        crawl(cube, spec)


def test_the_base_arguments_are_valid():
    _crawl_both(_cube(), SPEC)
    for kind, params in MODEL_PARAMS.items():
        _crawl_both(_cube(), CrawlSpec(models=[MODEL_KINDS[kind](**params)]))
    for strategy in ("local", "global"):
        joined = join_cubes(_cube(), _right_cube(), JoinSpec(**JOIN), strategy)
        _crawl_both(joined, CrawlSpec(models=[IdModel(["l.m", "r.m"])]))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_any_argument_runs_or_is_a_cube_error(data):
    target = data.draw(st.sampled_from(["spec", "model", "join"]), label="target")
    value = data.draw(ANY_VALUES, label="value")
    try:
        if target == "spec":
            field = data.draw(st.sampled_from([f.name for f in dataclasses.fields(CrawlSpec)]),
                              label="field")
            _crawl_both(_cube(), dataclasses.replace(SPEC, **{field: value}))
        elif target == "model":
            kind = data.draw(st.sampled_from(sorted(MODEL_PARAMS)), label="kind")
            cls = MODEL_KINDS[kind]
            key = data.draw(st.sampled_from(sorted(inspect.signature(cls).parameters)),
                            label="param")
            model = cls(**{**MODEL_PARAMS[kind], key: value})
            _crawl_both(_cube(), CrawlSpec(models=[model]))
        else:
            field = data.draw(st.sampled_from(sorted(JOIN)), label="field")
            strategy = data.draw(st.sampled_from(["local", "global"]), label="strategy")
            joined = join_cubes(_cube(), _right_cube(), JoinSpec(**{**JOIN, field: value}),
                                strategy)
            _crawl_both(joined, CrawlSpec(models=[IdModel(["l.m", "r.m"])]))
    except CubeError:
        pass


def _spec(**kwargs):
    return dataclasses.replace(SPEC, top_n=None, thresholds={}, **kwargs)


@pytest.mark.parametrize("build, error, message", [
    (lambda: _spec(dimension_order=5), SpecError, "dimension_order"),
    (lambda: _spec(dimension_order=("d", [1])), SpecError, "dimension_order"),
    (lambda: _spec(grouping_sets=[["d", ["e"]]]), SpecError, "grouping_sets"),
    (lambda: _spec(dimension_values={"d": [[1]]}), SpecError, "dimension_values"),
    (lambda: CrawlSpec(models=[EntityWeightModel(["m"])]), SchemaError, "strings"),
    (lambda: CrawlSpec(models=[EntityWeightModel({"m": 1})]), SchemaError, "strings"),
    (lambda: CrawlSpec(models=[IdModel([["m"]])]), SpecError, "metrics"),
    (lambda: CrawlSpec(models=[IdModel(["m"], name=["m"])]), SpecError, "name"),
    (lambda: CrawlSpec(models=[IdModel(["m"], pushdown=5)]), SpecError, "pushdown"),
    (lambda: CrawlSpec(models=[IdModel(["m"], pushdown="m")]), SpecError, "pushdown"),
    (lambda: CrawlSpec(models=[IdModel(["m"], pushdown=[("m", ">=", 1)])]), SpecError,
     "PushdownTerm"),
    (lambda: CrawlSpec(models=[IdModel(["m"], pushdown=[PushdownTerm("m", [">="], 1)])]),
     SpecError, "comparator"),
    (lambda: CrawlSpec(models=[EntityWeightModel("m", gate="no")]), SpecError, "gate"),
    (lambda: CrawlSpec(models=[EntityWeightModel("m", gate=[0])]), SpecError, "gate"),
    (lambda: CrawlSpec(models=[build_model("entity_weight", {"metric": "m"}, gate=1)]),
     SpecError, "gate"),
], ids=["order-int", "order-member-list", "grouping-set-member-list", "unhashable-value",
        "measure-list", "measure-dict", "metrics-member-list", "model-name-list",
        "pushdown-int", "pushdown-string", "pushdown-tuple", "pushdown-op-list",
        "gate-string", "gate-list", "built-gate-int"])
def test_a_probe_of_the_wrong_type_is_a_cube_error(build, error, message):
    for crawl in (top_down_crawl, naive_crawl):
        with pytest.raises(error, match=message):
            crawl(_cube(), build())
