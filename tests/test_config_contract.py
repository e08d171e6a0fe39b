"""Property: a config value of the wrong type or shape never escapes ``cli.main``.

Each example takes a valid crawl, join, materialize or attribute config,
replaces the value of one key in one of its sections with a random JSON value
and runs the command.  The run must return a documented exit code, and a
failed run must write exactly one JSON error record to stderr.
"""

import contextlib
import copy
import csv
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubecrawl.cli import main

from conftest import T1_ROWS

SCHEMA = {
    "dimensions": [{"name": "Device"}, {"name": "Browser"},
                   {"name": "is_test", "domain": "boolean"}],
    "measures": [{"name": "Revenue", "agg": "sum", "sources": ["Revenue"]},
                 {"name": "Clicks", "agg": "sum", "sources": ["Clicks"]}],
}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6,
)


def _configs(root: Path) -> dict:
    """Valid configs keyed by command, with the key paths of their sections."""
    with open(root / "t1.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["Device", "Browser", "is_test", "Revenue", "Clicks"])
        for device, browser, is_test, revenue, clicks in T1_ROWS:
            writer.writerow([device, browser, "T" if is_test else "F", revenue, clicks])
    with open(root / "crawl.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([["region", "total_weight"], ["", "125.0"],
                                  ["Device=Pixel", "70.0"],
                                  ["Device=Pixel;Browser=Safari", "40.0"]])
    with open(root / "metrics.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([["region", "w_control", "w_test", "s_control", "s_test"],
                                  ["", 60, 65, 30, 30], ["Device=Pixel", 10, 15, 5, 5]])
    table = {"kind": "base_table", "csv": str(root / "t1.csv"), "schema": SCHEMA,
             "constants": {}}
    result_csv = {"kind": "result_csv", "path": str(root / "crawl.csv"),
                  "dimensions": [{"name": "Device"}, {"name": "Browser"}],
                  "signals": ["total_weight"]}
    chunk = {"spec_version": 1, "materialize": {
        "action": "chunk", "source": table, "dims": ["Device"], "partition_dim": "Browser"}}
    (root / "chunk.json").write_text(json.dumps(chunk))
    assert main(["materialize", "--config", str(root / "chunk.json"),
                 "--output", str(root / "chunks")]) == 0
    crawl = {"spec_version": 1,
             "input": {"csv": str(root / "t1.csv"), "schema": SCHEMA, "constants": {}},
             "crawl": {
                 "models": [
                     {"model": "entity_weight", "gate": False, "pushdown": [["Clicks", ">=", 0]],
                      "params": {"metric": "Revenue", "min_weight_pushdown": 0,
                                 "name": "weight"}},
                     {"model": "id", "params": {"metrics": ["Clicks"],
                                                "apriori": {"Clicks": True}}},
                     {"model": "diff", "params": {"weight_measure": "Revenue",
                                                  "segment_dim": "is_test",
                                                  "test_value": True, "epsilon": 0.5}},
                     {"model": "entity", "params": {"entity_columns": ["Browser"]}},
                     {"model": "window_outlier", "params": {"date_dim": "Browser",
                                                            "metric": "Clicks", "window": 1}}],
                 "dimensions": ["Device", "Browser"],
                 "grouping_sets": [["Device"], ["Device", "Browser"]],
                 "thresholds": {"total_weight": 10},
                 "top_n": {"signal": "total_weight", "n": 2},
                 "exploration": "bfs",
                 "dimension_order": ["Device", "Browser"],
                 "hierarchies": [["Device", "Browser"]],
                 "max_degree": 2,
                 "dimension_values": {"Device": ["Pixel", "iPhone"]},
                 "batch_size": 4,
                 "mode": "pruned"}}
    attribute = {"spec_version": 1, "attribute": {
        "metrics_csv": str(root / "metrics.csv"), "kind": "density",
        "columns": {"region": "region"},
        "population": {"w_control": 60, "w_test": 65, "s_control": 30, "s_test": 30}}}
    join = {"spec_version": 1, "join": {
        "left": table, "right": result_csv, "on": ["Device", "Browser"],
        "left_prefix": "now", "right_prefix": "crawl", "kind": "inner", "strategy": "local"}}
    rechunk = {"spec_version": 1, "materialize": {
        "action": "rechunk", "source": {"kind": "store", "path": str(root / "chunks")}}}
    return {
        "crawl": (crawl, [(), ("input",), ("input", "schema"), ("crawl",),
                          ("crawl", "models", 0), ("crawl", "top_n")]
                  + [("crawl", "models", i, "params") for i in range(5)]),
        "attribute": (attribute, [(), ("attribute",), ("attribute", "columns"),
                                  ("attribute", "population")]),
        "join": (join, [(), ("join",), ("join", "left"), ("join", "right")]),
        "materialize": (chunk, [(), ("materialize",), ("materialize", "source")]),
        "rechunk": (rechunk, [("materialize",), ("materialize", "source")]),
    }


@pytest.fixture(scope="module")
def configs(tmp_path_factory):
    return _configs(tmp_path_factory.mktemp("configs"))


def _run(config: dict, command: str) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.json"
        path.write_text(json.dumps(config))
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main([command, "--config", str(path), "--output", str(Path(tmp) / "out")])
    return code, stderr.getvalue()


def test_base_configs_are_valid(configs):
    for name, (config, _) in configs.items():
        assert _run(config, "materialize" if name == "rechunk" else name) == (0, ""), name


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_any_value_ends_in_a_documented_exit_code(configs, data):
    name = data.draw(st.sampled_from(sorted(configs)), label="config")
    base, sections = configs[name]
    config = copy.deepcopy(base)
    section = config
    for step in data.draw(st.sampled_from(sections), label="section"):
        section = section[step]
    key = data.draw(st.sampled_from(sorted(section)), label="key")
    section[key] = data.draw(JSON_VALUES, label="value")

    code, stderr = _run(config, "materialize" if name == "rechunk" else name)
    assert code in (0, 2, 3, 4, 5)
    if code:
        (line,) = stderr.splitlines()
        assert json.loads(line)["error"]["exit_code"] == code


@pytest.mark.parametrize("where", ["threshold", "pushdown", "population"])
def test_numbers_beyond_float_range_are_rejected(configs, where):
    huge = 10 ** 400
    command = "attribute" if where == "population" else "crawl"
    config = copy.deepcopy(configs[command][0])
    if where == "threshold":
        config["crawl"]["thresholds"] = {"total_weight": huge}
    elif where == "pushdown":
        config["crawl"]["models"][0]["pushdown"] = [["Clicks", ">=", huge]]
    else:
        config["attribute"]["population"]["w_test"] = huge
    code, stderr = _run(config, command)
    assert code == 2
    (line,) = stderr.splitlines()
    assert json.loads(line)["error"]["exit_code"] == 2


@pytest.mark.parametrize("model, key, value", [
    ("diff", "epsilon", "x"), ("window_outlier", "window", "x"),
    ("entity_weight", "min_weight_pushdown", "x"), ("id", "metrics", 5),
    ("entity", "entity_columns", 5), ("entity_weight", "name", ["w"]), ("id", "apriori", [1]),
])
def test_wrongly_typed_model_params_name_their_key(configs, model, key, value):
    config = copy.deepcopy(configs["crawl"][0])
    models = config["crawl"]["models"]
    index = [m["model"] for m in models].index(model)
    models[index]["params"][key] = value
    code, stderr = _run(config, "crawl")
    assert code == 2
    (line,) = stderr.splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "ConfigError"
    assert f"crawl.models[{index}].params.{key}:" in error["message"]
