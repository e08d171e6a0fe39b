import csv
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubecrawl import CrawlSpec, SegmentedMetrics, load_cellset
from cubecrawl.attribution import ATTRIBUTION_KINDS, attribution_signals
from cubecrawl.cli import RunConfig, load_config, main
from cubecrawl.errors import DomainError

from conftest import T1_ROWS

T1_SCHEMA_DICT = {
    "dimensions": [{"name": "Device"}, {"name": "Browser"},
                   {"name": "is_test", "domain": "boolean"}],
    "measures": [{"name": "Revenue", "agg": "sum", "sources": ["Revenue"]},
                 {"name": "Clicks", "agg": "sum", "sources": ["Clicks"]}],
}


def write_t1_csv(path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["Device", "Browser", "is_test", "Revenue", "Clicks"])
        for device, browser, is_test, revenue, clicks in T1_ROWS:
            writer.writerow([device, browser, "T" if is_test else "F", revenue, clicks])


def write_config(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, indent=1))
    return path


def t1_crawl_config(tmp_path: Path, **crawl_overrides) -> Path:
    write_t1_csv(tmp_path / "t1.csv")
    crawl = {
        "models": [{"model": "entity_weight", "params": {"metric": "Revenue"}}],
        "dimensions": ["Device", "Browser"],
        "thresholds": {"total_weight": 40},
    }
    crawl.update(crawl_overrides)
    return write_config(tmp_path / "run.json", {
        "spec_version": 1,
        "input": {"csv": str(tmp_path / "t1.csv"), "schema": T1_SCHEMA_DICT},
        "crawl": crawl,
    })


def daily_source(tmp_path: Path) -> dict:
    """A base-table source of 2 devices x 8 dates, written to ``daily.csv``."""
    with open(tmp_path / "daily.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["Device", "date", "Revenue"])
        for device in ("A", "B"):
            for i in range(8):
                writer.writerow([device, f"d{i}", 10 + i])
    schema = {"dimensions": [{"name": "Device"}, {"name": "date"}],
              "measures": [{"name": "Revenue", "agg": "sum", "sources": ["Revenue"]}]}
    return {"kind": "base_table", "csv": str(tmp_path / "daily.csv"), "schema": schema}


def fim_config(tmp_path: Path) -> Path:
    rows = [("t1", "A"), ("t1", "B"), ("t1", "C"), ("t2", "A"), ("t2", "B"),
            ("t3", "A"), ("t3", "C"), ("t4", "B")]
    txns = {}
    for tid, item in rows:
        txns.setdefault(tid, set()).add(item)
    with open(tmp_path / "t2.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tid", "A", "B", "C"])
        for tid, item in rows:
            writer.writerow([tid] + [1 if x in txns[tid] else 0 for x in "ABC"])
    schema = {
        "dimensions": [{"name": "A", "domain": "integer"},
                       {"name": "B", "domain": "integer"},
                       {"name": "C", "domain": "integer"}],
        "measures": [{"name": "support", "agg": "count_distinct", "sources": ["tid"]}],
    }
    grouping_sets = [["A"], ["B"], ["C"], ["A", "B"], ["A", "C"], ["B", "C"], ["A", "B", "C"]]
    return write_config(tmp_path / "fim.json", {
        "spec_version": 1,
        "input": {"csv": str(tmp_path / "t2.csv"), "schema": schema},
        "crawl": {
            "models": [{"model": "frequent_itemset"}],
            "dimensions": ["A", "B", "C"],
            "grouping_sets": grouping_sets,
            "thresholds": {"support": 2},
            "dimension_values": {"A": [1], "B": [1], "C": [1]},
        },
    })


class TestConfigHandling:
    def test_every_crawl_key_reaches_the_spec(self, tmp_path):
        config_path = t1_crawl_config(
            tmp_path,
            models=[{"model": "entity_weight", "params": {"metric": "Revenue", "name": "w"},
                     "gate": True, "pushdown": [["Clicks", ">=", 1]]},
                    {"model": "frequent_itemset", "params": {"support_measure": "Clicks"}}],
            grouping_sets=[["Device"], ["Device", "Browser"]],
            thresholds={"w": 40, "-support": 9},
            top_n={"signal": "w", "n": 3},
            exploration="dfs",
            dimension_order=["Browser", "Device"],
            hierarchies=[["Device", "Browser"]],
            max_degree=1,
            dimension_values={"Device": ["Pixel", "iPhone"]},
            batch_size=8,
            mode="naive",
        )
        config = load_config(config_path)
        spec = config.crawl
        assert config.crawl_mode == "naive"
        assert spec.dimensions == ["Device", "Browser"]
        assert spec.grouping_sets == [["Device"], ["Device", "Browser"]]
        assert spec.thresholds == {"w": 40, "-support": 9}
        assert spec.top_n == ("w", 3)
        assert spec.exploration == "dfs"
        assert spec.dimension_order == ["Browser", "Device"]
        assert spec.hierarchies == [["Device", "Browser"]]
        assert spec.max_degree == 1
        assert spec.dimension_values == {"Device": ["Pixel", "iPhone"]}
        assert spec.batch_size == 8
        weight, itemset = spec.models
        assert (type(weight).__name__, weight.name, weight.gate) == ("EntityWeightModel", "w", True)
        assert [(t.measure, t.op, t.value) for t in weight.pushdown] == [("Clicks", ">=", 1.0)]
        assert (type(itemset).__name__, itemset.name, itemset.gate, itemset.pushdown) == \
            ("FrequentItemsetModel", "frequent_itemset", False, ())
        (tmp_path / "defaults").mkdir()
        defaults = load_config(t1_crawl_config(tmp_path / "defaults", dimensions=None))
        assert defaults.crawl_mode == "pruned"
        assert defaults.crawl == CrawlSpec(models=defaults.crawl.models,
                                           thresholds={"total_weight": 40})

    def test_unknown_keys_rejected(self, tmp_path):
        config_path = t1_crawl_config(tmp_path)
        payload = json.loads(config_path.read_text())
        payload["crawl"]["typo_key"] = 1
        bad = write_config(tmp_path / "bad.json", payload)
        rc = main(["crawl", "--config", str(bad), "--output", str(tmp_path / "out.jsonl")])
        assert rc == 2
        assert not (tmp_path / "out.jsonl").exists()

    def test_threshold_on_undeclared_signal_is_spec_error(self, tmp_path):
        config_path = t1_crawl_config(tmp_path, thresholds={"nope": 1})
        rc = main(["crawl", "--config", str(config_path),
                   "--output", str(tmp_path / "out.jsonl")])
        assert rc == 2
        assert not (tmp_path / "out.jsonl").exists()

    def test_missing_config_file(self, tmp_path):
        rc = main(["crawl", "--config", str(tmp_path / "absent.json"),
                   "--output", str(tmp_path / "out.jsonl")])
        assert rc == 2

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", '"abc"', "null", '"40"',
                                       "true"])
    def test_threshold_must_be_a_finite_number(self, tmp_path, capsys, value):
        config_path = t1_crawl_config(tmp_path)
        text = config_path.read_text().replace('"total_weight": 40', f'"total_weight": {value}')
        config_path.write_text(text)
        rc = main(["crawl", "--config", str(config_path),
                   "--output", str(tmp_path / "out.jsonl")])
        assert rc == 2
        assert not (tmp_path / "out.jsonl").exists()
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"]["type"] == "SpecError"

    def test_bad_safety_cap_fails_only_the_naive_crawl(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("HOCA_SAFETY_CAP", "abc")
        config_path = t1_crawl_config(tmp_path)
        out = tmp_path / "out.jsonl"
        assert main(["crawl", "--config", str(config_path), "--output", str(out)]) == 0
        assert out.read_text()
        rc = main(["crawl", "--config", str(config_path), "--output", str(tmp_path / "naive.jsonl"),
                   "--oracle", "naive"])
        assert rc == 2
        assert not (tmp_path / "naive.jsonl").exists()
        (line,) = capsys.readouterr().err.splitlines()
        error = json.loads(line)["error"]
        assert error["type"] == "ConfigError" and "HOCA_SAFETY_CAP" in error["message"]

    def test_a_naive_crawl_over_the_safety_cap_is_one_refusal(self, tmp_path, capsys,
                                                              monkeypatch):
        monkeypatch.setenv("HOCA_SAFETY_CAP", "3")
        config_path = t1_crawl_config(tmp_path)
        out = tmp_path / "naive.jsonl"
        assert main(["crawl", "--config", str(config_path), "--output", str(out),
                     "--oracle", "naive"]) == 5
        assert not out.exists()
        (line,) = capsys.readouterr().err.splitlines()
        error = json.loads(line)["error"]
        assert (error["type"], error["exit_code"]) == ("RefusalError", 5)
        assert "safety cap of 3" in error["message"]

    @staticmethod
    def constants_config(tmp_path, domain, constants) -> Path:
        """A crawl over a 2-row CSV whose schema adds dimension ``k`` of ``domain`` and SUM
        source ``c``, both given by ``constants``."""
        (tmp_path / "t.csv").write_text("d,m\na,1\nb,2\n")
        schema = {"dimensions": [{"name": "d"}, {"name": "k", "domain": domain}],
                  "measures": [{"name": "m", "agg": "sum", "sources": ["m"]},
                               {"name": "c", "agg": "sum", "sources": ["c"]}]}
        return write_config(tmp_path / "run.json", {
            "spec_version": 1,
            "input": {"csv": str(tmp_path / "t.csv"), "schema": schema, "constants": constants},
            "crawl": {"models": [{"model": "id", "params": {"metrics": ["c"]}}],
                      "dimensions": ["d", "k"]}})

    @pytest.mark.parametrize("domain, name, value, expected", [
        ("string", "k", [1], "a string"),
        ("string", "c", "x", "a finite number"),
        ("integer", "k", "seven", "an integer"),
        ("integer", "k", True, "an integer"),
        ("boolean", "k", 1, "true or false"),
        ("string", "c", False, "a finite number"),
        ("string", "c", float("inf"), "a finite number"),
        ("string", "extra", None, "a string or a finite number"),
    ])
    def test_a_constant_its_column_could_not_hold_is_one_config_error(self, tmp_path, capsys,
                                                                      domain, name, value,
                                                                      expected):
        constants = {"k": {"string": "z", "integer": 7, "boolean": True}[domain], "c": 1}
        constants[name] = value
        config = self.constants_config(tmp_path, domain, constants)
        out = tmp_path / "out.jsonl"
        assert main(["crawl", "--config", str(config), "--output", str(out)]) == 2
        assert not out.exists()
        (line,) = capsys.readouterr().err.splitlines()
        record = json.loads(line)["error"]
        assert (record["type"], record["exit_code"]) == ("ConfigError", 2)
        assert record["message"] == f"input.constants.{name}: expected {expected}, got {value!r}"

    @pytest.mark.parametrize("domain, k", [("string", "z"), ("integer", 2**60),
                                           ("boolean", False)])
    def test_a_constant_of_its_column_type_reaches_the_output(self, tmp_path, domain, k):
        config = self.constants_config(tmp_path, domain, {"k": k, "c": 2.5, "note": "n"})
        out = tmp_path / "out.jsonl"
        assert main(["crawl", "--config", str(config), "--output", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert {"k": k} in [r["region"] for r in records]
        assert records[0] == {"region": {}, "signals": {"c": 5.0}}

    def test_a_bad_constant_of_a_source_names_its_key_path(self, tmp_path, capsys):
        (tmp_path / "t.csv").write_text("d,m\na,1\n")
        schema = {"dimensions": [{"name": "d"}, {"name": "k", "domain": "integer"}],
                  "measures": [{"name": "m", "agg": "sum", "sources": ["m"]}]}
        source = {"kind": "base_table", "csv": str(tmp_path / "t.csv"), "schema": schema,
                  "constants": {"k": "seven"}}
        config = write_config(tmp_path / "mat.json", {
            "spec_version": 1, "materialize": {"action": "materialize", "source": source}})
        assert main(["materialize", "--config", str(config),
                     "--output", str(tmp_path / "store")]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"]["message"] == \
            "materialize.source.constants.k: expected an integer, got 'seven'"

    @pytest.mark.parametrize("where, command, code, error", [
        ("config", "crawl", 2, "ConfigError"), ("input", "crawl", 4, "DataError"),
        ("metrics", "attribute", 4, "DataError"), ("result", "join", 4, "DataError"),
    ])
    def test_text_that_is_not_utf8_is_one_error_record(self, tmp_path, capsys, where, command,
                                                       code, error):
        config = t1_crawl_config(tmp_path)
        bad = config if where == "config" else tmp_path / "t1.csv"
        if where in ("metrics", "result"):
            bad = tmp_path / "m.csv"
            bad.write_text("region,w_control,w_test\n,60,65\nDevice=Pixel,10,15\n")
            source = {"kind": "result_csv", "path": str(bad),
                      "dimensions": [{"name": "Device"}], "signals": ["w_test"]}
            section = ({"attribute": {"metrics_csv": str(bad), "kind": "summable"}}
                       if where == "metrics" else
                       {"join": {"left": source, "right": source, "on": ["Device"]}})
            config = write_config(tmp_path / "run2.json", {"spec_version": 1, **section})
        # a Latin-1 e-acute is not valid UTF-8
        bad.write_bytes(bad.read_bytes().replace(b"Device", b"D\xe9vice", 1))
        out = tmp_path / "out"
        assert main([command, "--config", str(config), "--output", str(out)]) == code
        assert not out.exists()
        (line,) = capsys.readouterr().err.splitlines()
        record = json.loads(line)["error"]
        assert record["type"] == error and str(bad) in record["message"]


class TestCrawlCommand:
    def test_fim_fixture_emits_five_records(self, tmp_path):
        config_path = fim_config(tmp_path)
        out = tmp_path / "fim.jsonl"
        assert main(["crawl", "--config", str(config_path), "--output", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        supports = {tuple(sorted(r["region"])): r["signals"]["support"] for r in records}
        assert supports == {("A",): 3.0, ("B",): 3.0, ("C",): 2.0,
                            ("A", "B"): 2.0, ("A", "C"): 2.0}

    def test_oracle_flag_is_byte_identical(self, tmp_path):
        config_path = t1_crawl_config(tmp_path)
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["crawl", "--config", str(config_path), "--output", str(out1)]) == 0
        assert main(["crawl", "--config", str(config_path), "--output", str(out2),
                     "--oracle", "naive"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_format_flattens_regions(self, tmp_path):
        config_path = t1_crawl_config(tmp_path)
        out = tmp_path / "out.csv"
        assert main(["crawl", "--config", str(config_path), "--output", str(out),
                     "--format", "csv"]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert rows[0]["region"] == ""
        assert {"Device=Pixel;Browser=Safari", "Device=iPhone;Browser=Safari"} <= \
            {r["region"] for r in rows}

    @pytest.mark.parametrize("dim, value", [("d0", "x;b=y"), ("d0", "NULL"), ("d=0", "a"),
                                            ("d;0", "a")])
    def test_a_region_csv_cannot_read_back_is_refused(self, tmp_path, capsys, dim, value):
        with open(tmp_path / "t.csv", "w", newline="") as fh:
            csv.writer(fh).writerows([[dim, "Revenue"], [value, 1], ["z", 2]])
        schema = {"dimensions": [{"name": dim}],
                  "measures": [{"name": "Revenue", "agg": "sum", "sources": ["Revenue"]}]}
        config = write_config(tmp_path / "run.json", {
            "spec_version": 1, "input": {"csv": str(tmp_path / "t.csv"), "schema": schema},
            "crawl": {"models": [{"model": "entity_weight", "params": {"metric": "Revenue"}}],
                      "dimensions": [dim], "thresholds": {"total_weight": 1}}})
        output = tmp_path / "out" / "crawl.csv"
        assert main(["crawl", "--config", str(config), "--output", str(output),
                     "--format", "csv"]) == 4
        assert not output.parent.exists()
        (line,) = capsys.readouterr().err.splitlines()
        record = json.loads(line)["error"]
        assert (record["type"], record["exit_code"]) == ("DataError", 4)
        assert record["message"] == (f"region {({dim: value})!r} has no CSV region key that "
                                     "reads back as itself; write it with --format jsonl")
        jsonl = tmp_path / "crawl.jsonl"
        assert main(["crawl", "--config", str(config), "--output", str(jsonl)]) == 0
        assert {dim: value} in [json.loads(line)["region"]
                                for line in jsonl.read_text().splitlines()]

    def test_an_empty_string_region_value_is_refused(self, tmp_path, capsys):
        # ``k=`` would read back as k=NULL, which is another region
        (tmp_path / "t.csv").write_text("m\n7\n")
        schema = {"dimensions": [{"name": "k"}],
                  "measures": [{"name": "m", "agg": "sum", "sources": ["m"]}]}
        config = write_config(tmp_path / "run.json", {
            "spec_version": 1,
            "input": {"csv": str(tmp_path / "t.csv"), "schema": schema, "constants": {"k": ""}},
            "crawl": {"models": [{"model": "id", "params": {"metrics": ["m"]}}],
                      "dimensions": ["k"]}})
        output = tmp_path / "crawl.csv"
        assert main(["crawl", "--config", str(config), "--output", str(output),
                     "--format", "csv"]) == 4
        assert not output.exists()
        (line,) = capsys.readouterr().err.splitlines()
        record = json.loads(line)["error"]
        assert (record["type"], record["exit_code"]) == ("DataError", 4)
        assert record["message"] == ("region {'k': ''} has no CSV region key that reads back "
                                     "as itself; write it with --format jsonl")

    def test_topn_config(self, tmp_path):
        config_path = t1_crawl_config(tmp_path, thresholds={},
                                      top_n={"signal": "total_weight", "n": 3})
        out = tmp_path / "top.jsonl"
        assert main(["crawl", "--config", str(config_path), "--output", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["signals"]["total_weight"] for r in records] == [125.0, 100.0, 70.0]
        naive_out = tmp_path / "top_naive.jsonl"
        assert main(["crawl", "--config", str(config_path), "--output", str(naive_out),
                     "--oracle", "naive"]) == 0
        assert out.read_bytes() == naive_out.read_bytes()

    def test_instrument_report(self, tmp_path):
        config_path = t1_crawl_config(tmp_path)
        report = tmp_path / "instr.json"
        assert main(["crawl", "--config", str(config_path),
                     "--output", str(tmp_path / "o.jsonl"),
                     "--instrument", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert payload["counters"]["regions_evaluated"] > 0
        assert "entity_weight" in payload["model_invocations"]

    def test_pushdown_applies_to_every_model_kind(self, tmp_path):
        # no region reaches the pushdown's Revenue, so nothing may be emitted
        model = {"model": "diff", "params": {"weight_measure": "Revenue"},
                 "pushdown": [["Revenue", ">=", 1e9]]}
        config_path = t1_crawl_config(tmp_path, models=[model], thresholds={})
        out = tmp_path / "diff.jsonl"
        assert main(["crawl", "--config", str(config_path), "--output", str(out)]) == 0
        assert out.read_text() == ""

    @pytest.mark.parametrize("flags", [(), ("--oracle", "naive")])
    def test_a_sum_past_the_float_range_is_one_model_error_record(self, tmp_path, capsys, flags):
        big = "1" + "0" * 308  # 10**308 loads; two of them sum past the float range
        (tmp_path / "t.csv").write_text(f"d0,Revenue\na,{big}\nb,{big}\n")
        schema = {"dimensions": [{"name": "d0"}],
                  "measures": [{"name": "Revenue", "agg": "sum", "sources": ["Revenue"]}]}
        config = write_config(tmp_path / "run.json", {
            "spec_version": 1, "input": {"csv": str(tmp_path / "t.csv"), "schema": schema},
            "crawl": {"models": [{"model": "entity_weight", "params": {"metric": "Revenue"}}],
                      "dimensions": ["d0"], "thresholds": {"total_weight": 1}}})
        output = tmp_path / "out.jsonl"
        assert main(["crawl", "--config", str(config), "--output", str(output), *flags]) == 4
        assert not output.exists()
        (line,) = capsys.readouterr().err.splitlines()
        record = json.loads(line)["error"]
        assert (record["type"], record["exit_code"]) == ("ModelError", 4)
        assert "overflowed the float range" in record["message"]

    def test_records_validate_against_schema(self, tmp_path):
        config_path = t1_crawl_config(tmp_path)
        out = tmp_path / "out.jsonl"
        main(["crawl", "--config", str(config_path), "--output", str(out)])
        for line in out.read_text().splitlines():
            record = json.loads(line)
            assert set(record) == {"region", "signals"}
            assert isinstance(record["region"], dict)
            assert all(isinstance(v, float) for v in record["signals"].values())


class TestAttributeCommand:
    def write_metrics(self, path, rows, header=("region", "w_control", "w_test",
                                                "s_control", "s_test")):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)

    def test_degenerate_fixture(self, tmp_path):
        metrics = tmp_path / "m.csv"
        self.write_metrics(metrics, [
            ("", 60, 65, 30, 30),
            ("Device=Pixel;Browser=Chrome", 10, 15, 5, 5),
            ("Device=Pixel;Browser=Safari", 20, 25, 10, 10),
            ("Device=iPhone;Browser=Safari", 30, 25, 15, 15),
        ])
        config = write_config(tmp_path / "attr.json", {
            "spec_version": 1,
            "attribute": {"metrics_csv": str(metrics), "kind": "density"},
        })
        out = tmp_path / "attr.jsonl"
        assert main(["attribute", "--config", str(config), "--output", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        scores = [r["signals"]["ras"] for r in records[:-1]]
        assert scores == pytest.approx([5 / 30, 5 / 30, -5 / 30])
        completeness = records[-1]["signals"]
        assert completeness["sum_ras"] == pytest.approx(5 / 30)
        assert completeness["population_change"] == pytest.approx(5 / 30)
        assert completeness["abs_error"] < 1e-12

    def test_summable_case(self, tmp_path):
        metrics = tmp_path / "m.csv"
        self.write_metrics(metrics, [
            ("", 60, 65),
            ("Device=Pixel;Browser=Chrome", 10, 15),
            ("Device=Pixel;Browser=Safari", 20, 25),
            ("Device=iPhone;Browser=Safari", 30, 25),
        ], header=("region", "w_control", "w_test"))
        config = write_config(tmp_path / "attr.json", {
            "spec_version": 1,
            "attribute": {"metrics_csv": str(metrics), "kind": "summable"},
        })
        out = tmp_path / "attr.jsonl"
        assert main(["attribute", "--config", str(config), "--output", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["signals"]["ras"] for r in records[:-1]] == [5.0, 5.0, -5.0]
        assert records[-1]["signals"]["population_change"] == 5.0
        assert records[-1]["signals"]["abs_error"] == 0.0

    def test_bad_population_rows_get_error_markers(self, tmp_path):
        metrics = tmp_path / "m.csv"
        self.write_metrics(metrics, [
            ("r1", 10, 15, 5, 5),
        ])
        config = write_config(tmp_path / "attr.json", {
            "spec_version": 1,
            "attribute": {
                "metrics_csv": str(metrics), "kind": "density",
                "population": {"w_control": 60, "w_test": 65, "s_control": 0, "s_test": 30},
            },
        })
        out = tmp_path / "attr.jsonl"
        assert main(["attribute", "--config", str(config), "--output", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert "error" in records[0]
        assert records[-1]["signals"]["warnings"] == 1.0

    def test_a_config_population_takes_the_place_of_the_empty_region_row(self, tmp_path):
        metrics = tmp_path / "m.csv"
        self.write_metrics(metrics, [("", 100, 110), ("a", 40, 45), ("b", 60, 65)],
                           header=("region", "w_control", "w_test"))
        config = write_config(tmp_path / "attr.json", {
            "spec_version": 1,
            "attribute": {"metrics_csv": str(metrics), "kind": "summable",
                          "population": {"w_control": 100, "w_test": 110}}})
        out = tmp_path / "attr.jsonl"
        assert main(["attribute", "--config", str(config), "--output", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["region"] for r in records] == ["a", "b", "(completeness)"]
        assert records[-1]["signals"] == {"sum_ras": 10.0, "population_change": 10.0,
                                          "abs_error": 0.0, "warnings": 0.0}

    @pytest.mark.parametrize("population", [None, {"w_control": 100, "w_test": 110}])
    def test_a_second_empty_region_row_is_one_error_record(self, tmp_path, capsys,
                                                           population):
        metrics = tmp_path / "m.csv"
        self.write_metrics(metrics, [("", 100, 110), ("a", 40, 45), ("", 60, 65)],
                           header=("region", "w_control", "w_test"))
        config = write_config(tmp_path / "attr.json", {
            "spec_version": 1,
            "attribute": {"metrics_csv": str(metrics), "kind": "summable",
                          "population": population}})
        out = tmp_path / "attr.jsonl"
        assert main(["attribute", "--config", str(config), "--output", str(out)]) == 4
        assert not out.exists()
        (line,) = capsys.readouterr().err.splitlines()
        record = json.loads(line)["error"]
        assert (record["type"], record["exit_code"]) == ("DataError", 4)
        assert record["message"] == \
            f"{metrics}:4: a second population row (empty region); the first is line 2"

    def test_a_region_listed_twice_is_one_error_record(self, tmp_path, capsys):
        metrics = tmp_path / "m.csv"
        self.write_metrics(metrics, [("", 100, 110), ("a", 40, 45), ("a", 40, 45),
                                     ("b", 60, 65)], header=("region", "w_control", "w_test"))
        config = write_config(tmp_path / "attr.json", {
            "spec_version": 1,
            "attribute": {"metrics_csv": str(metrics), "kind": "summable"}})
        out = tmp_path / "attr.jsonl"
        assert main(["attribute", "--config", str(config), "--output", str(out)]) == 4
        assert not out.exists()
        (line,) = capsys.readouterr().err.splitlines()
        record = json.loads(line)["error"]
        assert (record["type"], record["exit_code"]) == ("DataError", 4)
        assert record["message"] == \
            f"{metrics}:4: region 'a' is listed twice; the first is line 3"

    @settings(max_examples=50, deadline=None)
    @given(population=st.tuples(*[st.integers(0, 30)] * 4),
           regions=st.dictionaries(st.sampled_from(["a", "b", "c", "d", "e"]),
                                   st.tuples(*[st.integers(0, 30)] * 4), max_size=5),
           at=st.integers(0, 5))
    def test_every_record_is_the_library_attribution_of_its_row(self, population, regions,
                                                                 at):
        rows = [(region, *totals) for region, totals in regions.items()]
        rows.insert(min(at, len(rows)), ("", *population))
        with tempfile.TemporaryDirectory() as tmp:
            metrics = Path(tmp) / "m.csv"
            self.write_metrics(metrics, rows)
            for kind, entry in ATTRIBUTION_KINDS.items():
                config = write_config(Path(tmp) / "attr.json", {
                    "spec_version": 1, "attribute": {"metrics_csv": str(metrics), "kind": kind}})
                out = Path(tmp) / f"{kind}.jsonl"
                assert main(["attribute", "--config", str(config), "--output", str(out)]) == 0
                *records, completeness = [json.loads(line)
                                          for line in out.read_text().splitlines()]
                assert [r["region"] for r in records] == list(regions)
                for record in records:
                    m = SegmentedMetrics(*map(float, regions[record["region"]] + population))
                    try:
                        expected = {"signals": attribution_signals(m, kind)}
                    except DomainError as exc:
                        expected = {"signals": {}, "error": str(exc)}
                    assert record == {"region": record["region"], **expected}
                try:
                    change = entry.population_change(
                        SegmentedMetrics(*map(float, (0, 0, 0, 0) + population)))
                    assert completeness["signals"]["population_change"] == change
                except DomainError as exc:
                    assert completeness["error"] == str(exc)

    @pytest.mark.parametrize("header, cell, code, error", [
        (("region", "w_control", "w_test", "s_control", "s_test"), "x", 4, "DataError"),
        (("region", "w_control", "w_test_typo", "s_control", "s_test"), "5", 2, "SchemaError"),
        (("region", "w_control", "w_test", "s_control", "s_test"), "nan", 4, "DataError"),
        (("region", "w_control", "w_test", "s_control", "s_test"), "inf", 4, "DataError"),
        (("region", "w_control", "w_test", "s_control", "s_test"), "1e999", 4, "DataError"),
        # a tuple of cells takes the place of the last one: rows wider or narrower
        # than the header
        (("region", "w_control", "w_test", "s_control", "s_test"), ("5", "999"), 4,
         "DataError"),
        (("region", "w_control", "w_test", "s_control", "s_test"), (), 4, "DataError"),
    ])
    def test_bad_metrics_csv_is_one_error_record(self, tmp_path, capsys, header, cell, code,
                                                 error):
        metrics = tmp_path / "m.csv"
        cells = cell if isinstance(cell, tuple) else (cell,)
        self.write_metrics(metrics, [("", 60, 65, 30, 30), ("r1", 10, 15, 5, *cells)],
                           header=header)
        config = write_config(tmp_path / "attr.json", {
            "spec_version": 1, "attribute": {"metrics_csv": str(metrics)}})
        out = tmp_path / "attr.jsonl"
        assert main(["attribute", "--config", str(config), "--output", str(out)]) == code
        assert not out.exists()
        (line,) = capsys.readouterr().err.splitlines()
        record = json.loads(line)["error"]
        assert record["type"] == error and str(metrics) in record["message"]
        if error == "DataError" and isinstance(cell, tuple):
            assert record["message"] == f"{metrics}:3: expected 5 cells, got {4 + len(cell)}"
        elif error == "DataError":
            assert f"{metrics}:3: column 's_test'" in record["message"]

    def test_a_metrics_header_naming_a_column_twice_is_one_error_record(self, tmp_path,
                                                                         capsys):
        metrics = tmp_path / "m.csv"
        self.write_metrics(metrics, [("", 60, 65, 65), ("r1", 10, 15, 15)],
                           header=("region", "w_control", "w_test", "w_test"))
        config = write_config(tmp_path / "attr.json", {
            "spec_version": 1, "attribute": {"metrics_csv": str(metrics), "kind": "summable"}})
        out = tmp_path / "attr.jsonl"
        assert main(["attribute", "--config", str(config), "--output", str(out)]) == 4
        assert not out.exists()
        (line,) = capsys.readouterr().err.splitlines()
        record = json.loads(line)["error"]
        assert record["type"] == "DataError"
        assert record["message"] == f"{metrics}: column 'w_test' is named twice in the header"


class TestJoinCommand:
    def test_local_and_global_outputs_identical(self, tmp_path):
        write_t1_csv(tmp_path / "t1.csv")
        source = {"kind": "base_table", "csv": str(tmp_path / "t1.csv"),
                  "schema": T1_SCHEMA_DICT}
        outputs = {}
        for strategy in ("local", "global"):
            config = write_config(tmp_path / f"join_{strategy}.json", {
                "spec_version": 1,
                "join": {"left": source, "right": source,
                         "on": ["Device", "Browser", "is_test"],
                         "left_prefix": "cur", "right_prefix": "hist",
                         "strategy": strategy},
            })
            out_dir = tmp_path / f"joined_{strategy}"
            assert main(["join", "--config", str(config), "--output", str(out_dir)]) == 0
            outputs[strategy] = out_dir
        a = (outputs["local"] / "cells.bin").read_bytes()
        b = (outputs["global"] / "cells.bin").read_bytes()
        assert a == b
        loaded = load_cellset(outputs["global"])
        assert "cur.Revenue" in loaded.schema.measure_names

    def test_join_result_csvs_on_region_dims(self, tmp_path):
        config_path = t1_crawl_config(tmp_path, thresholds={"total_weight": 0})
        crawl_out = tmp_path / "crawl.csv"
        assert main(["crawl", "--config", str(config_path), "--output", str(crawl_out),
                     "--format", "csv"]) == 0
        source = {"kind": "result_csv", "path": str(crawl_out),
                  "dimensions": [{"name": "Device"}, {"name": "Browser"}],
                  "signals": ["total_weight"]}
        out_dirs = {}
        for strategy in ("local", "global"):
            config = write_config(tmp_path / f"join_{strategy}.json", {
                "spec_version": 1,
                "join": {"left": source, "right": source, "on": ["Device", "Browser"],
                         "left_prefix": "now", "right_prefix": "before",
                         "strategy": strategy},
            })
            out_dir = tmp_path / f"joined_{strategy}"
            assert main(["join", "--config", str(config), "--output", str(out_dir)]) == 0
            out_dirs[strategy] = out_dir
        assert (out_dirs["local"] / "cells.bin").read_bytes() == \
            (out_dirs["global"] / "cells.bin").read_bytes()
        loaded = load_cellset(out_dirs["global"])
        from cubecrawl import EMPTY_REGION, FeatureRequest, Region

        frame = loaded.view(Region({"Device": "Pixel"}),
                            FeatureRequest((), ("now.total_weight", "before.total_weight")))
        assert list(frame.iter_rows()) == [((), (70.0, 70.0))]

    @pytest.mark.parametrize("signal, cell, code, error", [
        ("total_weight", "x", 4, "DataError"),
        ("missing_signal", "70.0", 2, "SchemaError"),
        ("total_weight", "nan", 4, "DataError"),
        ("total_weight", "inf", 4, "DataError"),
        ("total_weight", "1e999", 4, "DataError"),
        # a row one cell wider than the header, and one with no cell after the region
        ("total_weight", "70.0,999", 4, "DataError"),
        ("total_weight", None, 4, "DataError"),
    ])
    def test_bad_result_csv_is_one_error_record(self, tmp_path, capsys, signal, cell, code,
                                                error):
        crawl_out = tmp_path / "crawl.csv"
        row = "Device=Pixel" if cell is None else f"Device=Pixel,{cell}"
        crawl_out.write_text(f"region,total_weight\n,125.0\n{row}\n")
        source = {"kind": "result_csv", "path": str(crawl_out),
                  "dimensions": [{"name": "Device"}], "signals": [signal]}
        config = write_config(tmp_path / "join.json", {
            "spec_version": 1,
            "join": {"left": source, "right": source, "on": ["Device"],
                     "left_prefix": "now", "right_prefix": "before"},
        })
        out_dir = tmp_path / "joined"
        assert main(["join", "--config", str(config), "--output", str(out_dir)]) == code
        assert not out_dir.exists()
        (line,) = capsys.readouterr().err.splitlines()
        record = json.loads(line)["error"]
        assert record["type"] == error and str(crawl_out) in record["message"]
        if error == "DataError" and (cell is None or "," in cell):
            width = 1 if cell is None else 3
            assert record["message"] == f"{crawl_out}:3: expected 2 cells, got {width}"
        elif error == "DataError":
            assert f"{crawl_out}:3: column 'total_weight'" in record["message"]


class TestMaterializeCommand:
    @pytest.mark.parametrize("body, code, error, message", [
        ("Device=Pixel,70.0\nDevice=Pixel,5.0\n", 4, "DataError",
         "{path}:4: region Region(Device=Pixel) is listed twice"),
        ("Device=Pixel;Device=iPhone,70.0\n", 4, "DataError",
         "{path}:3: region 'Device=Pixel;Device=iPhone' binds 'Device' twice"),
        ("Color=red,70.0\n", 4, "DataError", "{path}:3: unknown dimension 'Color'"),
        ("Device,70.0\n", 4, "DataError", "{path}:3: malformed region binding 'Device'"),
    ])
    def test_a_region_listed_or_bound_twice_is_one_error_record(self, tmp_path, capsys, body,
                                                                code, error, message):
        crawl_out = tmp_path / "crawl.csv"
        crawl_out.write_text("region,total_weight\n,125.0\n" + body)
        source = {"kind": "result_csv", "path": str(crawl_out),
                  "dimensions": [{"name": "Device"}], "signals": ["total_weight"]}
        config = write_config(tmp_path / "mat.json", {
            "spec_version": 1, "materialize": {"action": "materialize", "source": source}})
        store_dir = tmp_path / "store"
        assert main(["materialize", "--config", str(config), "--output", str(store_dir)]) == code
        assert not store_dir.exists()
        (line,) = capsys.readouterr().err.splitlines()
        record = json.loads(line)["error"]
        assert (record["type"], record["exit_code"]) == (error, code)
        assert record["message"] == message.format(path=crawl_out)

    @pytest.mark.parametrize("cell", [
        "nan", "-inf", "1e999", "-Infinity",
        # integers from 309 digits overflow a float; above 4300 digits int() refuses them
        pytest.param("9" * 400, id="400-digit-integer"),
        pytest.param("-" + "9" * 5000, id="5000-digit-integer"),
    ])
    def test_a_base_table_number_that_is_not_finite_is_one_error_record(self, tmp_path, capsys,
                                                                         cell):
        (tmp_path / "t.csv").write_text(f"d0,Revenue\na,1\nb,{cell}\n")
        schema = {"dimensions": [{"name": "d0"}],
                  "measures": [{"name": "Revenue", "agg": "sum", "sources": ["Revenue"]}]}
        source = {"kind": "base_table", "csv": str(tmp_path / "t.csv"), "schema": schema}
        config = write_config(tmp_path / "mat.json", {
            "spec_version": 1, "materialize": {"action": "materialize", "source": source}})
        store_dir = tmp_path / "store"
        assert main(["materialize", "--config", str(config), "--output", str(store_dir)]) == 4
        assert not store_dir.exists()
        (line,) = capsys.readouterr().err.splitlines()
        record = json.loads(line)["error"]
        assert (record["type"], record["exit_code"]) == ("DataError", 4)
        assert record["message"] == \
            f"{tmp_path / 't.csv'}:3: measure source 'Revenue': {cell!r} is not a finite number"

    @staticmethod
    def numbers_source(tmp_path, rows) -> dict:
        """A base-table source of (d, date, m) rows, written to ``numbers.csv``."""
        (tmp_path / "numbers.csv").write_text(
            "d,date,m\n" + "".join(f"{d},{date},{m}\n" for d, date, m in rows))
        schema = {"dimensions": [{"name": "d"}, {"name": "date"}],
                  "measures": [{"name": "m", "agg": "sum", "sources": ["m"]}]}
        return {"kind": "base_table", "csv": str(tmp_path / "numbers.csv"), "schema": schema}

    @staticmethod
    def store_section(command, source) -> dict:
        if command == "join":
            return {"join": {"left": source, "right": source, "on": ["d", "date"],
                             "strategy": "global"}}
        if command == "chunk":
            return {"materialize": {"action": "chunk", "source": source,
                                    "partition_dim": "date"}}
        return {"materialize": {"action": "materialize", "source": source}}

    @pytest.mark.parametrize("command", ["materialize", "chunk", "join"])
    @pytest.mark.parametrize("rows, message", [
        ([("a", "d0", 2 ** 63 - 1), ("a", "d0", 1)],
         "column {m!r} holds 9223372036854775808 at the cell"),
        ([("a", "d0", -2 ** 63), ("a", "d0", -1)],
         "column {m!r} holds -9223372036854775809 at the cell"),
        ([("a", "d0", 1e308), ("a", "d0", 1e308)],
         "measure 'm': the SUM of 2 rows is inf, not a finite number"),
    ], ids=["past-i64-max", "past-i64-min", "float-overflow"])
    def test_a_sum_no_store_column_holds_is_one_error_record(self, tmp_path, capsys, command,
                                                             rows, message):
        section = self.store_section(command, self.numbers_source(tmp_path, rows))
        config = write_config(tmp_path / "store.json", {"spec_version": 1, **section})
        store_dir = tmp_path / "store"
        cli_command = "join" if command == "join" else "materialize"
        assert main([cli_command, "--config", str(config), "--output", str(store_dir)]) == 4
        assert not store_dir.exists()
        (line,) = capsys.readouterr().err.splitlines()
        record = json.loads(line)["error"]
        assert (record["type"], record["exit_code"]) == ("DataError", 4)
        # a joined cube names its measures with their side's prefix
        assert message.format(m="left.m" if command == "join" else "m") in record["message"]

    def test_a_sum_at_the_edge_of_the_i64_range_keeps_its_bytes(self, tmp_path):
        rows = [("a", "d0", 2 ** 62), ("a", "d0", 2 ** 62 - 1), ("b", "d1", -2 ** 63)]
        section = self.store_section("materialize", self.numbers_source(tmp_path, rows[:2]))
        config = write_config(tmp_path / "store.json", {"spec_version": 1, **section})
        assert main(["materialize", "--config", str(config),
                     "--output", str(tmp_path / "store")]) == 0
        assert load_cellset(tmp_path / "store").cells[("a", "d0")] == {"m": 2 ** 63 - 1}
        section = self.store_section("chunk", self.numbers_source(tmp_path, rows[2:]))
        config = write_config(tmp_path / "chunk.json", {"spec_version": 1, **section})
        assert main(["materialize", "--config", str(config),
                     "--output", str(tmp_path / "chunks")]) == 0

    def test_a_merge_across_chunks_past_the_float_range_is_one_error_record(self, tmp_path,
                                                                             capsys):
        # each chunk holds a finite SUM; their merge across dates is not finite
        source = self.numbers_source(tmp_path, [("a", "d0", 1e308), ("a", "d1", 1e308)])
        config = write_config(tmp_path / "chunk.json",
                              {"spec_version": 1, **self.store_section("chunk", source)})
        assert main(["materialize", "--config", str(config),
                     "--output", str(tmp_path / "chunks")]) == 0
        config = write_config(tmp_path / "cells.json", {"spec_version": 1, "materialize": {
            "action": "materialize", "source": {"kind": "store", "path": str(tmp_path / "chunks")},
            "dims": ["d"]}})
        assert main(["materialize", "--config", str(config),
                     "--output", str(tmp_path / "cells")]) == 4
        assert not (tmp_path / "cells").exists()
        (line,) = capsys.readouterr().err.splitlines()
        record = json.loads(line)["error"]
        assert (record["type"], record["exit_code"]) == ("DataError", 4)
        assert "is not a finite number" in record["message"]

    def test_a_result_header_naming_a_column_twice_is_one_error_record(self, tmp_path, capsys):
        crawl_out = tmp_path / "crawl.csv"
        crawl_out.write_text("region,total_weight,total_weight\n,125.0,1.0\n")
        source = {"kind": "result_csv", "path": str(crawl_out),
                  "dimensions": [{"name": "Device"}], "signals": ["total_weight"]}
        config = write_config(tmp_path / "mat.json", {
            "spec_version": 1, "materialize": {"action": "materialize", "source": source}})
        store_dir = tmp_path / "store"
        assert main(["materialize", "--config", str(config), "--output", str(store_dir)]) == 4
        assert not store_dir.exists()
        (line,) = capsys.readouterr().err.splitlines()
        record = json.loads(line)["error"]
        assert (record["type"], record["exit_code"]) == ("DataError", 4)
        assert record["message"] == \
            f"{crawl_out}: column 'total_weight' is named twice in the header"

    def test_materialize_load_crawl_equals_live(self, tmp_path):
        config_path = t1_crawl_config(tmp_path)
        run = load_config(config_path)
        mat_config = write_config(tmp_path / "mat.json", {
            "spec_version": 1,
            "materialize": {
                "action": "materialize",
                "source": {"kind": "base_table", "csv": str(tmp_path / "t1.csv"),
                           "schema": T1_SCHEMA_DICT},
                "dims": ["Device", "Browser"],
            },
        })
        store_dir = tmp_path / "store"
        assert main(["materialize", "--config", str(mat_config),
                     "--output", str(store_dir)]) == 0
        crawl_from_store = write_config(tmp_path / "crawl_store.json", {
            "spec_version": 1,
            "input": {"csv": str(tmp_path / "t1.csv"), "schema": T1_SCHEMA_DICT},
            "crawl": json.loads(config_path.read_text())["crawl"],
        })
        live_out = tmp_path / "live.jsonl"
        assert main(["crawl", "--config", str(crawl_from_store),
                     "--output", str(live_out)]) == 0
        from cubecrawl import CrawlSpec, EntityWeightModel, load_store, top_down_crawl

        loaded = load_store(store_dir)
        spec = CrawlSpec(models=[EntityWeightModel("Revenue")],
                         dimensions=["Device", "Browser"],
                         thresholds={"total_weight": 40.0})
        stored_result = top_down_crawl(loaded, spec)
        live_records = [json.loads(line) for line in live_out.read_text().splitlines()]
        assert len(stored_result.entries) == len(live_records)

    def test_chunk_then_rechunk(self, tmp_path):
        source = daily_source(tmp_path)
        chunk_config = write_config(tmp_path / "chunk.json", {
            "spec_version": 1,
            "materialize": {"action": "chunk", "source": source, "dims": ["Device"],
                            "partition_dim": "date"},
        })
        chunks_dir = tmp_path / "chunks"
        assert main(["materialize", "--config", str(chunk_config),
                     "--output", str(chunks_dir)]) == 0
        rechunk_config = write_config(tmp_path / "rechunk.json", {
            "spec_version": 1,
            "materialize": {"action": "rechunk",
                            "source": {"kind": "store", "path": str(chunks_dir)}},
        })
        slices_dir = tmp_path / "slices"
        report = tmp_path / "reads.json"
        assert main(["materialize", "--config", str(rechunk_config),
                     "--output", str(slices_dir), "--instrument", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert payload["counters"]["chunk_reads"] == 8
        from cubecrawl import FeatureRequest, Region, load_store

        sliced = load_store(slices_dir)
        before = sliced.counters["slice_reads"]
        sliced.view(Region({"Device": "A"}), FeatureRequest(("date",), ("Revenue",)))
        assert sliced.counters["slice_reads"] - before == 1


    def test_materialize_into_a_directory_that_is_no_store_is_one_error_record(
            self, tmp_path, capsys):
        config = write_config(tmp_path / "mat.json", {"spec_version": 1, "materialize": {
            "action": "materialize", "source": daily_source(tmp_path)}})
        target = tmp_path / "target"
        target.mkdir()
        (target / "notes.txt").write_text("keep me")
        assert main(["materialize", "--config", str(config), "--output", str(target)]) == 3
        (line,) = capsys.readouterr().err.splitlines()
        error = json.loads(line)["error"]
        assert (error["type"], error["exit_code"]) == ("StoreError", 3)
        assert [p.name for p in target.iterdir()] == ["notes.txt"]

class TestInstrumentReport:
    """Every layer a command runs counts into the command's one ``--instrument`` report."""

    @staticmethod
    def run(tmp_path, command, section, output, report=True) -> dict | None:
        config = write_config(tmp_path / f"{output.name}.json", {"spec_version": 1, **section})
        argv = [command, "--config", str(config), "--output", str(output)]
        report_path = tmp_path / f"{output.name}.instrument.json"
        if report:
            argv += ["--instrument", str(report_path)]
        assert main(argv) == 0
        return json.loads(report_path.read_text()) if report else None

    def chunked_store(self, tmp_path) -> dict:
        """A store source chunked by date (8 chunks) from ``daily_source``."""
        self.run(tmp_path, "materialize", {"materialize": {
            "action": "chunk", "source": daily_source(tmp_path), "dims": ["Device"],
            "partition_dim": "date"}}, tmp_path / "chunks", report=False)
        return {"kind": "store", "path": str(tmp_path / "chunks")}

    def test_materialize_over_a_chunked_store_counts_its_reads(self, tmp_path):
        report = self.run(tmp_path, "materialize", {"materialize": {
            "action": "materialize", "source": self.chunked_store(tmp_path)}},
            tmp_path / "cells")
        # one view per mask of (Device, date), each reading all 8 chunks, each decoded once
        assert report == {"counters": {"chunk_reads": 4 * 8, "parts_decoded": 8},
                          "model_invocations": {}}

    def test_local_join_with_a_chunked_side_counts_reads_and_joins(self, tmp_path):
        report = self.run(tmp_path, "join", {"join": {
            "left": self.chunked_store(tmp_path), "right": daily_source(tmp_path),
            "on": ["Device", "date"], "strategy": "local"}}, tmp_path / "joined")
        # one LOCAL view join per mask of (Device, date), each reading all 8 chunks,
        # each decoded once
        assert report == {"counters": {"chunk_reads": 4 * 8, "local_view_joins": 4,
                                       "parts_decoded": 8},
                          "model_invocations": {}}

    def test_outputs_are_byte_identical_with_and_without_a_report(self, tmp_path):
        t1_crawl_config(tmp_path)
        t1 = {"kind": "base_table", "csv": str(tmp_path / "t1.csv"), "schema": T1_SCHEMA_DICT}
        crawl = json.loads((tmp_path / "run.json").read_text())
        chunks = self.chunked_store(tmp_path)
        runs = {
            "crawl": ("crawl", {key: crawl[key] for key in ("input", "crawl")}),
            "join": ("join", {"join": {"left": chunks, "right": daily_source(tmp_path),
                                       "on": ["Device", "date"], "strategy": "local"}}),
            "join_global": ("join", {"join": {"left": t1, "right": t1,
                                              "on": ["Device", "Browser", "is_test"]}}),
            "chunk": ("materialize", {"materialize": {
                "action": "chunk", "source": t1, "partition_dim": "is_test"}}),
            "rechunk": ("materialize", {"materialize": {"action": "rechunk", "source": chunks}}),
        }
        for name, (command, section) in runs.items():
            outputs = []
            for report in (False, True):
                output = tmp_path / f"{name}_{report}"
                self.run(tmp_path, command, section, output, report)
                files = sorted(output.iterdir()) if output.is_dir() else [output]
                outputs.append({str(f.relative_to(output)): f.read_bytes() for f in files})
            assert outputs[0] == outputs[1], name


class TestWorkerDeterminism:
    def test_byte_identical_across_worker_counts(self, tmp_path):
        config_path = t1_crawl_config(tmp_path)
        outputs = []
        for workers in (1, 2, 8):
            out = tmp_path / f"w{workers}.jsonl"
            proc = subprocess.run(
                [sys.executable, "-m", "cubecrawl", "crawl",
                 "--config", str(config_path), "--output", str(out),
                 "--workers", str(workers)],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]


def test_the_cli_loads_nothing_beyond_the_standard_library():
    # a fresh interpreter, so no module that another test imported is counted; the
    # modules a site hook loads before the import are not the engine's
    code = ("import sys; before = set(sys.modules); import cubecrawl.cli; "
            "print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = {name.partition(".")[0] for name in proc.stdout.split()}
    assert "cubecrawl" in loaded
    assert sorted(loaded - {"cubecrawl"} - sys.stdlib_module_names) == []
