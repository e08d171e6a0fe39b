"""Byte-output pins: CLI outputs on a fixed-seed table, and a crawl over a
date-chunked store written by the CLI's writer, hash to recorded values.

The table mixes string, integer, boolean and NULL dimension values with a
float measure, so both the order of regions and the left-to-right order of
float sums show in the bytes.  A change that alters any output byte fails
here; if the change is meant to, record the new hashes with a note on why.
"""

import csv
import hashlib
import json
import random
from pathlib import Path

from cubecrawl import CrawlSpec, WindowOutlierModel, load_store, top_down_crawl
from cubecrawl.cli import main, result_records, write_records

SCHEMA = {
    "dimensions": [{"name": "Device"}, {"name": "Country"},
                   {"name": "Hour", "domain": "integer"},
                   {"name": "is_test", "domain": "boolean"}],
    "measures": [{"name": "Revenue", "agg": "sum", "sources": ["Revenue"]},
                 {"name": "Clicks", "agg": "sum", "sources": ["Clicks"]}],
}
MODELS = [
    {"model": "entity_weight", "params": {"metric": "Revenue"}, "gate": True},
    {"model": "diff", "params": {"weight_measure": "Revenue"}},
    {"model": "attribution", "params": {"numerator": "Revenue", "denominator": "Clicks"}},
]
DIMS = ["Device", "Country", "Hour"]
DAILY_SCHEMA = {
    "dimensions": [{"name": "Device"}, {"name": "Country"}, {"name": "date"}],
    "measures": [{"name": "Revenue", "agg": "sum", "sources": ["Revenue"]}],
}

# sha256 of each output, recorded before the base table found a region's rows
# by partitioning its parent's rows
EXPECTED = {
    "crawl.jsonl":
        "52b878dd27e017af13283996e037a5fb0e9047c4dd15157515d0101adeae6ab9",
    "crawl.csv":
        "a4b96edc9975d95eda18693db677574ca89cbab96f8de77c2f47290c9fd298db",
    "topn.jsonl":
        "022c9cfaee37dc3cd3319d0da5112e18461a8fbd6adae22c64433f3009175743",
    "naive.jsonl":
        "6c76770d475e29fb97dce42fbf0cc3b8f2a307263f80209f69999415c8a20efa",
    "cellset/cells.bin":
        "2ee71c3e6f87d2db11177c3cb8ff8a9ff995eeb8b5a5f57079eb551215f700f3",
    "cellset/manifest.json":
        "801f49c42e85039f5d59fac2d7f78dafa760986e4406b4feb9b566bc0c8fbbcb",
    "chunks/chunk-00000.bin":
        "d3b5fd5f00ef4b1f80fceb2100aa79e9ce378e58759108b7ff8f23e1672907d4",
    "chunks/chunk-00001.bin":
        "22a963936d9cf3234c37193bbbd9025eb6fc7d1722ff19f56360b3491d034fac",
    "chunks/chunk-00002.bin":
        "5dc05fad345bcb7bc0451adbcae5dea95cfa45d2a9425f93952955006271b667",
    "chunks/chunk-00003.bin":
        "7eaf87a3d652030e858f23c102cfea3c468e81ad4e48e04a1f1471cc2453934b",
    "chunks/chunk-00004.bin":
        "7fed559391f25ce96f8b9556be0e498197e586262a5d242c1ba73c8ef4c735bd",
    "chunks/manifest.json":
        "185f220c2f9716157944fc6cdd58a5da940eabbecb4ceb59f69bdf5fc3c758cf",
    # recorded before a store decoded each part once per opened store
    "outlier.jsonl":
        "b0232ab04cc11ce6fb6c1e8b748c4f4e4c18aea4a31c61d65e49085a83ebc629",
}


def write_table(path: Path, seed: int = 11, n_rows: int = 400) -> None:
    rng = random.Random(seed)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["Device", "Country", "Hour", "is_test", "Revenue", "Clicks"])
        for i in range(n_rows):
            writer.writerow([
                rng.choice(["Pixel", "iPhone", "Galaxy", ""]),
                rng.choice(["US", "DE", "JP", "BR", "IN"]),
                rng.choice(["0", "6", "12", "18", ""]),
                "T" if i % 2 else "F",
                repr(rng.uniform(0.0, 50.0)),
                rng.randint(1, 9),
            ])


def write_daily_table(path: Path, seed: int = 5, n_rows: int = 600) -> None:
    """Revenue by Device and Country over ten dates, for a date-chunked store."""
    rng = random.Random(seed)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["Device", "Country", "date", "Revenue"])
        for _ in range(n_rows):
            writer.writerow([rng.choice(["Pixel", "iPhone", "Galaxy"]),
                             rng.choice(["US", "DE", "JP", "BR"]),
                             f"2024-03-{rng.randint(1, 10):02d}", rng.randint(1, 99)])


def write_config(path: Path, payload: dict) -> str:
    path.write_text(json.dumps({"spec_version": 1, **payload}, indent=1))
    return str(path)


def run_outputs(work: Path) -> dict:
    """Run every pinned command in ``work``; map each output file to its sha256."""
    write_table(work / "table.csv")
    source = {"csv": str(work / "table.csv"), "schema": SCHEMA}
    crawl = {"models": MODELS, "dimensions": DIMS, "thresholds": {"total_weight": 150.0}}
    topn = {"models": MODELS[:1], "dimensions": DIMS + ["is_test"],
            "top_n": {"signal": "total_weight", "n": 25}}
    runs = {
        "crawl.jsonl": ("crawl", {"input": source, "crawl": crawl}, ()),
        "crawl.csv": ("crawl", {"input": source, "crawl": crawl}, ("--format", "csv")),
        "topn.jsonl": ("crawl", {"input": source, "crawl": topn}, ()),
        "naive.jsonl": ("crawl", {"input": source, "crawl": {**crawl, "max_degree": 2}},
                        ("--oracle", "naive")),
        "cellset": ("materialize", {"materialize": {
            "action": "materialize", "source": {"kind": "base_table", **source}}}, ()),
        "chunks": ("materialize", {"materialize": {
            "action": "chunk", "source": {"kind": "base_table", **source},
            "partition_dim": "Hour", "dims": ["Device", "is_test"]}}, ()),
    }
    hashes = {}
    for name, (command, payload, flags) in runs.items():
        config = write_config(work / f"{name}.json", payload)
        output = work / name
        assert main([command, "--config", config, "--output", str(output), *flags]) == 0, name
        files = sorted(output.iterdir()) if output.is_dir() else [output]
        for f in files:
            key = str(f.relative_to(work))
            hashes[key] = hashlib.sha256(f.read_bytes()).hexdigest()
    # a window-outlier crawl over a date-chunked store, written as the CLI writes a crawl
    write_daily_table(work / "daily.csv")
    config = write_config(work / "daily_chunks.json", {"materialize": {
        "action": "chunk", "source": {"kind": "base_table", "csv": str(work / "daily.csv"),
                                      "schema": DAILY_SCHEMA},
        "partition_dim": "date", "dims": ["Device", "Country"]}})
    assert main(["materialize", "--config", config, "--output", str(work / "daily_chunks")]) == 0
    spec = CrawlSpec(models=[WindowOutlierModel("date", "Revenue", 3)],
                     dimensions=["Device", "Country"], thresholds={"region_share": 0.05})
    result = top_down_crawl(load_store(work / "daily_chunks"), spec)
    write_records(result_records(result, False), result.signal_names, "jsonl",
                  work / "outlier.jsonl")
    hashes["outlier.jsonl"] = hashlib.sha256((work / "outlier.jsonl").read_bytes()).hexdigest()
    return hashes


def test_cli_outputs_match_recorded_hashes(tmp_path):
    assert run_outputs(tmp_path) == EXPECTED
