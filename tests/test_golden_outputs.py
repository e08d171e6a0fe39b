"""Byte-output pins: CLI outputs on a fixed-seed table (crawls, stores, GLOBAL
joins and a re-chunked store), and a crawl over a date-chunked store written
by the CLI's writer, hash to recorded values.

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
RIGHT_SCHEMA = {
    "dimensions": [{"name": "Country"}, {"name": "Channel"}],
    "measures": [{"name": "Budget", "agg": "sum", "sources": ["Budget"]},
                 {"name": "Visits", "agg": "sum", "sources": ["Visits"]}],
}
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
    # recorded before NULL ordered itself and the writers sorted cells by rank
    "join_inner/cells.bin":
        "a8009af467104d2ad4794db6081531f723eb6d634a851bf276a3213b96d36cee",
    "join_inner/manifest.json":
        "a7747560ebd0e9c3f5e6b315567a1fbfcbfcc6037e8fd24dd13951b0ff909890",
    "join_left/cells.bin":
        "3f8bef2385e9e88a56cd0566cd5ee1fd5807e1455c79f899f0847caa357d54dd",
    "join_left/manifest.json":
        "5f172fdbaacfdcf31e6cfcc466b6fdb5440f6a9b4b9904c090e5794b2eca911d",
    "rechunked/manifest.json":
        "89af3b62bb2f9559e0835484e6140afbce84b4c2965109363cbe48e6cf87158a",
    "rechunked/slice-00000.bin":
        "227b485b57388b44d470e7338e1b17779fb1518f20ba9f27ba0339ac72c64413",
    "rechunked/slice-00001.bin":
        "e5b60faa7ca351f9742d64de17c92f82a9715581d5d52d0b6e43903e72fef4e0",
    "rechunked/slice-00002.bin":
        "39404e6ba782ed1f48ebc74b931102f61ca6b7c79e57c1f2b86d0435b6842b6e",
    "rechunked/slice-00003.bin":
        "82e79aa35771a206957bc8eb2461479ef434998192c901e41f8de98f2e186155",
    "rechunked/slice-00004.bin":
        "1c7fda5a592171bb93cd8db26a6822583f78a3e05e6d25e69347af1fec8d694d",
    "rechunked/slice-00005.bin":
        "d33466f45fe082dcd15f76f3d05ae547b5de2dcd0e46472569b10f6fb1990727",
    "rechunked/slice-00006.bin":
        "8bdcec3ee69d98b002a69d73248a2868814e6a197e325c082f741a4909806b5b",
    "rechunked/slice-00007.bin":
        "aca6c889520a0b4c5640ce0f91581696e59dee76dc17ae982b826d61342fb73e",
    "rechunked/slice-00008.bin":
        "50731e0a6b4e5cc30e15fad8c4eede4fd6070c3033ae3baf4e7e3187135572a8",
    "rechunked/slice-00009.bin":
        "8ce96a35516a8574aab2d80b483934a91145768e583a68d99e1b9faf68c6ffd0",
    "rechunked/slice-00010.bin":
        "fb21b4ca593b8bed81cb08da226a735fe195c0ba25adfd85716d451b65d94f87",
    "rechunked/slice-00011.bin":
        "e0f13ddcc645fb2d2c96d841e4e660ee1783c384985a0cee04e15fd134ecab10",
    "rechunked/slice-00012.bin":
        "a45844376e2aaa2b3b5d8fce4145ac4e95e6a70e51f229298d1706e3e65c740f",
    "rechunked/slice-00013.bin":
        "d8cc76a4c8190cfa910fa233acad5a7fcac4b4cba44335a5cfed4ffbb49c5d32",
    "rechunked/slice-00014.bin":
        "678664dcd49655469fe4fc65aa3e5f8439d854a822db76cf3bcb32fecb87bc71",
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


def write_right_table(path: Path, seed: int = 7, n_rows: int = 120) -> None:
    """Budget by Country and Channel; BR and IN never occur, FR and NULL only here."""
    rng = random.Random(seed)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["Country", "Channel", "Budget", "Visits"])
        for _ in range(n_rows):
            writer.writerow([rng.choice(["US", "DE", "JP", "FR", ""]),
                             rng.choice(["web", "app", "store"]),
                             repr(rng.uniform(0.0, 20.0)), rng.randint(0, 30)])


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
    write_right_table(work / "right.csv")
    source = {"csv": str(work / "table.csv"), "schema": SCHEMA}
    right = {"kind": "base_table", "csv": str(work / "right.csv"), "schema": RIGHT_SCHEMA}
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
        # GLOBAL joins, written by the CLI's materialize of the joined cellset
        **{f"join_{kind}": ("join", {"join": {
            "left": {"kind": "base_table", **source}, "right": right, "on": ["Country"],
            "kind": kind, "strategy": "global"}}, ()) for kind in ("inner", "left")},
        # the Hour chunks re-chunked: integer and NULL partition values, NULL cells
        "rechunked": ("materialize", {"materialize": {
            "action": "rechunk", "source": {"kind": "store", "path": str(work / "chunks")}}}, ()),
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
