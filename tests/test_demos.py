"""Each demo script, and each example in the README, runs to completion against the
package sources."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
README = (ROOT / "README.md").read_text(encoding="utf-8")


def fenced(language: str) -> list[str]:
    """The README's fenced blocks of ``language``."""
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.M | re.S)


def run(args, cwd: Path) -> subprocess.CompletedProcess:
    # TMPDIR keeps the store directories a run creates inside pytest's tmp_path
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(cwd)}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = run([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("block", fenced("python"))
def test_readme_python_example_runs(block, tmp_path):
    proc = run(["-c", block], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_config_example_crawls(tmp_path):
    (block,) = fenced("json")
    config = json.loads(block)
    schema = config["input"]["schema"]
    columns = [d["name"] for d in schema["dimensions"]] + \
        [m["sources"][0] for m in schema["measures"]]
    # ten dates, so the example's 7-day window has a point to score
    rows = [{"Device": device, "Browser": browser, "is_test": str(i % 2 == 0).lower(),
             "date": f"2024-01-{i + 1:02d}", "Revenue": 10 + 3 * i, "Clicks": i}
            for i in range(10) for device in ("Pixel", "iPhone")
            for browser in ("Chrome", "Safari")]
    lines = [",".join(columns)] + [",".join(str(row[c]) for c in columns) for row in rows]
    (tmp_path / config["input"]["csv"]).write_text("\n".join(lines) + "\n", encoding="utf-8")
    (tmp_path / "run.json").write_text(block, encoding="utf-8")
    proc = run(["-m", "cubecrawl", "crawl", "--config", "run.json", "--output", "out.jsonl"],
               tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out.jsonl").read_text(encoding="utf-8")
