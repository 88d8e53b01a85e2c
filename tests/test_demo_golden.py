"""Byte-for-byte stdout of the five demos.

Each line of `data/demo_golden.jsonl` holds one demo's file name and exact
stdout, with the `[<seconds>s]` elapsed prefix that `swinnerton_dyer.py`
prints replaced by `[<t>s]`.  Each demo runs as its own process with
PYTHONPATH=src.  After an intended output change, re-record with

    PYTHONPATH=src python tests/test_demo_golden.py
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "data" / "demo_golden.jsonl"
DEMOS = sorted(path.name for path in (ROOT / "demos").glob("*.py"))


def _stdout(demo: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], capture_output=True, text=True, env=env,
                         check=True, cwd=ROOT).stdout
    return re.sub(r"^\[\d+(\.\d+)?s\]", "[<t>s]", out, flags=re.M)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_output_is_unchanged(demo):
    golden = {rec["demo"]: rec["stdout"] for rec in map(json.loads, GOLDEN.read_text().splitlines())}
    assert _stdout(demo) == golden[demo]


if __name__ == "__main__":
    GOLDEN.write_text("".join(json.dumps({"demo": demo, "stdout": _stdout(demo)}) + "\n" for demo in DEMOS))
