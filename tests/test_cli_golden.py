"""Byte-for-byte CLI output of the README commands.

Each line of `data/cli_golden.jsonl` holds one command's argv, exit code and
exact stdout.  Every command runs with a fresh `--cache-dir`, so the output is
the uncached computation.  After an intended output change, re-record with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from quartic.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.jsonl"

X1 = "4*x1^4 + 9*x2^4 - 8*x3^4 - 8*x4^4"
F8 = "x1^4 + x2^4 + x3^4 + x4^4 - x5^4 - x6^4 - x7^4 - x8^4"

COMMANDS = [
    ["count", "--form-text", "x1^4 - x2^4", "--P", "5", "--method", "both"],
    ["count", "--form-text", X1, "--P", "100", "--projective"],
    ["expsum", "--form-text", "x1^4", "--a", "1", "--q", "5"],
    ["expsum", "--form-text", "x1^4 + x2^4", "--q", "12", "--units"],
    ["series", "--form-text", "x1^4 + x2^4", "--R", "16", "--euler"],
    ["integral", "--form-text", "x1^4 - x2^4", "--weight", "separable",
     "--center", "0.5,0.5", "--rho", "0.2", "--R", "50"],
    ["arcs", "--delta", "1.0", "--P", "16", "--alpha", "1/2"],
    ["poisson", "--form-text", "x1^3", "--weight", "bump", "--center", "0", "--rho", "1.0",
     "--P", "30", "--a", "1", "--q", "3", "--z", "0"],
    ["pipeline", "--form-text", F8, "--weight", "separable",
     "--center", "0.3,0.4,0.3,0.4,0.3,0.4,0.3,0.4", "--rho", "0.2", "--P", "40",
     "--R-series", "64", "--R-integral", "50"],
    ["hasse", "--form-text", X1, "--p-max", "100"],
    ["geometry", "--form-text", "x1^3 + x2^3 + x3^3", "--op", "rank-profile", "--p", "7", "--r", "1"],
    ["verify", "davenport", "--trials", "10", "--seed", "7"],
]
IDS = [argv[0] for argv in COMMANDS]

# Later commands name their own ids, so the ids above stay as they are.
LATER = {
    "integral-direct": ["integral", "--form-text", "x1^4 - x2^4", "--weight", "bump",
                        "--center", "0.5,0.5", "--rho", "0.2", "--R", "2.3"],
    "hasse-seed2": ["hasse", "--form-text", X1, "--seed", "2", "--p-max", "120"],
}
COMMANDS += list(LATER.values())
IDS += list(LATER)


def _run(argv, cache_dir):
    out = io.StringIO()
    with redirect_stdout(out):
        rc = main(["--cache-dir", str(cache_dir)] + argv)
    return rc, out.getvalue()


def _golden():
    return {tuple(rec["argv"]): rec for rec in map(json.loads, GOLDEN.read_text().splitlines())}


@pytest.mark.parametrize("argv", COMMANDS, ids=IDS)
def test_cli_output_is_unchanged(argv, tmp_path):
    rec = _golden()[tuple(argv)]
    rc, out = _run(argv, tmp_path / "cache")
    assert rc == rec["rc"]
    assert out == rec["stdout"]


if __name__ == "__main__":
    lines = []
    for argv in COMMANDS:
        with tempfile.TemporaryDirectory() as tmp:
            rc, out = _run(argv, Path(tmp) / "cache")
        lines.append(json.dumps({"argv": argv, "rc": rc, "stdout": out}))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(lines) + "\n")
