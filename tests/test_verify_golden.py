"""Byte-for-byte CLI output of every verifier sweep and of the Hessian rank loci.

Each line of `data/verify_golden.jsonl` holds one command's argv, exit code and
exact stdout: `quartic verify <lemma>` for every registered lemma, the
100-trial Davenport sweep, and the T_r and B_s profiles of the Fermat cubic
at p = 7 (s = 4 > n takes the empty-locus return).  After an intended output
change, re-record with

    PYTHONPATH=src python tests/test_verify_golden.py
"""

import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from quartic.cli import main

GOLDEN = Path(__file__).parent / "data" / "verify_golden.jsonl"

LEMMAS = ["davenport", "geometry", "vdc", "weyl", "filter", "deligne", "kernel-average", "cubic-sum"]
CUBIC = ["geometry", "--form-text", "x1^3+x2^3+x3^3"]

COMMANDS = (
    [["verify", lemma, "--trials", "10", "--seed", "7"] for lemma in LEMMAS]
    + [["verify", "davenport", "--trials", "100", "--seed", "7"]]
    + [CUBIC + ["--op", "rank-profile", "--p", "7", "--r", str(r)] for r in range(4)]
    + [CUBIC + ["--op", "b-set", "--p", "7", "--s", str(s)] for s in range(5)]
)


def _run(argv, cache_dir):
    out = io.StringIO()
    with redirect_stdout(out):
        rc = main(["--cache-dir", str(cache_dir)] + argv)
    return rc, out.getvalue()


def _golden():
    return {tuple(rec["argv"]): rec for rec in map(json.loads, GOLDEN.read_text().splitlines())}


@pytest.mark.parametrize("argv", COMMANDS, ids=["-".join(argv[1:2] + argv[-2:]) for argv in COMMANDS])
def test_output_is_unchanged(argv, tmp_path):
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
