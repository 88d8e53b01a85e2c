"""Reduced-size pass of every workload, traced and untraced.

    python3 perfbench/selfcheck.py

Runs one round of each workload with the default seed (so every job is also
checked against the recorded digests), once with `--trace 0` and once with
`--trace 1`, and asserts that the last line has exactly the keys the
benchmark contract names, that every metric of BENCHMARK.json for that mode
is emitted with its unit, and that no job failed.  Exits 1 on the first
mismatch.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check(workload, trace, spec):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1", "--seconds", "0",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()}"]
    lines = proc.stdout.splitlines()
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or info["fail_ratio"] != 0:
        problems.append(f"failed jobs: {result['failed']} of {result['attempted']}: {proc.stderr.strip()}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    if emitted != wanted:
        problems.append(f"metrics differ: missing {sorted(set(wanted) - set(emitted))}, "
                        f"extra {sorted(set(emitted) - set(wanted))}, "
                        f"units {[n for n in wanted if n in emitted and emitted[n] != wanted[n]]}")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bad = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check(workload, trace, spec)
            print(f"{workload} --trace {trace}: {'ok' if not problems else '; '.join(problems)}")
            bad += bool(problems)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
