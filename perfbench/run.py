"""Closed-loop benchmark of the quartic library: one caller, seeded jobs, checked results.

    python3 perfbench/run.py --workload local_expsum --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the library is imported from `src/`.  One
caller runs the workload's seeded rounds of jobs one after another through the
public API, checks every result, and stops at the first round boundary after
`--seconds`.  The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`; the line before it holds
the run's environment and the figures that are not metrics (`fail_ratio`, the
percentile reported as `job_s.p90` and its tail sample count).

`--trace 0` reports the end-to-end metrics of BENCHMARK.json.  A fixed probe
runs after every job to follow the host's drift in speed (`SpeedProbe`), and
every job time is scaled to the probe's reference speed; the info line keeps
the unscaled figures.  `setup_s` is the median over `SETUP_PROBES` fresh
processes, started between rounds at even intervals through the run, of the
scaled time from process start until the first job could run (imports,
parsing the forms, building the first round).
`--trace 1` wraps the public functions of every module (`tracer.py`),
reports the per-layer metrics, writes the spans to
`perfbench/out/`, and then runs the same rounds untraced in a child process to
report the tracing overhead.

BLAS/OpenMP pools are pinned to one thread, and at most one child process runs
beside this one.  See `perfbench/README.md` for the workloads, the metrics and
which layer metric should move which end-to-end metric.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("QUARTIC_CACHE_DIR", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
SETUP_PROBES = 9
DIGEST_ROUNDS = 40
WORKLOAD_NAMES = ("local_expsum", "main_verify")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rounds", type=int, default=None, help="run exactly this many rounds instead")
    ap.add_argument("--probe", action="store_true", help="set up, print 'ready' and exit")
    ap.add_argument("--record-reference", action="store_true",
                    help=f"rewrite reference.json from {DIGEST_ROUNDS} rounds of the default seed")
    args = ap.parse_args(argv)
    if not args.record_reference and args.workload is None:
        ap.error("--workload is required")
    return args


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_reference():
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def digest(outputs):
    return hashlib.sha256(repr(outputs).encode()).hexdigest()[:10]


def environment(seed):
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "quartic").rglob("*.py")):
        src.update(path.read_bytes())
    import numpy

    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
    }


def set_up(name, seed, workdir):
    """Everything before the first job: imports, forms, the first round."""
    sys.path.insert(0, str(SRC))
    import quartic

    if Path(quartic.__file__).resolve().parent != (SRC / "quartic").resolve():
        fail(f"imported quartic from {quartic.__file__}, not from {SRC}")
    import workloads

    workload = workloads.WORKLOADS[name](seed, workdir, load_reference())
    return workload, workload.round(0)


def run_rounds(workload, first, seconds, max_rounds, expected, tracer=None, between_rounds=None, speed=None):
    """Run whole rounds for `seconds` of loop time (or max_rounds); time and check each job.

    `speed`, when given, is sampled after every job; its time counts towards
    `seconds` but not towards the returned job-loop wall time.
    `between_rounds(elapsed)` runs after each round; its time is left out of
    the loop time, so the run still measures `seconds` of jobs.
    """
    times, kinds, failures, attempted = [], [], [], 0
    jobs, i, paused, sampling = first, 0, 0.0, 0.0
    start = time.perf_counter()
    while True:
        for job in jobs:
            if tracer is not None:
                tracer.job = attempted
                frame = tracer.enter("harness", job.kind)
            t0 = time.perf_counter()
            try:
                outputs, ok = job.run()
                if ok and attempted < len(expected) and digest(outputs) != expected[attempted]:
                    ok = False
                    failures.append((attempted, job.kind, "digest differs from the reference"))
                elif not ok:
                    failures.append((attempted, job.kind, "check failed"))
            except Exception as exc:  # a job that raises counts as failed; the run goes on
                failures.append((attempted, job.kind, f"{type(exc).__name__}: {exc}"))
            times.append(time.perf_counter() - t0)
            kinds.append(job.kind)
            if tracer is not None:
                tracer.exit(frame)
            if speed is not None:
                sampling += speed.sample()
            attempted += 1
        i += 1
        if between_rounds is not None:
            t0 = time.perf_counter()
            between_rounds(t0 - start - paused)
            paused += time.perf_counter() - t0
        elapsed = time.perf_counter() - start - paused
        if (max_rounds is not None and i >= max_rounds) or (max_rounds is None and elapsed >= seconds):
            break
        jobs = workload.round(i)
    return times, kinds, failures, i, elapsed - sampling


def tail_percentile(times):
    """The highest whole percentile (at most the 99th) that has at least ten samples beyond it.

    In a 50-s run that is the 95th to 97th, which falls inside the block of
    the slowest job kind rather than on the edge between two kinds, where a
    small shift of either kind moves the percentile a lot.  A run of fewer
    than 20 jobs (a self-check pass) reports the median.
    """
    n = len(times)
    pct = min(99, math.floor(100 * (1 - 10 / n))) if n >= 20 else 50
    value = statistics.quantiles(times, n=100, method="inclusive")[pct - 1] if n > 1 else times[0]
    return pct, value, sum(1 for t in times if t > value)


class SpeedProbe:
    """The machine's speed, sampled after every job with a fixed piece of work.

    The host drifts in speed over minutes, and every job kind drifts with it.
    The probe's work is a Python integer loop and a numpy histogram over a
    4 MB int64 array, the two kinds of work the jobs do; it allocates nothing
    large and calls nothing in `quartic`, so a change of the library does not
    change it.  A job's speed factor is `REFERENCE_S` over the mean time of
    the `WINDOW` probes centred on it; its time multiplied by that factor is
    seconds at the reference speed.
    """

    REFERENCE_S = 0.0102  # mean probe time on an idle 2-vCPU Xeon VM (the README's "Noise" section)
    WINDOW = 13

    def __init__(self):
        import numpy

        self.numpy = numpy
        self.cells = numpy.arange(1 << 19, dtype=numpy.int64)
        self.values = numpy.empty_like(self.cells)  # preallocated: the probe's time must not depend on the heap
        self.samples = []
        self._work()

    def _work(self):
        s = 0
        for k in range(45000):
            s = (s * 31 + k) % 1000003
        np, values = self.numpy, self.values
        np.multiply(self.cells, self.cells, out=values)
        np.add(values, s, out=values)
        np.remainder(values, 1009, out=values)
        return s + int(np.bincount(values, minlength=1009)[7])

    def sample(self):
        t0 = time.perf_counter()
        self._work()
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        return elapsed

    def factor(self, job=None):
        """Speed factor of the job that ran just before probe `job` (by default the latest one)."""
        if job is None:
            job = len(self.samples) - 1
        half = self.WINDOW // 2
        window = self.samples[max(0, job - half):job + half + 1]
        return self.REFERENCE_S * len(window) / sum(window)


class SetupProbes:
    """Set-up time of fresh processes, sampled at even intervals through the run.

    Spreading the samples over the run keeps a short slow spell of the machine
    from setting the median.  Each sample is scaled by the speed factor of the
    jobs that ran just before it.
    """

    def __init__(self, args, speed):
        self.args = args
        self.speed = speed
        self.spacing = args.seconds / SETUP_PROBES
        self.samples = []

    def __call__(self, elapsed):
        while len(self.samples) < SETUP_PROBES and elapsed >= len(self.samples) * self.spacing:
            self.samples.append((self._probe(), self.speed.factor()))

    def medians(self):
        """Median set-up time, scaled and unscaled."""
        self(math.inf)
        return (statistics.median(t * f for t, f in self.samples), statistics.median(t for t, _ in self.samples))

    def _probe(self):
        """Time from process start until the first job could run."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", self.args.workload,
             "--seed", str(self.args.seed)],
            stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != "ready":
            fail("set-up probe failed")
        return elapsed


def untraced_wall(args, rounds):
    """Loop wall time of the same rounds in a fresh untraced process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
         "--rounds", str(rounds), "--trace", "0"],
        capture_output=True, text=True)
    if proc.returncode != 0:
        fail(f"untraced pass failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-2])["wall_s"]


def record_reference():
    """Digests of the exact outputs of the default seed, plus the fixed series values."""
    from fractions import Fraction

    reference = {"default_seed": 1, "rounds": DIGEST_ROUNDS, "series": {}, "digests": {}}
    workdir = OUT / f"record-{os.getpid()}"
    try:
        sys.path.insert(0, str(SRC))
        import workloads
        from quartic import circle, forms

        for key, text in (("F8", workloads.F8_TEXT), ("X1", workloads.X1_TEXT)):
            S = circle.singular_series(forms.parse_form(text), workloads.SERIES_R)
            reference["series"][f"{key}:{workloads.SERIES_R}"] = f"{Fraction(S).numerator}/{Fraction(S).denominator}"
        for name in WORKLOAD_NAMES:
            workload = workloads.WORKLOADS[name](1, workdir / name, reference)
            out = []
            for i in range(DIGEST_ROUNDS):
                for job in workload.round(i):
                    outputs, ok = job.run()
                    if not ok:
                        fail(f"{name} round {i} {job.kind}: check failed while recording")
                    out.append(digest(outputs))
            reference["digests"][name] = out
            print(f"recorded {name}: {len(out)} jobs", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, indent=0) + "\n")


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "quartic" / "__init__.py").is_file():
        fail(f"no quartic sources under {SRC}; run from the root of a checkout")
    OUT.mkdir(exist_ok=True)
    if args.record_reference:
        record_reference()
        return 0
    workdir = OUT / f"work-{os.getpid()}"
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir):
    if args.probe:
        set_up(args.workload, args.seed, workdir)
        print("ready", flush=True)
        return 0
    workload, first = set_up(args.workload, args.seed, workdir)
    reference = load_reference()
    expected = reference.get("digests", {}).get(args.workload, []) if args.seed == reference.get("default_seed") else []
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    # The untraced pass of a traced run (--rounds) times the same loop as the traced one: no probes.
    speed = SpeedProbe() if tracer is None and args.rounds is None else None
    probes = SetupProbes(args, speed) if speed is not None else None
    times, kinds, failures, rounds, wall = run_rounds(
        workload, first, args.seconds, args.rounds, expected, tracer, probes, speed)
    attempted = len(times)
    for job_id, kind, why in failures[:10]:
        print(f"perfbench: job {job_id} ({kind}) failed: {why}", file=sys.stderr)
    factors = [speed.factor(j) for j in range(attempted)] if speed is not None else [1.0] * attempted
    scaled = [t * f for t, f in zip(times, factors)]
    pct, p_tail, tail_n = tail_percentile(scaled)
    setup, setup_unscaled = probes.medians() if probes is not None else (None, None)
    info = {
        "workload": args.workload, "env": environment(args.seed), "rounds": rounds, "wall_s": wall,
        "fail_ratio": len(failures) / attempted, "job_s.p90_percentile": pct, "job_s.p90_tail_samples": tail_n,
        "digest_checked_jobs": min(attempted, len(expected)),
        "kind_p50_s": {kind: statistics.median(t for t, k in zip(scaled, kinds) if k == kind) for kind in sorted(set(kinds))},
    }
    if speed is not None:
        info["speed_factor"] = {"min": min(factors), "p50": statistics.median(factors), "max": max(factors)}
        info["unscaled"] = {"jobs_per_s": attempted / wall, "job_s.p50": statistics.median(times),
                            "job_s.p90": tail_percentile(times)[1], "setup_s": setup_unscaled}
    if tracer is None:
        metrics = {
            "jobs_per_s": (attempted / sum(scaled), "1/s"),
            "job_s.p50": (statistics.median(scaled), "s"),
            "job_s.p90": (p_tail, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        if probes is not None:
            metrics["setup_s"] = (setup, "s")
    else:
        tracer.uninstall()
        metrics = tracer.metrics(wall, rounds)
        metrics["trace.overhead"] = (wall / untraced_wall(args, rounds), "ratio")
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        info["spans_file"] = str(spans_path.relative_to(ROOT))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    if args.rounds is None:
        (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({"info": info, "result": result}, indent=1) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
