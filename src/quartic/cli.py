"""Command-line surface: form I/O, caching, and JSON-line reports.

Every report embeds the form hash, package version, and the parameter record
needed to reproduce it.  Output is deterministic for fixed inputs and seed:
keys are sorted, rationals are printed as "num/den" strings, and timing goes
to stderr only (under --timing) so byte-for-byte comparisons stay stable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from dataclasses import dataclass

from . import __version__
from .counting import DEFAULT_BUDGET
from .errors import (
    ArcsOverlap, CacheCorrupt, ConfigInvalid, DeltaOutOfRange, PreconditionViolated, QuarticError, UnknownCommand,
)
from .forms import IntPolynomial, parse_form
from .verify import SWEEPS
from .weights import WeightSpec, box, bump, separable_bump

CACHE_ENV = "QUARTIC_CACHE_DIR"


@dataclass
class RunConfig:
    budget: int = DEFAULT_BUDGET
    cache_dir: str | None = None
    output: str = "json"

    def validate(self):
        if self.budget <= 0:
            raise ConfigInvalid("budget must be positive")
        if self.output not in ("json", "table"):
            raise ConfigInvalid(f"unknown output format {self.output!r}")
        return self


def config_from_args(args) -> RunConfig:
    cache_dir = os.environ.get(CACHE_ENV) if args.cache_dir is None else args.cache_dir  # "" turns the cache off
    return RunConfig(budget=args.budget, cache_dir=cache_dir, output=args.output).validate()


def form_hash(F: IntPolynomial) -> str:
    return hashlib.sha256(F.to_json().encode()).hexdigest()[:16]


def _fr(x) -> str:
    """Serialize an exact rational as 'num/den' (no float round trip)."""
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def _emit(report: dict, stream=None, output: str = "json") -> None:
    stream = stream or sys.stdout
    if output == "table":
        width = max((len(k) for k in report), default=0)
        for k in sorted(report):
            print(f"{k:<{width}}  {report[k]}", file=stream)
    else:
        print(json.dumps(report, sort_keys=True, default=str), file=stream)


# -- cache ---------------------------------------------------------------------------


class FormCache:
    """JSON-lines cache of exponential-sum values keyed by form hash.

    Line format: {"checksum": sha256-prefix, "payload": {form_hash, kind, a, q,
    re/im or int, err}}; a line cut short or failing its checksum raises CacheCorrupt.
    A file that still starts with the bytes this process last loaded from its
    path (same length and sha256) has only the lines appended since parsed.
    """

    _loaded: dict = {}  # resolved path -> (byte length, sha256 of those bytes, entries parsed from them)

    def __init__(self, directory: str | None):
        self.dir = Path(directory) if directory else None
        self.entries: dict = {}
        if self.dir:
            self.dir.mkdir(parents=True, exist_ok=True)
            self.path = self.dir / "expsums.jsonl"
            if self.path.exists():
                self._load()

    def _load(self):
        data, key = self.path.read_bytes(), self.path.resolve()
        size, digest, entries = self._loaded.get(key, (0, None, {}))
        sha = hashlib.sha256(data[:size])
        if sha.hexdigest() != digest or size > len(data):  # not the bytes of the last load: parse it all
            size, sha, entries = 0, hashlib.sha256(), {}
        self.entries = dict(entries)
        for line in data[size:].decode().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                raise CacheCorrupt(f"unreadable line in {self.path}") from None
            payload = obj.get("payload", {})
            blob = json.dumps(payload, sort_keys=True).encode()
            if hashlib.sha256(blob).hexdigest()[:16] != obj.get("checksum"):
                raise CacheCorrupt(f"bad checksum in {self.path}")
            self.entries[self._key(payload)] = payload
        sha.update(data[size:])
        self._loaded[key] = (len(data), sha.hexdigest(), dict(self.entries))

    @staticmethod
    def _key(payload: dict):
        return (payload["form_hash"], payload["kind"], payload.get("a"), payload["q"])

    def store(self, payload: dict) -> None:
        key = self._key(payload)
        if key in self.entries:
            return
        self.entries[key] = payload
        if self.dir:
            blob = json.dumps(payload, sort_keys=True).encode()
            rec = {"checksum": hashlib.sha256(blob).hexdigest()[:16], "payload": payload}
            with open(self.path, "a") as fh:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")

    def load(self, fh: str, kind: str, a, q):
        return self.entries.get((fh, kind, a, q))


# -- argument plumbing ----------------------------------------------------------------


def _load_form(args) -> IntPolynomial:
    if getattr(args, "form", None):
        text = Path(args.form).read_text()
        try:
            return IntPolynomial.from_json(text)
        except json.JSONDecodeError:
            return parse_form(text.strip())
    if getattr(args, "form_text", None):
        return parse_form(args.form_text)
    raise ConfigInvalid("supply --form FILE or --form-text EXPR")


def _load_weight(args, n: int) -> WeightSpec:
    kind = getattr(args, "weight", "box")
    if kind == "box":
        return box(n)
    center = [float(t) for t in (args.center.split(",") if args.center else ["0"] * n)]
    if len(center) == 1 and n > 1:
        center = center * n
    if kind == "bump":
        return bump(center, args.rho)
    if kind == "separable":
        return separable_bump(center, args.rho)
    raise ConfigInvalid(f"unknown weight kind {kind!r}")


def _base(F: IntPolynomial, args) -> dict:
    return {"form_hash": form_hash(F), "version": __version__, "n": F.n}


# -- subcommands -------------------------------------------------------------------------


def _cmd_count(args, config: RunConfig) -> int:
    from .counting import height_count, weighted_count

    F = _load_form(args)
    w = _load_weight(args, F.n)
    rep = _base(F, args) | {"P": args.P, "command": "count"}
    if args.projective:
        res = height_count(F, args.P, budget=config.budget)
        rep |= {"count": res.count, "method": res.method, "projective": True}
    else:
        methods = ["brute", "mitm"] if args.method == "both" else [args.method]
        for m in methods:
            res = weighted_count(F, w, args.P, method=m, budget=config.budget)
            rep[f"count_{m}"] = res.count
        if args.method == "both":
            rep["agree"] = rep["count_brute"] == rep["count_mitm"]
        rep["method"] = args.method
    _emit(rep, output=config.output)
    return 0


def _cmd_expsum(args, config: RunConfig) -> int:
    from .expsums import complete_sum, sum_over_units, twisted_sum

    F = _load_form(args)
    cache = FormCache(config.cache_dir)
    fh = form_hash(F)
    rep = _base(F, args) | {"command": "expsum", "a": args.a, "q": args.q}
    t0 = time.time()
    if args.units:
        hit = cache.load(fh, "Aq", None, args.q)
        if hit:
            rep |= {"int": hit["int"], "cache_hit": True}
        else:
            val = sum_over_units(F, args.q, budget=config.budget)
            cache.store({"form_hash": fh, "kind": "Aq", "a": None, "q": args.q, "int": val, "err": 0})
            rep |= {"int": val, "cache_hit": False}
    elif args.v:
        v = [int(t) for t in args.v.split(",")]
        s = twisted_sum(F, args.a, args.q, v, budget=config.budget)
        rep |= {"re": s.value.real, "im": s.value.imag, "err": s.err, "v": v}
    else:
        hit = cache.load(fh, "Saq", args.a, args.q)
        if hit:
            rep |= {"re": hit["re"], "im": hit["im"], "err": hit["err"], "cache_hit": True}
        else:
            s = complete_sum(F, args.a, args.q, budget=config.budget)
            cache.store(
                {"form_hash": fh, "kind": "Saq", "a": args.a, "q": args.q,
                 "re": s.value.real, "im": s.value.imag, "err": s.err}
            )
            rep |= {"re": s.value.real, "im": s.value.imag, "err": s.err, "cache_hit": False}
    if args.timing:
        print(f"elapsed {time.time() - t0:.3f}s", file=sys.stderr)
    if not args.timing:
        rep.pop("cache_hit", None)
    _emit(rep, output=config.output)
    return 0


def _cmd_series(args, config: RunConfig) -> int:
    from .circle import SeriesCache, euler_view, singular_series

    F = _load_form(args)
    cache = SeriesCache(F, config.budget)
    disk = FormCache(config.cache_dir)
    fh = form_hash(F)
    for (h, kind, a, q), payload in disk.entries.items():
        if h == fh and kind == "Aq":
            cache.aq[q] = payload["int"]
    S = singular_series(F, args.R, cache=cache)
    rep = _base(F, args) | {"command": "series", "R": args.R, "S_R": _fr(S)}
    if args.euler:
        rep["euler_view"] = _fr(euler_view(F, args.R, cache=cache))
    for q, val in sorted(cache.aq.items()):
        disk.store({"form_hash": fh, "kind": "Aq", "a": None, "q": q, "int": val, "err": 0})
    _emit(rep, output=config.output)
    return 0


def _cmd_integral(args, config: RunConfig) -> int:
    from .oscillatory import QuadratureConfig, singular_integral

    F = _load_form(args)
    w = _load_weight(args, F.n)
    J = singular_integral(F, w, args.R, cfg=QuadratureConfig().within(config.budget))
    rep = _base(F, args) | {"command": "integral", "R": args.R, "J_R": J, "weight": args.weight}
    _emit(rep, output=config.output)
    return 0


def _cmd_arcs(args, config: RunConfig) -> int:
    from .circle import arc_partition, classify

    rep = {"command": "arcs", "delta": args.delta, "P": args.P, "version": __version__}
    try:
        part = arc_partition(args.delta, args.P, budget=config.budget)
        rep |= {
            "arc_count": len(part.arcs),
            "q_max": part.q_max,
            "half_width": part.half_width,
            "total_measure": part.total_measure,
            "disjoint": True,
        }
    except (ArcsOverlap, DeltaOutOfRange) as exc:
        rep |= {"disjoint": False, "error": str(exc)}
    if args.alpha is not None:
        try:
            alpha = Fraction(args.alpha)
        except (ValueError, ZeroDivisionError):
            raise ConfigInvalid(f"--alpha must be a rational number, got {args.alpha!r}") from None
        kind, a, q = classify(alpha, args.delta, args.P, budget=config.budget)
        rep["classify"] = {"alpha": args.alpha, "kind": kind, "a": a, "q": q}
    _emit(rep, output=config.output)
    return 0


def _cmd_poisson(args, config: RunConfig) -> int:
    from .forms import CubicData
    from .oscillatory import poisson_check

    F = _load_form(args)
    g = CubicData.from_poly(F)
    w = _load_weight(args, F.n)
    rep0 = poisson_check(g, w, args.P, args.a, args.q, args.z, v_cut=args.v_cut, budget=config.budget)
    rep = _base(F, args) | {
        "command": "poisson",
        "P": args.P,
        "a": args.a,
        "q": args.q,
        "z": args.z,
        "v_cut": rep0.v_cut,
        "lhs": [rep0.lhs.real, rep0.lhs.imag],
        "rhs": [rep0.rhs.real, rep0.rhs.imag],
        "residual": rep0.residual,
        "relative": rep0.relative,
        "tail_estimate": rep0.tail_estimate,
        "grid": list(rep0.grid_shape),
    }
    _emit(rep, output=config.output)
    return 0


def _cmd_pipeline(args, config: RunConfig) -> int:
    from .circle import main_term_pipeline

    F = _load_form(args)
    w = _load_weight(args, F.n)
    out = main_term_pipeline(F, w, args.P, args.R_series, args.R_integral, budget=config.budget)
    rep = _base(F, args) | {
        "command": "pipeline",
        "P": args.P,
        "N_omega": out["N_omega"],
        "count_method": out["count_method"],
        "S_R": _fr(out["S"]),
        "S_float": out["S_float"],
        "J_R": out["J"],
        "main": out["main"],
        "ratio": out["ratio"],
    }
    _emit(rep, output=config.output)
    return 0


def _cmd_hasse(args, config: RunConfig) -> int:
    from .circle import hasse_report

    F = _load_form(args)
    out = hasse_report(F, p_max=args.p_max, k_max=args.k_max, seed=args.seed, budget=config.budget)
    rep = _base(F, args) | {
        "command": "hasse",
        "p_max": args.p_max,
        "real_soluble": out["real"]["soluble"],
        "everywhere_locally_soluble": out["everywhere_locally_soluble"],
        "primes": {
            str(p): {"soluble": rec["soluble"], "witness": list(rec.get("witness", ())) or None}
            for p, rec in out["primes"].items()
        },
    }
    _emit(rep, output=config.output)
    return 0


def _cmd_geometry(args, config: RunConfig) -> int:
    from .geometry import b_set_profile, find_hyperplane, hessian_rank_profile, sing_dim

    if args.op in ("rank-profile", "b-set") and args.p is None:
        raise ConfigInvalid(f"--op {args.op} needs a prime --p")
    F = _load_form(args)
    rep = _base(F, args) | {"command": "geometry", "op": args.op}
    budget = config.budget
    if args.op == "sing-dim":
        if args.p is not None:
            rep |= {"p": args.p, "s_p": sing_dim(F, args.p, budget=budget)}
        else:
            val, tag = sing_dim(F, None, budget=budget)
            rep |= {"s_proxy": val, "tag": tag}
    elif args.op == "rank-profile":
        rep |= {"p": args.p, "r": args.r} | hessian_rank_profile(F, args.p, args.r, budget=budget)
    elif args.op == "b-set":
        rep |= {"p": args.p, "s": args.s} | b_set_profile(F, args.p, args.s, budget=budget)
    elif args.op == "hyperplane":
        primes = [int(t) for t in args.primes.split(",")] if args.primes else []
        out = find_hyperplane(F, primes, args.M_max, budget=budget)
        rep |= {"m": list(out["m"]), "norm": out["norm"], "observed": {str(k): v for k, v in out["observed"].items()}}
    else:
        raise UnknownCommand(f"geometry op {args.op!r}")
    _emit(rep, output=config.output)
    return 0


def _default_calibration_path() -> Path:
    return Path(__file__).parent / "data" / "calibration.json"


def _cmd_verify(args, config: RunConfig) -> int:
    if args.trials < 1:
        raise PreconditionViolated(f"a sweep needs trials >= 1, got {args.trials}")
    rep = {"command": "verify", "lemma": args.lemma, "seed": args.seed, "trials": args.trials,
           "version": __version__}
    rep |= SWEEPS[args.lemma](seed=args.seed, trials=args.trials)
    path = Path(args.calibration) if args.calibration else _default_calibration_path()
    if args.write_calibration:
        data = json.loads(path.read_text()) if path.exists() else {}
        data[args.lemma] = {k: v for k, v in rep.items() if k not in ("command", "version")}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(data, sort_keys=True, indent=1) + "\n")
        rep["calibration_written"] = str(path)
    elif path.exists():
        data = json.loads(path.read_text())
        if args.lemma in data:
            stored = data[args.lemma]
            keys = [k for k in rep if k.startswith("max_ratio")]
            ok = all(rep[k] <= 2.0 * stored[k] for k in keys if k in stored)
            rep["calibration_ok"] = ok
    _emit(rep, output=config.output)
    return 0


# -- dispatch -------------------------------------------------------------------------------


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; `--cache-dir` defaults to $QUARTIC_CACHE_DIR per call."""
    ap = argparse.ArgumentParser(prog="quartic", description=__doc__)
    ap.add_argument("--cache-dir", default=None)
    ap.add_argument("--timing", action="store_true", help="timing to stderr; cache-hit flags in reports")
    ap.add_argument("--output", default="json", choices=["json", "table"])
    ap.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="max enumeration cells")
    # the same flags are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering values parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cache-dir", default=argparse.SUPPRESS)
    common.add_argument("--timing", action="store_true", default=argparse.SUPPRESS)
    common.add_argument("--output", choices=["json", "table"], default=argparse.SUPPRESS)
    common.add_argument("--budget", type=int, default=argparse.SUPPRESS)
    sub = ap.add_subparsers(dest="command", parser_class=lambda **kw: argparse.ArgumentParser(parents=[common], **kw))

    def add_form(p):
        p.add_argument("--form", help="JSON form file")
        p.add_argument("--form-text", help="inline expression like 'x1^4 + x2^4'")

    def add_weight(p):
        p.add_argument("--weight", default="box", choices=["box", "bump", "separable"])
        p.add_argument("--center", default=None, help="comma-separated center")
        p.add_argument("--rho", type=float, default=0.5)

    p = sub.add_parser("count")
    add_form(p)
    add_weight(p)
    p.add_argument("--P", type=float, required=True)
    p.add_argument("--method", default="both", choices=["brute", "mitm", "both"])
    p.add_argument("--projective", action="store_true")

    p = sub.add_parser("expsum")
    add_form(p)
    p.add_argument("--a", type=int, default=1)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--v", help="comma-separated twist vector")
    p.add_argument("--units", action="store_true", help="exact A_q over units")

    p = sub.add_parser("series")
    add_form(p)
    p.add_argument("--R", type=float, required=True)
    p.add_argument("--euler", action="store_true")

    p = sub.add_parser("integral")
    add_form(p)
    add_weight(p)
    p.add_argument("--R", type=float, required=True)

    p = sub.add_parser("arcs")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--P", type=float, required=True)
    p.add_argument("--alpha", default=None)

    p = sub.add_parser("poisson")
    add_form(p)
    add_weight(p)
    p.add_argument("--P", type=float, default=30)
    p.add_argument("--a", type=int, default=1)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--z", type=float, default=0.0)
    p.add_argument("--v-cut", type=int, default=None)

    p = sub.add_parser("pipeline")
    add_form(p)
    add_weight(p)
    p.add_argument("--P", type=float, required=True)
    p.add_argument("--R-series", type=float, default=32)
    p.add_argument("--R-integral", type=float, default=32)

    p = sub.add_parser("hasse")
    add_form(p)
    p.add_argument("--p-max", type=int, default=100)
    p.add_argument("--k-max", type=int, default=12)
    p.add_argument("--seed", type=int, default=1)

    p = sub.add_parser("geometry")
    add_form(p)
    p.add_argument("--op", required=True, choices=["sing-dim", "rank-profile", "b-set", "hyperplane"])
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--primes", default=None)
    p.add_argument("--M-max", type=int, default=5)

    p = sub.add_parser("verify")
    p.add_argument("lemma", choices=list(SWEEPS))
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--calibration", default=None)
    p.add_argument("--write-calibration", action="store_true")
    return ap


_HANDLERS = {
    "count": _cmd_count,
    "expsum": _cmd_expsum,
    "series": _cmd_series,
    "integral": _cmd_integral,
    "arcs": _cmd_arcs,
    "poisson": _cmd_poisson,
    "pipeline": _cmd_pipeline,
    "hasse": _cmd_hasse,
    "geometry": _cmd_geometry,
    "verify": _cmd_verify,
}


def dispatch(argv) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if not args.command:
        ap.print_help()
        return 2
    handler = _HANDLERS.get(args.command)
    if handler is None:
        raise UnknownCommand(args.command)
    try:
        return handler(args, config_from_args(args))
    except QuarticError as exc:
        _emit({"command": args.command, "error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        return 1


def main(argv=None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
