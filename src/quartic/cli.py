"""Command-line surface: form I/O, caching, and JSON-line reports.

Each `_cmd_*` handler maps the parsed arguments to the fields of its report.
`dispatch` does the rest once for every subcommand: it refuses `--budget` <= 0,
resolves `--cache-dir` against $QUARTIC_CACHE_DIR, adds `command` and
`version`, prints `elapsed` to stderr under --timing, and prints the report,
or for a `QuarticError` one JSON error line on stderr with exit code 1.

Every report embeds the form hash, package version, and the parameter record
needed to reproduce it.  Output is deterministic for fixed inputs and seed:
keys are sorted, rationals are printed as "num/den" strings, and timing goes
to stderr only, so byte-for-byte comparisons stay stable.
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

from . import __version__
from .circle import SeriesCache, arc_partition, classify, euler_view, hasse_report, main_term_pipeline, singular_series
from .counting import DEFAULT_BUDGET, height_count, weighted_count
from .errors import (
    ArcsOverlap,
    CacheCorrupt,
    ConfigInvalid,
    DeltaOutOfRange,
    MitmNotApplicable,
    PreconditionViolated,
    QuarticError,
)
from .expsums import complete_sum, sum_over_units, twisted_sum
from .forms import CubicData, IntPolynomial, parse_form
from .geometry import b_set_profile, find_hyperplane, hessian_rank_profile, sing_dim
from .oscillatory import QuadratureConfig, poisson_check, singular_integral
from .verify import SWEEPS
from .weights import WeightSpec, box

CACHE_ENV = "QUARTIC_CACHE_DIR"


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
    path has only the lines appended since parsed.  Every FormCache of one path
    shares its `entries`, and `by_form` holds them again under their form hash.
    """

    _loaded: dict = {}  # resolved path -> (bytes loaded, entries parsed from them and stored since, entries by form)

    def __init__(self, directory: str | None):
        self.dir = Path(directory) if directory else None
        self.entries: dict = {}
        self.by_form: dict = {}  # form hash -> {entry key: payload}
        if self.dir:
            self.dir.mkdir(parents=True, exist_ok=True)
            self.path = self.dir / "expsums.jsonl"
            if self.path.exists():
                self._load()

    def _load(self):
        data, key = self.path.read_bytes(), self.path.resolve()
        done, self.entries, self.by_form = self._loaded.get(key, (b"", {}, {}))
        if not data.startswith(done):  # not the bytes of the last load: parse it all
            done, self.entries, self.by_form = b"", {}, {}
        new = []  # kept back until every new line passes, so a corrupt line changes no shared entry
        for line in data[len(done):].decode().splitlines():
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
            new.append(payload)
        for payload in new:
            self._add(payload)
        self._loaded[key] = (data, self.entries, self.by_form)

    def _add(self, payload: dict) -> None:
        key = self._key(payload)
        self.entries[key] = payload
        self.by_form.setdefault(key[0], {})[key] = payload

    @staticmethod
    def _key(payload: dict):
        return (payload["form_hash"], payload["kind"], payload.get("a"), payload["q"])

    def store(self, payload: dict) -> None:
        if self._key(payload) in self.entries:
            return
        if self.dir:
            blob = json.dumps(payload, sort_keys=True).encode()
            rec = {"checksum": hashlib.sha256(blob).hexdigest()[:16], "payload": payload}
            with open(self.path, "a") as fh:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        self._add(payload)  # after the write: a shared entry is one the file holds

    def load(self, fh: str, kind: str, a, q):
        return self.entries.get((fh, kind, a, q))


# -- argument plumbing ----------------------------------------------------------------


def _numbers(text: str, kind, flag: str) -> list:
    """The comma-separated values of option `flag`, each parsed by `kind` (int or float)."""
    try:
        return [kind(t) for t in text.split(",")]
    except ValueError:
        raise ConfigInvalid(f"{flag} must be comma-separated {kind.__name__}s, got {text!r}") from None


def _load_form(args) -> IntPolynomial:
    if args.form:
        try:
            text = Path(args.form).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigInvalid(f"cannot read --form: {exc}") from None
        try:
            F = IntPolynomial.from_json(text)
        except json.JSONDecodeError:
            F = parse_form(text.strip())
        except (ArithmeticError, KeyError, TypeError, ValueError) as exc:
            raise ConfigInvalid(f"--form {args.form!r} is not a form: {type(exc).__name__} {exc}") from None
    elif args.form_text:
        F = parse_form(args.form_text)
    else:
        raise ConfigInvalid("supply --form FILE or --form-text EXPR")
    if F.n == 0:
        raise ConfigInvalid("the form has no variables")
    return F


def _load_weight(args, n: int) -> WeightSpec:
    center = _numbers(args.center, float, "--center") if args.center else [0.0] * n
    if len(center) == 1 and n > 1:
        center = center * n
    # checks --center (its length too) and --rho for every weight
    spec = WeightSpec("bump" if args.weight == "bump" else "separable_bump", n, tuple(center), args.rho)
    return box(n) if args.weight == "box" else spec


def _base(F: IntPolynomial) -> dict:
    return {"form_hash": form_hash(F), "n": F.n}


# -- subcommands: each returns the fields of its report ---------------------------------------


def _cmd_count(args) -> dict:
    F = _load_form(args)
    w = _load_weight(args, F.n)
    rep = _base(F) | {"P": args.P}
    if args.projective:
        if args.weight != "box" or args.method is not None:
            raise ConfigInvalid("--projective counts points by height: it takes no --weight or --method")
        res = height_count(F, args.P, budget=args.budget)
        return rep | {"count": res.count, "method": res.method, "projective": True}
    method = args.method or "both"
    if method != "brute" and w.separable_factors() is None:  # refuse before the brute half of "both" runs
        raise MitmNotApplicable(f"--method {method} needs a separable (or box) weight; use --method brute")
    for m in ["brute", "mitm"] if method == "both" else [method]:
        rep[f"count_{m}"] = weighted_count(F, w, args.P, method=m, budget=args.budget).count
    if method == "both":
        rep["agree"] = rep["count_brute"] == rep["count_mitm"]
    return rep | {"method": method}


def _cmd_expsum(args) -> dict:
    if args.units and args.v is not None:
        raise ConfigInvalid("--units sums over the units: it takes no twist --v")
    F = _load_form(args)
    cache = FormCache(args.cache_dir)
    rep = _base(F) | {"a": args.a, "q": args.q}
    if args.v is not None:  # an empty --v is refused by `_numbers`, not read as no twist
        v = _numbers(args.v, int, "--v")
        s = twisted_sum(F, args.a, args.q, v, budget=args.budget)
        return rep | {"re": s.value.real, "im": s.value.imag, "err": s.err, "v": v}
    # A_q (--units) or S_{a,q}, served from the cache when it holds them
    kind, a = ("Aq", None) if args.units else ("Saq", args.a)
    payload = cache.load(rep["form_hash"], kind, a, args.q)
    if args.timing:
        rep["cache_hit"] = payload is not None
    if payload is None:
        if args.units:
            payload = {"int": sum_over_units(F, args.q, budget=args.budget), "err": 0}
        else:
            s = complete_sum(F, args.a, args.q, budget=args.budget)
            payload = {"re": s.value.real, "im": s.value.imag, "err": s.err}
        payload |= {"form_hash": rep["form_hash"], "kind": kind, "a": a, "q": args.q}
        cache.store(payload)
    return rep | {k: payload[k] for k in (["int"] if args.units else ["re", "im", "err"])}


def _cmd_series(args) -> dict:
    F = _load_form(args)
    cache = SeriesCache(F, args.budget)
    disk = FormCache(args.cache_dir)
    rep = _base(F) | {"R": args.R}
    fh = rep["form_hash"]
    cache.aq |= {q: entry["int"] for (_, kind, _, q), entry in disk.by_form.get(fh, {}).items() if kind == "Aq"}
    rep["S_R"] = _fr(singular_series(F, args.R, cache=cache))
    if args.euler:
        rep["euler_view"] = _fr(euler_view(F, args.R, cache=cache))
    for q, val in sorted(cache.aq.items()):
        disk.store({"form_hash": fh, "kind": "Aq", "a": None, "q": q, "int": val, "err": 0})
    return rep


def _cmd_integral(args) -> dict:
    F = _load_form(args)
    w = _load_weight(args, F.n)
    J = singular_integral(F, w, args.R, cfg=QuadratureConfig().within(args.budget))
    return _base(F) | {"R": args.R, "J_R": J, "weight": args.weight}


def _cmd_arcs(args) -> dict:
    rep = {"delta": args.delta, "P": args.P}
    try:
        part = arc_partition(args.delta, args.P, budget=args.budget)
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
        kind, a, q = classify(alpha, args.delta, args.P, budget=args.budget)
        rep["classify"] = {"alpha": args.alpha, "kind": kind, "a": a, "q": q}
    return rep


def _cmd_poisson(args) -> dict:
    F = _load_form(args)
    g = CubicData.from_poly(F)
    w = _load_weight(args, F.n)
    rep0 = poisson_check(g, w, args.P, args.a, args.q, args.z, v_cut=args.v_cut, budget=args.budget)
    return _base(F) | {
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


def _cmd_pipeline(args) -> dict:
    F = _load_form(args)
    w = _load_weight(args, F.n)
    out = main_term_pipeline(F, w, args.P, args.R_series, args.R_integral, budget=args.budget)
    return _base(F) | {
        "P": args.P,
        "N_omega": out["N_omega"],
        "count_method": out["count_method"],
        "S_R": _fr(out["S"]),
        "S_float": out["S_float"],
        "J_R": out["J"],
        "main": out["main"],
        "ratio": out["ratio"],
    }


def _cmd_hasse(args) -> dict:
    F = _load_form(args)
    out = hasse_report(F, p_max=args.p_max, k_max=args.k_max, seed=args.seed, budget=args.budget)
    return _base(F) | {
        "p_max": args.p_max,
        "real_soluble": out["real"]["soluble"],
        "everywhere_locally_soluble": out["everywhere_locally_soluble"],
        "primes": {
            str(p): {"soluble": rec["soluble"], "witness": list(rec.get("witness", ())) or None}
            for p, rec in out["primes"].items()
        },
    }


# the options of `geometry` and the ops that read them
_GEOMETRY_OPTIONS = {"p": ("sing-dim", "rank-profile", "b-set"), "r": ("rank-profile",), "s": ("b-set",),
                     "primes": ("hyperplane",), "M_max": ("hyperplane",)}


def _cmd_geometry(args) -> dict:
    for opt, ops in _GEOMETRY_OPTIONS.items():
        if getattr(args, opt) is not None and args.op not in ops:
            raise ConfigInvalid(f"--op {args.op} takes no --{opt.replace('_', '-')}")
    if args.op in ("rank-profile", "b-set") and args.p is None:
        raise ConfigInvalid(f"--op {args.op} needs a prime --p")
    F = _load_form(args)
    rep = _base(F) | {"op": args.op}
    if args.op == "sing-dim" and args.p is not None:
        return rep | {"p": args.p, "s_p": sing_dim(F, args.p, budget=args.budget)}
    if args.op == "sing-dim":
        val, tag = sing_dim(F, None, budget=args.budget)
        return rep | {"s_proxy": val, "tag": tag}
    if args.op == "rank-profile":
        r = 0 if args.r is None else args.r
        return rep | {"p": args.p, "r": r} | hessian_rank_profile(F, args.p, r, budget=args.budget)
    if args.op == "b-set":
        s = 1 if args.s is None else args.s
        return rep | {"p": args.p, "s": s} | b_set_profile(F, args.p, s, budget=args.budget)
    primes = _numbers(args.primes, int, "--primes") if args.primes else []
    out = find_hyperplane(F, primes, 5 if args.M_max is None else args.M_max, budget=args.budget)
    return rep | {"m": list(out["m"]), "norm": out["norm"], "observed": {str(k): v for k, v in out["observed"].items()}}


def _cmd_verify(args) -> dict:
    if args.trials < 1:
        raise PreconditionViolated(f"a sweep needs trials >= 1, got {args.trials}")
    path = Path(args.calibration) if args.calibration else Path(__file__).parent / "data" / "calibration.json"
    data = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8 or not JSON
            raise ConfigInvalid(f"cannot read --calibration: {type(exc).__name__} {exc}") from None
        if not isinstance(data, dict):
            raise ConfigInvalid(f"--calibration {str(path)!r} holds no JSON object")
    compare = args.lemma in data and not args.write_calibration
    stored = data[args.lemma] if compare else {}
    if not isinstance(stored, dict) or any(
            type(v) not in (int, float) for k, v in stored.items() if k.startswith("max_ratio")):
        raise ConfigInvalid(f"--calibration entry {args.lemma!r} is not an object of numeric max_ratio values")
    rep = {"lemma": args.lemma, "seed": args.seed, "trials": args.trials}
    rep |= SWEEPS[args.lemma](seed=args.seed, trials=args.trials)
    if args.write_calibration:
        data[args.lemma] = dict(rep)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(data, sort_keys=True, indent=1) + "\n")
        rep["calibration_written"] = str(path)
    elif compare:
        keys = [k for k in rep if k.startswith("max_ratio")]
        rep["calibration_ok"] = all(rep[k] <= 2.0 * stored[k] for k in keys if k in stored)
    return rep


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
    p.add_argument("--method", choices=["brute", "mitm", "both"], help="default both; refused with --projective")
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
    p.add_argument("--r", type=int, default=None, help="rank-profile only (default 0)")
    p.add_argument("--s", type=int, default=None, help="b-set only (default 1)")
    p.add_argument("--primes", default=None, help="hyperplane only")
    p.add_argument("--M-max", type=int, default=None, help="hyperplane only (default 5)")

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
    try:
        if args.budget <= 0:
            raise ConfigInvalid("budget must be positive")
        if args.cache_dir is None:
            args.cache_dir = os.environ.get(CACHE_ENV)  # an explicit "" turns the cache off
        t0 = time.perf_counter()
        rep = _HANDLERS[args.command](args) | {"command": args.command, "version": __version__}
    except QuarticError as exc:
        _emit({"command": args.command, "error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        return 1
    if args.timing:
        print(f"elapsed {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    _emit(rep, output=args.output)
    return 0


def main(argv=None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
