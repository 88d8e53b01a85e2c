"""Spans around the public functions of the quartic modules, timed from outside.

`Tracer.install()` wraps every public module-level function of each layer
(`forms`, `weights`, `geometry`, `expsums`, `counting`, `oscillatory`,
`circle`, `verify`, `cli`) and rebinds the wrapper at every import site: a
module that did `from .counting import solutions_mod_q` gets the wrapper too,
so nested calls across modules are recorded.  Functions called once per point
or per coefficient are left unwrapped (see `UNWRAPPED`); their time stays in
the caller's self time.

Each finished span is kept in memory as (id, name, start, end, parent id, job
id) and written out by `write_spans`.  Per layer the tracer keeps calls, self
time (span time minus the time of its direct child spans), total time
(outermost spans of the layer only) and `QuarticError`s raised.  Path labels
and cell counts are inferred from public predicates, arguments and returned
results by the observers below; cache hit counts come from counters on the
cache methods.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("forms", "weights", "geometry", "expsums", "counting", "oscillatory", "circle", "verify", "cli")

# Public functions called once per point, per coefficient or per lattice
# shift, where a span would cost more than the work it brackets.
UNWRAPPED = frozenset({
    "weights.gamma_bump",
    "weights.weight_eval",
    "forms.evaluate_and_gradient",
    "forms.hessian",
    "geometry.is_prime",
    "circle.hensel_criterion",
})

# Counters that exist on every workload, zero when the path is not exercised.
COUNTERS = (
    "counting.calls.grid",
    "counting.calls.convolution",
    "counting.calls.mitm",
    "counting.calls.brute",
    "counting.grid_cells",
    "expsums.calls.direct",
    "expsums.calls.crt",
    "expsums.hist_cells",
    "cli.cache.hits",
    "cli.cache.writes",
    "oscillatory.calls.factored",
    "oscillatory.calls.direct",
    "oscillatory.fft_cells",
    "oscillatory.gen_sum_points",
    "geometry.grid_cells",
    "verify.points",
)


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _orig(fn):
    """The unwrapped function, so observers record no spans of their own."""
    return getattr(fn, "__wrapped_original__", fn)


def _prime_powers(q):
    from quartic import counting

    return [p ** e for p, e in _orig(counting.factorint)(q).items()] if q > 1 else []


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []  # frames [id, name, layer, start, child_time]
        self.next_id = 0
        self.job = None
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.errors = Counter()
        self.depth = Counter()
        self.counts = Counter()
        self.cache_load_s = 0.0
        self._restore: list = []

    # -- span bookkeeping ------------------------------------------------------

    def enter(self, layer, name):
        frame = [self.next_id, name, layer, time.perf_counter(), 0.0]
        self.next_id += 1
        self.depth[layer] += 1
        self.stack.append(frame)
        return frame

    def exit(self, frame):
        end = time.perf_counter()
        self.stack.pop()
        sid, name, layer, start, child = frame
        dur = end - start
        self.calls[layer] += 1
        self.self_s[layer] += dur - child
        self.depth[layer] -= 1
        if self.depth[layer] == 0:
            self.total_s[layer] += dur
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[4] += dur
        self.spans.append((sid, name, start, end, parent[0] if parent else None, self.job))

    def error(self, layer, exc):
        seen = exc.__dict__.setdefault("_traced_layers", set())
        if layer not in seen:
            seen.add(layer)
            self.errors[layer] += 1

    # -- installation ----------------------------------------------------------

    def _wrap(self, layer, name, fn, observer):
        from quartic.errors import QuarticError

        tracer = self
        before, after = observer if observer else (None, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(tracer, args, kwargs) if before else None
            frame = tracer.enter(layer, name)
            try:
                result = fn(*args, **kwargs)
            except QuarticError as exc:
                tracer.error(layer, exc)
                raise
            finally:
                tracer.exit(frame)
            if after:
                after(tracer, args, kwargs, result, state)
            return result

        wrapper.__wrapped_original__ = fn
        return wrapper

    def _rebind(self, sites, original, replacement):
        for site in sites:
            for attr, value in list(vars(site).items()):
                if value is original:
                    setattr(site, attr, replacement)
                    self._restore.append((site, attr, original))

    def _patch_method(self, cls, attr, make):
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        self._restore.append((cls, attr, original))

    def install(self):
        import quartic  # noqa: F401
        from quartic import circle, cli, geometry

        sites = [m for n, m in sorted(sys.modules.items()) if n == "quartic" or n.startswith("quartic.")]
        for layer in LAYERS:
            mod = sys.modules[f"quartic.{layer}"]
            for name, obj in list(vars(mod).items()):
                key = f"{layer}.{name}"
                if name.startswith("_") or key in UNWRAPPED:
                    continue
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                self._rebind(sites, obj, self._wrap(layer, f"{layer}.{name}", obj, OBSERVERS.get(key)))
        tracer = self

        def counted_lookup(store_attr, label):
            def make(method):
                @functools.wraps(method)
                def lookup(cache, q):
                    tracer.counts[f"{label}.lookups"] += 1
                    tracer.counts[f"{label}.hits"] += q in getattr(cache, store_attr)
                    return method(cache, q)
                return lookup
            return make

        self._patch_method(circle.SeriesCache, "rho_at", counted_lookup("rho", "circle.series_cache"))
        self._patch_method(circle.SeriesCache, "a_at", counted_lookup("aq", "circle.series_cache"))

        def timed_init(init):
            @functools.wraps(init)
            def wrapper(cache, directory):
                t0 = time.perf_counter()
                init(cache, directory)
                tracer.cache_load_s += time.perf_counter() - t0
            return wrapper

        def counted_store(store):
            @functools.wraps(store)
            def wrapper(cache, payload):
                tracer.counts["cli.cache.writes"] += bool(cache.dir) and cache._key(payload) not in cache.entries
                return store(cache, payload)
            return wrapper

        self._patch_method(cli.FormCache, "__init__", timed_init)
        self._patch_method(cli.FormCache, "store", counted_store)

        rank_counts = geometry._rank_counts

        @functools.wraps(rank_counts)
        def counted_rank_counts(G, p, k, budget):
            tracer.counts["geometry.rank_cache.lookups"] += 1
            tracer.counts["geometry.rank_cache.hits"] += (G, p, k) in geometry._rank_count_cache
            return rank_counts(G, p, k, budget)

        self._rebind([geometry], rank_counts, counted_rank_counts)

    def uninstall(self):
        for site, attr, original in reversed(self._restore):
            setattr(site, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------------

    def metrics(self, wall_s, rounds):
        """Per-layer figures per round, so runs of different lengths compare."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self.calls[layer] / rounds, "count/round")
            out[f"{layer}.self_s"] = (self.self_s[layer] / rounds, "s/round")
            out[f"{layer}.total_s"] = (self.total_s[layer] / rounds, "s/round")
            out[f"{layer}.errors"] = (self.errors[layer] / rounds, "count/round")
        for name in COUNTERS:
            out[name] = (self.counts[name] / rounds, "count/round")
        for label in ("circle.series_cache", "geometry.rank_cache"):
            lookups = self.counts[f"{label}.lookups"]
            out[f"{label}.hit_ratio"] = (self.counts[f"{label}.hits"] / lookups if lookups else 0.0, "ratio")
        out["cli.cache.load_s"] = (self.cache_load_s / rounds, "s/round")
        layer_self = sum(self.self_s[layer] for layer in LAYERS)
        harness_self_s = self.self_s["harness"]
        out["harness.self_s"] = (harness_self_s / rounds, "s/round")
        out["trace.wall_s"] = (wall_s / rounds, "s/round")
        out["trace.accounted"] = ((layer_self + harness_self_s) / wall_s, "ratio")
        out["trace.spans"] = (len(self.spans) / rounds, "count/round")
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")


# -- observers: (before, after) pairs keyed by "layer.function" -----------------


def _solutions_after(tr, args, kwargs, result, state):
    from quartic import counting

    F, q = args[0], _arg(args, kwargs, 1, "q")
    n = F.n
    diagonal = _orig(counting.is_diagonal)(F)
    for pe in _prime_powers(q):
        if diagonal:
            tr.counts["counting.calls.convolution"] += 1
        else:
            tr.counts["counting.calls.grid"] += 1
            tr.counts["counting.grid_cells"] += pe ** n


def _weighted_after(tr, args, kwargs, result, state):
    if result.method in ("mitm", "brute"):
        tr.counts[f"counting.calls.{result.method}"] += 1


def _expsum_observer(method_pos):
    """complete_sum(F, a, q, method, budget) and twisted_sum(g, a, q, v, method, budget)."""

    def after(tr, args, kwargs, result, state):
        from quartic import expsums
        from quartic.forms import CubicData

        poly, q = args[0], _arg(args, kwargs, 2, "q")
        poly = poly.poly if isinstance(poly, CubicData) else poly
        if q == 1:
            return
        method = _arg(args, kwargs, method_pos, "method", "auto")
        n = poly.n
        if method == "auto":
            budget = _arg(args, kwargs, method_pos + 1, "budget", expsums.DEFAULT_BUDGET)
            method = "direct" if q ** n <= budget else "crt"
        if method == "direct":
            tr.counts["expsums.calls.direct"] += 1
            tr.counts["expsums.hist_cells"] += q ** n
        elif method == "crt":
            tr.counts["expsums.calls.crt"] += 1
            tr.counts["expsums.hist_cells"] += sum(pe ** n for pe in _prime_powers(q))

    return None, after


def _series_before(tr, args, kwargs):
    cache = _arg(args, kwargs, 2, "cache")
    if cache is not None and tr.depth["cli"]:
        R = int(math.floor(_arg(args, kwargs, 1, "R")))
        tr.counts["cli.cache.hits"] += sum(1 for q in cache.aq if q <= R)


def _integral_after(tr, args, kwargs, result, state):
    from quartic import counting

    F, w, R = args[0], args[1], _arg(args, kwargs, 2, "R")
    method = _arg(args, kwargs, 4, "method", "auto")
    if R == 0:
        return
    if method == "auto":
        diagonal = _orig(counting.is_diagonal)(F)
        method = "factored" if diagonal and w.separable_factors() is not None else "direct"
    if method in ("factored", "direct"):
        tr.counts[f"oscillatory.calls.{method}"] += 1


def _poisson_after(tr, args, kwargs, result, state):
    tr.counts["oscillatory.fft_cells"] += math.prod(result.grid_shape)


def _gen_sum_after(tr, args, kwargs, result, state):
    from quartic import weights

    w, P = args[1], _arg(args, kwargs, 2, "P")
    ranges = _orig(weights.lattice_ranges)(w, P)
    tr.counts["oscillatory.gen_sum_points"] += math.prod(max(b - a + 1, 0) for a, b in ranges)


def _count_points_after(tr, args, kwargs, result, state):
    polys = list(args[0])
    p = args[1]
    k = _arg(args, kwargs, 2, "k", 1)
    mode = _arg(args, kwargs, 3, "mode", "affine")
    if not polys:
        return
    n, q = polys[0].n, p ** k
    if mode == "projective":
        tr.counts["geometry.grid_cells"] += sum(q ** (n - j - 1) for j in range(n))
    else:
        tr.counts["geometry.grid_cells"] += q ** n


def _rank_grid_after(tr, args, kwargs, result, state):
    tr.counts["geometry.grid_cells"] += int(result.size)


def _davenport_after(tr, args, kwargs, result, state):
    L, A, c, Z1, Z2 = args[:5]
    n = len(L)
    tr.counts["verify.points"] += sum((2 * int(math.floor(c * A * Z)) + 1) ** n for Z in (Z1, Z2))


OBSERVERS = {
    "counting.solutions_mod_q": (None, _solutions_after),
    "counting.weighted_count": (None, _weighted_after),
    "expsums.complete_sum": _expsum_observer(3),
    "expsums.twisted_sum": _expsum_observer(4),
    "circle.singular_series": (_series_before, None),
    "oscillatory.singular_integral": (None, _integral_after),
    "oscillatory.poisson_check": (None, _poisson_after),
    "oscillatory.gen_sum": (None, _gen_sum_after),
    "geometry.count_points_ext": (None, _count_points_after),
    "geometry.hessian_rank_grid": (None, _rank_grid_after),
    "verify.davenport_shrink": (None, _davenport_after),
}
