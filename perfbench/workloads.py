"""Seeded job streams for the benchmark workloads.

A workload is built once per process (its set-up: parsing the fixed forms) and
then hands out rounds of jobs.  Round i draws its inputs from a generator
seeded by (workload, seed, i), so the same seed gives the same jobs, and the
shape of every round (job kinds, moduli, dimensions) is fixed: seeds change
coefficients, centres and twists, not the amount of work.  Each round holds
an odd number of jobs (13) so that the median and the 90th percentile of job
time fall inside one job kind rather than between two.

Every job calls the public `quartic` API through module attributes (so the
tracer's rebinding reaches it) and returns `(exact_outputs, ok)`: `ok` is an
independent check of the result, and `exact_outputs` feeds the default-seed
digest recorded in `reference.json`.  Floats enter the digest rounded against
their natural scale, so last-bit differences between machines do not show.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import numpy as np

from quartic import circle, cli, counting, expsums, forms, geometry, oscillatory, verify, weights
from quartic.errors import AmbiguousDimension

X1_TEXT = "4*x1^4 + 9*x2^4 - 8*x3^4 - 8*x4^4"
F8_TEXT = "x1^4 + x2^4 + x3^4 + x4^4 - x5^4 - x6^4 - x7^4 - x8^4"
# The n=6 block form x1^4 + x1*x2^3 + x3^4 + x4^4 - x5^4 - x6^4; each round
# scales its monomials by seeded factors 1..3, so every round has a new form
# hash (fresh cache writes) at the same grid cost.
BLOCK_MONOMIALS = (((4, 0, 0, 0, 0, 0), 1), ((1, 3, 0, 0, 0, 0), 1), ((0, 0, 4, 0, 0, 0), 1),
                   ((0, 0, 0, 4, 0, 0), 1), ((0, 0, 0, 0, 4, 0), -1), ((0, 0, 0, 0, 0, 4), -1))
SERIES_STEPS = (8, 10, 12)
SERIES_R = 128


class Job:
    __slots__ = ("kind", "run")

    def __init__(self, kind, run):
        self.kind = kind
        self.run = run


def _text(n, coeffs):
    """Form text in the syntax `parse_form` reads, e.g. '3*x1^2*x2*x4'."""
    terms = []
    for e, c in coeffs:
        mon = "*".join(f"x{i + 1}" + (f"^{k}" if k > 1 else "") for i, k in enumerate(e) if k)
        terms.append(f"{c}*{mon}" if mon else str(c))
    return " + ".join(terms).replace("+ -", "- ")


def _monomials(n, d):
    out = []
    for key in combinations_with_replacement(range(n), d):
        e = [0] * n
        for i in key:
            e[i] += 1
        out.append(tuple(e))
    return out


def _coefficient(rng, bound):
    return rng.choice([c for c in range(-bound, bound + 1) if c])


def _seeded_form(rng, n, support, bound):
    """A form on a fixed monomial support with seeded nonzero coefficients.

    The support fixes the cost of every grid and histogram pass, so the
    seed changes the values computed but not the work done.
    """
    return forms.parse_form(_text(n, [(e, _coefficient(rng, bound)) for e in support]), n)


def _full_support(n, degree, homogeneous=True):
    degrees = [degree] if homogeneous else range(degree, -1, -1)
    return [e for d in degrees for e in _monomials(n, d)]


def _scaled(x, scale):
    """A float rounded against its natural scale, for the digest."""
    return round(float(x) / scale, 8) + 0.0


def _orbit_ok(A_p, p, n):
    """For prime p, rho(p) = A_p/p + p^(n-1) is an integer and rho(p) = 1 mod p-1.

    Scaling by the units of F_p permutes the nonzero zeros of a form, in orbits
    of size p-1, so this holds for every homogeneous F.
    """
    if A_p % p:
        return False
    rho = A_p // p + p ** (n - 1)
    return 1 <= rho <= p ** n and (rho - 1) % (p - 1) == 0


def _is_prime(q):
    return q > 1 and all(q % d for d in range(2, math.isqrt(q) + 1))


def _units(q):
    return sum(1 for a in range(1, q + 1) if math.gcd(a, q) == 1)


# -- dense_local -------------------------------------------------------------------------


class DenseLocal:
    """Local factors of non-diagonal n=4 quartics and `quartic series` on n=6 block forms."""

    LOCAL = ((2, 5), (3, 3), (5, 2))
    # x1^4 + x1^3*x2 + x2^2*x3^2 + x1*x2*x3*x4 + x3*x4^3, non-diagonal
    SUPPORT = ((4, 0, 0, 0), (3, 1, 0, 0), (0, 2, 2, 0), (1, 1, 1, 1), (0, 0, 1, 3))
    SECOND_PATH_Q = 5  # A_q for q <= 5 is recomputed through expsums.sum_over_units

    def __init__(self, seed, workdir: Path, reference: dict):
        self.seed = seed
        self.cache_dir = workdir / "series-cache"
        self.cache_dir.mkdir(parents=True, exist_ok=False)

    def round(self, i):
        rng = random.Random(f"dense_local:{self.seed}:{i}")
        F = _seeded_form(rng, 4, self.SUPPORT, 3)
        coeffs = [(e, s * rng.randint(1, 3)) for e, s in BLOCK_MONOMIALS]
        text = _text(6, coeffs)
        B = forms.parse_form(text, 6)
        jobs = [Job(f"local_factor_{p}^{K}", self._local(F, p, K)) for p, K in self.LOCAL]
        state = {}
        jobs += [Job(f"series_R{R}", self._series(B, text, R, state)) for R in SERIES_STEPS]
        return jobs

    @staticmethod
    def _local(F, p, K):
        def run():
            lf = circle.local_factor(F, p, K)
            return (tuple(lf.densities), tuple(lf.partial_sums)), lf.identity_ok
        return run

    def _series(self, B, text, R, state):
        def run():
            out = io.StringIO()
            with redirect_stdout(out):
                code = cli.main(["--cache-dir", str(self.cache_dir), "series", "--form-text", text, "--R", str(R)])
            S = Fraction(json.loads(out.getvalue())["S_R"])
            n = B.n
            prev_R = max((r for r in state if r < R), default=0)
            new_q = range(prev_R + 1, R + 1)
            aq = self._cached_aq(B)
            step = sum((Fraction(aq[q], q ** n) for q in new_q), Fraction(0))
            ok = code == 0 and S == state.get(prev_R, Fraction(0)) + step
            for q in new_q:
                if q <= self.SECOND_PATH_Q:
                    ok &= aq[q] == expsums.sum_over_units(B, q)
                if _is_prime(q):
                    ok &= _orbit_ok(aq[q], q, n)
                else:
                    parts = [p ** e for p, e in counting.factorint(q).items()]
                    if len(parts) > 1:
                        ok &= aq[q] == math.prod(aq[pe] for pe in parts)
            state[R] = S
            return (S,), ok
        return run

    def _cached_aq(self, B):
        """A_q values the CLI wrote for this form, read back from its cache file."""
        fh = cli.form_hash(B)
        aq = {}
        with open(self.cache_dir / "expsums.jsonl") as cache:
            for line in cache:
                payload = json.loads(line)["payload"]
                if payload["form_hash"] == fh and payload["kind"] == "Aq":
                    aq[payload["q"]] = payload["int"]
        return aq


# -- expsum_sweep ------------------------------------------------------------------------


class ExpsumSweep:
    """Complete and twisted sums of random cubics and quartics, n in {1,2,3}."""

    def __init__(self, seed, workdir: Path, reference: dict):
        self.seed = seed

    def round(self, i):
        rng = random.Random(f"expsum_sweep:{self.seed}:{i}")
        return [
            Job("split_n3", self._split(rng, 3, 7, 11)),
            Job("split_n2", self._split(rng, 2, 25, 36)),
            Job("split_n1", self._split(rng, 1, 253, 256)),
            Job("crt_vs_direct_n2", self._crt(rng, 2, 900)),
            Job("birch_n3", self._bounds(rng, "birch", 3, 3, q=45)),
            Job("kge2_n3", self._bounds(rng, "kge2", 3, 4, p=3, k=3)),
            Job("units_n2", self._units(rng, 2, 120)),
        ]

    @staticmethod
    def _split(rng, n, r, s):
        g = forms.CubicData.from_poly(_seeded_form(rng, n, _full_support(n, 3, homogeneous=False), 5))
        v = [rng.randint(-5, 5) for _ in range(n)]
        a = rng.randrange(1, r * s)

        def run():
            rep = expsums.split_multiplicative(g, a, r, s, v)
            scale = rep["scale"]
            out = tuple(_scaled(getattr(rep["direct"], part), scale) for part in ("real", "imag"))
            return out, rep["residual"] <= 1e-6 * scale
        return run

    @staticmethod
    def _crt(rng, n, q):
        F = _seeded_form(rng, n, _full_support(n, 4), 5)
        a = rng.choice([t for t in range(1, q) if math.gcd(t, q) == 1])

        def run():
            direct = expsums.complete_sum(F, a, q, method="direct")
            crt = expsums.complete_sum(F, a, q, method="crt")
            ok = abs(direct.value - crt.value) <= direct.err + crt.err
            scale = float(q) ** n
            return (_scaled(direct.value.real, scale), _scaled(direct.value.imag, scale)), ok
        return run

    @staticmethod
    def _bounds(rng, kind, n, degree, **shape):
        F = _seeded_form(rng, n, _full_support(n, degree), 5)
        q = shape["q"] if kind == "birch" else shape["p"] ** shape["k"]
        params = {"F": F, "sigma": n - 1, **shape}

        def run():
            rep = verify.prime_power_bounds(kind, **params)
            # max over units of |S_{a,q}| lies between the mean |A_q|/phi(q) and q^n
            mean = abs(expsums.sum_over_units(F, q)) / _units(q)
            slack = 1e-9 * q ** n
            ok = mean - slack <= rep.lhs <= q ** n + slack
            return (_scaled(rep.lhs, q ** n),), ok
        return run

    @staticmethod
    def _units(rng, n, q):
        F = _seeded_form(rng, n, _full_support(n, 4), 5)

        def run():
            exact = expsums.sum_over_units(F, q)
            approx = expsums.sum_over_units_float(F, q)
            tol = _units(q) * 4e-15 * q ** n * max(math.log2(q), 1.0) + 1e-9
            return (exact,), abs(approx - exact) <= tol
        return run


# -- main_term ---------------------------------------------------------------------------


class MainTerm:
    """Counts, singular series and singular integrals of the diagonal forms F8 and X1."""

    def __init__(self, seed, workdir: Path, reference: dict):
        self.seed = seed
        self.X1 = forms.parse_form(X1_TEXT)
        self.F8 = forms.parse_form(F8_TEXT)
        self.series_ref = reference.get("series", {})
        self.cfg = oscillatory.QuadratureConfig(tolerance=1e-6)

    def round(self, i):
        rng = random.Random(f"main_term:{self.seed}:{i}")
        return [
            Job("pipeline_F8", self._pipeline(rng)),
            Job("count_X1_mitm_vs_brute", self._count(rng, self.X1, 60, 18)),
            Job("series_F8_X1", self._series((("F8", self.F8), ("X1", self.X1)))),
            Job("integral_factored_vs_sine", self._integral(separable=True, R=200)),
            Job("integral_direct_vs_sine", self._integral(separable=False, R=2)),
            Job("poisson_n1_n2", self._poisson(rng)),
            Job("height_X1", self._height(rng)),
        ]

    @staticmethod
    def _aligned_bump(rng, n, P, half_width):
        """Bump of radius half_width/P centred at (k + 1/2)/P, k seeded.

        The centring fixes the lattice box at 2*half_width points per axis,
        so the brute-force cost does not depend on the seed.
        """
        centre = [(rng.randint(math.ceil(0.3 * P), math.floor(0.7 * P)) + 0.5) / P for _ in range(n)]
        return weights.separable_bump(centre, half_width / P)

    def _count(self, rng, F, P, half_width):
        w = self._aligned_bump(rng, F.n, P, half_width)

        def run():
            mitm = counting.weighted_count(F, w, P, method="mitm")
            brute = counting.weighted_count(F, w, P, method="brute")
            scale = max(1.0, abs(brute.count))
            return (_scaled(mitm.count, scale),), abs(mitm.count - brute.count) <= 1e-9 * scale
        return run

    def _pipeline(self, rng, P=10, R_integral=20):
        """N_w(F8; P) against S(128) J(R) P^4; the count is re-done by brute force."""
        F = self.F8
        w = self._aligned_bump(rng, F.n, P, 2)

        def run():
            out = circle.main_term_pipeline(F, w, P, SERIES_R, R_integral, cfg=self.cfg, cache=circle.SeriesCache(F))
            brute = counting.weighted_count(F, w, P, method="brute").count
            scale = max(1.0, abs(brute))
            ok = out["count_method"] == "mitm" and abs(out["N_omega"] - brute) <= 1e-9 * scale
            ok &= out["S"] == Fraction(self.series_ref.get(f"F8:{SERIES_R}", "0"))
            return (_scaled(out["N_omega"], scale), out["S"], float(f"{out['J']:.6e}")), ok
        return run

    def _series(self, named_forms):
        def run():
            out, ok = [], True
            for name, F in named_forms:
                S = circle.singular_series(F, SERIES_R, cache=circle.SeriesCache(F))
                expected = self.series_ref.get(f"{name}:{SERIES_R}")
                ok &= expected is not None and S == Fraction(expected)
                out.append(S)
            return tuple(out), ok
        return run

    def _integral(self, separable, R):
        """J(R) of x1^4 - x2^4 against the sine kernel; fixed inputs, so a fixed cost."""
        F = forms.parse_form("x1^4 - x2^4")
        w = weights.separable_bump((0.5, 0.5), 0.2) if separable else weights.bump((0.5, 0.5), 0.2)
        cfg = self.cfg

        def run():
            J = oscillatory.singular_integral(F, w, R, cfg=cfg)
            J_sine = oscillatory.singular_integral(F, w, R, cfg=cfg, method="sine")
            ok = abs(J - J_sine) <= 1e-6 * abs(J_sine) + 1e-9
            return (round(J, 6),), ok
        return run

    @staticmethod
    def _poisson(rng):
        """Poisson summation for a random cubic in one and in two variables."""
        cases = []
        for n in (1, 2):
            g = verify.random_cubic_data(rng, n, bound=2)
            q = rng.randint(2, 12)
            a = rng.choice([t for t in range(1, q + 1) if math.gcd(t, q) == 1])
            z = rng.choice((0.0, 1 / (2 * q * 30)))
            cases.append((g, weights.bump((0.0,) * n, 1.0 if n == 1 else 0.3), a, q, z))

        def run():
            out, ok = [], True
            for g, w, a, q, z in cases:
                rep = oscillatory.poisson_check(g, w, 30, a, q, z)
                ok &= rep.relative <= 1e-3
                out.append((rep.v_cut, rep.grid_shape, _scaled(abs(rep.lhs), rep.mass)))
            return tuple(out), ok
        return run

    def _height(self, rng):
        P = rng.randint(60, 100)

        def run():
            res = counting.height_count(self.X1, P)
            # X1 is the Swinnerton-Dyer form: locally soluble, no rational point
            return (res.count, res.method), res.count == 0
        return run


# -- verify_geometry -----------------------------------------------------------------------


class VerifyGeometry:
    """Verifier sweeps: Davenport shrinking, Hessian rank loci, vdC, Weyl and Hasse."""

    def __init__(self, seed, workdir: Path, reference: dict):
        self.seed = seed
        self.X1 = forms.parse_form(X1_TEXT)

    def round(self, i):
        rng = random.Random(f"verify_geometry:{self.seed}:{i}")
        return [
            Job("davenport", self._davenport(rng.randrange(1 << 30))),
            Job("geometry_sweep", self._geometry(rng.randrange(1 << 30))),
            Job("geometry_sweep", self._geometry(rng.randrange(1 << 30))),
            Job("vdc_identity", self._vdc(rng)),
            Job("weyl_chain", self._weyl(rng)),
            Job("hasse_X1", self._hasse()),
        ]

    @staticmethod
    def _davenport(seed, n=3, A=10.0):
        def run():
            out = verify.davenport_sweep(seed=seed, trials=1, n=n, A=A)
            return (out["max_ratio"],), out["max_ratio"] == _davenport_ratio(seed, n, A)
        return run

    @staticmethod
    def _geometry(seed, primes=(7, 11, 13, 17, 19), n=3):
        """One sweep form; the sweep raises AmbiguousDimension exactly when some s_p is ambiguous."""
        def run():
            G = verify.random_form(random.Random(seed), n, 3, bound=4)
            ambiguous = any(_sing_count_ambiguous(G, p) for p in primes)
            try:
                out = verify.geometry_bound_sweep(seed=seed, trials=1, primes=primes, n=n)
            except AmbiguousDimension:
                return ("ambiguous",), ambiguous
            ok = out["shape_ok"] and not ambiguous
            for p in primes:
                ok &= geometry._rank_count_cache.get((G, p, 1)) == _rank_histogram(G, p)
            return (out["max_ratio_Tr"], out["max_ratio_Bs"]), ok
        return run

    @staticmethod
    def _vdc(rng):
        F = verify.random_form(rng, 2, 4, bound=3)
        H = 3

        def run():
            rep = verify.vdc_identity(F, weights.bump((0.0, 0.0), 1.0), 12, H, Fraction(1, 7))
            ok = rep["pair_counts_ok"]
            ok &= rep["rearrangement_residual"] <= 1e-9 * max(1.0, abs(rep["S"]) * H ** 2)
            ok &= rep["quadratic_residual"] <= 1e-9 * rep["quadratic_scale"]
            return (rep["pair_counts_ok"], _scaled(rep["quadratic_scale"], 1e6)), ok
        return run

    @staticmethod
    def _weyl(rng):
        F = verify.random_form(rng, 1, 4, bound=2)
        alpha = Fraction(1, rng.choice((3, 5, 7)))

        def run():
            out = verify.weyl_chain(F, 8, alpha)
            brute = counting.auxiliary_counts(F, "N", alpha=alpha, P=8)
            return (out["N_alpha_P"],), out["N_alpha_P"] == brute
        return run

    def _hasse(self):
        """hasse_report(X1) with fixed inputs: its random search makes the cost seed-dependent."""
        F = self.X1

        def run():
            rep = circle.hasse_report(F, p_max=50)
            ok = bool(rep["real"]["soluble"]) and rep["everywhere_locally_soluble"]
            for p, rec in rep["primes"].items():
                ok &= rec["soluble"] is True and _hensel_witness_ok(F, rec["witness"], p)
            witnesses = tuple((p, tuple(rec["witness"]), rec["level"]) for p, rec in sorted(rep["primes"].items()))
            return witnesses, ok
        return run


def _davenport_ratio(seed, n, A, Z1=0.5, Z2=1.0, c=1.0):
    """`davenport_sweep` recomputed with exact integer residues instead of Fractions."""
    rng = random.Random(seed)
    L = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i, n):
            L[i, j] = L[j, i] = rng.randint(-9, 9)
    alpha = Fraction(rng.randint(1, 30), rng.randint(1, 30))
    a, b = alpha.numerator, alpha.denominator

    def count(Z):
        R = int(math.floor(c * A * Z))
        thresh = Fraction(Z) / Fraction(A)
        axes = np.meshgrid(*[np.arange(-R, R + 1, dtype=np.int64)] * n, indexing="ij")
        u = np.stack([ax.ravel() for ax in axes])
        r = (a * (L @ u)) % b  # ||alpha m|| = min(r, b - r) / b
        dist = np.minimum(r, b - r)
        return int(np.all(dist * thresh.denominator < thresh.numerator * b, axis=0).sum())

    N1, N2 = count(Z1), count(Z2)
    return float(N2) / float((Z2 / Z1) ** n * N1)


def _grid(n, p):
    axes = np.meshgrid(*[np.arange(p, dtype=np.int64)] * n, indexing="ij")
    return [ax.ravel() for ax in axes]


def _values_mod(poly, x, p):
    """poly at every grid point x (list of coordinate arrays), mod p."""
    val = np.zeros_like(x[0])
    for e, c in poly.coeffs.items():
        term = np.full_like(x[0], c % p)
        for v, k in enumerate(e):
            if k:
                term = term * _pow_mod(x[v], k, p) % p
        val = (val + term) % p
    return val


def _pow_mod(a, k, p):
    out = np.ones_like(a)
    for _ in range(k):
        out = out * a % p
    return out


def _rank_histogram(G, p):
    """#{x in F_p^n : rank Hess G(x) = r} by integer minors mod p (n = 3)."""
    n = G.n
    x = _grid(n, p)
    H = [[_values_mod(G.partial(i).partial(j), x, p) for j in range(n)] for i in range(n)]
    minors = [(H[i][k] * H[j][l] - H[i][l] * H[j][k]) % p
              for i in range(n) for j in range(i + 1, n) for k in range(n) for l in range(k + 1, n)]
    det = (H[0][0] * (H[1][1] * H[2][2] - H[1][2] * H[2][1])
           - H[0][1] * (H[1][0] * H[2][2] - H[1][2] * H[2][0])
           + H[0][2] * (H[1][0] * H[2][1] - H[1][1] * H[2][0])) % p
    rank = np.where(det != 0, 3, np.where(np.any(minors, axis=0), 2,
                                          np.where(np.any([h for row in H for h in row], axis=0), 1, 0)))
    return np.bincount(rank, minlength=n + 1).tolist()


def _sing_count_ambiguous(G, p, C=geometry.BAND_CONSTANT):
    """Does the projective count of the singular locus of G = 0 over F_p fit two dimensions?

    `sing_dim` with kmax=1 estimates the dimension from this one count; with
    n = 3 the candidates are 0 and 1, and the library raises AmbiguousDimension
    when the count lies in both bands.
    """
    n = G.n
    if not any(c % p for c in G.coeffs.values()):
        return False
    x = _grid(n, p)
    zero = np.ones_like(x[0], dtype=bool)
    for poly in [G] + [G.partial(i) for i in range(n)]:
        zero &= _values_mod(poly, x, p) == 0
    count = (int(zero.sum()) - 1) // (p - 1)  # nonzero zeros up to scaling
    if count <= 1:
        return False
    return sum(1 for d in range(n - 1) if p ** d / C <= count <= C * p ** d) != 1


def _valuation(x, p):
    if x == 0:
        return math.inf
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _hensel_witness_ok(F, x, p):
    """Hensel's lemma: v(F(x)) > 2 v(grad F(x)), with a coordinate of valuation <= v(grad)."""
    x = list(x)
    vF = _valuation(F.evaluate(x), p)
    vg = min(_valuation(g, p) for g in F.gradient_at(x))
    return vg < math.inf and vF > 2 * vg and min(_valuation(xi, p) for xi in x) <= vg


class Combined:
    """Rounds made of one round of each part; the parts keep their own seeded streams."""

    PARTS = ()

    def __init__(self, seed, workdir: Path, reference: dict):
        self.parts = [part(seed, workdir, reference) for part in self.PARTS]

    def round(self, i):
        return [job for part in self.parts for job in part.round(i)]


class LocalExpsum(Combined):
    """The q^n residue grid of `counting` and the per-a histogram loop of `expsums`."""

    PARTS = (DenseLocal, ExpsumSweep)


class MainVerify(Combined):
    """`oscillatory`, `geometry` and `verify`; `counting` runs mitm and convolution, never the grid."""

    PARTS = (MainTerm, VerifyGeometry)


WORKLOADS = {
    "local_expsum": LocalExpsum,
    "main_verify": MainVerify,
}
