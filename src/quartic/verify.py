"""Executable checks of the identities and bounds behind the main theorem.

Identities (van der Corput rearrangement, pair counts, the rational
approximation filter) are checked exactly; inequalities produce a BoundReport
carrying the observed implied constant, to be compared against a checked-in
calibration file rather than asserted in the abstract.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product

import numpy as np

from .counting import DEFAULT_BUDGET, _near_integer, factorint
from .errors import BudgetExceeded, NotQuarticForm, PreconditionViolated
from .expsums import complete_sum, factor_bcd, kernel_count_mod
from .forms import CubicData, IntPolynomial, SymTensor, _grid_points, _grid_slabs, grid_values
from .forms import hessian, heights, parse_form, sym_tensor
from .geometry import hessian_rank_profile, sing_dim
from .oscillatory import _phase_sum, gen_sum
from .weights import WeightSpec, bump, lattice_ranges, shifted_product, unit_box


@dataclass
class BoundReport:
    lemma_id: str
    lhs: float
    rhs: float
    ratio: float
    params: dict

    @classmethod
    def make(cls, lemma_id, lhs, rhs, params):
        ratio = lhs / rhs if rhs else math.inf
        return cls(lemma_id, float(lhs), float(rhs), float(ratio), params)


# -- random sweep inputs ----------------------------------------------------------


def random_form(rng: random.Random, n: int, degree: int, bound: int = 5, homogeneous=True):
    coeffs = {}
    degs = [degree] if homogeneous else range(degree + 1)
    for d in degs:
        for key in combinations_with_replacement(range(n), d):
            e = [0] * n
            for i in key:
                e[i] += 1
            c = rng.randint(-bound, bound)
            if c:
                coeffs[tuple(e)] = c
    if not coeffs:
        coeffs[(degree,) + (0,) * (n - 1)] = 1
    return IntPolynomial(n, coeffs)


def random_cubic_data(rng: random.Random, n: int, bound: int = 5) -> CubicData:
    return CubicData.from_poly(random_form(rng, n, 3, bound, homogeneous=False))


# -- van der Corput identities ------------------------------------------------------


def _differenced_sums(F: IntPolynomial, w: WeightSpec, P: int, H: int, a: int, q: int, z: float) -> dict:
    """h -> T_h(a/q + z) for |h_i| < H in `product` order: gen_sum of F(x+h) - F(x) under the shifted weight.

    F is evaluated once, exactly, on the box of x and x + h for every h (inside the box of w, which both callers check
    against a budget); each T_h reads the integers F(x+h) - F(x) from it, so its phases are `gen_sum`'s bit for bit.
    """
    if F.degree != 4 or not F.is_homogeneous(4):
        raise NotQuarticForm("differenced sums need a homogeneous quartic")
    out = dict.fromkeys(product(range(-(H - 1), H), repeat=F.n), 0.0 + 0.0j)  # an empty box sums to 0
    live = {hh: lattice_ranges(shifted_product(w, hh, P), P) for hh in out}
    live = {hh: box for hh, box in live.items() if all(a0 <= b0 for a0, b0 in box)}
    if not live:
        return out
    lo = [min(box[i][0] + min(hh[i], 0) for hh, box in live.items()) for i in range(F.n)]
    hi = [max(box[i][1] + max(hh[i], 0) for hh, box in live.items()) for i in range(F.n)]
    Fv = grid_values(F, [np.arange(l, u + 1, dtype=np.int64) for l, u in zip(lo, hi)])
    for hh, box in live.items():
        x = tuple(slice(a0 - l, b0 + 1 - l) for (a0, b0), l in zip(box, lo))
        xh = tuple(slice(s.start + t, s.stop + t) for s, t in zip(x, hh))
        wv = shifted_product(w, hh, P).eval_grid([np.arange(a0, b0 + 1, dtype=np.int64) / P for a0, b0 in box])
        out[hh] = _phase_sum(wv.ravel(), (Fv[xh] - Fv[x]).ravel(), a, q, z)
    return out


def vdc_identity(F: IntPolynomial, w: WeightSpec, P: int, H: int, alpha, budget: int = DEFAULT_BUDGET) -> dict:
    """Exact checks of the van der Corput kernel at (F, w, P, H, alpha).

    (i)   #H * S(alpha) equals the double sum over shifts (rearrangement), S and every
          shifted sum read from one evaluation of w(x/P) e(alpha F(x));
    (ii)  N(h) = prod_i (H - |h_i|) for |h_i| < H, by direct pair counting;
    (iii) the quadratic identity sum_x |sum_h f(x+h)|^2 = sum_h N(h) T_h(alpha)
          and the resulting bound |S|^2 <= C H^-n P^n sum_h |T_h|.
    """
    n = F.n
    if not 1 <= H <= P:
        raise PreconditionViolated("need 1 <= H <= P")
    if isinstance(alpha, Fraction):
        a, q, z = int(alpha.numerator % alpha.denominator) or alpha.denominator, int(alpha.denominator), 0.0
    else:
        a, q, z = 0, 1, float(alpha)
    ranges = lattice_ranges(w, P)
    cells = math.prod(max(b0 - a0 + 1 + H, 0) for a0, b0 in ranges)
    work = max(cells, H ** n) * H ** n  # H^n shifted boxes of the widened grid; the H^2n pair tally fits in it
    if work > budget:
        raise BudgetExceeded(f"vdc work of {work} cells ({cells} widened, {H ** n} shifts) exceeds budget {budget}")
    # f on supp(w(./P)) widened by H - 1 below and H above holds the box of S and its shifts by h in 1..H; each is
    # read as a slice raveled in grid order, so every sum adds the terms of its own box in the same order
    axes = [np.arange(a0 - H + 1, b0 + H + 1, dtype=np.int64) for a0, b0 in ranges]
    vals = grid_values(F, axes)
    ang = ((vals % q).astype(np.int64) * (a / q) if q > 1 else 0.0) + z * vals.astype(float)
    f = w.eval_grid([ax / P for ax in axes]) * np.exp(2j * np.pi * (ang % 1.0))
    sizes = [b0 - a0 + 1 for a0, b0 in ranges]

    def box(start, shape):  # a negative side is an empty box: a slice must not wrap around
        return f[tuple(slice(s, s + max(k, 0)) for s, k in zip(start, shape))].ravel()

    S = complex(box([H - 1] * n, sizes).sum())
    inner = np.zeros(cells, dtype=complex)
    double_sum = 0.0 + 0j
    for hh in product(range(1, H + 1), repeat=n):
        fx = box([h - 1 for h in hh], [k + H for k in sizes])
        inner += fx
        double_sum += fx.sum()
    resid_i = abs(H ** n * S - double_sum)
    # (ii) pair-difference counts: one tally of h1 - h2 over every pair, against prod_i (H - |h_i|)
    hs = np.indices((H,) * n).reshape(n, -1)  # the H^n shifts, less 1, one column each
    diffs = np.ravel_multi_index((hs[:, :, None] - hs[:, None, :] + H).reshape(n, -1), (2 * H + 1,) * n)
    direct = functools.reduce(np.multiply.outer, [H - np.abs(np.arange(-H, H + 1))] * n).ravel()
    pair_ok = np.array_equal(np.bincount(diffs, minlength=direct.size), direct)
    # (iii) quadratic identity and the vdC bound
    lhs_quad = float((np.abs(inner) ** 2).sum())
    rhs_quad = 0.0 + 0j
    sum_abs_T = 0.0
    for hh, Th in _differenced_sums(F, w, P, H, a or 1, q, z).items():
        rhs_quad += math.prod(H - abs(t) for t in hh) * Th
        sum_abs_T += abs(Th)
    resid_quad = abs(lhs_quad - rhs_quad)
    scale = max(lhs_quad, 1.0)
    vdc_rhs = H ** (-n) * float(P) ** n * sum_abs_T
    report = BoundReport.make(
        "vdc-cauchy",
        abs(S) ** 2,
        vdc_rhs,
        {"P": P, "H": H, "alpha": str(alpha), "n": n},
    )
    return {
        "rearrangement_residual": resid_i,
        "pair_counts_ok": pair_ok,
        "quadratic_residual": resid_quad,
        "quadratic_scale": scale,
        "bound": report,
        "S": S,
    }


# -- the Weyl chain --------------------------------------------------------------------


def _trilinear_residue_histogram(F: IntPolynomial, P: int, qq: int):
    """Counts of (L_1,...,L_n) mod qq over the triple box |w|,|x|,|y| <= P, shaped (qq,)*n.

    Every (w, x) pair is enumerated, in slabs, with w and x reduced mod qq;
    y runs over its residues mod qq, each counted as often as it occurs.
    """
    n = F.n
    R = math.floor(P)
    ymult = np.bincount(np.arange(-R, R + 1) % qq, minlength=qq)
    ys = np.flatnonzero(ymult)  # the residues y_i takes
    cells, cap = (2 * R + 1) ** (2 * n) * len(ys) ** n, 300_000_000
    if cells > cap:
        raise BudgetExceeded(f"weyl histogram of {cells} cells exceeds its cap {cap}")
    T = SymTensor(n, {key: val % qq for key, val in sym_tensor(F).entries.items()})
    dt = np.int64 if n * n * qq ** 3 < 1 << 62 else object  # residue sums stay below n^2 qq^3
    V = _grid_points([np.arange(-R, R + 1)] * n).astype(dt) % qq
    place = qq ** np.arange(n - 1, -1, -1)  # L_1 is the most significant digit
    hist = np.zeros(qq ** n, dtype=np.int64)
    for W, X in _grid_slabs([V, V], max(1, (1 << 20) // (n * n))):  # slabs of (w, x) pairs, about 2^20 entries of C
        C = T.contract(W[:, None], X[None]) % qq
        for y in product(ys.tolist(), repeat=n):
            L = (C @ np.array(y, dtype=dt) % qq).astype(np.int64)
            hist += int(ymult[list(y)].prod()) * np.bincount((L @ place).ravel(), minlength=qq ** n)
    return hist.reshape((qq,) * n)


def weyl_chain(F: IntPolynomial, P: int, alpha: Fraction) -> dict:
    """Observed constants for the Weyl differencing chain at rational alpha."""
    n = F.n
    if not isinstance(alpha, Fraction):
        alpha = Fraction(alpha)
    qq = alpha.denominator
    aa = alpha.numerator % qq
    w = unit_box(n)
    S = gen_sum(F, w, P, a=(aa or qq), q=qq, z=0.0)
    # (weyl1): |S|^2 <= C sum_w |T'_w|
    sum_T = 0.0
    for Th in _differenced_sums(F, w, P, P, aa or qq, qq, 0.0).values():
        sum_T += abs(Th)
    rep1 = BoundReport.make("weyl-square", abs(S) ** 2, sum_T, {"P": P, "alpha": str(alpha)})
    # (22-weyl4): |S|^8 <= C P^{4n} sum_{w,x,y} prod min(P, ||alpha L||^-1)
    hist = _trilinear_residue_histogram(F, P, qq)
    minvals = np.empty(qq)
    for t in range(qq):
        num = (aa * t) % qq
        dist = min(num, qq - num) / qq
        minvals[t] = min(P, 1.0 / dist) if dist > 0 else P
    prod_min = functools.reduce(np.multiply.outer, [minvals] * n)
    rhs4 = float(P) ** (4 * n) * float((hist * prod_min).sum())
    near = _near_integer(alpha, np.arange(qq), Fraction(1, P))
    NaP = int(hist[np.ix_(*[near] * n)].sum())
    rep4 = BoundReport.make("weyl-product-min", abs(S) ** 8, rhs4, {"P": P, "alpha": str(alpha)})
    # (22-smee): |S|^8 <= C P^{5n} (log P)^n N(alpha, P)
    rhs_smee = float(P) ** (5 * n) * math.log(max(P, 2)) ** n * max(NaP, 1)
    rep_smee = BoundReport.make("weyl-solution-count", abs(S) ** 8, rhs_smee, {"P": P, "alpha": str(alpha), "N_alpha_P": NaP})
    return {"square": rep1, "product": rep4, "counting": rep_smee, "N_alpha_P": NaP, "S": S}


# -- Davenport's shrinking lemma ----------------------------------------------------------


def davenport_shrink(L, A: float, c: float, Z1: float, Z2: float, alpha: Fraction = Fraction(1)) -> BoundReport:
    """N(Z2) <= C (Z2/Z1)^n N(Z1) for N(Z) = #{|u| <= cAZ, ||alpha (Lu)_i|| < Z/A}."""
    if not 0 < Z1 <= Z2 <= 1:
        raise PreconditionViolated("need 0 < Z1 <= Z2 <= 1")
    n = len(L)
    L = np.array([[int(x) for x in row] for row in L], dtype=np.int64)
    alpha = Fraction(alpha)

    def count(Z):
        R = int(math.floor(c * A * Z))
        axis = np.arange(-R, R + 1, dtype=np.int64)
        theta = Fraction(Z) / Fraction(A)  # exact binary value of the floats
        total = 0
        for slab in _grid_slabs([axis] * n, 1 << 18):
            u = _grid_points(slab).T
            total += int(_near_integer(alpha, L @ u, theta).all(axis=0).sum())
        return total

    N1, N2 = count(Z1), count(Z2)
    rhs = (Z2 / Z1) ** n * N1
    return BoundReport.make(
        "davenport", N2, rhs, {"A": A, "c": c, "Z1": Z1, "Z2": Z2, "N1": N1, "N2": N2}
    )


# -- the rational approximation filter ------------------------------------------------------


def rational_approx_filter(M: int, a: int, q: int, z: Fraction, Q: int, m: int) -> dict:
    """Exact check of the filter lemma at one tuple; every field is a Fraction."""
    z = Fraction(z)
    if math.gcd(a, q) != 1:
        raise PreconditionViolated("gcd(a, q) != 1")
    if abs(z) > Fraction(1, 2 * q * M):
        raise PreconditionViolated("|z| > 1/(2qM)")
    if Q < 2 * q:
        raise PreconditionViolated("Q < 2q")
    if abs(m) > M:
        raise PreconditionViolated("|m| > M")
    alpha = Fraction(a, q) + z
    v = alpha * m
    frac = v - math.floor(v)
    dist = min(frac, 1 - frac)
    if not dist < Fraction(1, Q):
        raise PreconditionViolated("||alpha m|| >= 1/Q")
    divides = (m % q == 0)
    forces_zero = (M < q) or (abs(z) > Fraction(1, q * Q))
    ok = divides and ((not forces_zero) or m == 0)
    return {"q_divides_m": divides, "forces_zero": forces_zero, "m": m, "ok": ok}


# -- prime and prime-power bounds ------------------------------------------------------------


def _max_unit_sum(F: IntPolynomial, q: int, budget: int) -> float:
    """max over gcd(a, q) = 1 of |S_{a,q}|."""
    return max(abs(complete_sum(F, a, q, budget=budget).value) for a in range(1, q + 1) if math.gcd(a, q) == 1)


def prime_power_bounds(kind: str, budget: int = DEFAULT_BUDGET, **kw) -> BoundReport:
    """Observed constants for the complete-sum estimates.

    kind='deligne': f, p, j (j = 1 or 2), s_p (that of the top form of f); bound p^{j(n+1+s_p)/2}.
    kind='birch':   F, q, sigma; bound q^{23n/24+(sigma+1)/24} for max_a |S_{a,q}|.
    kind='kge2':    F, p, k (k >= 2), sigma; bound p^{(k-1)n+sigma+1}.
    """
    if kind == "deligne":
        f, p, j, sp = kw["f"], kw["p"], kw["j"], kw["s_p"]
        n = f.n
        lhs = abs(complete_sum(f, 1, p ** j, budget=budget).value)
        rhs = float(p) ** (j * (n + 1 + sp) / 2.0)
        return BoundReport.make("deligne", lhs, rhs, {"p": p, "j": j, "s_p": sp, "n": n})
    if kind == "birch":
        F, q, sigma = kw["F"], kw["q"], kw["sigma"]
        n = F.n
        lhs = _max_unit_sum(F, q, budget)
        rhs = float(q) ** (23.0 * n / 24.0 + (sigma + 1) / 24.0)
        return BoundReport.make("birch", lhs, rhs, {"q": q, "sigma": sigma, "n": n})
    if kind == "kge2":
        F, p, k, sigma = kw["F"], kw["p"], kw["k"], kw["sigma"]
        if k < 2:
            raise PreconditionViolated("kge2 needs k >= 2")
        n = F.n
        lhs = _max_unit_sum(F, p ** k, budget)
        rhs = float(p) ** ((k - 1) * n + sigma + 1)
        return BoundReport.make("prime-power", lhs, rhs, {"p": p, "k": k, "sigma": sigma, "n": n})
    raise ValueError(f"unknown kind {kind!r}")


# -- kernel average (the N_m mean value bound) ------------------------------------------------


def avs5_average(g0: IntPolynomial, m: int, R: float) -> BoundReport:
    """sum_{|r| <= R} N_m(r)^(1/2) against m^{n/2} min{R, (1+H R^3/m)^{1/2}}^n, H the height of g0."""
    n = g0.n
    H = max(g0.height(), 1)
    if R < 1:
        return BoundReport.make("kernel-average", 0.0, 1.0, {"m": m, "R": R, "empty": True})
    Rb = int(math.floor(R))
    lhs = 0.0
    for r in product(range(-Rb, Rb + 1), repeat=n):
        Nm = kernel_count_mod(hessian(g0, list(r)), m)
        lhs += math.sqrt(Nm)
    rhs = m ** (n / 2.0) * min(R, math.sqrt(1.0 + H * R ** 3 / m)) ** n
    return BoundReport.make("kernel-average", lhs, rhs, {"m": m, "R": R, "H": H, "n": n})


# -- the cubic exponential sum bound ----------------------------------------------------------


def prop_t2_bound(
    g: CubicData, w: WeightSpec, P: int, a: int, q: int, z: float, budget: int = DEFAULT_BUDGET
) -> BoundReport:
    """|T(a/q+z)| against q^{-(n-eta)/2} (prod_{i>=eta} r_i^{(i-eta)/2}) P^n W^{n-eta}.

    eta is the minimiser of the parametric RHS over the admissible range
    [max(0, 1+s_infinity), n], which is how the bound is stated.
    """
    n = g.n
    if not (1 <= a <= q <= P * P and math.gcd(a, q) == 1):
        raise PreconditionViolated("need 1 <= a <= q <= P^2 coprime")
    if abs(z) > 1.0 / (q * P):
        raise PreconditionViolated("need |z| <= 1/(qP)")
    H = max(1.0, float(heights(g.poly, P)[1]))
    s_map = {p: sing_dim(g.g0, p) for p in factorint(q)}
    mf = factor_bcd(q, s_map=s_map, n=n)
    # sound stand-in: s_p >= s_infinity for every p
    s_infinity = -1 if n == 1 else max(-1, min(s_map.values(), default=-1))
    V = (q / P) * max(1.0, math.sqrt(abs(z) * H * P ** 3))
    c_, d_ = mf.c, mf.d
    W = V + min((c_ ** 2 * d_ * H) ** (1 / 3.0), math.sqrt(c_) * math.sqrt(V) + c_ ** (5 / 6.0) * H ** (1 / 6.0))
    T = gen_sum(g.poly, w, P, a=a, q=q, z=z, budget=budget)

    def rhs_at(e):
        rprod = 1.0
        for i in range(e, n + 1):
            rprod *= mf.r_i[i] ** ((i - e) / 2.0)
        return q ** (-(n - e) / 2.0) * rprod * float(P) ** n * W ** (n - e)

    eta, rhs = min(((e, rhs_at(e)) for e in range(max(0, 1 + s_infinity), n + 1)), key=lambda t: t[1])
    return BoundReport.make(
        "cubic-sum",
        abs(T),
        rhs,
        {"P": P, "a": a, "q": q, "z": z, "eta": eta, "V": V, "W": W, "H": H,
         "bcd": (mf.b, mf.c, mf.d), "r_i": list(mf.r_i), "s_map": {str(k): v for k, v in s_map.items()}},
    )


# -- the lemma sweeps behind `quartic verify` --------------------------------------------------
#
# Each takes (seed, trials) and returns the fields of its report; SWEEPS lists
# them in the order `quartic verify --help` shows.


def geometry_bound_sweep(seed: int, trials: int, primes=(7, 11, 13), n: int = 3) -> dict:
    """Max observed T_r and B_s ratios over a seeded sweep of cubic forms.

    For a cubic form B_s is the rank <= n - s locus of the Hessian and T_r
    the rank <= r locus, with the same bound, so r = 0..n and s = 0..n walk
    the same n + 1 loci: one rank count and one s_p per (form, prime) give both.
    """
    rng = random.Random(seed)
    worst = 0.0
    shape_ok = True
    for _ in range(trials):
        G = random_form(rng, n, 3, bound=4)
        for p in primes:
            sp = None  # the first locus computes s_p, the others reuse it
            for m in range(n + 1):
                prof = hessian_rank_profile(G, p, m, kmax=1, s_p=sp)
                sp = prof["s_p"]
                worst = max(worst, prof["ratio"])
                shape_ok &= prof["count"] <= 8.0 * p ** prof["bound"]
    return {"max_ratio_Tr": worst, "max_ratio_Bs": worst, "shape_ok": shape_ok,
            "params": {"primes": list(primes), "n": n}}


def davenport_sweep(seed: int, trials: int, n: int = 3, A: float = 10.0) -> dict:
    def trial(rng):
        L = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                L[i][j] = L[j][i] = rng.randint(-9, 9)
        alpha = Fraction(rng.randint(1, 30), rng.randint(1, 30))
        return davenport_shrink(L, A, 1.0, 0.5, 1.0, alpha=alpha).ratio

    return _worst_ratio(seed, trials, trial) | {"params": {"n": n, "A": A}}


def _worst_ratio(seed: int, trials: int, trial) -> dict:
    """The largest ratio that trial(rng) returns over `trials` seeded draws."""
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(trials):
        worst = max(worst, trial(rng))
    return {"max_ratio": worst}


def _vdc_report(seed: int, trials: int) -> dict:
    rng = random.Random(seed)
    worst, all_ok = 0.0, True
    for _ in range(trials):
        n = rng.choice([1, 2])
        F = random_form(rng, n, 4, bound=3)
        out = vdc_identity(F, bump((0.0,) * n, 1.0), 12, 3, Fraction(1, 7))
        all_ok &= out["pair_counts_ok"]
        all_ok &= out["quadratic_residual"] <= 1e-9 * out["quadratic_scale"]
        worst = max(worst, out["bound"].ratio)
    return {"max_ratio": worst, "identities_ok": all_ok}


def _weyl_trial(rng) -> float:
    n = rng.choice([1, 2])
    F = random_form(rng, n, 4, bound=2)
    out = weyl_chain(F, 8, Fraction(1, rng.choice([3, 5, 7])))
    return max(out["square"].ratio, out["product"].ratio, out["counting"].ratio)


def _filter_report(seed: int, trials: int) -> dict:
    """Every |m| <= 20 with ||(a/q) m|| < 1/(2q+2), q <= 6, through the filter; seed and trials unused."""
    checked, ok = 0, True
    ms = np.arange(-20, 21)
    for q in range(1, 7):
        for a in range(1, q + 1):
            if math.gcd(a, q) != 1:
                continue
            for m in ms[_near_integer(Fraction(a, q), ms, Fraction(1, 2 * q + 2))].tolist():
                ok &= rational_approx_filter(20, a, q, Fraction(0), 2 * q + 2, m)["ok"]
                checked += 1
    return {"checked": checked, "identities_ok": ok, "max_ratio": 0.0}


def _deligne_report(seed: int, trials: int) -> dict:
    """x^3 + a x + 1 over every residue a for six primes; seed and trials unused."""
    worst = 0.0
    for p in (5, 7, 11, 13, 17, 19):
        for a in range(p):
            f = parse_form(f"x1^3 + {a}*x1 + 1") if a else parse_form("x1^3 + 1")
            worst = max(worst, prime_power_bounds("deligne", f=f, p=p, j=1, s_p=-1).ratio)
    return {"max_ratio": worst}


def _kernel_average_trial(rng) -> float:
    g0 = random_form(rng, 2, 3, bound=3)
    return avs5_average(g0, rng.choice([2, 3, 4, 5, 6]), rng.choice([2, 3, 4])).ratio


def _cubic_sum_trial(rng) -> float:
    n = rng.choice([1, 2])
    g = CubicData.from_poly(random_form(rng, n, 3, bound=2, homogeneous=False))
    q = rng.randint(1, 12)
    return prop_t2_bound(g, bump((0.0,) * n, 0.5), 30, 1, q, 0.0).ratio


SWEEPS = {
    "davenport": davenport_sweep,
    "geometry": geometry_bound_sweep,
    "vdc": _vdc_report,
    "weyl": functools.partial(_worst_ratio, trial=_weyl_trial),
    "filter": _filter_report,
    "deligne": _deligne_report,
    "kernel-average": functools.partial(_worst_ratio, trial=_kernel_average_trial),
    "cubic-sum": functools.partial(_worst_ratio, trial=_cubic_sum_trial),
}
