"""Arc decomposition, singular series, local densities, and the main term.

The singular series is handled entirely in exact rational arithmetic: the
unit-restricted sums A_q are integers obtained from solution counts, so S(R)
is a Fraction and identities like 1 + sum_k p^{-kn} A_{p^k} =
p^{-K(n-1)} rho(p^K) are checked with zero tolerance.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction

import numpy as np

from .counting import DEFAULT_BUDGET, _check_cost, factorint, primes_up_to, solutions_mod_q, weighted_count
from .errors import ArcsOverlap, BudgetExceeded, DeltaOutOfRange, Inconclusive, PreconditionViolated
from .expsums import unit_sum_prime_power
from .forms import IntPolynomial, _grid_points, _values_at, blocks
from .geometry import _slabs
from .oscillatory import QuadratureConfig, singular_integral
from .weights import WeightSpec


# -- rational approximation ------------------------------------------------------


@dataclass(frozen=True)
class RationalApprox:
    a: int
    q: int
    z: Fraction
    alpha: Fraction


def _to_fraction(alpha) -> Fraction:
    if isinstance(alpha, Fraction):
        return alpha
    if isinstance(alpha, int):
        return Fraction(alpha)
    return Fraction(float(alpha))  # exact binary expansion of the double


def dirichlet_approx(alpha, Q: int) -> RationalApprox:
    """alpha = a/q + z (mod 1) with 1 <= a <= q <= Q, gcd(a,q)=1, |z| <= 1/(qQ)."""
    if Q < 1:
        raise ValueError("Q must be >= 1")
    alpha = _to_fraction(alpha)
    beta = alpha - math.floor(alpha)
    if beta == 0:
        beta = Fraction(1)  # treat integers as the point 1 = 1/1
    # continued-fraction convergents of beta, last with denominator <= Q
    h_prev2, k_prev2 = 0, 1
    h_prev1, k_prev1 = 1, 0
    x = beta
    a_best, q_best = 0, 1
    while True:
        a0 = math.floor(x)
        h = a0 * h_prev1 + h_prev2
        k = a0 * k_prev1 + k_prev2
        if k > Q:
            break
        a_best, q_best = h, k
        frac = x - a0
        if frac == 0:
            break
        x = 1 / frac
        h_prev2, k_prev2, h_prev1, k_prev1 = h_prev1, k_prev1, h, k
    z = beta - Fraction(a_best, q_best)
    if a_best == 0:
        a_best = q_best  # 0/1 and 1/1 are the same point mod 1
    return RationalApprox(a=a_best, q=q_best, z=z, alpha=alpha)


# -- major/minor arcs --------------------------------------------------------------


@dataclass
class ArcPartition:
    delta: float
    P: float
    q_max: int
    half_width: float
    arcs: list = field(default_factory=list)  # (a, q, center Fraction)

    @property
    def total_measure(self) -> float:
        return 2.0 * self.half_width * len(self.arcs)


def _check_arcs(delta: float, P: float, budget: int, pairs: bool) -> int:
    """q_max = floor(P^delta), once the walk over q <= q_max (every a/q when `pairs`) fits `budget`."""
    if not 0 < delta < 4.0 / 3.0:
        raise DeltaOutOfRange("delta must lie in (0, 4/3)")
    if not 0 < P < math.inf:
        raise PreconditionViolated(f"P must be positive and finite, got {P}")
    try:
        q_max = int(math.floor(P ** delta + 1e-9))
        walk = q_max * (q_max + 1) // 2 if pairs else q_max
    except OverflowError:  # P^delta is past the largest double
        walk = math.inf
    if walk > budget:
        raise BudgetExceeded(f"the arcs with q <= {P}^{delta} walk more than budget {budget} steps")
    return q_max


def arc_partition(delta: float, P: float, budget: int = DEFAULT_BUDGET) -> ArcPartition:
    """Arcs |alpha - a/q| <= P^(delta-4) for q <= P^delta, checked disjoint; `budget` bounds the a/q walked."""
    q_max = _check_arcs(delta, P, budget, pairs=True)
    width = float(P) ** (delta - 4.0)
    arcs = []
    for q in range(1, q_max + 1):
        for a in range(1, q + 1):
            if math.gcd(a, q) == 1:
                arcs.append((a, q, Fraction(a, q)))
    arcs.sort(key=lambda t: t[2])
    centers = [c for (_, _, c) in arcs]
    for c1, c2 in zip(centers, centers[1:]):
        if float(c2 - c1) <= 2 * width:
            raise ArcsOverlap(f"arcs at {c1} and {c2} overlap for delta={delta}, P={P}")
    if len(centers) > 1 and float(centers[0] + 1 - centers[-1]) <= 2 * width:
        raise ArcsOverlap("wrap-around overlap at 0 = 1")
    return ArcPartition(delta=delta, P=P, q_max=q_max, half_width=width, arcs=arcs)


def classify(alpha, delta: float, P: float, budget: int = DEFAULT_BUDGET):
    """('major', a, q) when alpha lies in some arc, else ('minor', None, None); `budget` bounds the q walked."""
    q_max = _check_arcs(delta, P, budget, pairs=False)
    beta = _to_fraction(alpha)
    beta -= math.floor(beta)
    width = Fraction(float(P) ** (delta - 4.0))
    for q in range(1, q_max + 1):
        aa = round(beta * q)
        if abs(beta - Fraction(aa, q)) <= width:
            if aa == 0:
                aa, qq = 1, 1
            else:
                g = math.gcd(aa, q)
                aa, qq = aa // g, q // g
            return ("major", aa, qq)
    return ("minor", None, None)


# -- singular series ----------------------------------------------------------------


class SeriesCache:
    """Per-form memo of rho(q) and A_q so sweeps over R reuse the counts."""

    def __init__(self, F: IntPolynomial, budget: int = DEFAULT_BUDGET):
        self.F = F
        self.budget = budget
        self.rho: dict = {}
        self.aq: dict = {}

    def rho_at(self, q: int) -> int:
        if q not in self.rho:
            self.rho[q] = solutions_mod_q(self.F, q, budget=self.budget)
        return self.rho[q]

    def a_at(self, q: int) -> int:
        if q not in self.aq:
            out = 1
            for p, e in factorint(q).items():
                if p ** e not in self.aq:
                    self.aq[p ** e] = unit_sum_prime_power(self.F, p, e, self.budget)
                out *= self.aq[p ** e]
            self.aq[q] = out
        return self.aq[q]

    def plan(self, prime_powers) -> None:
        """BudgetExceeded before any work at the first prime power (caller's order), or all, whose rho would not fit."""
        parts = blocks(self.F)[1]
        todo = [q for q in prime_powers if q not in self.aq and q not in self.rho]
        total = sum(_check_cost(parts, q, self.budget) for q in todo)
        if total > self.budget:
            raise BudgetExceeded(f"summed cost {total} of F mod {len(todo)} prime powers exceeds budget {self.budget}")


def _primes_within(m: int, budget: int) -> list:
    """primes_up_to(m), once its sieve of m + 1 cells fits `budget`."""
    if m + 1 > budget:
        raise BudgetExceeded(f"a sieve of {m + 1} cells exceeds budget {budget}")
    return primes_up_to(m)


def _prime_powers(R: float, cache: SeriesCache) -> list:
    """(p, p^e) with p^e <= R, by p and then e; S(R) and its Euler view need a finite R >= 0.

    Before the sieve, BudgetExceeded when the u primes up to R that `cache` lacks
    must cost more than its budget, which `cache.plan` would refuse: u >= ceil(m / ln m)
    less the moduli cached for m = floor(R) >= 17 (Rosser and Schoenfeld), and a table
    mod the k-th prime costs at least k + 1 cells, so over u^2 / 2 (even if rounding lifts u by one).
    """
    if not 0 <= R < math.inf:
        raise PreconditionViolated(f"S(R) needs a finite R >= 0, got {R}")
    m = int(math.floor(R))
    u = max(math.ceil(m / math.log(m)) - len(cache.aq.keys() | cache.rho.keys()), 0) if m >= 17 else 0
    if u * u > 2 * cache.budget:  # the counts in scientific notation: an R near 1e300 has 600-digit bounds
        raise BudgetExceeded(f"S(R) at R = {R:.6g} needs at least {Decimal(u):.3e} uncached primes, "
                             f"over {Decimal(u * u // 2):.3e} cells, past budget {Decimal(cache.budget):.3e}")
    # p^e <= m needs e <= log2(m) / log2(p) <= m.bit_length() // (p.bit_length() - 1)
    tops = ((p, m.bit_length() // (p.bit_length() - 1)) for p in _primes_within(m, cache.budget))
    return [(p, p ** e) for p, top in tops for e in range(1, top + 1) if p ** e <= m]


def singular_series(F: IntPolynomial, R: float, cache: SeriesCache | None = None) -> Fraction:
    """S(R) = sum_{q <= R} q^-n A_q as an exact rational; the budget is checked for every q first."""
    cache = cache or SeriesCache(F)
    cache.plan(sorted(q for _, q in _prime_powers(R, cache)))
    total = Fraction(0)
    n = F.n
    for q in range(1, int(math.floor(R)) + 1):
        total += Fraction(cache.a_at(q), q ** n)
    return total


def euler_view(F: IntPolynomial, R: float, cache: SeriesCache | None = None) -> Fraction:
    """prod_p (1 + sum_{p^k <= R} p^-kn A_{p^k}), the Euler grouping of S."""
    cache = cache or SeriesCache(F)
    powers = _prime_powers(R, cache)
    cache.plan(q for _, q in powers)
    local = {}
    for p, q in powers:
        local[p] = local.get(p, 1) + Fraction(cache.a_at(q), q ** F.n)
    return math.prod(local.values(), start=Fraction(1))


@dataclass
class LocalFactor:
    p: int
    K: int
    partial_sums: list  # chi_p(k) = sum_{j<=k} p^-jn A_{p^j}, exact Fractions
    densities: list  # p^{-k(n-1)} rho(p^k), exact Fractions
    identity_ok: bool


def local_factor(F: IntPolynomial, p: int, K: int, budget: int = DEFAULT_BUDGET) -> LocalFactor:
    """Exact check of 1 + chi_p(K) = p^{-K(n-1)} rho(p^K) for every K' <= K; the budget is checked for p..p^K first."""
    n = F.n
    cache = SeriesCache(F, budget)
    cache.plan(p ** k for k in range(1, K + 1))
    chi = []
    dens = []
    acc = Fraction(0)
    ok = True
    for k in range(1, K + 1):
        acc += Fraction(cache.a_at(p ** k), p ** (k * n))
        chi.append(acc)
        dk = Fraction(cache.rho_at(p ** k), p ** (k * (n - 1)))
        dens.append(dk)
        ok &= (1 + acc) == dk
    return LocalFactor(p=p, K=K, partial_sums=chi, densities=dens, identity_ok=ok)


# -- main term ------------------------------------------------------------------------


def main_term_pipeline(
    F: IntPolynomial,
    w: WeightSpec,
    P: float,
    R_series: float,
    R_integral: float,
    cfg: QuadratureConfig | None = None,
    cache: SeriesCache | None = None,
    budget: int = DEFAULT_BUDGET,
) -> dict:
    """N_w(F;P) against the model S(R_series) * J(R_integral) * P^{n-4}; `budget` also caps the J grids."""
    cfg = (cfg or QuadratureConfig()).within(budget)
    n = F.n
    count = weighted_count(F, w, P, budget=budget)
    S = singular_series(F, R_series, cache=cache or SeriesCache(F, budget))
    J = singular_integral(F, w, R_integral, cfg=cfg)
    main = float(S) * J * float(P) ** (n - 4)
    ratio = count.count / main if main else math.inf
    return {
        "N_omega": count.count,
        "count_method": count.method,
        "S": S,
        "S_float": float(S),
        "J": J,
        "P": P,
        "main": main,
        "ratio": ratio,
    }


# -- local solubility ------------------------------------------------------------------


GRID_CAP = 200_000  # `local_witness` walks the full grid mod p up to this many cells, and samples past it
LIFT_CAP = 20_000  # rows `local_witness` keeps a Hensel level; level 1 reads at most 10 times as many grid zeros
PROBES = 2000  # sign probes of `real_point_probe` on the unit sphere


def _level_one_draws(p: int, n: int, budget: int) -> int:
    """Points x mod p that `local_witness` draws at level 1: none while the grid mod p fits GRID_CAP and `budget`."""
    return 60 * p if p ** n > min(GRID_CAP, budget) else 0


def _randrange_many(rng: random.Random, p: int, count: int) -> np.ndarray:
    """[rng.randrange(p) for _ in range(count)] drawn in bulk, leaving rng in the same state.

    randrange(p) is the top k = p.bit_length() <= 32 bits of the first Mersenne Twister word that gives a
    value < p, and getrandbits(32 m) is m words, first lowest: a copy of rng draws them, rng skips as many.
    """
    k = p.bit_length()
    if k > 32:
        return np.array([rng.randrange(p) for _ in range(count)], dtype=object)
    clone, words = random.Random(), np.zeros(0, dtype=np.uint32)
    clone.setstate(rng.getstate())
    while np.count_nonzero(words < p) < count:
        m = count * (1 << k) // p + 64
        drawn = clone.getrandbits(32 * m).to_bytes(4 * m, "little")
        words = np.append(words, np.frombuffer(drawn, "<u4") >> (32 - k))
    hits = np.flatnonzero(words < p)[:count]
    rng.getrandbits(32 * (int(hits[-1]) + 1) if count else 0)
    return words[hits].astype(np.int64)


def _first_rows(A: np.ndarray) -> np.ndarray:
    """Indices of the first occurrence of each distinct row of A, increasing: a stable sort over the columns, valid
    for any entries (a packed int64 key per row overflows once p^n >= 2^63); uint16 keys, where they fit, radix-sort."""
    keys = A.T[::-1]
    order = np.lexsort(keys.astype(np.uint16) if A.size and 0 <= A.min() and A.max() < 1 << 16 else keys)
    S = A[order]
    first = np.ones(len(S), dtype=bool)
    first[1:] = (S[1:] != S[:-1]).any(axis=1)
    return np.sort(order[first])


def _val_p_many(a: np.ndarray, p: int) -> np.ndarray:
    """v_p(x) for each x of an integer array (int64, or Python ints in an object array); 64 stands in for v_p(0).

    Over int64 p^v_p(x) is x & -x for p = 2 (as uint64: 2^63 for -2^63), else gcd(x, p^M), p^M < 2^63 the largest."""
    if a.dtype == np.int64:
        powers = [1]
        while powers[-1] * p < 1 << (64 if p == 2 else 63):
            powers.append(powers[-1] * p)
        part = (a & -a).view(np.uint64) if p == 2 else np.gcd(a, powers[-1])
        return np.where(a == 0, 64, np.searchsorted(np.array(powers, dtype=part.dtype), part))
    v, live, r = np.where(a == 0, 64, 0), np.flatnonzero(a), a[a != 0]
    while live.size:
        hit = r % p == 0
        live, r = live[hit], r[hit] // p
        v[live] += 1
    return v


def _sampled_zeros(F: IntPolynomial, p: int, rng: random.Random, draws: int) -> list:
    """Zeros of F mod p among `draws` draws of x, first occurrences (_first_rows), 0 dropped; rng as a loop."""
    n = F.n
    X = _randrange_many(rng, p, draws * n).reshape(-1, n)
    X = X[_first_rows(X)]
    X = X[X.any(axis=1)]
    zero = _values_at(F, list(X.T), p) == 0
    return list(map(tuple, X[zero].tolist()))


def local_witness(
    F: IntPolynomial,
    p: int,
    k_max: int = 12,
    seed: int = 1,
    budget: int = DEFAULT_BUDGET,
):
    """Search x (not all = 0 mod p) that Hensel-lifts to a p-adic zero of F.

    Returns (x, k), x a tuple of Python ints, or raises Inconclusive.  Level k
    holds solutions of F = 0 mod p^k, none 0 mod p, as array rows, read with F
    and grad F exact up to the first row with v_p F > 2 min_i v_p dF/dx_i: the
    witness, since by Hensel's lemma it lifts to a p-adic zero of F (v_p(0)
    counts as 64 here).  Level 1 is the grid mod p while it fits GRID_CAP and
    `budget`, read in slabs of x_n (x_1 fastest; its first 10 LIFT_CAP zeros,
    counting 0), else the zeros of 60 p seeded draws, of which the first 8 p
    are read first from a copy of the generator; later levels are read in
    slices of 64, 256, ... rows.  Lifting needs no gradient: a point has
    v_p F >= 1 and some coordinate prime to p, so it fails only when grad F = 0
    mod p.  Then F(x + p^k d) = F(x) mod p^{k+1} for every d, and x lifts
    exactly when v_p F(x) > k, to x + p^k d for every d mod p (or 64 seeded d,
    repeats dropped) up to LIFT_CAP rows.
    """
    n = F.n
    rng = random.Random(seed * 1_000_003 + p)

    def level_one(left=10 * LIFT_CAP):
        if draws := _level_one_draws(p, n, budget):
            clone = random.Random()
            clone.setstate(rng.getstate())
            yield (head := np.array(_sampled_zeros(F, p, clone, 8 * p), dtype=np.int64).reshape(-1, n))
            yield np.array(_sampled_zeros(F, p, rng, draws), dtype=np.int64).reshape(-1, n)[len(head):]
            return
        for coords in _slabs(p, n, budget, max(p ** (n - 1), 1024)):  # the grid's flat order, x_1 fastest
            zero = _values_at(F, coords, p) == 0
            X = np.stack([np.broadcast_to(c, zero.shape)[zero] for c in coords], axis=1)[:left]
            left -= len(X)
            yield X[X.any(axis=1)]
            if not left:
                return

    gradient = F.gradient()
    grid = _grid_points([np.arange(p)] * n) if p ** n <= min(4096, budget) else None
    for k in range(1, k_max + 1):
        read = []  # rows and v_p F; past level 1 in slices of 64, 256, ... rows: the first is nearly always the witness
        bounds = [b for b in (64 * (4 ** j - 1) // 3 for j in range(1, 32)) if k > 1 and b < len(X)]
        for rows in level_one() if k == 1 else np.split(X, bounds):
            v, *vg = (_val_p_many(_values_at(g, list(rows.T)), p) for g in [F] + gradient)
            ok = np.flatnonzero(v > 2 * np.min(vg, axis=0))
            if ok.size:
                return tuple(rows[ok[0]].tolist()), k
            read.append((rows, v))
        X, vF = map(np.concatenate, zip(*read))
        # Python ints once the next level's coordinates pass int64
        X, pk = X[vF > k].astype(object if p ** (k + 1) >= 1 << 63 else X.dtype), p ** k
        if grid is not None:
            rows = np.arange(min(LIFT_CAP, len(X) * len(grid)))
            X = X[rows // len(grid)] + pk * grid[rows % len(grid)].astype(X.dtype)
        else:
            lifts, first = [], 0
            while (got := sum(map(len, lifts))) < LIFT_CAP and first < len(X):
                reach = min(-(-(LIFT_CAP - got) // 64), len(X) - first)  # at most 64 lifts a row: each of them draws
                owner = np.repeat(np.arange(first, first + reach), 64)
                d = _randrange_many(rng, p, 64 * n * reach).reshape(-1, n)
                keep = _first_rows(np.column_stack([owner, d]))[: LIFT_CAP - got]
                lifts.append(X[owner[keep]] + pk * d[keep].astype(X.dtype))
                first += reach
            X = np.concatenate(lifts or [X])
        if not len(X):
            break
    raise Inconclusive(f"no Hensel witness mod {p} within k <= {k_max}")


def real_point_probe(F: IntPolynomial, seed: int = 1):
    """Nonsingular real zero on the unit sphere via sign change + bisection.

    The probes are the n unit vectors and then normalised Gaussian draws up
    to PROBES, drawn by `random.gauss` only when the unit vectors show
    neither a usable zero nor both signs; F is evaluated at all of them in one
    call on their columns.  The first zero probe is the witness when grad F is
    nonzero there, and otherwise the first positive and first negative probe
    are bisected, up to 200 steps: a step that moves neither end is a fixed
    point, so the bisection stops there with the bits the later steps would keep.
    """
    n = F.n
    probes = np.eye(n)
    for drawn in (False, True):
        if drawn:
            rng = random.Random(seed)
            G = np.array([rng.gauss(0, 1) for _ in range(max(PROBES - n, 0) * n)]).reshape(-1, n)
            # squares summed left to right, not pairwise, so each probe is the double it is when normalised alone
            probes = np.vstack([probes, G / np.sqrt(sum(g * g for g in G.T))[:, None]])
        vals = F.evaluate(list(probes.T)) + np.zeros(len(probes))  # a constant F gives a scalar
        pos, neg, zero = (np.flatnonzero(hit)[:1] for hit in (vals > 0, vals < 0, vals == 0))
        if len(zero) and any(F.gradient_at(probes[zero[0]].tolist())):
            return True, tuple(probes[zero[0]].tolist())
        if len(pos) and len(neg):
            break
    else:
        return False, None
    # bisect along the great-circle-ish segment between the two probes
    xa, xb = tuple(probes[pos[0]].tolist()), tuple(probes[neg[0]].tolist())
    for _ in range(200):
        mid = tuple((a + b) / 2 for a, b in zip(xa, xb))
        v = float(F.evaluate(list(mid)))
        if v == 0.0 or mid == (xa if v > 0 else xb):
            break
        if v > 0:
            xa = mid
        else:
            xb = mid
    mid = tuple((a + b) / 2 for a, b in zip(xa, xb))
    grad = F.gradient_at(list(mid))
    gnorm = math.sqrt(sum(float(g) ** 2 for g in grad))
    return gnorm > 1e-9, mid


def hasse_report(
    F: IntPolynomial,
    p_max: int = 100,
    k_max: int = 12,
    seed: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> dict:
    """Local solubility table: R plus every prime p <= p_max; `budget` bounds the sieve and `local_witness`'s walks."""
    if p_max < 2 or k_max < 1:
        raise PreconditionViolated(f"the Hasse report needs p_max >= 2 and k_max >= 1, got {p_max} and {k_max}")
    primes = _primes_within(p_max, budget)
    drawn = sum(_level_one_draws(p, F.n, budget) * F.n for p in primes)  # residues sampled past the grid cap
    if drawn > budget:
        raise BudgetExceeded(f"{drawn} residues drawn past the grid cap up to p = {p_max} exceed budget {budget}")
    real_ok, real_witness = real_point_probe(F, seed=seed)
    locals_ = {}
    for p in primes:
        try:
            x, k = local_witness(F, p, k_max=k_max, seed=seed, budget=budget)
            locals_[p] = {"soluble": True, "witness": x, "level": k}
        except Inconclusive as exc:
            locals_[p] = {"soluble": None, "note": str(exc)}
    return {
        "real": {"soluble": real_ok, "witness": real_witness},
        "primes": locals_,
        "everywhere_locally_soluble": real_ok and all(rec["soluble"] for rec in locals_.values()),
    }
