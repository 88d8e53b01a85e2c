"""Exact point counts: weighted counts, projective height counts, counts mod q.

Two backends: brute enumeration over the weight's support box, and a
meet-in-the-middle (mitm) path for block forms F = sum_b G_b(x_b) with a
separable weight, which joins the value distribution of one half of the
blocks (`forms.blocks`) against the other half.  Both are exact; they agree
wherever both run.  `value_counts` gives the value distribution of a
polynomial mod q, which rho(q) here and the complete sums in `expsums` read;
it convolves one histogram per class of `forms.block_classes`, its copies by
squaring: a diagonal form costs <= n*q cells and n-1 q^2 joins, not q^n;
a homogeneous block mod p^k may read its unit orbits instead of its grid,
and the table mod a composite q is the product of its prime-power tables,
each tiled to length q (CRT).  It is memoised per (F, q), so every S_{a,q}
and rho(q) share one table; the same memo holds the table of each block and
each orbit level, so forms that share a block build it once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch, InvariantViolated, MitmNotApplicable, PreconditionViolated
from .forms import (IntPolynomial, LRUCache, _grid_points, _grid_slabs, _int64_safe, block_classes, blocks, grid_values,
                    sym_tensor)
from .weights import WeightSpec, box, lattice_ranges

DEFAULT_BUDGET = 40_000_000
MEMO_RESIDUES = 1 << 17  # residues the value_counts memo holds over all its tables
PASS_CELLS = 1 << 12  # cells that cost about as much as the fixed cost of one numpy pass


@dataclass
class CountResult:
    count: float  # exact int for indicator weights, float for smooth weights
    method: str
    P: float
    meta: dict = field(default_factory=dict)


def is_diagonal(F: IntPolynomial) -> bool:
    """True when every monomial involves at most one variable (perfbench reads it; counting reads `forms.blocks`)."""
    return all(sum(1 for k in e if k) <= 1 for e in F.coeffs)


def _merge_half(parts, factors, P, ranges, budget: int, exact: bool):
    """Value distribution of the sum of the blocks `parts` of F, weighted by w.

    Each block adds its grid of values, each cell weighted by the product of
    the block's separable weight `factors` in variable order; cells of weight
    0 drop out.  Returns (sorted distinct int64 values, accumulated weights):
    float64, or Python ints when `exact`.  Each step's outer product of the
    distinct values by the block's cells is checked against `budget` first.
    """
    vals = np.array([0], dtype=np.int64)
    wts = np.array([1], dtype=object) if exact else np.array([1.0])
    for vars_, G in parts:
        axes = [np.arange(ranges[i][0], ranges[i][1] + 1, dtype=np.int64) for i in vars_]
        step = len(vals) * math.prod(map(len, axes))
        if step > budget:
            raise BudgetExceeded(f"mitm join step of {step} cells exceeds budget {budget}")
        fw = reduce(np.multiply.outer, [factors[i](ax / P) for i, ax in zip(vars_, axes)]).ravel()
        keep = fw > 0
        axis, fw = grid_values(G, axes).ravel()[keep], fw[keep]
        if exact:  # indicator weights: 0 or 1, as Python ints
            fw = fw.astype(np.int64).astype(object)
        newv = (vals[:, None] + axis[None, :]).ravel()
        neww = (wts[:, None] * fw[None, :]).ravel()
        vals, inverse = np.unique(newv, return_inverse=True)
        wts = np.zeros(len(vals), dtype=wts.dtype)
        np.add.at(wts, inverse, neww)  # in index order, as np.bincount adds float64 weights
    return vals, wts


def _auto_method(F: IntPolynomial, parts, w: WeightSpec, ranges) -> str:
    """mitm when F has two or more blocks, w is separable and F fits int64 on the box; else brute."""
    return "mitm" if len(parts) > 1 and w.separable_factors() is not None and _int64_safe(F, ranges) else "brute"


def weighted_count(
    F: IntPolynomial,
    w: WeightSpec,
    P: float,
    method: str = "auto",
    budget: int = DEFAULT_BUDGET,
) -> CountResult:
    """N_w(F;P) = sum over integer x with F(x)=0 of w(x/P)."""
    if w.n != F.n:
        raise DimensionMismatch("weight dimension != variable count")
    if not 0 < P < math.inf:
        raise PreconditionViolated(f"P must be positive and finite, got {P}")
    ranges = lattice_ranges(w, P)
    cells = math.prod(max(b - a + 1, 0) for a, b in ranges)
    const, parts = blocks(F)
    if method == "auto":
        method = _auto_method(F, parts, w, ranges)
    if method == "brute":
        if cells > budget:
            raise BudgetExceeded(f"{cells} cells exceed budget {budget}")
        pts = []  # the zeros of each slab, in grid order
        for slab in _grid_slabs([np.arange(a, b + 1, dtype=np.int64) for a, b in ranges], 1 << 22):
            zeros = np.unravel_index(np.flatnonzero(grid_values(F, slab) == 0), tuple(map(len, slab)))
            pts.append(np.stack([ax[z] for ax, z in zip(slab, zeros)], axis=1))
        total, meta = w.eval_many(np.concatenate(pts) / P).sum(), {"cells": cells}
    elif method == "mitm":
        factors = w.separable_factors()
        if factors is None:
            raise MitmNotApplicable("mitm needs a separable (or box) weight")
        if not _int64_safe(F, ranges):
            raise BudgetExceeded("mitm partial values overflow int64 at this height")
        exact = not w.smooth and cells >= 1 << 53  # below 2^53 cells float64 sums of 0/1 weights are exact
        half = len(parts) // 2
        lv, lw = _merge_half(parts[:half], factors, P, ranges, budget, exact)
        rv, rw = _merge_half(parts[half:], factors, P, ranges, budget, exact)
        # join: lv + rv + const = 0  ->  rv = -(lv + const)
        target = -(lv + const)
        pos = np.searchsorted(rv, target)
        hit = np.searchsorted(rv, target, side="right") > pos  # rv holds target at pos
        total, meta = (lw[hit] * rw[pos[hit]]).sum(), {"left": len(lv), "right": len(rv)}
    else:
        raise ValueError(f"unknown method {method!r}")
    total = float(total) if w.smooth else int(round(total))
    return CountResult(total, method, P, meta)


def _nonzero_solution_count(F: IntPolynomial, P: int, budget: int) -> int:
    """#{x != 0, |x| <= P, F(x) = 0} by `weighted_count` on the box."""
    return int(weighted_count(F, box(F.n), P, budget=budget).count) - 1  # remove x = 0


def _mobius_sieve(N: int):
    """mu(0..N) as an int64 array (mu[0] = 1)."""
    mu = np.ones(N + 1, dtype=np.int64)
    for p in primes_up_to(N):
        mu[p::p] *= -1
        mu[p * p::p * p] = 0
    return mu


def height_count(F: IntPolynomial, P: float, budget: int = DEFAULT_BUDGET) -> CountResult:
    """Projective points of height <= P: primitive vectors mod sign with F = 0."""
    if not 1 <= P < math.inf:
        raise PreconditionViolated(f"projective heights need a finite P >= 1, got {P}")
    P = int(P)
    if P + 1 > budget:  # the join at m = P holds at least 2P + 1 cells anyway
        raise BudgetExceeded(f"a Mobius sieve of {P + 1} cells exceeds budget {budget}")
    mu = _mobius_sieve(P)
    cache = {}
    total = 0
    for k in range(1, P + 1):
        if mu[k] == 0:
            continue
        m = P // k
        if m == 0:
            break
        if m not in cache:
            cache[m] = _nonzero_solution_count(F, m, budget)
        total += int(mu[k]) * cache[m]
    if total % 2:
        raise InvariantViolated(f"odd count {total}: nonzero primitive solutions come in +- pairs")
    method = _auto_method(F, blocks(F)[1], box(F.n), [(-P, P)] * F.n)  # the join that counted at height P
    return CountResult(total // 2, "mobius+" + method, P, {"pm_classes": True})


# -- counts mod q ----------------------------------------------------------------


def primes_up_to(n: int):
    """The primes p <= n, by a sieve of Eratosthenes on slices."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p in range(n + 1) if sieve[p]]


@lru_cache(maxsize=1)
def _small_primes() -> tuple:
    """The primes below 2^16, sieved once: trial division by them factors any q < 2^32."""
    return tuple(primes_up_to(1 << 16))


def factorint(q: int) -> dict:
    """{p: e} with q = prod p^e in increasing p ({} for q <= 1): trial division by the primes below 2^16, then the odd d."""
    out = {}
    for p in chain(_small_primes(), range(1 << 16 | 1, q, 2)):
        if p * p > q:
            break
        while q % p == 0:
            out[p] = out.get(p, 0) + 1
            q //= p
    if q > 1:
        out[q] = 1
    return out


def _grid_histogram(G: IntPolynomial, axes, q: int) -> np.ndarray:
    """Histogram of G mod q over the grid `axes`, built in the slabs of `forms._grid_slabs` of at most 2^22 cells."""
    hist = np.zeros(q, dtype=np.int64)
    for slab in _grid_slabs(axes, 1 << 22):
        hist += np.bincount(grid_values(G, slab, modulus=q).ravel(), minlength=q)
    return hist


@lru_cache(maxsize=64)
def _unit_powers(d: int, q: int) -> tuple:
    """((t, c), ...): the distinct d-th powers t of the units mod q, and how many units have each."""
    units = np.flatnonzero(np.gcd(np.arange(q), q) == 1)
    t, c = np.unique(grid_values(IntPolynomial(1, {(d,): 1}), [units], modulus=q), return_counts=True)
    return tuple(zip(t.tolist(), c.tolist()))


def _table_cells(m: int, d: int, p: int, k: int) -> int:
    """Cells of the cheaper path of `_block_histogram` for a degree-d form in m variables mod p^k."""
    reps = sum(p ** ((k - 1) * i + k * (m - 1 - i)) for i in range(m)) + m * PASS_CELLS
    spread = len(_unit_powers(d, p ** k)) * (p ** k + PASS_CELLS)
    below = _table_cells(m, d, p, k - 1) if k > 1 else 1 + PASS_CELLS
    return min(p ** (k * m) + PASS_CELLS, reps + spread + below + PASS_CELLS)


def _block_histogram(G: IntPolynomial, q: int, memo: LRUCache | None = None) -> np.ndarray:
    """Histogram of G mod q over [0, q)^G.n: its grid, or its unit orbits when they build fewer cells.

    The orbits serve a homogeneous G of degree d >= 1 in two or more variables
    mod q = p^k.  A unit u maps G(x) to u^d G(x); each orbit of primitive x
    has one representative whose first unit coordinate is 1, and their
    histogram is spread over the d-th powers t of the units, one gather per t.
    The x = p y have G(x) = p^d G(y): the table mod p^(k-1), mapped by s -> p^d s.
    With a `memo`, the table and each level below it are looked up in and stored to it, keyed as forms are.
    """
    if memo is not None:
        key = G.n, frozenset(G.coeffs.items()), q
        if (hit := memo.lookup(key)) is not None:
            return hit
    m, d, axis = G.n, G.degree, np.arange(q, dtype=np.int64)
    fac = factorint(q) if m > 1 and d >= 1 and G.is_homogeneous() else {}
    (p, k), = fac.items() if len(fac) == 1 else [(q, 0)]
    if not k or _table_cells(m, d, p, k) == q ** m + PASS_CELLS:
        hist = _grid_histogram(G, [axis] * m, q)
    else:
        reps = sum(_grid_histogram(G, [p * axis[:q // p]] * i + [axis[1:2]] + [axis] * (m - 1 - i), q)
                   for i in range(m))
        hist = sum(c * reps[pow(t, -1, q) * axis % q] for t, c in _unit_powers(d, q))
        np.add.at(hist, pow(p, d, q) * axis[:q // p] % q, _block_histogram(G, q // p, memo))
    hist.flags.writeable = False
    return hist if memo is None else memo.store(key, hist)


def value_counts(F: IntPolynomial, q: int, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """N_q(r) = #{x mod q : F(x) = r mod q} for r in [0, q), exact.

    Mod p^k: one histogram h per class of `forms.block_classes`, h[-t mod q]
    for a block -G, the copies of each sign joined by repeated squaring, all by
    cyclic convolution mod q and shifted by the constant term.  A block walks
    its q^|b| grid, or, homogeneous, about q^|b|/phi(q) orbit representatives,
    one gather of q cells per d-th power of a unit and the table mod p^(k-1)
    when those are fewer (`_block_histogram`).  Mod q with two or more prime
    factors: N_q(t) = prod_{p^e || q} N_{p^e}(t mod p^e), each table mod p^e
    tiled q/p^e times.  The price, sum_b q^|b| cells plus q^2 multiply-adds per
    block after the first, bounds either path and is checked against `budget`
    before any allocation.  Counts stay below q^n: int64 when n*log2(q) < 62,
    else Python ints.  Tables are memoised per (F, q), at most MEMO_RESIDUES
    residues in all, and returned read-only; the budget is checked on a hit as
    on a miss.  The memo also holds, under the same kind of key, the int64 table
    of each block and of each orbit level mod p^(k-1), ..., p, so a block that
    recurs in another form or level is built once.  Polynomials that are read
    once (the twisted sums of `expsums`) go to `_value_counts` without the
    memo, so they do not evict tables read again.
    """
    return _value_counts(F, q, budget, _value_counts_memo)


def _check_cost(parts, q: int, budget: int) -> int:
    """Cells of the k blocks `parts` plus (k-1)*q^2 for joins mod q, an upper bound; BudgetExceeded past `budget`."""
    if q >= 1 << 31:  # refused at any budget: residue products mod q would overflow int64
        raise BudgetExceeded(f"value tables mod {q} >= 2^31 are refused at any budget")
    cost = sum(q ** len(vars_) for vars_, _ in parts) + max(len(parts) - 1, 0) * q * q
    if cost > budget:
        raise BudgetExceeded(f"cost {cost} of the blocks of F mod {q} exceeds budget {budget}")
    return cost


def _cyclic_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The cyclic convolution mod q = len(a) of two residue tables: the linear one with its tail folded."""
    full = np.convolve(a, b)
    full[: len(a) - 1] += full[len(a):]
    return full[: len(a)]


def _cyclic_power(h: np.ndarray, k: int) -> np.ndarray:
    """k >= 1 copies of h joined by squaring: floor(log2 k) + popcount(k) - 1 convolutions, none past k copies."""
    return h if k == 1 else reduce(_cyclic_convolve, [_cyclic_power(h, k // 2)] * 2 + [h] * (k & 1))


def _value_counts(F: IntPolynomial, q: int, budget: int, memo: LRUCache | None = None) -> np.ndarray:
    """`value_counts`, looked up in and stored to `memo` when one is given."""
    const, parts = blocks(F)
    _check_cost(parts, q, budget)
    if memo is not None:
        key = F.n, frozenset(F.coeffs.items()), q
        if (hit := memo.lookup(key)) is not None:
            return hit
    dt = np.int64 if F.n * math.log2(q) < 62 else object
    fac = factorint(q)
    if len(fac) > 1:  # CRT: N_q(t) = prod over p^e || q of N_{p^e}(t mod p^e)
        out = np.ones(q, dtype=dt)
        for p, e in fac.items():  # t mod p^e is the column of t in rows of p^e cells: the table tiled q / p^e times
            rows = out.reshape(-1, p ** e)
            rows *= _value_counts(F, p ** e, budget, memo).astype(dt, copy=False)
    else:
        factors = []  # per class: its table h to the number of its blocks +G, and h[-t] to the number of blocks -G
        for members in block_classes(F)[1]:
            h = _block_histogram(members[0][2], q, memo).astype(dt, copy=False)
            count = [sign for _, sign, _ in members].count
            factors += [_cyclic_power(h if s > 0 else h[-np.arange(q) % q], count(s)) for s in (1, -1) if count(s)]
        dist = reduce(_cyclic_convolve, factors) if factors else np.eye(1, q, dtype=dt)[0]  # no blocks: the constant
        out = np.concatenate((dist[-const % q:], dist[:-const % q]))  # N(r) = dist[(r - const) mod q]
    out.flags.writeable = False
    # a one-block F with no constant has its block's key, and its block's table is stored already
    return out if memo is None or key in memo else memo.store(key, out)


_value_counts_memo = LRUCache(MEMO_RESIDUES, size=len)


def solutions_mod_q(F: IntPolynomial, q: int, budget: int = DEFAULT_BUDGET) -> int:
    """rho_F(q), exact; multiplicative over the prime powers of q (CRT)."""
    out = 1
    for p, e in factorint(q).items():  # empty for q = 1
        out *= int(value_counts(F, p ** e, budget)[0])
    return out


# -- auxiliary trilinear counts ---------------------------------------------------


def auxiliary_counts(F: IntPolynomial, kind: str, budget: int = DEFAULT_BUDGET, **params) -> int:
    """T(R), N(alpha, P) and S(R, Q) for the trilinear system of F.

    T(R): triples (w,x,y) in [-R,R]^{3n} with all L_i(w;x;y) = 0.
    N(alpha,P): |w|,|x|,|y| <= P with ||alpha L_i|| < 1/P for all i.
    S(R,Q): |w|,|x|,|y| <= R with ||alpha L_i|| < 1/Q for all i.
    alpha is a rational; the tests ||alpha L_i|| < theta are exact integer
    comparisons (`_near_integer`).  One pass over slabs of (w, x) pairs
    forms C = N(w, x, ., .) and L = C y for every y of the box at once.
    """
    T = sym_tensor(F)
    n = F.n
    if kind == "T":
        R, alpha = int(params["R"]), None
    elif kind == "N":
        R = int(math.floor(params["P"]))
        alpha, theta = Fraction(params["alpha"]), Fraction(1, int(params["P"]))
    elif kind == "S":
        R = int(params["R"])
        alpha, theta = Fraction(params["alpha"]), Fraction(1, int(params["Q"]))
    else:
        raise ValueError(f"unknown auxiliary count kind {kind!r}")
    lim = (2 * R + 1) ** (3 * n)
    if lim > budget:
        raise BudgetExceeded(f"{'T(R)' if kind == 'T' else kind} enumeration {lim} exceeds budget {budget}")
    # |L_i| <= R^3 sum_jkl |N_ijkl| <= the bound of 24 F on the box: past int64, exact Python ints
    dt = np.int64 if _int64_safe(T.reconstruct(), [(-R, R)] * n) else object
    V = _grid_points([np.arange(-R, R + 1)] * n).astype(dt)
    count = 0
    for W, X in _grid_slabs([V, V], max(1, (1 << 20) // (len(V) * n))):  # slabs of (w, x) pairs, about 2^20 values of L
        L = T.contract(W[:, None], X[None]) @ V.T  # L[w, x, i, y]
        ok = L == 0 if alpha is None else _near_integer(alpha, L, theta)
        count += int(ok.all(axis=-2).sum())
    return count


def _near_integer(alpha: Fraction, m, theta: Fraction) -> np.ndarray:
    """Mask of ||alpha * m|| < theta over an integer array m, exact.

    With alpha = a/q, r = (a mod q)(m mod q) mod q and theta = u/v, the
    distance is min(r, q - r)/q, and for an integer d, d/q < u/v holds
    exactly when d < ceil(q*u/v).  Residues stay int64 while q < 2^31.
    """
    a, q = alpha.numerator, alpha.denominator
    m = np.asarray(m)
    m = (m % q).astype(np.int64) if q < 1 << 31 else m.astype(object) % q
    r = (a % q) * m % q
    return np.minimum(r, q - r) < -(-q * theta.numerator // theta.denominator)
