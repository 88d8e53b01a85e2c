"""Exact point counts: weighted counts, projective height counts, counts mod q.

Two backends: brute enumeration over the weight's support box, and a
meet-in-the-middle (mitm) path for block forms F = sum_b G_b(x_b) with a
separable weight, which joins the value distribution of one half of the
blocks (`forms.blocks`) against the other half.  Both are exact; they agree
wherever both run.  `value_counts` gives the value distribution of a
polynomial mod q, which rho(q) here and the complete sums in `expsums` read;
it convolves the value histograms of the blocks of F (`forms.blocks`), so a
diagonal form costs n*q cells and n-1 convolutions of q^2 steps, not q^n.
It is memoised per (F, q), so every S_{a,q} and rho(q) share one table.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch, InvariantViolated, MitmNotApplicable, PreconditionViolated
from .forms import IntPolynomial, LRUCache, _grid_points, _int64_safe, blocks, grid_values, sym_tensor
from .geometry import primes_up_to
from .weights import WeightSpec, box, lattice_ranges

DEFAULT_BUDGET = 40_000_000
MEMO_RESIDUES = 1 << 17  # residues the value_counts memo holds over all its tables


@dataclass
class CountResult:
    count: float  # exact int for indicator weights, float for smooth weights
    method: str
    P: float
    elapsed: float
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
    t0 = time.time()
    ranges = lattice_ranges(w, P)
    cells = math.prod(max(b - a + 1, 0) for a, b in ranges)
    const, parts = blocks(F)
    if method == "auto":
        method = _auto_method(F, parts, w, ranges)
    if method == "brute":
        if cells > budget:
            raise BudgetExceeded(f"{cells} cells exceed budget {budget}")
        axes = [np.arange(a, b + 1, dtype=np.int64) for a, b in ranges]
        zeros = np.nonzero(grid_values(F, axes) == 0)
        pts = np.stack([ax[z] for ax, z in zip(axes, zeros)], axis=1)
        total, meta = w.eval_many(pts / P).sum(), {"cells": cells}
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
    return CountResult(total, method, P, time.time() - t0, meta)


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
    t0 = time.time()
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
    return CountResult(total // 2, "mobius+" + method, P, time.time() - t0, {"pm_classes": True})


# -- counts mod q ----------------------------------------------------------------


def factorint(q: int):
    out = {}
    d = 2
    while d * d <= q:
        while q % d == 0:
            out[d] = out.get(d, 0) + 1
            q //= d
        d += 1
    if q > 1:
        out[q] = out.get(q, 0) + 1
    return out


def _block_histogram(G: IntPolynomial, q: int) -> np.ndarray:
    """Histogram of G mod q over [0, q)^G.n, built in first-axis slabs of about 2^22 cells."""
    axis = np.arange(q, dtype=np.int64)
    step = max(1, (1 << 22) // q ** (G.n - 1))
    hist = np.zeros(q, dtype=np.int64)
    for start in range(0, q, step):
        vals = grid_values(G, [axis[start:start + step]] + [axis] * (G.n - 1), modulus=q)
        hist += np.bincount(vals.ravel(), minlength=q)
    return hist


def value_counts(F: IntPolynomial, q: int, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """N_q(r) = #{x mod q : F(x) = r mod q} for r in [0, q), exact.

    One histogram per distinct block polynomial of F (`forms.blocks`), joined
    by cyclic convolution mod q and shifted by the constant term.  The cost,
    sum_b q^|b| cells plus q^2 multiply-adds for each block joined after the
    first, is checked against `budget` before any allocation.  Counts stay
    below q^n: int64 when n*log2(q) < 62, else Python ints.  Tables are
    memoised per (F, q), at most MEMO_RESIDUES residues in all, and returned
    read-only; the budget is checked on a hit as on a miss.  Polynomials that
    are read once (the twisted sums of `expsums`) go to `_value_counts`
    without the memo, so they do not evict the tables that are read again.
    """
    return _value_counts(F, q, budget, _value_counts_memo)


def _check_cost(parts, q: int, budget: int) -> None:
    """BudgetExceeded when the blocks `parts` of F cost more than `budget` in `value_counts` mod q."""
    if q >= 1 << 31:  # refused at any budget: residue products mod q would overflow int64
        raise BudgetExceeded(f"value tables mod {q} >= 2^31 are refused at any budget")
    cost = sum(q ** len(vars_) for vars_, _ in parts) + max(len(parts) - 1, 0) * q * q
    if cost > budget:
        raise BudgetExceeded(f"cost {cost} of the blocks of F mod {q} exceeds budget {budget}")


def _value_counts(F: IntPolynomial, q: int, budget: int, memo: LRUCache | None = None) -> np.ndarray:
    """`value_counts`, looked up in and stored to `memo` when one is given."""
    const, parts = blocks(F)
    _check_cost(parts, q, budget)
    if memo is not None:
        memo_key = (F.n, frozenset(F.coeffs.items()), q)
        hit = memo.lookup(memo_key)
        if hit is not None:
            return hit
    dt = np.int64 if F.n * math.log2(q) < 62 else object
    dist = np.eye(1, q, dtype=dt)[0]  # no blocks: every value is the constant
    hists = {}  # blocks with the same polynomial share one histogram
    for i, (vars_, G) in enumerate(parts):
        key = (len(vars_), frozenset(G.coeffs.items()))  # cheaper to hash than G
        if key not in hists:
            hists[key] = _block_histogram(G, q).astype(dt, copy=False)
        if i == 0:
            dist = hists[key]
            continue
        full = np.convolve(dist, hists[key])
        dist = full[:q]
        dist[: q - 1] += full[q:]  # fold the tail: cyclic convolution mod q
    out = np.concatenate((dist[-const % q:], dist[:-const % q]))  # N(r) = dist[(r - const) mod q]
    out.flags.writeable = False
    return out if memo is None else memo.store(memo_key, out)


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
    N(alpha,P): |w|,|x|,|y| <= c*P with ||alpha L_i|| < 1/P for all i.
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
        R = int(math.floor(params.get("c", 1.0) * params["P"]))
        alpha, theta = Fraction(params["alpha"]), Fraction(1, int(params["P"]))
    elif kind == "S":
        R = int(params["R"])
        alpha, theta = Fraction(params["alpha"]), Fraction(1, int(params["Q"]))
    else:
        raise ValueError(f"unknown auxiliary count kind {kind!r}")
    lim = (2 * R + 1) ** (3 * n)
    if lim > budget:
        raise BudgetExceeded(f"{'T(R)' if kind == 'T' else kind} enumeration {lim} exceeds budget")
    # |L_i| <= R^3 sum_jkl |N_ijkl| <= the bound of 24 F on the box: past int64, exact Python ints
    dt = np.int64 if _int64_safe(T.reconstruct(), [(-R, R)] * n) else object
    V = _grid_points([np.arange(-R, R + 1)] * n).astype(dt)
    step = max(1, (1 << 20) // (len(V) ** 2 * n))  # slabs of about 2^20 values of L
    count = 0
    for start in range(0, len(V), step):
        L = T.contract(V[start:start + step, None], V[None]) @ V.T  # L[w, x, i, y]
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
