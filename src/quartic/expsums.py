"""Complete exponential sums mod q, their CRT structure, and kernel counts.

Individual sums S_{a,q} and T(a,q;v) are computed as complex doubles from a
precomputed root-of-unity table (phases are exact residues, so there is no
trigonometric drift), with a stated error bound.  The direct path reads the
value distribution of a*F + v.x mod q from `counting.value_counts` (which
builds a composite q's table from its prime-power tables, the same integers
as its grid); `auto` takes it whenever that fits the budget, else the CRT
product of the sums over the prime powers of q.  Untwisted sums read the
one memoised distribution of F for every a: the distribution of a*F is an
exact reindexing of it.  Aggregates that feed the singular series are exact
integers: A_{p^k} is read from the one distribution mod p^k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .counting import _check_cost, _value_counts, factorint, value_counts
from .errors import BudgetExceeded, DimensionMismatch, InvariantViolated, NotCoprime, PreconditionViolated
from .forms import CubicData, IntPolynomial, _grid_points, _grid_slabs, blocks, grid_values

DEFAULT_BUDGET = 20_000_000


@dataclass
class ExpSumValue:
    value: complex
    err: float
    exact: int | None = None
    q: int = 0
    n: int = 0


@lru_cache(maxsize=256)
def roots_of_unity(q: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(q) / q)


def _check_modulus(q: int) -> None:
    if q < 1:
        raise PreconditionViolated(f"modulus q must be a positive integer, got {q}")


def _sum_from_counts(counts: np.ndarray, q: int, n: int) -> ExpSumValue:
    val = complex(counts @ roots_of_unity(q))
    err = 4e-15 * float(counts.sum()) * max(math.log2(q), 1.0)
    return ExpSumValue(value=val, err=err, q=q, n=n)


def _scaled_counts(counts: np.ndarray, a: int, q: int) -> np.ndarray:
    """N_{aF} from N_F, exactly: N_{aF}(s) is the sum of N_F(r) over a*r = s mod q."""
    out = np.zeros(q, dtype=counts.dtype)
    np.add.at(out, np.arange(q, dtype=np.int64) * (a % q) % q, counts)
    return out


def _direct_sum(poly: IntPolynomial, a: int, q: int, v, budget: int) -> ExpSumValue:
    """sum over x mod q of e_q(a poly(x) + v.x), read off the value distribution mod q.

    Untwisted sums reindex the memoised distribution of poly, so every a shares
    one table.  a = 0 drops every monomial, so 0*poly keeps its own blocks and
    budget check.  A twisted polynomial a*poly + v.x is read once, so its table
    is built without the memo.
    """
    n = poly.n
    if a and not any(v):
        return _sum_from_counts(_scaled_counts(value_counts(poly, q, budget), a, q), q, n)
    coeffs = {e: int(a) * c for e, c in poly.coeffs.items()}
    for i, vi in enumerate(v):
        e = tuple(int(i == j) for j in range(n))
        coeffs[e] = coeffs.get(e, 0) + vi
    return _sum_from_counts(_value_counts(IntPolynomial(n, coeffs), q, budget), q, n)


def _sum(poly: IntPolynomial, a: int, q: int, v, method: str, budget: int) -> ExpSumValue:
    """The direct sum, the CRT product, or (auto) direct when `value_counts` fits the budget."""
    _check_modulus(q)
    if q == 1:
        return ExpSumValue(1.0 + 0j, 0.0, exact=1, q=1, n=poly.n)
    if method not in ("auto", "direct", "crt"):
        raise ValueError(f"unknown method {method!r}")
    if method != "crt":
        try:
            return _direct_sum(poly, a, q, v, budget)
        except BudgetExceeded:
            if method == "direct":
                raise
    return _crt_sum(poly, a, q, v, budget)


def complete_sum(
    F: IntPolynomial, a: int, q: int, method: str = "auto", budget: int = DEFAULT_BUDGET
) -> ExpSumValue:
    """S_{a,q} = sum over x mod q of e_q(a F(x))."""
    return _sum(F, a, q, (), method, budget)


def twisted_sum(
    g, a: int, q: int, v, method: str = "auto", budget: int = DEFAULT_BUDGET
) -> ExpSumValue:
    """T(a,q;v) = sum over y mod q of e_q(a g(y) + v.y)."""
    poly = g.poly if isinstance(g, CubicData) else g
    if len(v) != poly.n:
        raise DimensionMismatch("v length != variable count")
    return _sum(poly, a, q, tuple(int(x) for x in v), method, budget)


def _twisted_table(poly: IntPolynomial, a: int, q: int, budget: int) -> np.ndarray:
    """T(a, q; v) for every v in [0, q)^n, bit for bit as `twisted_sum(..., method="direct")`.

    a*poly(y) mod q comes from one residue pass; each slab of rows v adds v.y
    and counts the residues of every row, and T(a, q; v) is read off the count
    vector of row v as in `twisted_sum`.
    """
    n = poly.n
    if q > 1:  # the budget rule of twisted_sum (value_counts on the blocks of poly), and the q^2n cells walked
        _check_cost(blocks(poly)[1], q, budget)
        if q ** (2 * n) > budget:
            raise BudgetExceeded(f"twisted table of {q ** (2 * n)} cells mod {q} exceeds budget {budget}")
    ys = _grid_points([np.arange(q)] * n)
    ag = grid_values(poly, [np.arange(q)] * n, modulus=q).ravel() * a % q
    table = []
    for (vs,) in _grid_slabs([ys], max(1, (1 << 22) // len(ys))):  # slabs of rows v, about 2^22 (v, y) cells each
        vals = (vs @ ys.T + ag) % q  # row v holds a*poly(y) + v.y mod q
        vals += q * np.arange(len(vals))[:, None]  # row v counts into bins [v q, (v + 1) q)
        counts = np.bincount(vals.ravel(), minlength=len(vals) * q).reshape(-1, q)
        table += [_sum_from_counts(row, q, n).value for row in counts]
    return np.array(table, dtype=complex).reshape((q,) * n)


def _crt_sum(poly: IntPolynomial, a: int, q: int, v, budget: int) -> ExpSumValue:
    """Multiplicative splitting over the prime powers of q.

    T(a, q; v) is the product over r || q of T(a c, r; c v) with c = (q/r)^-1 mod r,
    which is T(a, rs; v) = T(a sbar, r; sbar v) T(a rbar, s; rbar v) applied to every r.
    """
    val = 1.0 + 0j
    err = 0.0
    for r in [p ** e for p, e in sorted(factorint(q).items())]:
        c = pow(q // r, -1, r)
        part = _direct_sum(poly, a * c % r, r, _scale_v(v, c, r), budget)
        err = err * abs(part.value) + part.err * abs(val)
        val *= part.value
    return ExpSumValue(val, err + 1e-12, q=q, n=poly.n)


def _scale_v(v, s, q):
    return tuple((s * x) % q for x in v)


# -- exact aggregated sums -----------------------------------------------------


def unit_sum_prime_power(F: IntPolynomial, p: int, k: int, budget: int = DEFAULT_BUDGET) -> int:
    """A_{p^k} = sum over gcd(a,p)=1 of S_{a,p^k}, exactly, from the one table N = N_{p^k}.

    Summing S_{a,q} over all a mod q counts solutions, so
    A_{p^k} = p^k rho(p^k) - p^{n+k-1} rho(p^{k-1}), and p^n rho(p^{k-1}) is
    the sum of N(r) over r = 0 mod p^{k-1}.
    """
    if k == 0:
        return 1
    N = value_counts(F, p ** k, budget)
    return p ** k * int(N[0]) - p ** (k - 1) * int(N[:: p ** (k - 1)].sum())


def sum_over_units(F: IntPolynomial, q: int, budget: int = DEFAULT_BUDGET) -> int:
    """A_q = sum over gcd(a,q)=1 of S_{a,q} as an exact integer (multiplicative)."""
    _check_modulus(q)
    out = 1
    for p, e in factorint(q).items():  # empty for q = 1
        out *= unit_sum_prime_power(F, p, e, budget=budget)
    return out


def sum_over_units_float(F: IntPolynomial, q: int, budget: int = DEFAULT_BUDGET) -> complex:
    """Float cross-check of A_q by direct summation over the units."""
    total = 0.0 + 0j
    for a in range(1, q + 1):
        if math.gcd(a, q) == 1:
            total += complete_sum(F, a, q, budget=budget).value
    return total


# -- modulus factorization q = b c^2 d -------------------------------------------


@dataclass
class ModulusFactorization:
    q: int
    b: int
    c: int
    d: int
    d0: int
    prime_table: dict
    b_i: list = field(default_factory=list)
    d_i: list = field(default_factory=list)
    r_i: list = field(default_factory=list)

    def verify(self) -> bool:
        ok = self.q == self.b * self.c ** 2 * self.d
        ok &= math.gcd(self.b, self.c ** 2 * self.d) == 1
        ok &= self.c % self.d == 0
        ok &= self.d % self.d0 == 0
        ok &= _is_squarefull(self.c // (self.d * self.d0))
        if self.r_i:
            ok &= math.prod(self.r_i) == self.b * self.d
            ok &= all(self.r_i[i] == self.b_i[i] * self.d_i[i] for i in range(len(self.r_i)))
        return ok


def _is_squarefull(m: int) -> bool:
    return all(e >= 2 for e in factorint(m).values()) if m > 1 else True


def factor_bcd(q: int, s_map: dict | None = None, n: int | None = None) -> ModulusFactorization:
    """Write q = b c^2 d with b the small-exponent part and d the odd-exponent tail.

    b collects p^e with e <= 2, d the primes with odd e >= 3, and c^2 the rest;
    d divides c and there is a least divisor d0 of d with c/(d*d0) square-full.
    With s_map (p -> s_p) the classified tables b_i, d_i, r_i are filled for
    0 <= i <= n (r_i multiplies the p^e || bd with s_p = i-1).
    """
    fac = factorint(q) if q > 1 else {}
    parts = {p: (p ** e, 1) if e <= 2 else (1, p ** (e % 2)) for p, e in fac.items()}  # p -> (b part, d part)
    b, d = math.prod(bp for bp, _ in parts.values()), math.prod(dp for _, dp in parts.values())
    c2 = q // (b * d)
    c = math.isqrt(c2)
    if c * c != c2:
        raise InvariantViolated(f"c^2 = {c2} is not a square")
    cd = c // d
    d0 = math.prod(p for p, (_, dp) in parts.items() if dp > 1 and cd % p == 0 and cd % (p * p) != 0)
    mf = ModulusFactorization(q=q, b=b, c=c, d=d, d0=d0, prime_table=dict(sorted(fac.items())))
    if s_map is not None:
        if n is None:
            n = max((s + 1 for s in s_map.values()), default=0) + 1
        classes = [[parts[p] for p in parts if s_map.get(p) == i - 1] for i in range(n + 1)]
        mf.b_i = [math.prod(bp for bp, _ in cls) for cls in classes]
        mf.d_i = [math.prod(dp for _, dp in cls) for cls in classes]
        mf.r_i = [bi * di for bi, di in zip(mf.b_i, mf.d_i)]
    return mf


# -- multiplicativity check -------------------------------------------------------


def split_multiplicative(g, a: int, r: int, s: int, v, budget: int = DEFAULT_BUDGET) -> dict:
    """Residual of T(a,rs;v) = T(a sbar, r; sbar v) T(a rbar, s; rbar v)."""
    poly = g.poly if isinstance(g, CubicData) else g
    if r < 1 or s < 1:
        raise PreconditionViolated(f"moduli r and s must be positive integers, got r={r}, s={s}")
    if math.gcd(r, s) != 1:
        raise NotCoprime(f"gcd({r},{s}) != 1")
    direct = twisted_sum(poly, a % (r * s) or r * s, r * s, v, method="direct", budget=budget)
    rbar, sbar = pow(r, -1, s), pow(s, -1, r)  # r*rbar + s*sbar = 1 mod rs
    left = twisted_sum(poly, (a * sbar) % r or r, r, _scale_v(tuple(v), sbar, r), method="direct", budget=budget)
    right = twisted_sum(poly, (a * rbar) % s or s, s, _scale_v(tuple(v), rbar, s), method="direct", budget=budget)
    prod = left.value * right.value
    return {"direct": direct.value, "left": left.value, "right": right.value, "product": prod,
            "residual": abs(direct.value - prod), "scale": float(r * s) ** poly.n}


# -- kernel counts mod m ----------------------------------------------------------


def smith_diagonal(M) -> list:
    """Diagonal of the Smith normal form of a small integer matrix."""
    A = [list(map(int, row)) for row in M]
    rows = len(A)
    cols = len(A[0]) if rows else 0
    diag = []
    top = 0
    while top < min(rows, cols):
        # find the smallest nonzero entry in the submatrix
        best = None
        for i in range(top, rows):
            for j in range(top, cols):
                if A[i][j] and (best is None or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        A[top], A[bi] = A[bi], A[top]
        for row in A:
            row[top], row[bj] = row[bj], row[top]
        pivot = A[top][top]
        dirty = False
        for i in range(top + 1, rows):
            f = A[i][top] // pivot
            if f:
                for j in range(top, cols):
                    A[i][j] -= f * A[top][j]
            if A[i][top]:
                dirty = True
        for j in range(top + 1, cols):
            f = A[top][j] // pivot
            if f:
                for i in range(top, rows):
                    A[i][j] -= f * A[i][top]
            if A[top][j]:
                dirty = True
        if dirty:
            continue
        diag.append(abs(pivot))
        top += 1
    while len(diag) < min(rows, cols):
        diag.append(0)
    return diag


def kernel_count_mod(M, m: int) -> int:
    """#{y mod m : M y = 0 mod m} = prod gcd(d_i, m) over the SNF diagonal."""
    if m == 1:
        return 1
    n = len(M[0]) if M else 0
    diag = smith_diagonal(M)
    out = 1
    for d in diag:
        out *= math.gcd(d, m) if d else m
    # non-square matrices: extra free columns
    out *= m ** (n - len(diag))
    return out

