"""Complete exponential sums mod q, their CRT structure, and kernel counts.

Individual sums S_{a,q} and T(a,q;v) are computed as complex doubles from a
precomputed root-of-unity table (phases are exact residues, so there is no
trigonometric drift), with a stated error bound.  The direct path reads the
value distribution of a*F + v.x mod q from `counting.value_counts`; `auto`
takes it whenever that fits the budget, else the CRT product over the prime
powers of q.  Untwisted sums read the one memoised distribution of F for
every a: the distribution of a*F is an exact reindexing of it.  Aggregates
that feed the singular series are exact integers: A_{p^k} is read from the
one distribution mod p^k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .counting import _check_cost, _value_counts, factorint, value_counts
from .errors import BudgetExceeded, DimensionMismatch, InvariantViolated, NotCoprime, PreconditionViolated
from .forms import CubicData, IntPolynomial, _grid_points, blocks, grid_values, hessian
from .geometry import _xgcd

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
    table = np.empty(len(ys), dtype=complex)
    step = max(1, (1 << 22) // len(ys))
    for start in range(0, len(ys), step):
        vals = (ys[start:start + step] @ ys.T + ag) % q  # row v holds a*poly(y) + v.y mod q
        vals += q * np.arange(len(vals))[:, None]  # row v counts into bins [v q, (v + 1) q)
        counts = np.bincount(vals.ravel(), minlength=len(vals) * q).reshape(-1, q)
        table[start:start + len(vals)] = [_sum_from_counts(row, q, n).value for row in counts]
    return table.reshape((q,) * n)


def _crt_sum(poly: IntPolynomial, a: int, q: int, v, budget: int) -> ExpSumValue:
    """Multiplicative splitting over the prime powers of q.

    Peels prime powers off via T(a, rs; v) = T(a sbar, r; sbar v) T(a rbar, s; rbar v)
    where r rbar + s sbar = 1.
    """
    val = 1.0 + 0j
    err = 0.0
    a_cur, v_cur, q_cur = a % q, v, q
    for r in [p ** e for p, e in sorted(factorint(q).items())]:
        s = q_cur // r
        _, rbar, sbar = _xgcd(r, s)  # r*rbar + s*sbar = 1; at the last prime power s = sbar = 1
        part = _direct_sum(poly, (a_cur * sbar) % r, r, _scale_v(v_cur, sbar, r), budget)
        err = err * abs(part.value) + part.err * abs(val)
        val *= part.value
        a_cur = (a_cur * rbar) % s
        v_cur = _scale_v(v_cur, rbar, s)
        q_cur = s
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
    b = d = 1
    c2 = 1
    for p, e in fac.items():
        if e <= 2:
            b *= p ** e
        elif e % 2 == 1:
            d *= p
            c2 *= p ** (e - 1)
        else:
            c2 *= p ** e
    c = math.isqrt(c2)
    if c * c != c2:
        raise InvariantViolated(f"c^2 = {c2} is not a square")
    d0 = 1
    if d > 1:
        cd = c // d
        for p in factorint(d):
            if cd % p == 0 and cd % (p * p) != 0:
                d0 *= p
    mf = ModulusFactorization(q=q, b=b, c=c, d=d, d0=d0, prime_table=dict(sorted(fac.items())))
    if s_map is not None:
        if n is None:
            n = max((s + 1 for s in s_map.values()), default=0) + 1
        b_i, d_i, r_i = [], [], []
        for i in range(n + 1):
            bi = di = 1
            for p, e in fac.items():
                sp = s_map.get(p)
                if sp is None or sp != i - 1:
                    continue
                if e <= 2:
                    bi *= p ** e
                elif e % 2 == 1:
                    di *= p
            b_i.append(bi)
            d_i.append(di)
            r_i.append(bi * di)
        mf.b_i, mf.d_i, mf.r_i = b_i, d_i, r_i
    return mf


# -- multiplicativity check -------------------------------------------------------


def split_multiplicative(g, a: int, r: int, s: int, v, budget: int = DEFAULT_BUDGET) -> dict:
    """Residual of T(a,rs;v) = T(a sbar, r; sbar v) T(a rbar, s; rbar v)."""
    poly = g.poly if isinstance(g, CubicData) else g
    if math.gcd(r, s) != 1:
        raise NotCoprime(f"gcd({r},{s}) != 1")
    gcd, rbar, sbar = _xgcd(r, s)  # r*rbar + s*sbar = 1
    direct = twisted_sum(poly, a % (r * s) or r * s, r * s, v, method="direct", budget=budget)
    left = twisted_sum(poly, (a * sbar) % r or r, r, _scale_v(tuple(v), sbar, r), method="direct", budget=budget)
    right = twisted_sum(poly, (a * rbar) % s or s, s, _scale_v(tuple(v), rbar, s), method="direct", budget=budget)
    prod = left.value * right.value
    return {"direct": direct.value, "left": left.value, "right": right.value, "product": prod,
            "residual": abs(direct.value - prod), "scale": float(r * s) ** poly.n}


# -- kernel counts M_m, N_m --------------------------------------------------------


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


def mn_counts(g: CubicData, x, m: int) -> tuple:
    """(M_m(x), N_m(x)): kernels mod m of the full Hessian and of H_{g0}."""
    return kernel_count_mod(hessian(g.poly, x), m), kernel_count_mod(hessian(g.g0, x), m)


# -- the box-and-congruence sum S(V, a) ---------------------------------------------


def _residue_count_in_window(center: int, V: float, c: int, t: int) -> int:
    """#{v in [center-V, center+V] integer : v = t mod c}."""
    lo = math.ceil(center - V)
    hi = math.floor(center + V)
    if hi < lo:
        return 0
    first = lo + ((t - lo) % c)
    if first > hi:
        return 0
    return (hi - first) // c + 1


def s_va(
    g: CubicData,
    V: float,
    a: int,
    v0,
    c: int,
    d: int,
    budget: int = DEFAULT_BUDGET,
) -> dict:
    """S(V,a) = sum over |v - v0| <= V and r mod c with c | (a grad g(r) + v) of sqrt(M_d(r)).

    Exact integer when every M_d value is a perfect square; float otherwise.
    """
    n = g.n
    if d > 1 and c % d != 0:
        raise ValueError("d must divide c")
    if c ** n > budget:
        raise BudgetExceeded(f"{c}^{n} residue points exceed budget")
    d = max(d, 1)
    # M_d depends on r mod d only (kernel_count_mod(., 1) = 1)
    md = np.ones((d,) * n, dtype=np.int64)
    for r in np.ndindex(md.shape):
        md[r] = kernel_count_mod(hessian(g.poly, r), d)
    grads = [g.poly.partial(i) for i in range(n)]
    # window[r] = #{v in the box : c | a grad g(r) + v}, from one table per axis
    # indexed by residue; Python ints, so the products are exact
    tables = [np.array([_residue_count_in_window(int(v0[i]), V, c, t) for t in range(c)], dtype=object)
              for i in range(n)]
    # slabs of the first axis bound the working set to about 2^20 residues r
    axis = np.arange(c)
    step = max(1, (1 << 20) // c ** (n - 1)) if n else c
    total_int, total_float, exact = 0, 0.0, True
    for start in range(0, c, step):
        axes = [axis[start:start + step]] + [axis] * (n - 1) if n else []
        Md = md[np.ix_(*[ax % d for ax in axes])]
        window = np.ones(Md.shape, dtype=object)
        for i in range(n):
            window = window * tables[i][(-(a % c) * grid_values(grads[i], axes, modulus=c)) % c]
        root = np.vectorize(math.isqrt, otypes=[np.int64])(Md)
        square = root * root == Md
        total_int += int(window[square].dot(root[square]))
        total_float += float(window[~square].astype(np.float64) @ np.sqrt(Md[~square]))
        exact = exact and not window[~square].any()
    return {"value": total_int + total_float, "exact": exact, "int_part": total_int}
