"""Singular-locus dimensions over finite fields and hyperplane sections.

Dimension estimates are made by exact point counting over F_{p^k} (extension
fields realized as polynomial quotient rings with a deterministic modulus)
followed by a band test: an affine set of dimension d over F_q should carry
between q^d/C and C*q^d points.  No Groebner bases, no guessing: when the
bands do not single out a dimension we raise AmbiguousDimension.  Counts
constant on lines through 0 read one point per line (`_line_slabs`).
"""

from __future__ import annotations

import math
import operator
from itertools import combinations, product

import numpy as np

from .counting import DEFAULT_BUDGET, factorint
from .errors import (
    AmbiguousDimension,
    BudgetExceeded,
    CompositeP,
    DimensionMismatch,
    PreconditionViolated,
    SearchExhausted,
)
from .forms import IntPolynomial, LRUCache, _grid_slabs, _values_at, hessian_form_rows

GF_CACHE_ENTRIES = 32  # GF's cache bound: a field counts 1, or 1 per 2^19 cells of its q x q tables
RANK_CACHE_ENTRIES = 1024  # (G, p, k) rank histograms kept by _rank_counts
PROXY_PRIMES = (1009, 1013, 1019)
BAND_CONSTANT = 4.0


# -- finite fields -------------------------------------------------------------


def _digits(codes, p: int, k: int):
    """Base-p digits (c_0, ..., c_{k-1}) of field codes, along a new last axis."""
    return np.asarray(codes, dtype=np.int64)[..., None] // p ** np.arange(k) % p


def find_irreducible(p: int, k: int):
    """Lexicographically least monic irreducible of degree k over F_p.

    Coefficient tuples (c_0, ..., c_{k-1}, 1) are ordered by the base-p value
    of (c_{k-1}, ..., c_0), which makes the choice reproducible.  A sieve over
    those p^k values strikes out every product of monic factors of degrees d
    and k - d (d <= k/2); the least survivor is the answer.  The sieve holds
    p^k cells, so it serves the fields GF tabulates (p^k <= GF.MAX_TABLE_Q).
    """
    if k == 1:
        return (0, 1)
    if p ** k > GF.MAX_TABLE_Q:
        raise BudgetExceeded(f"the degree-{k} sieve over F_{p} needs {p ** k} cells")
    reducible = np.zeros(p ** k, dtype=bool)
    for d in range(1, k // 2 + 1):
        # every monic polynomial of degree d and of degree k - d: its digits, then the leading 1
        low, high = (np.pad(_digits(np.arange(p ** e), p, e), ((0, 0), (0, 1)), constant_values=1)
                     for e in (d, k - d))
        prod = np.zeros((p ** d, p ** (k - d), k + 1), dtype=np.int64)
        for i in range(d + 1):
            prod[:, :, i:i + k - d + 1] += low[:, None, i, None] * high
        reducible[prod[..., :k] % p @ p ** np.arange(k)] = True
    return tuple(_digits(np.argmin(reducible), p, k).tolist()) + (1,)


class GF:
    """F_{p^k}, the element sum c_i x^i mod `modulus` encoded as the integer sum c_i p^i.

    For k = 1 the codes are the residues mod p: F_p grids are evaluated over the
    integers mod p (`residues`) and reduced once.  For k >= 2 the q x q product
    and sum tables are filled in row blocks from the discrete logarithms of g, the
    least code that generates the unit group: a*b = g^(log a + log b) and
    a + b = a*(1 + b/a) (Zech logarithms).  Grid arithmetic is then one
    `np.take` on a flattened table.  Built fields are memoised per (p, k), the
    most recently used ones within GF_CACHE_ENTRIES: a field with tables counts
    once per 2^19 of its q^2 cells, rounded up, so the tables held cover at most
    2^24 cells (134 MB in two int32 tables).  Nothing compares fields by identity.
    """

    _cache = LRUCache(GF_CACHE_ENTRIES, size=lambda gf: 1 if gf.k == 1 else math.ceil(gf.q ** 2 / 2 ** 19))
    MAX_TABLE_Q = 4096  # k >= 2 uses q x q tables; refuse anything bigger

    def __new__(cls, p: int, k: int = 1):
        key = (p, k)
        hit = cls._cache.lookup(key)
        if hit is not None:
            return hit
        if factorint(p) != {p: 1}:
            raise CompositeP(f"{p} is not prime")
        if k >= 2 and p ** k > cls.MAX_TABLE_Q:
            raise BudgetExceeded(
                f"F_{p}^{k} needs {p ** (2 * k)} table cells, past the table budget q <= {cls.MAX_TABLE_Q}"
            )
        self = super().__new__(cls)
        self.p, self.k, self.q = p, k, p ** k
        self.modulus = find_irreducible(p, k)
        if k >= 2:
            self._fill_tables()
        return cls._cache.store(key, self)

    def _fill_tables(self):
        p, k, q = self.p, self.k, self.q
        digits = _digits(np.arange(q), p, k)
        shifts = [digits]  # shifts[j][b] = the digits of x^j * b: shift up, fold x^k back in
        for _ in range(k - 1):
            d = shifts[-1]
            shifts.append((np.pad(d[:, :-1], ((0, 0), (1, 0))) - d[:, -1:] * self.modulus[:k]) % p)
        for g in range(2, q):  # the least code whose powers reach q - 1 units before returning to 1
            times_g = (sum(c * s for c, s in zip(digits[g], shifts)) % p @ p ** np.arange(k)).tolist()
            powers = [1]
            while len(powers) < q - 1 and times_g[powers[-1]] != 1:
                powers.append(times_g[powers[-1]])
            if len(powers) == q - 1:
                break
        exp = np.zeros(3 * (q - 1) + 1, dtype=np.int32)  # g^e for e < 2(q - 1), then 0
        exp[:2 * (q - 1)] = np.tile(powers, 2)
        log = np.full(q, 2 * (q - 1), dtype=np.int64)  # log 0 lands every product in the zeros
        log[powers] = np.arange(q - 1)
        plus_one = np.arange(q) - digits[:, 0] + (digits[:, 0] + 1) % p
        self.mul_table = np.zeros(q * q, dtype=np.int32)  # row a = 0 is all zeros
        self.add_table = np.zeros(q * q, dtype=np.int32)
        self.add_table[:q] = np.arange(q)
        block = max(1, (1 << 18) // q)
        for a in range(1, q, block):
            la = log[a:a + block, None]
            rows = slice(a * q, (a + len(la)) * q)
            self.mul_table[rows] = exp[la + log].ravel()
            self.add_table[rows] = exp[la + log[plus_one[exp[log - la + q - 1]]]].ravel()
        self.neg_table = self.mul_table[(p - 1) * q:p * q]  # times the code p - 1, which is -1

    @property
    def residues(self):
        """The ring `forms._values_at` evaluates over: the integer p for F_p (below the 2^31 it allows), else this field."""
        return self.p if self.k == 1 and self.p < 1 << 31 else self

    def embed(self, c: int) -> int:
        """Image of an integer constant."""
        return int(c) % self.p

    # vectorized ops on code arrays
    def add(self, a, b):
        if self.k == 1:
            return (a + b) % self.p
        return np.take(self.add_table, a * self.q + b)

    def mul(self, a, b):
        if self.k == 1:
            return (a * b) % self.p
        return np.take(self.mul_table, a * self.q + b)

    def neg(self, a):
        if self.k == 1:
            return (-a) % self.p
        return np.take(self.neg_table, a)


def _slabs(q: int, n: int, budget: int, cells: int = 1 << 20):
    """Broadcast coordinate axes [x_1, ..., x_n] over F_q^n, in slabs of at most `cells` points (`forms._grid_slabs`).

    The grid's first axis is x_n, so a slab ravels with x_1 fastest and the
    slabs follow one another in mixed-radix order.
    """
    if q ** n > budget:
        raise BudgetExceeded(f"{q}^{n} = {q ** n} grid cells exceeds budget {budget}")
    for slab in _grid_slabs([np.arange(q, dtype=np.int64)] * n, cells):
        yield list(np.ix_(*slab)[::-1])


def _line_slabs(q: int, n: int, budget: int, cells: int = 1 << 20, stack: int = 1 << 16):
    """One point of each line through 0 in F_q^n, its first nonzero coordinate 1, as coordinate arrays [x_1, ..., x_n].

    Chart c < n holds the q^c points with x_{n-c} = 1 and 0 before it.  The charts are stacked into one slab of
    columns while they total at most `stack` points (x_n fastest), and each later one is walked in the broadcast
    slabs of `_slabs`, of at most `cells` points.  The budget must cover the largest chart, q^(n-1).
    """
    if q ** (n - 1) > budget:
        raise BudgetExceeded(f"{q}^{n - 1} = {q ** (n - 1)} grid cells exceeds budget {budget}")
    starts = np.array([(q ** c - 1) // (q - 1) for c in range(n + 1)])
    m = int(np.searchsorted(starts, stack, side="right")) - 1  # charts 0..m-1 are stacked
    if m:
        c = np.searchsorted(starts, np.arange(starts[m]), side="right") - 1
        t = np.arange(starts[m]) - starts[c]
        yield [np.where(i < c, t // q ** i % q, i == c) for i in range(n)][::-1]
    for c in range(m, n):
        for free in _slabs(q, c, budget, cells):
            yield [0] * (n - c - 1) + [1] + free


def count_points_ext(polys, p: int, k: int = 1, mode: str = "affine", budget: int = DEFAULT_BUDGET) -> int:
    """Exact count of common zeros over F_{p^k} in affine or projective space.

    Affine space is walked in the slabs of `_slabs`, projective space in those
    of `_line_slabs`, one point per line through 0; each holds its budget rule,
    and each polynomial is evaluated once per slab.
    """
    polys = list(polys)
    n = polys[0].n if polys else 0
    if any(g.n != n for g in polys):
        raise DimensionMismatch("mixed variable counts in system")
    if mode not in ("affine", "projective"):
        raise PreconditionViolated(f"unknown mode {mode!r}")
    if mode == "projective" and not all(g.is_homogeneous() for g in polys):
        raise PreconditionViolated("projective counting needs homogeneous forms")
    gf = GF(p, k)
    total = 0
    for coords in (_line_slabs if mode == "projective" else _slabs)(gf.q, n, budget):
        ok = np.ones(np.broadcast_shapes(*(np.shape(c) for c in coords)), dtype=bool)
        for g in polys:
            ok &= _values_at(g, coords, gf.residues) == 0
        total += int(ok.sum())
    return total


# -- dimension estimation ------------------------------------------------------


def _degrees(p: int, dim: int, kmax: int, budget: int) -> list:
    """The k <= kmax whose grid of (p^k)^dim cells fits the budget and, for k >= 2, `GF.MAX_TABLE_Q`."""
    ks = [k for k in range(1, kmax + 1) if (p ** k) ** dim <= budget and (k == 1 or p ** k <= GF.MAX_TABLE_Q)]
    if not ks:
        raise BudgetExceeded(f"no extension degree of F_{p} fits the budget {budget} for {p}^{dim} cells")
    return ks


def estimate_dim(counts: dict, p: int, nmax: int = 64) -> int:
    """Affine dimension from exact counts over F_{p^k}, k in counts.

    A set of dimension d over F_q should have between q^d/C and C*q^d points, C = BAND_CONSTANT;
    the returned dimension is the unique d consistent with every count
    (count 0 forces d = -1, count 1 forces d = 0 for cones through 0).
    """
    if not counts:
        raise ValueError("need at least one count")
    candidates = None
    for k, cnt in counts.items():
        q = p ** k
        if cnt == 0:
            local = {-1}
        elif cnt == 1:
            local = {0}  # decisive for cones: dim >= 1 forces >= q points
        else:
            local = {d for d in range(0, nmax + 1) if q ** d / BAND_CONSTANT <= cnt <= BAND_CONSTANT * q ** d}
        candidates = local if candidates is None else (candidates & local)
    if candidates is None or len(candidates) != 1:
        raise AmbiguousDimension(
            f"counts {counts} at p={p} leave candidate dimensions {sorted(candidates or ())}"
        )
    (d,) = candidates
    return d


def sing_dim(
    G: IntPolynomial,
    p: int | None = None,
    kmax: int = 2,
    budget: int = DEFAULT_BUDGET,
):
    """Projective dimension s_v of the singular locus of the hypersurface G = 0.

    With a prime p this is s_p; with p=None it is the rational proxy
    max over the large primes PROXY_PRIMES of s_p (sound upper bound only,
    since s_p >= s_infinity for every p), returned as (value, "proxy").
    """
    if p is None:
        vals = [sing_dim(G, q, kmax=1, budget=budget) for q in PROXY_PRIMES]
        return max(vals), "proxy"
    if factorint(p) != {p: 1}:
        raise CompositeP(f"s_p needs a prime p, got {p}")
    n = G.n
    if not any(c % p for c in G.coeffs.values()):
        return n - 1  # convention: G vanishes identically mod p
    if n == 1:
        return -1  # protocol for forms in one variable
    system = [G] + [G.partial(i) for i in range(n)]
    counts = {k: count_points_ext(system, p, k, mode="projective", budget=budget)
              for k in _degrees(p, n - 1, kmax, budget)}
    if all(c == 0 for c in counts.values()):
        return -1
    return min(estimate_dim(counts, p, nmax=n - 2), n - 2)


# -- Hessian rank loci ---------------------------------------------------------


def _ranks_of_matrix_grid(entry_vals, gf: GF, n: int):
    """Rank of many symmetric n x n matrices given as value arrays, for any n.

    A symmetric matrix over any field has rank r exactly when r is the largest
    order of a nonzero principal minor.  Each minor is computed once, by
    expansion along its first row, from the minors one order below; only two
    orders are held at a time.  Over F_p, while the at most n products of a
    minor and their sum stay below 2^62, they are added in int64 and reduced once.
    """
    levels, need = [], set()  # the (rows, cols) of the minors needed, order n first
    for m in range(n, 0, -1):
        need |= {(S, S) for S in combinations(range(n), m)}
        levels.append(need)
        need = {(rows[1:], cols[:t] + cols[t + 1:]) for rows, cols in need for t in range(m)}
    rank = np.zeros(np.shape(entry_vals[0][0]) if n else (), dtype=np.int8)
    exact = gf.k == 1 and n * (gf.p - 1) ** 2 < 1 << 62
    mul, add, neg = (operator.mul, operator.iadd, operator.neg) if exact else (gf.mul, gf.add, gf.neg)
    below = {((), ()): gf.embed(1)}  # the empty minor
    for m, keys in enumerate(reversed(levels), start=1):
        minors = {}
        for rows, cols in keys:
            det = 0  # iadd on it makes a new array, which the later terms are added into in place
            for t, c in enumerate(cols):
                term = mul(entry_vals[rows[0]][c], below[rows[1:], cols[:t] + cols[t + 1:]])
                det = add(det, term if t % 2 == 0 else neg(term))
            if exact:
                det %= gf.p
            minors[rows, cols] = det
            if rows == cols:
                rank[det != 0] = m
        below = minors
    return rank


def _hessian_ranks(G: IntPolynomial, gf: GF, slabs):
    """rank H_G on each slab of coordinates, ravelled; each entry of the upper triangle is evaluated once a slab."""
    n, rows = G.n, hessian_form_rows(G)
    for coords in slabs:
        vals = {(i, j): _values_at(rows[i][j], coords, gf.residues) for i in range(n) for j in range(i, n)}
        yield _ranks_of_matrix_grid([[vals[min(i, j), max(i, j)] for j in range(n)] for i in range(n)], gf, n).ravel()


def hessian_rank_grid(G: IntPolynomial, p: int, k: int = 1, budget: int = DEFAULT_BUDGET):
    """Array of rank H_G(x) over all x in F_{p^k}^n (x_1 fastest, mix-radix order)."""
    gf = GF(p, k)
    return np.concatenate(list(_hessian_ranks(G, gf, _slabs(gf.q, G.n, budget))))


_rank_count_cache = LRUCache(RANK_CACHE_ENTRIES)


def _rank_counts(G: IntPolynomial, p: int, k: int, budget: int) -> list:
    """counts[r] = #{x in F_{p^k}^n : rank H_G(x) = r}, cached per (G, p, k).

    A form of degree d has H_G(u x) = u^(d-2) H_G(x) for units u: a point of `_line_slabs` stands for the q - 1 of
    its line, and 0 has rank 0 unless d <= 2 makes H_G constant.  Any other G takes the whole grid.
    """
    key = (G, p, k)
    hit = _rank_count_cache.lookup(key)
    if hit is not None:
        return hit
    n, gf = G.n, GF(p, k)
    if not G.is_homogeneous():
        return _rank_count_cache.store(key, np.bincount(hessian_rank_grid(G, p, k, budget), minlength=n + 1).tolist())
    ranks = np.concatenate([np.zeros(0, np.int8), *_hessian_ranks(G, gf, _line_slabs(gf.q, n, budget))])
    counts = np.bincount(ranks, minlength=n + 1) * (gf.q - 1)
    counts[np.argmax(counts) if G.degree <= 2 else 0] += 1
    return _rank_count_cache.store(key, counts.tolist())


def hessian_rank_profile(
    G: IntPolynomial,
    p: int,
    r: int,
    kmax: int = 2,
    budget: int = DEFAULT_BUDGET,
    s_p: int | None = None,
) -> dict:
    """#T_r = #{x in F_p^n : rank H_G(x) <= r} with the check dim T_r <= min(n, r + s_p + 1).

    Counts come from F_{p^k} for every k <= kmax that fits the budget; s_p is
    computed here unless the caller passes it.
    """
    if factorint(p) != {p: 1}:
        raise CompositeP(f"Hessian rank loci need a prime p, got {p}")
    if p % 3 == 0:
        raise PreconditionViolated(f"Hessian rank loci need p prime to 3 (cubic forms), got p={p}")
    n = G.n
    if s_p is None:  # first, since sing_dim is what refuses a non-form
        s_p = sing_dim(G, p, kmax=kmax, budget=budget)
    counts = {k: int(sum(_rank_counts(G, p, k, budget)[: min(r, n) + 1])) for k in _degrees(p, n, kmax, budget)}
    bound = min(n, r + s_p + 1)
    try:  # dim is None when the bands leave more than one candidate
        dim = estimate_dim(counts, p, nmax=n) if any(counts.values()) else -1
    except AmbiguousDimension:
        dim = None
    return {
        "count": counts[1],
        "counts": counts,
        "dim": dim,
        "s_p": s_p,
        "bound": bound,
        "dim_ok": None if dim is None else dim <= bound,
        "ratio": counts[1] / p ** bound if bound >= 0 else float(counts[1]),
    }


def b_set_profile(G: IntPolynomial, p: int, s: int, budget: int = DEFAULT_BUDGET) -> dict:
    """#B_s over F_p for a cubic form G, with its dimension check.

    For cubic G the symmetry H_G(x)h = H_G(h)x turns dim A_h into
    n - rank H_G(h), so B_s is the rank <= n-s locus of the Hessian in h.
    """
    if G.degree != 3 or not G.is_homogeneous(3):
        raise PreconditionViolated("b_set_profile expects a cubic form")
    if s > G.n:
        return {"count": 0, "counts": {}, "dim": -1, "s_p": None, "bound": -1, "dim_ok": True, "ratio": 0.0}
    return hessian_rank_profile(G, p, G.n - s, budget=budget)


def dim_A_h(G: IntPolynomial, p: int, h, budget: int = DEFAULT_BUDGET) -> int:
    """Affine dimension of A_h = {x: H_G(x) h = 0} over F_p by direct count."""
    n = G.n
    rows = hessian_form_rows(G)
    system = [sum((int(h[j]) % p * rows[i][j] for j in range(n)), IntPolynomial(n)) for i in range(n)]
    cnt = count_points_ext(system, p, 1, "affine", budget)
    return round(math.log(cnt, p)) if cnt > 1 else 0


# -- hyperplane sections -------------------------------------------------------


def restrict_to_hyperplane_mod_p(G: IntPolynomial, m, p: int) -> IntPolynomial:
    """The section form G|_{m.x=0} in n-1 variables, valid mod p."""
    n = G.n
    pivot = next((i for i in range(n) if m[i] % p), None)
    if pivot is None:
        raise ValueError("m vanishes mod p; no hyperplane")
    inv = pow(int(m[pivot]) % p, -1, p)
    cols = []
    for j in range(n):
        if j == pivot:
            continue
        col = [0] * n
        col[j] = 1
        col[pivot] = (-m[j] * inv) % p
        cols.append(col)
    return G.substitute_affine([0] * n, cols)


def _primitive_vectors_by_norm(n: int, M_max: int):
    """Primitive m with |m| = M, first nonzero coordinate positive, lex order."""
    for M in range(1, M_max + 1):  # product walks each shell in lex order
        yield from (m for m in product(range(-M, M + 1), repeat=n)
                    if max(map(abs, m)) == M and next(x for x in m if x) > 0 and math.gcd(*m) == 1)


def shortest_orthogonal_gap(m, bound: float) -> bool:
    """True iff no nonzero integer e with |e| < bound satisfies m.e = 0."""
    n = len(m)
    B = math.ceil(bound) - 1
    if B < 1:
        return True
    for e in product(range(-B, B + 1), repeat=n):
        if any(e) and sum(a * b for a, b in zip(m, e)) == 0:
            return False
    return True


def find_hyperplane(G: IntPolynomial, primes, M_max: int, budget: int = DEFAULT_BUDGET) -> dict:
    """Search for a primitive m whose hyperplane section drops s_v by one.

    Checks v = rational proxy and all p in `primes` with p >= 5; also
    requires the shortest vector orthogonal to m to have length at least
    |m|^(1/(n-1)) / 2.  The first acceptable m in increasing max-norm
    (lexicographic tie-break) is returned along with the observed data.
    """
    n = G.n
    if n < 2:
        raise PreconditionViolated("need at least two variables to slice")
    checked = [p for p in primes if p >= 5]
    s_proxy, _ = sing_dim(G, None, budget=budget)
    targets = {"proxy": max(-1, s_proxy - 1)}
    for p in checked:
        targets[p] = max(-1, sing_dim(G, p, budget=budget) - 1)

    def section_dim(m, p, kmax=2):
        sec = restrict_to_hyperplane_mod_p(G, m, p)
        return sing_dim(sec, p, kmax=kmax, budget=budget) if sec.n > 1 else -1

    for m in _primitive_vectors_by_norm(n, M_max):
        L = max(abs(x) for x in m) ** (1.0 / (n - 1))
        if not shortest_orthogonal_gap(m, 0.5 * L):
            continue
        observed = {}
        for p in checked:
            observed[p] = section_dim(m, p)
            if observed[p] != targets[p]:
                break
        else:
            observed["proxy"] = max(section_dim(m, p, kmax=1) for p in PROXY_PRIMES)
            if observed["proxy"] == targets["proxy"]:
                return {"m": m, "targets": targets, "observed": observed, "norm": max(abs(x) for x in m)}
    raise SearchExhausted(f"no hyperplane with |m| <= {M_max} passed all checks")

